"""Shared experiment plumbing: run tools on task datasets, collect scores.

Every experiment module builds on :func:`evaluate_tool` /
:func:`run_comparison`; the ``ExperimentConfig`` controls corpus scale so
benchmarks can run reduced versions of the paper's full sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..baselines.base import ExtractionTool
from ..core.results import TaskResult
from ..dataset.corpus import TaskDataset, load_task_dataset
from ..dataset.tasks import TASKS, Task
from ..metrics.scores import score_examples
from ..runtime import TaskRunner, warm_pages

#: Factory producing a fresh tool per task (tools hold per-task state).
#: With the ``process`` backend, factories must be picklable (a class,
#: a module-level function or a ``functools.partial`` — not a lambda).
ToolFactory = Callable[[], ExtractionTool]


@dataclass(frozen=True)
class ExperimentConfig:
    """Corpus and system scale for one experiment run.

    The defaults are a reduced-but-faithful version of the paper's setup
    (40 pages, 5 labels, N=1000) sized so the whole suite runs in minutes
    on a laptop; pass ``paper_scale()`` for the full thing.

    ``jobs``/``backend`` control the parallel task runtime: sweeps fan
    independent tasks across a :class:`~repro.runtime.TaskRunner` pool.
    Results are deterministic and identically ordered for any ``jobs``.
    """

    n_pages: int = 20
    n_train: int = 4
    ensemble_size: int = 200
    seed: int = 0
    use_label_suggestions: bool = True
    jobs: int = 1
    backend: str = "thread"


def paper_scale(
    seed: int = 0,
    ensemble_size: int = 1000,
    jobs: int = 1,
    backend: str = "thread",
) -> ExperimentConfig:
    """The paper's corpus scale (~40 pages, 5 labels, N=1000).

    Corpus size is fixed; seed, ensemble size and runtime parallelism
    remain caller-selectable so ``--paper-scale`` composes with the
    other CLI flags instead of silently discarding them.
    """
    return ExperimentConfig(
        n_pages=40, n_train=5,
        ensemble_size=ensemble_size, seed=seed, jobs=jobs, backend=backend,
    )


def quick_scale() -> ExperimentConfig:
    """Small corpus for smoke tests and CI benchmarks."""
    return ExperimentConfig(n_pages=10, n_train=3, ensemble_size=50)


def dataset_for(task: Task, config: ExperimentConfig) -> TaskDataset:
    return load_task_dataset(
        task,
        n_pages=config.n_pages,
        n_train=config.n_train,
        seed=config.seed,
        use_label_suggestions=config.use_label_suggestions,
    )


def clear_process_caches() -> None:
    """Reset the process-wide NLP/metric memo tables.

    The pure-function caches (NER span extraction, token-F1 triples,
    Substring segment splits, the selection loss's answer word sets) are
    keyed on content and shared by every model bundle in the process —
    exactly what serving wants, but a timing hazard for A/B experiments:
    the first variant measured warms them for the rest.  Timing harnesses
    (Table 3's ablation) call this between variants so every variant
    starts equally cold.  Results are never affected — the caches
    memoize pure functions.
    """
    from ..dsl.eval import _segments
    from ..dsl.productions import expand_extractor, expand_locator, gen_guards
    from ..metrics.tokens import _string_tokens, _token_prf_cached
    from ..nlp.ner import _extract_entities_cached
    from ..selection.loss import answer_word_set
    from ..synthesis.examples import _string_memo_cache

    _extract_entities_cached.cache_clear()
    _token_prf_cached.cache_clear()
    _string_tokens.cache_clear()
    _segments.cache_clear()
    expand_extractor.cache_clear()
    expand_locator.cache_clear()
    gen_guards.cache_clear()
    answer_word_set.cache_clear()
    _string_memo_cache.clear()


def evaluate_tool(
    tool: ExtractionTool, dataset: TaskDataset
) -> TaskResult:
    """Fit ``tool`` on a task and score it on the task's test set."""
    task = dataset.task
    start = time.perf_counter()
    tool.fit(
        task.question,
        task.keywords,
        list(dataset.train),
        list(dataset.test_pages),
        dataset.models,
    )
    seconds = time.perf_counter() - start
    predictions = tool.predict_all(list(dataset.test_pages))
    score = score_examples(zip(predictions, dataset.test_gold))
    return TaskResult(
        task_id=task.task_id,
        domain=task.domain,
        tool=tool.name,
        score=score,
        seconds=seconds,
    )


def _evaluate_task_job(
    job: tuple[Task, tuple[ToolFactory, ...], ExperimentConfig],
) -> list[TaskResult]:
    """One worker unit: build a task's dataset, warm it, run every tool.

    The job carries only the task *description* plus the config; the
    dataset (pages, models) is rebuilt worker-side from the seeded
    generators, so process workers never pickle page trees.
    """
    task, factories, config = job
    dataset = dataset_for(task, config)
    warm_pages(dataset.all_pages())
    return [evaluate_tool(factory(), dataset) for factory in factories]


def run_comparison(
    tool_factories: dict[str, ToolFactory],
    config: ExperimentConfig,
    tasks: tuple[Task, ...] = TASKS,
) -> list[TaskResult]:
    """Every tool on every task; the raw material for Tables 2/6, Fig 12.

    Tasks fan out across ``config.jobs`` workers (``config.backend``
    pool); within a task, tools run sequentially against the shared
    dataset.  Result order is always tasks-major, factory-minor —
    identical to the serial sweep regardless of ``jobs``.
    """
    runner = TaskRunner(jobs=config.jobs, backend=config.backend)
    factories = tuple(tool_factories.values())
    per_task = runner.map(
        _evaluate_task_job, [(task, factories, config) for task in tasks]
    )
    return [result for task_results in per_task for result in task_results]
