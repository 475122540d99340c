"""Serving-throughput experiment: the QAService path, measured.

Earlier PRs measured serving with ad-hoc ``predict`` loops inside each
experiment; this table drives the real production path instead — export
each task's program artifact, load it into a
:class:`~repro.serving.QAService`, and serve the task's test pages as
raw HTML through ingest → route → batch → predict.  Three regimes per
task:

* ``direct`` — ``predict_batch`` on pre-parsed pages (no service): the
  baseline ceiling;
* ``serve cold`` — the service fed raw HTML with an empty page cache
  (parse + index paid per page);
* ``serve warm`` — the same requests replayed against the warm cache
  (the steady state of a recrawl-heavy workload).

Accuracy is asserted, not measured: every serving answer must equal the
fitted tool's answer on the same re-parsed page, or the run aborts —
the table is a pure throughput story.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.webqa import WebQA
from ..dataset.tasks import TASKS_BY_ID
from ..serving.ingest import ingest_html, ingest_summary
from ..serving.service import QAService, ServingRequest
from ..webtree.html_out import page_to_html
from .common import ExperimentConfig, dataset_for

#: One task per domain keeps the table readable and the run short.
SERVING_TASKS = ("fac_t1", "conf_t1", "class_t2", "clinic_t5")


@dataclass(frozen=True)
class ServingRow:
    """Measured serving regimes for one task."""

    task_id: str
    pages: int
    direct_pps: float
    serve_cold_pps: float
    serve_warm_pps: float
    cache_hit_rate: float

    @property
    def overhead(self) -> float:
        """Warm service throughput loss vs the direct baseline."""
        if self.direct_pps <= 0:
            return 0.0
        return 1.0 - self.serve_warm_pps / self.direct_pps


def _measure_task(
    task_id: str, config: ExperimentConfig, repeats: int
) -> ServingRow:
    task = TASKS_BY_ID[task_id]
    dataset = dataset_for(task, config)
    tool = WebQA(ensemble_size=config.ensemble_size, seed=config.seed).fit(
        task.question,
        task.keywords,
        list(dataset.train),
        list(dataset.test_pages),
        dataset.models,
    )
    artifact = tool.export_artifact(
        task_meta={"task_id": task.task_id, "domain": task.domain}
    )

    requests = [
        ServingRequest(route=task_id, html=page_to_html(page), url=page.url)
        for page in dataset.test_pages
    ]
    with QAService(jobs=config.jobs, backend=config.backend) as service:
        service.register(task_id, artifact)

        # Cold pass: empty cache, parse+index in the measured path.
        start = time.perf_counter()
        cold_answers = service.ask_many(requests)
        cold_seconds = time.perf_counter() - start

        # Warm passes: identical requests, answered off the page cache.
        warm_seconds = float("inf")
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            warm_answers = service.ask_many(requests)
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
        if warm_answers != cold_answers:
            raise AssertionError(f"{task_id}: warm serving diverged from cold")
        # Snapshot the hit rate *before* the baseline probes below touch
        # the cache, so the reported number reflects serving traffic only.
        hit_rate = ingest_summary(service.cache.stats.snapshot())["hit_rate"]

        # Direct baseline on the same page objects the service answered
        # from (re-ingest resolves cached entries and transparently
        # re-parses any the LRU evicted, so the lists always align
        # request-for-request).
        pages = [
            ingest_html(request.html or "", request.url, cache=service.cache)
            for request in requests
        ]
        start = time.perf_counter()
        direct_answers = tool.predict_batch(pages, jobs=config.jobs)
        direct_seconds = time.perf_counter() - start
        if direct_answers != cold_answers:
            raise AssertionError(f"{task_id}: service diverged from predict_batch")

    n = len(requests)
    return ServingRow(
        task_id=task_id,
        pages=n,
        direct_pps=n / direct_seconds if direct_seconds > 0 else 0.0,
        serve_cold_pps=n / cold_seconds if cold_seconds > 0 else 0.0,
        serve_warm_pps=n / warm_seconds if warm_seconds > 0 else 0.0,
        cache_hit_rate=hit_rate,
    )


def run(config: ExperimentConfig, repeats: int = 3) -> list[ServingRow]:
    """Measure every serving task; rows in :data:`SERVING_TASKS` order."""
    return [
        _measure_task(task_id, config, repeats) for task_id in SERVING_TASKS
    ]


def render(rows: list[ServingRow]) -> str:
    """The serving-throughput table, experiments-runner style."""
    lines = [
        "Serving throughput (QAService vs direct predict_batch; pages/s)",
        "",
        f"{'task':<10} {'pages':>5} {'direct':>10} {'cold':>10} "
        f"{'warm':>10} {'overhead':>9} {'cache':>6}",
    ]
    for row in rows:
        lines.append(
            f"{row.task_id:<10} {row.pages:>5} {row.direct_pps:>10.1f} "
            f"{row.serve_cold_pps:>10.1f} {row.serve_warm_pps:>10.1f} "
            f"{row.overhead * 100:>8.1f}% {row.cache_hit_rate * 100:>5.0f}%"
        )
    return "\n".join(lines)


def run_and_render(config: ExperimentConfig) -> str:
    return render(run(config))
