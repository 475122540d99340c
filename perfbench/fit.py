"""Workload ``fit``: a user's first fit of all 25 dataset tasks.

Each pass is a fresh interpreter (``run.py --fit-pass``), because a
user's first fit starts from a cold process.  A pass builds the 25 task
datasets with ``ExperimentConfig(seed=...)`` defaults (4 labeled pages,
16 unlabeled pages, ensemble 200, ``jobs=1``) and warms their page
indexes — that is its set-up — then fits ``WebQA`` task after task in
the timed window.  Afterwards, outside the window, each program is
applied to its task's held-out pages and scored by token F1.

A run makes one pass per ~7 seconds of ``--seconds`` (at least one),
each over its own seeded corpus, and reports medians over its passes.
Task difficulty varies between corpora, so one corpus per run would
make the metrics follow the corpus more than the program.  A task whose
loaded artifact answers differently from the fitted tool counts as a
failed op.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time

from common import (
    OUT_DIR,
    ROOT,
    layer_metrics,
    median,
    peak_rss_mb,
    percentile,
)

#: Nominal seconds of one cold pass (start-up, set-up, fit, apply); it
#: sizes how many passes ``--seconds`` buys.
PASS_SECONDS = 7.0
#: The per-task tail is p85: of a pass's 25 task fits, 3 lie beyond it.
#: A pass's p99 is its single slowest task, which on one corpus in five
#: took 2.5x as long as on the others.
TAIL = 0.85


def child_pass(seed: int, trace: bool, started: float) -> dict:
    """One cold pass; ``started`` is the clock at interpreter start-up."""
    from repro.core.webqa import WebQA
    from repro.dataset.tasks import TASKS
    from repro.experiments.common import ExperimentConfig, dataset_for
    from repro.html.parser import parse_call_count, parse_fallback_count
    from repro.metrics.scores import score_examples
    from repro.runtime import warm_pages

    from tracing import Tracer, traced

    config = ExperimentConfig(seed=seed)
    datasets = [dataset_for(task, config) for task in TASKS]
    for dataset in datasets:
        warm_pages(dataset.all_pages())
    setup_s = time.perf_counter() - started

    tracer = Tracer()
    tools = []
    fit_ms = []
    parses = parse_call_count()
    fallbacks = parse_fallback_count()
    with traced(tracer) if trace else contextlib.nullcontext():
        window_start = time.perf_counter()
        for dataset in datasets:
            task = dataset.task
            tracer.set_rid(task.task_id)
            began = time.perf_counter()
            tool = WebQA(
                ensemble_size=config.ensemble_size, seed=config.seed
            ).fit(
                task.question,
                task.keywords,
                list(dataset.train),
                list(dataset.test_pages),
                dataset.models,
            )
            fit_ms.append((time.perf_counter() - began) * 1e3)
            tools.append(tool)
        fit_s = time.perf_counter() - window_start
    parse_calls = parse_call_count() - parses
    parse_fallbacks = parse_fallback_count() - fallbacks

    # Outside the window: ship each program as an artifact, load it into
    # a fresh serving tool (cold evaluation state) and answer the
    # held-out pages; the loaded tool must answer as the fitted one does.
    apply_ms = []
    f1 = {}
    mismatched = []
    for tool, dataset in zip(tools, datasets):
        pages = list(dataset.test_pages)
        artifact = tool.export_artifact()
        began = time.perf_counter()
        served = WebQA.from_artifact(artifact).predict_all(pages)
        apply_ms.append((time.perf_counter() - began) * 1e3)
        predictions = tool.predict_all(pages)
        if served != predictions:
            mismatched.append(dataset.task.task_id)
        f1[dataset.task.task_id] = score_examples(
            zip(predictions, dataset.test_gold)
        ).f1

    result = {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "fit_ms": fit_ms,
        "apply_ms": apply_ms,
        "f1": f1,
        "mismatched": mismatched,
    }
    if trace:
        stats = [tool.report.synthesis.stats for tool in tools]
        evaluated = sum(s.extractors_evaluated for s in stats)
        dedup = sum(s.extractor_dedup_hits for s in stats)
        tasks = len(tools)
        summary = tracer.summary()
        summary["counters"]["html.parse_calls"] = parse_calls
        result["layers"] = layer_metrics(
            summary,
            ops=tasks,
            parse_calls=parse_calls,
            parse_fallbacks=parse_fallbacks,
            extra={
                "synthesis.partitions_explored": sum(
                    s.partitions_explored for s in stats
                ) / tasks,
                "synthesis.guards_tried": sum(s.guards_tried for s in stats)
                / tasks,
                "synthesis.extractors_evaluated": evaluated / tasks,
                "synthesis.extractor_dedup_ratio": dedup / (evaluated + dedup)
                if evaluated + dedup
                else 0.0,
            },
        )
        result["spans"] = summary["spans"]
        result["counters"] = summary["counters"]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"fit-pass{seed}.spans.jsonl"))
    return result


def _run_pass(seed: int, trace: bool) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "run.py"),
            "--fit-pass",
            "--seed", str(seed),
            "--trace", "1" if trace else "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"fit pass exited with {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def pass_seeds(seed: int, seconds: float) -> "list[int]":
    """The dataset seeds of a run's passes: one corpus per pass.

    The count follows from ``seconds`` alone, never from how fast passes
    ran, so every commit fits the same corpora at one ``--seed``.
    """
    count = max(1, round(seconds / PASS_SECONDS))
    return [seed * 1000 + index for index in range(count)]


def _end_to_end(passes: "list[dict]") -> dict:
    """Each timing is taken per pass (one corpus), then the median over
    passes: one unusually hard corpus then moves no metric."""
    f1 = [value for p in passes for value in p["f1"].values()]
    return {
        "setup_s": median([p["setup_s"] for p in passes]),
        "peak_rss_mb": peak_rss_mb(),
        "p50_ms": median([percentile(p["fit_ms"], 0.50) for p in passes]),
        "tail_ms": median([percentile(p["fit_ms"], TAIL) for p in passes]),
        "ops_per_s": len(passes[0]["fit_ms"])
        / median([p["fit_s"] for p in passes]),
        "secondary_p50_ms": median(
            [percentile(p["apply_ms"], 0.50) for p in passes]
        ),
        "quality": sum(f1) / len(f1),
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    seeds = pass_seeds(seed, seconds)
    passes = [_run_pass(s, trace=False) for s in seeds]
    attempted = sum(len(p["fit_ms"]) for p in passes)
    failed = sum(len(p["mismatched"]) for p in passes)
    metrics = _end_to_end(passes)
    summary: dict = {"spans": {}, "counters": {}}
    if trace:
        traced_passes = [_run_pass(s, trace=True) for s in seeds]
        attempted += sum(len(p["fit_ms"]) for p in traced_passes)
        # Tracing must not change what is learned.
        failed += sum(
            len(p["mismatched"])
            + sum(p["f1"][task] != q["f1"][task] for task in p["f1"])
            for p, q in zip(traced_passes, passes)
        )
        layers = {
            name: sum(p["layers"][name] for p in traced_passes)
            / len(traced_passes)
            for name in traced_passes[0]["layers"]
        }
        layers["trace.overhead_ratio"] = (
            metrics["ops_per_s"] / _end_to_end(traced_passes)["ops_per_s"] - 1.0
        )
        for p in traced_passes:
            for name, span in p["spans"].items():
                merged = summary["spans"].setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                for key in merged:
                    merged[key] += span[key]
            for name, value in p["counters"].items():
                summary["counters"][name] = summary["counters"].get(name, 0) + value
        metrics = layers
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "summary": summary,
        "notes": {"test_f1": [p["f1"] for p in passes]},
        "setup_times": [p["setup_s"] for p in passes],
    }
