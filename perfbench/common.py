"""Metric definitions and helpers shared by the three workloads.

Every workload reports every end-to-end metric; what the workload's
"op" is differs, and ``README.md`` in this directory maps each name to
what it measures on each workload.  Per-layer metrics are computed from
one :class:`~tracing.Tracer` summary by :func:`layer_metrics`; a layer a
workload bypasses reports 0.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch files (stores, indexes) of a run; removed when it ends.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
#: Trace files (span JSON lines and per-run summaries).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: The seed the served programs are fitted with.  ``serve_pages`` and
#: ``corpus_live`` serve one deployment; their ``--seed`` draws the
#: traffic (requests, feeds, question order), not the programs.
DEPLOYMENT_SEED = 0

#: name -> unit, for every workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
    "secondary_p50_ms": "ms",
    "quality": "f1",
}

#: name -> unit, reported by every traced run (0 where a layer is bypassed).
#: Timings are means per call; ``*_calls`` are calls per op of the
#: workload (a fitted task, a page request, a corpus event).
PER_LAYER = {
    "synthesis.synthesize_ms": "ms",
    "synthesis.branch_ms": "ms",
    "synthesis.branch_calls": "count",
    "synthesis.partitions_explored": "count",
    "synthesis.guards_tried": "count",
    "synthesis.extractors_evaluated": "count",
    "synthesis.extractor_dedup_ratio": "ratio",
    "selection.select_ms": "ms",
    "selection.hamming_calls": "count",
    "selection.hamming_calls_per_ask": "count",
    "nlp.similarity_batch_ms": "ms",
    "nlp.similarity_batch_calls": "count",
    "runtime.batchq.wait_p50_ms": "ms",
    "runtime.batchq.wait_p99_ms": "ms",
    "runtime.batchq.batch_mean": "count",
    "runtime.batchq.size_flush_ratio": "ratio",
    "serving.service.ask_many_ms": "ms",
    "serving.service.busy_ratio": "ratio",
    "serving.ingest.ingest_us": "us",
    "serving.ingest.hit_ratio": "ratio",
    "html.parse_ms": "ms",
    "html.parse_calls": "count",
    "html.fallback_ratio": "ratio",
    "webtree.build_tree_ms": "ms",
    "core.predict_us": "us",
    "retrieval.query_terms_us": "us",
    "retrieval.score_ms": "ms",
    "retrieval.vote_ms": "ms",
    "webtree.store_load_us": "us",
    "webtree.store_loads_per_ask": "count",
    "retrieval.index_reload_ms": "ms",
    "webtree.store_reload_ms": "ms",
    "webtree.store_publish_ms": "ms",
    "retrieval.index_update_ms": "ms",
    "webtree.store_generations": "count",
    "serving.live.compact_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BacklogError(RuntimeError):
    """An open-loop timeline fell behind its schedule: the run is invalid."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return max(own, children) / scale


def token_f1(answer, gold) -> float:
    from repro.metrics.scores import score_examples

    return score_examples([(answer, gold)]).f1


def _mean_ms(spans: dict, name: str, scale: float = 1e3) -> float:
    span = spans.get(name)
    if not span or not span["calls"]:
        return 0.0
    return span["total_s"] / span["calls"] * scale


def _calls(spans: dict, name: str) -> int:
    span = spans.get(name)
    return span["calls"] if span else 0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    summary: dict,
    *,
    ops: int,
    asks: int = 0,
    shards: int = 0,
    wall_s: float = 0.0,
    parse_calls: int = 0,
    parse_fallbacks: int = 0,
    extra: "dict | None" = None,
) -> dict:
    """Every :data:`PER_LAYER` value from one tracer summary.

    ``parse_calls``/``parse_fallbacks`` are the deltas of the parser's
    own process counters over the window; ``extra`` carries values the
    workload measures itself (synthesis statistics, generations, lag).
    """
    spans = summary["spans"]
    counters = summary["counters"]
    waits = summary["waits"]
    batches = summary["batches"]
    ask_many = spans.get("serving.ask_many", {"total_s": 0.0})
    publishes = _calls(spans, "webtree.store_publish_manifest")
    publish_s = sum(
        spans.get(name, {"total_s": 0.0})["total_s"]
        for name in (
            "webtree.store_publish_segment",
            "webtree.store_publish_manifest",
        )
    )
    hamming = counters.get("selection.hamming", 0)
    values = {
        "synthesis.synthesize_ms": _mean_ms(spans, "synthesis.synthesize"),
        "synthesis.branch_ms": _mean_ms(spans, "synthesis.branch"),
        "synthesis.branch_calls": _ratio(_calls(spans, "synthesis.branch"), ops),
        "selection.select_ms": _mean_ms(spans, "selection.select"),
        "selection.hamming_calls": _ratio(hamming, ops),
        "selection.hamming_calls_per_ask": _ratio(hamming, asks),
        "nlp.similarity_batch_ms": _mean_ms(spans, "nlp.similarity_batch"),
        "nlp.similarity_batch_calls": _ratio(
            _calls(spans, "nlp.similarity_batch"), ops
        ),
        "runtime.batchq.wait_p50_ms": percentile(waits, 0.50) * 1e3,
        "runtime.batchq.wait_p99_ms": percentile(waits, 0.99) * 1e3,
        "runtime.batchq.batch_mean": _ratio(sum(batches), len(batches)),
        "runtime.batchq.size_flush_ratio": _ratio(
            counters.get("runtime.batchq.size_flush", 0), len(batches)
        ),
        "serving.service.ask_many_ms": _mean_ms(spans, "serving.ask_many"),
        "serving.service.busy_ratio": _ratio(
            ask_many["total_s"], shards * wall_s
        ),
        "serving.ingest.ingest_us": _mean_ms(spans, "serving.ingest", 1e6),
        "serving.ingest.hit_ratio": _ratio(
            counters.get("serving.ingest.hit", 0),
            _calls(spans, "serving.ingest"),
        ),
        "html.parse_ms": _mean_ms(spans, "html.parse"),
        "html.parse_calls": _ratio(parse_calls, ops),
        "html.fallback_ratio": _ratio(parse_fallbacks, parse_calls),
        "webtree.build_tree_ms": _mean_ms(spans, "webtree.build_tree"),
        "core.predict_us": _mean_ms(spans, "core.predict", 1e6),
        "retrieval.query_terms_us": _mean_ms(
            spans, "retrieval.query_terms", 1e6
        ),
        "retrieval.score_ms": _mean_ms(spans, "retrieval.score"),
        "retrieval.vote_ms": _mean_ms(spans, "retrieval.vote"),
        "webtree.store_load_us": _mean_ms(spans, "webtree.store_load", 1e6),
        "webtree.store_loads_per_ask": _ratio(
            _calls(spans, "webtree.store_load"), asks
        ),
        "retrieval.index_reload_ms": _mean_ms(spans, "retrieval.index_reload"),
        "webtree.store_reload_ms": _mean_ms(spans, "webtree.store_reload"),
        "webtree.store_publish_ms": _ratio(publish_s * 1e3, publishes),
        "retrieval.index_update_ms": _mean_ms(spans, "retrieval.index_update"),
    }
    values.update(extra or {})
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
