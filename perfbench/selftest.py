"""Self-test of the benchmark: layer predictions, determinism, metric names.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py [--seed 0] [--seconds 3]

1. **Prediction.**  A short traced run of each workload.  Every layer
   predicted to work there must have recorded calls in the timed
   window; every layer predicted to be bypassed must have recorded none.
2. **Determinism.**  A second traced run at the same seed must give
   identical ``test_f1`` (fit), synthesis counts, ``selection.hamming_*``,
   ``webtree.store_loads_per_ask`` and ``html.parse_calls``.
3. **Names.**  ``BENCHMARK.json`` lists exactly the metrics, with the
   units, that ``run.py`` reports.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import END_TO_END, OUT_DIR, PER_LAYER, ROOT  # noqa: E402

_QUEUE = {"runtime.batchq.put", "runtime.batchq.take"}
_SYNTHESIS = {"synthesis.synthesize", "synthesis.branch", "selection.select"}
_RETRIEVAL = {
    "serving.ask_corpus",
    "retrieval.query_terms",
    "retrieval.score",
    "retrieval.vote",
    "retrieval.index_update",
    "retrieval.index_reload",
}
_STORE = {
    "webtree.store_load",
    "webtree.store_reload",
    "webtree.store_publish_segment",
    "webtree.store_publish_manifest",
    "serving.live.feed",
}
#: ``html.parse_calls`` is the parser's own process counter, so it sees
#: every parse, whichever module's binding of ``parse_html`` made it.
_PAGE_INGEST = {"serving.ingest", "html.parse_calls", "webtree.build_tree"}

#: workload -> (layers that must record calls, layers that must record none)
PREDICTIONS = {
    "fit": (
        _SYNTHESIS | {"selection.hamming", "nlp.similarity_batch"},
        _QUEUE | {"serving.ask_many", "core.predict"} | _RETRIEVAL | _STORE
        | _PAGE_INGEST,
    ),
    "serve_pages": (
        _QUEUE | {"serving.ask_many", "core.predict"} | _PAGE_INGEST,
        _SYNTHESIS | {"selection.hamming"} | _RETRIEVAL | _STORE,
    ),
    "corpus_live": (
        _RETRIEVAL | _STORE
        | {"selection.hamming", "serving.ask_many", "core.predict",
           "html.parse_calls"},
        _QUEUE | _SYNTHESIS | {"serving.ingest"},
    ),
}

#: Values that must repeat exactly at one seed.
DETERMINISTIC = (
    "synthesis.branch_calls",
    "synthesis.partitions_explored",
    "synthesis.guards_tried",
    "synthesis.extractors_evaluated",
    "synthesis.extractor_dedup_ratio",
    "selection.hamming_calls",
    "selection.hamming_calls_per_ask",
    "webtree.store_loads_per_ask",
    "html.parse_calls",
)


def _traced_run(workload: str, seed: int, seconds: float) -> "tuple[dict, dict]":
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} exited with {completed.returncode}:\n{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(
        os.path.join(OUT_DIR, f"{workload}-seed{seed}.summary.json"),
        encoding="utf-8",
    ) as handle:
        summary = json.load(handle)
    return result, summary


def _calls(summary: dict) -> "dict[str, int]":
    calls = dict(summary["counters"])
    for name, span in summary["spans"].items():
        calls[name] = span["calls"]
    return calls


def _check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")
    return ok


def check_names() -> bool:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    ok = True
    for key, defined in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        ok &= _check(
            f"BENCHMARK.json {key} matches run.py",
            listed == defined,
            "" if listed == defined else f"{sorted(set(listed) ^ set(defined))}",
        )
    listed = {w["name"] for w in declared["workloads"]}
    ok &= _check(
        "BENCHMARK.json workloads match run.py",
        listed == set(PREDICTIONS),
    )
    return ok


def check_workload(workload: str, seed: int, seconds: float) -> bool:
    first, summary = _traced_run(workload, seed, seconds)
    ok = _check(
        f"{workload}: every per-layer metric reported",
        set(first["metrics"]) == set(PER_LAYER),
    )
    ok &= _check(
        f"{workload}: no failed ops",
        first["failed"] == 0 and first["correct"],
        f"{first['failed']} of {first['attempted']}",
    )
    calls = _calls(summary)
    works, bypassed = PREDICTIONS[workload]
    idle = sorted(name for name in works if not calls.get(name))
    busy = sorted(name for name in bypassed if calls.get(name))
    ok &= _check(f"{workload}: predicted layers worked", not idle, f"idle {idle}")
    ok &= _check(
        f"{workload}: predicted bypasses held",
        not busy,
        ", ".join(f"{name}={calls[name]}" for name in busy),
    )
    second, summary_again = _traced_run(workload, seed, seconds)
    differing = [
        name
        for name in DETERMINISTIC
        if first["metrics"][name]["value"] != second["metrics"][name]["value"]
    ]
    if summary.get("notes") != summary_again.get("notes"):
        differing.append("test_f1")
    ok &= _check(
        f"{workload}: counts repeat at seed {seed}", not differing, f"{differing}"
    )
    overhead = first["metrics"]["trace.overhead_ratio"]["value"]
    print(f"     {workload}: tracing overhead {overhead:+.1%} of ops_per_s")
    return ok


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    ok = check_names()
    for workload in PREDICTIONS:
        ok &= check_workload(workload, args.seed, args.seconds)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
