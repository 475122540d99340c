"""WebQA benchmark: cold fit, page serving and live corpus answering.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {fit,serve_pages,corpus_live} \\
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, and span summaries and raw spans are
written under ``.perfbench_out/``.  See ``README.md`` in this directory.

The program under test is imported from ``src/`` of the checkout; the
benchmark exits non-zero, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    END_TO_END,
    OUT_DIR,
    PER_LAYER,
    ROOT,
    WORK_DIR,
    BacklogError,
)

WORKLOADS = ("fit", "serve_pages", "corpus_live")


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fit-pass", action="store_true",
        help="internal: one cold fit pass, printed as JSON",
    )
    args = parser.parse_args(argv)
    if not args.fit_pass and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"no program to benchmark: {source}/repro is missing")
    sys.path.insert(0, source)
    import repro  # noqa: F401


def _write_trace(workload: str, seed: int, outcome: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    with open(stem + ".summary.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "spans": outcome["summary"]["spans"],
                "counters": outcome["summary"]["counters"],
                "metrics": outcome["metrics"],
                "notes": outcome.get("notes", {}),
            },
            handle,
            indent=1,
            sort_keys=True,
        )
    tracer = outcome.get("tracer")
    if tracer is not None:
        tracer.write_spans(stem + ".spans.jsonl")


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    _import_program()
    os.makedirs(WORK_DIR, exist_ok=True)
    # Anything the program puts in a temporary file stays in the checkout.
    os.environ["TMPDIR"] = WORK_DIR
    tempfile.tempdir = WORK_DIR
    if args.fit_pass:
        import fit

        print(json.dumps(fit.child_pass(args.seed, bool(args.trace), STARTED)))
        return 0

    module = __import__(args.workload)
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    except BacklogError as error:
        print(f"invalid run: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(
        "set-up seconds: " + " ".join(f"{s:.4f}" for s in outcome["setup_times"]),
        file=sys.stderr,
    )
    if args.trace:
        _write_trace(args.workload, args.seed, outcome)
    units = PER_LAYER if args.trace else END_TO_END
    print(
        json.dumps(
            {
                "correct": bool(outcome["correct"]),
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": {
                    name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
