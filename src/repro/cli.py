"""Command-line interface: fit an extractor, save it, run it on pages.

Fit a program from labeled HTML files and save it::

    python -m repro.cli fit \
        --question "Who are the current PhD students?" \
        --keyword "Current Students" --keyword "PhD" \
        --label jane.html "Robert Smith;Mary Anderson" \
        --label john.html "Sarah Brown" \
        --unlabeled-dir pages/ \
        --out program.json

Label one more page and refit incrementally (requires ``--session`` at
fit time; only branch-synthesis blocks whose example content changed are
re-solved)::

    python -m repro.cli refit --session session.pkl \
        --label extra.html "Alice Chen" \
        --out program.json

Run a saved program on more pages::

    python -m repro.cli extract --program program.json \
        --question "Who are the current PhD students?" \
        --keyword "Current Students" --keyword "PhD" \
        pages/*.html

Package a fitted session as a self-contained, versioned **program
artifact** (program + model bundle + fingerprint + fit stats), inspect
one, or benchmark the serving path over it::

    python -m repro.cli export --session session.pkl --out students.artifact.json
    python -m repro.cli inspect --artifact students.artifact.json
    python -m repro.cli serve-bench --artifact students.artifact.json \
        --rounds 3 --jobs 2 pages/*.html

Artifacts load without any synthesis (``fit`` also accepts
``--artifact PATH`` to export directly after fitting).

Answers are printed one page per line as tab-separated values.  Both
``fit`` and ``extract`` accept ``--jobs N`` to spread page work across a
worker-thread pool (useful once evaluation overlaps I/O or GIL-free
model backends; pure-Python evaluation is GIL-bound); outputs are
identical for any jobs count.

Benchmark tooling: measure the micro suite, print a per-benchmark delta
table against the committed baseline, and gate the guarded medians (the
CI bench-regression job in one command)::

    python -m repro.cli bench --compare BENCH_synthesis_micro.json
"""

from __future__ import annotations

import argparse
import glob
import sys

import time

from .core.artifact import ProgramArtifact
from .core.webqa import WebQA
from .dsl.eval import run_program
from .dsl.pretty import pretty_program
from .dsl.serialize import load_program, save_program
from .nlp.models import NlpModels
from .runtime import TaskRunner, warm_pages
from .serving.ingest import ingest_html
from .serving.service import QAService, ServingRequest
from .synthesis.examples import LabeledExample
from .synthesis.session import SynthesisSession
from .webtree.builder import page_from_html
from .webtree.node import WebPage


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_page(path: str) -> WebPage:
    return page_from_html(_read_text(path), url=path)


def _split_labels(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(";") if part.strip())


def _warm_parallel(pages: list[WebPage], jobs: int) -> None:
    """Pre-build page evaluation indexes, fanning across ``jobs`` threads."""
    runner = TaskRunner(jobs=jobs)
    runner.map(lambda page: warm_pages([page]), pages)


def _report_fit(tool: WebQA, out: str) -> None:
    print(f"training F1: {tool.report.train_f1:.3f}")
    print(f"optimal programs: {tool.report.optimal_count}")
    print(f"saved: {out}")
    print(pretty_program(tool.program))


def cmd_fit(args: argparse.Namespace) -> int:
    train = [
        LabeledExample(_load_page(path), _split_labels(labels))
        for path, labels in args.label
    ]
    unlabeled: list[WebPage] = []
    if args.unlabeled_dir:
        for path in sorted(glob.glob(f"{args.unlabeled_dir}/*.html")):
            unlabeled.append(_load_page(path))
    models = NlpModels.for_corpus(
        [e.page.root.subtree_text() for e in train]
        + [p.root.subtree_text() for p in unlabeled]
    )
    _warm_parallel([e.page for e in train] + unlabeled, args.jobs)
    tool = WebQA(ensemble_size=args.ensemble)
    tool.fit(args.question, tuple(args.keyword), train, unlabeled, models)
    save_program(tool.program, args.out)
    if args.session:
        tool.session.save(args.session)
        print(f"session saved: {args.session}")
    if args.artifact:
        tool.export_artifact(args.artifact)
        print(f"artifact saved: {args.artifact}")
    _report_fit(tool, args.out)
    return 0


def cmd_refit(args: argparse.Namespace) -> int:
    session = SynthesisSession.load(args.session)
    new_examples = [
        LabeledExample(_load_page(path), _split_labels(labels))
        for path, labels in args.label
    ]
    session.add_examples(new_examples)
    unlabeled: list[WebPage] = []
    if args.unlabeled_dir:
        for path in sorted(glob.glob(f"{args.unlabeled_dir}/*.html")):
            unlabeled.append(_load_page(path))
    # The session pins the model bundle from the original fit: cached
    # branch spaces were computed under it and stay sound only with it.
    tool = WebQA(config=session.config, ensemble_size=args.ensemble)
    tool.fit_session(session, unlabeled)
    save_program(tool.program, args.out)
    session.save(args.session)
    stats = tool.report.synthesis.stats
    print(
        f"refit: {stats.blocks_synthesized} blocks synthesized, "
        f"{stats.blocks_reused} reused from session"
    )
    print(f"session saved: {args.session}")
    _report_fit(tool, args.out)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    pages = [_load_page(path) for path in args.pages]
    models = NlpModels.for_corpus([p.root.subtree_text() for p in pages])

    def extract_one(page: WebPage) -> tuple[str, ...]:
        return run_program(program, page, args.question, tuple(args.keyword), models)

    # Page order (and hence output order) is preserved for any --jobs.
    runner = TaskRunner(jobs=args.jobs)
    for page, answers in zip(pages, runner.map(extract_one, pages)):
        print(f"{page.url}\t" + "\t".join(answers))
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    print(pretty_program(load_program(args.program)))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Fit from a saved session (no new labels) and write an artifact."""
    session = SynthesisSession.load(args.session)
    unlabeled: list[WebPage] = []
    if args.unlabeled_dir:
        for path in sorted(glob.glob(f"{args.unlabeled_dir}/*.html")):
            unlabeled.append(_load_page(path))
    tool = WebQA(config=session.config, ensemble_size=args.ensemble)
    tool.fit_session(session, unlabeled)
    artifact = tool.export_artifact(args.out)
    print(f"artifact saved: {args.out}")
    print(f"model fingerprint: {artifact.model_fingerprint}")
    print(pretty_program(tool.program))
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    artifact = ProgramArtifact.load(args.artifact)
    print(artifact.describe())
    print(pretty_program(artifact.program))
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Serve HTML files through a QAService and report per-stage stats.

    Round 1 is the cold pass (parse + index paid); later rounds replay
    the same requests against the warm page cache.  A direct
    ``predict_batch`` pass over the ingested pages is timed as the
    no-service baseline, so the service-layer overhead is printed
    explicitly.
    """
    htmls = [(path, _read_text(path)) for path in args.pages]
    requests = [
        ServingRequest(route="bench", html=html, url=path)
        for path, html in htmls
    ]
    with QAService(
        jobs=args.jobs, max_batch=args.max_batch, store=args.store
    ) as service:
        tool = service.register("bench", args.artifact)

        round_seconds: list[float] = []
        answers: list[tuple[str, ...]] = []
        for _ in range(max(args.rounds, 1)):
            start = time.perf_counter()
            answers = service.ask_many(requests)
            round_seconds.append(time.perf_counter() - start)

        # Baseline: the same pages, straight through predict_batch.
        # They are warm in the service cache, so re-ingesting resolves
        # to the identical page objects the service answered from.
        pages = [
            ingest_html(html, url=path, cache=service.cache)
            for path, html in htmls
        ]
        start = time.perf_counter()
        direct = tool.predict_batch(pages, jobs=args.jobs)
        direct_seconds = time.perf_counter() - start

    assert direct == answers, "service answers diverged from direct predict"
    n = len(requests)
    print(f"pages: {n}   rounds: {len(round_seconds)}")
    print(
        f"serve cold: {round_seconds[0]:.4f}s "
        f"({n / round_seconds[0]:.1f} pages/s)"
    )
    if len(round_seconds) > 1:
        warm = min(round_seconds[1:])
        print(f"serve warm: {warm:.4f}s ({n / warm:.1f} pages/s)")
        overhead = (warm - direct_seconds) / direct_seconds if direct_seconds else 0
        print(
            f"direct predict_batch: {direct_seconds:.4f}s "
            f"({n / direct_seconds:.1f} pages/s; service overhead "
            f"{overhead * 100:+.1f}%)"
        )
    health = service.health()
    for key, value in health["stats"].items():
        print(f"  {key}: {value}")
    for key, value in health["ingest"].items():
        print(f"  page_cache.{key}: {value}")
    return 0


def cmd_corpus_build(args: argparse.Namespace) -> int:
    """Parse a corpus once into a columnar store file."""
    from .serving.corpus import (
        build_corpus_store,
        build_dataset_store,
        html_dir_documents,
    )

    if args.html_dir:
        report = build_corpus_store(html_dir_documents(args.html_dir), args.output)
    else:
        domains = args.domains.split(",") if args.domains else None
        report = build_dataset_store(
            args.output, domains=domains, pages_per_domain=args.pages
        )
    for key, value in report.items():
        print(f"{key}: {value}")
    return 0


def cmd_corpus_update(args: argparse.Namespace) -> int:
    """Publish a new store generation: changed pages in, stale urls out."""
    from .serving.corpus import update_corpus_store

    documents = []
    for html_file, url in args.page or ():
        with open(html_file, "r", encoding="utf-8") as f:
            documents.append((f.read(), url))
    report = update_corpus_store(
        args.store,
        documents,
        remove_urls=tuple(args.remove_url or ()),
        compact=args.compact,
    )
    for key, value in report.items():
        print(f"{key}: {value}")
    return 0


def cmd_corpus_stat(args: argparse.Namespace) -> int:
    """Validate a corpus store and print its shape."""
    from .serving.corpus import corpus_stat

    stat = corpus_stat(args.store)
    for key, value in stat.items():
        print(f"{key}: {value}")
    if not stat["indexed"]:
        print("index: no index; run `repro corpus index`")
    return 0


def cmd_corpus_index(args: argparse.Namespace) -> int:
    """Rebuild a store with its inverted routing index.

    One pass over the store's prebuilt text planes — no HTML parsing —
    fitting the IDF model over the live pages and publishing a compacted
    base that carries every page's token/entity postings, as the next
    store generation.  Live updates keep the postings current on their
    own; re-running refits the IDF.
    """
    from .retrieval.index import build_corpus_index

    report = build_corpus_index(args.store)
    for key, value in report.items():
        print(f"{key}: {value}")
    return 0


def cmd_serve_chaos(args: argparse.Namespace) -> int:
    """Run the serve-chaos scenario table on the synthetic corpus.

    Fits one task at the requested scale, then drives the exported
    artifact through every chaos scenario (transient faults, poisoned
    requests, worker crashes, adversarial HTML, overload, deadlines)
    with its invariants asserted — the command fails loudly if any
    fault escapes the failure model.  Defaults are quick-scale so the
    table doubles as a CI smoke check.
    """
    from .experiments.chaos import run_and_render
    from .experiments.common import ExperimentConfig

    config = ExperimentConfig(
        n_pages=args.pages,
        n_train=args.train,
        ensemble_size=args.ensemble,
        seed=args.seed,
        jobs=args.jobs,
        backend=args.backend,
    )
    print(run_and_render(config))
    return 0


def cmd_serve_stat(args: argparse.Namespace) -> int:
    """Stand up a small gateway, drive a burst, print health.

    The operator's-eye view of :meth:`ServingGateway.health`: one row
    for the service (in-flight, pool, breakers, route versions) and one
    per lane (queue depth, dispatcher liveness), plus the gateway
    batching/shedding counters — over a seeded synthetic burst so the
    numbers are reproducible.
    """
    from .serving.gateway import ServingGateway
    from .serving.loadgen import LoadConfig, build_workload

    config = LoadConfig(
        shards=args.shards,
        routes=args.routes,
        pages_per_route=args.pages,
        ensemble=args.ensemble,
        seed=args.seed,
    )
    workload = build_workload(config)
    with ServingGateway(
        shards=config.shards, queue_depth=args.queue_depth
    ) as gateway:
        for route in workload.routes:
            gateway.register(route, workload.tools[route])
        stream = workload.stream[: args.requests]
        gateway.ask_many(stream, strict=False)
        health = gateway.health()

    stats, service = health["stats"], health["service"]
    served = service["stats"]
    print(f"lanes: {health['shards']}  closed: {health['closed']}")
    print(
        f"requests: {served['requests']}  "
        f"span: {served['span_seconds']:.3f}s  "
        f"throughput: {served['throughput_pages_per_s']:.1f} pages/s"
    )
    print(
        f"submitted: {stats['submitted']}  shed: {stats['shed']} "
        f"({100 * stats['shed_rate']:.1f}%)  "
        f"batches: {stats['batches']}  "
        f"mean batch: {stats['mean_batch_size']:.2f}  "
        f"max batch: {stats['max_batch_size']}  "
        f"mean queue wait: {stats['mean_queue_wait_ms']:.3f}ms"
    )
    store = service["store"]
    print(
        f"hot swaps: {served['hot_swaps']}  rollbacks: {served['rollbacks']}  "
        f"invalidations: {service['ingest']['invalidations']}  "
        f"generation: {'-' if store is None else store['generation']}"
    )
    breakers = " ".join(
        f"{route}={state}" for route, state in sorted(service["circuits"].items())
    )
    versions = " ".join(
        f"{route}={version[:10] or '-'}"
        for route, version in sorted(service["versions"].items())
    )
    print(
        f"service: inflight {service['inflight']}  "
        f"pools broken {service['pools_broken']}  "
        f"breakers [{breakers}]  versions [{versions}]"
    )
    print(
        f"{'lane':>4} {'queue':>5} {'dispatcher':>10}  "
        f"(queue depth bound: {health['queue_depth_bound']})"
    )
    for index, depth in enumerate(health["queue_depths"]):
        alive = "alive" if health["dispatchers_alive"][index] else "dead"
        print(f"{index:>4} {depth:>5} {alive:>10}")
    return 0


def _bench_serve_load(args: argparse.Namespace) -> int:
    """``repro bench serve-load``: measure and gate the serving SLOs.

    Runs the seeded closed-/open-loop load generator over the serving
    gateway, prints the phase table, and applies the SLO gate: the
    lane-count speedup floor and clean-loop invariants always, plus
    the p95 regression check when ``--compare`` names a committed
    ``BENCH_serving.json`` baseline.
    """
    import json as json_module

    from .serving import loadgen

    config = loadgen.LoadConfig(
        shards=args.shards,
        concurrency=args.concurrency,
        window=args.window,
        requests=args.requests,
        open_requests=args.open_requests,
        open_queue_depth=args.open_queue_depth,
        pages_per_route=args.pages_per_route,
        ensemble=args.ensemble,
        seed=args.seed,
        routed=args.routed,
        routed_top_k=args.routed_top_k,
    )
    baseline = (
        json_module.loads(args.compare.read_text())
        if args.compare is not None
        else None
    )
    if args.fresh is not None:
        payload = json_module.loads(args.fresh.read_text())
        print(f"loaded fresh artifact: {args.fresh}")
    else:
        payload = loadgen.measure_serving(config, output=args.output)
        if args.output is not None:
            print(f"wrote {args.output}")
    print(loadgen.format_serving(payload))
    failures = loadgen.check_serving(payload, baseline)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("serving load gate passed")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Measure the micro-benchmark suite and/or gate it against a baseline.

    ``repro bench --compare BENCH_synthesis_micro.json`` is the CI
    bench-regression job in one command: measure fresh medians, print
    the per-benchmark delta table (guarded rows marked ``*``), and exit
    non-zero when a guarded median regressed beyond the threshold.
    ``--fresh`` skips measuring and compares an existing artifact;
    ``--smoke`` runs the non-micro benchmark files once (the sanity pass
    of the CI ``benchmarks`` job) instead.  ``repro bench serve-load``
    switches to the serving load generator and its SLO gate (see
    :mod:`repro.serving.loadgen`).
    """
    import json as json_module

    from . import benchtool

    if args.suite == "serve-load":
        return _bench_serve_load(args)
    if args.smoke:
        return benchtool.run_smoke()
    # Read the baseline before measuring: --output may legitimately
    # point at the baseline file (regenerating the committed artifact).
    baseline = (
        json_module.loads(args.compare.read_text())
        if args.compare is not None
        else None
    )
    if args.fresh is not None:
        fresh = json_module.loads(args.fresh.read_text())
        print(f"loaded fresh artifact: {args.fresh}")
    else:
        fresh = benchtool.measure(output=args.output, filter_expr=args.filter)
        if args.output is not None:
            print(f"wrote {args.output}")
        for name, ratio in fresh.get("median_speedups", {}).items():
            print(f"  {name}: {ratio}x")
    if baseline is None:
        return 0
    # Under --filter only a subset was measured; guarded benchmarks that
    # were filtered *out* are absent by design, not vanished — gate only
    # the guarded names the fresh run actually contains.
    guarded = benchtool.GUARDED
    if args.filter:
        guarded = tuple(
            name for name in guarded if name in fresh.get("benchmarks", {})
        )
    rows = benchtool.compare(fresh, baseline, guarded=guarded)
    scale = benchtool.speed_scale(rows)
    print(f"delta vs baseline {args.compare}:")
    print(benchtool.format_compare(rows, args.max_regression, scale))
    failures = [
        row for row in rows if row.fails(args.max_regression, scale)
    ]
    if failures:
        for row in failures:
            ratio = row.ratio
            print(
                f"REGRESSION: {row.name} "
                + (
                    f"({ratio:.2f}x over baseline, "
                    f"{ratio / scale:.2f}x speed-normalized)"
                    if ratio is not None
                    else "(guarded benchmark missing from fresh run)"
                ),
                file=sys.stderr,
            )
        return 1
    print("benchmark regression gate passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="synthesize and save an extractor")
    fit.add_argument("--question", required=True)
    fit.add_argument("--keyword", action="append", default=[],
                     help="repeatable; the keyword set K")
    fit.add_argument(
        "--label", nargs=2, action="append", metavar=("HTML", "ANSWERS"),
        required=True,
        help="a labeled page: path and ';'-separated gold answers",
    )
    fit.add_argument("--unlabeled-dir", default=None,
                     help="directory of unlabeled .html pages for selection")
    fit.add_argument("--ensemble", type=int, default=300)
    fit.add_argument("--out", required=True, help="output program JSON path")
    fit.add_argument("--session", default=None,
                     help="also save the synthesis session here, enabling "
                     "incremental `refit` later")
    fit.add_argument("--artifact", default=None,
                     help="also export a self-contained program artifact here")
    fit.add_argument("--jobs", type=int, default=1,
                     help="worker threads for page preparation")
    fit.set_defaults(func=cmd_fit)

    refit = sub.add_parser(
        "refit", help="extend a saved session with new labels and re-synthesize"
    )
    refit.add_argument("--session", required=True,
                       help="session file written by `fit --session`; "
                       "updated in place")
    refit.add_argument(
        "--label", nargs=2, action="append", metavar=("HTML", "ANSWERS"),
        required=True,
        help="an additional labeled page: path and ';'-separated gold answers",
    )
    refit.add_argument("--unlabeled-dir", default=None,
                       help="directory of unlabeled .html pages for selection")
    refit.add_argument("--ensemble", type=int, default=300)
    refit.add_argument("--out", required=True, help="output program JSON path")
    refit.set_defaults(func=cmd_refit)

    extract = sub.add_parser("extract", help="run a saved extractor on pages")
    extract.add_argument("--program", required=True)
    extract.add_argument("--question", required=True)
    extract.add_argument("--keyword", action="append", default=[])
    extract.add_argument("--jobs", type=int, default=1,
                         help="worker threads for extraction (order preserved)")
    extract.add_argument("pages", nargs="+", help=".html files to extract from")
    extract.set_defaults(func=cmd_extract)

    show = sub.add_parser("show", help="pretty-print a saved program")
    show.add_argument("--program", required=True)
    show.set_defaults(func=cmd_show)

    export = sub.add_parser(
        "export",
        help="package a saved session's learned program as an artifact",
    )
    export.add_argument("--session", required=True,
                        help="session file written by `fit --session`")
    export.add_argument("--unlabeled-dir", default=None,
                        help="directory of unlabeled .html pages for selection")
    export.add_argument("--ensemble", type=int, default=300)
    export.add_argument("--out", required=True,
                        help="output artifact JSON path")
    export.set_defaults(func=cmd_export)

    inspect = sub.add_parser(
        "inspect", help="describe a program artifact (schema, stats, program)"
    )
    inspect.add_argument("--artifact", required=True)
    inspect.set_defaults(func=cmd_inspect)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="benchmark the serving pipeline over an artifact",
    )
    serve_bench.add_argument("--artifact", required=True)
    serve_bench.add_argument("--rounds", type=int, default=3,
                             help="serving passes (first is cold, rest warm)")
    serve_bench.add_argument("--jobs", type=int, default=1,
                             help="worker threads per micro-batch")
    serve_bench.add_argument("--max-batch", type=int, default=32,
                             help="micro-batch size cap")
    serve_bench.add_argument("--store", default=None,
                             help="corpus store file; cache misses load "
                             "prebuilt indexes instead of parsing")
    serve_bench.add_argument("pages", nargs="+", help=".html files to serve")
    serve_bench.set_defaults(func=cmd_serve_bench)

    corpus = sub.add_parser(
        "corpus",
        help="build or inspect a disk-backed columnar corpus store",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_build = corpus_sub.add_parser(
        "build",
        help="parse a corpus once and persist its index planes",
    )
    corpus_build.add_argument("output", help="store file to write")
    corpus_build.add_argument(
        "--domains", default=None,
        help="comma-separated dataset domains (default: all)")
    corpus_build.add_argument(
        "--pages", type=int, default=25,
        help="pages (seeds) per domain from the synthetic corpus")
    corpus_build.add_argument(
        "--html-dir", default=None,
        help="build from a directory of .html files instead of the "
        "synthetic corpus (urls are the bare filenames)")
    corpus_build.set_defaults(func=cmd_corpus_build)
    corpus_update = corpus_sub.add_parser(
        "update",
        help="publish a new store generation (crash-safe live update)",
    )
    corpus_update.add_argument("store", help="existing store file to update")
    corpus_update.add_argument(
        "--page", nargs=2, action="append", metavar=("HTML_FILE", "URL"),
        help="replace (or add) the page at URL with the file's HTML; "
        "repeatable")
    corpus_update.add_argument(
        "--remove-url", action="append", metavar="URL",
        help="drop the page at URL from the store; repeatable")
    corpus_update.add_argument(
        "--compact", action="store_true",
        help="squash generations into a fresh base afterwards and "
        "collect stale segment files")
    corpus_update.set_defaults(func=cmd_corpus_update)
    corpus_stat_parser = corpus_sub.add_parser(
        "stat", help="validate a store file and print its shape"
    )
    corpus_stat_parser.add_argument("store", help="store file to inspect")
    corpus_stat_parser.set_defaults(func=cmd_corpus_stat)
    corpus_index_parser = corpus_sub.add_parser(
        "index",
        help="rebuild a store with its inverted keyword/entity routing "
        "index (compacts and refits the IDF)",
    )
    corpus_index_parser.add_argument("store", help="store file to index")
    corpus_index_parser.set_defaults(func=cmd_corpus_index)

    from pathlib import Path

    from .benchtool import DEFAULT_MAX_REGRESSION

    bench = sub.add_parser(
        "bench",
        help="measure the micro-benchmark suite and gate it vs a baseline",
    )
    bench.add_argument(
        "suite", nargs="?", choices=("micro", "serve-load"), default="micro",
        help="'micro' (default) measures the synthesis micro suite; "
        "'serve-load' runs the serving-gateway load generator and its "
        "SLO gate (baseline: BENCH_serving.json)",
    )
    bench.add_argument(
        "--compare", type=Path, default=None, metavar="BASELINE",
        help="baseline artifact to print a delta table against "
        "(e.g. BENCH_synthesis_micro.json); guarded regressions exit 1",
    )
    bench.add_argument(
        "--output", type=Path, default=None,
        help="also write the freshly measured artifact here",
    )
    bench.add_argument(
        "--fresh", type=Path, default=None,
        help="use this existing artifact instead of measuring",
    )
    bench.add_argument(
        "--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
        help=f"maximum allowed fresh/baseline median ratio for guarded "
        f"benchmarks (default {DEFAULT_MAX_REGRESSION})",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="run the non-micro benchmark files once (CI sanity pass) "
        "and exit",
    )
    bench.add_argument(
        "--filter", default=None, metavar="EXPR",
        help="pytest -k expression selecting which micro benchmarks to "
        "measure; guarded names filtered out are not treated as missing",
    )
    from .serving.loadgen import LoadConfig as _LoadDefaults

    serve_load = bench.add_argument_group(
        "serve-load options", "knobs for the 'serve-load' suite"
    )
    serve_load.add_argument(
        "--shards", type=int, default=_LoadDefaults.shards,
        help="coalescing lanes in front of the gateway's service",
    )
    serve_load.add_argument(
        "--concurrency", type=int, default=_LoadDefaults.concurrency,
        help="closed-loop caller threads",
    )
    serve_load.add_argument(
        "--window", type=int, default=_LoadDefaults.window,
        help="outstanding requests per closed-loop caller",
    )
    serve_load.add_argument(
        "--requests", type=int, default=_LoadDefaults.requests,
        help="closed-loop requests per phase",
    )
    serve_load.add_argument(
        "--open-requests", type=int, default=_LoadDefaults.open_requests,
        help="open-loop requests (0 skips the open phase)",
    )
    serve_load.add_argument(
        "--pages-per-route", type=int, default=_LoadDefaults.pages_per_route,
        help="distinct pages per route (sets the working-set size "
        "against the per-replica page cache)",
    )
    serve_load.add_argument(
        "--ensemble", type=int, default=_LoadDefaults.ensemble,
        help="ensemble size for the per-route fits",
    )
    serve_load.add_argument(
        "--seed", type=int, default=_LoadDefaults.seed,
        help="workload seed (corpus, stream order, pacing)",
    )
    serve_load.add_argument(
        "--open-queue-depth", type=int, default=None,
        help="per-lane queue bound for the open-loop phase (default "
        "scales with open request count so shedding is exercised)",
    )
    serve_load.add_argument(
        "--routed", action="store_true",
        help="also run the routed-answering phase: corpus-index top-k "
        "routing vs the exhaustive scan, gated on equal answers and "
        "the corpus-scale speedup floor",
    )
    serve_load.add_argument(
        "--routed-top-k", type=int, default=_LoadDefaults.routed_top_k,
        help="candidate pages per routed question",
    )
    bench.set_defaults(func=cmd_bench)

    serve_stat = sub.add_parser(
        "serve-stat",
        help="drive a seeded burst through the serving gateway and print "
        "its health surface",
    )
    serve_stat.add_argument("--shards", type=int, default=2,
                            help="gateway lanes")
    serve_stat.add_argument("--routes", type=int, default=2,
                            help="dataset domains to register")
    serve_stat.add_argument("--pages", type=int, default=12,
                            help="distinct pages per route")
    serve_stat.add_argument("--requests", type=int, default=64,
                            help="burst size")
    serve_stat.add_argument("--ensemble", type=int, default=20,
                            help="ensemble size for the per-route fits")
    serve_stat.add_argument("--queue-depth", type=int, default=None,
                            help="per-lane queue bound (default unbounded)")
    serve_stat.add_argument("--seed", type=int, default=0)
    serve_stat.set_defaults(func=cmd_serve_stat)

    serve_chaos = sub.add_parser(
        "serve-chaos",
        help="run the fault-tolerant serving chaos table",
    )
    serve_chaos.add_argument(
        "--pages", type=int, default=10, help="pages per domain"
    )
    serve_chaos.add_argument(
        "--train", type=int, default=3, help="labeled pages for the fit"
    )
    serve_chaos.add_argument(
        "--ensemble", type=int, default=50, help="ensemble size N"
    )
    serve_chaos.add_argument("--seed", type=int, default=0)
    serve_chaos.add_argument(
        "--jobs", type=int, default=2,
        help="service workers per micro-batch (>1 enables the deadline "
        "scenario: deadlines bound waiting on pool workers)",
    )
    serve_chaos.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="worker pool backend (process makes injected crashes kill "
        "real worker processes)",
    )
    serve_chaos.set_defaults(func=cmd_serve_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
