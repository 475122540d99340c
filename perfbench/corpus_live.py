"""Workload ``corpus_live``: an open loop of corpus questions and page feeds.

Set-up fits one tool per domain over the 512-page, 4-domain corpus of
``repro.serving.loadgen.build_workload``, builds a corpus store and
inverted index over those pages, and opens a ``QAService`` on the store
with a ``LiveCorpus`` attached.  No route is tracked, so a feed never
refits.

The timed window is one timeline at a fixed rate on one thread.  Every
60th event feeds a regenerated page at an existing url through
``LiveCorpus.feed``; every other event asks ``QAService.ask_corpus``,
rotating over the routes.  Each op is timed from its due time, so a
slow feed delays the asks queued behind it.  Feeds run on the asking
thread on purpose: with a second feeding thread, some asks fail on the
index-behind-store window (see README.md).

After the window: one ``LiveCorpus.compact()``, then, per route, the
routed answer must equal ``ask_corpus(exhaustive=True)`` and the answer
of a store and index rebuilt from scratch over the final page set.  A
route that disagrees counts as a failed op.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time

from common import (
    DEPLOYMENT_SEED,
    WORK_DIR,
    BacklogError,
    layer_metrics,
    median,
    peak_rss_mb,
    percentile,
    token_f1,
)

RATE = 60.0
#: One feed a second.  A feed takes ~110-160 ms and each following ask
#: waits until the loop catches up, ~11 ms per event.  At one feed in
#: 30 events ~40% of asks waited, the median ask sat at that edge, and
#: at one seed it swung between 5 and 40 ms from run to run.  At one in
#: 60 ~20% wait: the median is an ask, the tail an ask behind a feed.
FEED_EVERY = 60
TOP_K = 16
MAX_BATCH = 16
SETUPS = 3
#: The ask tail is p95: ~59 of ~1180 asks lie beyond it, asks delayed
#: by a typical feed.  The p99 is set by the few slowest feeds' fsyncs
#: and varied by 45% between runs of one seed.
TAIL = 0.95
#: A timeline that ends later than its schedule by more than this share
#: of the schedule's length had a backlog: the run is invalid.
BACKLOG_BOUND = 0.25


class _Setup:
    def __init__(self, seed: int, seconds: float, directory: str) -> None:
        from repro.dataset.corpus import generate_page
        from repro.dataset.tasks import tasks_for_domain
        from repro.serving.live import LiveCorpus
        from repro.serving.loadgen import LoadConfig, build_workload
        from repro.serving.service import QAService

        workload = build_workload(LoadConfig(requests=1, seed=DEPLOYMENT_SEED))
        self.routes = workload.routes
        self.tools = workload.tools
        self.task_of = {
            route: tasks_for_domain(route)[0].task_id for route in self.routes
        }
        #: url -> (route, html, gold answers of the route's task)
        self.pages = {}
        for route in self.routes:
            for page_seed in range(128):
                generated = generate_page(route, page_seed)
                self.pages[generated.page.url] = (
                    route,
                    generated.html,
                    generated.gold[self.task_of[route]],
                )
        assert set(self.pages) == {url for _, url in workload.corpus}
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.store_path = os.path.join(directory, "live.rpw")
        _build(self.pages, self.store_path)
        self.service = QAService(
            store=self.store_path, max_batch=MAX_BATCH, page_cache_size=512
        )
        for route in self.routes:
            self.service.register(route, self.tools[route])
        self.live = LiveCorpus(self.service)
        for route in self.routes:
            self.service.ask_corpus(route, top_k=TOP_K)

        # The schedule, and a regenerated page for every feed in it.
        rng = random.Random(f"perfbench-live:{seed}")
        urls = sorted(self.pages)
        self.events = []
        asks = 0
        for index in range(max(1, int(seconds * RATE))):
            if index % FEED_EVERY == FEED_EVERY - 1:
                url = urls[rng.randrange(len(urls))]
                route = self.pages[url][0]
                generated = generate_page(
                    route, 2_000_000 + seed * 10_000 + index
                )
                self.events.append(
                    ("feed", url, generated.html,
                     generated.gold[self.task_of[route]])
                )
            else:
                self.events.append(
                    ("ask", self.routes[asks % len(self.routes)], None, None)
                )
                asks += 1

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def _build(pages: dict, path: str) -> None:
    """A corpus store and its inverted index over ``pages`` at ``path``."""
    from repro.retrieval.index import build_corpus_index
    from repro.serving.corpus import build_corpus_store

    build_corpus_store(
        ((html, url) for url, (_route, html, _gold) in sorted(pages.items())),
        path,
    )
    build_corpus_index(path)


def _same(a, b) -> bool:
    return (
        a.answer == b.answer
        and a.url == b.url
        and a.fingerprint == b.fingerprint
        and a.score == b.score
        and a.support == b.support
        and a.candidates == b.candidates
    )


def _timeline(setup: _Setup, tracer) -> dict:
    from repro.html.parser import parse_call_count, parse_fallback_count

    service = setup.service
    pages = setup.pages
    ask_ms, feed_ms, lag_ms, busy = [], [], [], []
    f1 = []
    failed = 0
    parses = parse_call_count()
    fallbacks = parse_fallback_count()
    started = time.perf_counter()
    for index, (kind, target, html, gold) in enumerate(setup.events):
        due = started + index / RATE
        # Spin, not sleep: a sleeping pacer hands the core to other work
        # and each op then starts on cold caches, which made the same
        # seed's ask p50 vary by 15% between runs.
        while time.perf_counter() < due:
            pass
        if tracer is not None:
            tracer.set_rid(index)
        began = time.perf_counter()
        try:
            if kind == "feed":
                setup.live.feed(html, url=target)
                pages[target] = (pages[target][0], html, gold)
            else:
                answer = service.ask_corpus(target, top_k=TOP_K)
        except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
            failed += 1
            continue
        done = time.perf_counter()
        lag_ms.append((began - due) * 1e3)
        busy.append(done - began)
        if kind == "feed":
            feed_ms.append((done - due) * 1e3)
        else:
            ask_ms.append((done - due) * 1e3)
            page = pages.get(answer.url)
            f1.append(token_f1(answer.answer, page[2] if page else ()))
    ended = time.perf_counter()
    schedule_s = len(setup.events) / RATE
    late_s = ended - (started + schedule_s)
    if late_s > BACKLOG_BOUND * schedule_s:
        raise BacklogError(
            f"corpus_live timeline ended {late_s:.2f}s behind its "
            f"{schedule_s:.1f}s schedule: backlog, run invalid"
        )
    return {
        "attempted": len(setup.events),
        "failed": failed,
        "asks": len(ask_ms),
        "wall_s": ended - started,
        "p50_ms": percentile(ask_ms, 0.50),
        "tail_ms": percentile(ask_ms, TAIL),
        "ops_per_s": len(busy) / sum(busy) if busy else 0.0,
        "secondary_p50_ms": percentile(feed_ms, 0.50),
        "quality": sum(f1) / len(f1) if f1 else 0.0,
        "lag_p99_ms": percentile(lag_ms, 0.99),
        "parse_calls": parse_call_count() - parses,
        "parse_fallbacks": parse_fallback_count() - fallbacks,
    }


def _check(setup: _Setup) -> "tuple[int, float, int]":
    """Compact, then hold every route to the exhaustive and rebuilt answers.

    Returns ``(mismatched routes, compact ms, generation before compact)``.
    """
    from repro.serving.service import QAService

    service = setup.service
    generations = service.store.generation
    began = time.perf_counter()
    setup.live.compact()
    compact_ms = (time.perf_counter() - began) * 1e3
    fresh_path = os.path.join(setup.directory, "fresh.rpw")
    _build(setup.pages, fresh_path)
    mismatched = 0
    with QAService(store=fresh_path, max_batch=MAX_BATCH) as fresh:
        for route in setup.routes:
            fresh.register(route, setup.tools[route])
        for route in setup.routes:
            routed = service.ask_corpus(route, top_k=TOP_K)
            exhaustive = service.ask_corpus(route, top_k=TOP_K, exhaustive=True)
            rebuilt = fresh.ask_corpus(route, top_k=TOP_K)
            if not (_same(routed, exhaustive) and _same(routed, rebuilt)):
                mismatched += 1
    return mismatched, compact_ms, generations


def _fresh_setup(seed: int, seconds: float, index: int) -> _Setup:
    return _Setup(
        seed, seconds, os.path.join(WORK_DIR, f"corpus_live-{os.getpid()}-{index}")
    )


def run(seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, traced

    # ``setup_s`` is the median of SETUPS set-ups; the last one serves the
    # untraced window.  With tracing, the traced window gets one more
    # fresh set-up, so both windows start at generation 0.
    times = []
    setup = None
    for index in range(SETUPS):
        if setup is not None:
            setup.close()
            setup = None
            gc.collect()
        began = time.perf_counter()
        setup = _fresh_setup(seed, seconds, index)
        times.append(time.perf_counter() - began)
    try:
        window = _timeline(setup, None)
        mismatched, _, _ = _check(setup)
        attempted = window["attempted"] + len(setup.routes)
        failed = window["failed"] + mismatched
        metrics = {
            "setup_s": median(times),
            "peak_rss_mb": peak_rss_mb(),
            **{
                name: window[name]
                for name in (
                    "p50_ms", "tail_ms", "ops_per_s", "secondary_p50_ms", "quality",
                )
            },
        }
        summary = {"spans": {}, "counters": {}}
        tracer = None
        if trace:
            setup.close()
            setup = None
            gc.collect()
            setup = _fresh_setup(seed, seconds, SETUPS)
            tracer = Tracer()
            with traced(tracer):
                traced_window = _timeline(setup, tracer)
            mismatched, compact_ms, generations = _check(setup)
            attempted += traced_window["attempted"] + len(setup.routes)
            failed += traced_window["failed"] + mismatched
            summary = tracer.summary()
            summary["counters"]["html.parse_calls"] = traced_window["parse_calls"]
            metrics = layer_metrics(
                summary,
                ops=traced_window["attempted"],
                asks=traced_window["asks"],
                shards=1,
                wall_s=traced_window["wall_s"],
                parse_calls=traced_window["parse_calls"],
                parse_fallbacks=traced_window["parse_fallbacks"],
                extra={
                    "webtree.store_generations": generations,
                    "serving.live.compact_ms": compact_ms,
                    "loadgen.lag_p99_ms": traced_window["lag_p99_ms"],
                    "trace.overhead_ratio": metrics["ops_per_s"]
                    / traced_window["ops_per_s"]
                    - 1.0,
                },
            )
    finally:
        if setup is not None:
            setup.close()
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "summary": summary,
        "tracer": tracer,
        "setup_times": times,
    }
