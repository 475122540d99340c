"""Workload ``serve_pages``: a closed loop of page requests through the gateway.

Set-up fits one tool per domain and generates the 512-page, 4-domain
corpus with ``repro.serving.loadgen.build_workload``, plus a pool of
first-sight pages, and computes every page's oracle answer with a
sequential ``tool.predict``.  It then starts a ``ServingGateway`` (2
shards, ``max_batch=16``, a 512-page cache per shard) and warms it with
one pass over the corpus.

The timed window is a closed loop: 2 client threads each submit a
window of 16 requests with ``ServingGateway.submit`` and wait for all
16 before taking the next window.  A request's latency runs from its
submit to the moment its own future resolves.  The request stream is
seeded; every 16th request is a first-sight page, which misses the
cache and is parsed.  The pool is large enough that a page has left
its shard's cache before the stream comes back to it.  Each answer is compared
with its oracle; a mismatch counts as a failed request.
"""

from __future__ import annotations

import gc
import itertools
import queue
import random
import threading
import time
from array import array

from common import (
    DEPLOYMENT_SEED,
    layer_metrics,
    median,
    peak_rss_mb,
    percentile,
    token_f1,
)

SHARDS = 2
CLIENTS = 2
WINDOW = 16
MAX_BATCH = 16
PAGE_CACHE = 512
#: One request in this many is a first-sight page.
FIRST_SIGHT_EVERY = 16
#: First-sight pages, reused cyclically: between two uses of one page
#: its shard sees ~512 other pool pages plus its ~256 corpus pages, more
#: than the 512-page cache holds, so every use misses.
FIRST_SIGHT_POOL = 1024
#: Stream positions; the loop walks them cyclically.
STREAM_LENGTH = FIRST_SIGHT_EVERY * 4096
SETUPS = 3
#: ~190k requests a run, so thousands lie beyond the p99.
TAIL = 0.99


class _Setup:
    def __init__(self, seed: int) -> None:
        from repro.dataset.corpus import generate_page
        from repro.dataset.tasks import tasks_for_domain
        from repro.serving.gateway import ServingGateway
        from repro.serving.ingest import ingest_html
        from repro.serving.loadgen import LoadConfig, build_workload
        from repro.serving.service import ServingRequest

        workload = build_workload(
            LoadConfig(
                shards=SHARDS,
                requests=1,
                page_cache_size=PAGE_CACHE,
                max_batch=MAX_BATCH,
                seed=DEPLOYMENT_SEED,
            )
        )
        routes = workload.routes
        task_of = {route: tasks_for_domain(route)[0].task_id for route in routes}
        corpus_f1 = {}
        for route in routes:
            for page_seed in range(128):
                generated = generate_page(route, page_seed)
                key = (route, generated.page.url)
                corpus_f1[key] = token_f1(
                    workload.expected[key], generated.gold[task_of[route]]
                )
        keys = sorted(workload.corpus)
        corpus_requests = {
            key: ServingRequest(route=key[0], html=workload.corpus[key], url=key[1])
            for key in keys
        }
        pool = []
        for index in range(FIRST_SIGHT_POOL):
            route = routes[index % len(routes)]
            generated = generate_page(route, 1_000_000 + seed * 10_000 + index)
            url = generated.page.url
            request = ServingRequest(route=route, html=generated.html, url=url)
            oracle = workload.tools[route].predict(ingest_html(generated.html, url=url))
            pool.append(
                (request, oracle, token_f1(oracle, generated.gold[task_of[route]]))
            )
        rng = random.Random(f"perfbench-serve:{seed}")
        self.requests = []
        self.expected = []
        self.f1 = []
        self.first_sight = []
        for position in range(STREAM_LENGTH):
            if position % FIRST_SIGHT_EVERY == FIRST_SIGHT_EVERY - 1:
                request, oracle, f1 = pool[
                    (position // FIRST_SIGHT_EVERY) % FIRST_SIGHT_POOL
                ]
                first = True
            else:
                key = keys[rng.randrange(len(keys))]
                request = corpus_requests[key]
                oracle = workload.expected[key]
                f1 = corpus_f1[key]
                first = False
            self.requests.append(request)
            self.expected.append(oracle)
            self.f1.append(f1)
            self.first_sight.append(first)
        #: Window numbers, shared by every timed window on this set-up: a
        #: later window continues the stream, so each pool page is still
        #: last seen 1024 windows earlier and misses the cache.
        self.windows = itertools.count()
        self.gateway = ServingGateway(
            shards=SHARDS,
            max_batch=MAX_BATCH,
            queue_depth=None,
            page_cache_size=PAGE_CACHE,
        )
        for route in routes:
            self.gateway.register(route, workload.tools[route])
        self.gateway.ask_many(list(corpus_requests.values()), strict=False)

    def close(self) -> None:
        self.gateway.close()


class _Client:
    def __init__(self) -> None:
        self.latencies = array("d")
        self.first_sight = array("d")
        self.answered = 0
        self.errors = 0
        self.mismatches = 0
        self.f1_sum = 0.0


def _window(setup: _Setup, seconds: float, tracer) -> dict:
    from repro.html.parser import parse_call_count, parse_fallback_count

    gateway = setup.gateway
    windows = setup.windows
    clients = [_Client() for _ in range(CLIENTS)]
    deadline = time.perf_counter() + seconds

    def client(stats: _Client) -> None:
        requests = setup.requests
        while time.perf_counter() < deadline:
            base = next(windows) * WINDOW
            positions = [(base + j) % STREAM_LENGTH for j in range(WINDOW)]
            submitted = []
            futures = []
            resolved: "queue.SimpleQueue" = queue.SimpleQueue()
            for j, position in enumerate(positions):
                if tracer is not None:
                    tracer.set_rid(base + j)
                submitted.append(time.perf_counter())
                future = gateway.submit(requests[position])
                future.add_done_callback(
                    lambda _future, j=j: resolved.put((j, time.perf_counter()))
                )
                futures.append(future)
            # Each latency ends when its own future resolves, whatever the
            # order in which the window's futures resolve.
            for _ in range(WINDOW):
                j, finished = resolved.get()
                position = positions[j]
                result = futures[j].result()
                latency = (finished - submitted[j]) * 1e3
                if result.error is not None:
                    stats.errors += 1
                    continue
                if result.answer != setup.expected[position]:
                    stats.mismatches += 1
                    continue
                stats.answered += 1
                stats.f1_sum += setup.f1[position]
                stats.latencies.append(latency)
                if setup.first_sight[position]:
                    stats.first_sight.append(latency)

    parses = parse_call_count()
    fallbacks = parse_fallback_count()
    threads = [
        threading.Thread(target=client, args=(stats,), name=f"client-{i}")
        for i, stats in enumerate(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    latencies = [ms for c in clients for ms in c.latencies]
    answered = sum(c.answered for c in clients)
    return {
        "wall_s": wall,
        "attempted": answered
        + sum(c.errors + c.mismatches for c in clients),
        "errors": sum(c.errors for c in clients),
        "mismatches": sum(c.mismatches for c in clients),
        "p50_ms": percentile(latencies, 0.50),
        "tail_ms": percentile(latencies, TAIL),
        "ops_per_s": answered / wall,
        "secondary_p50_ms": percentile(
            [ms for c in clients for ms in c.first_sight], 0.50
        ),
        "quality": sum(c.f1_sum for c in clients) / answered if answered else 0.0,
        "parse_calls": parse_call_count() - parses,
        "parse_fallbacks": parse_fallback_count() - fallbacks,
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, traced

    setup_times = []
    setup = None
    for _ in range(SETUPS):
        if setup is not None:
            setup.close()
            setup = None
            gc.collect()
        began = time.perf_counter()
        setup = _Setup(seed)
        setup_times.append(time.perf_counter() - began)
    tracer = None
    summary = {"spans": {}, "counters": {}}
    try:
        window = _window(setup, seconds, None)
        attempted = window["attempted"]
        failed = window["errors"] + window["mismatches"]
        metrics = {
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            **{
                name: window[name]
                for name in (
                    "p50_ms", "tail_ms", "ops_per_s", "secondary_p50_ms", "quality",
                )
            },
        }
        if trace:
            tracer = Tracer()
            with traced(tracer):
                traced_window = _window(setup, seconds, tracer)
            attempted += traced_window["attempted"]
            failed += traced_window["errors"] + traced_window["mismatches"]
            summary = tracer.summary()
            summary["counters"]["html.parse_calls"] = traced_window["parse_calls"]
            metrics = layer_metrics(
                summary,
                ops=traced_window["attempted"],
                shards=SHARDS,
                wall_s=traced_window["wall_s"],
                parse_calls=traced_window["parse_calls"],
                parse_fallbacks=traced_window["parse_fallbacks"],
                extra={
                    "trace.overhead_ratio": metrics["ops_per_s"]
                    / traced_window["ops_per_s"]
                    - 1.0,
                },
            )
    finally:
        setup.close()
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "summary": summary,
        "tracer": tracer,
        "setup_times": setup_times,
    }
