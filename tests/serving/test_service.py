"""QAService: routing, micro-batching, and the differential contract.

The load-bearing property is the last class: for any request mix,
jobs count and batch cap, ``ask_many`` must equal per-page sequential
``predict`` on the same tools — batching is throughput, never semantics.
"""

import pytest

from repro.core.errors import NotFittedError
from repro.core.webqa import WebQA
from repro.dataset.corpus import load_task_dataset
from repro.dataset.tasks import TASKS_BY_ID
from repro.serving.ingest import ingest_html
from repro.serving.service import (
    QAService,
    ServingRequest,
    service_counters,
    service_summary,
)
from repro.webtree.html_out import page_to_html

SCALE = dict(n_pages=6, n_train=3, seed=0)


@pytest.fixture(scope="module")
def fitted():
    """Two fitted tools + their datasets (distinct domains → routes)."""
    tools = {}
    for task_id in ("fac_t1", "clinic_t5"):
        task = TASKS_BY_ID[task_id]
        dataset = load_task_dataset(task, **SCALE)
        tool = WebQA(ensemble_size=40).fit(
            task.question,
            task.keywords,
            list(dataset.train),
            list(dataset.test_pages),
            dataset.models,
        )
        tools[task_id] = (tool, dataset)
    return tools


def _requests_for(fitted, as_html):
    requests, expected = [], []
    for task_id, (tool, dataset) in fitted.items():
        for page in dataset.test_pages:
            if as_html:
                html = page_to_html(page)
                requests.append(
                    ServingRequest(route=task_id, html=html, url=page.url)
                )
                expected.append(tool.predict(ingest_html(html, url=page.url)))
            else:
                requests.append(ServingRequest(route=task_id, page=page))
                expected.append(tool.predict(page))
    return requests, expected


class TestRegistration:
    def test_register_artifact_object_path_and_tool(self, fitted, tmp_path):
        tool, dataset = fitted["fac_t1"]
        path = str(tmp_path / "a.json")
        artifact = tool.export_artifact(path)
        service = QAService()
        service.register("by-object", artifact)
        service.register("by-path", path)
        service.register("by-tool", tool)
        page = dataset.test_pages[0]
        want = tool.predict(page)
        for route in ("by-object", "by-path", "by-tool"):
            assert service.ask(route, page=page) == want
        assert service.routes() == ("by-object", "by-path", "by-tool")

    def test_register_unfitted_tool_raises(self):
        with pytest.raises(NotFittedError):
            QAService().register("r", WebQA())

    def test_unknown_route_raises(self, fitted):
        service = QAService()
        _, dataset = fitted["fac_t1"]
        with pytest.raises(KeyError, match="unknown route"):
            service.ask("nope", page=dataset.test_pages[0])

    def test_request_needs_exactly_one_of_html_page(self):
        with pytest.raises(ValueError):
            ServingRequest(route="r")
        with pytest.raises(ValueError):
            ServingRequest(route="r", html="<h1>x</h1>", page=object())  # type: ignore[arg-type]


class TestDifferential:
    @pytest.mark.parametrize("jobs,max_batch", [(1, 32), (1, 2), (3, 2), (3, 1)])
    def test_ask_many_equals_sequential_predict(self, fitted, jobs, max_batch):
        with QAService(jobs=jobs, max_batch=max_batch) as service:
            for task_id, (tool, _) in fitted.items():
                service.register(task_id, tool.export_artifact())
            requests, expected = _requests_for(fitted, as_html=False)
            # Interleave routes to force the scatter/gather path.
            order = sorted(range(len(requests)), key=lambda i: i % 3)
            answers = service.ask_many([requests[i] for i in order])
            assert answers == [expected[i] for i in order]

    def test_concurrent_callers_share_one_service(self, fitted):
        # Many request threads against one service: the persistent pool
        # initializes exactly once, the cache stays coherent, and every
        # caller gets the right answers.
        import threading

        with QAService(jobs=2, max_batch=4) as service:
            for task_id, (tool, _) in fitted.items():
                service.register(task_id, tool.export_artifact())
            requests, expected = _requests_for(fitted, as_html=True)
            failures: list[str] = []

            def caller():
                for _ in range(3):
                    if service.ask_many(requests) != expected:
                        failures.append("diverged")

            threads = [threading.Thread(target=caller) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures
            assert service.stats.snapshot()["requests"] == 6 * 3 * len(requests)

    def test_html_requests_match_page_requests(self, fitted):
        service = QAService(max_batch=4)
        for task_id, (tool, _) in fitted.items():
            service.register(task_id, tool.export_artifact())
        requests, expected = _requests_for(fitted, as_html=True)
        assert service.ask_many(requests) == expected
        # And again, warm: answered from the page cache, same results.
        hits_before = service.cache.stats.snapshot()["cache_hits"]
        assert service.ask_many(requests) == expected
        hits = service.cache.stats.snapshot()["cache_hits"]
        assert hits >= hits_before + len(requests)

    def test_tuple_requests_accepted(self, fitted):
        tool, dataset = fitted["fac_t1"]
        service = QAService()
        service.register("fac_t1", tool.export_artifact())
        html = page_to_html(dataset.test_pages[0])
        (answer,) = service.ask_many([("fac_t1", html)])
        assert answer == tool.predict(ingest_html(html))


class TestStats:
    def test_per_stage_stats_and_batching(self, fitted):
        service = QAService(max_batch=2)
        for task_id, (tool, _) in fitted.items():
            service.register(task_id, tool.export_artifact())
        requests, _ = _requests_for(fitted, as_html=True)
        service.ask_many(requests)
        summary = service.health()["stats"]
        assert summary["requests"] == len(requests)
        # max_batch=2 over 3 pages/route → two batches per route.
        assert summary["batches"] == 4
        assert summary["max_batch_size"] == 2
        assert summary["ingest_seconds"] > 0
        assert summary["predict_seconds"] > 0
        assert 0 < summary["mean_batch_size"] <= 2
        assert summary["throughput_pages_per_s"] > 0
        assert summary["requests_by_route"] == {"fac_t1": 3, "clinic_t5": 3}

    def test_span_vs_busy_accounting_single_caller(self, fitted):
        service = QAService(max_batch=4)
        for task_id, (tool, _) in fitted.items():
            service.register(task_id, tool.export_artifact())
        requests, _ = _requests_for(fitted, as_html=True)
        service.ask_many(requests)
        counts = service.stats.snapshot()
        # One caller: a real wall-clock window was recorded, and it
        # covers at least the busy time (span includes batching/waiting
        # overhead the stage clocks don't see).
        assert counts["span_started"] is not None
        assert counts["span_ended"] is not None
        span = counts["span_ended"] - counts["span_started"]
        busy = counts["ingest_seconds"] + counts["predict_seconds"]
        assert span >= busy > 0
        summary = service_summary(counts)
        assert summary["throughput_pages_per_s"] == pytest.approx(
            counts["requests"] / span, rel=0.01
        )
        assert summary["span_seconds"] == pytest.approx(span)
        assert summary["busy_seconds"] == pytest.approx(busy)
        assert summary["busy_pages_per_s"] == pytest.approx(
            counts["requests"] / busy, rel=0.01
        )

    def test_concurrent_callers_span_is_wall_clock_not_summed(self, fitted):
        # The accounting bug this pins: N concurrent callers used to
        # sum their per-call elapsed time, over-reporting wall-clock by
        # ~Nx and deflating throughput.  The span is the merged window
        # [min start, max end], so it must stay close to true elapsed
        # time, far below the per-caller sum.
        import threading
        import time as time_module

        n_threads, rounds = 4, 3
        with QAService(max_batch=4) as service:
            for task_id, (tool, _) in fitted.items():
                service.register(task_id, tool.export_artifact())
            requests, _ = _requests_for(fitted, as_html=True)
            service.ask_many(requests)  # warm: measure steady overlap

            def caller():
                for _ in range(rounds):
                    service.ask_many(requests)

            wall_started = time_module.monotonic()
            threads = [
                threading.Thread(target=caller) for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time_module.monotonic() - wall_started
            summary = service.health()["stats"]
            # The span covers the overlapping burst once, not N times.
            assert summary["span_seconds"] <= wall * 1.5 + 0.1
            assert summary["throughput_pages_per_s"] > 0

    def test_throughput_falls_back_to_busy_rate_without_span(self):
        stats = service_counters()
        stats.add(
            requests=10,
            requests_by_route={"r": 10},
            ingest_seconds=1.0,
            predict_seconds=1.0,
        )
        # Hand-populated counters (no started/ended): no span exists,
        # the busy rate is the only defensible number.
        summary = service_summary(stats.snapshot())
        assert summary["span_seconds"] == 0.0
        assert summary["throughput_pages_per_s"] == 5.0
        assert summary["busy_pages_per_s"] == 5.0

    def test_inflight_tracked_even_unbounded(self, fitted):
        tool, dataset = fitted["fac_t1"]
        service = QAService()  # no max_inflight bound
        service.register("fac_t1", tool)
        assert service.health()["inflight"] == 0
        service.ask("fac_t1", page=dataset.test_pages[0])
        # Back to zero after the call: the counter is maintained (and
        # released) even when admission is unbounded.
        assert service.health()["inflight"] == 0

    def test_max_batch_validation(self):
        with pytest.raises(ValueError):
            QAService(max_batch=0)


class TestHotSwap:
    def test_reregister_preserves_breaker_and_route_counters(self, fitted):
        # The regression this class exists for: re-registering a route
        # used to rebuild its CircuitBreaker and reset its counters,
        # silently forgetting failure history mid-incident.
        tool, dataset = fitted["fac_t1"]
        service = QAService()
        service.register("fac_t1", tool, version="v1")
        breaker = service.breaker("fac_t1")
        service.ask("fac_t1", page=dataset.test_pages[0])
        counters = dict(service.stats.snapshot()["requests_by_route"])
        # Accumulate failure history *after* the successful request so a
        # success cannot legitimately clear it before the swap.
        breaker.record_failure()
        breaker.record_failure()
        service.register("fac_t1", tool, version="v2")
        assert service.breaker("fac_t1") is breaker
        assert breaker._consecutive_failures == 2
        assert service.stats.snapshot()["requests_by_route"] == counters
        assert service.route_version("fac_t1") == "v2"
        assert service.stats.snapshot()["hot_swaps"] == 1

    def test_swap_is_atomic_under_concurrent_askers(self, fitted):
        import threading

        tool, dataset = fitted["fac_t1"]
        expected = [tool.predict(page) for page in dataset.test_pages]
        requests = [
            ServingRequest(
                route="fac_t1", html=page_to_html(page), url=page.url
            )
            for page in dataset.test_pages
        ]
        with QAService(jobs=2, max_batch=2) as service:
            service.register("fac_t1", tool.export_artifact(), version="v0")
            failures: list[object] = []
            stop = threading.Event()

            def asker():
                while not stop.is_set():
                    results = service.ask_many(requests, strict=False)
                    for result, want in zip(results, expected):
                        if not result.ok or result.answer != want:
                            failures.append(result)

            threads = [threading.Thread(target=asker) for _ in range(4)]
            for thread in threads:
                thread.start()
            # Republish the same content under 50 fresh version ids
            # while the askers are in flight.
            for index in range(50):
                service.register(
                    "fac_t1", tool.export_artifact(), version=f"v{index + 1}"
                )
            stop.set()
            for thread in threads:
                thread.join()
            assert not failures
            assert service.stats.snapshot()["hot_swaps"] == 50
            assert service.route_version("fac_t1") == "v50"
            # Every retired version must drain once callers are gone.
            assert service.route_drained("fac_t1")

    def test_rollback_restores_previous_version(self, fitted):
        from repro.core.errors import RouteError

        tool, dataset = fitted["fac_t1"]
        service = QAService()
        service.register("fac_t1", tool, version="v1")
        with pytest.raises(RouteError):
            service.rollback("fac_t1")  # nothing to roll back to yet
        service.register("fac_t1", tool, version="v2")
        assert service.rollback("fac_t1") == "v1"
        assert service.route_version("fac_t1") == "v1"
        assert service.stats.snapshot()["rollbacks"] == 1
        # The route still serves after the rollback.
        want = tool.predict(dataset.test_pages[0])
        assert service.ask("fac_t1", page=dataset.test_pages[0]) == want
        with pytest.raises(RouteError):
            service.rollback("nope")

    def test_epoch_bumps_on_swap_and_rollback(self, fitted):
        tool, _ = fitted["fac_t1"]
        service = QAService()
        service.register("fac_t1", tool, version="v1")
        epoch = service.route_epoch("fac_t1")
        service.register("fac_t1", tool, version="v2")
        assert service.route_epoch("fac_t1") == epoch + 1
        service.rollback("fac_t1")
        assert service.route_epoch("fac_t1") == epoch + 2

    def test_version_defaults_to_artifact_fingerprint(self, fitted):
        tool, _ = fitted["fac_t1"]
        artifact = tool.export_artifact()
        service = QAService()
        service.register("fac_t1", artifact)
        assert service.route_version("fac_t1") == artifact.fingerprint()
        # A fresh-fitted tool has no artifact to derive an id from.
        service.register("fresh", tool)
        assert service.route_version("fresh") == ""

    def test_health_reports_versions_and_epochs(self, fitted):
        tool, _ = fitted["fac_t1"]
        service = QAService()
        service.register("fac_t1", tool, version="v7")
        health = service.health()
        assert health["versions"]["fac_t1"] == "v7"
        assert "fac_t1" in health["epochs"]
