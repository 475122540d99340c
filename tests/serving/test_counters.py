"""The serving stack's one counters type, and what the serving layers count.

:class:`~repro.obs.Counters` is pinned first (declared names, folds,
one lock acquisition per ``add``, exact counts under contention).
Then the serving surfaces built on it: the key sets of ``health()``
that operators and the bench artifacts read, how many
stats-lock acquisitions a request and a batch cost, and the counting
rules — only registered routes get a per-route counter, a request's
``predict_seconds`` is its own page's time, and gateway queue wait is
recorded.
"""

import threading
import time

import pytest

from repro.core.webqa import WebQA
from repro.dataset.corpus import load_task_dataset
from repro.dataset.tasks import TASKS_BY_ID
from repro.obs import Counters
from repro.serving.faults import FaultPlan
from repro.serving.gateway import ServingGateway
from repro.serving.service import QAService, ServingRequest
from repro.webtree.html_out import page_to_html

SERVICE_STATS_KEYS = {
    "requests", "batches", "mean_batch_size", "max_batch_size",
    "ingest_seconds", "predict_seconds", "busy_seconds", "span_seconds",
    "throughput_pages_per_s", "busy_pages_per_s", "requests_by_route",
    "retries", "failures", "failures_by_stage", "rejected",
    "deadline_exceeded", "degraded", "pools_broken", "hot_swaps", "rollbacks",
}
INGEST_KEYS = {
    "pages_ingested", "cache_hits", "cache_misses", "evictions",
    "pages_degraded", "store_hits", "parse_fallbacks", "invalidations",
    "hit_rate", "parse_seconds", "index_seconds",
}
SERVICE_HEALTH_KEYS = {
    "routes", "inflight", "max_inflight", "pools_broken", "circuits",
    "versions", "epochs", "stats", "ingest", "store",
}
GATEWAY_HEALTH_KEYS = {
    "shards", "closed", "queue_depths", "queue_depth_bound",
    "dispatchers_alive", "stats", "service",
}
#: The gateway's own counters; the last two record queue wait.
GATEWAY_STATS_KEYS = {
    "submitted", "shed", "shed_rate", "batches", "mean_batch_size",
    "max_batch_size", "queue_wait_seconds", "mean_queue_wait_ms",
}


@pytest.fixture(scope="module")
def fitted():
    task = TASKS_BY_ID["fac_t1"]
    dataset = load_task_dataset(task, n_pages=6, n_train=3, seed=0)
    tool = WebQA(ensemble_size=40).fit(
        task.question, task.keywords, list(dataset.train),
        list(dataset.test_pages), dataset.models,
    )
    return tool, dataset


class TestCounters:
    def _counters(self):
        return Counters(
            hits=0, seconds=0.0, by_key={}, peak=0, first=None, last=None,
            maxima=("peak", "last"), minima=("first",),
        )

    def test_folds(self):
        counters = self._counters()
        counters.add(hits=2, seconds=0.5, by_key={"a": 1}, peak=3, first=5.0, last=5.0)
        counters.add(hits=1, seconds=0.25, by_key={"a": 1, "b": 2}, peak=2,
                     first=4.0, last=4.0)
        counters.add(first=None, last=None)
        assert counters.snapshot() == {
            "hits": 3, "seconds": 0.75, "by_key": {"a": 2, "b": 2},
            "peak": 3, "first": 4.0, "last": 5.0,
        }

    def test_undeclared_names_raise(self):
        counters = self._counters()
        with pytest.raises(KeyError, match="misses"):
            counters.add(misses=1)
        with pytest.raises(KeyError, match="misses"):
            counters.snapshot()["misses"]
        with pytest.raises(ValueError, match="nope"):
            Counters(hits=0, maxima=("nope",))

    def test_snapshot_is_a_copy(self):
        counters = self._counters()
        counters.add(by_key={"a": 1})
        snapshot = counters.snapshot()
        snapshot["by_key"]["a"] = 99
        assert counters.snapshot()["by_key"] == {"a": 1}

    def test_concurrent_adds_count_exactly(self):
        counters = self._counters()
        per_thread, n_threads = 2000, 4

        def worker(index):
            for step in range(per_thread):
                counters.add(hits=1, by_key={"k": 1}, peak=step, last=index)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counts = counters.snapshot()
        assert counts["hits"] == per_thread * n_threads
        assert counts["by_key"] == {"k": per_thread * n_threads}
        assert counts["peak"] == per_thread - 1
        assert counts["last"] == n_threads - 1


class TestHealthKeys:
    def test_service_health_keys(self, fitted):
        tool, dataset = fitted
        with QAService() as service:
            service.register("fac_t1", tool)
            service.ask_many(
                [ServingRequest(route="fac_t1", page=dataset.test_pages[0])]
            )
            health = service.health()
        assert set(health) == SERVICE_HEALTH_KEYS
        assert set(health["stats"]) == SERVICE_STATS_KEYS
        assert set(health["ingest"]) == INGEST_KEYS

    def test_gateway_health_keys(self, fitted):
        tool, dataset = fitted
        with ServingGateway(shards=2) as gateway:
            gateway.register("fac_t1", tool)
            gateway.ask_many(
                [ServingRequest(route="fac_t1", page=dataset.test_pages[0])]
            )
            health = gateway.health()
        assert set(health) == GATEWAY_HEALTH_KEYS
        assert set(health["stats"]) == GATEWAY_STATS_KEYS
        assert set(health["service"]) == SERVICE_HEALTH_KEYS
        assert set(health["service"]["stats"]) == SERVICE_STATS_KEYS


class TestLockAcquisitions:
    def test_warm_page_requests_and_their_batch(self, fitted, monkeypatch):
        """A cache-hit page request costs 2 stats-lock acquisitions
        (submit, and the cache lookup that also counts the ingest); its
        batch costs 2 (the gateway's dispatch and the service's whole
        call)."""
        tool, dataset = fitted
        html = page_to_html(dataset.test_pages[0])
        requests = [
            ServingRequest(route="fac_t1", html=html, url="u") for _ in range(4)
        ]
        with ServingGateway(shards=1, max_batch=8) as gateway:
            gateway.register("fac_t1", tool)
            gateway.ask_many(requests[:1])  # warm the cache
            service = gateway.service
            calls = []
            add = Counters.add

            def counted(self, **deltas):
                calls.append(id(self))
                add(self, **deltas)

            monkeypatch.setattr(Counters, "add", counted)
            gateway.pause_shard(0)
            futures = [gateway.submit(request) for request in requests]
            gateway.resume_shard(0)
            results = [future.result(timeout=30) for future in futures]
            monkeypatch.undo()
        assert all(result.ok and result.cache_hit for result in results)
        assert gateway.stats.snapshot()["max_batch_size"] == len(requests)
        per_owner = {
            "gateway": calls.count(id(gateway.stats)),
            "cache": calls.count(id(service.cache.stats)),
            "service": calls.count(id(service.stats)),
        }
        count = len(requests)
        assert per_owner == {"gateway": count + 1, "cache": count, "service": 1}
        assert len(calls) == 2 * count + 2


class TestCountingRules:
    def test_unknown_routes_do_not_grow_route_counters(self, fitted):
        tool, dataset = fitted
        page = dataset.test_pages[0]
        with QAService() as service:
            service.register("fac_t1", tool)
            requests = [
                ServingRequest(route=f"no-such-route-{index}", page=page)
                for index in range(1000)
            ]
            requests.append(ServingRequest(route="fac_t1", page=page))
            results = service.ask_many(requests, strict=False)
            health = service.health()
        assert sum(not result.ok for result in results) == 1000
        stats = health["stats"]
        assert stats["requests_by_route"] == {"fac_t1": 1}
        assert stats["failures_by_stage"] == {"route": 1000}
        assert stats["requests"] == 1001

    def test_predict_seconds_is_each_pages_own_time(self, fitted):
        tool, dataset = fitted
        pages = (list(dataset.test_pages) * 4)[:4]
        plan = FaultPlan(latency_seconds={1: 0.05})
        with QAService(max_batch=4, fault_injector=plan) as service:
            service.register("fac_t1", tool)
            results = service.ask_many(
                [ServingRequest(route="fac_t1", page=page) for page in pages],
                strict=False,
            )
            assert service.stats.snapshot()["batches"] == 1
        assert all(result.ok for result in results)
        assert results[1].predict_seconds >= 0.05
        for index in (0, 2, 3):
            assert 0 < results[index].predict_seconds < 0.05

    def test_gateway_records_queue_wait(self, fitted):
        tool, dataset = fitted
        with ServingGateway(shards=1, flush_delay_seconds=0.0) as gateway:
            gateway.register("fac_t1", tool)
            gateway.pause_shard(0)
            future = gateway.submit(
                ServingRequest(route="fac_t1", page=dataset.test_pages[0])
            )
            time.sleep(0.06)
            gateway.resume_shard(0)
            assert future.result(timeout=30).ok
            stats = gateway.health()["stats"]
        assert stats["queue_wait_seconds"] >= 0.05
        assert stats["mean_queue_wait_ms"] >= 50.0
