"""Concurrency stress: many threads hammering one faulty QAService.

Marked ``slow`` but kept in the CI chaos job: the properties here —
request/response alignment under concurrent mixed-route traffic with
injected faults, exact stats accounting, no deadlocks between the
admission lock, cache lock, stats locks and breaker locks — only break
under real thread interleavings.
"""

import threading

import pytest

from repro.core.webqa import WebQA
from repro.dataset.corpus import load_task_dataset
from repro.dataset.tasks import TASKS_BY_ID
from repro.serving.faults import FaultPlan
from repro.serving.service import QAService, RetryPolicy, ServingRequest
from repro.webtree.html_out import page_to_html

SCALE = dict(n_pages=6, n_train=3, seed=0)
N_THREADS = 6
CALLS_PER_THREAD = 3


@pytest.fixture(scope="module")
def fitted_pair():
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


@pytest.mark.slow
class TestConcurrentChaos:
    def test_mixed_traffic_with_faults_stays_consistent(self, fitted_pair):
        # Request mix per call: warm pages and cold HTML across both
        # routes, plus one unknown route; indices 1 and 4 fail twice
        # transiently on predict and index 2 once on ingest, every call,
        # on every thread — all cured by retry except the bad route.
        requests, expected = [], []
        for task_id, (tool, dataset) in fitted_pair.items():
            for position, page in enumerate(dataset.test_pages):
                if position % 2:
                    requests.append(ServingRequest(route=task_id, page=page))
                else:
                    requests.append(
                        ServingRequest(
                            route=task_id, html=page_to_html(page), url=page.url
                        )
                    )
                expected.append(tool.predict(page))
        bad_index = len(requests)
        requests.append(
            ServingRequest(route="no-such-route", page=requests[0].page
                           or fitted_pair["fac_t1"][1].test_pages[0])
        )
        expected.append(None)

        plan = FaultPlan(
            ingest_faults={2: 1},
            predict_faults={1: 2, 4: 2},
            compiled_faults=frozenset({3}),
        )
        service = QAService(
            jobs=4,
            max_batch=3,
            page_cache_size=8,
            retry_policy=RetryPolicy(max_retries=2, backoff_seconds=0.001),
            fault_injector=plan,
        )
        for task_id, (tool, _) in fitted_pair.items():
            service.register(task_id, tool)

        failures: list = []
        barrier = threading.Barrier(N_THREADS)

        def worker():
            try:
                barrier.wait(timeout=30)
                for _ in range(CALLS_PER_THREAD):
                    results = service.ask_many(requests, strict=False)
                    assert len(results) == len(requests)
                    for index, result in enumerate(results):
                        if index == bad_index:
                            assert result.error is not None
                            assert result.error.stage == "route"
                        else:
                            assert result.ok, (index, result.error)
                            assert result.answer == expected[index]
                            assert result.route == requests[index].route
            except BaseException as error:  # noqa: BLE001 — surfaced below
                failures.append(error)

        threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
        with service:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(t.is_alive() for t in threads), "stress deadlocked"
        if failures:
            raise failures[0]

        total_calls = N_THREADS * CALLS_PER_THREAD
        stats = service.stats.snapshot()
        assert stats["requests"] == total_calls * len(requests)
        assert stats["failures"] == total_calls  # exactly the bad-route slot
        assert stats["failures_by_stage"] == {"route": total_calls}
        # Injected transient faults: 2+2 predict and 1 ingest retries per
        # call, every call (deterministic plan, attempt-keyed budgets).
        assert stats["retries"] == total_calls * 5
        assert stats["degraded"] == total_calls  # the compiled-fault slot
        # Only registered routes are counted per route; the bad-route
        # slot is counted under its failure stage instead.
        by_route = stats["requests_by_route"]
        assert "no-such-route" not in by_route
        assert sum(by_route.values()) + total_calls == stats["requests"]
        health = service.health()
        assert health["inflight"] == 0
        assert all(state == "closed" for state in health["circuits"].values())
