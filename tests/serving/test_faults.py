"""Chaos suite: deterministic fault injection against the QAService.

The contract under test, from the failure model in
``repro/serving/service.py``: for *any* fault plan, ``ask_many``
(non-strict) returns one ServingResult per request — answer or
structured error, never an unhandled exception, never a poisoned
neighbour — and the service remains fully usable afterwards.  Every
failure here is injected by a seeded :class:`FaultPlan`, so each test
asserts exact per-request outcomes, not probabilistic ones.
"""

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    IngestError,
    PredictError,
    RejectedError,
    ServingError,
    is_transient,
)
from repro.core.webqa import WebQA
from repro.dataset.corpus import load_task_dataset
from repro.dataset.tasks import TASKS_BY_ID
from repro.serving.faults import (
    ADVERSARIAL_KINDS,
    ALWAYS,
    FaultInjector,
    FaultPlan,
    adversarial_corpus,
    adversarial_html,
)
from repro.serving.ingest import ServingLimits
from repro.serving.service import NO_RETRY, CircuitBreaker, QAService, RetryPolicy, ServingRequest
from repro.webtree.html_out import page_to_html

#: 3 train + 5 test pages: enough indices for every plan in the suite.
SCALE = dict(n_pages=8, n_train=3, seed=0)
#: Fast backoff so retry-heavy tests don't sleep for real.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.001, max_backoff_seconds=0.002)


@pytest.fixture(scope="module")
def fitted():
    task = TASKS_BY_ID["fac_t1"]
    dataset = load_task_dataset(task, **SCALE)
    tool = WebQA(ensemble_size=40).fit(
        task.question,
        task.keywords,
        list(dataset.train),
        list(dataset.test_pages),
        dataset.models,
    )
    return tool, dataset


def _page_requests(dataset, route="fac_t1"):
    return [ServingRequest(route=route, page=p) for p in dataset.test_pages]


def _html_requests(dataset, route="fac_t1"):
    return [
        ServingRequest(route=route, html=page_to_html(p), url=p.url)
        for p in dataset.test_pages
    ]


def _service(fitted, **kwargs):
    tool, _ = fitted
    kwargs.setdefault("retry_policy", FAST_RETRY)
    service = QAService(**kwargs)
    service.register("fac_t1", tool)
    return service


class TestFaultPlan:
    def test_from_rates_is_deterministic(self):
        a = FaultPlan.from_rates(50, seed=3, ingest_rate=0.2, predict_rate=0.3,
                                 compiled_rate=0.1, latency_rate=0.1)
        b = FaultPlan.from_rates(50, seed=3, ingest_rate=0.2, predict_rate=0.3,
                                 compiled_rate=0.1, latency_rate=0.1)
        assert a == b
        assert a.faulted_indices() == b.faulted_indices()
        assert a != FaultPlan.from_rates(50, seed=4, ingest_rate=0.2,
                                         predict_rate=0.3)

    def test_plan_pickles(self):
        import pickle

        plan = FaultPlan.from_rates(10, seed=1, predict_rate=0.5)
        assert pickle.loads(pickle.dumps(FaultInjector(plan))).plan == plan

    def test_injector_is_pure_in_index_and_attempt(self):
        injector = FaultInjector(FaultPlan(predict_faults={2: 1, 3: ALWAYS}))
        for _ in range(3):  # no hidden state: same args, same outcome
            injector.before_predict(0, 0)  # never faulted
            with pytest.raises(PredictError) as transient_info:
                injector.before_predict(2, 0)
            injector.before_predict(2, 1)  # budget of 1: attempt 1 clean
            with pytest.raises(PredictError) as permanent_info:
                injector.before_predict(3, 5)
        assert transient_info.value.transient and transient_info.value.injected
        assert not permanent_info.value.transient


class TestPerRequestIsolation:
    def test_poisoned_request_does_not_fail_batch(self, fitted):
        tool, dataset = fitted
        requests = _page_requests(dataset)
        with _service(fitted, fault_injector=FaultPlan(predict_faults={1: ALWAYS})) as service:
            results = service.ask_many(requests, strict=False)
        assert len(results) == len(requests)
        for index, (request, result) in enumerate(zip(requests, results)):
            if index == 1:
                assert not result.ok
                assert isinstance(result.error, PredictError)
                assert result.error.injected
                assert result.error.route == "fac_t1"
            else:
                assert result.ok
                assert result.answer == tool.predict(request.page)

    def test_ingest_fault_isolated_and_tagged(self, fitted):
        tool, dataset = fitted
        requests = _html_requests(dataset)
        with _service(fitted, fault_injector=FaultPlan(ingest_faults={0: ALWAYS})) as service:
            results = service.ask_many(requests, strict=False)
        assert isinstance(results[0].error, IngestError)
        assert results[0].error.stage == "ingest"
        assert all(r.ok for r in results[1:])
        assert service.stats.snapshot()["failures_by_stage"] == {"ingest": 1}

    def test_strict_raises_through(self, fitted):
        _, dataset = fitted
        with _service(fitted, fault_injector=FaultPlan(predict_faults={0: ALWAYS})) as service:
            with pytest.raises(PredictError):
                service.ask_many(_page_requests(dataset), strict=True)

    def test_unknown_route_still_a_keyerror(self, fitted):
        _, dataset = fitted
        with _service(fitted) as service:
            with pytest.raises(KeyError, match="unknown route"):
                service.ask("nope", page=dataset.test_pages[0])
            results = service.ask_many(
                [ServingRequest(route="nope", page=dataset.test_pages[0])],
                strict=False,
            )
        assert results[0].error.stage == "route"


class TestRetries:
    def test_transient_fault_is_retried_to_success(self, fitted):
        tool, dataset = fitted
        requests = _page_requests(dataset)
        with _service(fitted, fault_injector=FaultPlan(predict_faults={0: 2})) as service:
            results = service.ask_many(requests, strict=False)
        assert results[0].ok
        assert results[0].answer == tool.predict(requests[0].page)
        assert results[0].retries == 2
        assert all(r.retries == 0 for r in results[1:])
        assert service.stats.snapshot()["retries"] == 2

    def test_retry_budget_exhausts(self, fitted):
        _, dataset = fitted
        # Budget of 3 transient failures > max_retries of 2 → final error.
        with _service(fitted, fault_injector=FaultPlan(predict_faults={0: 3})) as service:
            results = service.ask_many(_page_requests(dataset), strict=False)
        assert isinstance(results[0].error, PredictError)
        assert results[0].error.transient  # it *was* transient; budget ran out
        assert results[0].retries == 2

    def test_no_retry_policy_fails_first_time(self, fitted):
        _, dataset = fitted
        with _service(
            fitted,
            retry_policy=NO_RETRY,
            fault_injector=FaultPlan(predict_faults={0: 1}),
        ) as service:
            results = service.ask_many(_page_requests(dataset), strict=False)
        assert not results[0].ok
        assert results[0].retries == 0

    def test_ingest_transient_retried(self, fitted):
        tool, dataset = fitted
        requests = _html_requests(dataset)
        with _service(fitted, fault_injector=FaultPlan(ingest_faults={2: 1})) as service:
            results = service.ask_many(requests, strict=False)
        assert results[2].ok
        assert results[2].retries == 1

    def test_retry_delays_are_deterministic(self):
        policy = RetryPolicy(seed=7)
        delays = [policy.delay(a, key="predict:r") for a in range(3)]
        assert delays == [policy.delay(a, key="predict:r") for a in range(3)]
        assert delays != [policy.delay(a, key="other") for a in range(3)]
        assert all(d >= 0 for d in delays)


class TestDeadlines:
    def test_injected_latency_trips_deadline(self, fitted):
        _, dataset = fitted
        # jobs=2: a deadline bounds *waiting* on the pool, so the slow
        # request times out in its slot while fast neighbours complete.
        # (Inline jobs=1 has no wait to bound — the deadline is checked
        # between items instead; see test_past_deadline below.)
        plan = FaultPlan(latency_seconds={0: 0.3})
        with _service(fitted, jobs=2, fault_injector=plan) as service:
            results = service.ask_many(
                _page_requests(dataset), strict=False, deadline_seconds=0.1
            )
        assert isinstance(results[0].error, DeadlineExceeded)
        assert results[0].error.stage == "deadline"
        assert not results[0].error.transient
        assert service.stats.snapshot()["deadline_exceeded"] >= 1
        assert any(r.ok for r in results[1:])

    def test_past_deadline_fails_everything_structured(self, fitted):
        _, dataset = fitted
        with _service(fitted) as service:
            results = service.ask_many(
                _html_requests(dataset), strict=False, deadline_seconds=0.0
            )
        assert all(isinstance(r.error, DeadlineExceeded) for r in results)

    def test_no_deadline_is_unbounded(self, fitted):
        tool, dataset = fitted
        with _service(fitted, fault_injector=FaultPlan(latency_seconds={0: 0.05})) as service:
            answers = service.ask_many(_page_requests(dataset))
        assert answers[0] == tool.predict(dataset.test_pages[0])


class TestAdmission:
    def test_overflow_is_shed_not_failed(self, fitted):
        tool, dataset = fitted
        requests = _page_requests(dataset)  # 5 requests
        with _service(fitted, max_inflight=2) as service:
            results = service.ask_many(requests, strict=False)
            assert [r.ok for r in results] == [True, True, False, False, False]
            assert all(
                isinstance(r.error, RejectedError) and r.error.reason == "overload"
                for r in results[2:]
            )
            assert service.stats.snapshot()["rejected"] == 3
            # Slots were released: the next call admits again.
            again = service.ask_many(requests[:2], strict=False)
            assert all(r.ok for r in again)

    def test_strict_overflow_raises(self, fitted):
        _, dataset = fitted
        with _service(fitted, max_inflight=1) as service:
            with pytest.raises(RejectedError):
                service.ask_many(_page_requests(dataset), strict=True)
            # And the failed call's slots were still released.
            assert service.health()["inflight"] == 0

    def test_rejection_is_transient_but_never_internally_retried(self, fitted):
        _, dataset = fitted
        with _service(fitted, max_inflight=1) as service:
            results = service.ask_many(_page_requests(dataset)[:2], strict=False)
        assert is_transient(results[1].error)
        assert results[1].retries == 0


class TestCircuitBreaker:
    def test_state_machine_with_fake_clock(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=2, reset_seconds=10.0, clock=lambda: now[0])
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        now[0] = 10.0
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_failure()
        assert breaker.state == "open"  # probe failed: re-open
        now[0] = 20.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_breaker_opens_sheds_probes_and_recloses(self, fitted):
        tool, dataset = fitted
        page = dataset.test_pages[0]
        now = [0.0]
        with _service(
            fitted,
            retry_policy=NO_RETRY,
            circuit_threshold=2,
            circuit_reset_seconds=5.0,
            clock=lambda: now[0],
            fault_injector=FaultPlan(predict_faults={0: ALWAYS}),
        ) as service:
            request = [ServingRequest(route="fac_t1", page=page)]
            for _ in range(2):  # two consecutive failures open the circuit
                assert not service.ask_many(request, strict=False)[0].ok
            assert service.breaker("fac_t1").state == "open"
            shed = service.ask_many(request, strict=False)[0]
            assert isinstance(shed.error, RejectedError)
            assert shed.error.reason == "circuit-open"
            # The outage "ends" and the cooldown elapses: probe re-closes.
            service.inject_faults(None)
            now[0] = 5.0
            probe = service.ask_many(request, strict=False)[0]
            assert probe.ok and probe.answer == tool.predict(page)
            assert service.breaker("fac_t1").state == "closed"
            assert service.ask_many(request, strict=False)[0].ok

    def test_open_circuit_only_sheds_its_own_route(self, fitted):
        tool, dataset = fitted
        page = dataset.test_pages[0]
        with _service(
            fitted,
            retry_policy=NO_RETRY,
            circuit_threshold=1,
            fault_injector=FaultPlan(predict_faults={0: ALWAYS}),
        ) as service:
            service.register("healthy", tool)
            bad = [ServingRequest(route="fac_t1", page=page)]
            assert not service.ask_many(bad, strict=False)[0].ok
            assert service.breaker("fac_t1").state == "open"
            service.inject_faults(None)
            mixed = service.ask_many(
                bad + [ServingRequest(route="healthy", page=page)], strict=False
            )
            assert isinstance(mixed[0].error, RejectedError)
            assert mixed[1].ok


class TestPoolCrash:
    """The harshest fault: an injected worker death mid-batch."""

    def test_process_worker_death_is_survived(self, fitted):
        tool, dataset = fitted
        requests = _page_requests(dataset)
        plan = FaultPlan(pool_crashes=frozenset({1}))
        with _service(fitted, jobs=2, backend="process", fault_injector=plan) as service:
            results = service.ask_many(requests, strict=False)
            # os._exit(13) killed the pool; every affected request was
            # retried on a rebuilt pool and still answered.
            assert all(r.ok for r in results)
            assert results[1].retries >= 1
            assert service.health()["stats"]["pools_broken"] >= 1
            assert service.health()["pools_broken"] >= 1
            # The service stays fully usable after the crash.
            service.inject_faults(None)
            answers = service.ask_many(requests, strict=True)
        assert answers == [tool.predict(p) for p in dataset.test_pages]

    def test_thread_backend_degrades_crash_to_transient_fault(self, fitted):
        tool, dataset = fitted
        requests = _page_requests(dataset)
        plan = FaultPlan(pool_crashes=frozenset({0}))
        with _service(fitted, jobs=2, backend="thread", fault_injector=plan) as service:
            results = service.ask_many(requests, strict=False)
        # No os._exit on threads (it would kill this very process): the
        # crash shows up as one transient failure, cured by retry.
        assert all(r.ok for r in results)
        assert results[0].retries == 1
        assert service.health()["stats"]["pools_broken"] == 0


class TestDegradation:
    def test_compiled_fault_falls_back_to_interpreter(self, fitted):
        tool, dataset = fitted
        requests = _page_requests(dataset)
        with _service(fitted, fault_injector=FaultPlan(compiled_faults=frozenset({0, 2}))) as service:
            results = service.ask_many(requests, strict=False)
        for index, (request, result) in enumerate(zip(requests, results)):
            assert result.ok
            # Interpreter parity: the degraded path answers identically.
            assert result.answer == tool.predict(request.page)
            assert result.degraded == (index in (0, 2))
        assert service.stats.snapshot()["degraded"] == 2

    def test_oversized_page_is_bounded_not_fatal(self, fitted):
        tool, dataset = fitted
        limits = ServingLimits(max_html_chars=5_000, max_depth=30, max_nodes=500)
        huge = adversarial_html("flat_siblings", seed=0)
        assert len(huge) > 5_000
        with _service(fitted, limits=limits) as service:
            results = service.ask_many(
                [ServingRequest(route="fac_t1", html=huge)], strict=False
            )
        assert results[0].ok
        assert results[0].degraded
        assert service.cache.stats.snapshot()["pages_degraded"] == 1

    def test_degraded_flag_survives_cache_hit(self, fitted):
        limits = ServingLimits(max_html_chars=2_000)
        huge = adversarial_html("entity_soup", seed=1)
        with _service(fitted, limits=limits) as service:
            first = service.ask_many(
                [ServingRequest(route="fac_t1", html=huge)], strict=False
            )[0]
            second = service.ask_many(
                [ServingRequest(route="fac_t1", html=huge)], strict=False
            )[0]
        assert first.degraded and not first.cache_hit
        assert second.degraded and second.cache_hit
        assert first.fingerprint == second.fingerprint


class TestAdversarialHtml:
    def test_generator_is_deterministic(self):
        for kind in ADVERSARIAL_KINDS:
            assert adversarial_html(kind, seed=5) == adversarial_html(kind, seed=5)
            assert adversarial_html(kind, seed=5) != adversarial_html(kind, seed=6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            adversarial_html("zip-bomb")

    def test_whole_corpus_serves_under_default_limits(self, fitted):
        with _service(fitted) as service:
            requests = [
                ServingRequest(route="fac_t1", html=html, url=f"adv://{kind}")
                for kind, html in adversarial_corpus(seed=2)
            ]
            results = service.ask_many(requests, strict=False)
        # Hostile pages never error out — worst case a degraded answer.
        assert all(r.ok for r in results)
        assert all(isinstance(r.answer, tuple) for r in results)

    def test_deep_nesting_is_capped_by_depth_guard(self, fitted):
        limits = ServingLimits(max_html_chars=None, max_depth=50, max_nodes=None)
        with _service(fitted, limits=limits) as service:
            result = service.ask_many(
                [ServingRequest(route="fac_t1", html=adversarial_html("deep_nesting", scale=4))],
                strict=False,
            )[0]
        assert result.ok and result.degraded


class TestKitchenSink:
    def test_any_plan_yields_structured_results_and_live_service(self, fitted):
        tool, dataset = fitted
        pages = list(dataset.test_pages)
        requests = [
            ServingRequest(route="fac_t1", page=pages[i % len(pages)])
            for i in range(20)
        ]
        plan = FaultPlan.from_rates(
            len(requests),
            seed=11,
            ingest_rate=0.15,
            predict_rate=0.3,
            permanent_rate=0.5,
            compiled_rate=0.2,
            latency_rate=0.1,
            latency=0.005,
        )
        assert plan.faulted_indices()  # the plan actually bites
        with _service(fitted, fault_injector=plan) as service:
            results = service.ask_many(requests, strict=False)
            assert len(results) == len(requests)
            for index, result in enumerate(results):
                # Exactly one of answer/error, and errors are taxonomy values.
                assert (result.answer is None) != (result.error is None)
                if result.error is not None:
                    assert isinstance(result.error, ServingError)
                    assert result.error.injected
                else:
                    assert result.answer == tool.predict(requests[index].page)
            # The same service, chaos off, then answers perfectly.
            service.inject_faults(None)
            clean = service.ask_many(requests[: len(pages)], strict=True)
            assert clean == [tool.predict(p) for p in pages]

    def test_no_fault_differential_strict_and_nonstrict(self, fitted):
        tool, dataset = fitted
        requests = _html_requests(dataset)
        expected = [
            tool.predict(p) for p in dataset.test_pages
        ]
        with _service(fitted) as service:
            strict_answers = service.ask_many(requests, strict=True)
            results = service.ask_many(requests, strict=False)
        assert strict_answers == expected
        assert [r.answer for r in results] == expected
        assert all(r.ok and r.retries == 0 and not r.degraded for r in results)
        assert service.stats.snapshot()["failures"] == 0


class TestHealthSnapshot:
    def test_health_surfaces_resilience_state(self, fitted):
        _, dataset = fitted
        with _service(fitted, max_inflight=8, fault_injector=FaultPlan(predict_faults={0: ALWAYS})) as service:
            service.ask_many(_page_requests(dataset), strict=False)
            health = service.health()
        assert health["routes"] == ["fac_t1"]
        assert health["inflight"] == 0
        assert health["circuits"] == {"fac_t1": "closed"}
        assert health["stats"]["failures"] == 1
        assert health["stats"]["failures_by_stage"] == {"predict": 1}
        assert "pools_broken" in health
        assert health["ingest"]["pages_ingested"] >= 0
