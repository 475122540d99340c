"""ServingGateway: the concurrent front-end, pinned end to end.

The load-bearing class is the first one: for any lane count,
concurrency level and flush policy, gateway answers are **bit-identical**
to sequential ``tool.predict`` over the same requests, on all 25 dataset
tasks — lanes, queueing and micro-batching are throughput mechanics,
never semantics.  The rest pins the backpressure ladder (deterministic
shedding at the queue bound), crash recovery through the pool-rebuild
path, and hot-swap / feed / rollback on the one service behind the
lanes under sustained concurrent load.
"""

import asyncio
import sys
import threading

import pytest

from repro.core.errors import RejectedError
from repro.core.webqa import WebQA
from repro.dataset.corpus import (
    build_domain_corpus,
    generate_page,
    load_task_dataset,
)
from repro.dataset.tasks import TASKS, TASKS_BY_ID
from repro.nlp.models import NlpModels
from repro.serving.faults import FaultPlan
from repro.serving.gateway import ServingGateway
from repro.serving.ingest import ingest_html, ingest_page
from repro.serving.live import LiveCorpus
from repro.serving.service import ServingRequest
from repro.synthesis.config import default_config
from repro.synthesis.examples import LabeledExample
from repro.synthesis.session import SynthesisSession
from repro.webtree.html_out import page_to_html
from repro.webtree.store import CorpusStoreWriter


@pytest.fixture(scope="module")
def fitted25():
    """One fitted tool per dataset task, plus html requests + oracle.

    Small scale (4 pages, 2 train) keeps the 25 fits affordable; the
    differential is about serving equivalence, not extraction quality.
    """
    by_task = {}
    for task in TASKS:
        dataset = load_task_dataset(task, n_pages=4, n_train=2, seed=0)
        tool = WebQA(ensemble_size=20, seed=0).fit(
            task.question, task.keywords, list(dataset.train),
            list(dataset.test_pages), dataset.models,
        )
        requests, expected = [], []
        for page in dataset.test_pages:
            html = page_to_html(page)
            requests.append(
                ServingRequest(route=task.task_id, html=html, url=page.url)
            )
            expected.append(tool.predict(ingest_html(html, url=page.url)))
        by_task[task.task_id] = (tool, requests, expected)
    return by_task


@pytest.fixture(scope="module")
def fitted():
    """One cheap fitted tool + its dataset for the mechanics tests."""
    task = TASKS_BY_ID["fac_t1"]
    dataset = load_task_dataset(task, n_pages=6, n_train=3, seed=0)
    tool = WebQA(ensemble_size=40).fit(
        task.question, task.keywords, list(dataset.train),
        list(dataset.test_pages), dataset.models,
    )
    return tool, dataset


def _flatten(fitted25):
    requests, expected = [], []
    for _, task_requests, task_expected in fitted25.values():
        requests.extend(task_requests)
        expected.extend(task_expected)
    return requests, expected


def _register_all(gateway, fitted25):
    for task_id, (tool, _, _) in fitted25.items():
        gateway.register(task_id, tool)


class TestDifferential:
    """Gateway ≡ sequential predict, all 25 tasks, any configuration."""

    @pytest.mark.parametrize(
        "shards,max_batch,flush_delay",
        [
            (1, 32, 0.002),   # degenerate: one shard, default policy
            (2, 4, 0.0),      # tiny batches, flush immediately
            (3, 8, 0.002),
            (5, 2, 0.01),     # more shards than routes, slow flush
        ],
    )
    def test_all_25_tasks_bit_identical(
        self, fitted25, shards, max_batch, flush_delay
    ):
        requests, expected = _flatten(fitted25)
        # Interleave tasks so every batch mixes routes and shards.
        order = sorted(range(len(requests)), key=lambda i: i % 7)
        with ServingGateway(
            shards=shards, max_batch=max_batch,
            flush_delay_seconds=flush_delay,
        ) as gateway:
            _register_all(gateway, fitted25)
            answers = gateway.ask_many([requests[i] for i in order])
        assert answers == [expected[i] for i in order]

    def test_concurrent_callers_all_bit_identical(self, fitted25):
        requests, expected = _flatten(fitted25)
        failures: list[str] = []
        with ServingGateway(shards=3, max_batch=8) as gateway:
            _register_all(gateway, fitted25)

            def caller():
                for _ in range(3):
                    if gateway.ask_many(requests) != expected:
                        failures.append("diverged")

            threads = [threading.Thread(target=caller) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures

    def test_asyncio_front_end_bit_identical(self, fitted25):
        requests, expected = _flatten(fitted25)
        with ServingGateway(shards=2, max_batch=8) as gateway:
            _register_all(gateway, fitted25)

            async def drive():
                # Two interleaved awaiting coroutines over one loop.
                first, second = await asyncio.gather(
                    gateway.ask_many_async(requests),
                    gateway.ask_many_async(list(reversed(requests))),
                )
                return first, second

            first, second = asyncio.run(drive())
        assert first == expected
        assert second == list(reversed(expected))

    def test_single_ask_and_ask_async(self, fitted):
        tool, dataset = fitted
        page = dataset.test_pages[0]
        html = page_to_html(page)
        want = tool.predict(ingest_html(html, url=page.url))
        with ServingGateway(shards=2) as gateway:
            gateway.register("fac_t1", tool)
            assert gateway.ask("fac_t1", html=html, url=page.url) == want
            got = asyncio.run(
                gateway.ask_async("fac_t1", html=html, url=page.url)
            )
            assert got == want


class TestShardAffinity:
    def test_same_page_always_lands_on_same_shard(self, fitted):
        tool, dataset = fitted
        with ServingGateway(shards=4) as gateway:
            gateway.register("fac_t1", tool)
            requests = [
                ServingRequest(
                    route="fac_t1", html=page_to_html(page), url=page.url
                )
                for page in dataset.test_pages
            ]
            homes = [gateway.shard_of(request) for request in requests]
            for _ in range(3):
                assert [
                    gateway.shard_of(request) for request in requests
                ] == homes
            # Serve twice: each page misses the one cache once, then
            # the second pass is warm whichever lane carried it.
            expected = [tool.predict(page) for page in dataset.test_pages]
            assert gateway.ask_many(requests) == expected
            assert gateway.ask_many(requests) == expected
            counts = gateway.service.cache.stats.snapshot()
            assert counts["cache_misses"] == len(requests)
            assert counts["cache_hits"] == len(requests)

    def test_preparsed_page_requests_served(self, fitted):
        tool, dataset = fitted
        with ServingGateway(shards=3) as gateway:
            gateway.register("fac_t1", tool)
            requests = [
                ServingRequest(route="fac_t1", page=page)
                for page in dataset.test_pages
            ]
            expected = [tool.predict(page) for page in dataset.test_pages]
            assert gateway.ask_many(requests) == expected

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            ServingGateway(shards=0)


class TestShedding:
    """The outermost backpressure rung: deterministic, structured, exact."""

    def _burst(self, dataset, count):
        # Distinct urls over one page's html → distinct fingerprints →
        # a deterministic spread across shards.
        html = page_to_html(dataset.test_pages[0])
        return [
            ServingRequest(route="fac_t1", html=html, url=f"burst/{index}")
            for index in range(count)
        ]

    def test_exactly_the_over_bound_requests_shed(self, fitted):
        tool, dataset = fitted
        depth = 3
        requests = self._burst(dataset, 24)
        with ServingGateway(
            shards=2, queue_depth=depth, flush_delay_seconds=0.0
        ) as gateway:
            gateway.register("fac_t1", tool)
            for index in range(2):
                gateway.pause_shard(index)
            # Arrival order fixes the outcome: the first `depth` per
            # shard are accepted, every later arrival is shed.
            seen = [0, 0]
            expect_shed = []
            for index, request in enumerate(requests):
                home = gateway.shard_of(request)
                seen[home] += 1
                if seen[home] > depth:
                    expect_shed.append(index)
            assert expect_shed  # the burst does overflow both bounds
            futures = [gateway.submit(request) for request in requests]
            # Shed futures resolve instantly, while still paused.
            for index in expect_shed:
                assert futures[index].done()
            gateway.resume_shard(0)
            gateway.resume_shard(1)
            results = [future.result(timeout=30) for future in futures]
            shed = [
                index for index, result in enumerate(results)
                if isinstance(result.error, RejectedError)
            ]
            assert shed == expect_shed
            for index, result in enumerate(results):
                if index in expect_shed:
                    assert result.error.reason == "overload"
                    assert result.error.route == "fac_t1"
                else:
                    # Accepted requests are served, never dropped.
                    assert result.ok
                    assert result.answer == tool.predict(
                        ingest_html(requests[index].html,
                                    url=requests[index].url)
                    )
            assert gateway.stats.snapshot()["shed"] == len(expect_shed)
            assert gateway.stats.snapshot()["submitted"] == len(requests)
            health = gateway.health()
            assert health["stats"]["shed"] == len(expect_shed)

    def test_shed_pattern_is_reproducible(self, fitted):
        tool, dataset = fitted
        requests = self._burst(dataset, 24)

        def shed_pattern():
            with ServingGateway(
                shards=2, queue_depth=3, flush_delay_seconds=0.0
            ) as gateway:
                gateway.register("fac_t1", tool)
                gateway.pause_shard(0)
                gateway.pause_shard(1)
                futures = [gateway.submit(r) for r in requests]
                gateway.resume_shard(0)
                gateway.resume_shard(1)
                results = [f.result(timeout=30) for f in futures]
            return tuple(
                index for index, result in enumerate(results)
                if isinstance(result.error, RejectedError)
            )

        assert shed_pattern() == shed_pattern()

    def test_unbounded_queue_never_sheds(self, fitted):
        tool, dataset = fitted
        requests = self._burst(dataset, 48)
        with ServingGateway(shards=2, queue_depth=None) as gateway:
            gateway.register("fac_t1", tool)
            results = gateway.ask_many(requests, strict=False)
        assert all(result.ok for result in results)
        assert gateway.stats.snapshot()["shed"] == 0

    def test_submit_after_close_rejects_structurally(self, fitted):
        tool, dataset = fitted
        gateway = ServingGateway(shards=2)
        gateway.register("fac_t1", tool)
        gateway.close()
        request = self._burst(dataset, 1)[0]
        result = gateway.submit(request).result(timeout=5)
        assert isinstance(result.error, RejectedError)
        assert result.error.reason == "closed"


class TestCrashRecovery:
    def test_shard_crash_mid_burst_recovers(self, fitted):
        # A worker process dies mid-batch on one shard: the shard's
        # pool-rebuild + retry path answers every request anyway, the
        # break is surfaced in gateway health, and the gateway serves
        # cleanly once the injector is removed.
        tool, dataset = fitted
        requests = [
            ServingRequest(route="fac_t1", page=page)
            for page in dataset.test_pages
        ]
        expected = [tool.predict(page) for page in dataset.test_pages]
        plan = FaultPlan(pool_crashes=frozenset({1}))
        with ServingGateway(
            shards=2, jobs=2, backend="process", fault_injector=plan
        ) as gateway:
            gateway.register("fac_t1", tool.export_artifact())
            results = gateway.ask_many(requests, strict=False)
            assert [result.answer for result in results] == expected
            assert all(result.ok for result in results)
            assert any(result.retries >= 1 for result in results)
            assert gateway.health()["service"]["pools_broken"] >= 1
            gateway.service.inject_faults(None)
            assert gateway.ask_many(requests) == expected

    def test_dispatchers_alive_in_health(self, fitted):
        tool, _ = fitted
        gateway = ServingGateway(shards=3)
        gateway.register("fac_t1", tool)
        assert gateway.health()["dispatchers_alive"] == [True] * 3
        gateway.close()
        assert gateway.health()["dispatchers_alive"] == [False] * 3


class TestHotSwapUnderLoad:
    def test_swap_storm_never_drops_or_misanswers(self, fitted):
        tool, dataset = fitted
        expected = [tool.predict(page) for page in dataset.test_pages]
        requests = [
            ServingRequest(
                route="fac_t1", html=page_to_html(page), url=page.url
            )
            for page in dataset.test_pages
        ]
        with ServingGateway(shards=3, max_batch=4) as gateway:
            gateway.register("fac_t1", tool.export_artifact(), version="v0")
            failures: list[object] = []
            stop = threading.Event()

            def asker():
                while not stop.is_set():
                    results = gateway.ask_many(requests, strict=False)
                    for result, want in zip(results, expected):
                        if not result.ok or result.answer != want:
                            failures.append(result)

            threads = [threading.Thread(target=asker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for index in range(30):
                gateway.register(
                    "fac_t1", tool.export_artifact(), version=f"v{index + 1}"
                )
            stop.set()
            for thread in threads:
                thread.join()
            assert not failures
            # The service serves the last version; every retired
            # version drained.
            service = gateway.service
            assert service.route_version("fac_t1") == "v30"
            assert service.route_drained("fac_t1")
            assert service.stats.snapshot()["hot_swaps"] == 30

    def test_one_swap_through_three_lanes(self, fitted):
        tool, dataset = fitted
        requests = [
            ServingRequest(
                route="fac_t1", html=page_to_html(page), url=page.url
            )
            for page in dataset.test_pages
        ]
        expected = [
            tool.predict(ingest_html(r.html, url=r.url)) for r in requests
        ]
        with ServingGateway(shards=3) as gateway:
            gateway.register("fac_t1", tool, version="v1")
            gateway.register("fac_t1", tool.export_artifact(), version="v2")
            assert gateway.ask_many(requests) == expected
            lanes = {gateway.shard_of(request) for request in requests}
            health = gateway.health()
        assert len(lanes) > 1  # the requests did spread over lanes
        assert health["service"]["versions"] == {"fac_t1": "v2"}
        assert health["service"]["stats"]["hot_swaps"] == 1

    def test_rollback_restores_the_one_served_version(self, fitted):
        tool, dataset = fitted
        with ServingGateway(shards=3) as gateway:
            service = gateway.service
            gateway.register("fac_t1", tool, version="v1")
            gateway.register("fac_t1", tool, version="v2")
            assert service.rollback("fac_t1") == "v1"
            assert service.route_version("fac_t1") == "v1"
            assert service.stats.snapshot()["rollbacks"] == 1
            want = tool.predict(dataset.test_pages[0])
            assert gateway.ask("fac_t1", page=dataset.test_pages[0]) == want


class TestLiveFeedUnderLoad:
    def test_feed_during_burst_swaps_all_shards_consistently(self, tmp_path):
        # LiveCorpus built over the gateway's service: a feed() landing
        # mid-burst publishes one store generation, invalidates the fed
        # page, refits once, and swaps the one route table — while
        # concurrent askers on every lane observe only old-consistent
        # or new-consistent answers, never an error.
        task = TASKS_BY_ID["fac_t1"]
        corpus = build_domain_corpus("faculty", 6, seed=0)
        models = NlpModels.for_corpus(
            [cp.page.root.subtree_text() for cp in corpus]
        )
        train = [
            LabeledExample(cp.page, cp.gold[task.task_id])
            for cp in corpus[:2]
        ]
        unlabeled = [cp.page for cp in corpus]
        store_path = str(tmp_path / "live.rpw")
        with CorpusStoreWriter(store_path) as writer:
            for cp in corpus:
                ingest_page(cp.html, cp.page.url, store_writer=writer)
        session = SynthesisSession(
            task.question, tuple(task.keywords), models,
            config=default_config(), examples=list(train),
        )
        tool = WebQA(
            config=session.config, ensemble_size=30, seed=0
        ).fit_session(session, list(unlabeled))

        with ServingGateway(shards=3, store=store_path) as gateway:
            gateway.register(
                task.task_id, tool,
                version=tool.export_artifact().fingerprint(),
            )
            service = gateway.service
            live = LiveCorpus(service)
            live.track(
                task.task_id, session, unlabeled=unlabeled,
                ensemble_size=30, seed=0,
            )
            victim = corpus[-1]
            changed = generate_page("faculty", seed=4242)
            stable = [
                ServingRequest(route=task.task_id, html=cp.html,
                               url=cp.page.url)
                for cp in corpus[:-1]
            ]
            old_tool = service.tool(task.task_id)
            stable_old = [
                old_tool.predict(ingest_html(r.html, url=r.url))
                for r in stable
            ]
            failures: list[object] = []
            stop = threading.Event()

            def asker():
                while not stop.is_set():
                    results = gateway.ask_many(stable, strict=False)
                    for position, result in enumerate(results):
                        if not result.ok:
                            failures.append(result)
                        elif result.answer != stable_old[position]:
                            # Unchanged pages may legitimately answer
                            # differently under the refitted tool.
                            now = service.tool(task.task_id)
                            want = now.predict(
                                ingest_html(stable[position].html,
                                            url=stable[position].url)
                            )
                            if result.answer != want:
                                failures.append(result)

            threads = [threading.Thread(target=asker) for _ in range(3)]
            for thread in threads:
                thread.start()
            report = live.feed(changed.html, victim.page.url)
            stop.set()
            for thread in threads:
                thread.join()
            assert not failures
            assert not report.unchanged
            assert report.generation == 1
            (swap,) = report.swaps
            if swap.swapped:
                assert service.route_version(task.task_id) == swap.version
            # The fed page itself now answers through the new content
            # on whichever lane carries it.
            new_tool = service.tool(task.task_id)
            want = new_tool.predict(
                ingest_html(changed.html, url=victim.page.url)
            )
            got = gateway.ask(
                task.task_id, html=changed.html, url=victim.page.url
            )
            assert got == want
            assert service.stats.snapshot()["hot_swaps"] == int(swap.swapped)


class TestSharedService:
    def test_lanes_share_one_service_without_lost_updates(self, fitted):
        # Four lanes (more than the CI box's cores) and six callers
        # drive one service with fine thread interleaving: every answer
        # is right and every shared count is exact.
        tool, dataset = fitted
        html = page_to_html(dataset.test_pages[0])
        want = tool.predict(ingest_html(html, url="stress/0"))
        requests = [
            ServingRequest(route="fac_t1", html=html, url=f"stress/{index}")
            for index in range(40)
        ]
        rounds, callers = 5, 6
        failures: list[object] = []
        with ServingGateway(shards=4, max_batch=4) as gateway:
            gateway.register("fac_t1", tool)

            def caller():
                for _ in range(rounds):
                    results = gateway.ask_many(requests, strict=False)
                    failures.extend(
                        r for r in results if not r.ok or r.answer != want
                    )

            threads = [threading.Thread(target=caller) for _ in range(callers)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            health = gateway.health()
        total = len(requests) * rounds * callers
        assert not failures
        assert health["stats"]["submitted"] == total
        service = health["service"]
        assert service["inflight"] == 0
        assert service["stats"]["requests"] == total
        assert service["stats"]["requests_by_route"] == {"fac_t1": total}
        ingest = service["ingest"]
        assert ingest["pages_ingested"] == total
        assert ingest["cache_hits"] + ingest["cache_misses"] == total
        assert gateway.service.route_drained("fac_t1")


class TestHealthSurface:
    def test_health_reports_per_shard_summary(self, fitted):
        # One entry per lane for the queues, one service for the rest.
        tool, dataset = fitted
        with ServingGateway(shards=2, queue_depth=64) as gateway:
            gateway.register("fac_t1", tool, version="v1")
            requests = [
                ServingRequest(route="fac_t1", page=page)
                for page in dataset.test_pages
            ]
            gateway.ask_many(requests)
            health = gateway.health()
        assert health["shards"] == 2
        assert health["queue_depth_bound"] == 64
        assert health["queue_depths"] == [0, 0]
        assert health["dispatchers_alive"] == [True, True]
        assert health["stats"]["submitted"] == len(requests)
        assert health["stats"]["mean_batch_size"] >= 1
        service = health["service"]
        assert service["inflight"] == 0
        assert service["pools_broken"] == 0
        assert service["circuits"] == {"fac_t1": "closed"}
        assert service["versions"] == {"fac_t1": "v1"}
        assert service["stats"]["requests"] == len(requests)
        assert service["stats"]["span_seconds"] > 0
        assert service["stats"]["throughput_pages_per_s"] > 0
