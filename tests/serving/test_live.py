"""Live-corpus updates: feed → publish → invalidate → refit → hot-swap.

The headline pin is the differential at the bottom: after a seeded
sequence of page updates and removals driven through
:class:`~repro.serving.live.LiveCorpus`, a store-backed service answers
**bit-identically** to a fresh full store rebuild plus a fresh fit, on
all 25 dataset tasks — generations, exact invalidation and warm refit
are transparent optimizations, never semantics.
"""

import os

import pytest

from repro.core.errors import IngestError
from repro.core.webqa import WebQA
from repro.dataset.corpus import build_domain_corpus, generate_page
from repro.dataset.tasks import TASKS_BY_ID
from repro.nlp.models import NlpModels
from repro.serving.faults import ALWAYS, FaultInjector, FaultPlan
from repro.serving.ingest import page_fingerprint
from repro.serving.live import LiveCorpus
from repro.serving.service import QAService, ServingRequest
from repro.synthesis.config import default_config
from repro.synthesis.examples import LabeledExample
from repro.synthesis.session import SynthesisSession
from repro.webtree.store import CorpusStoreWriter


@pytest.fixture(scope="module")
def corpus_fixture():
    """Shared read-only material: pages, models, gold for fac_t1."""
    task = TASKS_BY_ID["fac_t1"]
    corpus = build_domain_corpus("faculty", 6, seed=0)
    models = NlpModels.for_corpus(
        [cp.page.root.subtree_text() for cp in corpus]
    )
    return task, corpus, models


class _Rig:
    """One live deployment: store + service + fitted tracked route."""

    def __init__(self, tmp_path, corpus_fixture, store=True, holdout=(),
                 **track_kwargs):
        self.task, corpus, self.models = corpus_fixture
        self.corpus = corpus
        self.train = [
            LabeledExample(cp.page, cp.gold[self.task.task_id])
            for cp in corpus[:2]
        ]
        self.unlabeled = [cp.page for cp in corpus]
        store_path = None
        if store:
            store_path = str(tmp_path / "live.rpw")
            with CorpusStoreWriter(store_path) as writer:
                from repro.serving.ingest import ingest_page

                for cp in corpus:
                    ingest_page(cp.html, cp.page.url, store_writer=writer)
        self.service = QAService(jobs=1, store=store_path)
        self.session = SynthesisSession(
            self.task.question, tuple(self.task.keywords), self.models,
            config=default_config(), examples=list(self.train),
        )
        self.tool = WebQA(
            config=self.session.config, ensemble_size=30, seed=0
        ).fit_session(self.session, list(self.unlabeled))
        artifact = self.tool.export_artifact()
        self.service.register(
            self.task.task_id, self.tool, version=artifact.fingerprint()
        )
        self.live = LiveCorpus(self.service)
        self.live.track(
            self.task.task_id, self.session, unlabeled=self.unlabeled,
            holdout=list(holdout), ensemble_size=30, seed=0, **track_kwargs,
        )

    def close(self):
        self.service.close()


class TestFeed:
    def test_feed_publishes_invalidates_and_swaps(self, tmp_path,
                                                  corpus_fixture):
        rig = _Rig(tmp_path, corpus_fixture)
        try:
            task_id = rig.task.task_id
            target = rig.corpus[-1]
            # Warm the cache so invalidation has something to drop.
            rig.service.ask_many(
                [ServingRequest(route=task_id, html=target.html,
                                url=target.page.url)]
            )
            changed = generate_page("faculty", seed=4242)
            report = rig.live.feed(changed.html, target.page.url)
            assert not report.unchanged
            assert report.generation == 1
            assert report.invalidated
            assert rig.service.cache.stats.snapshot()["invalidations"] == 1
            assert report.previous_fingerprint == page_fingerprint(
                target.html, target.page.url
            )
            # The store now serves the new bytes and hides the old.
            assert report.fingerprint in rig.service.store
            assert report.previous_fingerprint not in rig.service.store
            # The route hot-swapped to the refitted version.
            (swap,) = report.swaps
            assert swap.swapped and swap.reason == ""
            assert rig.service.route_version(task_id) == swap.version
            assert rig.service.stats.snapshot()["hot_swaps"] == 1
            # And the swapped version id is the artifact fingerprint of
            # the tool now serving.
            serving = rig.service.tool(task_id)
            assert swap.version == serving.export_artifact().fingerprint()
        finally:
            rig.close()

    def test_unchanged_feed_is_noop(self, tmp_path, corpus_fixture):
        rig = _Rig(tmp_path, corpus_fixture)
        try:
            target = rig.corpus[0]
            report = rig.live.feed(target.html, target.page.url)
            assert report.unchanged
            assert report.generation == 0
            assert not report.swaps
            assert rig.service.stats.snapshot()["hot_swaps"] == 0
        finally:
            rig.close()

    def test_feed_without_store_still_swaps(self, tmp_path, corpus_fixture):
        rig = _Rig(tmp_path, corpus_fixture, store=False)
        try:
            changed = generate_page("faculty", seed=4242)
            report = rig.live.feed(changed.html, rig.corpus[-1].page.url)
            assert report.generation == -1
            assert report.swaps and report.swaps[0].swapped
        finally:
            rig.close()

    def test_feed_untracked_url_swaps_nothing(self, tmp_path, corpus_fixture):
        rig = _Rig(tmp_path, corpus_fixture)
        try:
            report = rig.live.feed("<h1>Brand new</h1>", "https://elsewhere/x")
            assert not report.unchanged
            assert not report.swaps  # no tracked route touches that url
            assert report.fingerprint in rig.service.store
        finally:
            rig.close()


class TestRollback:
    def test_refit_error_rolls_back(self, tmp_path, corpus_fixture):
        rig = _Rig(tmp_path, corpus_fixture)
        try:
            task_id = rig.task.task_id
            version = rig.service.route_version(task_id)
            rig.live._injector = FaultInjector(
                FaultPlan(refit_faults={0: ALWAYS})
            )
            changed = generate_page("faculty", seed=4242)
            report = rig.live.feed(changed.html, rig.corpus[-1].page.url)
            (swap,) = report.swaps
            assert not swap.swapped
            assert swap.reason == "refit-error"
            assert rig.service.route_version(task_id) == version
            assert rig.service.stats.snapshot()["rollbacks"] == 1
            # The corpus update itself stuck (publish precedes refit):
            # the route just keeps answering on its previous program.
            assert report.fingerprint in rig.service.store
            answer = rig.service.ask(
                task_id, page=rig.corpus[0].page
            )
            assert answer == rig.tool.predict(rig.corpus[0].page)
        finally:
            rig.close()

    def test_refit_deadline_rolls_back(self, tmp_path, corpus_fixture):
        rig = _Rig(tmp_path, corpus_fixture,
                   refit_deadline_seconds=1e-9)
        try:
            changed = generate_page("faculty", seed=4242)
            report = rig.live.feed(changed.html, rig.corpus[-1].page.url)
            (swap,) = report.swaps
            assert not swap.swapped
            assert swap.reason == "refit-deadline"
            assert rig.service.stats.snapshot()["rollbacks"] == 1
        finally:
            rig.close()

    def test_holdout_regression_rolls_back(self, tmp_path, corpus_fixture):
        # A negative tolerance makes *any* candidate — even an equal one
        # — count as a regression, pinning the gate deterministically.
        task, corpus, _ = corpus_fixture
        holdout = [
            LabeledExample(cp.page, cp.gold[task.task_id])
            for cp in corpus[2:4]
        ]
        rig = _Rig(tmp_path, corpus_fixture, holdout=holdout,
                   f1_tolerance=-2.0)
        try:
            changed = generate_page("faculty", seed=4242)
            report = rig.live.feed(changed.html, rig.corpus[-1].page.url)
            (swap,) = report.swaps
            assert not swap.swapped
            assert swap.reason == "holdout-regression"
            assert swap.holdout_f1 >= 0.0  # the candidate was scored
            assert rig.service.stats.snapshot()["rollbacks"] == 1
        finally:
            rig.close()

    def test_holdout_pass_swaps(self, tmp_path, corpus_fixture):
        task, corpus, _ = corpus_fixture
        holdout = [
            LabeledExample(cp.page, cp.gold[task.task_id])
            for cp in corpus[2:4]
        ]
        rig = _Rig(tmp_path, corpus_fixture, holdout=holdout,
                   f1_tolerance=0.0)
        try:
            changed = generate_page("faculty", seed=4242)
            report = rig.live.feed(changed.html, rig.corpus[-1].page.url)
            (swap,) = report.swaps
            assert swap.swapped
            assert swap.holdout_f1 >= 0.0
        finally:
            rig.close()


class TestCrashPaths:
    def test_torn_segment_changes_nothing(self, tmp_path, corpus_fixture):
        rig = _Rig(tmp_path, corpus_fixture)
        try:
            rig.live._injector = FaultInjector(
                FaultPlan(torn_segments=frozenset({0}))
            )
            target = rig.corpus[-1]
            changed = generate_page("faculty", seed=4242)
            with pytest.raises(IngestError):
                rig.live.feed(changed.html, target.page.url)
            rig.service.store.reload()
            assert rig.service.store.generation == 0
            # In-memory state untouched: url map, cache, routing.
            assert rig.live._urls[target.page.url] == page_fingerprint(
                target.html, target.page.url
            )
            assert rig.service.stats.snapshot()["hot_swaps"] == 0
            # A clean retry of the same feed succeeds.
            rig.live._injector = None
            report = rig.live.feed(changed.html, target.page.url)
            assert report.swaps and report.swaps[0].swapped
        finally:
            rig.close()

    def test_publish_crash_leaves_previous_generation(self, tmp_path,
                                                      corpus_fixture):
        from repro.webtree.store import collect_garbage

        rig = _Rig(tmp_path, corpus_fixture)
        try:
            rig.live._injector = FaultInjector(
                FaultPlan(publish_crashes=frozenset({0}))
            )
            changed = generate_page("faculty", seed=4242)
            with pytest.raises(IngestError):
                rig.live.feed(changed.html, rig.corpus[-1].page.url)
            rig.service.store.reload()
            assert rig.service.store.generation == 0
            # The durable-but-unreferenced segment is GC fodder.
            deleted = collect_garbage(str(tmp_path / "live.rpw"))
            assert any(".seg-" in os.path.basename(p) for p in deleted)
        finally:
            rig.close()


class TestRemoveAndBackground:
    def test_remove_refits_and_hides_page(self, tmp_path, corpus_fixture):
        rig = _Rig(tmp_path, corpus_fixture)
        try:
            victim = rig.corpus[-1]  # unlabeled for the tracked route
            report = rig.live.remove(victim.page.url)
            assert not report.unchanged
            assert report.invalidated is False  # never cached in this test
            assert page_fingerprint(
                victim.html, victim.page.url
            ) not in rig.service.store
            (swap,) = report.swaps
            assert swap.swapped
            tracked = rig.live._routes[rig.task.task_id]
            assert all(
                page.url != victim.page.url for page in tracked.unlabeled
            )
        finally:
            rig.close()

    def test_remove_labeled_page_refuses(self, tmp_path, corpus_fixture):
        rig = _Rig(tmp_path, corpus_fixture)
        try:
            with pytest.raises(ValueError, match="labeled example"):
                rig.live.remove(rig.corpus[0].page.url)
        finally:
            rig.close()

    def test_background_feed_drains_with_swap(self, tmp_path, corpus_fixture):
        rig = _Rig(tmp_path, corpus_fixture)
        try:
            changed = generate_page("faculty", seed=4242)
            report = rig.live.feed(
                changed.html, rig.corpus[-1].page.url, wait=False
            )
            assert report.pending_routes == (rig.task.task_id,)
            assert not report.swaps
            swaps = rig.live.drain()
            assert len(swaps) == 1 and swaps[0].swapped
            assert rig.service.route_version(rig.task.task_id) == \
                swaps[0].version
        finally:
            rig.close()


class TestLiveDifferential:
    def test_all_25_tasks_bit_identical_after_update_sequence(self,
                                                              tmp_path):
        """Seeded feeds + removals ≡ fresh rebuild + fresh fit, 25 tasks.

        ``use_label_suggestions=False`` keeps the train split uniform
        within a domain (pages 0-1 train, 2-3 test), so the mutated
        urls are unlabeled for *every* task of the domain and the
        fresh-fit comparison uses the original labels unchanged.
        """
        from repro.dataset.corpus import load_task_dataset
        from repro.dataset.tasks import TASKS

        datasets = {
            task.task_id: load_task_dataset(
                task, n_pages=4, n_train=2, seed=0,
                use_label_suggestions=False,
            )
            for task in TASKS
        }
        # Final unlabeled page set per domain, mutated in place below.
        domain_pages = {}
        domain_html = {}
        for task in TASKS:
            dataset = datasets[task.task_id]
            if task.domain not in domain_pages:
                from repro.webtree.html_out import page_to_html

                domain_pages[task.domain] = list(dataset.test_pages)
                domain_html[task.domain] = {
                    page.url: page_to_html(page)
                    for page in dataset.test_pages
                }

        store_path = str(tmp_path / "live.rpw")
        with CorpusStoreWriter(store_path) as writer:
            from repro.serving.ingest import ingest_page

            for domain, html_by_url in domain_html.items():
                for url, html in html_by_url.items():
                    ingest_page(html, url, store_writer=writer)

        live_service = QAService(jobs=2, max_batch=8, store=store_path)
        live = LiveCorpus(live_service)
        for task in TASKS:
            dataset = datasets[task.task_id]
            session = SynthesisSession(
                task.question, tuple(task.keywords), dataset.models,
                config=default_config(), examples=list(dataset.train),
            )
            tool = WebQA(
                config=session.config, ensemble_size=20, seed=0
            ).fit_session(session, list(dataset.test_pages))
            live_service.register(
                task.task_id, tool,
                version=tool.export_artifact().fingerprint(),
            )
            live.track(
                task.task_id, session,
                unlabeled=list(dataset.test_pages),
                ensemble_size=20, seed=0,
            )

        # -- the seeded mutation sequence: one content update per
        # domain, plus one removal in the faculty domain.
        from repro.serving.ingest import ingest_html

        for index, domain in enumerate(sorted(domain_pages)):
            pages = domain_pages[domain]
            updated = generate_page(domain, seed=5000 + index)
            victim_url = pages[0].url
            report = live.feed(updated.html, victim_url)
            assert not report.unchanged
            domain_html[domain][victim_url] = updated.html
            new_page = ingest_html(updated.html, url=victim_url)
            domain_pages[domain] = [
                new_page if page.url == victim_url else page
                for page in pages
            ]
        removed_url = domain_pages["faculty"][1].url
        report = live.remove(removed_url)
        assert not report.unchanged
        del domain_html["faculty"][removed_url]
        domain_pages["faculty"] = [
            page for page in domain_pages["faculty"]
            if page.url != removed_url
        ]

        requests = [
            ServingRequest(route=task.task_id,
                           html=domain_html[task.domain][page.url],
                           url=page.url)
            for task in TASKS
            for page in domain_pages[task.domain]
        ]
        live_answers = live_service.ask_many(requests)
        live_generation = live_service.store.generation
        live_service.close()
        assert live_generation >= 5  # 4 feeds + 1 removal published

        # -- fresh rebuild: new store over the final documents, fresh
        # fits over the final unlabeled sets, same requests.
        fresh_path = str(tmp_path / "fresh.rpw")
        with CorpusStoreWriter(fresh_path) as writer:
            from repro.serving.ingest import ingest_page

            for domain, html_by_url in domain_html.items():
                for url, html in html_by_url.items():
                    ingest_page(html, url, store_writer=writer)
        with QAService(jobs=2, max_batch=8, store=fresh_path) as fresh:
            for task in TASKS:
                dataset = datasets[task.task_id]
                tool = WebQA(ensemble_size=20, seed=0).fit(
                    task.question, task.keywords, list(dataset.train),
                    list(domain_pages[task.domain]), dataset.models,
                )
                fresh.register(task.task_id, tool)
            fresh_answers = fresh.ask_many(requests)

        assert live_answers == fresh_answers


# -- indexed corpus: one generation for pages and postings ---------------------

#: One route per domain, fitted lean: these tests pin serving-path
#: equality under churn, not extraction quality.
ROUTES = ("fac_t1", "class_t1", "clinic_t1", "conf_t1")
TOP_K = 8


def _same_answer(a, b):
    left, right = a.as_dict(), b.as_dict()
    left.pop("routed")
    right.pop("routed")
    return left == right


@pytest.fixture(scope="module")
def routing_tools():
    from repro.dataset.corpus import load_task_dataset

    tools = {}
    for route in ROUTES:
        task = TASKS_BY_ID[route]
        dataset = load_task_dataset(
            task, n_pages=4, n_train=2, seed=0, use_label_suggestions=False
        )
        tools[route] = WebQA(ensemble_size=12).fit(
            task.question, task.keywords, list(dataset.train),
            list(dataset.test_pages), dataset.models,
        )
    return tools


class _IndexedCorpus:
    """An indexed store over 4 domains × 6 pages, and its documents."""

    def __init__(self, tmp_path, name="live.rpw"):
        from repro.dataset.corpus import DOMAINS

        self.directory = tmp_path
        self.path = str(tmp_path / name)
        #: url -> (domain, html): the live document set.
        self.docs = {}
        for domain in DOMAINS:
            for seed in range(6):
                generated = generate_page(domain, seed)
                self.docs[generated.page.url] = (domain, generated.html)
        self._build(self.path)

    def _build(self, path):
        from repro.retrieval.index import build_corpus_index
        from repro.serving.corpus import build_corpus_store

        build_corpus_store(
            ((html, url) for url, (_domain, html) in sorted(self.docs.items())),
            path,
        )
        build_corpus_index(path)

    def changed_page(self, url, seed):
        """A regenerated page for ``url``'s domain, recorded as live."""
        domain = self.docs[url][0]
        html = generate_page(domain, 9000 + seed).html
        self.docs[url] = (domain, html)
        return html

    def fresh_answers(self, tools):
        """Routed answers of a store and index rebuilt from scratch."""
        path = str(self.directory / "fresh.rpw")
        self._build(path)
        with QAService(jobs=1, store=path) as fresh:
            for route in ROUTES:
                fresh.register(route, tools[route])
            return {
                route: fresh.ask_corpus(route, top_k=TOP_K) for route in ROUTES
            }


def _assert_routes_agree(front, corpus, tools):
    """Compact, then routed ≡ exhaustive ≡ fresh rebuild on every route."""
    fresh = corpus.fresh_answers(tools)
    for route in ROUTES:
        routed = front.ask_corpus(route, top_k=TOP_K)
        exhaustive = front.ask_corpus(route, top_k=TOP_K, exhaustive=True)
        assert routed.routed and not exhaustive.routed
        assert _same_answer(routed, exhaustive), route
        assert _same_answer(routed, fresh[route]), route


class TestIndexedLiveCorpus:
    def test_reload_between_scoring_and_loading(self, tmp_path,
                                                routing_tools, monkeypatch):
        # A feed that replaces a candidate page lands between the score
        # and the page loads of one ask.  The ask must still answer from
        # the generation it scored: same candidates, same pages, same
        # urls — not a KeyError on the superseded fingerprint.
        from repro.retrieval.index import CorpusIndexReader

        corpus = _IndexedCorpus(tmp_path)
        with QAService(jobs=1, store=corpus.path) as service:
            service.register("fac_t1", routing_tools["fac_t1"])
            live = LiveCorpus(service)
            before = service.ask_corpus("fac_t1", top_k=TOP_K)
            assert before.ok
            score = CorpusIndexReader.score
            reports = []

            def score_then_feed(self, *args, **kwargs):
                scored = score(self, *args, **kwargs)
                if not reports:
                    html = corpus.changed_page(before.url, seed=0)
                    reports.append(live.feed(html, before.url))
                return scored

            monkeypatch.setattr(CorpusIndexReader, "score", score_then_feed)
            during = service.ask_corpus("fac_t1", top_k=TOP_K)
            monkeypatch.setattr(CorpusIndexReader, "score", score)
            (report,) = reports
            assert report.previous_fingerprint == before.fingerprint
            assert during == before
            after = service.ask_corpus("fac_t1", top_k=TOP_K)
            assert before.fingerprint not in dict(after.candidates)

    @pytest.mark.parametrize("front", ["service", "gateway"])
    def test_concurrent_feeder_never_fails_an_ask(self, tmp_path,
                                                  routing_tools, front):
        # One feeder thread publishes >= 30 generations while two asking
        # threads route questions against the same store: no ask may
        # fail, and afterwards every route agrees with the exhaustive
        # scan and with a fresh rebuild.
        import random
        import sys
        import threading

        from repro.serving.gateway import ServingGateway

        feeds = 32
        corpus = _IndexedCorpus(tmp_path)
        target = (
            QAService(jobs=1, store=corpus.path) if front == "service"
            else ServingGateway(shards=2, store=corpus.path)
        )
        try:
            for route in ROUTES:
                target.register(route, routing_tools[route])
            service = target if front == "service" else target.service
            live = LiveCorpus(service)
            urls = sorted(corpus.docs)
            rng = random.Random("concurrent-feeder")
            feeding = threading.Event()
            feeding.set()
            failures, asks = [], []

            def feeder():
                try:
                    for index in range(feeds):
                        url = urls[rng.randrange(len(urls))]
                        live.feed(corpus.changed_page(url, index), url)
                except Exception as exc:  # noqa: BLE001 — reported below
                    failures.append(("feed", exc))
                finally:
                    feeding.clear()

            def asker(offset):
                turn = offset
                while feeding.is_set():
                    route = ROUTES[turn % len(ROUTES)]
                    turn += 1
                    try:
                        answer = target.ask_corpus(route, top_k=TOP_K)
                    except Exception as exc:  # noqa: BLE001
                        failures.append((route, exc))
                    else:
                        asks.append(answer.ok)

            threads = [threading.Thread(target=feeder)] + [
                threading.Thread(target=asker, args=(k,)) for k in range(2)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the threads finely
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert len(asks) >= 2
            assert service.store.generation == 1 + feeds
            live.compact()
            _assert_routes_agree(target, corpus, routing_tools)
        finally:
            target.close()

    def test_idf_rule(self, tmp_path, routing_tools):
        # Between compactions segments score with the base IDF and the
        # exhaustive scan borrows it: routed ≡ exhaustive bit for bit.
        # Compaction refits the IDF: routed ≡ a fresh rebuild.
        from repro.nlp.vocab import IdfModel
        from repro.retrieval.index import page_text

        corpus = _IndexedCorpus(tmp_path)
        with QAService(jobs=1, store=corpus.path) as service:
            for route in ROUTES:
                service.register(route, routing_tools[route])
            live = LiveCorpus(service)
            base_idf = service.index.idf().to_dict()
            for index, url in enumerate(sorted(corpus.docs)[::3]):
                live.feed(corpus.changed_page(url, 100 + index), url)
            assert service.store.stat()["segments"] == 8
            assert service.index.idf().to_dict() == base_idf
            store = service.store
            live_fit = IdfModel.fit(
                page_text(store.load(fp)[0])
                for fp in sorted(store.fingerprints())
            )
            assert live_fit.to_dict() != base_idf  # the drift is real
            for route in ROUTES:
                assert _same_answer(
                    service.ask_corpus(route, top_k=TOP_K),
                    service.ask_corpus(route, top_k=TOP_K, exhaustive=True),
                )
            live.compact()
            assert service.store.stat()["segments"] == 0
            assert service.index.idf().to_dict() == live_fit.to_dict()
            _assert_routes_agree(service, corpus, routing_tools)
