"""Routed ≡ exhaustive: the corpus-answering differential suite.

The index is only allowed to be *fast*, never *different*: for every
question, `ask_corpus` through the memmap index must return the exact
:class:`~repro.retrieval.router.CorpusAnswer` — answer tuple, consensus
page, url, score, support and full candidate ranking — that the
O(corpus) exhaustive scan returns.  This suite holds that equality over
all 25 dataset tasks on a mixed-domain store, over hypothesis-driven
``top_k`` choices, and at the raw scoring layer over hypothesis-built
sparse queries; plus the gateway entry point against the
single-service one, and candidates taken from a warm page cache
against a cold one and against the scan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.webqa import WebQA
from repro.dataset.corpus import load_task_dataset
from repro.dataset.tasks import TASKS, TASKS_BY_ID
from repro.nlp.tokenize import words
from repro.retrieval.index import (
    entity_key,
    open_corpus_index,
    page_text,
)
from repro.retrieval.index import build_corpus_index
from repro.retrieval.router import cut_top_k, query_terms, scan_scores
from repro.serving.corpus import build_dataset_store
from repro.serving.gateway import ServingGateway
from repro.serving.service import QAService
from repro.webtree.store import open_store

#: Deliberately lean fit knobs: the differential pins serving-path
#: equality, not extraction quality, so small ensembles keep 25 fits CI-
#: cheap while still producing heterogeneous programs per route.
FIT = dict(n_pages=4, n_train=2, seed=0, use_label_suggestions=False)


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    """One 24-page mixed-domain indexed store with all 25 tasks fitted."""
    path = str(tmp_path_factory.mktemp("router") / "corpus.rpw")
    build_dataset_store(path, pages_per_domain=6)
    build_corpus_index(path)
    service = QAService(jobs=1, store=path)
    for task in TASKS:
        dataset = load_task_dataset(task, **FIT)
        tool = WebQA(ensemble_size=12).fit(
            task.question,
            task.keywords,
            list(dataset.train),
            list(dataset.test_pages),
            dataset.models,
        )
        service.register(task.task_id, tool)
    yield service, path
    service.close()


def _strip_routed(answer):
    payload = answer.as_dict()
    routed = payload.pop("routed")
    return payload, routed


@pytest.mark.parametrize("task_id", sorted(TASKS_BY_ID))
def test_routed_equals_exhaustive_on_every_task(rig, task_id):
    service, _ = rig
    routed, was_routed = _strip_routed(service.ask_corpus(task_id, top_k=8))
    scanned, was_scanned = _strip_routed(
        service.ask_corpus(task_id, top_k=8, exhaustive=True)
    )
    assert was_routed is True and was_scanned is False
    assert routed == scanned
    assert routed["answer"] or routed["candidates"]


@given(top_k=st.integers(min_value=0, max_value=30))
@settings(max_examples=8, deadline=None)
def test_any_top_k_is_equal(rig, top_k):
    service, _ = rig
    routed, _ = _strip_routed(service.ask_corpus("fac_t1", top_k=top_k))
    scanned, _ = _strip_routed(
        service.ask_corpus("fac_t1", top_k=top_k, exhaustive=True)
    )
    assert routed == scanned
    assert len(routed["candidates"]) <= max(top_k, 0)


def test_explicit_question_routes_identically(rig):
    service, _ = rig
    question = "Which professor teaches the databases class?"
    routed, _ = _strip_routed(
        service.ask_corpus("class_t2", question, top_k=6)
    )
    scanned, _ = _strip_routed(
        service.ask_corpus("class_t2", question, top_k=6, exhaustive=True)
    )
    assert routed == scanned
    assert routed["question"] == question


def _term_pool(store_path):
    """Real corpus tokens + entity keys + guaranteed-unseen terms."""
    store = open_store(store_path)
    pool = set()
    for fingerprint in sorted(store.fingerprints())[:6]:
        page, _ = store.load(fingerprint)
        tokens = words(page_text(page))
        pool.update(tokens[:40])
        if tokens:
            pool.add(entity_key("person", " ".join(tokens[:2])))
    pool.update({"zzzunseen", "qqqnotacorpusword"})
    return sorted(pool)


@pytest.fixture(scope="module")
def scoring_rig(rig):
    _service, path = rig
    reader = open_corpus_index(path)
    return open_store(path), reader, _term_pool(path)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_scoring_layer_differential(scoring_rig, data):
    """Raw scores over arbitrary sparse queries: index == scan, bit-exact."""
    store, reader, pool = scoring_rig
    terms = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True)
    )
    weight = data.draw(
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False)
    )
    query = {term: weight for term in terms}
    scanned = scan_scores(store, reader.idf(), query)
    assert reader.score(query) == scanned
    top_k = data.draw(st.integers(min_value=0, max_value=12))
    assert cut_top_k(reader.score(query), top_k) == cut_top_k(scanned, top_k)


def test_gateway_matches_single_service(rig, tmp_path):
    """The gateway entry point returns the service's exact CorpusAnswer."""
    service, path = rig
    with ServingGateway(shards=2, store=path) as gateway:
        for task_id in ("fac_t1", "clinic_t5"):
            gateway.register(task_id, service.tool(task_id))
            via_gateway, was_routed = _strip_routed(
                gateway.ask_corpus(task_id, top_k=8)
            )
            direct, _ = _strip_routed(service.ask_corpus(task_id, top_k=8))
            assert was_routed is True
            assert via_gateway == direct
            via_scan, _ = _strip_routed(
                gateway.ask_corpus(task_id, top_k=8, exhaustive=True)
            )
            assert via_scan == direct


# -- warm ≡ cold: candidates from the page cache ------------------------------


def _front(kind, path, page_cache_size):
    if kind == "service":
        return QAService(jobs=1, store=path, page_cache_size=page_cache_size)
    return ServingGateway(shards=2, store=path, page_cache_size=page_cache_size)


def _service(front):
    return front.service if isinstance(front, ServingGateway) else front


def _cache_hits(front):
    return _service(front).cache.stats.snapshot()["cache_hits"]


def _cached(front, fingerprint):
    return _service(front).cache.get(fingerprint) is not None


@pytest.mark.parametrize("kind", ["service", "gateway"])
def test_warm_equals_cold_on_every_route(rig, kind):
    """Cache off, cold cache, warm cache and the scan: one CorpusAnswer."""
    service, path = rig
    with _front(kind, path, 0) as cold, _front(kind, path, 256) as warm:
        for task_id in sorted(TASKS_BY_ID):
            cold.register(task_id, service.tool(task_id))
            warm.register(task_id, service.tool(task_id))
        for task_id in sorted(TASKS_BY_ID):
            uncached, _ = _strip_routed(cold.ask_corpus(task_id, top_k=8))
            first, _ = _strip_routed(warm.ask_corpus(task_id, top_k=8))
            hits = _cache_hits(warm)
            second, _ = _strip_routed(warm.ask_corpus(task_id, top_k=8))
            assert _cache_hits(warm) - hits == len(second["candidates"])
            scanned, _ = _strip_routed(
                warm.ask_corpus(task_id, top_k=8, exhaustive=True)
            )
            assert uncached == first == second == scanned, task_id
        assert len(_service(cold).cache) == 0


@pytest.mark.parametrize("kind", ["service", "gateway"])
def test_warm_candidates_count_as_ingested(rig, kind):
    """Each candidate counts as one ingested page, cached or rehydrated."""
    service, path = rig

    def counts(front):
        return _service(front).cache.stats.snapshot()

    with _front(kind, path, 256) as front:
        front.register("fac_t1", service.tool("fac_t1"))
        cold = front.ask_corpus("fac_t1", top_k=8)
        assert counts(front)["pages_ingested"] == len(cold.candidates)
        for _ in range(2):
            before = counts(front)
            warm = front.ask_corpus("fac_t1", top_k=8)
            after = counts(front)
            candidates = len(warm.candidates)
            assert candidates > 0
            assert after["pages_ingested"] - before["pages_ingested"] == candidates
            assert after["cache_hits"] - before["cache_hits"] == candidates
            assert after["store_hits"] == before["store_hits"]


@pytest.mark.parametrize("kind", ["service", "gateway"])
def test_feed_replaces_a_cached_candidate(rig, kind, tmp_path):
    """A fed page evicts its cached predecessor; the next ask sees it."""
    from repro.dataset.corpus import DOMAINS, generate_page
    from repro.serving.corpus import build_corpus_store, dataset_documents
    from repro.serving.live import LiveCorpus

    service, _ = rig
    routes = ("fac_t1", "class_t1", "clinic_t1", "conf_t1")
    docs = {url: html for html, url in dataset_documents(DOMAINS, 6)}

    def build(path):
        build_corpus_store(
            ((html, url) for url, html in sorted(docs.items())), path
        )
        build_corpus_index(path)

    build(str(tmp_path / "live.rpw"))
    with _front(kind, str(tmp_path / "live.rpw"), 256) as front:
        for route in routes:
            front.register(route, service.tool(route))
        live = LiveCorpus(_service(front))
        before = front.ask_corpus("fac_t1", top_k=8)
        assert before.ok and _cached(front, before.fingerprint)
        docs[before.url] = generate_page("faculty", 9000).html
        live.feed(docs[before.url], before.url)
        assert not _cached(front, before.fingerprint)
        for route in routes:
            routed, _ = _strip_routed(front.ask_corpus(route, top_k=8))
            scanned, _ = _strip_routed(
                front.ask_corpus(route, top_k=8, exhaustive=True)
            )
            assert routed == scanned, route
            assert before.fingerprint not in dict(routed["candidates"])
        assert not _cached(front, before.fingerprint)
        live.compact()
        build(str(tmp_path / "fresh.rpw"))
        with QAService(jobs=1, store=str(tmp_path / "fresh.rpw")) as fresh:
            for route in routes:
                fresh.register(route, service.tool(route))
                warm, _ = _strip_routed(front.ask_corpus(route, top_k=8))
                rebuilt, _ = _strip_routed(fresh.ask_corpus(route, top_k=8))
                assert warm == rebuilt, route


def test_candidates_carry_store_provenance(rig, tmp_path):
    """Fingerprint, cache hit and a capped page's degraded flag reach results."""
    import itertools

    from repro.dataset.corpus import generate_page
    from repro.html.parser import parse_html
    from repro.serving.corpus import build_corpus_store
    from repro.serving.ingest import ServingLimits

    def dom_nodes(html):
        return next(
            limit for limit in itertools.count(1)
            if not parse_html(html, None, limit).truncated
        )

    service, _ = rig
    pages = [generate_page("faculty", seed) for seed in range(5)]
    sizes = sorted(dom_nodes(page.html) for page in pages)
    assert sizes[-1] > sizes[-2]
    path = str(tmp_path / "capped.rpw")
    build_corpus_store(
        [(page.html, page.page.url) for page in pages],
        path,
        limits=ServingLimits(max_nodes=sizes[-2]),
    )
    build_corpus_index(path)
    store = open_store(path)
    degraded = {
        fingerprint
        for fingerprint in store.fingerprints()
        if store.entry(fingerprint)["degraded"]
    }
    assert len(degraded) == 1
    with QAService(jobs=1, store=path) as target:
        target.register("fac_t1", service.tool("fac_t1"))
        seen = []
        ask_many = target.ask_many

        def spy(requests, **kwargs):
            results = ask_many(requests, **kwargs)
            seen.append(results)
            return results

        target.ask_many = spy
        for cache_hit in (False, True):
            flagged = target.stats.snapshot()["degraded"]
            answer = target.ask_corpus("fac_t1", top_k=None)
            results = seen.pop()
            assert [r.fingerprint for r in results] == [
                fingerprint for fingerprint, _ in answer.candidates
            ]
            assert degraded <= {r.fingerprint for r in results}
            for result in results:
                assert result.ok
                assert result.cache_hit is cache_hit
                assert result.degraded == (result.fingerprint in degraded)
            assert target.stats.snapshot()["degraded"] - flagged == 1
