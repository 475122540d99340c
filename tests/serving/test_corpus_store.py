"""Store-backed serving ≡ in-memory serving, plus the ingest wiring.

The headline pin: a :class:`QAService` answering from a disk-backed
corpus store produces *bit-identical* answers to one parsing raw HTML,
across every one of the 25 dataset tasks — and does so without invoking
the parser at all (``parse_call_count`` delta 0 over the serve).
"""

from repro.html.parser import parse_call_count
from repro.serving.corpus import (
    CorpusStore,
    build_corpus_store,
    build_dataset_store,
    corpus_stat,
    dataset_documents,
)
from repro.serving.ingest import (
    PageCache,
    ingest_counters,
    ingest_page,
    page_fingerprint,
)
from repro.webtree.store import CorpusStoreReader, CorpusStoreWriter

HTML_A = "<h1>Jane</h1><h2>Students</h2><ul><li>Bob</li></ul>"
HTML_B = "<h1>John</h1><p>Hello</p>"


class TestBuildStore:
    def test_build_report_and_stat(self, tmp_path):
        path = str(tmp_path / "corpus.rpw")
        report = build_corpus_store(
            [(HTML_A, "a"), (HTML_B, "b"), (HTML_A, "a")], path
        )
        assert report["documents"] == 3
        assert report["pages"] == 2  # byte-identical doc deduped
        assert report["deduped"] == 1
        assert report["degraded_pages"] == 0
        assert corpus_stat(path)["pages"] == 2

    def test_dataset_store_covers_requested_domains(self, tmp_path):
        path = str(tmp_path / "dataset.rpw")
        report = build_dataset_store(
            path, domains=("faculty", "clinic"), pages_per_domain=3
        )
        assert report["pages"] == 6
        documents = list(dataset_documents(("faculty", "clinic"), 3))
        reader = CorpusStore(path)
        for html, url in documents:
            assert page_fingerprint(html, url) in reader


class TestIngestStoreIntegration:
    def _store(self, tmp_path):
        path = str(tmp_path / "corpus.rpw")
        build_corpus_store([(HTML_A, "a")], path)
        return CorpusStoreReader(path)

    def test_store_hit_skips_parse_and_counts(self, tmp_path):
        store = self._store(tmp_path)
        stats = ingest_counters()
        parses_before = parse_call_count()
        outcome = ingest_page(HTML_A, "a", stats=stats, store=store)
        assert outcome.store_hit
        assert not outcome.cache_hit
        assert parse_call_count() == parses_before
        assert stats.snapshot()["store_hits"] == 1
        assert "Jane" in outcome.page.root.subtree_text()

    def test_store_hit_promotes_into_cache(self, tmp_path):
        store = self._store(tmp_path)
        cache = PageCache(capacity=4)
        first = ingest_page(HTML_A, "a", cache=cache, store=store)
        second = ingest_page(HTML_A, "a", cache=cache, store=store)
        assert first.store_hit and not second.store_hit
        assert second.cache_hit
        assert second.page is first.page

    def test_store_miss_parses(self, tmp_path):
        store = self._store(tmp_path)
        stats = ingest_counters()
        outcome = ingest_page(HTML_B, "b", stats=stats, store=store)
        assert not outcome.store_hit
        assert stats.snapshot()["store_hits"] == 0

    def test_parse_fallback_counted_in_stats(self):
        stats = ingest_counters()
        # `<a x=>` sits outside the fast-scanner subset: the parse
        # succeeds via the stdlib fallback and the ingest stats say so.
        ingest_page("<a x=>y</a>", "f", stats=stats)
        ingest_page(HTML_B, "g", stats=stats)
        assert stats.snapshot()["parse_fallbacks"] == 1

    def test_writer_populated_through_ingest(self, tmp_path):
        path = str(tmp_path / "built.rpw")
        with CorpusStoreWriter(path) as writer:
            ingest_page(HTML_A, "a", store_writer=writer)
            ingest_page(HTML_A, "a", store_writer=writer)  # dedupes
            ingest_page(HTML_B, "b", store_writer=writer)
        reader = CorpusStoreReader(path)
        assert len(reader) == 2
        page, degraded = reader.load(page_fingerprint(HTML_A, "a"))
        assert not degraded
        assert "Bob" in page.root.subtree_text()

    def test_degraded_flag_round_trips_through_store(self, tmp_path):
        from repro.serving.ingest import ServingLimits

        path = str(tmp_path / "capped.rpw")
        limits = ServingLimits(max_nodes=2)
        build_corpus_store([(HTML_A, "a")], path, limits=limits)
        store = CorpusStoreReader(path)
        assert store.stat()["degraded_pages"] == 1
        outcome = ingest_page(HTML_A, "a", store=store, limits=limits)
        assert outcome.store_hit
        assert outcome.degraded


class TestStoreBackedServiceDifferential:
    def test_all_25_tasks_bit_identical_without_parsing(self, tmp_path):
        """Store-backed ask_many ≡ parse-path ask_many on every task."""
        from repro.core.webqa import WebQA
        from repro.dataset.corpus import load_task_dataset
        from repro.dataset.tasks import TASKS
        from repro.serving.service import QAService
        from repro.webtree.html_out import page_to_html

        documents = []
        requests = []
        artifacts = {}
        for task in TASKS:
            dataset = load_task_dataset(task, n_pages=4, n_train=2, seed=0)
            tool = WebQA(ensemble_size=20).fit(
                task.question,
                task.keywords,
                list(dataset.train),
                list(dataset.test_pages),
                dataset.models,
            )
            artifact_path = tmp_path / f"{task.task_id}.artifact.json"
            tool.export_artifact(str(artifact_path))
            artifacts[task.task_id] = str(artifact_path)
            for page in dataset.test_pages:
                html = page_to_html(page)
                documents.append((html, page.url))
                requests.append((task.task_id, html, page.url))
        store_path = str(tmp_path / "corpus.rpw")
        report = build_corpus_store(documents, store_path)
        assert report["pages"] > 0

        def serve(store):
            with QAService(jobs=2, max_batch=8, store=store) as service:
                for task_id, artifact in artifacts.items():
                    service.register(task_id, artifact)
                answers = service.ask_many(requests)
                return answers, service.cache.stats.snapshot()

        parsed_answers, parsed_stats = serve(store=None)
        parses_before = parse_call_count()
        stored_answers, stored_stats = serve(store=store_path)
        assert stored_answers == parsed_answers
        assert parse_call_count() == parses_before  # zero parses
        # Same-domain tasks share test pages, so repeats hit the memory
        # cache; the store invariant is that every *miss* resolved from
        # disk (misses + hits cover all requests, no parse leftovers).
        assert stored_stats["store_hits"] == stored_stats["cache_misses"] > 0
        assert (
            stored_stats["cache_hits"] + stored_stats["cache_misses"]
            == len(requests)
        )
        assert parsed_stats["store_hits"] == 0
