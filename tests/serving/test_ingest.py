"""Ingestion pipeline: HTML → indexed page, through the bounded cache."""

from repro.serving.ingest import (
    PageCache,
    ingest_counters,
    ingest_html,
    ingest_summary,
    page_fingerprint,
)

HTML_A = "<h1>Jane</h1><h2>Students</h2><ul><li>Bob</li></ul>"
HTML_B = "<h1>John</h1><p>Hello</p>"


class TestFingerprint:
    def test_content_and_url_sensitive(self):
        assert page_fingerprint(HTML_A) == page_fingerprint(HTML_A)
        assert page_fingerprint(HTML_A) != page_fingerprint(HTML_B)
        assert page_fingerprint(HTML_A, "u1") != page_fingerprint(HTML_A, "u2")

    def test_length_prefix_prevents_boundary_forgery(self):
        # url+html concatenations that read the same must not collide.
        assert page_fingerprint("bhtml", "urla") != page_fingerprint(
            "html", "urlab"
        )


class TestIngest:
    def test_parses_and_prebuilds_index(self):
        page = ingest_html(HTML_A, url="https://x/a")
        assert page.url == "https://x/a"
        assert page._index is not None  # index built in the ingest stage
        assert "Jane" in page.root.subtree_text()

    def test_repeat_page_is_cache_hit_same_object(self):
        cache = PageCache(capacity=4)
        first = ingest_html(HTML_A, url="u", cache=cache)
        second = ingest_html(HTML_A, url="u", cache=cache)
        assert second is first
        assert cache.stats.snapshot()["cache_hits"] == 1
        assert cache.stats.snapshot()["cache_misses"] == 1
        assert cache.stats.snapshot()["pages_ingested"] == 2

    def test_lru_eviction_order_and_bound(self):
        cache = PageCache(capacity=2)
        ingest_html(HTML_A, url="a", cache=cache)
        ingest_html(HTML_B, url="b", cache=cache)
        ingest_html(HTML_A, url="a", cache=cache)  # refresh A's recency
        ingest_html("<h1>C</h1>", url="c", cache=cache)  # evicts B, not A
        assert len(cache) == 2
        assert cache.stats.snapshot()["evictions"] == 1
        assert cache.get(page_fingerprint(HTML_A, "a")) is not None
        assert cache.get(page_fingerprint(HTML_B, "b")) is None

    def test_zero_capacity_disables_caching(self):
        cache = PageCache(capacity=0)
        first = ingest_html(HTML_A, url="u", cache=cache)
        second = ingest_html(HTML_A, url="u", cache=cache)
        assert first is not second
        assert len(cache) == 0


class TestInvalidation:
    def test_invalidate_drops_entry_and_counts(self):
        cache = PageCache(capacity=4)
        page = ingest_html(HTML_A, url="u", cache=cache)
        fingerprint = page_fingerprint(HTML_A, "u")
        assert page._index is not None
        assert cache.invalidate(fingerprint) is True
        assert cache.get(fingerprint) is None
        assert len(cache) == 0
        assert cache.stats.snapshot()["invalidations"] == 1
        # The cascade: dropping the cache slot also drops the page's
        # index (TextPlane + memos) so nothing stale can be shared.
        assert page._index is None
        # A later ingest of the same bytes rebuilds from scratch.
        rebuilt = ingest_html(HTML_A, url="u", cache=cache)
        assert rebuilt is not page
        assert cache.stats.snapshot()["pages_ingested"] == 2

    def test_invalidate_unknown_fingerprint_is_noop(self):
        cache = PageCache(capacity=4)
        assert cache.invalidate("absent") is False
        assert cache.stats.snapshot()["invalidations"] == 0

    def test_invalidate_degraded_entry(self):
        from repro.serving.ingest import ServingLimits, ingest_page

        cache = PageCache(capacity=4)
        limits = ServingLimits(max_html_chars=20)
        outcome = ingest_page(HTML_A, "u", cache=cache, limits=limits)
        assert outcome.degraded
        fingerprint = page_fingerprint(HTML_A, "u")
        assert cache.invalidate(fingerprint) is True
        assert cache.stats.snapshot()["invalidations"] == 1
        # The degraded flag dies with the slot: re-ingest under clean
        # limits serves an undegraded page, not a stale degraded one.
        outcome = ingest_page(HTML_A, "u", cache=cache)
        assert not outcome.degraded
        assert not outcome.cache_hit

    def test_invalidations_surface_in_as_dict(self):
        cache = PageCache(capacity=4)
        ingest_html(HTML_A, url="u", cache=cache)
        cache.invalidate(page_fingerprint(HTML_A, "u"))
        stats = ingest_summary(cache.stats.snapshot())
        assert stats["invalidations"] == 1

    def test_invalidate_and_evict_count_separately(self):
        cache = PageCache(capacity=1)
        ingest_html(HTML_A, url="a", cache=cache)
        ingest_html(HTML_B, url="b", cache=cache)  # evicts A
        cache.invalidate(page_fingerprint(HTML_B, "b"))
        assert cache.stats.snapshot()["evictions"] == 1
        assert cache.stats.snapshot()["invalidations"] == 1

    def test_concurrent_ingest_is_safe_and_counts_exactly(self):
        # Hammer one shared cache from many threads: no lost updates on
        # the counters and no OrderedDict corruption under eviction.
        import threading

        cache = PageCache(capacity=3)
        htmls = [(f"<h1>p{i}</h1>", f"u{i}") for i in range(6)]
        per_thread, n_threads = 30, 8

        def worker():
            for i in range(per_thread):
                html, url = htmls[i % len(htmls)]
                page = ingest_html(html, url=url, cache=cache)
                assert page.url == url

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats.snapshot()
        assert stats["pages_ingested"] == per_thread * n_threads
        assert stats["cache_hits"] + stats["cache_misses"] == per_thread * n_threads
        assert len(cache) <= 3

    def test_stage_timings_accumulate(self):
        stats = ingest_counters()
        ingest_html(HTML_A, stats=stats)
        summary = ingest_summary(stats.snapshot())
        assert summary["parse_seconds"] > 0
        assert summary["index_seconds"] > 0
        assert summary["pages_ingested"] == 1
        assert 0.0 <= summary["hit_rate"] <= 1.0
        assert set(summary) >= {"pages_ingested", "hit_rate"}


class TestServingLimits:
    def test_defaults_change_nothing_for_normal_pages(self):
        from repro.serving.ingest import DEFAULT_LIMITS, ingest_page

        plain = ingest_page(HTML_A)
        limited = ingest_page(HTML_A, limits=DEFAULT_LIMITS)
        assert not plain.degraded and not limited.degraded
        assert (
            plain.page.root.subtree_text() == limited.page.root.subtree_text()
        )

    def test_char_cap_truncates_and_flags(self):
        from repro.serving.ingest import ServingLimits, ingest_page

        html = "<h1>T</h1>" + "<p>x</p>" * 1000
        outcome = ingest_page(html, limits=ServingLimits(max_html_chars=100))
        assert outcome.degraded
        assert outcome.page.size() < 1000

    def test_node_cap_bounds_flat_lists(self):
        from repro.serving.ingest import ServingLimits, ingest_page

        html = "<h1>T</h1><ul>" + "<li>i</li>" * 5000 + "</ul>"
        outcome = ingest_page(
            html, limits=ServingLimits(max_html_chars=None, max_nodes=200)
        )
        assert outcome.degraded
        assert outcome.page.size() <= 201

    def test_depth_cap_bounds_nesting(self):
        from repro.serving.ingest import ServingLimits, ingest_page

        html = "<div>" * 5000 + "<p>deep</p>" + "</div>" * 5000
        outcome = ingest_page(
            html,
            limits=ServingLimits(max_html_chars=None, max_depth=50, max_nodes=None),
        )
        assert outcome.degraded  # the guard fired ...
        # ... and the bounded tree still walks without RecursionError.
        outcome.page.root.subtree_text()

    def test_fingerprint_taken_over_original_input(self):
        from repro.serving.ingest import PageCache, ServingLimits, ingest_page

        limits = ServingLimits(max_html_chars=50)
        cache = PageCache(capacity=4)
        long_html = "<h1>T</h1>" + "<p>pad</p>" * 100
        first = ingest_page(long_html, cache=cache, limits=limits)
        second = ingest_page(long_html, cache=cache, limits=limits)
        assert first.fingerprint == page_fingerprint(long_html)
        assert second.cache_hit and second.degraded
        assert second.page is first.page


class TestLockingDiscipline:
    """Every ingest counter mutation goes through ``Counters.add``."""

    def test_counters_only_mutated_under_stats_lock(self):
        # The discipline is structural: grep-level assertion that the
        # cache never touches stats fields directly (an earlier bug
        # mutated cache_hits/misses/evictions under the *cache* lock).
        import inspect

        from repro.serving import ingest as ingest_module

        source = inspect.getsource(ingest_module.PageCache)
        for direct_mutation in (
            ".cache_hits +=", ".cache_misses +=", ".evictions +=",
            ".cache_hits=", ".cache_misses=",
        ):
            assert direct_mutation not in source
        assert "self.stats.add(" in source

    def test_concurrent_mixed_hits_misses_evictions_count_exactly(self):
        import threading

        cache = PageCache(capacity=2)
        htmls = [(f"<h1>q{i}</h1>", f"v{i}") for i in range(4)]
        per_thread, n_threads = 25, 6

        def worker(offset):
            for i in range(per_thread):
                html, url = htmls[(i + offset) % len(htmls)]
                ingest_html(html, url=url, cache=cache)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats.snapshot()
        total = per_thread * n_threads
        assert stats["pages_ingested"] == total
        assert stats["cache_hits"] + stats["cache_misses"] == total
        # Evictions happened (4 pages through a 2-slot cache) and were
        # recorded without tearing.
        assert stats["evictions"] > 0
        assert len(cache) <= 2
