"""The serving ingestion pipeline: raw HTML → indexed webpage tree.

A serving process sees the same pages over and over — crawler recrawls,
retries, many questions against one page.  Parsing and index
construction dominate per-request cost (see the ``serve_cold`` vs
``serve_warm_batch`` entries of ``BENCH_synthesis_micro.json``), so the
pipeline is fronted by a **fingerprint-keyed bounded LRU cache**: the
key is a content digest of the raw HTML bytes (plus the url namespace),
so a repeated page skips parse *and* index entirely and lands on the
page object whose per-page memo tables are already warm.

The cache deliberately keys on *raw input bytes*, not parsed content:
hashing the input is pure arithmetic, needs no parse, and two byte-
identical documents always parse identically (the parser is
deterministic).

Pathological input is **downgraded, not trusted**: a
:class:`ServingLimits` bundle caps raw size, tree depth and node count,
and an over-limit page parses to a *bounded* tree (flagged
``degraded``) instead of exhausting memory or recursion depth —
graceful degradation, in the sense that a capped page still answers
from whatever survived the cap.

Locking discipline (one rule, two locks): every ingest counter is a
:class:`~repro.obs.Counters`, mutated only by ``Counters.add`` under its
own lock; ``PageCache._lock`` guards only the LRU ``OrderedDict``.  The
cache computes hit/miss/eviction outcomes inside its own lock, releases
it, *then* adds them to the counters — the two locks are never held
together, so there is no ordering to get wrong and counters cannot tear
when ingest and cache run on different threads.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..html.parser import parse_html
from ..obs import Counters, ratio
from ..webtree.builder import build_tree
from ..webtree.node import WebPage


def page_fingerprint(html: str, url: str = "") -> str:
    """Content digest of one raw page: the :class:`PageCache` key."""
    hasher = hashlib.sha256()
    encoded_url = url.encode("utf-8")
    hasher.update(f"{len(encoded_url)}\x1f".encode("utf-8"))
    hasher.update(encoded_url)
    hasher.update(html.encode("utf-8"))
    return hasher.hexdigest()


@dataclass(frozen=True)
class ServingLimits:
    """Ingest guard rails for hostile or broken pages.

    The defaults are far above anything a legitimate page in the corpus
    produces (the synthetic pages run tens-of-KB / depth < 20 /
    hundreds of nodes), so they never change well-formed behaviour —
    they exist to bound the damage of the adversarial generator's worst
    cases (multi-MB entity soup, 10⁵-deep nesting, 10⁶ flat siblings).
    ``None`` disables the individual cap.
    """

    #: Raw HTML beyond this many *characters* is cut before parsing.
    max_html_chars: int | None = 2_000_000
    #: Open-element stack bound; deeper elements are flattened.
    max_depth: int | None = 150
    #: Total DOM node budget; nodes beyond it are dropped.
    max_nodes: int | None = 50_000


#: The limits a :class:`~repro.serving.service.QAService` applies by default.
DEFAULT_LIMITS = ServingLimits()


@dataclass(frozen=True)
class IngestOutcome:
    """One ingest's result: the page plus its provenance flags."""

    page: WebPage
    fingerprint: str
    #: True when any :class:`ServingLimits` cap fired — the page is a
    #: bounded downgrade of the input, not a faithful parse.
    degraded: bool
    #: True when the page came from the cache (no parse/index paid).
    cache_hit: bool
    #: True when the page rehydrated from the corpus store (no parse
    #: paid; planes loaded from disk instead of rebuilt).
    store_hit: bool = False


def ingest_counters() -> Counters:
    """The counters of one ingestion pipeline (one set per :class:`PageCache`).

    ``store_hits`` counts pages rehydrated from the corpus store (no
    parse paid); ``parse_fallbacks`` counts parses whose fast tokenizer
    bailed to the stdlib path; ``invalidations`` counts exact drops of
    stale live-corpus entries, ``evictions`` LRU capacity pressure.
    """
    return Counters(
        pages_ingested=0, cache_hits=0, cache_misses=0, evictions=0,
        pages_degraded=0, store_hits=0, parse_fallbacks=0, invalidations=0,
        parse_seconds=0.0, index_seconds=0.0,
    )


def ingest_summary(counts: dict) -> dict:
    """The ``health()["ingest"]`` view of an ingest counters snapshot."""
    lookups = counts["cache_hits"] + counts["cache_misses"]
    return {**counts, "hit_rate": ratio(counts["cache_hits"], lookups, 4)}


@dataclass
class PageCache:
    """Bounded LRU of ingested pages, keyed by raw-content fingerprint.

    Eviction is strict LRU on *access* order (hits refresh recency), and
    the bound is on page count — the serving knob operators reason about.
    ``capacity=0`` disables caching without branching at call sites.

    Thread-safe: a long-lived service handles concurrent requests, and
    ``move_to_end``/``popitem`` on a shared ``OrderedDict`` are not
    atomic — every access takes the cache lock (the critical sections
    are dictionary operations, never parse or predict work, and the
    stats lock is only ever taken *after* the cache lock is released).
    """

    capacity: int = 256
    stats: Counters = field(default_factory=ingest_counters)
    _pages: "OrderedDict[str, tuple[WebPage, bool]]" = field(
        default_factory=OrderedDict, repr=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)

    def get(self, fingerprint: str) -> WebPage | None:
        entry = self.get_entry(fingerprint)
        return entry[0] if entry is not None else None

    def get_entry(
        self, fingerprint: str, ingested: bool = False
    ) -> "tuple[WebPage, bool] | None":
        """Cached ``(page, degraded)`` for ``fingerprint``, if present.

        With ``ingested``, a hit also counts as one ingested page, in
        the same counters acquisition as the hit.
        """
        with self._lock:
            entry = self._pages.get(fingerprint)
            if entry is not None:
                self._pages.move_to_end(fingerprint)
        if entry is None:
            self.stats.add(cache_misses=1)
        elif ingested:
            self.stats.add(
                cache_hits=1, pages_ingested=1, pages_degraded=int(entry[1])
            )
        else:
            self.stats.add(cache_hits=1)
        return entry

    def put(self, fingerprint: str, page: WebPage, degraded: bool = False) -> None:
        evicted = 0
        with self._lock:
            if self.capacity <= 0:
                return
            if fingerprint in self._pages:
                self._pages.move_to_end(fingerprint)
                self._pages[fingerprint] = (page, degraded)
            else:
                while len(self._pages) >= self.capacity:
                    self._pages.popitem(last=False)
                    evicted += 1
                self._pages[fingerprint] = (page, degraded)
        if evicted:
            self.stats.add(evictions=evicted)

    def invalidate(self, fingerprint: str) -> bool:
        """Drop exactly one entry (a stale live-corpus page), if cached.

        Cascades past the LRU slot: the evicted page's lazily-built
        ``PageIndex`` — which owns its ``TextPlane`` and the per-page
        keyword/locator memo tables — is dropped too, so nothing keeps
        serving answers derived from the stale content even if the page
        object itself is still referenced elsewhere (e.g. pinned by an
        in-flight request, which simply rebuilds on next access).
        Degraded entries invalidate the same way — the flag lives in the
        cache slot and dies with it.  Returns True when an entry was
        dropped; only actual drops count toward the ``invalidations``
        counter.
        """
        with self._lock:
            entry = self._pages.pop(fingerprint, None)
        if entry is None:
            return False
        entry[0].invalidate_index()
        self.stats.add(invalidations=1)
        return True


def ingest_page(
    html: str,
    url: str = "",
    cache: PageCache | None = None,
    stats: Counters | None = None,
    limits: ServingLimits | None = None,
    store: "object | None" = None,
    store_writer: "object | None" = None,
) -> IngestOutcome:
    """Raw HTML → parsed, indexed :class:`WebPage`, through the cache.

    The returned page's evaluation index is built eagerly: serving
    latency is paid here, in the ingest stage, not inside the first
    locator evaluation of the predict stage — which keeps the per-stage
    timings honest and lets a cache hit skip *all* of it.

    ``limits`` (see :class:`ServingLimits`) bounds the parse for hostile
    input; the cache remembers the ``degraded`` flag with the page, so a
    warm hit on a capped page reports honestly.  The fingerprint is
    always taken over the *original* input — two inputs that differ only
    beyond a cap still parse identically, so sharing the entry is sound.

    Lookup order is memory → disk → parse: a *cache* miss consults
    ``store`` (a :class:`~repro.webtree.store.CorpusStoreReader`) before
    parsing, rehydrating the prebuilt index planes from disk and
    promoting the page into the cache; both share the raw-bytes
    fingerprint key, so neither lookup touches the parser.  A page that
    does get parsed is appended to ``store_writer`` (a
    :class:`~repro.webtree.store.CorpusStoreWriter`) when one is given —
    that is how ``repro corpus build`` populates a store through the
    exact pipeline serving uses.
    """
    if stats is None:
        # NB: explicit None-check — PageCache has __len__, so an *empty*
        # cache is falsy and a bare `if cache` would misroute the stats.
        stats = cache.stats if cache is not None else ingest_counters()
    if cache is not None and cache.capacity <= 0:
        # A disabled cache must be genuinely free: no sha256 over the
        # full HTML, no lock round-trips, no forever-0% hit-rate noise.
        cache = None
    fingerprint = ""
    if cache is not None or store is not None or store_writer is not None:
        fingerprint = page_fingerprint(html, url)
    if cache is not None:
        folded = stats is cache.stats
        entry = cache.get_entry(fingerprint, ingested=folded)
        if entry is not None:
            page, degraded = entry
            if not folded:
                stats.add(pages_ingested=1, pages_degraded=int(degraded))
            return IngestOutcome(page, fingerprint, degraded, cache_hit=True)
    if store is not None:
        entry = store.get(fingerprint)
        if entry is not None:
            page, degraded = entry
            stats.add(pages_ingested=1, store_hits=1, pages_degraded=int(degraded))
            if cache is not None:
                cache.put(fingerprint, page, degraded)
            return IngestOutcome(
                page, fingerprint, degraded, cache_hit=False, store_hit=True
            )
    degraded = False
    if (
        limits is not None
        and limits.max_html_chars is not None
        and len(html) > limits.max_html_chars
    ):
        html = html[: limits.max_html_chars]
        degraded = True
    start = time.perf_counter()
    if limits is not None:
        document = parse_html(html, limits.max_depth, limits.max_nodes)
        degraded = degraded or document.truncated
    else:
        document = parse_html(html)
    page = build_tree(document, url=url)
    parsed = time.perf_counter()
    page.index()
    indexed = time.perf_counter()
    stats.add(
        pages_ingested=1,
        parse_seconds=parsed - start,
        index_seconds=indexed - parsed,
        pages_degraded=int(degraded),
        parse_fallbacks=int(document.fast_fallback),
    )
    if cache is not None:
        cache.put(fingerprint, page, degraded)
    if store_writer is not None:
        store_writer.add_page(fingerprint, page, degraded)
    return IngestOutcome(page, fingerprint, degraded, cache_hit=False)


def ingest_html(
    html: str,
    url: str = "",
    cache: PageCache | None = None,
    stats: Counters | None = None,
    limits: ServingLimits | None = None,
    store: "object | None" = None,
    store_writer: "object | None" = None,
) -> WebPage:
    """:func:`ingest_page`, returning just the page (the original API)."""
    return ingest_page(
        html,
        url,
        cache=cache,
        stats=stats,
        limits=limits,
        store=store,
        store_writer=store_writer,
    ).page
