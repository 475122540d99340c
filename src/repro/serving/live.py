"""Live corpus updates: feed changed pages, refit warm, hot-swap safely.

A serving deployment outlives its corpus: pages change, pages vanish.
This module closes the loop between the generational
:mod:`~repro.webtree.store` and the versioned routing table of
:class:`~repro.serving.service.QAService`:

1. **Publish.**  ``feed(html, url)`` re-ingests the changed raw HTML
   through the exact pipeline serving uses, streams it into a new store
   generation via :class:`~repro.webtree.store.CorpusStoreUpdater`
   (segment rename, then manifest rename — crash-safe at every byte
   boundary), and reloads the service's reader.  A crash anywhere in
   this step leaves the previous generation fully openable and the
   in-memory state untouched: nothing downstream of the publish runs.
2. **Invalidate.**  Exactly the superseded fingerprint is dropped from
   the :class:`~repro.serving.ingest.PageCache` (cascading to its
   :class:`~repro.webtree.textplane.TextPlane` and per-page memo
   tables), counted in the ingest ``invalidations`` counter.  Untouched pages
   keep their warm entries — invalidation is exact, not a flush.
3. **Refit.**  Every tracked route whose labeled or unlabeled pages
   include the changed URL is refitted *warm* on its live
   :class:`~repro.synthesis.session.SynthesisSession` — the session
   keeps its fingerprint-keyed block cache and its persistent
   ``TaskRunner`` pool, so only blocks whose content actually changed
   are re-solved.  The refit builds a **candidate** tool; the serving
   tool keeps answering on the old version throughout.
4. **Hot-swap or roll back.**  A candidate that fit cleanly, completed
   within its synthesis deadline, and did not regress held-out F1 is
   swapped in under the service's epoch/refcount protocol (in-flight
   queries drain on the version they pinned; zero drops).  Otherwise
   the route *keeps the old version* — rollback here is abstention,
   which is trivially crash-safe: there is no window where a bad
   candidate serves.  Explicit post-swap :meth:`QAService.rollback`
   remains available for operator-driven reverts.

The differential bar (pinned by ``tests/serving/test_live.py``): after
any sequence of feeds and removals, answers are bit-identical to a
fresh full store rebuild plus a fresh fit — generations, invalidation
and warm refit are *transparent* optimizations.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

from ..core.errors import IngestError
from ..core.webqa import WebQA
from ..metrics.scores import score_examples
from ..retrieval import index as index_module
from ..synthesis.examples import LabeledExample
from ..synthesis.session import SynthesisSession
from ..webtree.node import WebPage
from ..webtree.store import CorpusStoreUpdater
from .ingest import ingest_page, page_fingerprint
from .service import QAService


@dataclass(frozen=True)
class RouteSwap:
    """What one feed did to one tracked route."""

    route: str
    #: True when the candidate was published; False means the route
    #: kept its previous version (see ``reason``).
    swapped: bool
    #: Version id now serving (the candidate's on swap, the old one on
    #: rollback).
    version: str
    previous_version: str
    #: Why the candidate was rejected: "" (swapped), "refit-error",
    #: "refit-deadline", or "holdout-regression".
    reason: str = ""
    refit_seconds: float = 0.0
    #: Candidate's held-out F1 (NaN-free: -1.0 when no holdout given).
    holdout_f1: float = -1.0


@dataclass(frozen=True)
class FeedReport:
    """Everything one ``feed``/``remove`` call did, for tests and ops."""

    url: str
    fingerprint: str
    previous_fingerprint: str
    #: Store generation now published (-1 when no store is attached).
    generation: int
    #: Whether a cache entry was dropped by exact invalidation.
    invalidated: bool
    #: True when the fed bytes fingerprint-matched the live page and
    #: the feed was a no-op end to end.
    unchanged: bool
    swaps: "tuple[RouteSwap, ...]" = ()
    #: Routes whose refit was dispatched to the background
    #: (``wait=False``); their swaps surface via :meth:`LiveCorpus.drain`.
    pending_routes: "tuple[str, ...]" = ()


class _TrackedRoute:
    """Mutable refit state for one route: session, pages, holdout."""

    __slots__ = (
        "route", "session", "unlabeled", "holdout",
        "ensemble_size", "selection", "seed", "f1_tolerance",
    )

    def __init__(
        self,
        route: str,
        session: SynthesisSession,
        unlabeled: "list[WebPage]",
        holdout: "list[LabeledExample]",
        ensemble_size: int,
        selection: str,
        seed: int,
        f1_tolerance: float,
    ) -> None:
        self.route = route
        self.session = session
        self.unlabeled = unlabeled
        self.holdout = holdout
        self.ensemble_size = ensemble_size
        self.selection = selection
        self.seed = seed
        self.f1_tolerance = f1_tolerance

    def touches(self, url: str) -> bool:
        """Whether this route's task references ``url`` at all."""
        return (
            any(page.url == url for page in self.unlabeled)
            or any(ex.page.url == url for ex in self.session.examples)
            or any(ex.page.url == url for ex in self.holdout)
        )


class LiveCorpus:
    """The feed API: corpus updates in, verified hot-swaps out.

    Construct over a running :class:`~repro.serving.service.QAService`
    (for a gateway, over ``gateway.service``) and optionally a store
    path; then :meth:`track` the routes whose tasks should refit when
    their pages change.

    Thread-safety: feeds are serialized by an internal lock (the store
    updater is single-writer by design); queries never block on a feed
    — the service's routing table swaps atomically under its own locks.
    ``wait=False`` moves the refit+swap stage to a background thread;
    :meth:`drain` joins all pending refits and returns their swaps.
    """

    def __init__(
        self,
        service: "QAService",
        store_path: "str | None" = None,
        injector: "object | None" = None,
    ) -> None:
        self.service = service
        store = service.store
        self.store_path = store_path or (store.path if store is not None else None)
        self._injector = injector if injector is not None else service._injector
        self._lock = threading.RLock()
        self._routes: "dict[str, _TrackedRoute]" = {}
        #: url → live fingerprint, seeded from the store manifest so a
        #: fresh LiveCorpus over an existing store supersedes correctly.
        self._urls: "dict[str, str]" = {}
        if store is not None:
            for fingerprint in list(store.fingerprints()):
                entry = store.entry(fingerprint)
                if entry is not None and entry.get("url"):
                    self._urls[entry["url"]] = fingerprint
        #: Monotonic feed counter — the index namespace of the
        #: update-path faults in :class:`~repro.serving.faults.FaultPlan`.
        self._feeds = 0
        self._pending: "list[threading.Thread]" = []
        self._drained_swaps: "list[RouteSwap]" = []

    # -- route tracking ------------------------------------------------------

    def track(
        self,
        route: str,
        session: SynthesisSession,
        unlabeled: "list[WebPage] | tuple[WebPage, ...]" = (),
        holdout: "list[LabeledExample] | tuple[LabeledExample, ...]" = (),
        *,
        ensemble_size: int = 1000,
        selection: str = "transductive",
        seed: int = 0,
        refit_deadline_seconds: "float | None" = None,
        f1_tolerance: float = 0.0,
    ) -> None:
        """Register a route for automatic refit on relevant feeds.

        ``session`` must be the live session the route's current tool
        was fitted from — that is what makes the refit warm.
        ``refit_deadline_seconds`` overrides the session's synthesis
        deadline for refits (a bound refit that gets cut rolls back);
        ``holdout`` gates swaps on held-out F1: a candidate scoring
        below the incumbent minus ``f1_tolerance`` is rejected.
        """
        if refit_deadline_seconds is not None:
            session.config = replace(
                session.config, deadline_seconds=refit_deadline_seconds
            )
        with self._lock:
            self._routes[route] = _TrackedRoute(
                route, session, list(unlabeled), list(holdout),
                ensemble_size, selection, seed, f1_tolerance,
            )

    def tracked(self) -> "tuple[str, ...]":
        with self._lock:
            return tuple(self._routes)

    # -- the feed path -------------------------------------------------------

    def feed(
        self,
        html: str,
        url: str = "",
        gold: "tuple[str, ...] | None" = None,
        *,
        wait: bool = True,
    ) -> FeedReport:
        """One changed page in: publish, invalidate, refit, swap.

        ``gold`` re-labels the page when it backs a labeled (or holdout)
        example; omitted, the existing label survives the content
        change.  Stage order is load-bearing: the store publish comes
        *first* and every in-memory effect after it, so a publish crash
        (real or injected) leaves cache, url map and routes exactly as
        they were — the previous generation still serves.
        """
        with self._lock:
            feed_index = self._feeds
            self._feeds += 1
            previous = self._urls.get(url, "")
            new_fingerprint = page_fingerprint(html, url)
            if previous == new_fingerprint:
                return FeedReport(
                    url=url, fingerprint=new_fingerprint,
                    previous_fingerprint=previous,
                    generation=self._generation(), invalidated=False,
                    unchanged=True,
                )
            # Parse outside the cache: the superseded entry must stay
            # live for in-flight queries until the publish succeeds.
            outcome = ingest_page(html, url, limits=self.service.limits)
            generation = self._publish(
                feed_index, new_fingerprint, outcome.page, outcome.degraded,
                removals=(previous,) if previous else (),
            )
            # -- publish succeeded; in-memory effects are now safe -----
            cache = self.service.cache
            invalidated = bool(previous) and cache.invalidate(previous)
            cache.put(new_fingerprint, outcome.page, outcome.degraded)
            self._urls[url] = new_fingerprint
            affected = [
                tracked for tracked in self._routes.values()
                if tracked.touches(url)
            ]
            for tracked in affected:
                self._replace_page(tracked, url, outcome.page, gold)
            swaps, pending = self._refit(affected, feed_index, wait)
            return FeedReport(
                url=url, fingerprint=new_fingerprint,
                previous_fingerprint=previous, generation=generation,
                invalidated=invalidated, unchanged=False, swaps=swaps,
                pending_routes=pending,
            )

    def remove(self, url: str, *, wait: bool = True) -> FeedReport:
        """Remove a page from the corpus; refit routes that used it.

        The page leaves the store (hidden by the next generation's
        ``removed`` set) and the cache; tracked routes drop it from
        their unlabeled pools and holdouts.  Labeled examples are *not*
        silently dropped — removing training evidence is a task-level
        decision, so a removal touching a labeled page raises.
        """
        with self._lock:
            feed_index = self._feeds
            self._feeds += 1
            previous = self._urls.get(url, "")
            if not previous:
                return FeedReport(
                    url=url, fingerprint="", previous_fingerprint="",
                    generation=self._generation(), invalidated=False,
                    unchanged=True,
                )
            for tracked in self._routes.values():
                if any(ex.page.url == url for ex in tracked.session.examples):
                    raise ValueError(
                        f"page {url!r} backs a labeled example of route "
                        f"{tracked.route!r}; remove the example via the "
                        "session before removing the page"
                    )
            generation = self._publish(
                feed_index, "", None, False, removals=(previous,)
            )
            invalidated = self.service.cache.invalidate(previous)
            del self._urls[url]
            affected = []
            for tracked in self._routes.values():
                touched = False
                kept = [p for p in tracked.unlabeled if p.url != url]
                if len(kept) != len(tracked.unlabeled):
                    tracked.unlabeled[:] = kept
                    touched = True
                kept_holdout = [
                    ex for ex in tracked.holdout if ex.page.url != url
                ]
                if len(kept_holdout) != len(tracked.holdout):
                    tracked.holdout[:] = kept_holdout
                    touched = True
                if touched:
                    affected.append(tracked)
            swaps, pending = self._refit(affected, feed_index, wait)
            return FeedReport(
                url=url, fingerprint="", previous_fingerprint=previous,
                generation=generation, invalidated=invalidated,
                unchanged=False, swaps=swaps, pending_routes=pending,
            )

    def drain(self) -> "list[RouteSwap]":
        """Join every background refit; return the swaps they produced."""
        while True:
            with self._lock:
                if not self._pending:
                    swaps, self._drained_swaps = self._drained_swaps, []
                    return swaps
                thread = self._pending[0]
            thread.join()
            with self._lock:
                if thread in self._pending:
                    self._pending.remove(thread)

    def compact(self) -> dict:
        """Squash generations into a fresh base; reload the reader.

        On an indexed store this refits the IDF over the live pages
        (:func:`~repro.serving.corpus.compact_corpus`).
        """
        from .corpus import compact_corpus

        with self._lock:
            if self.store_path is None:
                raise ValueError("no store attached to compact")
            report = compact_corpus(self.store_path)
            self._reload()
            return report

    # -- internals -----------------------------------------------------------

    def _generation(self) -> int:
        store = self.service.store
        return store.generation if store is not None else -1

    def _reload(self) -> None:
        """Move the service's readers to the newest generation: the
        index view reloads the store reader inside it."""
        if self.service.index is not None:
            self.service.index.reload()

    def _publish(
        self,
        feed_index: int,
        fingerprint: str,
        page: "WebPage | None",
        degraded: bool,
        removals: "tuple[str, ...]",
    ) -> int:
        """Run the two-step store publish, with fault hooks in the seams.

        On an indexed store the segment carries the page's postings, so
        the one manifest swap publishes planes and postings together.
        """
        if self.store_path is None:
            return -1
        updater = CorpusStoreUpdater(self.store_path)
        try:
            for stale in removals:
                updater.remove(stale)
            if page is not None:
                updater.update(fingerprint, page, degraded=degraded)
                index_module.update_corpus_index(updater, {fingerprint: page})
            if self._injector is not None and self._injector.tears_segment(
                feed_index
            ):
                # Simulate a crash mid-segment-write: leave the partial
                # ``.tmp`` on disk, publish nothing.
                updater.abandon()
                raise IngestError(
                    f"injected torn segment (feed {feed_index})",
                    transient=False, injected=True,
                )
            updater.publish_segment()
            if self._injector is not None:
                # Crash window: segment durable, manifest not yet
                # swapped — the store must reopen one generation back.
                self._injector.before_publish(feed_index)
            generation = updater.publish_manifest()
        except Exception:
            # Idempotent: a torn-segment abandon() already closed the
            # updater; after a publish-crash the orphan segment stays on
            # disk for GC, exactly as a real crash would leave it.
            updater.abort()
            raise
        self._reload()
        return generation

    def _replace_page(
        self,
        tracked: _TrackedRoute,
        url: str,
        page: WebPage,
        gold: "tuple[str, ...] | None",
    ) -> None:
        """Swap the new page into the route's pools, labels intact."""
        for i, unlabeled_page in enumerate(tracked.unlabeled):
            if unlabeled_page.url == url:
                tracked.unlabeled[i] = page
        for i, example in enumerate(tracked.session.examples):
            if example.page.url == url:
                tracked.session.replace_example(
                    i, LabeledExample(page, gold or example.gold)
                )
        for i, example in enumerate(tracked.holdout):
            if example.page.url == url:
                tracked.holdout[i] = LabeledExample(
                    page, gold or example.gold
                )

    def _refit_route(
        self, tracked: _TrackedRoute, feed_index: int
    ) -> RouteSwap:
        """Warm-refit one route; swap on success, keep the old otherwise.

        Rollback is by abstention: the candidate is validated *before*
        it ever enters the routing table, so "roll back" simply means
        "do not swap" — there is no window where a failed refit serves,
        and nothing to undo on any failure path.
        """
        service = self.service
        route = tracked.route
        old_version = service.route_version(route)
        old_tool = service.tool(route)
        started = time.perf_counter()
        reason = ""
        candidate: "WebQA | None" = None
        try:
            if self._injector is not None:
                self._injector.before_refit(feed_index)
            candidate = WebQA(
                config=tracked.session.config,
                ensemble_size=tracked.ensemble_size,
                selection=tracked.selection,
                seed=tracked.seed,
            )
            candidate.fit_session(tracked.session, list(tracked.unlabeled))
        except Exception:
            reason = "refit-error"
        elapsed = time.perf_counter() - started
        holdout_f1 = -1.0
        if not reason:
            assert candidate is not None and candidate.report is not None
            if candidate.report.synthesis.stats.completed is False:
                reason = "refit-deadline"
        if not reason and tracked.holdout:
            assert candidate is not None
            holdout_f1 = score_examples(
                [(candidate.predict(ex.page), ex.gold) for ex in tracked.holdout]
            ).f1
            try:
                incumbent_f1 = score_examples(
                    [(old_tool.predict(ex.page), ex.gold) for ex in tracked.holdout]
                ).f1
            except Exception:
                # An incumbent that cannot even answer the held-out
                # pages sets no bar.
                incumbent_f1 = 0.0
            if holdout_f1 < incumbent_f1 - tracked.f1_tolerance:
                reason = "holdout-regression"
        if reason:
            service.stats.add(rollbacks=1)
            return RouteSwap(
                route=route, swapped=False, version=old_version,
                previous_version=old_version, reason=reason,
                refit_seconds=elapsed, holdout_f1=holdout_f1,
            )
        assert candidate is not None
        artifact = candidate.export_artifact()
        version = artifact.fingerprint()
        service.register(route, candidate, version=version)
        return RouteSwap(
            route=route, swapped=True, version=version,
            previous_version=old_version, reason="",
            refit_seconds=elapsed, holdout_f1=holdout_f1,
        )

    def _refit(
        self, affected: "list[_TrackedRoute]", feed_index: int, wait: bool
    ) -> "tuple[tuple[RouteSwap, ...], tuple[str, ...]]":
        """Refit the affected routes now, or dispatch them to the
        background; returns ``(swaps, pending routes)``."""
        if wait or not affected:
            swaps = tuple(
                self._refit_route(tracked, feed_index) for tracked in affected
            )
            return swaps, ()
        routes = [tracked.route for tracked in affected]
        thread = threading.Thread(
            target=self._refit_background,
            args=(routes, feed_index),
            name=f"live-refit-{feed_index}",
            daemon=True,
        )
        self._pending.append(thread)
        thread.start()
        return (), tuple(routes)

    def _refit_background(
        self, routes: "list[str]", feed_index: int
    ) -> None:
        for route in routes:
            with self._lock:
                tracked = self._routes.get(route)
            if tracked is None:
                continue
            swap = self._refit_route(tracked, feed_index)
            with self._lock:
                self._drained_swaps.append(swap)
