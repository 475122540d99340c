"""QAService: route questions to program artifacts, micro-batch, predict.

The production front of the reproduction (ROADMAP north star): a
long-lived process that answers extraction requests for *many* tasks at
once.  One :class:`QAService` owns

* a **routing table** — routing key (task id, attribute name, anything)
  → a serving-only :class:`~repro.core.webqa.WebQA` loaded from a
  :class:`~repro.core.artifact.ProgramArtifact`.  Each route's tool is
  **versioned** (artifact sha256) and hot-swappable under an
  epoch/refcount protocol: re-registering a live route installs the new
  tool atomically while in-flight requests drain on the version they
  pinned, and :meth:`QAService.rollback` restores the previous version
  the same way — the backbone of live-corpus refits
  (:mod:`repro.serving.live`);
* the **ingestion pipeline** — one shared
  :class:`~repro.serving.ingest.PageCache`, so every route benefits from
  every other route's parsed pages;
* the **dispatch loop** — incoming requests are coalesced per route into
  micro-batches of at most ``max_batch`` pages and dispatched through
  the service's persistent :class:`~repro.runtime.TaskRunner` pool;
* **per-stage statistics** — ingest/predict latency, batch counts and
  sizes, cache hit rates, per-route request counters, and the
  resilience counters (retries, failures by stage, rejections, pool
  rebuilds).

Semantics are deliberately boring: answers come back in request order
and are bit-identical to calling ``tool.predict`` sequentially per page
(pinned by the differential tests in ``tests/serving/test_service.py``);
the batching exists for throughput, never for approximation.

Fault tolerance (PR 6) — the failure model, end to end:

* **Per-request isolation.**  ``ask_many(strict=False)`` returns one
  :class:`ServingResult` per request — answer *or* structured
  :class:`~repro.core.errors.ServingError` — so one poisoned page
  cannot fail the 31 good requests sharing its micro-batch.  The
  default ``strict=True`` keeps the original fail-fast contract: the
  first error raises through, and the no-fault answers stay
  bit-identical to the pre-resilience service.
* **Deadlines.**  A per-call (or service-default) ``deadline_seconds``
  bounds the *whole* request path; work that misses it fails with
  :class:`~repro.core.errors.DeadlineExceeded` rather than wedging the
  caller.  Completed answers are never discarded by a deadline.
* **Bounded retry.**  Transient failures (crashed workers, injected
  recoverable faults) are retried up to
  :attr:`RetryPolicy.max_retries` times with exponential backoff and
  *deterministic* jitter; terminal failures are never retried.
* **Pool self-healing.**  A worker crash breaks the persistent pool;
  the :class:`~repro.runtime.TaskRunner` discards it and the retry
  lands on a freshly built pool (``pools_broken`` counts these).
* **Admission control.**  ``max_inflight`` bounds concurrently served
  requests; overflow is shed instantly with
  :class:`~repro.core.errors.RejectedError` — an overloaded service
  stays responsive *because* it refuses work.  A per-route
  :class:`CircuitBreaker` sheds requests for routes that keep failing
  (closed → open after ``circuit_threshold`` consecutive failures →
  half-open probe after ``circuit_reset_seconds`` → closed on success).
* **Graceful degradation.**  Hostile pages are ingested under
  :class:`~repro.serving.ingest.ServingLimits` (bounded parse, flagged
  ``degraded``), and a failing *compiled* plan falls back to the AST
  interpreter (same program, same answer, flagged ``degraded``).

Chaos testing hooks: a :class:`~repro.serving.faults.FaultInjector`
passed at construction injects the deterministic failures the whole
model is tested against (``tests/serving/test_faults.py``).
"""

from __future__ import annotations

import os
import random
import threading
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass

from ..core.artifact import ProgramArtifact
from ..core.errors import (
    DeadlineExceeded,
    IngestError,
    NotFittedError,
    PredictError,
    RejectedError,
    RouteError,
    ServingError,
    is_transient,
)
from ..core.webqa import WebQA
from ..obs import Counters, ratio
from ..retrieval.index import CorpusIndexReader
from ..retrieval.router import (
    DEFAULT_TOP_K,
    CorpusAnswer,
    build_answer,
    cut_top_k,
    query_terms,
    scan_scores,
)
from ..runtime.runner import TaskRunner
from ..webtree.node import WebPage
from .faults import FaultInjector, FaultPlan
from .ingest import (
    DEFAULT_LIMITS,
    IngestOutcome,
    PageCache,
    ServingLimits,
    ingest_page,
    ingest_summary,
)


@dataclass(frozen=True)
class ServingRequest:
    """One unit of incoming work: a routing key plus a page.

    Exactly one of ``html`` / ``page`` is set: raw HTML goes through the
    ingestion pipeline (and its cache); an already-parsed
    :class:`WebPage` skips it, for callers that manage pages themselves.
    Such a caller may state the page's provenance — ``fingerprint``,
    ``degraded`` and ``cache_hit`` — and the request's
    :class:`ServingResult` reports it as given.
    """

    route: str
    html: str | None = None
    page: WebPage | None = None
    url: str = ""
    fingerprint: str = ""
    degraded: bool = False
    cache_hit: bool = False

    def __post_init__(self) -> None:
        if (self.html is None) == (self.page is None):
            raise ValueError("exactly one of html/page must be provided")


@dataclass
class ServingResult:
    """The structured outcome of one request under ``strict=False``.

    Exactly one of :attr:`answer` / :attr:`error` is set.  The rest is
    provenance an operator needs when triaging: where the page came from
    (fingerprint, cache hit), whether any degradation fired (bounded
    parse, interpreter fallback), and how much the request cost
    (retries, per-stage seconds).
    """

    route: str
    answer: "tuple[str, ...] | None" = None
    error: ServingError | None = None
    fingerprint: str = ""
    #: Bounded-parse ingest or interpreter-fallback predict fired.
    degraded: bool = False
    cache_hit: bool = False
    #: Retry attempts spent across ingest and predict.
    retries: int = 0
    ingest_seconds: float = 0.0
    #: This request's own predict time (its page alone, not its batch).
    predict_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def as_request(request: "ServingRequest | tuple") -> ServingRequest:
    """A :class:`ServingRequest`, or one built from a ``(route, html)``
    / ``(route, html, url)`` tuple."""
    if isinstance(request, ServingRequest):
        return request
    return ServingRequest(
        route=request[0],
        html=request[1],
        url=request[2] if len(request) > 2 else "",
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delay`` is a pure function of ``(policy, attempt, key)`` — the
    jitter comes from a ``random.Random`` seeded with both, so two runs
    of the same chaos plan back off identically (real-clock *sleeps*
    still vary; the decision sequence does not).  The defaults are
    test-friendly small; production callers tune ``backoff_seconds`` to
    their downstream costs.
    """

    #: Retries per request per stage (0 disables retrying entirely).
    max_retries: int = 2
    backoff_seconds: float = 0.01
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 0.25
    #: Fraction of the backoff randomly shaved off (0 = no jitter).
    jitter: float = 0.5
    seed: int = 0

    def delay(self, attempt: int, key: str = "") -> float:
        base = min(
            self.backoff_seconds * self.backoff_factor ** max(0, attempt),
            self.max_backoff_seconds,
        )
        if not self.jitter or base <= 0:
            return base
        rng = random.Random(f"retry:{self.seed}:{key}:{attempt}")
        return base * (1.0 - self.jitter * rng.random())


#: A retry policy that never retries — for tests pinning first-failure paths.
NO_RETRY = RetryPolicy(max_retries=0, backoff_seconds=0.0, jitter=0.0)


class CircuitBreaker:
    """Per-route failure breaker: closed → open → half-open → closed.

    ``threshold`` *consecutive* failures open the circuit; while open,
    :meth:`allow` refuses instantly (the route sheds load instead of
    burning pool time on a failing artifact).  After ``reset_seconds``
    the next :meth:`allow` admits exactly one probe (half-open); its
    success re-closes the circuit, its failure re-opens the clock.

    ``clock`` is injectable so tests drive the state machine without
    sleeping.  All transitions happen under one lock — the breaker is
    shared by every thread serving its route.
    """

    def __init__(
        self,
        threshold: int = 5,
        reset_seconds: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a request proceed?  Admitting the probe is a side effect."""
        with self._lock:
            if self._state == "closed":
                return True
            if (
                self._state == "open"
                and self._clock() - self._opened_at >= self.reset_seconds
            ):
                self._state = "half_open"
                return True
            # Open and still cooling, or a half-open probe is in flight.
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state == "half_open"
                or self._consecutive_failures >= self.threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()


class _Deadline:
    """An absolute wall for one ``ask_many`` call (monotonic clock)."""

    __slots__ = ("at", "seconds", "started")

    def __init__(self, seconds: "float | None") -> None:
        self.seconds = seconds or 0.0
        self.started = time.monotonic()
        self.at = self.started + seconds if seconds is not None else None

    def passed(self) -> bool:
        return self.at is not None and time.monotonic() > self.at

    def remaining(self) -> "float | None":
        if self.at is None:
            return None
        return max(0.0, self.at - time.monotonic())

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def service_counters() -> Counters:
    """The counters of one :class:`QAService`.

    ``ingest_seconds``/``predict_seconds`` are *busy* seconds summed per
    call, so concurrent calls overlap: they measure work done, never
    elapsed time.  ``span_started``/``span_ended`` are the monotonic
    activity window (earliest call start, latest call end).
    ``rollbacks`` counts explicit rollbacks and refits rejected in
    favour of the serving version.
    """
    return Counters(
        requests=0, batches=0, max_batch_size=0, ingest_seconds=0.0,
        predict_seconds=0.0, span_started=None, span_ended=None,
        requests_by_route={}, retries=0, failures=0, failures_by_stage={},
        rejected=0, deadline_exceeded=0, degraded=0, hot_swaps=0,
        rollbacks=0,
        maxima=("max_batch_size", "span_ended"),
        minima=("span_started",),
    )


def service_summary(counts: dict, pools_broken: int = 0) -> dict:
    """The ``health()["stats"]`` view of a service counters snapshot.

    ``pools_broken`` is the runner's count of rebuilt worker pools (the
    runner keeps it; the view reports it beside the counters).
    Throughput is pages per wall-clock second of the activity span,
    honest under concurrent callers; without a span (counters added by
    hand) it falls back to the busy rate, which with N concurrent
    callers is the per-lane service rate, not aggregate QPS.
    """
    summary = dict(counts)
    started, ended = summary.pop("span_started"), summary.pop("span_ended")
    requests = counts["requests"]
    busy = counts["ingest_seconds"] + counts["predict_seconds"]
    span = max(0.0, ended - started) if None not in (started, ended) else 0.0
    summary.update(
        pools_broken=pools_broken,
        mean_batch_size=ratio(requests, counts["batches"]),
        busy_seconds=busy,
        span_seconds=span,
        throughput_pages_per_s=ratio(requests, span or busy),
        busy_pages_per_s=ratio(requests, busy),
    )
    return summary


class _ToolVersion:
    """One published ``(tool, version)`` pair with its in-flight refcount.

    Refcounts are mutated only under the owning :class:`_RouteState`
    lock; the ``tool``/``version``/``epoch`` fields are immutable after
    construction, so a pinned holder may read them lock-free.
    """

    __slots__ = ("tool", "version", "epoch", "refs")

    def __init__(self, tool: WebQA, version: str, epoch: int) -> None:
        self.tool = tool
        self.version = version
        self.epoch = epoch
        self.refs = 0


class _RouteState:
    """Everything one route owns, swapped as a unit — never piecewise.

    The epoch/refcount hot-swap protocol: a serving call :meth:`pin`\\ s
    the current :class:`_ToolVersion` once (incrementing its refcount)
    and serves the whole call from that pin, so a concurrent
    :meth:`swap` can never change the tool underneath a half-dispatched
    batch.  ``swap`` installs a fresh version under the next epoch;
    the retired version keeps serving its pinned calls and *drains* —
    it leaves the draining list when its last pin is released.  The
    circuit breaker and the route's request counters live here, not on
    the version, so a swap never resets them.
    """

    __slots__ = ("breaker", "epoch", "current", "previous", "_draining", "_lock")

    def __init__(self, tool: WebQA, version: str, breaker: CircuitBreaker) -> None:
        self.breaker = breaker
        self.epoch = 0
        self.current = _ToolVersion(tool, version, 0)
        self.previous: "_ToolVersion | None" = None
        self._draining: "list[_ToolVersion]" = []
        self._lock = threading.Lock()

    def pin(self) -> _ToolVersion:
        """Take a reference on the current version (release when done)."""
        with self._lock:
            version = self.current
            version.refs += 1
            return version

    def release(self, version: _ToolVersion) -> None:
        with self._lock:
            version.refs -= 1
            if version.refs == 0 and version is not self.current:
                try:
                    self._draining.remove(version)
                except ValueError:
                    pass

    def swap(self, tool: WebQA, version: str) -> _ToolVersion:
        """Install a new current version; returns the retired one."""
        with self._lock:
            retired = self.current
            self.epoch += 1
            self.current = _ToolVersion(tool, version, self.epoch)
            self.previous = retired
            if retired.refs > 0:
                self._draining.append(retired)
            return retired

    def rollback(self) -> "_ToolVersion | None":
        """Re-install the previously served version (a fresh epoch)."""
        with self._lock:
            restored = self.previous
            if restored is None:
                return None
            retired = self.current
            self.epoch += 1
            self.current = _ToolVersion(restored.tool, restored.version, self.epoch)
            self.previous = retired
            if retired.refs > 0:
                self._draining.append(retired)
            return self.current

    def drained(self) -> bool:
        """True when no retired version still serves an in-flight call."""
        with self._lock:
            return not self._draining


def _predict_page(payload: tuple) -> "tuple[tuple[str, ...], bool, float]":
    """Answer one page; module-level so process pools can pickle it.

    Returns ``(answer, degraded, seconds)``, where ``seconds`` times this
    page alone, fault hook included.  The fault hook runs first (it may
    raise, sleep, or kill the worker — that is its job); an organic
    *compiled*-plan failure falls back to the AST interpreter, which
    evaluates the same program over the same eval state — a correct
    answer on the slow path beats no answer, and the ``degraded`` flag
    keeps the downgrade observable.
    """
    tool, page, index, attempt, injector, allow_exit = payload
    started = time.perf_counter()
    if injector is not None:
        injector.before_predict(index, attempt, allow_exit=allow_exit)
        if injector.breaks_compiled(index):
            answer = tool.predict_interpreted(page)
            return answer, True, time.perf_counter() - started
    try:
        answer, degraded = tool.predict(page), False
    except (NotFittedError, ServingError):
        raise
    except Exception:
        answer, degraded = tool.predict_interpreted(page), True
    return answer, degraded, time.perf_counter() - started


class QAService:
    """Serve many program artifacts behind routing keys.

    Parameters
    ----------
    jobs / backend:
        Worker pool each micro-batch is dispatched over
        (:class:`~repro.runtime.TaskRunner` semantics; ``jobs=1`` runs
        inline).
    max_batch:
        Micro-batch size cap.  Larger batches amortize dispatch
        overhead; the cap bounds per-batch latency.
    page_cache_size:
        Capacity of the shared ingest :class:`PageCache` (0 disables).
    retry_policy:
        Backoff schedule for transient failures (default
        :class:`RetryPolicy`; :data:`NO_RETRY` disables).
    deadline_seconds:
        Default per-call deadline (``None`` = unbounded; any
        ``ask_many`` call may override).
    max_inflight:
        Admission bound on concurrently served requests (``None`` =
        unbounded).  Overflow is shed with
        :class:`~repro.core.errors.RejectedError`.
    circuit_threshold / circuit_reset_seconds:
        Per-route :class:`CircuitBreaker` tuning.
    limits:
        Ingest guard rails (:class:`~repro.serving.ingest.ServingLimits`)
        applied to every raw-HTML request; ``None`` disables.
    fault_injector:
        A :class:`~repro.serving.faults.FaultInjector` (or bare
        :class:`~repro.serving.faults.FaultPlan`) for chaos testing;
        ``None`` (production) costs nothing.
    clock:
        Injectable monotonic clock shared by the circuit breakers.
    store:
        A prebuilt corpus store — a path or an opened
        :class:`~repro.webtree.store.CorpusStoreReader`.  Page-cache
        misses rehydrate the indexed page from its planes instead of
        parsing (see :func:`~repro.serving.ingest.ingest_page`).
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: str = "thread",
        max_batch: int = 32,
        page_cache_size: int = 256,
        retry_policy: "RetryPolicy | None" = None,
        deadline_seconds: "float | None" = None,
        max_inflight: "int | None" = None,
        circuit_threshold: int = 5,
        circuit_reset_seconds: float = 30.0,
        limits: "ServingLimits | None" = DEFAULT_LIMITS,
        fault_injector: "FaultInjector | FaultPlan | None" = None,
        clock=time.monotonic,
        store: "object | str | None" = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if isinstance(store, (str, os.PathLike)):
            from ..webtree.store import CorpusStoreReader

            store = CorpusStoreReader(store)
        self.store = store
        #: The postings view over ``store`` that corpus routing scores
        #: with; reloading it reloads the store reader inside it.
        self.index = CorpusIndexReader(store) if store is not None else None
        self.jobs = jobs
        self.backend = backend
        self.max_batch = max_batch
        self.cache = PageCache(capacity=page_cache_size)
        self.stats = service_counters()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.deadline_seconds = deadline_seconds
        self.max_inflight = max_inflight
        self.limits = limits
        self.circuit_threshold = circuit_threshold
        self.circuit_reset_seconds = circuit_reset_seconds
        if isinstance(fault_injector, FaultPlan):
            fault_injector = FaultInjector(fault_injector)
        self._injector = fault_injector
        self._clock = clock
        self._routes: dict[str, _RouteState] = {}
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        # One long-lived pool for every micro-batch: a service dispatches
        # many small batches, and per-batch pool construction (worker
        # spawn, tool re-pickling on the process backend) would dominate.
        self._runner = TaskRunner(jobs=jobs, backend=backend, persistent=True)
        # Spawn the workers now, at startup, not lazily inside the first
        # batch — first-request latency should not pay for OS thread
        # (or process) creation.
        self._runner.prewarm()

    def close(self) -> None:
        """Shut down the service's worker pool (idempotent)."""
        self._runner.close()

    def __enter__(self) -> "QAService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- routing table -----------------------------------------------------------

    def register(
        self,
        route: str,
        source: "WebQA | ProgramArtifact | str",
        version: "str | None" = None,
    ) -> WebQA:
        """Bind ``route`` to an artifact (object or path) or a fitted tool.

        Artifacts are loaded through :meth:`WebQA.from_artifact` (no
        synthesis); an already-constructed tool must be serving-capable,
        otherwise :class:`NotFittedError` surfaces immediately at
        registration instead of on the first request.

        Re-registering a live route is an atomic **hot-swap**: requests
        already in flight drain on the version they pinned, new requests
        see the new tool, and the route's circuit breaker state and
        request counters carry over untouched.  ``version`` defaults to
        the artifact's sha256 ``fingerprint()`` when the source carries
        one ("" otherwise); live-corpus refits always pass it.
        """
        if isinstance(source, WebQA):
            tool = source
            if tool._compiled is None or tool._contexts is None:
                raise NotFittedError(f"registering route {route!r}")
        else:
            tool = WebQA.from_artifact(source)
        if version is None:
            version = (
                tool.artifact.fingerprint() if tool.artifact is not None else ""
            )
        state = self._routes.get(route)
        if state is None:
            breaker = CircuitBreaker(
                threshold=self.circuit_threshold,
                reset_seconds=self.circuit_reset_seconds,
                clock=self._clock,
            )
            self._routes[route] = _RouteState(tool, version, breaker)
            self.stats.add(requests_by_route={route: 0})
        else:
            state.swap(tool, version)
            self.stats.add(hot_swaps=1)
        return tool

    def unregister(self, route: str) -> None:
        del self._routes[route]

    def routes(self) -> tuple[str, ...]:
        return tuple(sorted(self._routes))

    def _state(self, route: str) -> _RouteState:
        state = self._routes.get(route)
        if state is None:
            raise RouteError(
                f"unknown route {route!r}; registered: {self.routes()}",
                route=route,
            )
        return state

    def tool(self, route: str) -> WebQA:
        return self._state(route).current.tool

    def breaker(self, route: str) -> CircuitBreaker:
        """The circuit breaker guarding ``route`` (KeyError if unknown)."""
        return self._routes[route].breaker

    def rollback(self, route: str) -> str:
        """Restore ``route``'s previously served version; returns its id.

        The counterpart of a hot-swap gone wrong after publication —
        the previous ``(tool, version)`` is re-installed under a fresh
        epoch (in-flight requests on the bad version drain, exactly as
        in a forward swap).  :class:`RouteError` when the route is
        unknown or has never swapped.
        """
        state = self._state(route)
        restored = state.rollback()
        if restored is None:
            raise RouteError(
                f"route {route!r} has no previous version to roll back to",
                route=route,
            )
        self.stats.add(rollbacks=1)
        return restored.version

    def route_version(self, route: str) -> str:
        """The version id currently served for ``route``."""
        return self._state(route).current.version

    def route_epoch(self, route: str) -> int:
        """How many swaps/rollbacks ``route`` has seen (0 = original)."""
        return self._state(route).epoch

    def route_drained(self, route: str) -> bool:
        """True when no retired version of ``route`` still serves a call."""
        return self._state(route).drained()

    # -- corpus routing (ask the corpus, not a page) -------------------------------

    def ask_corpus(
        self,
        route: str,
        question: "str | None" = None,
        *,
        top_k: "int | None" = DEFAULT_TOP_K,
        exhaustive: bool = False,
        deadline_seconds: "float | None" = None,
    ) -> CorpusAnswer:
        """Answer a question *over the whole corpus*: route, fan out, vote.

        The corpus-scale entry point: nobody hands the service a page.
        The question — by default the route's own compiled question,
        with its attribute keywords — is tokenized into a sparse term
        query; the store's postings score it against every page with one
        vectorized sparse dot-product; the ``top_k`` highest-scoring
        pages are fanned through the ordinary micro-batch predict path
        (taken from the page cache first, rehydrated from store planes
        on a miss — never parsed); and the transductive consensus rule
        elects the answer among the candidates' predictions, returned
        with full page provenance.

        ``exhaustive=True`` bypasses the postings and scores every store
        page on the fly — the O(corpus) reference path.  By construction
        (shared weighting, pinned accumulation order, same candidate
        rule, same consensus) its :class:`CorpusAnswer` is bit-identical
        to the routed one; the differential tests and the ``--routed``
        load phase hold the two to exact equality while the benchmarks
        measure the gap between their costs.
        """

        def fan_out(requests: "list[ServingRequest]") -> "list[ServingResult]":
            return self.ask_many(
                requests, strict=False, deadline_seconds=deadline_seconds
            )

        return self.answer_corpus(route, question, top_k, exhaustive, fan_out)

    def answer_corpus(
        self,
        route: str,
        question: "str | None",
        top_k: "int | None",
        exhaustive: bool,
        fan_out,
    ) -> CorpusAnswer:
        """Query → score → top-k → ``fan_out`` → consensus, on one generation.

        The shared body of :meth:`ask_corpus` and the gateway's: only
        ``fan_out`` differs between them.  It takes one
        :class:`ServingRequest` per candidate (carrying the candidate's
        fingerprint) and returns one :class:`ServingResult` per request.

        Scoring, page loads and urls all read one pinned store snapshot,
        so a feed reloading the store mid-question cannot mix two
        generations (or lose a candidate page it replaced).  Each
        candidate loads memory → disk: the page cache's page when present,
        else the snapshot's planes, which the load then caches.  Either
        way the candidate counts as one ingested page, a rehydrated one
        also as an ingest ``store_hit``.  Fingerprints are content
        digests, so a cached page is never stale.
        """
        if self.store is None:
            raise IngestError(
                "ask_corpus needs a corpus store; construct the service "
                "with store=..."
            )
        tool = self.tool(route)
        if question is None:
            question = tool._question
        query = query_terms(question, tool._keywords)
        snapshot = self.store.snapshot()
        if exhaustive:
            scored = scan_scores(snapshot, self.index.idf(snapshot), query)
        else:
            scored = self.index.score(query, snapshot)
        candidates = cut_top_k(scored, top_k)
        answers: "list[tuple[str, ...] | None]" = []
        if candidates:
            cache = self.cache if self.cache.capacity > 0 else None
            requests = []
            for fingerprint, _ in candidates:
                loaded = self.store.load(fingerprint, snapshot, cache=cache)
                page, degraded = loaded
                self.cache.stats.add(
                    pages_ingested=1,
                    store_hits=int(not loaded.cache_hit),
                    pages_degraded=int(degraded),
                )
                requests.append(
                    ServingRequest(
                        route=route,
                        page=page,
                        fingerprint=fingerprint,
                        degraded=degraded,
                        cache_hit=loaded.cache_hit,
                    )
                )
            results = fan_out(requests)
            answers = [
                result.answer if result.ok else None for result in results
            ]
        return build_answer(
            route,
            question,
            candidates,
            answers,
            top_k=top_k,
            routed=not exhaustive,
            url_of=lambda fp: (snapshot.entry(fp) or {}).get("url") or None,
        )

    def inject_faults(
        self, injector: "FaultInjector | FaultPlan | None"
    ) -> None:
        """Swap the fault injector at runtime (``None`` turns chaos off).

        Chaos tests use this to model an outage ending — e.g. to let a
        half-open circuit's probe succeed after a run of injected
        failures opened it.
        """
        if isinstance(injector, FaultPlan):
            injector = FaultInjector(injector)
        self._injector = injector

    def health(self) -> dict:
        """One operator-facing snapshot of the service's state."""
        with self._inflight_lock:
            inflight = self._inflight
        states = sorted(self._routes.items())
        return {
            "routes": list(self.routes()),
            "inflight": inflight,
            "max_inflight": self.max_inflight,
            "pools_broken": self._runner.pools_broken,
            "circuits": {r: s.breaker.state for r, s in states},
            "versions": {r: s.current.version for r, s in states},
            "epochs": {r: s.epoch for r, s in states},
            "stats": service_summary(
                self.stats.snapshot(), self._runner.pools_broken
            ),
            "ingest": ingest_summary(self.cache.stats.snapshot()),
            # One generation covers the store's pages and postings.
            "store": self.store.stat() if self.store is not None else None,
        }

    # -- admission ---------------------------------------------------------------

    def _admit(self, count: int) -> int:
        """Reserve in-flight slots; returns how many were granted.

        The in-flight counter is maintained even without a
        ``max_inflight`` bound — the health surface reports it either
        way (an unbounded service still has observable load).
        """
        with self._inflight_lock:
            granted = (
                count
                if self.max_inflight is None
                else min(count, max(0, self.max_inflight - self._inflight))
            )
            self._inflight += granted
        return granted

    def _release(self, count: int) -> None:
        if count == 0:
            return
        with self._inflight_lock:
            self._inflight -= count

    # -- the serving path --------------------------------------------------------

    def ask(
        self,
        route: str,
        html: str | None = None,
        page: WebPage | None = None,
        url: str = "",
    ) -> tuple[str, ...]:
        """Answer one request synchronously (a micro-batch of one)."""
        (answer,) = self.ask_many(
            [ServingRequest(route=route, html=html, page=page, url=url)]
        )
        return answer

    def ask_many(
        self,
        requests: "list[ServingRequest | tuple]",
        *,
        strict: bool = True,
        deadline_seconds: "float | None" = None,
    ):
        """Answer a bulk of requests; results align with ``requests``.

        The dispatch pipeline: (1) **admit** — shed overflow beyond
        ``max_inflight``; (2) **ingest** every raw-HTML request through
        the shared page cache, under the service's
        :class:`~repro.serving.ingest.ServingLimits`; (3) **route** —
        group request indices by routing key (order-preserving), each
        gated by its route's circuit breaker; (4) **batch** — chunk each
        route's run into micro-batches of at most ``max_batch``; (5)
        **predict** — each batch goes through the worker pool, with
        bounded retry for transient failures.  Answers are scattered
        back to request order.

        With the default ``strict=True`` the first failure raises
        through (the original contract) and the return value is a plain
        ``list[tuple[str, ...]]`` of answers.  With ``strict=False``
        every request is isolated: the return value is one
        :class:`ServingResult` per request, failures contained in their
        own slots.

        ``deadline_seconds`` (default: the service-wide setting) bounds
        the whole call; late work fails with
        :class:`~repro.core.errors.DeadlineExceeded`.

        Tuples ``(route, html)`` / ``(route, html, url)`` are accepted as
        a convenience and normalized to :class:`ServingRequest`.
        """
        normalized = [as_request(request) for request in requests]
        if deadline_seconds is None:
            deadline_seconds = self.deadline_seconds
        deadline = _Deadline(deadline_seconds)
        results = self._serve(normalized, strict=strict, deadline=deadline)
        if strict:
            # _serve raised on any error, so every answer is present.
            return [result.answer for result in results]
        return results

    def _serve(
        self,
        normalized: "list[ServingRequest]",
        strict: bool,
        deadline: _Deadline,
    ) -> "list[ServingResult]":
        results = [ServingResult(route=request.route) for request in normalized]
        # Tool versions pinned by this call (one per served route): the
        # pin taken at routing time is what stages 4-5 serve, so a
        # concurrent hot-swap drains behind this call instead of
        # changing the tool mid-batch.
        pinned: "dict[str, tuple[_RouteState, _ToolVersion]]" = {}
        admitted = self._admit(len(normalized))
        batches = largest = 0
        try:
            for position in range(admitted, len(normalized)):
                results[position].error = RejectedError(
                    f"request shed: {self.max_inflight} requests already in "
                    f"flight (admission bound)",
                    reason="overload",
                    route=normalized[position].route,
                )
            if strict and admitted < len(normalized):
                raise results[admitted].error

            # Stage 2: ingest (cache-aware, retried, timed).  On the
            # thread backend cold parse+index work fans over the same
            # pool predict uses; process workers cannot populate the
            # parent's cache, so that backend stays sequential.
            start = time.perf_counter()
            live = list(range(admitted))
            work = [(i, normalized[i], deadline) for i in live]
            needs_ingest = any(normalized[i].page is None for i in live)
            if needs_ingest and self.jobs > 1 and self.backend == "thread":
                outcomes = self._runner.map(
                    self._ingest_one, work, return_exceptions=True
                )
            else:
                outcomes = []
                for item in work:
                    try:
                        outcomes.append(self._ingest_one(item))
                    except Exception as error:  # noqa: BLE001 — isolated below
                        outcomes.append(error)
            pages: "dict[int, WebPage]" = {}
            for position, outcome in zip(live, outcomes):
                result = results[position]
                if isinstance(outcome, BaseException):
                    error = self._wrap_error(
                        outcome, IngestError, normalized[position].route,
                        result.fingerprint, result.retries, deadline,
                    )
                    result.error = error
                    if strict:
                        raise error
                    continue
                ingested, attempts, seconds = outcome
                pages[position] = ingested.page
                result.fingerprint = ingested.fingerprint
                result.degraded = ingested.degraded
                result.cache_hit = ingested.cache_hit
                result.retries += attempts
                result.ingest_seconds = seconds
            ingest_seconds = time.perf_counter() - start

            # Stage 3: route, gated per request by the circuit breaker.
            by_route: dict[str, list[int]] = {}
            for position in live:
                if results[position].error is not None:
                    continue
                route = normalized[position].route
                state = self._routes.get(route)
                if state is None:
                    error = RouteError(
                        f"unknown route {route!r}; registered: {self.routes()}",
                        route=route,
                        fingerprint=results[position].fingerprint,
                    )
                    results[position].error = error
                    if strict:
                        raise error
                    continue
                if not state.breaker.allow():
                    error = RejectedError(
                        f"circuit open for route {route!r}",
                        reason="circuit-open",
                        route=route,
                        fingerprint=results[position].fingerprint,
                    )
                    results[position].error = error
                    if strict:
                        raise error
                    continue
                if route not in pinned:
                    pinned[route] = (state, state.pin())
                by_route.setdefault(route, []).append(position)

            # Stages 4+5: micro-batch and predict, per route, over the
            # service's persistent worker pool.
            start = time.perf_counter()
            for route, positions in by_route.items():
                state, version = pinned[route]
                tool = version.tool
                breaker = state.breaker
                for offset in range(0, len(positions), self.max_batch):
                    batch = positions[offset : offset + self.max_batch]
                    self._predict_batch(
                        tool, route, batch, pages, results, deadline, strict
                    )
                    batches += 1
                    largest = max(largest, len(batch))
                    for position in batch:
                        error = results[position].error
                        if error is None:
                            breaker.record_success()
                        elif error.stage in ("predict", "deadline"):
                            breaker.record_failure()
            predict_seconds = time.perf_counter() - start

            route_counts: dict[str, int] = {}
            by_stage: dict[str, int] = {}
            retries = degraded = rejected = deadline_exceeded = 0
            for request, result in zip(normalized, results):
                # Route names come from callers, so only registered
                # routes get a counter; others fail at stage "route".
                if request.route in self._routes:
                    route = request.route
                    route_counts[route] = route_counts.get(route, 0) + 1
                retries += result.retries
                degraded += result.degraded
                error = result.error
                if error is not None:
                    by_stage[error.stage] = by_stage.get(error.stage, 0) + 1
                    rejected += isinstance(error, RejectedError)
                    deadline_exceeded += isinstance(error, DeadlineExceeded)
            # The whole call lands under one lock acquisition, and only
            # once it answered: a call that raises (strict mode) counts
            # nothing, so requests/batches stay one call's pair.
            self.stats.add(
                requests=len(normalized),
                batches=batches,
                max_batch_size=largest,
                requests_by_route=route_counts,
                retries=retries,
                degraded=degraded,
                failures=sum(by_stage.values()),
                failures_by_stage=by_stage,
                rejected=rejected,
                deadline_exceeded=deadline_exceeded,
                ingest_seconds=ingest_seconds,
                predict_seconds=predict_seconds,
                span_started=deadline.started,
                span_ended=time.monotonic(),
            )
            return results
        finally:
            for state, version in pinned.values():
                state.release(version)
            self._release(admitted)

    # -- stage helpers -----------------------------------------------------------

    def _ingest_one(
        self, item: "tuple[int, ServingRequest, _Deadline]"
    ) -> "tuple[IngestOutcome, int, float]":
        """Ingest one request with bounded retry.

        Returns ``(outcome, attempts_spent, seconds)``; raises an
        already-wrapped :class:`~repro.core.errors.ServingError` when
        the retry budget (or the deadline) runs out.
        """
        index, request, deadline = item
        attempt = 0
        started = time.perf_counter()
        while True:
            if deadline.passed():
                raise DeadlineExceeded(
                    f"deadline passed before ingest of request {index}",
                    route=request.route,
                    retries=attempt,
                    deadline_seconds=deadline.seconds,
                    elapsed_seconds=deadline.elapsed(),
                )
            try:
                if self._injector is not None:
                    self._injector.before_ingest(index, attempt)
                if request.page is not None:
                    outcome = IngestOutcome(
                        request.page,
                        request.fingerprint,
                        degraded=request.degraded,
                        cache_hit=request.cache_hit,
                    )
                else:
                    outcome = ingest_page(
                        request.html or "",
                        request.url,
                        cache=self.cache,
                        limits=self.limits,
                        store=self.store,
                    )
                return outcome, attempt, time.perf_counter() - started
            except Exception as error:  # noqa: BLE001 — classified below
                if (
                    is_transient(error)
                    and attempt < self.retry_policy.max_retries
                    and not deadline.passed()
                ):
                    self._backoff(attempt, f"ingest:{index}", deadline)
                    attempt += 1
                    continue
                raise self._wrap_error(
                    error, IngestError, request.route, "", attempt, deadline
                ) from error

    def _predict_batch(
        self,
        tool: WebQA,
        route: str,
        batch: "list[int]",
        pages: "dict[int, WebPage]",
        results: "list[ServingResult]",
        deadline: _Deadline,
        strict: bool,
    ) -> None:
        """Run one micro-batch with per-item isolation and bounded retry."""
        allow_exit = self.backend == "process"
        pending = list(batch)
        attempts = {position: 0 for position in batch}
        while pending:
            payloads = [
                (
                    tool,
                    pages[position],
                    position,
                    attempts[position],
                    self._injector,
                    allow_exit,
                )
                for position in pending
            ]
            outs = self._runner.map(
                _predict_page,
                payloads,
                return_exceptions=True,
                deadline=deadline.at,
            )
            retry: list[int] = []
            for position, out in zip(pending, outs):
                result = results[position]
                if isinstance(out, BaseException):
                    if (
                        is_transient(out)
                        and attempts[position] < self.retry_policy.max_retries
                        and not deadline.passed()
                    ):
                        attempts[position] += 1
                        retry.append(position)
                        continue
                    error = self._wrap_error(
                        out, PredictError, route, result.fingerprint,
                        attempts[position], deadline,
                    )
                    result.error = error
                    result.retries += attempts[position]
                    if strict:
                        raise error
                else:
                    answer, degraded, seconds = out
                    result.answer = answer
                    result.degraded = result.degraded or degraded
                    result.retries += attempts[position]
                    result.predict_seconds = seconds
            if retry:
                round_attempt = min(attempts[position] for position in retry) - 1
                self._backoff(round_attempt, f"predict:{route}", deadline)
            pending = retry

    def _backoff(self, attempt: int, key: str, deadline: _Deadline) -> None:
        delay = self.retry_policy.delay(attempt, key)
        remaining = deadline.remaining()
        if remaining is not None:
            delay = min(delay, remaining)
        if delay > 0:
            time.sleep(delay)

    def _wrap_error(
        self,
        error: BaseException,
        stage_cls: type,
        route: str,
        fingerprint: str,
        retries: int,
        deadline: _Deadline,
    ) -> ServingError:
        """Normalize any stage failure into the serving taxonomy.

        A :class:`ServingError` passes through with its context
        completed; a pool timeout becomes
        :class:`~repro.core.errors.DeadlineExceeded`; a broken pool or
        any organic exception is wrapped in the stage's error class
        (cause preserved for tracebacks).
        """
        if isinstance(error, ServingError):
            error.route = error.route or route
            error.fingerprint = error.fingerprint or fingerprint
            error.retries = max(error.retries, retries)
            return error
        if isinstance(error, (FuturesTimeout, TimeoutError)):
            wrapped: ServingError = DeadlineExceeded(
                f"deadline of {deadline.seconds:.3f}s exceeded "
                f"after {deadline.elapsed():.3f}s",
                route=route,
                fingerprint=fingerprint,
                retries=retries,
                deadline_seconds=deadline.seconds,
                elapsed_seconds=deadline.elapsed(),
            )
        elif isinstance(error, BrokenExecutor):
            wrapped = stage_cls(
                f"worker pool broke: {error!r}",
                route=route,
                fingerprint=fingerprint,
                retries=retries,
                transient=True,
            )
        else:
            wrapped = stage_cls(
                f"{type(error).__name__}: {error}",
                route=route,
                fingerprint=fingerprint,
                retries=retries,
                transient=False,
            )
        wrapped.__cause__ = error
        return wrapped
