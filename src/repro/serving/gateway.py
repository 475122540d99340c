"""ServingGateway: concurrent traffic into one QAService through N lanes.

:class:`~repro.serving.service.QAService` answers whatever bulk a caller
hands it; the gateway turns it into a thread- and asyncio-friendly
front-end that accepts many concurrent ``ask``/``ask_many`` callers,
coalesces their requests into micro-batches and sheds deterministically
when a lane's queue hits its depth bound.

One service sits behind the gateway (``gateway.service``): one route
table, one circuit breaker per route, one
:class:`~repro.runtime.TaskRunner` and one
:class:`~repro.serving.ingest.PageCache` holding
``shards × page_cache_size`` pages.  The gateway adds only:

* **Lanes.**  ``shards`` of them, each a
  :class:`~repro.runtime.CoalescingQueue` plus a dispatcher thread that
  takes size- or age-triggered micro-batches and drives them through
  ``service.ask_many(strict=False)`` — the same pipeline, retry policy,
  deadlines and breakers as a direct service call.  A request's lane is
  a pure function of its page fingerprint, so the same page always
  queues on the same lane.
* **Backpressure.**  A lane queue at ``queue_depth`` sheds instantly
  with :class:`~repro.core.errors.RejectedError` (``reason="overload"``),
  a pure function of arrival order; whatever gets through still passes
  the service's ``max_inflight`` bound and its breakers.
  :meth:`pause_shard`/:meth:`resume_shard` freeze one lane.
* **The front-end.**  :meth:`submit`, :meth:`ask`/:meth:`ask_many` and
  their asyncio forms, and routed :meth:`ask_corpus`, whose candidates
  fan out over the lanes.

Control-plane operations (hot-swap, rollback, fault injection, a
:class:`~repro.serving.live.LiveCorpus`) act on ``gateway.service``;
:meth:`register` stays as a delegate for callers that only hold the
gateway.  With one route table there is one version per route, so the
lanes can never serve diverging versions.

The differential bar is absolute and pinned by
``tests/serving/test_gateway.py``: for any lane count, concurrency
level and flush policy, answers are bit-identical to sequential
``tool.predict`` over the same requests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeout

from ..core.errors import DeadlineExceeded, RejectedError
from ..obs import Counters, ratio
from ..retrieval.router import DEFAULT_TOP_K, CorpusAnswer
from ..runtime.batchq import CoalescingQueue, QueueClosed
from .ingest import page_fingerprint
from .service import QAService, ServingRequest, ServingResult, as_request


def gateway_counters() -> Counters:
    """The gateway layer's own counters (the service keeps its own).

    ``shed`` counts requests refused at the queue bound
    (``RejectedError("overload")``); ``queue_wait_seconds`` sums every
    dispatched request's wait from submit to dispatch.
    """
    return Counters(
        submitted=0, shed=0, batches=0, batched_requests=0, max_batch_size=0,
        queue_wait_seconds=0.0,
        maxima=("max_batch_size",),
    )


def gateway_summary(counts: dict) -> dict:
    """The ``health()["stats"]`` view of a gateway counters snapshot."""
    batched, wait = counts["batched_requests"], counts["queue_wait_seconds"]
    return {
        "submitted": counts["submitted"],
        "shed": counts["shed"],
        "shed_rate": ratio(counts["shed"], counts["submitted"], 4),
        "batches": counts["batches"],
        "mean_batch_size": ratio(batched, counts["batches"]),
        "max_batch_size": counts["max_batch_size"],
        "queue_wait_seconds": wait,
        "mean_queue_wait_ms": ratio(1000.0 * wait, batched, 3),
    }


class _Pending:
    """One queued request: the work, the future its caller awaits, and
    when it was submitted (``time.perf_counter``)."""

    __slots__ = ("request", "future", "submitted")

    def __init__(self, request: ServingRequest, future: "Future") -> None:
        self.request = request
        self.future = future
        self.submitted = time.perf_counter()


class ServingGateway:
    """One :class:`QAService` behind ``shards`` coalescing lanes.

    Parameters
    ----------
    shards:
        Lane count: one queue and one dispatcher thread each.
    max_batch / flush_delay_seconds:
        Micro-batch flush policy per lane queue: flush at ``max_batch``
        waiting requests or when the oldest has aged
        ``flush_delay_seconds``, whichever first.  ``max_batch`` is also
        the service's micro-batch cap.
    queue_depth:
        Per-lane bound on *waiting* requests (``None`` = unbounded).
        Overflow resolves instantly to a
        :class:`~repro.core.errors.RejectedError` (``"overload"``)
        result — the outermost rung of the backpressure ladder.
    page_cache_size:
        Pages cached per lane: the service's one cache holds
        ``shards * page_cache_size``.
    service_kwargs:
        Everything else (``store``, ``jobs``, ``backend``, ``limits``,
        ``fault_injector``, ``retry_policy``, ``max_inflight``, …) goes
        to the :class:`QAService` constructor.
    """

    def __init__(
        self,
        shards: int = 2,
        max_batch: int = 32,
        flush_delay_seconds: float = 0.002,
        queue_depth: "int | None" = None,
        page_cache_size: int = 256,
        **service_kwargs,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.queue_depth = queue_depth
        self.stats = gateway_counters()
        self._closed = False
        self.service = QAService(
            max_batch=max_batch,
            page_cache_size=shards * page_cache_size,
            **service_kwargs,
        )
        self._queues = [
            CoalescingQueue(
                max_batch=max_batch,
                max_delay_seconds=flush_delay_seconds,
                max_depth=queue_depth,
            )
            for _ in range(shards)
        ]
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(queue,),
                name=f"gateway-lane-{index}",
                daemon=True,
            )
            for index, queue in enumerate(self._queues)
        ]
        for thread in self._dispatchers:
            thread.start()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain the queues, stop the dispatchers, close the service."""
        if self._closed:
            return
        self._closed = True
        for queue in self._queues:
            queue.close()
        for thread in self._dispatchers:
            thread.join()
        self.service.close()

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- lanes ---------------------------------------------------------------

    def shard_of(self, request: ServingRequest) -> int:
        """Content-affinity lane for one request.

        Raw-HTML requests hash on the page-cache key
        (:func:`page_fingerprint` over ``(url, html)``); a pre-parsed
        request hashes on the fingerprint it states, else on its url.
        """
        if request.html is not None:
            key = page_fingerprint(request.html, request.url)
        else:
            key = request.fingerprint or page_fingerprint(
                "", request.url or request.page.url
            )
        return int(key[:16], 16) % self.shards

    def register(self, route: str, source: "object", version: "str | None" = None):
        """Bind or hot-swap ``route`` on the service (see
        :meth:`QAService.register`)."""
        return self.service.register(route, source, version=version)

    def pause_shard(self, index: int) -> None:
        """Quiesce one lane: its queue accepts but stops dispatching."""
        self._queues[index].pause()

    def resume_shard(self, index: int) -> None:
        self._queues[index].resume()

    def queue_depths(self) -> "list[int]":
        return [queue.depth() for queue in self._queues]

    def health(self) -> dict:
        """The operator snapshot: the lanes, then the one service.

        ``queue_depths`` and ``dispatchers_alive`` have one entry per
        lane; ``stats`` are the gateway's own counters; ``service`` is
        :meth:`QAService.health` (in-flight, pools, breakers, versions,
        service and ingest counters, store generation).
        """
        return {
            "shards": self.shards,
            "closed": self._closed,
            "queue_depths": self.queue_depths(),
            "queue_depth_bound": self.queue_depth,
            "dispatchers_alive": [t.is_alive() for t in self._dispatchers],
            "stats": gateway_summary(self.stats.snapshot()),
            "service": self.service.health(),
        }

    # -- the serving path ----------------------------------------------------

    def submit(self, request: "ServingRequest | tuple") -> "Future":
        """Enqueue one request; the future resolves to a ServingResult.

        Never blocks and never raises for data-plane conditions: a
        request refused at the queue bound resolves *immediately* to a
        result carrying ``RejectedError("overload")``, exactly like an
        admission-bound rejection one rung further in.
        """
        request = as_request(request)
        index = self.shard_of(request)
        future: "Future" = Future()
        # Counted before the put, so a dispatch never precedes its count.
        self.stats.add(submitted=1)
        if self._closed:
            future.set_result(
                ServingResult(
                    route=request.route,
                    error=RejectedError(
                        "gateway is closed", reason="closed", route=request.route
                    ),
                )
            )
            return future
        try:
            accepted = self._queues[index].put(_Pending(request, future))
        except QueueClosed:
            accepted = False
        if not accepted:
            self.stats.add(shed=1)
            future.set_result(
                ServingResult(
                    route=request.route,
                    error=RejectedError(
                        f"request shed: lane {index} queue at depth bound "
                        f"{self.queue_depth}",
                        reason="overload",
                        route=request.route,
                    ),
                )
            )
        return future

    def ask(
        self,
        route: str,
        html: "str | None" = None,
        page=None,
        url: str = "",
        timeout: "float | None" = None,
    ) -> "tuple[str, ...]":
        """Answer one request synchronously through a lane."""
        (answer,) = self.ask_many(
            [ServingRequest(route=route, html=html, page=page, url=url)],
            timeout=timeout,
        )
        return answer

    def ask_many(
        self,
        requests: "list[ServingRequest | tuple]",
        *,
        strict: bool = True,
        timeout: "float | None" = None,
    ):
        """Answer a bulk of requests; results align with ``requests``.

        Requests spread over their affinity lanes and coalesce with any
        other traffic in flight; this call gathers the futures back in
        request order.  ``strict=True`` (default) raises the
        lowest-index error — deterministic regardless of lane timing —
        and returns plain answers; ``strict=False`` returns one
        :class:`ServingResult` per request.
        """
        futures = [self.submit(request) for request in requests]
        return _settle(self._gather(futures, timeout), strict)

    def ask_corpus(
        self,
        route: str,
        question: "str | None" = None,
        *,
        top_k: "int | None" = DEFAULT_TOP_K,
        exhaustive: bool = False,
        timeout: "float | None" = None,
    ) -> CorpusAnswer:
        """Corpus-scale answering whose candidates fan out over the lanes.

        The service's :meth:`~repro.serving.service.QAService.answer_corpus`
        scores, loads and votes; each candidate request is submitted to
        its lane, so routed fan-outs coalesce with ordinary page
        traffic.  The answer is bit-identical to
        :meth:`~repro.serving.service.QAService.ask_corpus` over the
        same store, routed or exhaustive alike.
        """
        def fan_out(requests: "list[ServingRequest]") -> "list[ServingResult]":
            return self._gather(
                [self.submit(request) for request in requests], timeout
            )

        return self.service.answer_corpus(
            route, question, top_k, exhaustive, fan_out
        )

    # -- asyncio front-end ---------------------------------------------------

    async def ask_many_async(
        self,
        requests: "list[ServingRequest | tuple]",
        *,
        strict: bool = True,
    ):
        """Awaitable :meth:`ask_many`: the event loop never blocks.

        Each request's ``concurrent.futures.Future`` is wrapped for the
        running loop, so thousands of coroutines can await answers
        while the lane dispatchers batch underneath them.
        """
        import asyncio

        futures = [
            asyncio.wrap_future(self.submit(request)) for request in requests
        ]
        return _settle(list(await asyncio.gather(*futures)), strict)

    async def ask_async(
        self,
        route: str,
        html: "str | None" = None,
        page=None,
        url: str = "",
    ) -> "tuple[str, ...]":
        (answer,) = await self.ask_many_async(
            [ServingRequest(route=route, html=html, page=page, url=url)]
        )
        return answer

    # -- internals -----------------------------------------------------------

    def _gather(
        self, futures: "list[Future]", timeout: "float | None"
    ) -> "list[ServingResult]":
        deadline = time.monotonic() + timeout if timeout is not None else None
        results: "list[ServingResult]" = []
        for future in futures:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                results.append(future.result(timeout=remaining))
            except FuturesTimeout:
                raise DeadlineExceeded(
                    f"gateway timeout of {timeout:.3f}s exceeded awaiting "
                    f"request {len(results)}",
                    deadline_seconds=timeout or 0.0,
                ) from None
        return results

    def _dispatch_loop(self, queue: CoalescingQueue) -> None:
        """One lane's consumer: take micro-batches, serve, resolve."""
        while True:
            batch: "list[_Pending]" = queue.take()
            if not batch:
                # take() returns empty only once closed and drained.
                return
            dispatched = time.perf_counter()
            self.stats.add(
                batches=1,
                batched_requests=len(batch),
                max_batch_size=len(batch),
                queue_wait_seconds=sum(
                    dispatched - pending.submitted for pending in batch
                ),
            )
            try:
                results = self.service.ask_many(
                    [pending.request for pending in batch], strict=False
                )
            except BaseException as error:  # noqa: BLE001 — isolate the batch
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(error)
                continue
            for pending, result in zip(batch, results):
                pending.future.set_result(result)


def _settle(results: "list[ServingResult]", strict: bool):
    """``strict``: raise the lowest-index error, else return answers."""
    if not strict:
        return results
    for result in results:
        if result.error is not None:
            raise result.error
    return [result.answer for result in results]
