"""Coalescing work queue: the micro-batching seam of the serving gateway.

A :class:`CoalescingQueue` sits between many producers (front-end
threads accepting requests) and one consumer (a lane dispatcher).  It
buys the two properties a concurrent serving path needs from its queue:

* **Micro-batch coalescing.**  :meth:`take` returns a *batch*, not an
  item: it flushes as soon as ``max_batch`` items are waiting (size
  trigger) or the oldest waiting item has aged past
  ``max_delay_seconds`` (age trigger), whichever comes first.  Under
  burst load batches fill instantly and amortize per-dispatch overhead;
  under trickle load the age bound caps the latency a lone request pays
  for batching.
* **Deterministic backpressure.**  ``max_depth`` bounds the number of
  waiting items.  :meth:`put` on a full queue *returns False* instead
  of blocking or raising — shedding is an explicit, instant outcome the
  caller turns into a structured rejection, never an implicit stall.
  Which requests are shed is therefore a pure function of arrival
  order, which is what makes overload testable.

``pause`` / ``resume`` freeze the consumer side (``take`` blocks while
paused) without touching the producer side — the lever tests use to
drive the queue to its bound deterministically, and operators could use
to quiesce one lane.  :meth:`close` stops producers immediately
(:class:`QueueClosed`) while the consumer drains what remains; a
``take`` on a closed, empty queue returns ``[]``, the consumer's
shutdown signal.  Close overrides pause: a paused, closed queue still
drains, so shutdown can never deadlock behind a forgotten pause.

Everything is one lock and one condition variable; the critical
sections are deque operations only.
"""

from __future__ import annotations

import threading
import time
from collections import deque


class QueueClosed(Exception):
    """Raised by :meth:`CoalescingQueue.put` after :meth:`close`."""


class CoalescingQueue:
    """Bounded multi-producer queue whose consumer takes micro-batches.

    Parameters
    ----------
    max_batch:
        Flush size: :meth:`take` never returns more items than this,
        and returns immediately once this many are waiting.
    max_delay_seconds:
        Flush age: the longest a waiting item may age before the batch
        it leads is released, even if under-full.  ``0`` flushes
        whatever is present without waiting to fill.
    max_depth:
        Bound on waiting items (``None`` = unbounded).  A ``put``
        beyond it is refused with ``False``.
    clock:
        Injectable monotonic clock (tests drive age triggers without
        sleeping).
    """

    def __init__(
        self,
        max_batch: int = 32,
        max_delay_seconds: float = 0.002,
        max_depth: "int | None" = None,
        clock=time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_seconds < 0:
            raise ValueError(
                f"max_delay_seconds must be >= 0, got {max_delay_seconds}"
            )
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_batch = max_batch
        self.max_delay_seconds = max_delay_seconds
        self.max_depth = max_depth
        self._clock = clock
        self._items: "deque[tuple[float, object]]" = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._paused = False
        #: Producers refused because the queue stood at ``max_depth``.
        self.shed = 0

    # -- producer side -------------------------------------------------------

    def put(self, item: object) -> bool:
        """Enqueue one item; ``False`` means *shed* (queue at its bound)."""
        with self._wake:
            if self._closed:
                raise QueueClosed("put on a closed queue")
            if (
                self.max_depth is not None
                and len(self._items) >= self.max_depth
            ):
                self.shed += 1
                return False
            self._items.append((self._clock(), item))
            self._wake.notify_all()
            return True

    # -- consumer side -------------------------------------------------------

    def take(self) -> "list[object]":
        """Block until a batch is due; ``[]`` only when closed and empty.

        A batch is due when ``max_batch`` items wait, when the oldest
        waiting item has aged ``max_delay_seconds``, or when the queue
        is closed (drain immediately, no point aging a dead queue).
        """
        with self._wake:
            while True:
                if self._closed:
                    return self._drain()
                if self._paused or not self._items:
                    self._wake.wait()
                    continue
                if len(self._items) >= self.max_batch:
                    return self._drain()
                age = self._clock() - self._items[0][0]
                remaining = self.max_delay_seconds - age
                if remaining <= 0:
                    return self._drain()
                self._wake.wait(remaining)

    def _drain(self) -> "list[object]":
        batch = []
        while self._items and len(batch) < self.max_batch:
            batch.append(self._items.popleft()[1])
        return batch

    # -- control -------------------------------------------------------------

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def pause(self) -> None:
        """Freeze the consumer: ``take`` blocks until :meth:`resume`."""
        with self._wake:
            self._paused = True

    def resume(self) -> None:
        with self._wake:
            self._paused = False
            self._wake.notify_all()

    @property
    def paused(self) -> bool:
        with self._lock:
            return self._paused

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Refuse new work; wake consumers to drain the remainder."""
        with self._wake:
            self._closed = True
            self._wake.notify_all()
