"""Span tracing from outside the program: wrap layer entry points, undo on exit.

The benchmark never edits the program to trace it.  :class:`Tracer`
wraps the public functions and methods that form each layer's boundary,
at the place the caller looks them up: a function bound into another
module by ``from x import f`` is patched in *that* module, because
patching only the defining module would miss the caller's own binding.
Every patch is undone when the :func:`traced` context exits.

Spans live in memory.  Each has a name, start, end, parent span and a
request id (a stream index, an event index or a task id).  Aggregates
(calls, total time, self time = duration minus the time of child spans)
are kept per thread without locks and merged at the end; the first
:data:`MAX_STORED_SPANS` raw spans are kept for writing out as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time

#: Raw spans kept for the trace file; aggregates cover every span.
MAX_STORED_SPANS = 200_000

#: ``(module, function, span)``: functions patched where their caller
#: looks them up.
FUNCTION_SITES = (
    ("repro.serving.service", "ingest_page", "serving.ingest"),
    ("repro.serving.service", "query_terms", "retrieval.query_terms"),
    ("repro.serving.ingest", "parse_html", "html.parse"),
    ("repro.serving.ingest", "build_tree", "webtree.build_tree"),
    ("repro.serving.live", "ingest_page", "serving.live.ingest"),
    ("repro.retrieval.router", "consensus_select", "retrieval.vote"),
    ("repro.core.webqa", "select_program", "selection.select"),
    ("repro.synthesis.session", "synthesize_branch", "synthesis.branch"),
    ("repro.selection.loss", "hamming_word_distance", "selection.hamming"),
    ("repro.retrieval.index", "update_corpus_index", "retrieval.index_update"),
)

#: ``(module, class, method, span)``: methods patched on their class,
#: which every caller reaches through attribute lookup.
METHOD_SITES = (
    ("repro.synthesis.session", "SynthesisSession", "synthesize", "synthesis.synthesize"),
    ("repro.nlp.embeddings", "KeywordMatcher", "similarity_batch", "nlp.similarity_batch"),
    ("repro.serving.service", "QAService", "ask_many", "serving.ask_many"),
    ("repro.serving.service", "QAService", "ask_corpus", "serving.ask_corpus"),
    ("repro.serving.live", "LiveCorpus", "feed", "serving.live.feed"),
    ("repro.core.webqa", "WebQA", "predict", "core.predict"),
    ("repro.retrieval.index", "CorpusIndexReader", "score", "retrieval.score"),
    ("repro.retrieval.index", "CorpusIndexReader", "reload", "retrieval.index_reload"),
    ("repro.webtree.store", "CorpusStoreReader", "load", "webtree.store_load"),
    ("repro.webtree.store", "CorpusStoreReader", "reload", "webtree.store_reload"),
    ("repro.webtree.store", "CorpusStoreUpdater", "publish_segment", "webtree.store_publish_segment"),
    ("repro.webtree.store", "CorpusStoreUpdater", "publish_manifest", "webtree.store_publish_manifest"),
)

#: Sites called hundreds of times per request, where a span would cost
#: more than the call: only their calls are counted.
COUNTED_ONLY = frozenset({"selection.hamming"})

#: The batching queue is observed, not spanned: ``take`` blocks while
#: idle, so its duration is not work.  ``put`` stamps each item and the
#: ``take`` that returns it records the item's wait and the batch size.
QUEUE_SITE = ("repro.runtime.batchq", "CoalescingQueue")


class _ThreadState:
    """One thread's span stack and lock-free aggregates."""

    def __init__(self) -> None:
        self.stack: "list[list]" = []
        self.rid: object = None
        #: span name -> [calls, total seconds, self seconds]
        self.spans: "dict[str, list]" = {}
        self.counters: "dict[str, int]" = {}
        self.waits: "list[float]" = []
        self.batches: "list[int]" = []


class Tracer:
    """In-memory spans and counters for one traced window."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: "list[_ThreadState]" = []
        self._states_lock = threading.Lock()
        #: id(queued item) -> (put time, request id)
        self._queued: dict = {}

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def set_rid(self, rid: object) -> None:
        """Tag the calling thread's next spans with request id ``rid``."""
        self._state().rid = rid

    def count(self, name: str, amount: int = 1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span ``name``; ``observe(result)`` may count."""
        tracer = self
        if name in COUNTED_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.count(name)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            parent = stack[-1][0] if stack else 0
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                aggregate = state.spans.get(name)
                if aggregate is None:
                    aggregate = state.spans[name] = [0, 0.0, 0.0]
                aggregate[0] += 1
                aggregate[1] += duration
                aggregate[2] += duration - frame[1]
                if len(tracer.spans) < MAX_STORED_SPANS:
                    tracer.spans.append(
                        (frame[0], parent, name, start, end, state.rid)
                    )
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    def wrap_put(self, fn):
        tracer = self

        @functools.wraps(fn)
        def put(queue, item):
            if tracer.active:
                tracer.count("runtime.batchq.put")
                tracer._queued[id(item)] = (time.perf_counter(), tracer._state().rid)
            return fn(queue, item)

        return put

    def wrap_take(self, fn):
        tracer = self

        @functools.wraps(fn)
        def take(queue):
            batch = fn(queue)
            if tracer.active and batch:
                now = time.perf_counter()
                state = tracer._state()
                tracer.count("runtime.batchq.take")
                state.batches.append(len(batch))
                if len(batch) >= queue.max_batch:
                    tracer.count("runtime.batchq.size_flush")
                first = None
                for item in batch:
                    stamp = tracer._queued.pop(id(item), None)
                    if stamp is not None:
                        state.waits.append(now - stamp[0])
                        if first is None:
                            first = stamp[1]
                # Spans the dispatcher records for this batch carry the
                # request id of the batch's first request.
                state.rid = first
            return batch

        return take

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Merged aggregates of every thread that recorded anything."""
        spans: "dict[str, dict]" = {}
        counters: "dict[str, int]" = {}
        waits: "list[float]" = []
        batches: "list[int]" = []
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.spans.items():
                merged = spans.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                merged["calls"] += calls
                merged["total_s"] += total
                merged["self_s"] += own
            for name, value in state.counters.items():
                counters[name] = counters.get(name, 0) + value
            waits.extend(state.waits)
            batches.extend(state.batches)
        return {
            "spans": spans,
            "counters": counters,
            "waits": waits,
            "batches": batches,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, rid in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "rid": rid,
                        }
                    )
                    + "\n"
                )


def _ingest_hit(tracer: Tracer, outcome) -> None:
    if outcome.cache_hit:
        tracer.count("serving.ingest.hit")


_OBSERVERS = {"serving.ingest": _ingest_hit}


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def replace(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _originals() -> "dict[tuple, object]":
    found = {}
    for module_name, attr, _ in FUNCTION_SITES:
        module = importlib.import_module(module_name)
        found[(module_name, attr)] = vars(module)[attr]
    for module_name, cls_name, attr, _ in METHOD_SITES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        found[(module_name, cls_name, attr)] = vars(cls).get(attr)
    module_name, cls_name = QUEUE_SITE
    cls = getattr(importlib.import_module(module_name), cls_name)
    for attr in ("put", "take"):
        found[(module_name, cls_name, attr)] = vars(cls).get(attr)
    return found


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every wrapper and activate ``tracer``; undo both on exit.

    On exit the patched attributes are checked against the originals, so
    a patch that failed to undo stops the run instead of leaking into
    the next measurement.
    """
    before = _originals()
    patches = _Patches()
    try:
        for module_name, attr, span in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            patches.replace(
                module, attr,
                tracer.wrap(span, getattr(module, attr), _OBSERVERS.get(span)),
            )
        for module_name, cls_name, attr, span in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            patches.replace(cls, attr, tracer.wrap(span, getattr(cls, attr)))
        module_name, cls_name = QUEUE_SITE
        cls = getattr(importlib.import_module(module_name), cls_name)
        patches.replace(cls, "put", tracer.wrap_put(cls.put))
        patches.replace(cls, "take", tracer.wrap_take(cls.take))
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        patches.undo()
    after = _originals()
    leaked = [key for key in before if before[key] is not after[key]]
    if leaked:
        raise RuntimeError(f"trace patches not undone: {leaked}")
