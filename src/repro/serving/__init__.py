"""Production serving: ingest raw HTML, route to artifacts, batch, predict.

The serving subsystem inverts the training-time object graph.  During
synthesis a :class:`~repro.core.webqa.WebQA` *owns* its pages, models
and caches; in serving, the long-lived state is the other way round —
a :class:`QAService` owns the page cache and the routing table, and the
registered tools are stateless, loadable
:class:`~repro.core.artifact.ProgramArtifact` values.

* :mod:`repro.serving.ingest` — raw HTML → parse → webtree →
  :class:`~repro.webtree.index.PageIndex`, behind a fingerprint-keyed
  bounded :class:`PageCache` so repeated pages skip parse+index, with
  :class:`ServingLimits` guard rails downgrading hostile pages to a
  bounded parse.
* :mod:`repro.serving.service` — :class:`QAService`: many artifacts
  under routing keys, request coalescing into micro-batches dispatched
  over the :class:`~repro.runtime.TaskRunner`, per-stage latency and
  throughput counters (one :class:`~repro.obs.Counters` per service,
  gateway and page cache), and the fault-tolerance layer (per-request
  isolation, deadlines, bounded retry, admission control, per-route
  circuit breakers — see the module docstring for the failure model).
* :mod:`repro.serving.gateway` — :class:`ServingGateway`: concurrent
  ``ask``/``ask_many`` (sync and asyncio) into one :class:`QAService`
  (``gateway.service``) through N coalescing lanes, each a micro-batch
  queue and dispatcher chosen by content-affinity hashing, with
  per-lane queue-depth backpressure.  Hot-swap, rollback and
  :class:`~repro.serving.live.LiveCorpus` feeds act on the one service.
* :mod:`repro.serving.live` — :class:`~repro.serving.live.LiveCorpus`:
  feed changed pages into the store, invalidate them exactly, refit
  warm and hot-swap or roll back.
* :mod:`repro.serving.loadgen` — the seeded closed-/open-loop load
  generator behind ``repro bench serve-load`` and the committed
  ``BENCH_serving.json`` SLO gate.
* :mod:`repro.serving.faults` — the deterministic fault-injection
  harness and adversarial-HTML generator driving the chaos suite.
* :mod:`repro.serving.smoke` — the two-process CI smoke (export in one
  run, load + serve in a fresh process).
"""

from .faults import (
    ADVERSARIAL_KINDS,
    FaultInjector,
    FaultPlan,
    adversarial_corpus,
    adversarial_html,
)
from .gateway import ServingGateway
from .ingest import (
    DEFAULT_LIMITS,
    IngestOutcome,
    PageCache,
    ServingLimits,
    ingest_html,
    ingest_page,
    page_fingerprint,
)
from .service import (
    NO_RETRY,
    CircuitBreaker,
    QAService,
    RetryPolicy,
    ServingRequest,
    ServingResult,
)

__all__ = [
    "ADVERSARIAL_KINDS",
    "FaultInjector",
    "FaultPlan",
    "adversarial_corpus",
    "adversarial_html",
    "ServingGateway",
    "DEFAULT_LIMITS",
    "IngestOutcome",
    "PageCache",
    "ServingLimits",
    "ingest_html",
    "ingest_page",
    "page_fingerprint",
    "NO_RETRY",
    "CircuitBreaker",
    "QAService",
    "RetryPolicy",
    "ServingRequest",
    "ServingResult",
]
