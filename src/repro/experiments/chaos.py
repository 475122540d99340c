"""Serve-chaos experiment: the fault-tolerant serving path, measured.

Every scenario drives the *same* exported artifact through a fresh
:class:`~repro.serving.QAService` under a different deterministic
failure regime (``repro.serving.faults``), and the table reports what
the failure model promises: failures stay structured and isolated,
transient faults are retried to success, hostile pages degrade instead
of crashing, overload is shed, and throughput under chaos stays in the
same decade as the clean baseline.

Invariants are asserted, not eyeballed: a scenario whose outcome
deviates from its plan (an un-planned failure, a clean request that
errored, answers diverging from the fitted tool) aborts the run.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import dataclass

from ..core.errors import IngestError
from ..core.webqa import WebQA
from ..dataset.corpus import generate_page
from ..dataset.tasks import TASKS_BY_ID
from ..serving.faults import ALWAYS, FaultInjector, FaultPlan, adversarial_corpus
from ..serving.gateway import ServingGateway
from ..serving.live import LiveCorpus
from ..serving.service import QAService, RetryPolicy, ServingRequest
from ..webtree.html_out import page_to_html
from ..webtree.store import CorpusStoreWriter, collect_garbage
from .common import ExperimentConfig, dataset_for

#: The one serving task the chaos table exercises (routes are
#: orthogonal to the failure machinery; one is enough).
CHAOS_TASK = "fac_t1"

#: Backoff tuned for a table run: deterministic, but near-instant.
_FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.001,
                          max_backoff_seconds=0.002)


@dataclass(frozen=True)
class ChaosRow:
    """Outcome counters for one chaos scenario."""

    scenario: str
    requests: int
    ok: int
    failed: int
    rejected: int
    deadline: int
    degraded: int
    retries: int
    pages_per_s: float


class _Askers:
    """Background query storm: threads hammering ``ask_many`` in a loop.

    The concurrency side of the hot-swap invariants: while the routing
    table is republished underneath them, every request must still
    answer (``ok``), and — when ``expected`` is given — answer
    *identically* (all swapped versions serve the same content, so any
    divergence is a torn read of the routing table).
    """

    def __init__(self, svc, requests, expected=None, threads=3):
        self.svc = svc
        self.requests = requests
        self.expected = expected
        self.stop = threading.Event()
        self.failures: list = []
        self.results: list = []
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._loop, daemon=True)
            for _ in range(threads)
        ]

    def _loop(self) -> None:
        while not self.stop.is_set():
            batch = self.svc.ask_many(self.requests, strict=False)
            with self._lock:
                self.results.extend(batch)
                for index, result in enumerate(batch):
                    if not result.ok:
                        self.failures.append(result)
                    elif (
                        self.expected is not None
                        and result.answer != self.expected[index]
                    ):
                        self.failures.append(result)

    def __enter__(self) -> "_Askers":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        for thread in self._threads:
            thread.join()


def _summarize(scenario, results, elapsed) -> ChaosRow:
    ok = sum(1 for r in results if r.ok)
    stages = [r.error.stage for r in results if r.error is not None]
    return ChaosRow(
        scenario=scenario,
        requests=len(results),
        ok=ok,
        failed=len(results) - ok,
        rejected=stages.count("admission"),
        deadline=stages.count("deadline"),
        degraded=sum(1 for r in results if r.degraded),
        retries=sum(r.retries for r in results),
        pages_per_s=len(results) / elapsed if elapsed > 0 else 0.0,
    )


def run(config: ExperimentConfig) -> list[ChaosRow]:
    """All chaos scenarios over one artifact; one :class:`ChaosRow` each."""
    task = TASKS_BY_ID[CHAOS_TASK]
    dataset = dataset_for(task, config)
    tool = WebQA(ensemble_size=config.ensemble_size, seed=config.seed).fit(
        task.question,
        task.keywords,
        list(dataset.train),
        list(dataset.test_pages),
        dataset.models,
    )
    artifact = tool.export_artifact()
    expected = [tool.predict(page) for page in dataset.test_pages]
    requests = [
        ServingRequest(route=CHAOS_TASK, html=page_to_html(page), url=page.url)
        for page in dataset.test_pages
    ]
    n = len(requests)

    def service(**kwargs) -> QAService:
        kwargs.setdefault("jobs", config.jobs)
        kwargs.setdefault("backend", config.backend)
        kwargs.setdefault("retry_policy", _FAST_RETRY)
        svc = QAService(**kwargs)
        svc.register(CHAOS_TASK, artifact)
        return svc

    def serve(svc, reqs, **kwargs):
        start = time.perf_counter()
        results = svc.ask_many(reqs, strict=False, **kwargs)
        return results, time.perf_counter() - start

    rows: list[ChaosRow] = []

    # -- baseline: no faults; must answer exactly like the fitted tool.
    with service() as svc:
        results, elapsed = serve(svc, requests)
    if [r.answer for r in results] != expected:
        raise AssertionError("chaos baseline diverged from fitted tool")
    rows.append(_summarize("baseline", results, elapsed))

    # -- transient: every request faults once on predict, some on ingest;
    # bounded retry must cure all of them.
    plan = FaultPlan(
        ingest_faults={i: 1 for i in range(0, n, 3)},
        predict_faults={i: 1 for i in range(n)},
        seed=config.seed,
    )
    with service(fault_injector=plan) as svc:
        results, elapsed = serve(svc, requests)
    if not all(r.ok for r in results):
        raise AssertionError("transient scenario left unrecovered failures")
    rows.append(_summarize("transient", results, elapsed))

    # -- poisoned: a fifth of the requests fail terminally; the rest of
    # the micro-batch must be untouched.
    poisoned = {i: ALWAYS for i in range(0, n, 5)}
    plan = FaultPlan(predict_faults=poisoned, seed=config.seed)
    with service(fault_injector=plan) as svc:
        results, elapsed = serve(svc, requests)
    for index, result in enumerate(results):
        if (index in poisoned) == result.ok:
            raise AssertionError("poisoned scenario isolation violated")
    rows.append(_summarize("poisoned", results, elapsed))

    # -- crash: injected worker deaths (real pool kills on the process
    # backend, transient predict faults on threads); retry must recover.
    plan = FaultPlan(pool_crashes=frozenset({0, n // 2}), seed=config.seed)
    with service(fault_injector=plan) as svc:
        results, elapsed = serve(svc, requests)
    if not all(r.ok for r in results):
        raise AssertionError("crash scenario left unrecovered failures")
    rows.append(_summarize("crash", results, elapsed))

    # -- adversarial: hostile generated pages mixed into real traffic;
    # everything answers (degraded at worst) under the default limits.
    hostile = [
        ServingRequest(route=CHAOS_TASK, html=html, url=f"adv://{kind}")
        for kind, html in adversarial_corpus(seed=config.seed)
    ]
    with service() as svc:
        results, elapsed = serve(svc, requests + hostile)
    if not all(r.ok for r in results):
        raise AssertionError("adversarial pages crashed the serving path")
    rows.append(_summarize("adversarial", results, elapsed))

    # -- overload: admission bound below the offered load; overflow is
    # shed instantly, admitted requests still answer correctly.
    bound = max(1, n // 2)
    with service(max_inflight=bound) as svc:
        results, elapsed = serve(svc, requests)
    if sum(1 for r in results if r.ok) != bound:
        raise AssertionError("admission bound not enforced")
    rows.append(_summarize("overload", results, elapsed))

    # -- deadline: injected latency against a tight deadline (pool
    # backends only: the deadline bounds *waiting* on workers).
    if config.jobs > 1:
        plan = FaultPlan(latency_seconds={0: 0.5}, seed=config.seed)
        with service(fault_injector=plan) as svc:
            results, elapsed = serve(svc, requests, deadline_seconds=0.15)
        if results[0].error is None or results[0].error.stage != "deadline":
            raise AssertionError("deadline scenario did not trip")
        rows.append(_summarize("deadline", results, elapsed))

    # -- hotswap: ≥100 versions republished under concurrent load; every
    # in-flight request must answer, bit-identically (all versions carry
    # the same content), and the route must fully drain afterwards.
    swap_target = 120
    with service() as svc:
        start = time.perf_counter()
        with _Askers(svc, requests, expected=expected) as askers:
            for i in range(swap_target):
                svc.register(CHAOS_TASK, artifact, version=f"chaos-v{i}")
        elapsed = time.perf_counter() - start
        if askers.failures:
            raise AssertionError(
                f"hot-swap storm dropped/corrupted {len(askers.failures)} "
                "in-flight requests"
            )
        if svc.stats.snapshot()["hot_swaps"] < 100:
            raise AssertionError("hot-swap storm republished fewer than 100 versions")
        deadline = time.monotonic() + 5.0
        while not svc.route_drained(CHAOS_TASK):
            if time.monotonic() > deadline:
                raise AssertionError("retired versions failed to drain")
            time.sleep(0.005)
        rows.append(_summarize("hotswap", askers.results, elapsed))

    # -- hotswap-sharded: the same 120-version storm through a 2-lane
    # gateway, whose askers' requests queue on both lanes while every
    # republish swaps the one service behind them.  In-flight answers
    # must stay bit-identical and every retired version must drain.
    with ServingGateway(
        shards=2,
        jobs=config.jobs,
        backend=config.backend,
        retry_policy=_FAST_RETRY,
    ) as gateway:
        svc = gateway.service
        svc.register(CHAOS_TASK, artifact)
        start = time.perf_counter()
        with _Askers(gateway, requests, expected=expected) as askers:
            for i in range(swap_target):
                svc.register(CHAOS_TASK, artifact, version=f"chaos-v{i}")
        elapsed = time.perf_counter() - start
        if askers.failures:
            raise AssertionError(
                f"gateway hot-swap storm dropped/corrupted "
                f"{len(askers.failures)} in-flight requests"
            )
        if svc.stats.snapshot()["hot_swaps"] < 100:
            raise AssertionError(
                "gateway hot-swap storm republished fewer than 100 versions"
            )
        deadline = time.monotonic() + 5.0
        while not svc.route_drained(CHAOS_TASK):
            if time.monotonic() > deadline:
                raise AssertionError("retired versions failed to drain")
            time.sleep(0.005)
        rows.append(_summarize("hotswap-sharded", askers.results, elapsed))

    # -- live-update scenarios: a generational store behind the service,
    # fed through LiveCorpus while askers run.  Each sub-regime asserts
    # its own invariant; the table reports the combined storm.
    changed_url = dataset.test_pages[-1].url
    documents = [(page_to_html(ex.page), ex.page.url) for ex in dataset.train]
    documents += [(page_to_html(page), page.url) for page in dataset.test_pages]
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "chaos.rpw")
        with CorpusStoreWriter(store_path) as writer:
            from ..serving.ingest import ingest_page

            for html, url in documents:
                ingest_page(html, url, store_writer=writer)

        with service(store=store_path) as svc:
            live = LiveCorpus(svc)
            live.track(
                CHAOS_TASK, tool.session,
                unlabeled=list(dataset.test_pages),
                ensemble_size=config.ensemble_size, seed=config.seed,
            )

            # (a) feed + warm refit + hot-swap, askers in flight: zero
            # drops; the swapped program answers like a fresh fit.
            changed = generate_page(task.domain, seed=9000 + config.seed)
            start = time.perf_counter()
            with _Askers(svc, requests) as askers:
                report = live.feed(changed.html, changed_url)
            elapsed = time.perf_counter() - start
            if askers.failures:
                raise AssertionError("live feed dropped in-flight requests")
            if not report.swaps or not report.swaps[0].swapped:
                raise AssertionError(f"live feed did not hot-swap: {report.swaps}")
            fresh_unlabeled = [
                changed.page if page.url == changed_url else page
                for page in dataset.test_pages
            ]
            fresh = WebQA(
                ensemble_size=config.ensemble_size, seed=config.seed
            ).fit(
                task.question, task.keywords, list(dataset.train),
                fresh_unlabeled, dataset.models,
            )
            updated_requests = [
                ServingRequest(
                    route=CHAOS_TASK, html=page_to_html(page), url=page.url
                )
                for page in fresh_unlabeled
            ]
            served = svc.ask_many(updated_requests)
            if served != [fresh.predict(page) for page in fresh_unlabeled]:
                raise AssertionError(
                    "post-feed answers diverged from a fresh rebuild + fit"
                )
            rows.append(_summarize("live-feed", askers.results, elapsed))

            # (b) refit fault → rollback: the route keeps its version and
            # every request keeps answering.
            version_before = svc.route_version(CHAOS_TASK)
            live._injector = FaultInjector(
                FaultPlan(refit_faults={live._feeds: ALWAYS}, seed=config.seed)
            )
            second = generate_page(task.domain, seed=9100 + config.seed)
            start = time.perf_counter()
            with _Askers(svc, updated_requests) as askers:
                report = live.feed(second.html, changed_url)
            elapsed = time.perf_counter() - start
            if askers.failures:
                raise AssertionError("rollback scenario dropped requests")
            if any(swap.swapped for swap in report.swaps) or not any(
                swap.reason == "refit-error" for swap in report.swaps
            ):
                raise AssertionError(f"refit fault did not roll back: {report.swaps}")
            if svc.route_version(CHAOS_TASK) != version_before:
                raise AssertionError("rollback changed the serving version")
            if svc.stats.snapshot()["rollbacks"] < 1:
                raise AssertionError("rollback not counted")
            rows.append(_summarize("live-rollback", askers.results, elapsed))

            # (c) torn segment and mid-publish crash: the injected fault
            # surfaces, the store stays at its generation, serving and a
            # later clean feed are unaffected; GC collects the orphan.
            generation = svc.store.generation
            for field_name in ("torn_segments", "publish_crashes"):
                live._injector = FaultInjector(
                    FaultPlan(**{field_name: frozenset({live._feeds})},
                              seed=config.seed)
                )
                third = generate_page(task.domain, seed=9200 + config.seed)
                try:
                    live.feed(third.html, changed_url)
                    raise AssertionError(f"{field_name} fault did not surface")
                except IngestError as error:
                    if not error.injected:
                        raise
                svc.store.reload()
                if svc.store.generation != generation:
                    raise AssertionError(
                        f"{field_name}: store generation moved under a crash"
                    )
            collect_garbage(store_path)
            live._injector = None
            start = time.perf_counter()
            with _Askers(svc, updated_requests) as askers:
                report = live.feed(
                    generate_page(task.domain, seed=9300 + config.seed).html,
                    changed_url,
                )
            elapsed = time.perf_counter() - start
            if askers.failures or not report.swaps or not report.swaps[0].swapped:
                raise AssertionError("post-crash feed did not recover cleanly")
            rows.append(_summarize("live-crash", askers.results, elapsed))

    return rows


def render(rows: list[ChaosRow]) -> str:
    """The serve-chaos table, experiments-runner style."""
    lines = [
        "Serve-chaos: fault-tolerant serving under deterministic fault plans",
        "",
        f"{'scenario':<12} {'req':>4} {'ok':>4} {'fail':>5} {'shed':>5} "
        f"{'ddl':>4} {'degr':>5} {'retry':>6} {'pages/s':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row.scenario:<12} {row.requests:>4} {row.ok:>4} "
            f"{row.failed - row.rejected - row.deadline:>5} {row.rejected:>5} "
            f"{row.deadline:>4} {row.degraded:>5} {row.retries:>6} "
            f"{row.pages_per_s:>9.1f}"
        )
    lines.append("")
    lines.append(
        "fail = terminal stage failures; shed = admission/circuit "
        "rejections; ddl = deadline misses; degr = degraded answers "
        "(bounded parse or interpreter fallback)."
    )
    return "\n".join(lines)


def run_and_render(config: ExperimentConfig) -> str:
    return render(run(config))
