"""Load generator + SLO gate: tiny-scale end-to-end run and gate logic.

The full-scale run backs the committed ``BENCH_serving.json``; here a
deliberately small configuration pins the mechanics: every phase runs,
every answer is oracle-verified (the generator raises on divergence),
the artifact has the gated shape, and :func:`check_serving` passes and
fails for the right reasons.
"""

import pytest

from repro.serving.loadgen import (
    MIN_SPEEDUP_BY_SHARDS,
    MIN_SPEEDUP_DEFAULT,
    LoadConfig,
    build_workload,
    check_serving,
    format_serving,
    min_speedup,
    run_load,
)

#: Small but honest: the 96-page working set overflows the single
#: pool's 48-entry cache (it thrashes) while fitting the gateway's
#: 2 x 48 — the same shape as the committed baseline.
TINY = LoadConfig(
    shards=2,
    concurrency=4,
    window=8,
    requests=400,
    routes=2,
    pages_per_route=48,
    page_cache_size=48,
    max_batch=8,
    queue_depth=64,
    open_requests=150,
    ensemble=20,
    train=2,
    seed=0,
)


@pytest.fixture(scope="module")
def payload():
    return run_load(TINY)


class TestWorkload:
    def test_workload_is_seeded_and_verified(self):
        workload = build_workload(TINY)
        assert len(workload.corpus) == TINY.routes * TINY.pages_per_route
        assert len(workload.stream) == TINY.requests
        assert len(workload.distinct) == len(workload.corpus)
        # Same seed → same stream; different seed → different stream.
        again = build_workload(TINY)
        assert [r.url for r in again.stream] == [
            r.url for r in workload.stream
        ]
        other = build_workload(LoadConfig(
            **{**TINY.__dict__, "seed": 1}
        ))
        assert [r.url for r in other.stream] != [
            r.url for r in workload.stream
        ]
        # The oracle covers every distinct page.
        for route, url in workload.corpus:
            assert (route, url) in workload.expected


class TestRunLoad:
    def test_all_phases_present_and_clean(self, payload):
        benchmarks = payload["benchmarks"]
        assert set(benchmarks) == {
            "single_pool", "gateway_closed", "gateway_open",
        }
        for name, bench in benchmarks.items():
            assert bench["failed"] == 0, name
            assert bench["ok"] + bench["shed"] == bench["requests"], name
            assert bench["qps"] > 0, name
            assert bench["p50_ms"] <= bench["p95_ms"] <= bench["p99_ms"], name
        # Closed loop runs unbounded: nothing shed there.
        assert benchmarks["gateway_closed"]["shed"] == 0
        assert benchmarks["gateway_closed"]["mean_batch_size"] >= 1.0

    def test_artifact_shape_for_the_gate(self, payload):
        assert payload["suite"] == "serving_load"
        assert payload["config"]["shards"] == TINY.shards
        assert payload["working_set_pages"] == len(
            build_workload(TINY).corpus
        )
        assert "gateway_closed/single_pool" in payload["speedups"]
        health = payload["gateway_health"]
        assert health["queue_depths"] == [0] * TINY.shards
        assert health["pools_broken"] == 0

    def test_gateway_health_keys_are_pinned(self, payload):
        health = payload["gateway_health"]
        assert set(health) == {"queue_depths", "pools_broken", "stats"}
        # The gateway counters; the last two record queue wait.
        assert set(health["stats"]) == {
            "submitted", "shed", "shed_rate", "batches", "mean_batch_size",
            "max_batch_size", "queue_wait_seconds", "mean_queue_wait_ms",
        }

    def test_single_pool_batch_size_is_the_measured_pass(self, payload):
        # The measured pass sends max_batch slices; the service splits
        # each slice into one batch per route in it.  The unmeasured
        # warm-up pass must not count.
        stream = build_workload(TINY).stream
        batches = sum(
            len({request.route for request in stream[start:start + TINY.max_batch]})
            for start in range(0, len(stream), TINY.max_batch)
        )
        single = payload["benchmarks"]["single_pool"]
        assert single["mean_batch_size"] == round(len(stream) / batches, 2)

    def test_tiny_run_passes_its_own_gate(self, payload):
        assert check_serving(payload) == []
        # And against itself as baseline (p95 scale 1.0).
        assert check_serving(payload, payload) == []

    def test_format_is_human_readable(self, payload):
        text = format_serving(payload)
        assert "single_pool" in text
        assert "gateway_closed" in text
        assert "working set" in text


class TestGate:
    def test_speedup_floor_by_shards(self):
        assert min_speedup(4) == MIN_SPEEDUP_BY_SHARDS[4] == 2.0
        assert min_speedup(2) == MIN_SPEEDUP_BY_SHARDS[2]
        assert min_speedup(3) == MIN_SPEEDUP_DEFAULT

    def test_missing_phases_fail(self):
        assert check_serving({"benchmarks": {}}) == [
            "serving artifact missing single_pool/gateway_closed phases"
        ]

    def test_speedup_under_floor_fails(self, payload):
        import copy

        bad = copy.deepcopy(payload)
        bad["speedups"]["gateway_closed/single_pool"] = 1.0
        failures = check_serving(bad)
        assert any("under the" in f for f in failures)

    def test_unclean_closed_loop_fails(self, payload):
        import copy

        bad = copy.deepcopy(payload)
        bad["benchmarks"]["gateway_closed"]["failed"] = 3
        assert any(
            "closed loop not clean" in f for f in check_serving(bad)
        )

    def test_open_loop_hard_failures_fail(self, payload):
        import copy

        bad = copy.deepcopy(payload)
        bad["benchmarks"]["gateway_open"]["failed"] = 1
        assert any(
            "overload must shed" in f for f in check_serving(bad)
        )

    def test_p95_regression_vs_baseline_fails(self, payload):
        import copy

        slow = copy.deepcopy(payload)
        slow["benchmarks"]["gateway_closed"]["p95_ms"] = (
            payload["benchmarks"]["gateway_closed"]["p95_ms"] * 100
        )
        failures = check_serving(slow, baseline=payload)
        assert any("p95" in f for f in failures)

    def test_machine_speed_proxy_normalizes_latency(self, payload):
        import copy

        # A uniformly 3x-slower machine: single-pool QPS drops 3x and
        # p95 grows 3x.  The proxy cancels the shift — no failure.
        slower = copy.deepcopy(payload)
        for bench in slower["benchmarks"].values():
            bench["qps"] /= 3.0
            for key in ("p50_ms", "p95_ms", "p99_ms"):
                bench[key] *= 3.0
        assert check_serving(slower, baseline=payload) == []
