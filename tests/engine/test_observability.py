"""Tests for serving telemetry (repro.engine.observability).

Two invariants anchor the module: **instrumentation never changes
results** (serving with the live registry and a tracer installed is
bit-identical to serving with the no-op registry and no tracer), and
**telemetry never fails a request** (garbled trace meta from the wire
degrades to an untraced request, never an error).  Around them: the
histogram/percentile math is pinned against ``np.percentile``, traces
propagate through asyncio and the frontend's worker thread, and
``service.stats()`` is the one unified surface over every stats dict the
engine grew so far.
"""

import asyncio
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    AsyncRecommendationFrontend,
    FaultPlan,
    InferenceIndex,
    MetricsRegistry,
    NullMetricsRegistry,
    OnlineRecommendationService,
    RecommendationService,
    ShardServer,
    Tracer,
    current_trace,
    format_trace,
    get_tracer,
    metrics,
    save_snapshot,
    set_metrics,
    set_tracer,
    span,
    traced,
)
from repro.engine.observability import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    TraceContext,
    parse_wire_spans,
    percentile,
    shard_reply_trace,
    trace_request_fields,
)
from repro.models import BprMF

K = 6


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Fresh registry, no tracer, per test — and restore the globals after."""
    previous_registry = set_metrics(MetricsRegistry())
    previous_tracer = set_tracer(None)
    yield
    set_metrics(previous_registry)
    set_tracer(previous_tracer)


@pytest.fixture(scope="module")
def index(tiny_split):
    model = BprMF(tiny_split, embedding_dim=8, seed=2)
    model.eval()
    return InferenceIndex.from_model(model, tiny_split)


@pytest.fixture(scope="module")
def snap_path(index, tmp_path_factory):
    return save_snapshot(tmp_path_factory.mktemp("obs") / "serve.snap",
                         index, candidate_modes=("int8",))


@pytest.fixture(scope="module")
def servers(snap_path):
    started = [ShardServer(snap_path, shard, 2).start() for shard in range(2)]
    yield started
    for server in started:
        server.close()


@pytest.fixture(scope="module")
def addresses(servers):
    return [f"{host}:{port}" for host, port in
            (server.address for server in servers)]


# --------------------------------------------------------------------- #
# Percentile + histogram math
# --------------------------------------------------------------------- #

class TestPercentile:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 37, 256, 1000])
    def test_matches_numpy_across_sizes(self, rng, size):
        samples = rng.normal(5.0, 2.0, size)
        for q in (0, 1, 25, 50, 75, 90, 99, 99.9, 100):
            assert percentile(samples, q) == \
                pytest.approx(float(np.percentile(samples, q)), abs=1e-12)

    def test_matches_numpy_on_skewed_distributions(self, rng):
        for samples in (rng.lognormal(0.0, 2.0, 500),   # heavy right tail
                        rng.exponential(0.001, 500),     # microsecond-ish
                        np.repeat([1.0, 2.0, 1000.0], [400, 95, 5]),
                        np.full(64, 3.25)):              # constant
            for q in (50, 90, 99):
                assert percentile(samples, q) == \
                    pytest.approx(float(np.percentile(samples, q)),
                                  rel=1e-12)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestHistogram:
    def test_bucket_counts_land_in_the_right_slots(self):
        hist = Histogram("t_s", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 10.0, 99.0, 100.0, 1e6):
            hist.observe(value)
        summary = hist.summary()
        assert summary["buckets"]["bounds"] == [1.0, 10.0, 100.0]
        # bucket i counts (bounds[i-1], bounds[i]]; the last slot overflows.
        assert summary["buckets"]["counts"] == [2, 2, 2, 1]
        assert summary["count"] == 7

    def test_window_keeps_the_most_recent_samples(self):
        hist = Histogram("t_s", buckets=COUNT_BUCKETS, window=8)
        for value in range(20):
            hist.observe(float(value))
        assert sorted(hist.samples()) == [float(v) for v in range(12, 20)]
        assert hist.count == 20  # lifetime count is not windowed

    def test_percentiles_are_exact_over_the_window(self, rng):
        hist = Histogram("t_s")
        samples = rng.lognormal(-7.0, 1.5, 1000)
        for value in samples:
            hist.observe(value)
        for q in (50, 90, 99):
            assert hist.percentile(q) == \
                pytest.approx(float(np.percentile(samples, q)), rel=1e-12)

    def test_empty_summary_and_validation(self):
        assert Histogram("t_s").summary() == {"count": 0}
        with pytest.raises(ValueError):
            Histogram("t_s", buckets=())

    def test_summary_statistics(self):
        hist = Histogram("t_s")
        for value in (0.001, 0.002, 0.003):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["min"] == 0.001
        assert summary["max"] == 0.003
        assert summary["mean"] == pytest.approx(0.002)
        assert summary["p50"] == pytest.approx(0.002)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

class TestRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("a.calls")
        registry.inc("a.calls", 4)
        registry.set_gauge("a.depth", 7.5)
        registry.observe("a.latency_s", 0.25)
        assert registry.counter("a.calls").value == 5
        assert registry.gauge("a.depth").value == 7.5
        assert registry.histogram("a.latency_s").count == 1

    def test_instruments_are_singletons_per_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")

    def test_snapshot_is_json_serialisable_and_sorted(self):
        registry = MetricsRegistry()
        registry.inc("b.two")
        registry.inc("a.one")
        registry.observe("c.lat_s", 0.001)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # numpy leakage would raise here
        assert snapshot["enabled"] is True
        assert list(snapshot["counters"]) == ["a.one", "b.two"]
        assert snapshot["histograms"]["c.lat_s"]["count"] == 1

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.reset()
        assert registry.snapshot()["counters"] == {}

    def test_null_registry_does_no_work(self):
        null = NullMetricsRegistry()
        null.inc("a")
        null.set_gauge("b", 1.0)
        null.observe("c_s", 0.1)
        with null.timer("d_s"):
            pass
        assert null.snapshot() == {"enabled": False, "counters": {},
                                   "gauges": {}, "histograms": {}}

    def test_set_metrics_swaps_the_global(self):
        mine = MetricsRegistry()
        previous = set_metrics(mine)
        try:
            assert metrics() is mine
        finally:
            assert set_metrics(previous) is mine

    def test_timer_observes_elapsed_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("t_s"):
            pass
        hist = registry.histogram("t_s")
        assert hist.count == 1
        assert 0.0 <= hist.samples()[0] < 1.0

    def test_counter_and_gauge_primitives(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        gauge = Gauge("g")
        gauge.set(2)
        assert gauge.value == 2.0


# --------------------------------------------------------------------- #
# Tracing primitives
# --------------------------------------------------------------------- #

class TestTracer:
    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            trace = TraceContext(f"req{i}")
            trace.finish()
            tracer.record(trace)
        names = [trace.root.name for trace in tracer.traces]
        assert names == ["req7", "req8", "req9"]

    def test_slowest_orders_by_duration(self):
        tracer = Tracer()
        for duration in (0.002, 0.009, 0.001, 0.005):
            trace = TraceContext(f"{duration}")
            trace.root.duration = duration
            tracer.record(trace)
        slowest = tracer.slowest(2)
        assert [t.root.name for t in slowest] == ["0.009", "0.005"]
        assert len(tracer.slowest(100)) == 4

    def test_capacity_validation_and_clear(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        tracer = Tracer()
        trace = TraceContext("x")
        trace.finish()
        tracer.record(trace)
        tracer.clear()
        assert tracer.traces == []

    def test_traced_is_a_noop_without_a_tracer(self):
        assert get_tracer() is None
        with traced("service.top_k"):
            assert current_trace() is None

    def test_traced_roots_and_nests(self):
        tracer = Tracer()
        set_tracer(tracer)
        with traced("outer"):
            trace = current_trace()
            assert trace is not None
            with traced("inner"), span("leaf"):
                assert current_trace() is trace
        assert current_trace() is None
        recorded = tracer.traces
        assert len(recorded) == 1
        names = [s.name for s in recorded[0].spans()]
        assert names == ["outer", "inner", "leaf"]
        assert all(s.duration is not None for s in recorded[0].spans())

    def test_span_outside_a_trace_is_a_noop(self):
        with span("orphan"):
            assert current_trace() is None

    def test_format_and_as_dict(self):
        tracer = Tracer()
        set_tracer(tracer)
        with traced("req"), span("stage", origin="shard"):
            pass
        trace = tracer.traces[0]
        text = format_trace(trace)
        assert "req" in text and "stage [shard]" in text
        document = trace.as_dict()
        json.dumps(document)
        assert document["trace_id"] == trace.trace_id
        assert document["root"]["children"][0]["name"] == "stage"

    def test_trace_ids_are_unique(self):
        assert len({TraceContext("x").trace_id for _ in range(64)}) == 64


class TestContextPropagation:
    def test_trace_follows_asyncio_tasks(self):
        tracer = Tracer()
        set_tracer(tracer)

        async def leaf(name):
            with span(name):
                await asyncio.sleep(0)

        async def request():
            with traced("request"):
                await asyncio.gather(leaf("a"), leaf("b"))

        asyncio.run(request())
        names = sorted(s.name for s in tracer.traces[0].spans())
        assert names == ["a", "b", "request"]

    def test_trace_crosses_the_frontend_worker_thread(self, index):
        """The frontend's copy_context() seam carries the trace into the
        scoring thread: the recorded tree must contain both frontend spans
        and the worker-side service.top_k span."""
        tracer = Tracer()
        set_tracer(tracer)
        service = RecommendationService(index=index)

        async def run():
            async with AsyncRecommendationFrontend(service) as frontend:
                return await frontend.recommend(1, K)

        row = asyncio.run(run())
        assert row == service.top_k(
            np.array([1], dtype=np.int64), K)[0].tolist()
        roots = [t for t in tracer.traces
                 if t.root.name == "frontend.recommend"]
        assert roots, [t.root.name for t in tracer.traces]
        names = {s.name for s in roots[0].spans()}
        assert "frontend.flush" in names
        assert "service.top_k" in names  # observed from the worker thread
        service.close()

    def test_worker_thread_without_copied_context_stays_untraced(self):
        """A bare thread (no copied context) must not inherit the trace."""
        tracer = Tracer()
        set_tracer(tracer)
        seen = []
        with traced("request"):
            thread = threading.Thread(
                target=lambda: seen.append(current_trace()))
            thread.start()
            thread.join()
        assert seen == [None]


# --------------------------------------------------------------------- #
# Wire-protocol trace meta
# --------------------------------------------------------------------- #

class TestWireTraceMeta:
    def test_request_fields_roundtrip(self):
        assert trace_request_fields(None) == {}
        trace = TraceContext("req")
        fields = trace_request_fields(trace)
        assert fields == {"trace": {"id": trace.trace_id}}
        reply = shard_reply_trace(fields, shard_id=3, kind="top_k",
                                  duration=0.25)
        spans = parse_wire_spans(reply, trace.trace_id)
        assert [s.name for s in spans] == ["shard3.top_k"]
        assert spans[0].origin == "shard"
        assert spans[0].duration == 0.25

    @pytest.mark.parametrize("request_fields", [
        {},                                   # untraced request
        {"trace": None},
        {"trace": "garbage"},
        {"trace": {"id": 17}},
        {"trace": {"id": ""}},
        {"trace": {}},
    ])
    def test_garbled_request_meta_means_untraced_reply(self, request_fields):
        assert shard_reply_trace(request_fields, shard_id=0, kind="top_k",
                                 duration=0.1) == {}

    @pytest.mark.parametrize("reply_fields", [
        {},
        {"trace": "nope"},
        {"trace": {"id": "other"}},           # id mismatch
        {"trace": {"id": "tid", "spans": "oops"}},
        {"trace": {"id": "tid", "spans": [{"name": "x"}]}},  # no duration
        {"trace": {"id": "tid", "spans": [{"duration_s": "NaNsense",
                                           "name": "x"}]}},
        {"trace": {"id": "tid", "spans": [None]}},
    ])
    def test_garbled_reply_meta_degrades_to_no_spans(self, reply_fields):
        assert parse_wire_spans(reply_fields, "tid") == []


class TestRemoteTracePropagation:
    def test_router_trace_contains_shard_server_spans(self, snap_path,
                                                      addresses):
        tracer = Tracer()
        set_tracer(tracer)
        users = np.arange(10, dtype=np.int64)
        with RecommendationService(snapshot=snap_path, executor="remote",
                                   shard_addresses=addresses) as service:
            service.top_k(users, K)
        assert tracer.traces
        trace = tracer.traces[-1]
        shard_spans = [s for s in trace.spans() if s.origin == "shard"]
        assert len(shard_spans) == 2  # one per shard, stitched over the wire
        assert sorted(s.name for s in shard_spans) == \
            ["shard0.top_k", "shard1.top_k"]
        assert all(s.duration is not None and s.duration >= 0
                   for s in shard_spans)

    def test_candidate_requests_are_traced_too(self, snap_path, addresses):
        tracer = Tracer()
        set_tracer(tracer)
        users = np.arange(6, dtype=np.int64)
        with RecommendationService(snapshot=snap_path, executor="remote",
                                   shard_addresses=addresses,
                                   candidate_mode="int8") as service:
            service.top_k(users, K)
        names = {s.name for t in tracer.traces for s in t.spans()}
        assert "shard0.candidates" in names
        assert "shard1.candidates" in names

    def test_untraced_remote_requests_still_serve(self, snap_path,
                                                  addresses):
        # No tracer installed: requests carry no trace meta and the reply
        # parser never runs — serving is unaffected.
        assert get_tracer() is None
        users = np.arange(8, dtype=np.int64)
        with RecommendationService(snapshot=snap_path, executor="remote",
                                   shard_addresses=addresses) as service, \
                RecommendationService(snapshot=snap_path) as oracle:
            assert np.array_equal(service.top_k(users, K),
                                  oracle.top_k(users, K))


# --------------------------------------------------------------------- #
# Unified stats surface
# --------------------------------------------------------------------- #

UNIFIED_KEYS = {"service", "cache", "certificates", "health", "online",
                "wal", "frontend", "faults", "metrics"}


class TestUnifiedStats:
    def test_plain_service_stats_shape(self, index):
        with RecommendationService(index=index) as service:
            service.top_k(np.arange(4, dtype=np.int64), K)
            stats = service.stats()
        assert set(stats) == UNIFIED_KEYS
        assert stats["service"]["num_users"] == index.num_users
        assert stats["service"]["executor"] == "SerialExecutor"
        assert stats["online"] is None and stats["wal"] is None
        assert stats["frontend"] is None and stats["faults"] is None
        assert stats["health"] is None
        assert stats["cache"] == service.cache_stats()      # old accessor
        assert stats["certificates"] == service.certificate_stats
        assert stats["metrics"]["counters"]["service.top_k_calls"] >= 1
        json.dumps(stats)  # the whole surface is JSON-ready

    def test_online_service_fills_online_and_wal(self, snap_path, tmp_path):
        wal_path = tmp_path / "ingest.wal"
        with OnlineRecommendationService(snapshot=snap_path,
                                         wal_path=wal_path) as service:
            service.ingest(np.array([0, 1], dtype=np.int64),
                           np.array([3, 4], dtype=np.int64))
            stats = service.stats()
            assert stats["online"] == service.online_stats  # old accessor
            assert stats["wal"] == service.wal_stats        # old accessor
            assert stats["wal"]["records"] == 1
            assert stats["metrics"]["counters"]["wal.appends"] == 1
            assert stats["metrics"]["counters"]["online.ingest_calls"] == 1

    def test_frontend_appears_once_attached(self, index):
        service = RecommendationService(index=index)
        assert service.stats()["frontend"] is None

        async def run():
            async with AsyncRecommendationFrontend(service) as frontend:
                await frontend.recommend(0, K)
                return service.stats()

        stats = asyncio.run(run())
        assert stats["frontend"]["requests"] == 1
        assert stats["metrics"]["counters"]["frontend.requests"] == 1
        service.close()

    def test_fault_plans_surface_fired_events(self, snap_path, tmp_path):
        plan = FaultPlan(seed=1).inject("wal.append", "delay", at=0,
                                        seconds=0.0)
        with OnlineRecommendationService(snapshot=snap_path,
                                         wal_path=tmp_path / "f.wal",
                                         wal_fault_plan=plan) as service:
            service.ingest(np.array([0], dtype=np.int64),
                           np.array([1], dtype=np.int64))
            faults = service.stats()["faults"]
        assert faults["fired_events"] == [
            {"site": "wal.append", "index": 0, "kind": "delay"}]
        assert faults["fired"] == 1

    def test_remote_service_stats_hold_health(self, snap_path, addresses):
        with RecommendationService(snapshot=snap_path, executor="remote",
                                   shard_addresses=addresses) as service:
            service.top_k(np.arange(4, dtype=np.int64), K)
            stats = service.stats()
        assert stats["health"]["num_shards"] == 2
        assert stats["health"] == service.health_stats()    # old accessor
        assert stats["service"]["executor"] == "RemoteExecutor"


# --------------------------------------------------------------------- #
# Results neutrality + hot-path hygiene
# --------------------------------------------------------------------- #

class TestResultsNeutral:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"num_shards": 2},
        {"candidate_mode": "int8"},
        {"num_shards": 2, "candidate_mode": "int8", "parallel": True},
    ])
    def test_serving_is_bit_identical_on_vs_off(self, index, kwargs):
        users = np.arange(index.num_users, dtype=np.int64)
        set_metrics(MetricsRegistry())
        set_tracer(Tracer())
        with RecommendationService(index=index, **kwargs) as service:
            with_telemetry = service.top_k(users, K)
        set_metrics(NullMetricsRegistry())
        set_tracer(None)
        with RecommendationService(index=index, **kwargs) as service:
            without = service.top_k(users, K)
        assert np.array_equal(with_telemetry, without)

    def test_ingest_is_bit_identical_on_vs_off(self, snap_path):
        events = (np.array([0, 1, 2], dtype=np.int64),
                  np.array([5, 6, 7], dtype=np.int64))
        probe = np.arange(10, dtype=np.int64)
        set_metrics(MetricsRegistry())
        with OnlineRecommendationService(snapshot=snap_path) as service:
            service.ingest(*events)
            with_telemetry = service.top_k(probe, K)
        set_metrics(NullMetricsRegistry())
        with OnlineRecommendationService(snapshot=snap_path) as service:
            service.ingest(*events)
            without = service.top_k(probe, K)
        assert np.array_equal(with_telemetry, without)


def test_engine_never_calls_wall_clock_time():
    """Hot-path hygiene (also a CI grep): engine timing must come from
    ``time.perf_counter()``/``time.monotonic()`` — ``time.time()`` can step
    backwards under NTP and would poison histograms and traces."""
    engine_dir = Path(__file__).resolve().parents[2] / "src/repro/engine"
    offenders = [path.name for path in sorted(engine_dir.glob("*.py"))
                 if "time.time()" in path.read_text()]
    assert offenders == [], (
        f"time.time() found in {offenders}; use time.perf_counter()")
