"""Benchmark — async micro-batching front-end: coalesced vs per-request serving.

A closed-loop asyncio load generator (``NUM_CLIENTS`` concurrent clients,
each awaiting its response before issuing the next request) drives the
:class:`repro.engine.AsyncRecommendationFrontend` and gates four things:

* **Coalescing == direct serving parity (the CI gate).**  Every result a
  client awaits must be bit-identical to calling ``service.top_k([user], k)``
  directly — "coalescing never changes results".  Any drift is an exactness
  bug and fails the build.
* **Coalesced throughput.**  Sustained QPS through the frontend must be at
  least ``MIN_COALESCED_SPEEDUP``x the naive one-request-per-batch loop (the
  same clients, each request dispatched alone to a worker thread) at
  ``NUM_CLIENTS`` concurrent clients — the whole point of micro-batching.
* **p99 latency budget.**  Dispatch is work-conserving (no batch timer), so
  a request waits only for the batch in flight ahead of it: the p99 of
  per-request latencies must stay within scoring/scheduling headroom
  (``P99_BUDGET_MS``), never grow with the total load.  A lone request on
  an idle frontend must also be served within that budget, not held for a
  full batch.
* **Load shedding.**  With a tiny ``max_pending`` and a slowed-down scorer,
  a burst above capacity must shed deterministically (``shed="reject"`` ->
  :class:`OverloadedError`), after which the queue must be fully consistent:
  zero pending slots and follow-up requests still bit-identical to the
  oracle.

A mixed recommend+ingest phase also runs concurrent event producers through
``frontend.ingest`` (coalesced overlay merges) and re-checks end-state parity
against a direct ``service.top_k`` pass.

Environment knobs: ``REPRO_BENCH_DATASET`` (e.g. ``tiny`` for the CI smoke
run) and ``REPRO_BENCH_JSON`` (artifact directory, see ``artifacts.py``).

Run stand-alone with ``python benchmarks/bench_async_frontend.py`` or via
pytest: ``pytest benchmarks/bench_async_frontend.py -s``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.data import chronological_split, dataset_preset  # noqa: E402
from repro.engine import (  # noqa: E402
    AsyncRecommendationFrontend,
    OnlineRecommendationService,
    OverloadedError,
    RecommendationService,
)
from repro.models import LightGCN  # noqa: E402

DEFAULT_DATASETS = ("mooc", "games")
TOP_K = 10
NUM_CLIENTS = 64
REQUESTS_PER_CLIENT = 20
MAX_BATCH_SIZE = NUM_CLIENTS
INGEST_CLIENTS = 8
INGEST_EVENTS_PER_CLIENT = 5

MIN_COALESCED_SPEEDUP = 2.0
#: Generous scoring/scheduling headroom for noisy CI machines; the point is
#: that p99 is bounded by a batch or two of work, not by the total load.
P99_BUDGET_MS = 150.0


def _datasets():
    override = os.environ.get("REPRO_BENCH_DATASET")
    if override:
        return tuple(name.strip() for name in override.split(",") if name.strip())
    return DEFAULT_DATASETS


def _build_service(name: str):
    split = chronological_split(dataset_preset(name, seed=0))
    model = LightGCN(split, embedding_dim=64, num_layers=3, seed=0)
    model.eval()
    # cache_size=0: both serving paths score every request, so the
    # throughput comparison measures batching, not cache luck.
    service = RecommendationService(model, split, cache_size=0)
    return service, split, model


def _request_plan(split, seed: int = 2024):
    """The deterministic closed-loop request schedule, one list per client."""
    rng = np.random.default_rng(seed)
    return [
        [int(user) for user in
         rng.integers(0, split.num_users, REQUESTS_PER_CLIENT)]
        for _ in range(NUM_CLIENTS)
    ]


async def _run_naive(service, plan):
    """One-request-per-batch baseline: every call ships batch size 1."""
    loop = asyncio.get_running_loop()
    latencies = []
    results = []

    with concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="naive") as pool:
        async def client(users):
            for user in users:
                start = time.perf_counter()
                block = np.asarray([user], dtype=np.int64)
                rows = await loop.run_in_executor(
                    pool, service.top_k, block, TOP_K)
                latencies.append(time.perf_counter() - start)
                results.append((user, [int(i) for i in rows[0]]))

        start = time.perf_counter()
        await asyncio.gather(*[client(users) for users in plan])
        elapsed = time.perf_counter() - start
    return elapsed, latencies, results


async def _run_coalesced(service, plan):
    """The same closed-loop clients, served through the micro-batching
    frontend."""
    latencies = []
    results = []

    async with AsyncRecommendationFrontend(
            service, max_batch_size=MAX_BATCH_SIZE,
            max_pending=4 * NUM_CLIENTS) as frontend:
        async def client(users):
            for user in users:
                start = time.perf_counter()
                row = await frontend.recommend(user, TOP_K)
                latencies.append(time.perf_counter() - start)
                results.append((user, row))

        start = time.perf_counter()
        await asyncio.gather(*[client(users) for users in plan])
        elapsed = time.perf_counter() - start
        stats = frontend.stats()
    return elapsed, latencies, results, stats


async def _lone_request_latency(service, split):
    """Work conservation: an idle frontend serves a lone request at once
    instead of holding it for company or a full batch."""
    async with AsyncRecommendationFrontend(
            service, max_batch_size=MAX_BATCH_SIZE) as frontend:
        start = time.perf_counter()
        row = await frontend.recommend(0, TOP_K)
        elapsed = time.perf_counter() - start
    want = [int(i) for i in service.top_k(np.asarray([0]), TOP_K)[0]]
    assert row == want, "lone-request result diverged from direct serving"
    assert elapsed * 1e3 <= P99_BUDGET_MS, (
        f"lone request took {elapsed * 1e3:.1f} ms on an idle frontend "
        f"(budget {P99_BUDGET_MS:.0f} ms)")
    return elapsed


async def _warm_cache_stats(model, split):
    """Serve the same users twice through a cache-enabled frontend and
    report the LRU counters for the artifact (second pass = pure hits that
    bypass the batching queue entirely)."""
    service = RecommendationService(model, split)
    users = list(range(min(32, split.num_users)))
    try:
        async with AsyncRecommendationFrontend(
                service, max_batch_size=len(users)) as frontend:
            first = await asyncio.gather(
                *[frontend.recommend(u, TOP_K) for u in users])
            second = await asyncio.gather(
                *[frontend.recommend(u, TOP_K) for u in users])
            stats = frontend.stats()
        assert first == second, "cache hits must return the batched rows"
        assert stats["cache_hits"] == len(users), (
            "a fully warmed LRU must serve the repeat pass without batching")
        cache = service.cache_stats()
        assert cache["hits"] == len(users) and cache["misses"] == len(users)
        return cache
    finally:
        service.close()


async def _run_shedding(service, split):
    """Overload burst: deterministic shedding, then a consistent queue."""
    max_pending = 8
    original_top_k = service.top_k

    def slow_top_k(users, k, exclude_train=True):
        time.sleep(0.02)  # make the burst outlive its first batch
        return original_top_k(users, k, exclude_train=exclude_train)

    service.top_k = slow_top_k
    try:
        frontend = AsyncRecommendationFrontend(
            service, max_batch_size=max_pending, max_pending=max_pending,
            shed="reject")
        burst = await asyncio.gather(
            *[frontend.recommend(u % split.num_users, TOP_K)
              for u in range(4 * max_pending)],
            return_exceptions=True)
        served = [r for r in burst if isinstance(r, list)]
        shed = [r for r in burst if isinstance(r, OverloadedError)]
        unexpected = [r for r in burst
                      if not isinstance(r, (list, OverloadedError))]
        assert not unexpected, f"unexpected failures under overload: {unexpected[:3]}"
        assert len(served) == max_pending and len(shed) == 3 * max_pending, (
            f"expected exactly {max_pending} served / {3 * max_pending} shed, "
            f"got {len(served)} / {len(shed)}")
        # Queue consistency: no stranded slots, follow-ups still exact.
        assert frontend.pending == 0, "shed requests leaked queue slots"
        follow_task = asyncio.ensure_future(
            frontend.recommend(1 % split.num_users, TOP_K))
        await asyncio.sleep(0)
        await frontend.flush()
        follow_up = await follow_task
        want = original_top_k(np.asarray([1 % split.num_users]), TOP_K)
        assert follow_up == [int(i) for i in want[0]], (
            "post-shed serving diverged from the oracle")
        stats = frontend.stats()
        await frontend.close()
        return {"served": len(served), "shed": stats["shed"],
                "queue_high_water": stats["queue_high_water"]}
    finally:
        service.top_k = original_top_k


async def _run_ingest_mix(name: str):
    """Concurrent recommend + ingest traffic, then end-state parity."""
    split = chronological_split(dataset_preset(name, seed=0))
    model = LightGCN(split, embedding_dim=64, num_layers=3, seed=0)
    model.eval()
    online = OnlineRecommendationService(model, split, cache_size=0,
                                         compact_threshold=10 ** 9)
    rng = np.random.default_rng(99)
    recommend_users = [int(u) for u in
                       rng.integers(0, split.num_users, 2 * NUM_CLIENTS)]
    event_plan = [
        (rng.integers(0, split.num_users, INGEST_EVENTS_PER_CLIENT),
         rng.integers(0, split.num_items, INGEST_EVENTS_PER_CLIENT))
        for _ in range(INGEST_CLIENTS)
    ]

    async with AsyncRecommendationFrontend(
            online, max_batch_size=16) as frontend:
        ingest_stats = asyncio.gather(
            *[frontend.ingest(users, items) for users, items in event_plan])
        recommend_rows = asyncio.gather(
            *[frontend.recommend(user, TOP_K) for user in recommend_users])
        per_call, _ = await asyncio.gather(ingest_stats, recommend_rows)
        stats = frontend.stats()
        # After the mixed traffic drains, the frontend must serve the same
        # bits as the service it wraps — ingests and all.
        final = await asyncio.gather(
            *[frontend.recommend(user, TOP_K) for user in recommend_users])
    oracle = online.top_k(np.asarray(recommend_users, dtype=np.int64), TOP_K)
    for user, got, want in zip(recommend_users, final, oracle):
        assert got == [int(i) for i in want], (
            f"post-ingest parity broke for user {user}")
    assert stats["ingest_events"] == INGEST_CLIENTS * INGEST_EVENTS_PER_CLIENT
    assert stats["ingest_batches"] <= stats["ingest_calls"], (
        "coalescing should never form more ingest batches than calls")
    total_ingested = online.online_stats["ingested_pairs"]
    assert all(s["coalesced_calls"] >= 1 for s in per_call)
    assert 0 < total_ingested <= INGEST_CLIENTS * INGEST_EVENTS_PER_CLIENT, (
        "novel ingested pairs must be positive and bounded by total events")
    return {
        "ingest_calls": stats["ingest_calls"],
        "ingest_batches": stats["ingest_batches"],
        "ingest_events": stats["ingest_events"],
        "ingested_pairs": total_ingested,
    }


def _latency_summary(samples):
    try:
        from .artifacts import latency_summary
    except ImportError:  # pragma: no cover - direct script execution
        from artifacts import latency_summary
    return latency_summary(samples)


def run_async_frontend(datasets=None):
    """Parity-check, profile and gate every dataset preset."""
    rows = []
    for name in (datasets or _datasets()):
        service, split, model = _build_service(name)
        plan = _request_plan(split)
        oracle = {}
        for users in plan:
            for user in users:
                if user not in oracle:
                    oracle[user] = [int(i) for i in
                                    service.top_k(np.asarray([user]), TOP_K)[0]]

        naive_s, naive_lat, naive_results = asyncio.run(
            _run_naive(service, plan))
        coalesced_s, lat, results, stats = asyncio.run(
            _run_coalesced(service, plan))

        total = NUM_CLIENTS * REQUESTS_PER_CLIENT
        for user, row in results:
            assert row == oracle[user], (
                f"{name}: coalesced result diverged from direct service.top_k "
                f"for user {user} — 'coalescing never changes results' is "
                f"broken")
        for user, row in naive_results:
            assert row == oracle[user], f"{name}: naive baseline diverged"

        naive_qps = total / naive_s
        coalesced_qps = total / coalesced_s
        speedup = coalesced_qps / naive_qps
        summary = _latency_summary(lat)
        naive_summary = _latency_summary(naive_lat)
        lone_s = asyncio.run(_lone_request_latency(service, split))
        shed_row = asyncio.run(_run_shedding(service, split))
        cache_row = asyncio.run(_warm_cache_stats(model, split))
        ingest_row = asyncio.run(_run_ingest_mix(name))
        service.close()

        assert speedup >= MIN_COALESCED_SPEEDUP, (
            f"{name}: coalesced serving ({coalesced_qps:.0f} qps) is not "
            f"{MIN_COALESCED_SPEEDUP}x the per-request loop "
            f"({naive_qps:.0f} qps) at {NUM_CLIENTS} clients")
        assert summary["p99_ms"] <= P99_BUDGET_MS, (
            f"{name}: p99 latency {summary['p99_ms']:.1f} ms blows the "
            f"budget ({P99_BUDGET_MS:.0f} ms)")

        rows.append({
            "dataset": name,
            "users": int(split.num_users),
            "items": int(split.num_items),
            "clients": NUM_CLIENTS,
            "requests": total,
            "max_batch_size": MAX_BATCH_SIZE,
            "naive_qps": naive_qps,
            "coalesced_qps": coalesced_qps,
            "speedup": speedup,
            "mean_occupancy": stats["mean_occupancy"],
            "batches": stats["batches"],
            "naive_p50_ms": naive_summary["p50_ms"],
            "naive_p99_ms": naive_summary["p99_ms"],
            "p50_ms": summary["p50_ms"],
            "p99_ms": summary["p99_ms"],
            "p99_budget_ms": P99_BUDGET_MS,
            "lone_request_ms": lone_s * 1e3,
            "shed": shed_row["shed"],
            "shed_served": shed_row["served"],
            "ingest_calls": ingest_row["ingest_calls"],
            "ingest_batches": ingest_row["ingest_batches"],
            "ingest_events": ingest_row["ingest_events"],
            "cache": cache_row,
            "parity": "exact",
        })
    return rows


def format_rows(rows) -> str:
    header = (f"{'dataset':<10} {'clients':>7} {'naive qps':>10} "
              f"{'coal. qps':>10} {'speedup':>8} {'occ':>6} "
              f"{'p50 ms':>7} {'p99 ms':>7} {'lone ms':>8} {'shed':>5}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['dataset']:<10} {row['clients']:>7d} "
            f"{row['naive_qps']:>10.0f} {row['coalesced_qps']:>10.0f} "
            f"{row['speedup']:>7.1f}x {row['mean_occupancy']:>6.1f} "
            f"{row['p50_ms']:>7.1f} {row['p99_ms']:>7.1f} "
            f"{row['lone_request_ms']:>8.1f} {row['shed']:>5d}")
    return "\n".join(lines)


def _write_artifact(rows) -> None:
    try:
        from .artifacts import write_artifact
    except ImportError:  # pragma: no cover - direct script execution
        from artifacts import write_artifact
    preset = ",".join(sorted({row["dataset"] for row in rows}))
    write_artifact("bench_async_frontend", rows, preset=preset)


def test_async_frontend():
    rows = run_async_frontend()
    try:
        from .conftest import print_block
        print_block("Async micro-batching frontend — coalesced vs per-request",
                    format_rows(rows))
    except ImportError:  # pragma: no cover - direct script execution
        print(format_rows(rows))
    _write_artifact(rows)


def main() -> int:
    rows = run_async_frontend()
    print(format_rows(rows))
    _write_artifact(rows)
    print(f"OK: coalescing==direct parity exact, >= {MIN_COALESCED_SPEEDUP}x "
          f"qps at {NUM_CLIENTS} clients, p99 within {P99_BUDGET_MS:.0f} ms, "
          f"shedding exercised")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
