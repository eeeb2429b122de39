#!/usr/bin/env python
"""Quickstart: train LayerGCN on a synthetic dataset and produce recommendations.

Run with:
    python examples/quickstart.py

The script generates a small implicit-feedback dataset, splits it
chronologically (70/10/20 as in the paper), trains LayerGCN with
degree-sensitive edge dropout, evaluates Recall@K / NDCG@K under the
all-ranking protocol, and prints the top recommendations for a few users.
"""

from __future__ import annotations

from repro import LayerGCN, Trainer, TrainerConfig, evaluate_model, prepare_split


def main() -> None:
    # 1. Data: a Games-like synthetic preset, chronologically split.
    split = prepare_split("games", seed=0, scale=0.5)
    print(f"dataset: {split}")

    # 2. Model: LayerGCN with the paper's default configuration
    #    (4 layers, DegreeDrop edge pruning, BPR + L2 objective).
    model = LayerGCN(
        split,
        embedding_dim=32,
        num_layers=4,
        edge_dropout="degreedrop",
        dropout_ratio=0.1,
        l2_reg=1e-3,
        seed=0,
    )
    print(f"model: {model} ({model.num_parameters()} parameters)")

    # 3. Training with validation-based early stopping.  Batching is owned
    #    by the vectorized repro.data.pipeline subsystem: batch_size (and,
    #    for multi-negative models, num_negatives) can be set here instead
    #    of on the model, and negatives are sampled for whole batches at a
    #    time against the engine's CSR index.
    config = TrainerConfig(
        learning_rate=0.005,
        epochs=30,
        early_stopping_patience=5,
        validation_metric="recall@20",
        batch_size=1024,
        verbose=True,
    )
    history = Trainer(model, split, config).fit()
    print(f"trained for {history.num_epochs_run} epochs; "
          f"best validation recall@20={history.best_score:.4f} at epoch {history.best_epoch}")

    # 4. Evaluation with the all-ranking protocol (Recall@K / NDCG@K).
    result = evaluate_model(model, split, ks=(10, 20, 50))
    print("test metrics:", result.format_row(["recall@10", "recall@20", "recall@50",
                                              "ndcg@10", "ndcg@20", "ndcg@50"]))

    # 5. Serving: the engine's RecommendationService batches top-K requests,
    #    excludes training items through a precomputed index and caches
    #    repeated per-user requests in an LRU.
    service = model.inference_service()
    batch_top5 = service.top_k(range(3), k=5)
    for user, items in enumerate(batch_top5):
        print(f"user {user}: top-5 recommended items -> {[int(i) for i in items]}")
    service.recommend(0, k=5)
    service.recommend(0, k=5)  # second call is served from the LRU cache
    print(f"service state: {service!r}")

    # 6. Sharded serving: past the single-worker memory wall the item
    #    catalogue partitions item-wise into S shards; each shard ranks its
    #    own candidates and the exact merge reproduces the unsharded ranking
    #    bit-for-bit.  parallel=True fans shard scoring out over threads
    #    (the per-shard matmul releases the GIL).  Same flags on the CLI:
    #    `repro recommend --shards 4 --parallel`.
    from repro.engine import RecommendationService

    sharded = RecommendationService(model, split, num_shards=4, parallel=True)
    sharded_top5 = sharded.top_k(range(3), k=5)
    assert (batch_top5 == sharded_top5).all(), "sharding must be exact"
    print(f"sharded service (identical results): {sharded!r}")
    sharded.close()

    # 7. Quantised two-stage serving: past the point where even one exact
    #    full-catalogue pass per request is too expensive, candidate_mode
    #    scores a quantised item matrix first (int8 codes are ~6x smaller
    #    than the float64 snapshot), keeps candidate_factor*k candidates per
    #    user under a Cauchy–Schwarz upper bound, and rescores only those
    #    exactly.  Each batch reports a certificate: when it fires, the
    #    result is provably identical to exhaustive search.  Same flags on
    #    the CLI: `repro recommend --candidates int8 --candidate-factor 8`.
    quantised = RecommendationService(model, split, candidate_mode="int8",
                                      candidate_factor=8)
    quantised_top5 = quantised.top_k(range(3), k=5)
    stats = quantised.certificate_stats
    print(f"quantised service: {stats['certified_users']}/{stats['users']} "
          f"users certified exact ({stats['mode']}, "
          f"factor {stats['factor']})")
    if quantised.candidates.last_certificate.all_certified:
        assert (batch_top5 == quantised_top5).all(), \
            "a fired certificate guarantees exact results"

    # 8. Online serving: new interactions stream in without a rebuild.
    #    ingest() folds events into a delta overlaid on the frozen exclusion
    #    index — consumed items drop out of those users' lists immediately,
    #    unseen user ids get a fallback embedding row, only touched users
    #    lose their cache entries, and compact() merges the delta into a
    #    fresh index bit-identical to a from-scratch rebuild.  Same flow on
    #    the CLI: `repro recommend --ingest events.csv --compact-threshold N`.
    from repro.engine import OnlineRecommendationService

    online = OnlineRecommendationService(model, split, compact_threshold=10_000)
    before = online.recommend(0, k=5)
    stats = online.ingest([0, 0], [before[0], before[1]])  # user 0 consumes two
    after = online.recommend(0, k=5)
    assert before[0] not in after and before[1] not in after
    print(f"online ingest: {stats['ingested']} new pairs folded in; "
          f"user 0 top-5 {before} -> {after}")
    online.compact()
    # top_k bypasses the LRU cache, so this genuinely re-serves post-compact.
    assert [int(i) for i in online.top_k([0], k=5)[0]] == after, \
        "compaction never changes results"
    print(f"online service state: {online!r}")

    # 9. Zero-copy snapshots: freeze the whole serving state (embeddings,
    #    item norms, exclusion CSR, quantised blocks) into ONE versioned,
    #    checksummed file, then serve straight from it — load_snapshot maps
    #    the sections read-only and zero-copy, so a worker's cold start is
    #    O(open) instead of re-freezing from the model.  executor="process"
    #    fans shards out to worker processes that re-open the snapshot by
    #    offset (no matrices are ever pickled); the merge stays bit-exact.
    #    Same flow on the CLI:
    #      repro snapshot save games.snap --model layergcn --dataset games
    #      repro snapshot inspect games.snap
    #      repro recommend --snapshot games.snap --shards 4 --executor process
    import tempfile
    from pathlib import Path

    from repro.engine import save_snapshot

    with tempfile.TemporaryDirectory() as tmp:
        snap_path = save_snapshot(Path(tmp) / "games.snap", service.index)
        print(f"snapshot: {snap_path.stat().st_size} bytes on disk")
        with RecommendationService(snapshot=snap_path, num_shards=4,
                                   executor="process") as from_disk:
            snapshot_top5 = from_disk.top_k(range(3), k=5)
        assert (batch_top5 == snapshot_top5).all(), \
            "snapshot serving must be bit-identical to in-memory serving"
        print("snapshot-served results identical across 4 worker processes")

    # 10. Async micro-batching frontend: production traffic is many
    #     concurrent single-user requests, not pre-formed batches.  The
    #     frontend coalesces concurrent `await recommend(...)` calls (and
    #     `await ingest(...)` events) into shared scoring batches: a miss
    #     goes to the worker as soon as it is free, so requests submitted
    #     together (or while a batch runs) share one service.top_k call of
    #     up to max_batch_size rows.  A bounded queue sheds load above
    #     max_pending.  The 32 requests below (bar LRU hits) form one
    #     batch, so they match a direct 32-user service.top_k bit for bit
    #     (a lone request is scored by gemv instead of gemm and can swap
    #     near-tied items).
    #     Same flow on the CLI:
    #       repro recommend --serve --max-batch-size 32
    import asyncio

    from repro.engine import AsyncRecommendationFrontend

    async def concurrent_clients():
        async with AsyncRecommendationFrontend(
                service, max_batch_size=32) as frontend:
            rows = await asyncio.gather(
                *[frontend.recommend(user, 5) for user in range(32)])
            return rows, frontend.stats()

    rows, stats = asyncio.run(concurrent_clients())
    direct = service.top_k(range(32), k=5)
    assert all(row == [int(i) for i in want]
               for row, want in zip(rows, direct)), \
        "coalescing never changes results"
    print(f"async frontend: {stats['requests']} concurrent requests served "
          f"in {stats['batches']} batches "
          f"(mean occupancy {stats['mean_occupancy']:.1f}); "
          f"cache {service.cache_stats()['hit_rate']:.0%} hit rate")

    # 11. Multi-host serving over sockets: when the catalogue outgrows one
    #     host, each shard runs as its own server process (here two on
    #     localhost; in production one per host via `repro shard-server
    #     games.snap --shard-id I --num-shards S --port P`) serving its
    #     mmap'd slice of the same snapshot.  The router fans every request
    #     out over TCP and keeps the certified exact merge — results stay
    #     bit-identical, and the tier fails closed: a dead shard raises a
    #     typed RemoteShardError (never a silently truncated ranking) and a
    #     shard serving a different snapshot is rejected at handshake.
    #     Same flow on the CLI:
    #       repro recommend --snapshot games.snap --executor remote \
    #           --shard-addr host-a:9000 --shard-addr host-b:9000
    from repro.engine import spawn_shard_server

    with tempfile.TemporaryDirectory() as tmp:
        snap_path = save_snapshot(Path(tmp) / "games.snap", service.index)
        servers = [spawn_shard_server(snap_path, shard_id, 2)
                   for shard_id in range(2)]
        addresses = ["{}:{}".format(*address) for _, address in servers]
        try:
            with RecommendationService(snapshot=snap_path, executor="remote",
                                       shard_addresses=addresses) as router:
                remote_top5 = router.top_k(range(3), k=5)
            assert (batch_top5 == remote_top5).all(), \
                "remote serving must be bit-identical to in-memory serving"
            print(f"remote-served results identical across 2 shard servers "
                  f"({', '.join(addresses)})")
        finally:
            for process, _ in servers:
                process.terminate()
                process.join()

    # 12. Fault tolerance: each --shard-addr can name a replica SET
    #     (`h1:p,h2:p`).  Kill a replica mid-traffic and the router fails
    #     over to its sibling — the answer never changes, only which
    #     replica computes it; a per-replica circuit breaker keeps the dead
    #     one out of the hot path until a half-open probe revives it.  The
    #     WAL makes ingest durable: with wal_path=…, acknowledged events
    #     are replayed on restart bit-identically to a service that never
    #     crashed.  Same flow on the CLI:
    #       repro recommend --executor remote \
    #           --shard-addr host-a:9000,host-b:9000 \
    #           --wal ingest.wal --wal-fsync always
    with tempfile.TemporaryDirectory() as tmp:
        snap_path = save_snapshot(Path(tmp) / "games.snap", service.index)
        replicas = [spawn_shard_server(snap_path, 0, 1) for _ in range(2)]
        replica_set = [["{}:{}".format(*address) for _, address in replicas]]
        try:
            with RecommendationService(snapshot=snap_path, executor="remote",
                                       shard_addresses=replica_set) as router:
                before_kill = router.top_k(range(3), k=5)
                # Kill whichever replica is serving the traffic.
                health = router.health_stats()
                busy = max(range(2), key=lambda r:
                           health["shards"][0]["replicas"][r]["requests"])
                replicas[busy][0].kill()
                replicas[busy][0].join()
                after_kill = router.top_k(range(3), k=5)
                assert (before_kill == after_kill).all(), \
                    "failover never changes results"
                failovers = router.health_stats()["failovers"]
            print(f"replica kill absorbed: {failovers} failover(s), "
                  f"results bit-identical")
        finally:
            for process, _ in replicas:
                if process.is_alive():
                    process.terminate()
                process.join()

        wal_path = Path(tmp) / "ingest.wal"
        with OnlineRecommendationService(snapshot=snap_path,
                                         wal_path=wal_path) as durable:
            target = int(durable.top_k([0], k=1)[0][0])
            durable.ingest([0], [target])  # acked => on disk
        with OnlineRecommendationService(snapshot=snap_path,
                                         wal_path=wal_path) as recovered:
            assert recovered.wal_replayed == 1
            assert target not in recovered.top_k([0], k=5)[0], \
                "acknowledged ingest must survive a restart"
            print(f"WAL recovery: {recovered.wal_replayed} acknowledged "
                  f"batch replayed bit-identically after restart")

    # 13. Observability: every hot path is instrumented into a process
    #     metrics registry (counters + exact-percentile latency
    #     histograms), and installing a Tracer turns each request into a
    #     span tree — carried across asyncio, the frontend's worker
    #     thread, and even the remote wire protocol, so a sharded
    #     request's tree contains the spans the shard SERVERS recorded.
    #     Instrumentation is observation only: results stay
    #     bit-identical with telemetry on or off (gated in CI).
    #     service.stats() is the one unified surface over every stats
    #     dict (cache, certificates, health, online, wal, frontend,
    #     faults, metrics).  Same flow on the CLI:
    #       repro recommend --executor remote --shard-addr … --trace 3
    #       repro recommend --json … | repro stats -
    from repro.engine import Tracer, format_trace, set_tracer

    tracer = Tracer()
    set_tracer(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            snap_path = save_snapshot(Path(tmp) / "games.snap", service.index)
            servers = [spawn_shard_server(snap_path, shard_id, 2)
                       for shard_id in range(2)]
            addresses = ["{}:{}".format(*address) for _, address in servers]
            try:
                with RecommendationService(
                        snapshot=snap_path, executor="remote",
                        shard_addresses=addresses) as router:
                    router.top_k(range(3), k=5)
                    stats = router.stats()
            finally:
                for process, _ in servers:
                    process.terminate()
                    process.join()
    finally:
        set_tracer(None)
    slowest = tracer.slowest(1)[0]
    shard_spans = sum(1 for s in slowest.spans() if s.origin == "shard")
    assert shard_spans == 2, "shard-server spans must stitch into the trace"
    print("slowest request trace (note the [shard] spans that crossed "
          "the wire):")
    print(format_trace(slowest))
    counters = stats["metrics"]["counters"]
    top_k_ms = stats["metrics"]["histograms"]["service.top_k_s"]["p50"] * 1e3
    print(f"unified stats: {counters['remote.requests']} remote requests, "
          f"{counters['service.top_k_calls']} top_k call(s), "
          f"p50 {top_k_ms:.2f} ms; sections = {sorted(stats)}")


if __name__ == "__main__":
    main()
