"""Command-line interface: ``python -m repro <command> ...``.

The subcommands cover the common workflows:

* ``train``      — train one model on one dataset preset (or a CSV) and report metrics.
* ``recommend``  — train (or load a checkpoint) and serve top-K recommendations
                   through the :mod:`repro.engine` RecommendationService, or
                   serve straight from an on-disk snapshot (``--snapshot``,
                   optionally with ``--executor process`` multi-process
                   fan-out) without touching the model at all.
* ``snapshot``   — ``save`` a trained model's frozen serving state as a
                   memory-mappable artifact, or ``inspect`` an existing one.
* ``shard-server`` — serve one shard of a snapshot over TCP; a router started
                   with ``recommend --executor remote --shard-addr host:port``
                   (one flag per shard, in shard order) fans requests out to
                   these servers and merges bit-exactly.
* ``stats``      — pretty-print a unified serving-stats document (the
                   ``stats`` key of a ``recommend --json`` payload, or a
                   raw ``service.stats()`` dump from a benchmark artifact).
* ``experiment`` — run one of the paper's tables/figures by identifier.
* ``models`` / ``datasets`` / ``experiments`` — list what is available.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .data import list_presets, prepare_split
from .eval import evaluate_model
from .experiments import list_experiments, resolve_scale, run_experiment
from .models import available_models, build_model
from .training import Trainer, TrainerConfig
from .utils import load_checkpoint, save_checkpoint

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Layer-refined Graph Convolutional Networks for Recommendation'",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    train = subparsers.add_parser("train", help="train a model on a dataset preset or CSV")
    train.add_argument("--model", default="layergcn", help="registered model name")
    train.add_argument("--dataset", default="games", help="dataset preset name")
    train.add_argument("--csv", default=None, help="path to a user,item,timestamp CSV")
    train.add_argument("--embedding-dim", type=int, default=64)
    train.add_argument("--num-layers", type=int, default=4)
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--learning-rate", type=float, default=0.005)
    train.add_argument("--dropout-ratio", type=float, default=0.1)
    train.add_argument("--edge-dropout", default="degreedrop",
                       choices=["degreedrop", "dropedge", "mixed", "none"])
    train.add_argument("--scale", type=float, default=1.0, help="synthetic dataset scale factor")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--checkpoint", default=None, help="write trained weights to this .npz path")
    train.add_argument("--json", action="store_true", help="emit metrics as JSON")

    recommend = subparsers.add_parser(
        "recommend", help="serve top-K recommendations via the inference engine")
    recommend.add_argument("--model", default="layergcn", help="registered model name")
    recommend.add_argument("--dataset", default="games", help="dataset preset name")
    recommend.add_argument("--csv", default=None, help="path to a user,item,timestamp CSV")
    recommend.add_argument("--embedding-dim", type=int, default=64)
    recommend.add_argument("--num-layers", type=int, default=4)
    recommend.add_argument("--epochs", type=int, default=10,
                           help="training epochs before serving (ignored with --checkpoint)")
    recommend.add_argument("--learning-rate", type=float, default=0.005)
    recommend.add_argument("--scale", type=float, default=1.0)
    recommend.add_argument("--seed", type=int, default=0)
    recommend.add_argument("--checkpoint", default=None,
                           help="load trained weights from this .npz instead of training")
    recommend.add_argument("--users", default="0,1,2",
                           help="comma-separated user ids to recommend for")
    recommend.add_argument("-k", "--top-k", type=int, default=10, dest="top_k")
    recommend.add_argument("--include-train", action="store_true",
                           help="do not exclude items seen during training")
    recommend.add_argument("--shards", type=int, default=1,
                           help="partition the item catalogue into this many shards "
                                "and serve via fan-out/merge (exact results; "
                                "default 1 = unsharded)")
    recommend.add_argument("--shard-policy", default="contiguous",
                           choices=["contiguous", "strided"],
                           help="item partitioning policy for --shards")
    recommend.add_argument("--parallel", action="store_true",
                           help="fan sharded scoring out over a thread pool "
                                "(shard scoring releases the GIL); requires "
                                "--shards > 1")
    recommend.add_argument("--snapshot", default=None, metavar="PATH",
                           help="serve from this snapshot file (written by "
                                "'repro snapshot save') instead of training "
                                "or loading a checkpoint: the frozen "
                                "embeddings, exclusion index and quantised "
                                "blocks are memory-mapped zero-copy, so "
                                "startup is O(open)")
    recommend.add_argument("--executor", default=None,
                           choices=["serial", "threads", "process", "remote"],
                           help="fan-out executor for --shards > 1: 'serial', "
                                "'threads', 'process' (worker processes "
                                "re-open the snapshot by offset — requires "
                                "--snapshot; no matrices are pickled), or "
                                "'remote' (fan out over TCP to 'repro "
                                "shard-server' processes — requires "
                                "--snapshot and one --shard-addr per shard)")
    recommend.add_argument("--shard-addr", action="append", default=None,
                           metavar="HOST:PORT[,HOST:PORT...]",
                           dest="shard_addr",
                           help="with --executor remote: one shard's replica "
                                "set — a server address, or several "
                                "comma-separated replicas of the same shard "
                                "(transport faults fail over between them); "
                                "repeat once per shard, in shard order "
                                "(--shards defaults to the number of "
                                "--shard-addr flags)")
    recommend.add_argument("--candidates", default=None,
                           choices=["int8", "float32"], dest="candidates",
                           help="serve through the two-stage pipeline: "
                                "quantised candidate generation in this "
                                "precision, then exact rescoring with a "
                                "per-batch exactness certificate (default: "
                                "exact single-stage serving)")
    recommend.add_argument("--candidate-factor", type=int, default=4,
                           help="stage-1 candidates per user as a multiple "
                                "of K (only with --candidates; must be >= 1)")
    recommend.add_argument("--adaptive-candidates", action="store_true",
                           help="re-serve uncertified users with a doubled "
                                "candidate factor (up to "
                                "--max-candidate-factor), then fall back to "
                                "the exact path — every served list is then "
                                "provably exact (requires --candidates)")
    recommend.add_argument("--max-candidate-factor", type=int, default=32,
                           help="escalation ceiling for --adaptive-candidates "
                                "(must be >= --candidate-factor)")
    recommend.add_argument("--ingest", default=None, metavar="CSV",
                           help="fold new 'user,item' interaction events from "
                                "this CSV into the serving index before "
                                "recommending (online serving; consumed items "
                                "drop out of those users' lists, unseen user "
                                "ids get a fallback embedding row)")
    recommend.add_argument("--compact-threshold", type=int, default=50_000,
                           help="with --ingest: merge the interaction delta "
                                "into the base index once it reaches this "
                                "many pairs (results are identical before "
                                "and after the merge)")
    recommend.add_argument("--wal", default=None, metavar="PATH",
                           help="durable online serving: append every "
                                "ingested event batch to a checksummed "
                                "write-ahead log at PATH before "
                                "acknowledging it; if PATH already holds a "
                                "log, its records are replayed first "
                                "(crash recovery — a torn final record is "
                                "detected and dropped)")
    recommend.add_argument("--wal-fsync", default="batch",
                           choices=["always", "batch", "off"],
                           dest="wal_fsync",
                           help="with --wal: fsync after every append "
                                "('always'), periodically plus at "
                                "rotation ('batch', default), or never "
                                "('off' — flush only)")
    recommend.add_argument("--serve", action="store_true",
                           help="serve the requested users concurrently "
                                "through the async micro-batching frontend "
                                "(each miss goes to the worker as soon as it "
                                "is free; results match direct serving)")
    recommend.add_argument("--max-batch-size", type=int, default=64,
                           dest="max_batch_size", metavar="N",
                           help="with --serve: coalesce at most N requests "
                                "into one scoring batch (default 64)")
    recommend.add_argument("--max-pending", type=int, default=1024,
                           dest="max_pending", metavar="N",
                           help="with --serve: bounded queue depth before "
                                "load shedding kicks in (default 1024)")
    recommend.add_argument("--trace", type=int, default=None, metavar="N",
                           dest="trace",
                           help="record request traces and print the N "
                                "slowest request trees (span timings per "
                                "serving stage; with --executor remote the "
                                "shard servers' spans are stitched in)")
    recommend.add_argument("--json", action="store_true", help="emit results as JSON")

    stats = subparsers.add_parser(
        "stats",
        help="pretty-print a unified serving-stats document (the 'stats' "
             "key of a 'recommend --json' payload, or a raw "
             "service.stats() dump)")
    stats.add_argument("path", nargs="?", default="-",
                       help="JSON file to read ('-' or omitted = stdin)")
    stats.add_argument("--json", action="store_true",
                       help="re-emit the normalised stats document as JSON")

    snapshot = subparsers.add_parser(
        "snapshot",
        help="save or inspect zero-copy memory-mapped serving snapshots")
    snapshot_sub = snapshot.add_subparsers(dest="snapshot_command")
    snap_save = snapshot_sub.add_parser(
        "save", help="freeze a trained model's serving state to one file")
    snap_save.add_argument("output", help="snapshot file to write")
    snap_save.add_argument("--model", default="layergcn", help="registered model name")
    snap_save.add_argument("--dataset", default="games", help="dataset preset name")
    snap_save.add_argument("--csv", default=None, help="path to a user,item,timestamp CSV")
    snap_save.add_argument("--embedding-dim", type=int, default=64)
    snap_save.add_argument("--num-layers", type=int, default=4)
    snap_save.add_argument("--epochs", type=int, default=10,
                           help="training epochs before freezing (ignored "
                                "with --checkpoint)")
    snap_save.add_argument("--learning-rate", type=float, default=0.005)
    snap_save.add_argument("--scale", type=float, default=1.0)
    snap_save.add_argument("--seed", type=int, default=0)
    snap_save.add_argument("--checkpoint", default=None,
                           help="load trained weights from this .npz instead "
                                "of training")
    snap_save.add_argument("--dtype", default="float64",
                           choices=["float64", "float32"],
                           help="serving dtype of the frozen embeddings")
    snap_save.add_argument("--candidate-modes", default="int8",
                           help="comma-separated quantised candidate blocks "
                                "to persist (subset of int8,float32; 'none' "
                                "to skip)")
    snap_save.add_argument("--json", action="store_true",
                           help="emit the snapshot summary as JSON")
    snap_inspect = snapshot_sub.add_parser(
        "inspect", help="validate a snapshot's header and print its layout")
    snap_inspect.add_argument("path", help="snapshot file to inspect")
    snap_inspect.add_argument("--json", action="store_true",
                              help="emit the header as JSON")

    shard_server = subparsers.add_parser(
        "shard-server",
        help="serve one shard of a snapshot over TCP (consumed by "
             "'recommend --executor remote')")
    shard_server.add_argument("snapshot",
                              help="serving snapshot file — must be a "
                                   "byte-identical copy of the router's "
                                   "(the handshake rejects anything else)")
    shard_server.add_argument("--shard-id", type=int, required=True,
                              metavar="I",
                              help="which shard of the partition this server "
                                   "holds (0-based)")
    shard_server.add_argument("--num-shards", type=int, required=True,
                              metavar="S",
                              help="total number of shards in the partition")
    shard_server.add_argument("--policy", default="contiguous",
                              choices=["contiguous", "strided"],
                              help="item partitioning policy (must match the "
                                   "router's --shard-policy)")
    shard_server.add_argument("--host", default="127.0.0.1",
                              help="interface to bind (default 127.0.0.1; "
                                   "use 0.0.0.0 for multi-host serving)")
    shard_server.add_argument("--port", type=int, default=0,
                              help="TCP port to bind (default 0 = ephemeral; "
                                   "the bound address is printed at startup)")

    experiment = subparsers.add_parser("experiment", help="run a paper table/figure by identifier")
    experiment.add_argument("identifier", help="e.g. table3, fig6 (see 'repro experiments')")
    experiment.add_argument("--scale", default="quick", choices=["quick", "full"])

    subparsers.add_parser("models", help="list registered models")
    subparsers.add_parser("datasets", help="list synthetic dataset presets")
    subparsers.add_parser("experiments", help="list reproducible tables/figures")
    return parser


# Models that accept a num_layers argument (the LayerGCN family plus the
# layered baselines); the LayerGCN family additionally takes dropout options.
LAYERED_MODELS = ("layergcn", "content-layergcn", "ssl-layergcn", "lightgcn",
                  "lightgcn-learnable", "ngcf", "lr-gccf", "imp-gcn")
LAYERGCN_FAMILY = ("layergcn", "content-layergcn", "ssl-layergcn")


def _model_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {"embedding_dim": args.embedding_dim, "seed": args.seed}
    if args.model in LAYERED_MODELS:
        kwargs["num_layers"] = args.num_layers
    if args.model in LAYERGCN_FAMILY and hasattr(args, "dropout_ratio"):
        kwargs["dropout_ratio"] = args.dropout_ratio
        kwargs["edge_dropout"] = args.edge_dropout
    return kwargs


def _command_train(args: argparse.Namespace) -> int:
    split = prepare_split(args.dataset, seed=args.seed, scale=args.scale,
                          source_csv=args.csv)
    model = build_model(args.model, split, **_model_kwargs(args))

    config = TrainerConfig(learning_rate=args.learning_rate, epochs=args.epochs,
                           early_stopping_patience=10, verbose=not args.json)
    history = Trainer(model, split, config).fit()
    result = evaluate_model(model, split, ks=(10, 20, 50))

    payload = {
        "model": args.model,
        "dataset": args.dataset,
        "epochs_run": history.num_epochs_run,
        "best_epoch": history.best_epoch,
        "metrics": result.as_dict(),
    }
    if args.checkpoint:
        path = save_checkpoint(model, args.checkpoint, extra_metadata={"dataset": args.dataset})
        payload["checkpoint"] = str(path)

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"\n{args.model} on {args.dataset}: best epoch {history.best_epoch} "
              f"of {history.num_epochs_run}")
        print("test metrics:", result.format_row(sorted(result.values)))
        if args.checkpoint:
            print(f"checkpoint written to {payload['checkpoint']}")
    return 0


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _load_interaction_events(path: str):
    """Read ``user,item`` integer event rows from a CSV (header tolerated)."""
    users, items = [], []
    try:
        handle = open(path, newline="")
    except OSError as error:
        raise SystemExit(f"error: cannot read --ingest file: {error}")
    with handle:
        first_content_row = True
        for line_number, row in enumerate(csv.reader(handle), start=1):
            if not row or not "".join(row).strip():
                continue
            try:
                user, item = int(row[0]), int(row[1])
            except (ValueError, IndexError):
                # Tolerate a header as the first non-blank row, but only when
                # NO field parses as an id — a typo'd first data row ('O,3')
                # must error, not vanish.
                if first_content_row and not any(
                        _is_int(field) for field in row[:2]):
                    first_content_row = False
                    continue
                raise SystemExit(f"error: --ingest line {line_number}: need "
                                 f"integer user,item columns, got {row!r}")
            first_content_row = False
            if user < 0 or item < 0:
                raise SystemExit(f"error: --ingest line {line_number}: "
                                 f"ids must be non-negative, got {row!r}")
            users.append(user)
            items.append(item)
    if not users:
        raise SystemExit(f"error: --ingest file {path!r} contains no events")
    return np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)


def _serve_recommendations(service, users, args):
    """Serve the requested users through the async micro-batching frontend.

    All users are submitted concurrently, so they coalesce into shared
    scoring batches exactly as concurrent clients would; every row comes
    from ``service.top_k`` (equal to direct serving up to the near-tie
    caveat in :mod:`repro.engine.frontend`).
    """
    import asyncio

    from .engine import AsyncRecommendationFrontend, OverloadedError

    async def run():
        async with AsyncRecommendationFrontend(
                service, max_batch_size=args.max_batch_size,
                max_pending=args.max_pending) as frontend:
            rows = await asyncio.gather(
                *[frontend.recommend(user, args.top_k,
                                     exclude_train=not args.include_train)
                  for user in users])
            return rows, frontend.stats()

    try:
        return asyncio.run(run())
    except OverloadedError:
        raise SystemExit(f"error: --serve: {len(users)} concurrent requests "
                         f"overflow --max-pending {args.max_pending}; raise "
                         f"it or batch fewer users")


def _command_recommend(args: argparse.Namespace) -> int:
    # Validate cheap arguments before any dataset/model/training work.
    if args.top_k <= 0:
        raise SystemExit("error: -k/--top-k must be a positive integer")
    if args.shards <= 0:
        raise SystemExit("error: --shards must be a positive integer")
    if args.parallel and args.shards <= 1:
        raise SystemExit("error: --parallel fans out shard scoring and "
                         "requires --shards > 1")
    if args.parallel and args.executor is not None:
        raise SystemExit("error: pass either --parallel or --executor, "
                         "not both")
    if args.executor == "process" and args.snapshot is None:
        raise SystemExit("error: --executor process ships snapshot offsets "
                         "to worker processes and requires --snapshot PATH")
    if args.executor == "remote":
        if args.snapshot is None:
            raise SystemExit("error: --executor remote pins shard servers to "
                             "the router's snapshot and requires --snapshot "
                             "PATH")
        if not args.shard_addr:
            raise SystemExit("error: --executor remote needs one --shard-addr "
                             "HOST:PORT per shard, in shard order")
        if args.shards > 1 and args.shards != len(args.shard_addr):
            raise SystemExit(f"error: --shards {args.shards} does not match "
                             f"the {len(args.shard_addr)} --shard-addr "
                             f"addresses given")
    elif args.shard_addr:
        raise SystemExit("error: --shard-addr names remote shard servers and "
                         "requires --executor remote")
    if args.snapshot is not None and args.checkpoint is not None:
        raise SystemExit("error: --snapshot already holds frozen embeddings; "
                         "drop --checkpoint (or save a new snapshot from it)")
    if args.candidate_factor < 1:
        raise SystemExit("error: --candidate-factor must be a positive integer")
    if args.adaptive_candidates and args.candidates is None:
        raise SystemExit("error: --adaptive-candidates escalates the two-stage "
                         "pipeline and requires --candidates")
    if args.candidates is not None \
            and args.max_candidate_factor < args.candidate_factor:
        raise SystemExit("error: --max-candidate-factor must be >= "
                         "--candidate-factor")
    if args.compact_threshold < 1:
        raise SystemExit("error: --compact-threshold must be a positive integer")
    if args.trace is not None and args.trace < 1:
        raise SystemExit("error: --trace must be a positive integer")
    if args.serve:
        if args.max_batch_size < 1:
            raise SystemExit("error: --max-batch-size must be a positive "
                             "integer")
        if args.max_pending < 1:
            raise SystemExit("error: --max-pending must be a positive integer")
    try:
        users = [int(u) for u in args.users.split(",") if u.strip() != ""]
    except ValueError:
        raise SystemExit(f"error: --users must be comma-separated integers, got {args.users!r}")
    if not users:
        raise SystemExit("error: --users must name at least one user id")
    events = _load_interaction_events(args.ingest) if args.ingest else None

    ingest_stats = None
    if args.snapshot is not None:
        # Snapshot serving never touches the dataset or the model: the frozen
        # state is memory-mapped straight from the file.
        from .engine import (OnlineRecommendationService,
                             RecommendationService, SnapshotFormatError)
        engine_kwargs = dict(
            num_shards=args.shards, shard_policy=args.shard_policy,
            parallel=args.parallel, executor=args.executor,
            shard_addresses=args.shard_addr,
            candidate_mode=args.candidates,
            candidate_factor=args.candidate_factor,
            candidate_escalation=args.adaptive_candidates,
            max_candidate_factor=args.max_candidate_factor)
        try:
            if events is not None or args.wal is not None:
                # A WAL implies online serving even without fresh --ingest
                # events: opening the log replays any records a previous
                # (possibly crashed) process acknowledged.
                service = OnlineRecommendationService(
                    snapshot=args.snapshot,
                    compact_threshold=args.compact_threshold,
                    wal_path=args.wal, wal_fsync=args.wal_fsync,
                    **engine_kwargs)
            else:
                service = RecommendationService(snapshot=args.snapshot,
                                                **engine_kwargs)
        except (SnapshotFormatError, OSError, ValueError) as error:
            raise SystemExit(f"error: --snapshot: {error}")
        if events is None:
            # WAL replay (if any) already happened in the constructor, so
            # num_users reflects recovered user growth here.
            bad = [u for u in users if not 0 <= u < service.num_users]
            if bad:
                raise SystemExit(f"error: user ids {bad} outside "
                                 f"[0, {service.num_users})")
    else:
        split = prepare_split(args.dataset, seed=args.seed, scale=args.scale,
                              source_csv=args.csv)
        if events is None:
            # With --ingest, unseen user ids are legal (they may be created
            # by the events); the range check moves to after ingestion.
            bad = [u for u in users if not 0 <= u < split.num_users]
            if bad:
                raise SystemExit(f"error: user ids {bad} outside "
                                 f"[0, {split.num_users})")
        model = build_model(args.model, split, **_model_kwargs(args))

        if args.checkpoint:
            load_checkpoint(model, args.checkpoint)
        elif args.epochs > 0:
            config = TrainerConfig(learning_rate=args.learning_rate,
                                   epochs=args.epochs,
                                   early_stopping_patience=5, verbose=False)
            Trainer(model, split, config).fit()
        model.eval()

        if (events is not None or args.wal is not None or args.shards > 1
                or args.candidates is not None or args.executor is not None):
            from .engine import OnlineRecommendationService, RecommendationService
            engine_kwargs = dict(
                num_shards=args.shards, shard_policy=args.shard_policy,
                parallel=args.parallel, executor=args.executor,
                candidate_mode=args.candidates,
                candidate_factor=args.candidate_factor,
                candidate_escalation=args.adaptive_candidates,
                max_candidate_factor=args.max_candidate_factor)
            try:
                if events is not None or args.wal is not None:
                    service = OnlineRecommendationService(
                        model, split, compact_threshold=args.compact_threshold,
                        wal_path=args.wal, wal_fsync=args.wal_fsync,
                        **engine_kwargs)
                else:
                    service = RecommendationService(model, split,
                                                    **engine_kwargs)
            except ValueError as error:
                # e.g. a scorer-fallback model (no item matrix to partition or
                # quantise).
                raise SystemExit(f"error: {error}")
        else:
            service = model.inference_service()
    if events is not None:
        try:
            ingest_stats = service.ingest(*events)
        except (ValueError, IndexError) as error:
            # e.g. event items outside the catalogue, or unseen users on a
            # scorer-fallback model (no embedding row to fall back to).
            raise SystemExit(f"error: --ingest: {error}")
        bad = [u for u in users if not 0 <= u < service.num_users]
        if bad:
            raise SystemExit(f"error: user ids {bad} outside "
                             f"[0, {service.num_users}) after ingest")
    frontend_stats = None
    unified_stats = None
    tracer = None
    if args.trace is not None:
        from .engine import Tracer, set_tracer
        tracer = Tracer(capacity=max(64, args.trace))
        previous_tracer = set_tracer(tracer)
    try:
        if args.serve:
            top, frontend_stats = _serve_recommendations(service, users, args)
        else:
            top = service.top_k(np.asarray(users, dtype=np.int64), args.top_k,
                                exclude_train=not args.include_train)
        stats_fn = getattr(service, "stats", None)
        if stats_fn is not None:
            unified_stats = stats_fn()
    except RuntimeError as error:
        from .engine import RemoteShardError
        if isinstance(error, RemoteShardError):
            # Fail closed with a readable message: an unreachable or stale
            # shard must end the command, never truncate a ranking.
            raise SystemExit(f"error: remote serving failed: {error}")
        raise
    finally:
        if tracer is not None:
            from .engine import set_tracer
            set_tracer(previous_tracer)
        close = getattr(service, "close", None)
        if close is not None:
            close()
    slowest_traces = tracer.slowest(args.trace) if tracer is not None else []

    source = (f"snapshot {args.snapshot}" if args.snapshot is not None
              else f"{args.model} on {args.dataset}")
    payload = {
        "model": None if args.snapshot is not None else args.model,
        "dataset": None if args.snapshot is not None else args.dataset,
        "snapshot": args.snapshot,
        "executor": args.executor,
        "shard_addresses": args.shard_addr,
        "k": args.top_k,
        "shards": service.num_shards if args.executor == "remote"
        else args.shards,
        "parallel": bool(args.parallel),
        "recommendations": {str(u): [int(i) for i in row]
                            for u, row in zip(users, top)},
    }
    cache_stats = getattr(service, "cache_stats", None)
    if cache_stats is not None:
        payload["cache"] = cache_stats()
    if frontend_stats is not None:
        payload["frontend"] = frontend_stats
    # Replica health (remote executor) and ingest durability (WAL): counters
    # survive service.close(), so reading them here is safe.
    health_stats = getattr(service, "health_stats", None)
    if health_stats is not None and (health := health_stats()) is not None:
        payload["health"] = health
    wal_stats = getattr(service, "wal_stats", None)
    if wal_stats is not None:
        payload["wal"] = wal_stats
    if args.candidates is not None:
        payload["candidates"] = service.certificate_stats
    if ingest_stats is not None:
        payload["ingest"] = dict(ingest_stats, **service.online_stats)
    if unified_stats is not None:
        payload["stats"] = unified_stats
    if tracer is not None:
        payload["traces"] = [trace.as_dict() for trace in slowest_traces]
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{source} — {service!r}")
        if ingest_stats is not None:
            print(f"ingested {ingest_stats['ingested']} new pairs from "
                  f"{ingest_stats['events']} events "
                  f"({ingest_stats['new_users']} new users, "
                  f"{ingest_stats['duplicates']} duplicates, "
                  f"compacted={ingest_stats['compacted']})")
        for user, row in zip(users, top):
            print(f"user {user}: {[int(i) for i in row]}")
        if frontend_stats is not None:
            print(f"frontend: {frontend_stats['requests']} requests in "
                  f"{frontend_stats['batches']} batches "
                  f"(max batch size {frontend_stats['max_batch_size']}, "
                  f"mean occupancy {frontend_stats['mean_occupancy']:.1f}, "
                  f"shed {frontend_stats['shed']})")
        if cache_stats is not None:
            stats = payload["cache"]
            print(f"cache: {stats['hits']} hits / {stats['misses']} misses "
                  f"(hit rate {stats['hit_rate']:.2f}, "
                  f"size {stats['size']}/{stats['capacity']})")
        if "health" in payload:
            stats = payload["health"]
            print(f"replicas: {stats['requests']} requests over "
                  f"{stats['num_shards']} shard(s) "
                  f"(replicas per shard {stats['replicas_per_shard']}, "
                  f"failovers {stats['failovers']})")
        if "wal" in payload and payload["wal"] is not None:
            stats = payload["wal"]
            print(f"wal: {stats['records']} records ({stats['bytes']} bytes, "
                  f"fsync {stats['fsync']}, "
                  f"replayed {stats['replayed_records']}, "
                  f"rotations {stats['rotations']})")
        if args.candidates is not None:
            stats = service.certificate_stats
            print(f"certificates: {stats['certified_users']}/{stats['users']} "
                  f"users certified exact "
                  f"({stats['mode']}, factor {stats['factor']})")
            if args.adaptive_candidates:
                print(f"escalation: {stats['escalated_users']} users escalated "
                      f"over {stats['escalation_rounds']} rounds, "
                      f"{stats['exact_fallback_users']} exact fallbacks "
                      f"(max factor {stats['max_factor']})")
        if tracer is not None:
            from .engine import format_trace
            print(f"\n{len(slowest_traces)} slowest request trace(s):")
            for trace in slowest_traces:
                print(format_trace(trace))
    return 0


def _format_metric_value(name: str, value) -> str:
    """Histogram values named ``*_s`` hold seconds; everything else is a
    plain number (batch occupancy, counts)."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        return "?"
    if not name.endswith("_s"):
        return f"{value:g}"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def _compact_value(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _command_stats(args: argparse.Namespace) -> int:
    if args.path in (None, "-"):
        source, text = "<stdin>", sys.stdin.read()
    else:
        try:
            with open(args.path) as handle:
                source, text = args.path, handle.read()
        except OSError as error:
            raise SystemExit(f"error: {error}")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise SystemExit(f"error: {source} is not valid JSON: {error}")
    if not isinstance(document, dict):
        raise SystemExit(f"error: {source} does not hold a JSON object")
    # Accept either a bare service.stats() document or a whole
    # 'recommend --json' payload wrapping one under its "stats" key.
    stats = document["stats"] if isinstance(document.get("stats"), dict) \
        else document
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    shown = False
    for key in ("service", "cache", "certificates", "health", "online",
                "wal", "frontend"):
        section = stats.get(key)
        if section is None:
            continue
        shown = True
        if not isinstance(section, dict):
            print(f"{key}: {section}")
            continue
        body = ", ".join(f"{name}={_compact_value(value)}"
                         for name, value in section.items()
                         if not isinstance(value, (dict, list)))
        print(f"{key}: {body}" if body else f"{key}: (nested)")
    faults = stats.get("faults")
    if isinstance(faults, dict):
        shown = True
        fired = faults.get("fired_events") or []
        print(f"faults: {len(fired)} injected fault(s) fired")
        for event in fired:
            if isinstance(event, dict):
                print(f"  {event.get('site')}#{event.get('index')} "
                      f"{event.get('kind')}")
    metrics_doc = stats.get("metrics")
    if isinstance(metrics_doc, dict):
        shown = True
        counters = metrics_doc.get("counters") or {}
        gauges = metrics_doc.get("gauges") or {}
        histograms = metrics_doc.get("histograms") or {}
        state = "on" if metrics_doc.get("enabled", True) else "off"
        print(f"metrics ({state}): {len(counters)} counters, "
              f"{len(gauges)} gauges, {len(histograms)} histograms")
        for name in sorted(counters):
            print(f"  {name} = {counters[name]}")
        for name in sorted(gauges):
            print(f"  {name} ~ {_compact_value(gauges[name])}")
        for name in sorted(histograms):
            summary = histograms[name]
            if not isinstance(summary, dict) or not summary.get("count"):
                continue
            rendered = " ".join(
                f"{stat}={_format_metric_value(name, summary.get(stat))}"
                for stat in ("mean", "p50", "p90", "p99", "max"))
            print(f"  {name}: n={summary['count']} {rendered}")
    if not shown:
        raise SystemExit(f"error: {source} holds none of the unified stats "
                         f"sections (service/cache/.../metrics)")
    return 0


def _command_snapshot(args: argparse.Namespace) -> int:
    if args.snapshot_command == "save":
        return _command_snapshot_save(args)
    if args.snapshot_command == "inspect":
        return _command_snapshot_inspect(args)
    raise SystemExit("error: snapshot needs a subcommand: save or inspect")


def _command_snapshot_save(args: argparse.Namespace) -> int:
    modes_text = args.candidate_modes.strip().lower()
    if modes_text in ("", "none"):
        modes = ()
    else:
        modes = tuple(mode.strip() for mode in modes_text.split(","))
        bad = [mode for mode in modes if mode not in ("int8", "float32")]
        if bad:
            raise SystemExit(f"error: unknown --candidate-modes {bad}; "
                             f"options: int8,float32 (or 'none')")

    split = prepare_split(args.dataset, seed=args.seed, scale=args.scale,
                          source_csv=args.csv)
    model = build_model(args.model, split, **_model_kwargs(args))
    if args.checkpoint:
        load_checkpoint(model, args.checkpoint)
    elif args.epochs > 0:
        config = TrainerConfig(learning_rate=args.learning_rate,
                               epochs=args.epochs,
                               early_stopping_patience=5, verbose=False)
        Trainer(model, split, config).fit()
    model.eval()

    from .engine import InferenceIndex, save_snapshot, snapshot_info
    try:
        index = InferenceIndex.from_model(model, split,
                                          dtype=np.dtype(args.dtype))
        path = save_snapshot(args.output, index, candidate_modes=modes,
                             metadata={"model": args.model,
                                       "dataset": args.dataset,
                                       "seed": args.seed})
    except (ValueError, OSError) as error:
        # e.g. a scorer-fallback model (no matrices to persist) or an
        # unwritable output path.
        raise SystemExit(f"error: {error}")
    header = snapshot_info(path)
    payload = {
        "snapshot": str(path),
        "bytes": path.stat().st_size,
        "users": header["num_users"],
        "items": header["num_items"],
        "dim": header["dim"],
        "dtype": header["dtype"],
        "candidate_modes": header["candidate_modes"],
        "sections": sorted(header["sections"]),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"wrote {payload['bytes']} bytes to {path}")
        print(f"{payload['users']} users x {payload['items']} items, "
              f"dim {payload['dim']}, dtype {payload['dtype']}, "
              f"candidate modes {payload['candidate_modes'] or ['(none)']}")
        print("serve it with: repro recommend --snapshot", path)
    return 0


def _command_snapshot_inspect(args: argparse.Namespace) -> int:
    from .engine import SnapshotFormatError, snapshot_info
    try:
        header = snapshot_info(args.path)
    except (SnapshotFormatError, OSError) as error:
        raise SystemExit(f"error: {error}")
    if args.json:
        print(json.dumps(header, indent=2, sort_keys=True))
        return 0
    print(f"{args.path}: serving snapshot v{header['format_version']}")
    print(f"  {header['num_users']} users x {header['num_items']} items, "
          f"dim {header['dim']}, dtype {header['dtype']}")
    print(f"  exclusion: {'yes' if header['has_exclusion'] else 'no'}; "
          f"candidate modes: {header['candidate_modes'] or '(none)'}")
    for name in sorted(header["sections"]):
        spec = header["sections"][name]
        print(f"  section {name}: {spec['dtype']} "
              f"{tuple(spec['shape'])} @ +{spec['offset']} "
              f"({spec['nbytes']} bytes)")
    if header.get("metadata"):
        print(f"  metadata: {header['metadata']}")
    return 0


def _command_shard_server(args: argparse.Namespace) -> int:
    if args.num_shards < 1:
        raise SystemExit("error: --num-shards must be a positive integer")
    if not 0 <= args.shard_id < args.num_shards:
        raise SystemExit(f"error: --shard-id must be in "
                         f"[0, {args.num_shards}), got {args.shard_id}")
    if not 0 <= args.port < 65536:
        raise SystemExit(f"error: --port must be in [0, 65536), "
                         f"got {args.port}")
    from .engine import ShardServer, SnapshotFormatError
    try:
        server = ShardServer(args.snapshot, args.shard_id, args.num_shards,
                             policy=args.policy, host=args.host,
                             port=args.port)
    except (SnapshotFormatError, OSError, ValueError) as error:
        raise SystemExit(f"error: {error}")
    host, port = server.address
    print(f"shard {args.shard_id}/{args.num_shards} ({args.policy}) of "
          f"{args.snapshot} — {server.shard_items} of {server.num_items} "
          f"items, fingerprint {server.fingerprint}")
    # Exact marker line consumed by launchers (the benchmark, scripts) to
    # learn the bound ephemeral port; flush so a piped reader sees it now.
    print(f"listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    output = run_experiment(args.identifier, scale=resolve_scale(args.scale))
    # Results are lists of dicts or dicts of arrays; render something readable
    # without depending on the exact shape.
    if isinstance(output, list):
        for row in output:
            print({key: value for key, value in row.items() if not hasattr(value, "shape")})
    elif isinstance(output, dict):
        for key, value in output.items():
            if hasattr(value, "shape"):
                print(f"{key}: array{tuple(value.shape)}")
            else:
                print(f"{key}: {value}")
    else:
        print(output)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "train":
        return _command_train(args)
    if args.command == "recommend":
        return _command_recommend(args)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "snapshot":
        return _command_snapshot(args)
    if args.command == "shard-server":
        return _command_shard_server(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "models":
        print("\n".join(available_models()))
        return 0
    if args.command == "datasets":
        print("\n".join(list_presets()))
        return 0
    if args.command == "experiments":
        print("\n".join(list_experiments()))
        return 0
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
