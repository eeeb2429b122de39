"""Benchmark — sharded top-K serving: exact parity gate + fan-out throughput.

Partitions the frozen item-embedding matrix into S shards (contiguous and
strided policies) and serves batched top-K through
:class:`repro.engine.ShardedInferenceIndex`, checking two things:

* **Parity (the CI gate).**  For S ∈ {1, 2, 4, 7} the sharded path must
  return *bit-exact* top-K lists (same ids, same order) as the unsharded
  :class:`InferenceIndex` oracle: the masked path at a ``k`` inside the
  finite-score region and at the whole catalogue (the ``-inf`` masked tail,
  ranked by ascending id on both sides), and the unmasked path at a ``k``
  larger than every shard (so the k>items-per-shard and empty-shard merge
  behaviour is exercised end-to-end).  Any drift between the shard merge and
  the single-matrix ranking fails the build.
* **Executor parity (also gated).**  Every local executor — serial,
  threaded, and process workers over a snapshot saved to a temp dir — must
  serve the oracle's top-K bit for bit at every S: all three run each shard
  request through the same ``run_shard_request``.
* **Throughput.**  Full-catalogue top-K over all users, timed per shard
  count with each of those executors.  On the toy synthetic presets fan-out
  overhead usually beats the BLAS win — the numbers are reported for trend
  tracking, not asserted (sharding pays off past the single-worker memory
  wall, which no CI-sized preset reaches).

Environment knobs: ``REPRO_BENCH_DATASET`` (e.g. ``tiny`` for the CI smoke
run) and ``REPRO_BENCH_JSON`` (artifact directory, see ``artifacts.py``).

Run stand-alone with ``python benchmarks/bench_sharded_serving.py`` or via
pytest: ``pytest benchmarks/bench_sharded_serving.py -s``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.data import chronological_split, dataset_preset  # noqa: E402
from repro.engine import (  # noqa: E402
    InferenceIndex,
    ProcessExecutor,
    SerialExecutor,
    ShardedInferenceIndex,
    ThreadedExecutor,
    save_snapshot,
)
from repro.models import LightGCN  # noqa: E402

SHARD_COUNTS = (1, 2, 4, 7)
POLICIES = ("contiguous", "strided")
DEFAULT_DATASETS = ("mooc", "games")
TOP_K = 10


def _datasets():
    override = os.environ.get("REPRO_BENCH_DATASET")
    if override:
        return tuple(name.strip() for name in override.split(",") if name.strip())
    return DEFAULT_DATASETS


def _time(callable_, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _build_index(name: str) -> InferenceIndex:
    split = chronological_split(dataset_preset(name, seed=0))
    model = LightGCN(split, embedding_dim=64, num_layers=3, seed=0)
    model.eval()
    return InferenceIndex.from_model(model, split)


def check_parity(index: InferenceIndex) -> int:
    """Assert bit-exact shard/unshard agreement; returns #comparisons made.

    Both sides rank under (score descending, item id ascending), so exact
    ties — the ``-inf`` masked tail at ``k`` = catalogue size included —
    must agree too.
    """
    users = np.arange(index.num_users, dtype=np.int64)
    # Finite-score region for the masked path: no user's list may reach into
    # the -inf tail.
    max_degree = int(index.exclusion.counts().max())
    masked_k = max(1, min(TOP_K, index.num_items - max_degree))
    # Deep k on the unmasked path: larger than every shard under the largest
    # S, so local k-truncation and short/empty tail shards are exercised.
    deep_k = index.num_items

    oracle_masked = index.top_k(users, masked_k, exclude_train=True)
    oracle_tail = index.top_k(users, deep_k, exclude_train=True)
    oracle_deep = index.top_k(users, deep_k, exclude_train=False)

    comparisons = 0
    for num_shards in SHARD_COUNTS:
        for policy in POLICIES:
            sharded = ShardedInferenceIndex.from_index(
                index, num_shards, policy=policy)
            got = sharded.top_k(users, masked_k, exclude_train=True)
            assert np.array_equal(oracle_masked, got), (
                f"sharded top-{masked_k} (S={num_shards}, {policy}, masked) "
                f"diverges from the unsharded oracle")
            got = sharded.top_k(users, deep_k, exclude_train=True)
            assert np.array_equal(oracle_tail, got), (
                f"sharded top-{deep_k} (S={num_shards}, {policy}, masked "
                f"tail) diverges from the unsharded oracle")
            got = sharded.top_k(users, deep_k, exclude_train=False)
            assert np.array_equal(oracle_deep, got), (
                f"sharded top-{deep_k} (S={num_shards}, {policy}, unmasked) "
                f"diverges from the unsharded oracle")
            comparisons += 3
    return comparisons


def _executors(snapshot_path, num_shards: int):
    """Every local executor, each fresh for one S-shard index."""
    return ((SerialExecutor(), "serial"), (ThreadedExecutor(), "threads"),
            (ProcessExecutor(snapshot_path, num_shards), "process"))


def run_sharded_serving(datasets=None, repeats: int = 3):
    """Parity-check and time every (dataset, shard count, executor) cell."""
    rows = []
    for name in (datasets or _datasets()):
        index = _build_index(name)
        users = np.arange(index.num_users, dtype=np.int64)
        comparisons = check_parity(index)
        oracle = index.top_k(users, TOP_K)

        baseline = _time(lambda: index.top_k(users, TOP_K), repeats)
        with tempfile.TemporaryDirectory() as tmp:
            snapshot_path = save_snapshot(Path(tmp) / "serve.snap", index)
            for num_shards in SHARD_COUNTS:
                for executor, mode in _executors(snapshot_path, num_shards):
                    with executor:  # releases its pool
                        sharded = ShardedInferenceIndex.from_index(
                            index, num_shards, executor=executor)
                        got = sharded.top_k(users, TOP_K)
                        assert np.array_equal(oracle, got), (
                            f"{mode} fan-out (S={num_shards}) diverges from "
                            f"the unsharded oracle")
                        elapsed = _time(lambda: sharded.top_k(users, TOP_K),
                                        repeats)
                    rows.append({
                        "dataset": name,
                        "users": int(index.num_users),
                        "items": int(index.num_items),
                        "shards": num_shards,
                        "mode": mode,
                        "unsharded_ms": baseline * 1e3,
                        "sharded_ms": elapsed * 1e3,
                        "users_per_s": index.num_users / elapsed,
                        "relative": baseline / elapsed,
                        "parity_checks": comparisons,
                    })
    return rows


def format_rows(rows) -> str:
    header = (f"{'dataset':<10} {'users':>6} {'items':>6} {'S':>3} "
              f"{'mode':>8} {'unsharded ms':>13} {'sharded ms':>11} "
              f"{'users/s':>10} {'rel':>6}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['dataset']:<10} {row['users']:>6d} {row['items']:>6d} "
            f"{row['shards']:>3d} {row['mode']:>8} "
            f"{row['unsharded_ms']:>13.2f} {row['sharded_ms']:>11.2f} "
            f"{row['users_per_s']:>10.0f} {row['relative']:>5.2f}x")
    return "\n".join(lines)


def _write_artifact(rows) -> None:
    try:
        from .artifacts import write_artifact
    except ImportError:  # pragma: no cover - direct script execution
        from artifacts import write_artifact
    preset = ",".join(sorted({row["dataset"] for row in rows}))
    write_artifact("bench_sharded_serving", rows, preset=preset)


def test_sharded_serving():
    rows = run_sharded_serving()
    try:
        from .conftest import print_block
        print_block("Sharded serving — exact fan-out/merge vs single matrix",
                    format_rows(rows))
    except ImportError:  # pragma: no cover - direct script execution
        print(format_rows(rows))
    _write_artifact(rows)


def main() -> int:
    rows = run_sharded_serving()
    print(format_rows(rows))
    _write_artifact(rows)
    print(f"OK: bit-exact top-K parity across S={SHARD_COUNTS}, "
          f"policies={POLICIES}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
