"""Benchmark — the exact top-k kernel: parity gate + per-call time vs argpartition.

:func:`repro.engine.index.top_k_indices` is the one selection routine behind
``InferenceIndex.top_k`` (factorised and scorer paths), the sharded fan-out's
per-shard lists and ``RankingEvaluator``.  This script checks two things:

* **Parity (the CI gate).**  The kernel must equal a per-row
  ``np.lexsort((ids, -scores))`` oracle (score descending, item id ascending,
  NaN last) bit for bit on tie-heavy integer rows, ``-inf``-masked rows
  (including rows with fewer than k finite scores), NaN-bearing rows and
  ``k`` up to the row width — and ``InferenceIndex.top_k`` must equal the
  oracle over its own masked score batch.
* **Time and memory per call.**  ``InferenceIndex.top_k`` on a dim-64
  world at the repository benchmark's ``serve-batch`` shape (40,000 users x
  20,000 items, 15 exclusions per user), at batch sizes 1, 3, 8, 64 and
  1024, against the same call with the selection swapped for
  :func:`argpartition_top_k` (``argpartition`` on ``-scores``, then a stable
  sort of the k winners: the routine this kernel replaced, kept here only as
  the timing baseline), and for each of the kernel's two paths forced on
  every batch: the full-row path and the block prefilter.  The last two
  show each side of the kernel's ``_MIN_PREFILTER_CELLS`` cut-over, which
  both worlds straddle (one row of 20,000 items and 1-8 rows of 1,000 fall
  below it).  Calls alternate between the four and each side reports its
  median.  One more call per side reports the peak NumPy allocation of the
  selection (``tracemalloc``; the process's peak RSS is a high-water mark
  that cannot isolate one call).  A last row serves a batch of 1024 from a
  model with zero user embeddings, so every servable item ties.  Numbers
  are reported, not asserted.

Environment knobs: ``REPRO_BENCH_DATASET=tiny`` shrinks the world to
2,000 x 1,000 for the CI smoke run, and ``REPRO_BENCH_JSON`` names the
artifact directory (see ``artifacts.py``).

Run stand-alone with ``python benchmarks/bench_top_k.py`` or via pytest:
``pytest benchmarks/bench_top_k.py -s``.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.engine import InferenceIndex, UserItemIndex  # noqa: E402
from repro.engine import index as engine_index  # noqa: E402
from repro.engine.index import top_k_indices  # noqa: E402

TOP_K = 20
DIM = 64
EXCLUSIONS_PER_USER = 15
BATCH_SIZES = (1, 3, 8, 64, 1024)
#: (users, items) of the world: the serve-batch shape, or the CI smoke size.
WORLDS = {"serve-batch": (40_000, 20_000), "tiny": (2_000, 1_000)}


def argpartition_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The replaced selection routine, kept as the timing baseline only.

    ``argpartition`` breaks ties at the k-th score arbitrarily, so it is not
    exact under the kernel's total order; it makes a negated copy of the
    block and a ``(rows, items)`` index array.
    """
    k = min(int(k), scores.shape[1])
    partition = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
    row_scores = np.take_along_axis(scores, partition, axis=1)
    order = np.argsort(-row_scores, axis=1, kind="stable")
    return np.take_along_axis(partition, order, axis=1)


def lexsort_oracle(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row ``np.lexsort`` under (score descending, item id ascending)."""
    width = min(int(k), scores.shape[1])
    ids = np.arange(scores.shape[1])
    out = np.empty((scores.shape[0], width), dtype=np.int64)
    for row, values in enumerate(scores):
        out[row] = np.lexsort((ids, -values))[:width]
    return out


def _world_name() -> str:
    return "tiny" if os.environ.get("REPRO_BENCH_DATASET") == "tiny" else "serve-batch"


def build_index(num_users: int, num_items: int, seed: int = 0) -> InferenceIndex:
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(num_users), EXCLUSIONS_PER_USER)
    items = rng.integers(0, num_items, users.size)
    return InferenceIndex(
        num_users, num_items,
        user_embeddings=rng.normal(size=(num_users, DIM)),
        item_embeddings=rng.normal(size=(num_items, DIM)),
        exclusion=UserItemIndex(num_users, num_items, users, items))


def parity_blocks(width: int, rng) -> dict:
    """Score blocks whose ranking depends on the tie and NaN order."""
    ties = rng.integers(0, 4, size=(16, width)).astype(np.float64)
    masked = rng.normal(size=(16, width))
    masked[rng.random(masked.shape) < 0.9] = -np.inf
    masked[:4, TOP_K // 2:] = -np.inf  # fewer than k finite scores
    nans = rng.integers(0, 8, size=(16, width)).astype(np.float64)
    nans[rng.random(nans.shape) < 0.2] = -np.inf
    nans[rng.random(nans.shape) < 0.2] = np.nan
    nans[0] = np.nan
    return {"tie-heavy": ties, "-inf-masked": masked, "NaN-bearing": nans}


def check_parity(index: InferenceIndex, seed: int = 0) -> int:
    """Assert the kernel equals the lexsort oracle; returns #comparisons."""
    rng = np.random.default_rng(seed)
    comparisons = 0
    for width in (index.num_items, index.num_items - 7, 61):
        for name, scores in parity_blocks(width, rng).items():
            for k in (1, TOP_K, 5 * TOP_K, width):
                assert np.array_equal(top_k_indices(scores, k),
                                      lexsort_oracle(scores, k)), (
                    f"top-{k} of {name} rows (width {width}) diverges "
                    f"from the lexsort oracle")
                comparisons += 1
    users = rng.choice(index.num_users, size=64, replace=False)
    for k in (TOP_K, index.num_items):
        expected = lexsort_oracle(index.scores(users, mask_train=True), k)
        assert np.array_equal(index.top_k(users, k), expected), (
            f"InferenceIndex.top_k at k={k} diverges from the lexsort oracle")
        comparisons += 1
    return comparisons


def _calls(batch: int) -> int:
    """Interleaved calls per side: many where one call is short and noisy."""
    if batch <= 8:
        return 1000
    return 200 if batch <= 64 else 15


def full_row_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The kernel's full-row path alone, as if no block prefilter ran."""
    return engine_index._top_k_full(scores, min(int(k), scores.shape[1]))


def prefilter_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The kernel with its block prefilter on at every batch size."""
    cells = engine_index._MIN_PREFILTER_CELLS
    engine_index._MIN_PREFILTER_CELLS = 0
    try:
        return top_k_indices(scores, k)
    finally:
        engine_index._MIN_PREFILTER_CELLS = cells


SELECTIONS = {"kernel": top_k_indices, "argpartition": argpartition_top_k,
              "full_path": full_row_top_k, "prefilter": prefilter_top_k}


def _timed_call(index: InferenceIndex, users: np.ndarray, select) -> float:
    engine_index.top_k_indices = select
    try:
        start = time.perf_counter()
        index.top_k(users, TOP_K)
        return time.perf_counter() - start
    finally:
        engine_index.top_k_indices = top_k_indices


def _peak_mb(index: InferenceIndex, users: np.ndarray, select) -> float:
    tracemalloc.start()
    try:
        _timed_call(index, users, select)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def time_top_k(index: InferenceIndex, batch: int, seed: int = 0):
    """Median seconds per ``index.top_k`` call and peak MB, per selection."""
    rng = np.random.default_rng(seed + batch)
    samples = {name: [] for name in SELECTIONS}
    calls = _calls(batch)
    for call in range(calls + 2):  # two warm-up rounds fill the score buffer
        users = rng.choice(index.num_users, size=batch, replace=False)
        names = list(SELECTIONS) if call % 2 == 0 else list(SELECTIONS)[::-1]
        for name in names:
            elapsed = _timed_call(index, users, SELECTIONS[name])
            if call >= 2:
                samples[name].append(elapsed)
    medians = {name: float(np.median(t)) for name, t in samples.items()}
    peaks = {name: _peak_mb(index, users, select)
             for name, select in SELECTIONS.items()}
    return medians, peaks, calls


def run_top_k(world: str = None):
    world = world or _world_name()
    num_users, num_items = WORLDS[world]
    index = build_index(num_users, num_items)
    comparisons = check_parity(index)
    tied = InferenceIndex(
        num_users, num_items,
        user_embeddings=np.zeros_like(index.user_embeddings),
        item_embeddings=index.item_embeddings, exclusion=index.exclusion)
    cases = [("random", index, batch) for batch in BATCH_SIZES]
    cases.append(("all-tied", tied, BATCH_SIZES[-1]))
    rows = []
    for case, case_index, batch in cases:
        medians, peaks, calls = time_top_k(case_index, batch)
        rows.append({
            "world": world,
            "case": case,
            "users": num_users,
            "items": num_items,
            "k": TOP_K,
            "batch": batch,
            "calls": calls,
            "kernel_us": medians["kernel"] * 1e6,
            "argpartition_us": medians["argpartition"] * 1e6,
            "full_path_us": medians["full_path"] * 1e6,
            "prefilter_us": medians["prefilter"] * 1e6,
            "speedup": medians["argpartition"] / medians["kernel"],
            "users_per_s": batch / medians["kernel"],
            "kernel_peak_mb": peaks["kernel"],
            "argpartition_peak_mb": peaks["argpartition"],
            "parity_checks": comparisons,
        })
    return rows


def format_rows(rows) -> str:
    header = (f"{'world':<12} {'case':<9} {'items':>6} {'batch':>6} "
              f"{'calls':>6} {'kernel us':>11} {'argpart us':>11} "
              f"{'full us':>10} {'prefilt us':>11} {'speedup':>8} {'users/s':>10} "
              f"{'kernel MB':>10} {'argpart MB':>11}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['world']:<12} {row['case']:<9} {row['items']:>6d} "
            f"{row['batch']:>6d} {row['calls']:>6d} "
            f"{row['kernel_us']:>11.1f} {row['argpartition_us']:>11.1f} "
            f"{row['full_path_us']:>10.1f} {row['prefilter_us']:>11.1f} "
            f"{row['speedup']:>7.2f}x "
            f"{row['users_per_s']:>10.0f} {row['kernel_peak_mb']:>10.1f} "
            f"{row['argpartition_peak_mb']:>11.1f}")
    return "\n".join(lines)


def _write_artifact(rows) -> None:
    try:
        from .artifacts import write_artifact
    except ImportError:  # pragma: no cover - direct script execution
        from artifacts import write_artifact
    write_artifact("bench_top_k", rows, preset=rows[0]["world"])


def test_top_k_kernel():
    rows = run_top_k()
    try:
        from .conftest import print_block
        print_block("Top-k kernel — InferenceIndex.top_k vs argpartition",
                    format_rows(rows))
    except ImportError:  # pragma: no cover - direct script execution
        print(format_rows(rows))
    _write_artifact(rows)


def main() -> int:
    rows = run_top_k()
    print(format_rows(rows))
    _write_artifact(rows)
    print(f"OK: top-k kernel equals the lexsort oracle "
          f"({rows[0]['parity_checks']} comparisons)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
