"""Benchmark — the row-blocked LayerGCN training kernels: parity gate + per-call time.

A LayerGCN training step is dominated by three (N, T) kernels, and each now
works without whole-matrix temporaries:

* ``refine_layer`` (Eq. 6-8) runs its forward and backward products on one
  block of ``ROW_BLOCK`` rows at a time and adds the ego layer's gradient
  terms into a gradient array the running ``backward()`` owns;
* ``Adam.step`` updates the moments and ``param.data`` in place, block by
  block;
* ``Tensor.gather_rows`` sums each gathered row's gradients into a compact
  (unique rows, T) buffer and adds it into those rows only.

This script checks two things:

* **Parity (the CI gate).**  Each kernel must equal its whole-array form bit
  for bit (``np.array_equal``).  Those forms live here, not in ``src/``:
  :func:`whole_array_refine` and :func:`whole_array_refine_backward` repeat
  the unblocked op sequence of the fused refinement, :func:`whole_array_adam`
  the textbook update, and :func:`dense_gather_backward` the
  ``zeros_like`` + ``np.add.at`` + add it replaced.  Inputs hold all-zero
  rows and rows whose norm product falls under ε (the clip's branch), and
  the gate always includes a row count that ``ROW_BLOCK`` does not divide.
* **Time per call.**  Each kernel against its whole-array form, calls
  interleaved, median per side, at the repository benchmark's ``train``
  size (N = 5879 nodes, T = 64) or, with ``REPRO_BENCH_DATASET=tiny``, at
  the ``tiny`` preset's 100 nodes.  Numbers are reported, not asserted.

``REPRO_BENCH_JSON`` names the artifact directory (see ``artifacts.py``).
Run stand-alone with ``python benchmarks/bench_train_kernels.py`` or via
pytest: ``pytest benchmarks/bench_train_kernels.py -s``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.autograd import Adam, Parameter, Tensor  # noqa: E402
from repro.autograd.tensor import ROW_BLOCK  # noqa: E402
from repro.core.refinement import refine_layer  # noqa: E402

EPS = 1e-8
BATCH = 1024
#: (nodes, embedding dim): the ``train`` workload's graph, or the tiny preset.
WORLDS = {"train": (5879, 64), "tiny": (100, 64)}
#: Rows of the parity inputs beside the world's: three blocks, the last partial.
GATE_ROWS = 2 * ROW_BLOCK + 37


# --------------------------------------------------------------------------- #
# Whole-array forms (the parity oracles and timing baselines)
# --------------------------------------------------------------------------- #
def whole_array_refine(h: np.ndarray, e: np.ndarray, eps: float = EPS):
    """Unblocked refinement forward: the refined layer and what backward needs."""
    ego_squared = (e * e).sum(axis=1, keepdims=True) + 1e-12
    hidden_squared = (h * h).sum(axis=1, keepdims=True) + 1e-12
    saved = {
        "ego_norm": ego_squared ** 0.5, "ego_rsqrt": ego_squared ** -0.5,
        "hidden_norm": hidden_squared ** 0.5, "hidden_rsqrt": hidden_squared ** -0.5,
        "dot": (h * e).sum(axis=1, keepdims=True),
    }
    saved["norm_product"] = saved["hidden_norm"] * saved["ego_norm"]
    saved["denom"] = np.clip(saved["norm_product"], eps, None)
    similarity = saved["dot"] / saved["denom"]
    saved["weight"] = similarity + eps
    return h * saved["weight"], similarity, saved


def whole_array_refine_backward(grad, h, e, saved, ego_grad=None, eps: float = EPS):
    """Unblocked refinement backward: (hidden gradient, ego gradient).

    ``ego_grad`` is the ego layer's gradient before this backward (None when
    this is its first contribution); the terms are added to it one by one,
    as separate out-of-place additions.
    """
    denom, dot = saved["denom"], saved["dot"]
    grad_weight = (grad * h).sum(axis=1, keepdims=True)
    grad_dot = grad_weight / denom
    grad_norm_product = (-grad_weight * dot / denom ** 2) * (saved["norm_product"] >= eps)
    square = grad_norm_product * saved["ego_norm"] * 0.5 * saved["hidden_rsqrt"] * h
    grad_hidden = grad * saved["weight"] + square + square + grad_dot * e
    square = grad_norm_product * saved["hidden_norm"] * 0.5 * saved["ego_rsqrt"] * e
    ego_grad = square if ego_grad is None else ego_grad + square
    return grad_hidden, ego_grad + square + grad_dot * h


def whole_array_adam(param, grad, m, v, step, lr=1e-3, betas=(0.9, 0.999),
                     eps=1e-8, weight_decay=0.0):
    """One whole-array Adam update: (parameter, first moment, second moment)."""
    beta1, beta2 = betas
    if weight_decay:
        grad = grad + weight_decay * param
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def dense_gather_backward(existing, like, indices, grad):
    """The replaced gather backward: a full zero array, ``np.add.at``, then add."""
    full = np.zeros_like(like)
    np.add.at(full, indices, grad)
    return full if existing is None else existing + full


def dense_gather_rows(tensor: Tensor, indices) -> Tensor:
    """``Tensor.gather_rows`` with the replaced backward (the timing baseline)."""
    indices = np.asarray(indices, dtype=np.int64)

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(dense_gather_backward(None, tensor.data, indices, grad))

    return Tensor._make(tensor.data[indices], (tensor,), backward)


# --------------------------------------------------------------------------- #
# Inputs and the kernels driven through the library
# --------------------------------------------------------------------------- #
def refinement_inputs(rows: int, dim: int, seed: int = 0):
    """Hidden and ego layers with the rows DegreeDrop and tiny embeddings produce."""
    rng = np.random.default_rng(seed)
    hidden, ego = rng.normal(size=(rows, dim)), rng.normal(size=(rows, dim))
    hidden[0] = 0.0                               # every edge pruned: zero row
    hidden[1] *= 1e-9                             # ||h||·||e|| under ε
    ego[1] *= 1e-9
    hidden[2] = ego[2] = 0.0                      # both rows zero
    hidden[rows - 1] = 0.0                        # zero row in the partial block
    ego[rows // 2] *= 1e-10                       # under ε mid-matrix
    hidden[rows // 2] *= 1e-10
    return hidden, ego, rng.normal(size=(rows, dim))


def refine_kernel(hidden, ego, upstream, ego_grad=None):
    """``refine_layer`` forward + backward; returns its outputs and gradients."""
    h, e = Tensor(hidden, requires_grad=True), Tensor(ego, requires_grad=True)
    e.grad = ego_grad
    refined, similarity = refine_layer(h, e, eps=EPS)
    refined.backward(upstream)
    return refined.data, similarity.data, h.grad, e.grad


def gather_kernel(like, index_sets, grads, existing=None, gather=Tensor.gather_rows):
    """The gradient of one or more row gathers of one tensor, through autograd."""
    t = Tensor(like, requires_grad=True)
    t.grad = existing
    loss = None
    for indices, grad in zip(index_sets, grads):
        term = (gather(t, indices) * grad).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    return t.grad


# --------------------------------------------------------------------------- #
# Parity gate
# --------------------------------------------------------------------------- #
def check_parity(rows: int, dim: int, seed: int = 0) -> int:
    """Assert every kernel equals its whole-array form; returns #comparisons."""
    comparisons = 0
    hidden, ego, upstream = refinement_inputs(rows, dim, seed)
    refined, similarity, saved = whole_array_refine(hidden, ego)
    held = np.random.default_rng(seed + 1).normal(size=ego.shape)
    for ego_grad in (None, held):
        before = None if ego_grad is None else ego_grad.copy()
        got = refine_kernel(hidden, ego, upstream, ego_grad)
        want = (refined, similarity) + whole_array_refine_backward(
            upstream, hidden, ego, saved, ego_grad=before)
        for name, a, b in zip(("refined", "similarity", "hidden.grad", "ego.grad"), got, want):
            assert np.array_equal(a, b), f"refine {name} ({rows} rows) diverges"
            comparisons += 1
        if ego_grad is not None:
            assert np.array_equal(ego_grad, before), "a held ego gradient was written"
    # Two layers refined against one ego layer, as LayerGCN stacks them: the
    # backward that runs second adds into the gradient the first allocated.
    other, _, other_upstream = refinement_inputs(rows, dim, seed + 3)
    first, second = Tensor(hidden, requires_grad=True), Tensor(other, requires_grad=True)
    shared = Tensor(ego, requires_grad=True)
    loss = ((refine_layer(first, shared, eps=EPS)[0] * upstream).sum()
            + (refine_layer(second, shared, eps=EPS)[0] * other_upstream).sum())
    loss.backward()
    ego_grad = whole_array_refine_backward(other_upstream, other, ego,
                                           whole_array_refine(other, ego)[2])[1]
    ego_grad = whole_array_refine_backward(upstream, hidden, ego, saved, ego_grad=ego_grad)[1]
    assert np.array_equal(shared.grad, ego_grad), f"stacked refine ego.grad ({rows} rows) diverges"
    comparisons += 1

    rng = np.random.default_rng(seed + 2)
    for weight_decay in (0.0, 1e-2):
        param = Parameter(rng.normal(size=(rows, dim)))
        expected, m, v = param.data.copy(), np.zeros((rows, dim)), np.zeros((rows, dim))
        opt = Adam([param], lr=1e-2, weight_decay=weight_decay)
        for step in range(1, 4):
            param.grad = rng.normal(size=(rows, dim))
            param.grad[step] = 0.0
            param.grad[rows - step] *= 1e-12
            expected, m, v = whole_array_adam(expected, param.grad, m, v, step, lr=1e-2,
                                              weight_decay=weight_decay)
            opt.step()
            for name, a, b in (("parameter", param.data, expected),
                               ("first moment", opt._first_moment[id(param)], m),
                               ("second moment", opt._second_moment[id(param)], v)):
                assert np.array_equal(a, b), f"Adam {name} diverges at step {step}"
                comparisons += 1

    like = rng.normal(size=(rows, dim))
    index_sets = [rng.integers(0, rows, size=min(BATCH, 4 * rows)) for _ in range(2)]
    index_sets[0][:9] = rows - 1                  # one row gathered many times
    grads = [rng.normal(size=(len(indices), dim)) for indices in index_sets]
    held = rng.normal(size=like.shape)
    cases = {
        "first": (None, index_sets[:1], grads[:1]),
        "owned": (None, index_sets, grads),
        "held": (held, index_sets[:1], grads[:1]),
    }
    for name, (existing, sets, set_grads) in cases.items():
        want = existing
        for indices, grad in zip(sets[::-1], set_grads[::-1]):  # backward order
            want = dense_gather_backward(want, like, indices, grad)
        got = gather_kernel(like, sets, set_grads,
                            None if existing is None else existing.copy())
        assert np.array_equal(got, want), f"gather backward ({name}) diverges"
        comparisons += 1
    return comparisons


# --------------------------------------------------------------------------- #
# Timing
# --------------------------------------------------------------------------- #
def _world_name() -> str:
    return "tiny" if os.environ.get("REPRO_BENCH_DATASET") == "tiny" else "train"


def _median_ms(calls, repeats: int):
    """Median ms per call for each named callable, calls interleaved."""
    samples = {name: [] for name in calls}
    for repeat in range(repeats + 1):  # one warm-up round
        names = list(calls) if repeat % 2 == 0 else list(calls)[::-1]
        for name in names:
            start = time.perf_counter()
            calls[name]()
            if repeat:
                samples[name].append(time.perf_counter() - start)
    return {name: float(np.median(times)) * 1e3 for name, times in samples.items()}


def time_kernels(rows: int, dim: int, seed: int = 0):
    hidden, ego, upstream = refinement_inputs(rows, dim, seed)
    rng = np.random.default_rng(seed + 3)
    param = Parameter(rng.normal(size=(rows, dim)))
    param.grad = rng.normal(size=(rows, dim))
    opt = Adam([param], lr=1e-3)
    m, v = np.zeros((rows, dim)), np.zeros((rows, dim))
    indices = rng.integers(0, rows, size=BATCH)
    gathered = rng.normal(size=(BATCH, dim))
    like = rng.normal(size=(rows, dim))
    h, e = Tensor(hidden, requires_grad=True), Tensor(ego, requires_grad=True)

    def refine_backward():
        h.grad = e.grad = None
        refined, _ = refine_layer(h, e, eps=EPS)
        refined.backward(upstream)

    pairs = {
        "refine forward": (lambda: refine_layer(h, e, eps=EPS),
                           lambda: whole_array_refine(hidden, ego)),
        "refine forward + backward": (
            refine_backward,
            lambda: whole_array_refine_backward(upstream, hidden, ego,
                                                whole_array_refine(hidden, ego)[2])),
        "Adam step": (opt.step,
                      lambda: whole_array_adam(param.data, param.grad, m, v, 1)),
        "two gathers, forward + backward": (
            lambda: gather_kernel(like, [indices, indices], [gathered, gathered]),
            lambda: gather_kernel(like, [indices, indices], [gathered, gathered],
                                  gather=dense_gather_rows)),
    }
    repeats = 30 if rows > 1000 else 200
    rows_out = []
    for kernel, (blocked, whole) in pairs.items():
        medians = _median_ms({"blocked": blocked, "whole": whole}, repeats)
        rows_out.append({"kernel": kernel, "blocked_ms": medians["blocked"],
                         "whole_array_ms": medians["whole"],
                         "speedup": medians["whole"] / medians["blocked"],
                         "calls": repeats})
    return rows_out


def run_train_kernels(world: str = None):
    world = world or _world_name()
    rows, dim = WORLDS[world]
    comparisons = check_parity(GATE_ROWS, 8) + check_parity(rows, dim)
    results = []
    for row in time_kernels(rows, dim):
        row.update({"world": world, "rows": rows, "dim": dim, "row_block": ROW_BLOCK,
                    "parity_checks": comparisons})
        results.append(row)
    return results


def format_rows(rows) -> str:
    header = (f"{'world':<6} {'rows':>5} {'dim':>4} {'kernel':<30} {'calls':>6} "
              f"{'blocked ms':>11} {'whole ms':>9} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['world']:<6} {row['rows']:>5d} {row['dim']:>4d} {row['kernel']:<30} "
            f"{row['calls']:>6d} {row['blocked_ms']:>11.3f} {row['whole_array_ms']:>9.3f} "
            f"{row['speedup']:>7.2f}x")
    return "\n".join(lines)


def _write_artifact(rows) -> None:
    try:
        from .artifacts import write_artifact
    except ImportError:  # pragma: no cover - direct script execution
        from artifacts import write_artifact
    write_artifact("bench_train_kernels", rows, preset=rows[0]["world"])


def test_train_kernels():
    rows = run_train_kernels()
    try:
        from .conftest import print_block
        print_block("Training kernels — row-blocked vs whole-array", format_rows(rows))
    except ImportError:  # pragma: no cover - direct script execution
        print(format_rows(rows))
    _write_artifact(rows)


def main() -> int:
    rows = run_train_kernels()
    print(format_rows(rows))
    _write_artifact(rows)
    print(f"OK: every training kernel equals its whole-array form "
          f"({rows[0]['parity_checks']} comparisons, ROW_BLOCK = {ROW_BLOCK})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
