"""Output checks, run after each timed phase and never timed.

Each check returns a list of failure strings; an empty list is a pass.
The serving oracle recomputes exact float64 scores with NumPy alone, so it
shares no code with the engine it checks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["flat_keys", "contains", "check_top_k", "check_loss_record"]

_BLOCK = 1024


def flat_keys(users: np.ndarray, items: np.ndarray, num_items: int) -> np.ndarray:
    """Sorted unique ``user * num_items + item`` keys."""
    return np.unique(np.asarray(users, dtype=np.int64) * np.int64(num_items)
                     + np.asarray(items, dtype=np.int64))


def _user_pairs(keys: np.ndarray, users: np.ndarray, num_items: int):
    """(row, item) of every key belonging to ``users[row]``."""
    low = np.searchsorted(keys, users * np.int64(num_items))
    high = np.searchsorted(keys, (users + 1) * np.int64(num_items))
    counts = high - low
    rows = np.repeat(np.arange(users.size), counts)
    offsets = np.repeat(low - (np.cumsum(counts) - counts), counts)
    positions = np.arange(rows.size) + offsets
    return rows, keys[positions] - users[rows] * np.int64(num_items)


def check_top_k(users: np.ndarray, lists: np.ndarray, user_matrix: np.ndarray,
                item_matrix: np.ndarray, excluded: np.ndarray,
                k: int) -> Tuple[List[str], float]:
    """Every list is a valid exact top-``k`` of its user, best first.

    Items must be ``k`` distinct in-range ids, none excluded, each scoring
    at least the ``k``-th best allowed score minus ``1e-9 * max|score|``,
    in non-increasing score order (within the same tolerance).  Returns the
    failures and the recall of the lists against the exact top-``k`` sets
    (1.0 unless near-ties within the tolerance swapped an item).
    """
    users = np.asarray(users, dtype=np.int64)
    lists = np.asarray(lists)
    num_items = item_matrix.shape[0]
    if lists.shape != (users.size, k):
        return [f"shape {lists.shape} != {(users.size, k)}"], 0.0
    if lists.min() < 0 or lists.max() >= num_items:
        return ["item id out of range"], 0.0
    failures = []
    ordered = np.sort(lists, axis=1)
    duplicates = int((ordered[:, 1:] == ordered[:, :-1]).any(axis=1).sum())
    if duplicates:
        failures.append(f"{duplicates} lists repeat an item")
    excluded_hits = below = misordered = found = 0
    for start in range(0, users.size, _BLOCK):
        block = users[start:start + _BLOCK]
        served_items = lists[start:start + _BLOCK]
        scores = user_matrix[block] @ item_matrix.T
        tolerance = 1e-9 * float(np.abs(scores).max())
        rows, items = _user_pairs(excluded, block, num_items)
        scores[rows, items] = -np.inf
        exact = np.argpartition(scores, num_items - k, axis=1)[:, num_items - k:]
        kth = np.take_along_axis(scores, exact, axis=1).min(axis=1)
        served = np.take_along_axis(scores, served_items, axis=1)
        excluded_hits += int(np.isneginf(served).any(axis=1).sum())
        below += int((served < kth[:, None] - tolerance).any(axis=1).sum())
        misordered += int((np.diff(served, axis=1) > tolerance).any(axis=1).sum())
        found += int((exact[:, :, None] == served_items[:, None, :]).any(axis=2).sum())
    if excluded_hits:
        failures.append(f"{excluded_hits} lists contain an excluded item")
    if below:
        failures.append(f"{below} lists hold an item below the exact {k}-th score")
    if misordered:
        failures.append(f"{misordered} lists are not best-first")
    return failures, found / float(users.size * k)


def contains(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership of ``queries`` in the sorted key array ``keys``."""
    if keys.size == 0:
        return np.zeros(np.shape(queries), dtype=bool)
    positions = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    return keys[positions] == queries


def check_loss_record(path: Path, loss_hex: str) -> Optional[str]:
    """The first-epoch loss at this seed equals the recorded one, bit for bit.

    The first run in a checkout records the value; every later run at the
    same seed and inputs compares against it.  Delete the record after a
    change that is meant to alter training arithmetic.
    """
    if path.exists():
        recorded = json.loads(path.read_text())["first_epoch_loss"]
        if recorded != loss_hex:
            return (f"first-epoch loss {float.fromhex(loss_hex)!r} differs from "
                    f"the recorded {float.fromhex(recorded)!r} ({path.name})")
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"first_epoch_loss": loss_hex}))
    return None
