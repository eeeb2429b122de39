"""Seeded, vectorised input generation for the benchmark workloads.

Everything a measured child process consumes is made here, in the parent,
and cached as ``.npz`` under ``bench-artifacts/bench/cache/`` keyed by the
generator version, the parameters and the seed.  The same seed always gives
the same arrays.  The latent world (weights, factors, topics) is drawn from
a fixed stream; the seed draws the interaction log and the traffic.

Interactions follow the popularity-plus-affinity model of
``repro.data.synthetic`` without its per-interaction Python loop: user ``u``
picks item ``i`` with probability proportional to
``exp(log pop_i + STRENGTH * <f_u, g_t(i)> / sqrt(d))``, where every item
belongs to one latent topic ``t(i)``.  Because the affinity depends on the
item only through its topic, the distribution factorises into
``P(topic | u) * P(item | topic)`` and both draws are exact inverse-CDF
lookups: a ``(block, topics)`` cumulative sum for the first and one
``searchsorted`` over topic-grouped popularity for the second.  Duplicate
``(user, item)`` pairs collapse with ``np.unique`` on the flat keys
``user * num_items + item``, keeping the earliest occurrence, and the first
``num_interactions`` distinct pairs in time order are kept.

Serving embeddings (dimension 64, float64) are projections of the same
latent factors plus noise, so scores carry the generator's structure:
users rank items of their preferred topics, then popular items, first.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict

import numpy as np

__all__ = [
    "GENERATOR_VERSION", "K", "GraphSpec", "ServeSpec", "TrainSpec", "SIZES",
    "generate_graph", "serve_inputs", "train_inputs", "load_inputs",
]

#: Bump whenever generated arrays change for an unchanged spec and seed,
#: including a change to any constant below.
GENERATOR_VERSION = 2

#: The generated world, the same at every size.  Activity and popularity
#: follow power laws; every item belongs to one of the spec's topics.
FACTOR_DIM = 8
USER_ALPHA = 0.8
ITEM_ALPHA = 0.9
#: Weight of user-topic affinity against log popularity in the logits.
STRENGTH = 3.0
#: Share of draws replaced by a uniformly random item.
NOISE_RATIO = 0.05
#: Draws per kept interaction; repeats are dropped before the cut.
OVERSAMPLE = 1.8
#: The world's weights, factors and topics come from this fixed stream;
#: ``--seed`` draws the interaction log and the traffic inside it.  Every
#: seed then samples the same preferences, so the trained model's quality
#: moves with the sampled log and the training seed only.
WORLD_SEED = 0

#: Serving: embedding width, list length, Zipf exponent of the requested
#: users, and the share of interactions held out as the ingest tail.
EMBEDDING_DIM = 64
K = 20
ZIPF_S = 0.8
HOLDOUT_RATIO = 0.1


@dataclass(frozen=True)
class GraphSpec:
    """Shape of a generated interaction graph."""

    num_users: int
    num_items: int
    #: Exact number of distinct (user, item) pairs kept, earliest first; the
    #: same for every seed, so sizes that set the work do not move with it.
    num_interactions: int
    num_topics: int


@dataclass(frozen=True)
class TrainSpec:
    """The ``train`` workload: LayerGCN on a raw interaction log."""

    graph: GraphSpec
    epochs: int
    recall_floor: float


@dataclass(frozen=True)
class ServeSpec:
    """The serving workloads: one graph, frozen embeddings, traffic."""

    graph: GraphSpec
    chunk_users: int
    zipf_rate: float
    mixed_read_rate: float
    mixed_ingest_rate: float
    compact_threshold: int
    #: Longest schedule generated; a run consumes its first ``seconds``.
    max_seconds: float


SIZES: Dict[str, Dict[str, object]] = {
    "full": {
        # 40,960 interactions: the 70% train split is 28 full batches of 1024.
        "train": TrainSpec(GraphSpec(num_users=4_000, num_items=2_000,
                                     num_interactions=40_960, num_topics=32),
                           epochs=3, recall_floor=0.05),
        # The open-loop rates sit about 40% below where p99 broke on a
        # 2-core host: 2500 req/s for serve-zipf, 2000 reads plus 600
        # ingests per second for serve-mixed (see bench/README.md).
        "serve": ServeSpec(GraphSpec(num_users=40_000, num_items=20_000,
                                     num_interactions=600_000, num_topics=32),
                           chunk_users=1024, zipf_rate=1500.0,
                           mixed_read_rate=1200.0, mixed_ingest_rate=360.0,
                           compact_threshold=2000, max_seconds=60.0),
    },
    # Seconds-long sizes for the self-test: every check runs, nothing is timed
    # seriously.
    "smoke": {
        "train": TrainSpec(GraphSpec(num_users=300, num_items=200,
                                     num_interactions=2_500, num_topics=8),
                           epochs=2, recall_floor=0.0),
        "serve": ServeSpec(GraphSpec(num_users=2_000, num_items=1_000,
                                     num_interactions=20_000, num_topics=8),
                           chunk_users=512, zipf_rate=400.0,
                           mixed_read_rate=300.0, mixed_ingest_rate=100.0,
                           compact_threshold=100, max_seconds=5.0),
    },
}


def _power_law(size: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    weights = np.arange(1, size + 1, dtype=np.float64) ** (-alpha)
    rng.shuffle(weights)
    return weights / weights.sum()


def _inverse_cdf_rows(logits: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One categorical draw per row of unnormalised ``logits``."""
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    cdf = np.cumsum(weights, axis=1)
    targets = uniforms * cdf[:, -1]
    picks = (cdf < targets[:, None]).sum(axis=1)
    return np.minimum(picks, logits.shape[1] - 1)


def generate_graph(spec: GraphSpec, seed: int) -> Dict[str, np.ndarray]:
    """Interactions (deduplicated, time-ordered) plus the latent factors."""
    world = np.random.default_rng([GENERATOR_VERSION, WORLD_SEED])
    user_weights = _power_law(spec.num_users, USER_ALPHA, world)
    item_weights = _power_law(spec.num_items, ITEM_ALPHA, world)
    user_factors = world.normal(size=(spec.num_users, FACTOR_DIM))
    topic_factors = world.normal(size=(spec.num_topics, FACTOR_DIM))
    # Topic vectors of norm sqrt(d), and topics dealt items in popularity
    # order so each holds an equal share of every popularity band.
    topic_factors *= np.sqrt(FACTOR_DIM) / np.linalg.norm(
        topic_factors, axis=1, keepdims=True)
    item_topics = np.empty(spec.num_items, dtype=np.int64)
    item_topics[np.argsort(-item_weights, kind="stable")] = np.resize(
        world.permutation(spec.num_topics), spec.num_items)
    rng = np.random.default_rng([GENERATOR_VERSION, seed])
    draws = int(spec.num_interactions * OVERSAMPLE)

    # Items grouped by topic: topic t owns positions [starts[t], ends[t]) of
    # the popularity cumsum, so one searchsorted draws an item given a topic.
    by_topic = np.argsort(item_topics, kind="stable")
    cumulative = np.cumsum(item_weights[by_topic])
    ends = np.searchsorted(item_topics[by_topic], np.arange(spec.num_topics),
                           side="right")
    starts = np.concatenate([[0], ends[:-1]])
    before = np.where(starts > 0, cumulative[np.maximum(starts - 1, 0)], 0.0)
    topic_mass = np.where(ends > starts,
                          cumulative[np.maximum(ends - 1, 0)] - before, 0.0)
    log_mass = np.log(np.maximum(topic_mass, 1e-300))

    users = rng.choice(spec.num_users, size=draws, p=user_weights)
    topics = np.empty(draws, dtype=np.int64)
    scale = STRENGTH / np.sqrt(FACTOR_DIM)
    block = 65_536
    for start in range(0, draws, block):
        stop = min(start + block, draws)
        affinity = user_factors[users[start:stop]] @ topic_factors.T
        topics[start:stop] = _inverse_cdf_rows(
            log_mass[None, :] + scale * affinity, rng.random(stop - start))
    targets = before[topics] + rng.random(draws) * topic_mass[topics]
    positions = np.searchsorted(cumulative, targets, side="right")
    positions = np.clip(positions, starts[topics], ends[topics] - 1)
    items = by_topic[positions].astype(np.int64)

    noisy = rng.random(draws) < NOISE_RATIO
    items[noisy] = rng.integers(spec.num_items, size=int(noisy.sum()))

    timestamps = (np.sort(rng.uniform(0.0, 1.0, size=draws))
                  + rng.normal(scale=0.01, size=draws))
    order = np.argsort(timestamps, kind="stable")
    users, items, timestamps = users[order], items[order], timestamps[order]
    keys = users.astype(np.int64) * spec.num_items + items
    _, first = np.unique(keys, return_index=True)
    if first.size < spec.num_interactions:
        raise ValueError(f"{draws} draws gave {first.size} distinct pairs, fewer "
                         f"than {spec.num_interactions}; raise oversample")
    keep = np.sort(first)[:spec.num_interactions]
    return {
        "users": users[keep].astype(np.int64),
        "items": items[keep],
        "timestamps": timestamps[keep],
        "user_factors": user_factors,
        "topic_factors": topic_factors,
        "item_topics": item_topics,
        "item_weights": item_weights,
    }


def _embeddings(graph: Dict[str, np.ndarray], dim: int, seed: int):
    """Dim-``dim`` user/item matrices projected from the latent factors."""
    rng = np.random.default_rng([GENERATOR_VERSION, seed, 1])
    factor_dim = graph["user_factors"].shape[1]
    projection = rng.normal(size=(factor_dim, dim)) / np.sqrt(factor_dim)
    item_factors = (graph["topic_factors"][graph["item_topics"]]
                    + 0.3 * rng.normal(size=(graph["item_topics"].size, factor_dim)))
    users = graph["user_factors"] @ projection
    items = item_factors @ projection
    users += 0.1 * rng.normal(size=users.shape)
    items += 0.1 * rng.normal(size=items.shape)
    # One shared column carries popularity, so popular items rank higher
    # for every user, as in the sampling logits.
    users[:, 0] = 1.0
    items[:, 0] = np.log(graph["item_weights"] * graph["item_weights"].size)
    return np.ascontiguousarray(users), np.ascontiguousarray(items)


def _zipf_users(num_users: int, s: float, size: int,
                rng: np.random.Generator) -> np.ndarray:
    """Users drawn from Zipf(``s``) over a seeded popularity order."""
    ranks = np.arange(1, num_users + 1, dtype=np.float64) ** (-s)
    cdf = np.cumsum(ranks / ranks.sum())
    picks = np.minimum(np.searchsorted(cdf, rng.random(size), side="right"),
                       num_users - 1)
    return rng.permutation(num_users)[picks].astype(np.int64)


def _poisson_schedule(rate: float, seconds: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process, ascending."""
    count = int(rate * seconds * 1.2) + 64
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return offsets[offsets < seconds]


def train_inputs(spec: TrainSpec, seed: int) -> Dict[str, np.ndarray]:
    graph = generate_graph(spec.graph, seed)
    return {key: graph[key] for key in ("users", "items", "timestamps")}


def serve_inputs(spec: ServeSpec, seed: int) -> Dict[str, np.ndarray]:
    """Embeddings, the base/held-out split and every traffic schedule."""
    graph = generate_graph(spec.graph, seed)
    user_matrix, item_matrix = _embeddings(graph, EMBEDDING_DIM, seed)
    cut = int(round(graph["users"].size * (1.0 - HOLDOUT_RATIO)))
    rng = np.random.default_rng([GENERATOR_VERSION, seed, 2])
    zipf_times = _poisson_schedule(spec.zipf_rate, spec.max_seconds, rng)
    read_times = _poisson_schedule(spec.mixed_read_rate, spec.max_seconds, rng)
    ingest_times = _poisson_schedule(spec.mixed_ingest_rate, spec.max_seconds,
                                     rng)
    tail = slice(cut, cut + ingest_times.size)
    return {
        "user_embeddings": user_matrix,
        "item_embeddings": item_matrix,
        "base_users": graph["users"][:cut],
        "base_items": graph["items"][:cut],
        "batch_order": rng.permutation(spec.graph.num_users).astype(np.int64),
        "zipf_times": zipf_times,
        "zipf_users": _zipf_users(spec.graph.num_users, ZIPF_S,
                                  zipf_times.size, rng),
        "read_times": read_times,
        "read_users": _zipf_users(spec.graph.num_users, ZIPF_S,
                                  read_times.size, rng),
        "ingest_times": ingest_times[:graph["users"][tail].size],
        "ingest_users": graph["users"][tail],
        "ingest_items": graph["items"][tail],
    }


def _cache_key(kind: str, spec, seed: int) -> str:
    text = json.dumps({"version": GENERATOR_VERSION, "kind": kind,
                       "spec": asdict(spec), "seed": seed}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_inputs(cache_dir: Path, kind: str, spec, seed: int) -> Path:
    """Path of the cached ``.npz`` for ``(kind, spec, seed)``, built if absent.

    ``kind`` is ``"train"`` or ``"serve"``.  The file is written to a
    temporary name and renamed, so a concurrent or interrupted run never
    leaves a partial cache entry behind.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{kind}-{seed}-{_cache_key(kind, spec, seed)}.npz"
    if not path.exists():
        build = train_inputs if kind == "train" else serve_inputs
        arrays = build(spec, seed)
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
        np.savez(tmp, **arrays)
        os.replace(tmp, path)
    return path
