"""One measured run of one workload, in its own process.

``run.py`` starts this script once per run with the cached inputs it
generated; this process only loads them, builds the program, measures,
checks the outputs and prints one JSON line.  With ``--trace 1`` the timing
wrappers of :mod:`tracing` are installed before anything is built.

The load comes from this process alone: the main thread for the closed
loops, one asyncio loop for the open ones.

Rates and percentiles are medians over five equal slices of the
measured window, so one stall of a shared machine moves one slice, not the
reported value.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from metrics import END_TO_END, layer_metrics, percentile
from tracing import SpanRecorder
from workloads import K, SIZES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: A construction under this many seconds is repeated ``_SETUP_REPEATS``
#: times and the median reported.  The count is fixed: each repetition
#: leaves the allocator's heap a little larger, so it shows in peak memory.
_SETUP_REPEAT_BELOW_S = 1.0
_SETUP_REPEATS = 5
_SLICES = 5


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path and make sure it wins."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


class Run:
    """What one run reports, filled in by a workload function."""

    def __init__(self, args, recorder) -> None:
        self.args = args
        self.recorder = recorder
        self.metrics = {}
        self.samples = {}
        self.checks = []
        self.info = {}
        self.stats = {}
        self.attempted = 0
        self.failed = 0
        self.window_s = 0.0

    def root(self, name: str, start=None, extra=None):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.root(name, start=start, extra=extra)

    def check(self, name: str, failures) -> None:
        self.checks.append({"name": name, "ok": not failures,
                            "detail": "; ".join(failures)})

    def end_window(self, started: float) -> None:
        """Close the measured window; memory is read here, before the
        output checks allocate their own score matrices."""
        self.window_s = time.perf_counter() - started
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        self.samples["peak_rss_mb"] = 1

    def report(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(samples)

    def checked_serving(self, name: str, users, lists, data, excluded, k) -> None:
        """Exactness check; its recall against the exact top-k is reported."""
        failures, recall = oracle.check_top_k(
            users, lists, data["user_embeddings"], data["item_embeddings"], excluded, k)
        self.check(name, failures)
        self.report("recall_at_20", recall, len(users))


def _slice_edges(start: float, end: float) -> np.ndarray:
    return np.linspace(start, end, _SLICES + 1)


def _slice_median(values: np.ndarray, times: np.ndarray, edges: np.ndarray, q: float):
    """Median over slices of the ``q``-th percentile of the values whose
    time falls in each slice (times past the last edge count in the last)."""
    slot = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, _SLICES - 1)
    return statistics.median(percentile(values[slot == s], q) for s in range(_SLICES)
                             if (slot == s).any())


def _slice_rate(work: np.ndarray, begins: np.ndarray, ends: np.ndarray,
                edges: np.ndarray) -> float:
    """Median over slices of work done per second.  Each item's work is
    spread evenly over its ``[begin, end)``, so no slice gains or loses a
    whole item at its edges."""
    low = np.maximum(begins[:, None], edges[None, :-1])
    high = np.minimum(ends[:, None], edges[None, 1:])
    share = np.clip(high - low, 0.0, None) / np.maximum(ends - begins, 1e-12)[:, None]
    return float(np.median((work[:, None] * share).sum(axis=0) / np.diff(edges)))


class RankingProbe:
    """Users ranked per second of ``service.top_k`` time, read from the
    program's own metrics registry at the slice edges."""

    def __init__(self) -> None:
        self.points = []

    def read(self) -> None:
        from repro.engine import metrics

        registry = metrics()
        self.points.append((registry.counter("service.top_k_users").value,
                            registry.histogram("service.top_k_s").summary().get("total", 0.0)))

    def report(self, run: Run) -> None:
        rates = [(u1 - u0) / (b1 - b0) for (u0, b0), (u1, b1)
                 in zip(self.points, self.points[1:]) if b1 > b0]
        run.report("rank_users_per_s", statistics.median(rates) if rates else 0.0,
                   self.points[-1][0] - self.points[0][0])


async def _timed_setup(run: Run, build, discard=None):
    """Median wall time of repeated constructions; returns the last one."""
    durations, built = [], None
    while True:
        with run.root("bench.setup"):
            start = time.perf_counter()
            built = build()
            durations.append(time.perf_counter() - start)
        if durations[0] >= _SETUP_REPEAT_BELOW_S or len(durations) == _SETUP_REPEATS:
            break
        if discard is not None:
            await discard(built)
        built = None
        # A service and its frontend point at each other; collect the
        # discarded pair now so peak memory does not depend on when the
        # cycle collector happens to run.
        gc.collect()
    run.report("setup_s", statistics.median(durations), len(durations))
    return built


# --------------------------------------------------------------------------- #
# train
# --------------------------------------------------------------------------- #
async def run_train(run: Run, data, spec) -> None:
    from repro.core.layergcn import LayerGCN
    from repro.data import InteractionDataset, splits
    from repro.eval.ranking import RankingEvaluator
    from repro.training.trainer import Trainer, TrainerConfig

    def build():
        dataset = InteractionDataset(data["users"], data["items"],
                                     data["timestamps"], name="bench-train")
        split = splits.chronological_split(dataset)
        model = LayerGCN(split, seed=run.args.seed)
        return split, model, Trainer(model, split, TrainerConfig(epochs=spec.epochs))

    split, model, trainer = await _timed_setup(run, build)
    evaluator = RankingEvaluator(split, ks=(20,))

    # A timestamp per batch handed to Trainer.fit: consecutive marks bracket
    # one optimiser step on that batch (plus sampling the next one).
    epoch_marks = []
    batches = model.make_batches

    def marked_batches(rng=None):
        marks, sizes = [], []
        epoch_marks.append((marks, sizes))
        for batch in batches(rng):
            marks.append(time.perf_counter())
            sizes.append(len(batch[0]))
            yield batch
        marks.append(time.perf_counter())

    model.make_batches = marked_batches

    start = time.perf_counter()
    with run.root("bench.fit"):
        history = trainer.fit()
    fit_end = time.perf_counter()
    evaluations = []
    while len(evaluations) < 3 or time.perf_counter() - start < run.args.seconds:
        with run.root("bench.evaluate"):
            began = time.perf_counter()
            model.eval()
            result = evaluator.evaluate(model, "test")
            evaluations.append((time.perf_counter() - began, result))
    run.end_window(start)

    begins = np.concatenate([marks[:-1] for marks, _ in epoch_marks])
    ends = np.concatenate([marks[1:] for marks, _ in epoch_marks])
    sizes = np.concatenate([sizes for _, sizes in epoch_marks]).astype(np.float64)
    steps_ms = 1e3 * (ends - begins)
    edges = _slice_edges(start, fit_end)
    run.attempted = int(steps_ms.size) + len(evaluations)
    # Validation passes between epochs count as time with no triples done.
    run.report("throughput_per_s", _slice_rate(sizes, begins, ends, edges), sizes.sum())
    run.report("p50_ms", _slice_median(steps_ms, ends, edges, 50), steps_ms.size)
    run.report("tail_ms", _slice_median(steps_ms, ends, edges, 90), steps_ms.size)
    rates = [result.num_users_evaluated / seconds for seconds, result in evaluations]
    run.report("rank_users_per_s", statistics.median(rates), len(rates))
    recalls = [result.values["recall@20"] for _, result in evaluations]
    run.report("recall_at_20", recalls[0], evaluations[0][1].num_users_evaluated)

    run.check("train.recall_floor", [] if recalls[0] >= spec.recall_floor else
              [f"recall@20 {recalls[0]:.4f} < floor {spec.recall_floor}"])
    run.check("train.evaluation_repeatable", [] if len(set(recalls)) == 1 else
              [f"recall@20 differs across evaluations: {sorted(set(recalls))}"])
    run.check("train.losses_finite", [] if np.isfinite(history.epoch_losses).all()
              else [f"epoch losses {history.epoch_losses}"])
    run.info.update(first_epoch_loss=float(history.epoch_losses[0]).hex(),
                    num_train=split.num_train, tail_percentile=90,
                    fit_s=fit_end - start)


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #
def _serving_index(data, spec):
    from repro.engine import InferenceIndex, UserItemIndex

    graph = spec.graph
    exclusion = UserItemIndex(graph.num_users, graph.num_items,
                              data["base_users"], data["base_items"])
    return InferenceIndex(graph.num_users, graph.num_items,
                          user_embeddings=data["user_embeddings"],
                          item_embeddings=data["item_embeddings"],
                          exclusion=exclusion)


def _warm_and_reset(service, users, k) -> None:
    """Allocate the score buffer, then start the program's registry afresh
    so its counters cover the measured window only."""
    from repro.engine import metrics

    service.top_k(users, k)
    metrics().reset()


def _base_keys(data, spec) -> np.ndarray:
    return oracle.flat_keys(data["base_users"], data["base_items"], spec.graph.num_items)


async def run_serve_batch(run: Run, data, spec) -> None:
    from repro.engine import RecommendationService

    service = await _timed_setup(
        run, lambda: RecommendationService(index=_serving_index(data, spec)))
    num_users, k, chunk = spec.graph.num_users, K, spec.chunk_users
    order = data["batch_order"]
    _warm_and_reset(service, order[:chunk], k)

    served = np.full((num_users, k), -1, dtype=np.int64)
    begun, finished = [], []
    probe = RankingProbe()
    start = time.perf_counter()
    edges = _slice_edges(start, start + run.args.seconds)
    probe.read()
    position = 0
    while time.perf_counter() - start < run.args.seconds:
        users = np.take(order, np.arange(position, position + chunk), mode="wrap")
        with run.root("bench.chunk"):
            begun.append(time.perf_counter())
            lists = service.top_k(users, k)
            finished.append(time.perf_counter())
        served[users] = lists
        position = (position + chunk) % num_users
        if len(probe.points) < _SLICES and finished[-1] >= edges[len(probe.points)]:
            probe.read()
    run.end_window(start)
    probe.read()

    begun, finished = np.asarray(begun), np.asarray(finished)
    latencies_ms = 1e3 * (finished - begun)
    edges[-1] = finished[-1]
    run.attempted = int(finished.size)
    run.report("throughput_per_s", _slice_rate(
        np.full(finished.size, float(chunk)), begun, finished, edges), chunk * finished.size)
    run.report("p50_ms", _slice_median(latencies_ms, finished, edges, 50), finished.size)
    run.report("tail_ms", _slice_median(latencies_ms, finished, edges, 90), finished.size)
    run.info["tail_percentile"] = 90
    probe.report(run)

    done = np.flatnonzero(served[:, 0] >= 0)
    sample = np.random.default_rng(run.args.seed).choice(
        done, size=min(4096, done.size), replace=False)
    run.checked_serving("serve-batch.top_k_exact", sample, served[sample], data,
                        _base_keys(data, spec), k)


async def _open_loop(run: Run, frontend, k, reads, writes=None):
    """Send every scheduled operation at its time; return what was served.

    ``reads`` is ``(offsets, users)``, ``writes`` ``(offsets, users,
    items)``; offsets are seconds from the start.  Each operation is timed
    from its scheduled send time, so a stall also delays the requests due
    behind it.  A failed operation counts as taking the whole run.
    """
    seconds = run.args.seconds
    read_times, read_users = reads
    keep = read_times < seconds
    times = [read_times[keep]]
    kinds = [np.zeros(int(keep.sum()), dtype=np.int8)]
    index = [np.flatnonzero(keep)]
    if writes is not None:
        keep = writes[0] < seconds
        times.append(writes[0][keep])
        kinds.append(np.ones(int(keep.sum()), dtype=np.int8))
        index.append(np.flatnonzero(keep))
    times, kinds, index = (np.concatenate(part) for part in (times, kinds, index))
    order = np.argsort(times, kind="stable")
    times, kinds, index = times[order], kinds[order], index[order]

    count = times.size
    latency = np.zeros(count)
    ok = np.zeros(count, dtype=bool)
    lateness = np.zeros(count)
    responses = {}
    errors = {}
    invalidated = [0.0]

    async def operation(position: int, due: float, sent: float) -> None:
        event = int(index[position])
        read = kinds[position] == 0
        user = int(read_users[event] if read else writes[1][event])
        name = "bench.request" if read else "bench.ingest"
        # The trace starts at the actual send: the generator's own lateness
        # is reported separately, as gen_lag_p99_ms.
        with run.root(name, start=sent, extra=user):
            if run.recorder is not None:
                # Until this task runs, the request waits for the event
                # loop, which the frontend's worker thread contends for.
                run.recorder.record("engine.frontend.loop_wait", sent, time.perf_counter())
            try:
                if read:
                    responses.setdefault(user, []).append(
                        await frontend.recommend(user, k))
                else:
                    stats = await frontend.ingest([user], [int(writes[2][event])])
                    invalidated[0] += stats["invalidated"] / stats["coalesced_calls"]
                ok[position] = True
            except Exception as error:  # counted and reported, never fatal
                errors[type(error).__name__] = errors.get(type(error).__name__, 0) + 1
            finally:
                latency[position] = time.perf_counter() - due

    async def probe_at(probe: RankingProbe, moments) -> None:
        for moment in moments:
            await asyncio.sleep(max(0.0, moment - time.perf_counter()))
            probe.read()

    loop = asyncio.get_running_loop()
    tasks = []
    probe = RankingProbe()
    origin = time.perf_counter() + 0.01
    edges = _slice_edges(origin, origin + seconds)
    probe.read()
    prober = loop.create_task(probe_at(probe, edges[1:-1]))
    sent = 0
    while sent < count:
        now = time.perf_counter()
        while sent < count and origin + times[sent] <= now:
            lateness[sent] = now - (origin + times[sent])
            tasks.append(loop.create_task(operation(sent, origin + times[sent], now)))
            sent += 1
        if sent < count:
            await asyncio.sleep(max(0.0, origin + times[sent] - time.perf_counter()))
    await asyncio.gather(prober, *tasks)
    await frontend.flush()
    run.end_window(origin)
    probe.read()

    latency[~ok] = np.maximum(latency[~ok], run.window_s)
    due = origin + times
    run.attempted = count
    run.failed = int((~ok).sum())
    run.report("throughput_per_s", _slice_rate(ok.astype(np.float64), due, due + latency,
                                               edges), int(ok.sum()))
    latency_ms = 1e3 * latency
    reads, writes = kinds == 0, kinds == 1
    run.report("p50_ms", _slice_median(latency_ms[reads], due[reads], edges, 50),
               int(reads.sum()))
    # The tail is the worse of the read and the ingest tails, so a read-path
    # gain cannot hide an ingest regression.
    tails = {"read": _slice_median(latency_ms[reads], due[reads], edges, 95)}
    run.info["p99_ms"] = _slice_median(latency_ms[reads], due[reads], edges, 99)
    if writes.any():
        tails["ingest"] = _slice_median(latency_ms[writes], due[writes], edges, 95)
        run.info["ingest_p99_ms"] = _slice_median(latency_ms[writes], due[writes],
                                                  edges, 99)
    run.report("tail_ms", max(tails.values()), count)
    probe.report(run)
    # Like the latencies, the generator's lateness is a median over slices:
    # one stall of the host does not invalidate the run, an overloaded
    # generator does.
    run.info.update(tail_percentile=95,
                    gen_lag_p99_ms=1e3 * _slice_median(lateness, due, edges, 99),
                    reads=int(reads.sum()), writes=int(writes.sum()),
                    error_rate=run.failed / count,
                    **{f"{kind}_p95_ms": value for kind, value in tails.items()})
    if errors:
        run.info["errors"] = errors
    run.stats["invalidated"] = invalidated[0]
    return responses, index[(kinds == 1) & ok]


def _frontend_stats(run: Run, frontend, service) -> None:
    cache = service.cache_stats()
    run.stats["batch_occupancy"] = frontend.stats()["mean_occupancy"]
    run.stats["cache_hits"] = cache["hits"]
    run.stats["cache_lookups"] = cache["hits"] + cache["misses"]
    certificates = service.certificate_stats
    if certificates and certificates["users"]:
        run.stats["certified_ratio"] = certificates["certified_users"] / certificates["users"]


def _last_responses(responses):
    users = np.asarray(sorted(responses), dtype=np.int64)
    lists = np.asarray([responses[user][-1] for user in users.tolist()], dtype=np.int64)
    return users, lists


async def run_serve_zipf(run: Run, data, spec) -> None:
    from repro.engine import AsyncRecommendationFrontend, RecommendationService

    async def discard(built):
        await built[1].close()

    def build():
        service = RecommendationService(index=_serving_index(data, spec))
        return service, AsyncRecommendationFrontend(service)

    service, frontend = await _timed_setup(run, build, discard)
    _warm_and_reset(service, data["zipf_users"][:64], K)
    responses, _ = await _open_loop(run, frontend, K,
                                    (data["zipf_times"], data["zipf_users"]))
    _frontend_stats(run, frontend, service)
    await frontend.close()

    inconsistent = sum(any(answer != answers[0] for answer in answers)
                       for answers in responses.values())
    run.check("serve-zipf.responses_consistent", [] if not inconsistent else
              [f"{inconsistent} users got differing lists"])
    users, lists = _last_responses(responses)
    run.checked_serving("serve-zipf.top_k_exact", users, lists, data,
                        _base_keys(data, spec), K)


async def run_serve_mixed(run: Run, data, spec) -> None:
    from repro.engine import AsyncRecommendationFrontend, OnlineRecommendationService

    out_dir = Path(run.args.out_dir)
    wal_paths = []

    def online_service(wal_path):
        return OnlineRecommendationService(
            index=_serving_index(data, spec), wal_path=wal_path,
            compact_threshold=spec.compact_threshold)

    def build():
        wal_paths.append(out_dir / f"wal-{os.getpid()}-{len(wal_paths)}.log")
        service = online_service(wal_paths[-1])
        return service, AsyncRecommendationFrontend(service)

    async def discard(built):
        await built[1].close()
        built[0].close()
        os.unlink(wal_paths[-1])

    service, frontend = await _timed_setup(run, build, discard)
    wal_path = wal_paths[-1]
    try:
        _warm_and_reset(service, data["read_users"][:64], K)
        responses, ingested = await _open_loop(
            run, frontend, K, (data["read_times"], data["read_users"]),
            (data["ingest_times"], data["ingest_users"], data["ingest_items"]))
        _frontend_stats(run, frontend, service)
        run.stats["wal_syncs"] = service.wal_stats["syncs"]
        run.info["compactions"] = service.compactions

        num_items = spec.graph.num_items
        base = _base_keys(data, spec)
        users, lists = _last_responses(responses)
        hits = int(oracle.contains(base, users[:, None] * np.int64(num_items)
                                   + lists).any(axis=1).sum())
        run.check("serve-mixed.reads_exclude_base", [] if not hits else
                  [f"{hits} served lists contain a base interaction"])

        touched = np.unique(data["ingest_users"][ingested])
        sample = np.random.default_rng(run.args.seed).choice(
            users, size=min(2048, users.size), replace=False)
        final_users = np.unique(np.concatenate([touched, sample]))
        final = service.top_k(final_users, K)
        everything = np.union1d(base, oracle.flat_keys(
            data["ingest_users"][ingested], data["ingest_items"][ingested], num_items))
        run.checked_serving("serve-mixed.end_state_exact", final_users, final, data,
                            everything, K)
    finally:
        await frontend.close()
        service.close()

    reopened = online_service(wal_path)
    try:
        replayed = reopened.top_k(final_users, K)
    finally:
        reopened.close()
        os.unlink(wal_path)
    run.check("serve-mixed.wal_reopen_identical", [] if np.array_equal(final, replayed)
              else [f"{int((final != replayed).any(axis=1).sum())} lists differ "
                    f"after reopening over the WAL"])


RUNNERS = {
    "train": run_train,
    "serve-batch": run_serve_batch,
    "serve-zipf": run_serve_zipf,
    "serve-mixed": run_serve_mixed,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    _import_program()
    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    run = Run(args, recorder)
    kind = "train" if args.workload == "train" else "serve"
    spec = SIZES[args.size][kind]
    with np.load(args.inputs) as archive:
        data = {name: archive[name] for name in archive.files}
    asyncio.run(RUNNERS[args.workload](run, data, spec))

    missing = set(END_TO_END) - set(run.metrics)
    if missing:
        raise SystemExit(f"workload {args.workload} did not report {sorted(missing)}")
    result = {
        "workload": args.workload, "metrics": run.metrics, "samples": run.samples,
        "attempted": run.attempted, "failed": run.failed, "checks": run.checks,
        "info": run.info, "window_s": run.window_s, "per_layer": None,
    }
    if recorder is not None:
        recorder.uninstall()
        result["per_layer"] = layer_metrics(recorder.spans, run.window_s, run.stats)
        recorder.dump(Path(args.out_dir) / f"spans-{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
