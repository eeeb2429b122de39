"""Tests for the async micro-batching front-end (work-conserving
coalescing, backpressure/load-shedding, ingest pooling, exact parity)."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    AsyncRecommendationFrontend,
    OnlineRecommendationService,
    OverloadedError,
    RecommendationService,
)
from repro.models import BprMF


@pytest.fixture()
def model(tiny_split):
    model = BprMF(tiny_split, embedding_dim=8, seed=2)
    model.eval()
    return model


@pytest.fixture()
def service(model):
    return RecommendationService(model, cache_size=0)


def run(coroutine):
    return asyncio.run(coroutine)


def _slow_top_k(service, delay: float):
    """A wrapper making ``service.top_k`` slow (for queue-pressure tests)."""
    original = RecommendationService.top_k

    def wrapped(users, k, exclude_train=True):
        time.sleep(delay)
        return original(service, users, k, exclude_train=exclude_train)

    return wrapped


def _gated(method, calls, name):
    """Wrap ``method``: record ``(name, batch length)`` per call and hold the
    first call until the returned ``release`` event is set.  ``started`` is
    set once the first call is inside the worker."""
    started, release = threading.Event(), threading.Event()

    def wrapped(users, *args, **kwargs):
        calls.append((name, len(users)))
        if len(calls) == 1:
            started.set()
            release.wait(timeout=30.0)
        return method(users, *args, **kwargs)

    return wrapped, started, release


async def _until(event: threading.Event, timeout: float = 30.0) -> None:
    """Wait for a worker-side event without blocking the event loop."""
    deadline = time.perf_counter() + timeout
    while not event.is_set():
        assert time.perf_counter() < deadline, "the worker never got there"
        await asyncio.sleep(0.001)


class TestParity:
    def test_single_request_matches_service(self, service, tiny_split):
        async def scenario():
            async with AsyncRecommendationFrontend(service) as frontend:
                return await frontend.recommend(0, 5)

        assert run(scenario()) == [int(i) for i in
                                   service.top_k(np.asarray([0]), 5)[0]]

    def test_concurrent_mixed_requests_bit_identical(self, service, tiny_split):
        requests = [(user % tiny_split.num_users, 3 + user % 4, user % 2 == 0)
                    for user in range(60)]

        async def scenario():
            async with AsyncRecommendationFrontend(
                    service, max_batch_size=16) as frontend:
                return await asyncio.gather(*[
                    frontend.recommend(u, k, exclude_train=x)
                    for u, k, x in requests])

        results = run(scenario())
        for (user, k, exclude), got in zip(requests, results):
            want = service.top_k(np.asarray([user]), k, exclude_train=exclude)
            assert got == [int(i) for i in want[0]]

    def test_sharded_candidate_service_parity(self, model, tiny_split):
        with RecommendationService(model, num_shards=4,
                                   candidate_mode="int8") as service:
            users = [u % tiny_split.num_users for u in range(24)]

            async def scenario():
                async with AsyncRecommendationFrontend(
                        service, max_batch_size=8) as frontend:
                    return await asyncio.gather(*[
                        frontend.recommend(u, 5) for u in users])

            results = run(scenario())
            oracle = service.top_k(np.asarray(users, dtype=np.int64), 5)
            for got, want in zip(results, oracle):
                assert got == [int(i) for i in want]


class TestCoalescing:
    def test_full_burst_forms_one_capped_batch(self, service):
        async def scenario():
            # Submitted in one tick, the burst joins one batch before the
            # worker takes it.
            async with AsyncRecommendationFrontend(
                    service, max_batch_size=8) as frontend:
                await asyncio.gather(*[frontend.recommend(u % 10, 5)
                                       for u in range(8)])
                return frontend.stats()

        start = time.perf_counter()
        stats = run(scenario())
        assert time.perf_counter() - start < 10.0
        assert stats["batches"] == 1
        assert stats["max_occupancy"] == 8
        assert stats["mean_occupancy"] == 8.0

    def test_batches_never_exceed_max_batch_size(self, service):
        async def scenario():
            async with AsyncRecommendationFrontend(
                    service, max_batch_size=8) as frontend:
                await asyncio.gather(*[frontend.recommend(u % 10, 5)
                                       for u in range(40)])
                return frontend.stats()

        stats = run(scenario())
        assert stats["batched_requests"] == 40
        assert stats["max_occupancy"] <= 8
        assert stats["batches"] >= 5

    def test_idle_frontend_serves_lone_request_without_timer(self, service):
        async def scenario():
            loop = asyncio.get_running_loop()
            timers = []
            call_at = loop.call_at

            def counting_call_at(when, callback, *args, **kwargs):
                timers.append(callback)
                return call_at(when, callback, *args, **kwargs)

            # call_later goes through call_at, so this sees every timer.
            loop.call_at = counting_call_at
            try:
                async with AsyncRecommendationFrontend(
                        service, max_batch_size=1024) as frontend:
                    start = time.perf_counter()
                    result = await frontend.recommend(1, 6)
                    elapsed = time.perf_counter() - start
                    return result, elapsed, timers, frontend.stats()
            finally:
                loop.call_at = call_at

        result, elapsed, timers, stats = run(scenario())
        assert result == [int(i) for i in service.top_k(np.asarray([1]), 6)[0]]
        # Dispatched on the next loop iteration: no timer was armed and the
        # request never waited for 1023 co-requests.  Generous ceiling for
        # slow CI machines.
        assert timers == []
        assert elapsed < 10.0
        assert stats["batches"] == 1 and stats["max_occupancy"] == 1

    def test_requests_during_a_batch_form_the_next_capped_batches(
            self, service, tiny_split):
        calls = []
        service.top_k, started, release = _gated(service.top_k, calls, "top_k")
        users = [u % tiny_split.num_users for u in range(21)]

        async def scenario():
            async with AsyncRecommendationFrontend(
                    service, max_batch_size=8) as frontend:
                first = asyncio.ensure_future(frontend.recommend(users[0], 5))
                await _until(started)
                rest = [asyncio.ensure_future(frontend.recommend(u, 5))
                        for u in users[1:]]
                await asyncio.sleep(0)  # let the 20 submissions enqueue
                release.set()
                return await asyncio.gather(first, *rest), frontend.stats()

        results, stats = run(asyncio.wait_for(scenario(), 60.0))
        # The lone first request goes out alone; the 20 that arrived while
        # it ran go out right after it, as full batches plus the remainder.
        assert [size for _, size in calls] == [1, 8, 8, 4]
        assert stats["batches"] == 4 and stats["max_occupancy"] == 8
        oracle = RecommendationService.top_k(service, np.asarray(users), 5)
        assert results == [[int(i) for i in row] for row in oracle]

    def test_requests_group_by_k_and_exclusion(self, service):
        async def scenario():
            async with AsyncRecommendationFrontend(
                    service, max_batch_size=4) as frontend:
                await asyncio.gather(
                    *[frontend.recommend(u, 5) for u in range(4)],
                    *[frontend.recommend(u, 7) for u in range(4)],
                    *[frontend.recommend(u, 5, exclude_train=False)
                      for u in range(4)])
                return frontend.stats()

        stats = run(scenario())
        # Three signatures -> three separate (full) batches.
        assert stats["batches"] == 3
        assert stats["batched_requests"] == 12
        assert stats["max_occupancy"] == 4

    def test_cached_results_skip_the_queue(self, model):
        service = RecommendationService(model, cache_size=64)

        async def scenario():
            async with AsyncRecommendationFrontend(
                    service, max_batch_size=4) as frontend:
                first = await asyncio.gather(*[frontend.recommend(u, 5)
                                               for u in range(4)])
                batches_after_first = frontend.stats()["batches"]
                second = await asyncio.gather(*[frontend.recommend(u, 5)
                                                for u in range(4)])
                return first, second, batches_after_first, frontend.stats()

        first, second, batches_after_first, stats = run(scenario())
        assert first == second
        assert batches_after_first == 1
        assert stats["batches"] == 1  # round two served from the LRU
        assert stats["cache_hits"] == 4
        assert service.cache_stats()["hits"] == 4


class TestBackpressure:
    def test_reject_sheds_above_capacity_and_queue_stays_consistent(
            self, service, tiny_split):
        service.top_k = _slow_top_k(service, delay=0.05)

        async def scenario():
            frontend = AsyncRecommendationFrontend(
                service, max_batch_size=8, max_pending=8, shed="reject")
            results = await asyncio.gather(
                *[frontend.recommend(u % tiny_split.num_users, 5)
                  for u in range(30)],
                return_exceptions=True)
            # After the shed burst the queue must be fully consistent: no
            # stranded slots, and new requests serve exact results.
            assert frontend.pending == 0
            follow_task = asyncio.ensure_future(frontend.recommend(2, 5))
            await asyncio.sleep(0)
            await frontend.flush()
            follow_up = await follow_task
            stats = frontend.stats()
            await frontend.close()
            return results, follow_up, stats

        results, follow_up, stats = run(scenario())
        served = [r for r in results if isinstance(r, list)]
        shed = [r for r in results if isinstance(r, OverloadedError)]
        # Submissions run back-to-back on the loop: exactly max_pending are
        # admitted (filling one full batch), the rest shed deterministically.
        assert len(served) == 8 and len(shed) == 22
        assert stats["shed"] == 22
        oracle = RecommendationService.top_k(service, np.asarray([2]), 5)
        assert follow_up == [int(i) for i in oracle[0]]

    def test_block_policy_waits_for_capacity_instead_of_shedding(
            self, service, tiny_split):
        service.top_k = _slow_top_k(service, delay=0.02)

        async def scenario():
            frontend = AsyncRecommendationFrontend(
                service, max_batch_size=4, max_pending=4, shed="block")
            results = await asyncio.wait_for(
                asyncio.gather(*[frontend.recommend(u % tiny_split.num_users, 5)
                                 for u in range(12)]),
                timeout=30.0)
            stats = frontend.stats()
            await frontend.close()
            return results, stats

        results, stats = run(scenario())
        assert len(results) == 12 and all(isinstance(r, list) for r in results)
        assert stats["shed"] == 0
        assert stats["queue_high_water"] <= 4

    def test_queue_high_water_mark_tracked(self, service):
        async def scenario():
            async with AsyncRecommendationFrontend(
                    service, max_batch_size=64, max_pending=64) as frontend:
                await asyncio.gather(*[frontend.recommend(u % 10, 5)
                                       for u in range(16)])
                return frontend.stats()

        stats = run(scenario())
        assert stats["queue_high_water"] == 16
        assert stats["pending"] == 0


class TestIngest:
    def test_concurrent_ingests_coalesce_into_one_merge(self, model, tiny_split):
        online = OnlineRecommendationService(model, tiny_split,
                                             compact_threshold=10 ** 9)

        async def scenario():
            async with AsyncRecommendationFrontend(
                    online, max_batch_size=4) as frontend:
                stats_list = await asyncio.gather(*[
                    frontend.ingest([user], [user % tiny_split.num_items])
                    for user in range(4)])
                return stats_list, frontend.stats()

        stats_list, frontend_stats = run(scenario())
        assert frontend_stats["ingest_batches"] == 1
        assert frontend_stats["ingest_events"] == 4
        for stats in stats_list:
            assert stats["coalesced_calls"] == 4
            assert stats["events"] == 4

    def test_ingested_items_drop_out_and_match_direct_service(
            self, model, tiny_split):
        online = OnlineRecommendationService(model, tiny_split,
                                             compact_threshold=10 ** 9,
                                             cache_size=0)

        async def scenario():
            async with AsyncRecommendationFrontend(
                    online, max_batch_size=8) as frontend:
                before = await frontend.recommend(0, 5)
                await frontend.ingest([0, 0], [before[0], before[1]])
                after = await frontend.recommend(0, 5)
                return before, after

        before, after = run(scenario())
        assert before[0] not in after and before[1] not in after
        assert after == [int(i) for i in online.top_k(np.asarray([0]), 5)[0]]

    def test_ingest_needs_an_online_service(self, service):
        async def scenario():
            async with AsyncRecommendationFrontend(service) as frontend:
                await frontend.ingest([0], [0])

        with pytest.raises(TypeError):
            run(scenario())

    def test_ingest_validates_alignment(self, model, tiny_split):
        online = OnlineRecommendationService(model, tiny_split)

        async def scenario():
            async with AsyncRecommendationFrontend(online) as frontend:
                await frontend.ingest([0, 1], [0])

        with pytest.raises(ValueError):
            run(scenario())

    def test_ingest_error_propagates_to_every_waiter(self, model, tiny_split):
        online = OnlineRecommendationService(model, tiny_split,
                                             compact_threshold=10 ** 9)

        async def scenario():
            async with AsyncRecommendationFrontend(
                    online, max_batch_size=2) as frontend:
                results = await asyncio.gather(
                    # Items beyond the catalogue fail inside service.ingest.
                    frontend.ingest([0], [tiny_split.num_items + 5]),
                    frontend.ingest([1], [tiny_split.num_items + 6]),
                    return_exceptions=True)
                assert frontend.pending == 0
                return results

        results = run(scenario())
        assert all(isinstance(r, IndexError) for r in results)

    def test_ingest_during_a_read_batch_goes_out_coalesced_after_it(
            self, model, tiny_split):
        online = OnlineRecommendationService(model, tiny_split, cache_size=0,
                                             compact_threshold=10 ** 9)
        calls = []
        online.top_k, started, release = _gated(online.top_k, calls, "top_k")
        ingest = online.ingest

        def recorded_ingest(users, items):
            calls.append(("ingest", len(users)))
            return ingest(users, items)

        online.ingest = recorded_ingest

        async def scenario():
            async with AsyncRecommendationFrontend(
                    online, max_batch_size=64) as frontend:
                read = asyncio.ensure_future(frontend.recommend(0, 5))
                await _until(started)
                writes = [asyncio.ensure_future(
                    frontend.ingest([user], [user % tiny_split.num_items]))
                    for user in range(1, 4)]
                await asyncio.sleep(0)
                release.set()
                await read
                return await asyncio.gather(*writes), frontend.stats()

        per_call, stats = run(asyncio.wait_for(scenario(), 60.0))
        assert calls == [("top_k", 1), ("ingest", 3)]
        assert stats["ingest_batches"] == 1 and stats["ingest_events"] == 3
        assert all(s["coalesced_calls"] == 3 for s in per_call)


class TestLifecycle:
    def test_close_flushes_pending_requests(self, service):
        async def scenario():
            frontend = AsyncRecommendationFrontend(
                service, max_batch_size=64)
            pending = [asyncio.ensure_future(frontend.recommend(u, 5))
                       for u in range(3)]
            await asyncio.sleep(0)  # let the submissions enqueue
            await frontend.close()
            return await asyncio.gather(*pending), frontend.stats()

        results, stats = run(scenario())
        assert len(results) == 3 and all(isinstance(r, list) for r in results)
        assert stats["pending"] == 0

    def test_requests_after_close_raise(self, service):
        async def scenario():
            frontend = AsyncRecommendationFrontend(service)
            await frontend.close()
            await frontend.recommend(0, 5)

        with pytest.raises(RuntimeError):
            run(scenario())

    def test_scoring_error_propagates_and_releases_queue(self, service):
        def broken_top_k(users, k, exclude_train=True):
            raise RuntimeError("scoring backend down")

        service.top_k = broken_top_k

        async def scenario():
            frontend = AsyncRecommendationFrontend(
                service, max_batch_size=2)
            results = await asyncio.gather(
                frontend.recommend(0, 5), frontend.recommend(1, 5),
                return_exceptions=True)
            pending = frontend.pending
            await frontend.close()
            return results, pending

        results, pending = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert pending == 0

    def test_failed_batch_reaches_its_waiters_and_the_drain_continues(
            self, service, tiny_split):
        calls = []
        top_k = service.top_k

        def failing_first(users, k, exclude_train=True):
            if len(calls) == 1:  # the gate has already logged this call
                raise RuntimeError("scoring backend down")
            return top_k(users, k, exclude_train=exclude_train)

        service.top_k, started, release = _gated(failing_first, calls, "top_k")
        users = [u % tiny_split.num_users for u in range(1, 4)]

        async def scenario():
            async with AsyncRecommendationFrontend(
                    service, max_batch_size=8) as frontend:
                doomed = asyncio.ensure_future(frontend.recommend(0, 5))
                await _until(started)
                queued = [asyncio.ensure_future(frontend.recommend(u, 5))
                          for u in users]
                await asyncio.sleep(0)
                release.set()
                failure = await asyncio.gather(doomed, return_exceptions=True)
                served = await asyncio.gather(*queued)
                pending = frontend.pending
                later = await frontend.recommend(users[0], 5)
                return failure[0], served, pending, later

        failure, served, pending, later = run(
            asyncio.wait_for(scenario(), 60.0))
        assert isinstance(failure, RuntimeError)
        assert [size for _, size in calls] == [1, 3, 1]
        oracle = RecommendationService.top_k(service, np.asarray(users), 5)
        assert served == [[int(i) for i in row] for row in oracle]
        assert pending == 0
        assert later == served[0]

    def test_cancelled_waiter_does_not_poison_the_batch(self, service):
        async def scenario():
            async with AsyncRecommendationFrontend(
                    service, max_batch_size=64) as frontend:
                doomed = asyncio.ensure_future(frontend.recommend(0, 5))
                survivor = asyncio.ensure_future(frontend.recommend(1, 5))
                await asyncio.sleep(0)
                doomed.cancel()
                return await survivor

        result = run(scenario())
        assert result == [int(i) for i in service.top_k(np.asarray([1]), 5)[0]]

    def test_constructor_validation(self, service):
        with pytest.raises(ValueError):
            AsyncRecommendationFrontend(service, max_batch_size=0)
        with pytest.raises(TypeError):  # no batch-window knob any more
            AsyncRecommendationFrontend(service, batch_window_ms=2.0)
        with pytest.raises(ValueError):
            AsyncRecommendationFrontend(service, max_pending=0)
        with pytest.raises(ValueError):
            AsyncRecommendationFrontend(service, shed="drop-everything")

    def test_invalid_k_rejected_before_queueing(self, service):
        async def scenario():
            async with AsyncRecommendationFrontend(service) as frontend:
                with pytest.raises(ValueError):
                    await frontend.recommend(0, 0)
                return frontend.stats()

        stats = run(scenario())
        assert stats["pending"] == 0 and stats["batches"] == 0
