"""Concurrency stress for the MicroBatcher: no drops, no dupes, no stale.

Many client threads hammer one batcher across full and partial flush
boundaries; every single future must resolve to the
same answer direct retrieval gives, the request/response accounting
must balance exactly, and a mid-flight ``refresh()`` must invalidate
LRU entries through the version key rather than serving pre-refresh
answers as cached.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import MicroBatcher

from .conftest import counted, serving_counts

THREADS = 8
REQUESTS_PER_THREAD = 25


@pytest.fixture()
def request_pool(recommender, dataset):
    histories = [ex.history for ex in dataset.split.test[:12]]
    ks = (3, 5, 7)
    pool = [(np.asarray(h), k) for h in histories for k in ks]
    expected = {(h.tobytes(), k): recommender.recommend(h, k=k)
                for h, k in pool}
    return pool, expected


def _hammer(batcher, pool, per_thread, thread_seed, out, errors):
    rng = np.random.default_rng(thread_seed)
    try:
        picks = rng.integers(0, len(pool), size=per_thread)
        futures = [(pool[p], batcher.submit(pool[p][0], k=pool[p][1]))
                   for p in picks]
        for (history, k), future in futures:
            out.append(((history.tobytes(), k), future.result(timeout=30)))
    except Exception as exc:  # noqa: BLE001 - surfaced in the main thread
        errors.append(exc)


def test_threaded_stress_no_dropped_or_duplicated_responses(recommender,
                                                            request_pool,
                                                            fresh_label):
    pool, expected = request_pool
    responses: list = []
    errors: list = []
    with counted(fresh_label) as stats, MicroBatcher(
            recommender, max_batch=4, cache_size=64,
            metrics_label=fresh_label) as batcher:
        threads = [threading.Thread(
            target=_hammer,
            args=(batcher, pool, REQUESTS_PER_THREAD, seed, responses,
                  errors))
            for seed in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "stress thread wedged"
    assert errors == []
    total = THREADS * REQUESTS_PER_THREAD
    # Exactly one response per request: nothing dropped...
    assert len(responses) == total
    assert stats["requests"] == total
    # ...nothing double-served: every request is either a cache hit or
    # went through exactly one flushed batch.
    assert stats["cache_hits"] + stats["cache_misses"] == total
    assert stats["batches"] <= stats["cache_misses"]
    # A fresh label: the high-water gauge saw only this batcher.
    assert serving_counts(fresh_label)["largest_batch"] <= 4
    # Every answer is the answer direct retrieval gives.
    for key, result in responses:
        reference = expected[key]
        assert np.array_equal(result.items, reference.items)
        assert np.allclose(result.scores, reference.scores)
        assert len(result.items) <= key[1]


def test_stress_across_refresh_keeps_answers_and_versions_sane(
        recommender, request_pool):
    pool, expected = request_pool
    responses: list = []
    errors: list = []
    stop = threading.Event()

    def refresher():
        while not stop.is_set():
            recommender.refresh()
            stop.wait(0.002)

    with MicroBatcher(recommender, max_batch=4, cache_size=64) as batcher:
        churn = threading.Thread(target=refresher)
        threads = [threading.Thread(
            target=_hammer,
            args=(batcher, pool, REQUESTS_PER_THREAD, 100 + seed, responses,
                  errors))
            for seed in range(4)]
        churn.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "stress thread wedged"
        stop.set()
        churn.join(timeout=10)
    assert errors == []
    assert len(responses) == 4 * REQUESTS_PER_THREAD
    final_version = recommender.index_version
    for key, result in responses:
        # Model weights never changed, so every answer matches direct
        # retrieval regardless of which snapshot served it...
        reference = expected[key]
        assert np.array_equal(result.items, reference.items)
        # ...and no answer claims a version that never existed.
        assert 1 <= result.index_version <= final_version


def test_lru_entries_invalidate_after_refresh(recommender, request_pool):
    pool, _ = request_pool
    history, k = pool[0]
    with MicroBatcher(recommender, max_batch=4, cache_size=64) as batcher:
        first = batcher.recommend(history, k=k)
        assert batcher.recommend(history, k=k).cached is True
        new_version = recommender.refresh()
        assert new_version == first.index_version + 1
        # The pre-refresh entry is keyed under the old version: the next
        # request must miss, re-score against the new snapshot, and only
        # then repopulate the cache under the new version.
        fresh = batcher.recommend(history, k=k)
        assert fresh.cached is False
        assert fresh.index_version == new_version
        assert batcher.recommend(history, k=k).cached is True
