"""MicroBatcher: flush triggers, coalescing, LRU cache accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import LRUCache, MicroBatcher

from .conftest import counted, serving_counts


@pytest.fixture()
def histories(dataset):
    return [ex.history for ex in dataset.split.test[:12]]


def test_flush_on_size_trigger(recommender, histories):
    with counted() as delta, MicroBatcher(
            recommender, max_batch=4, max_wait_ms=10_000.0,
            cache_size=0) as batcher:
        futures = [batcher.submit(h, k=3) for h in histories[:4]]
        results = [f.result(timeout=30) for f in futures]
    # The worker never had to wait out the clock: the 4th submit filled
    # the batch.
    assert delta["size_flushes"] >= 1
    assert delta["requests"] == 4
    for history, result in zip(histories[:4], results):
        expected = recommender.recommend(history, k=3)
        assert np.array_equal(result.items, expected.items)


def test_flush_on_timeout_trigger(recommender, histories):
    with counted() as delta, MicroBatcher(
            recommender, max_batch=64, max_wait_ms=20.0,
            cache_size=0) as batcher:
        future = batcher.submit(histories[0], k=3)
        result = future.result(timeout=30)
    assert delta["timeout_flushes"] == 1
    assert delta["size_flushes"] == 0
    assert np.array_equal(result.items,
                          recommender.recommend(histories[0], k=3).items)


def test_coalescing_batches_fewer_than_requests(recommender, histories,
                                                fresh_label):
    with counted(fresh_label) as delta, MicroBatcher(
            recommender, max_batch=6, max_wait_ms=50.0, cache_size=0,
            metrics_label=fresh_label) as batcher:
        futures = [batcher.submit(h, k=3) for h in histories]
        for future in futures:
            future.result(timeout=30)
    assert delta["requests"] == len(histories)
    assert delta["batches"] < len(histories)
    # A fresh label: the high-water gauge saw only this batcher.
    assert serving_counts(fresh_label)["largest_batch"] > 1


def test_lru_cache_hit_and_miss_accounting(recommender, histories):
    with counted() as delta, MicroBatcher(
            recommender, max_batch=4, max_wait_ms=5.0,
            cache_size=8) as batcher:
        first = batcher.recommend(histories[0], k=3)
        assert first.cached is False
        again = batcher.recommend(histories[0], k=3)
        assert again.cached is True
        assert np.array_equal(first.items, again.items)
        # Different k is a different request.
        other_k = batcher.recommend(histories[0], k=2)
        assert other_k.cached is False
    assert delta["cache_hits"] == 1
    assert delta["cache_misses"] == 2


def test_stale_index_bypasses_cache_until_rebuilt(recommender, histories):
    with MicroBatcher(recommender, max_batch=4, max_wait_ms=5.0,
                      cache_size=8) as batcher:
        first = batcher.recommend(histories[0], k=3)
        # Weight update: version number still names the old snapshot, so
        # the cached answer must not be served.
        recommender.index.mark_stale()
        after = batcher.recommend(histories[0], k=3)
        assert after.cached is False
        assert after.index_version == first.index_version + 1
        # Once rebuilt, caching resumes under the new version.
        again = batcher.recommend(histories[0], k=3)
        assert again.cached is True


def test_cache_invalidated_by_index_refresh(recommender, histories):
    with counted() as delta, MicroBatcher(
            recommender, max_batch=4, max_wait_ms=5.0,
            cache_size=8) as batcher:
        batcher.recommend(histories[0], k=3)
        recommender.refresh()          # new index version => new cache keys
        refreshed = batcher.recommend(histories[0], k=3)
        assert refreshed.cached is False
    assert delta["cache_hits"] == 0


def test_manual_mode_flushes_inline(recommender, histories):
    with counted() as delta:
        batcher = MicroBatcher(recommender, max_batch=4, cache_size=0,
                               start=False)
        result = batcher.recommend(histories[0], k=3)
    assert np.array_equal(result.items,
                          recommender.recommend(histories[0], k=3).items)
    assert delta["batches"] == 1
    batcher.close()


def test_mixed_k_batch_truncates_per_request(recommender, histories):
    batcher = MicroBatcher(recommender, max_batch=4, cache_size=0,
                           start=False)
    with counted() as delta:
        small = batcher.submit(histories[0], k=2)
        large = batcher.submit(histories[1], k=7)
        batcher.flush_pending()
    assert len(small.result(timeout=5).items) == 2
    assert len(large.result(timeout=5).items) == 7
    assert delta["batches"] == 1
    batcher.close()


def test_submit_after_close_raises(recommender, histories):
    batcher = MicroBatcher(recommender, max_batch=4, start=False)
    batcher.close()
    with pytest.raises(RuntimeError):
        batcher.submit(histories[0], k=3)


def test_scoring_errors_propagate_to_futures(recommender, monkeypatch):
    batcher = MicroBatcher(recommender, max_batch=4, cache_size=0,
                           start=False)
    first = batcher.submit(np.array([1]), k=3)
    second = batcher.submit(np.array([2]), k=3)

    def broken(histories, k=10):
        raise RuntimeError("scoring failed")

    # A failure inside the flush itself reaches every waiter of the batch.
    monkeypatch.setattr(recommender, "recommend_batch", broken)
    batcher.flush_pending()
    for future in (first, second):
        with pytest.raises(RuntimeError, match="scoring failed"):
            future.result(timeout=5)
    batcher.close()


def test_malformed_request_fails_alone(recommender, histories):
    batcher = MicroBatcher(recommender, max_batch=8, cache_size=8,
                           start=False)
    good = batcher.submit(histories[0], k=3)
    # Refused at submit, so it never joins (and never fails) the batch.
    with pytest.raises(ValueError, match="history items must be in"):
        batcher.submit(np.array([10_000]), k=3)
    with pytest.raises(ValueError, match="history must contain"):
        batcher.submit(np.array([], dtype=np.int64), k=3)
    for bad_k in (0, -4):
        with pytest.raises(ValueError, match="k must be positive"):
            batcher.submit(histories[1], k=bad_k)
    assert batcher.flush_pending() == 1
    assert len(good.result(timeout=5).items) == 3
    with pytest.raises(ValueError, match="k must be positive"):
        batcher.submit(histories[1], k=-4)      # nothing was cached
    batcher.close()


def test_results_are_frozen_so_cache_cannot_be_corrupted(recommender,
                                                         histories):
    with MicroBatcher(recommender, max_batch=4, max_wait_ms=5.0,
                      cache_size=8) as batcher:
        first = batcher.recommend(histories[0], k=3)
        with pytest.raises(ValueError):
            first.items[0] = -1        # shared with the LRU: read-only
        again = batcher.recommend(histories[0], k=3)
        assert again.cached is True
        assert np.array_equal(again.items, first.items)


def test_lru_cache_eviction_order():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1         # refresh "a"; "b" is now oldest
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2


def test_lru_cache_zero_capacity_is_disabled():
    cache = LRUCache(capacity=0)
    cache.put("a", 1)
    assert cache.get("a") is None and len(cache) == 0
