"""A malformed request fails alone, on both serving tiers.

Requests are validated when submitted to the micro-batcher, not inside
the flush: a bad history or a non-positive ``k`` must be refused
without failing (or, for ``k``, silently answering and caching) the
valid requests that would have been flushed in the same batch. Each
case first sends a slow sentinel request, then issues its requests at
once while the sentinel's flush runs, so they queue behind it and
share the next batch.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.serve import ModelRegistry, RecommendationService
from repro.serve.pool import PooledRecommendationService
from repro.serve.recommender import Recommender

# A sentinel history is SENTINEL_PREFIX plus a fresh item, so it never
# hits the cache. Its flush sleeps long enough that every request of a
# case queues behind it and lands in the one flush that follows.
SENTINEL_PREFIX = [1] * 8
SENTINEL_SLEEP_S = 0.3
_SENTINELS = itertools.count(1)
# Set by the sentinel's flush; made before any pool fork, so forked
# workers signal the test process through it.
_SENTINEL_FLUSHING = multiprocessing.get_context("fork").Event()


def _is_sentinel(history) -> bool:
    history = np.asarray(history)
    return (len(history) == len(SENTINEL_PREFIX) + 1
            and bool((history[:-1] == SENTINEL_PREFIX).all()))


@pytest.fixture(scope="module", autouse=True)
def slow_sentinel_flush():
    """Make a batch holding a sentinel history sleep (both tiers)."""
    original = Recommender.recommend_batch

    def recommend_batch(self, histories, k=10):
        if any(_is_sentinel(h) for h in histories):
            _SENTINEL_FLUSHING.set()
            time.sleep(SENTINEL_SLEEP_S)
        return original(self, histories, k=k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Recommender, "recommend_batch", recommend_batch)
        yield


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry(profile="smoke", dtype="float32")
    reg.add("kwai_food:sasrec")
    return reg


@pytest.fixture(scope="module", params=["in-process", "pool"])
def service(request, registry):
    if request.param == "pool":
        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shared memory filesystem required")
        # One worker, so every request reaches the same batcher.
        svc = PooledRecommendationService(registry, workers=1)
    else:
        svc = RecommendationService(registry)
    yield svc
    svc.close()


def _history(registry, row: int) -> list[int]:
    scenario = registry.get("kwai_food", "sasrec")
    return [int(i) for i in scenario.dataset.split.test[row].history]


def _concurrently(service, requests) -> list:
    """Issue ``(history, k)`` requests at once; one payload or error each.

    They are sent while a sentinel request's slow flush runs, so they
    all queue and share the next flush.
    """
    barrier = threading.Barrier(len(requests))
    outcomes: list = [None] * len(requests)
    sentinel = SENTINEL_PREFIX + [next(_SENTINELS)]
    _SENTINEL_FLUSHING.clear()
    head = threading.Thread(target=service.recommend,
                            args=("kwai_food", "sasrec", sentinel))
    head.start()
    assert _SENTINEL_FLUSHING.wait(timeout=30)

    def call(slot, history, k):
        barrier.wait()
        try:
            outcomes[slot] = service.recommend("kwai_food", "sasrec",
                                               history, k=k)
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            outcomes[slot] = exc

    threads = [threading.Thread(target=call, args=(slot, *req))
               for slot, req in enumerate(requests)]
    for thread in threads:
        thread.start()
    for thread in [head] + threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    return outcomes


def test_requests_queued_behind_a_flush_share_one_batch(service, registry):
    # The guarantee every case below relies on: the requests sent while
    # the sentinel's flush runs go out together in the next flush.
    before = service.stats()["scenarios"]["kwai_food:sasrec"]
    outcomes = _concurrently(service, [(_history(registry, row), 4)
                                       for row in range(10, 14)])
    assert all(isinstance(payload, dict) for payload in outcomes), outcomes
    after = service.stats()["scenarios"]["kwai_food:sasrec"]
    assert after["requests"] - before["requests"] == 5
    assert after["batches"] - before["batches"] == 2


def test_bad_history_fails_only_its_own_request(service, registry):
    num_items = registry.get("kwai_food", "sasrec").dataset.num_items
    outcomes = _concurrently(service, [
        (_history(registry, 0), 5), (_history(registry, 1), 5),
        (_history(registry, 2), 5), ([num_items + 50], 5)])
    for payload in outcomes[:3]:
        assert isinstance(payload, dict), payload
        assert len(payload["items"]) == 5
    assert isinstance(outcomes[3], ValueError)
    assert "history items must be in" in str(outcomes[3])


@pytest.mark.parametrize("bad_k", [0, -4])
def test_non_positive_k_is_refused_even_when_batched(service, registry,
                                                     bad_k):
    row = 3 if bad_k == 0 else 6
    bad_history = _history(registry, row + 2)
    outcomes = _concurrently(service, [
        (_history(registry, row), 6), (_history(registry, row + 1), 6),
        (bad_history, bad_k)])
    for payload in outcomes[:2]:
        assert isinstance(payload, dict), payload
        assert len(payload["items"]) == 6
    assert isinstance(outcomes[2], ValueError)
    assert "k must be positive" in str(outcomes[2])
    # Nothing was cached under the bad k: alone it is refused again.
    with pytest.raises(ValueError, match="k must be positive"):
        service.recommend("kwai_food", "sasrec", bad_history, k=bad_k)
