"""A malformed request fails alone, on both serving tiers.

Requests are validated when submitted to the micro-batcher, not inside
the flush: a bad history or a non-positive ``k`` must be refused
without failing (or, for ``k``, silently answering and caching) the
valid requests that would have been flushed in the same batch. Each
case issues its requests at once behind a long flush wait, so they
share one batch.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.serve import ModelRegistry, RecommendationService
from repro.serve.pool import PooledRecommendationService

# Long enough that every request of a case lands in one flush.
WAIT_MS = 200.0


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
        svc = PooledRecommendationService(registry, workers=1,
                                          max_wait_ms=WAIT_MS)
    else:
        svc = RecommendationService(registry, max_wait_ms=WAIT_MS)
    yield svc
    svc.close()


def _history(registry, row: int) -> list[int]:
    scenario = registry.get("kwai_food", "sasrec")
    return [int(i) for i in scenario.dataset.split.test[row].history]


def _concurrently(service, requests) -> list:
    """Issue ``(history, k)`` requests at once; one payload or error each."""
    barrier = threading.Barrier(len(requests))
    outcomes: list = [None] * len(requests)

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
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    return outcomes


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
