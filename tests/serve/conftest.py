"""Shared fixtures for the serving-subsystem tests (smoke-scale)."""

from __future__ import annotations

import contextlib
import threading
import uuid
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import make_baseline
from repro.data import build_dataset
from repro.obs import metrics
from repro.serve import Recommender, scenario_counters

_DELTA_FIELDS = ("requests", "batches", "size_flushes", "timeout_flushes",
                 "cache_hits", "cache_misses")


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("kwai_food", profile="smoke")


@pytest.fixture(scope="module")
def model(dataset):
    return make_baseline("sasrec", dataset, seed=0)


@pytest.fixture(scope="module")
def recommender(model, dataset):
    return Recommender(model, dataset)


def reference_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Stable full-sort reference the argpartition path must agree with."""
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]


def serving_counts(scenario: str = "default") -> dict:
    """One scenario label's serving counters, as ``/metrics`` reports them."""
    return scenario_counters(metrics.render_prometheus(),
                             [scenario])[scenario]


@contextlib.contextmanager
def counted(scenario: str = "default"):
    """Yield a dict that, after the block, holds the counter deltas.

    Counters live in the process-wide registry, so a test measures
    what its own operations added rather than absolute values. Routing
    counts are flattened in (``ann_batches``, ``exact_batches``) and
    ``fallbacks`` keeps only the reasons that moved.
    """
    before = serving_counts(scenario)
    delta: dict = {}
    yield delta
    after = serving_counts(scenario)
    delta.update({field: after[field] - before[field]
                  for field in _DELTA_FIELDS})
    was, now = before["retrieval"], after["retrieval"]
    for field in ("ann_batches", "exact_batches"):
        delta[field] = now[field] - was[field]
    delta["fallbacks"] = {
        reason: count - was["fallbacks"].get(reason, 0)
        for reason, count in now["fallbacks"].items()
        if count != was["fallbacks"].get(reason, 0)}


@contextlib.contextmanager
def held_flush(recommender):
    """Hold the first ``recommend_batch`` call until ``release`` is set.

    The batcher flushes whenever its worker is free, so a test builds a
    multi-request batch by holding one flush and queueing behind it.
    Yields a namespace: ``entered`` is set once the held flush runs,
    ``release`` lets it finish, and ``widths`` records every flush's
    batch width in call order.
    """
    held = SimpleNamespace(entered=threading.Event(),
                           release=threading.Event(), widths=[])
    original = recommender.recommend_batch

    def recommend_batch(histories, k=10):
        held.widths.append(len(histories))
        if len(held.widths) == 1:
            held.entered.set()
            assert held.release.wait(timeout=30), "held flush never released"
        return original(histories, k=k)

    recommender.recommend_batch = recommend_batch
    try:
        yield held
    finally:
        held.release.set()
        del recommender.recommend_batch


@pytest.fixture()
def fresh_label():
    """A scenario label no other test wrote, for high-water gauges."""
    return f"test-{uuid.uuid4().hex[:12]}"
