"""Shared fixtures for the serving-subsystem tests (smoke-scale)."""

from __future__ import annotations

import contextlib
import uuid

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


@pytest.fixture()
def fresh_label():
    """A scenario label no other test wrote, for high-water gauges."""
    return f"test-{uuid.uuid4().hex[:12]}"
