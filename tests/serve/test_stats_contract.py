"""The ``/stats`` contract, pinned on both serving tiers.

``/stats`` is the JSON view operators and ``repro top`` read; its shape
must not drift between the in-process service and the worker pool, and
its counts must agree with ``/metrics``, hot swaps included. Three
layers of checks:

* the schema: every key and value type of the top-level payload, the
  per-scenario block, ``pool``, ``settings`` and ``retrieval``;
* both tiers report one per-scenario key set;
* across a hot swap (``publish_generation`` in-process, ``refresh`` on
  the pool) the scenario row survives, its counts never decrease, and
  each count equals the ``/metrics`` series it mirrors.
"""

from __future__ import annotations

import os

import pytest

from repro.obs import metrics
from repro.serve import ModelRegistry, RecommendationService
from repro.serve.pool import PooledRecommendationService

SCENARIO = "kwai_food:sasrec"

TOP_LEVEL = {"scenarios": dict, "swap_race_retries": int, "pool": dict,
             "settings": dict}
COUNTS = {"requests": int, "batches": int, "size_flushes": int,
          "timeout_flushes": int, "cache_hits": int, "cache_misses": int,
          "largest_batch": int}
SCENARIO_KEYS = {**COUNTS, "mean_batch": float, "queue_depth": int,
                 "retrieval": dict, "latency_ms": dict}
# The per-scenario keys each tier has always reported: none may go.
REQUIRED = {"in_process": set(COUNTS) | {"mean_batch", "retrieval",
                                         "latency_ms"},
            "pooled": set(COUNTS) | {"queue_depth", "retrieval",
                                     "latency_ms"}}
RETRIEVAL = {"retrieval": str, "min_ann_items": int, "ann_batches": int,
             "exact_batches": int, "fallbacks": dict}
LATENCY = {"count": int, "sum": float, "p50": float, "p95": float,
           "p99": float, "mean": float}
SETTINGS = {"max_batch": int, "cache_size": int, "batching": bool}
POOL = {"mode": str, "workers": int, "alive": int, "generations": dict,
        "fence": dict, "per_worker": list}
FENCE_KEYS = {"state", "scenario", "generation", "acked", "errors", "ms",
              "timeout_s"}
WORKER = {"worker": int, "pid": int, "alive": bool, "requests": int,
          "inflight": int, "scenarios": dict}
WORKER_SCENARIO = {**COUNTS, "mean_batch": float, "generation": int,
                   "index_version": int, "queue_depth": int,
                   "retrieval": dict}

# Each mirrored count and the /metrics family (plus label filter) whose
# per-scenario sum it must equal.
MIRRORS = {"requests": ("repro_serve_batcher_requests_total", {}),
           "cache_hits": ("repro_serve_cache_total", {"outcome": "hit"}),
           "cache_misses": ("repro_serve_cache_total", {"outcome": "miss"}),
           "batches": ("repro_serve_flushes_total", {})}


def _typed(value, kind) -> bool:
    # bool is an int subclass; a count must never render as one.
    if kind is int:
        return type(value) is int
    return isinstance(value, kind)


def _check(obj: dict, schema: dict, exact: bool = True) -> None:
    if exact:
        assert set(obj) == set(schema), (sorted(obj), sorted(schema))
    for key, value in obj.items():
        assert key in schema, f"unexpected key {key!r}"
        assert _typed(value, schema[key]), (key, value, schema[key])


def _registry() -> ModelRegistry:
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add(SCENARIO, seed=0)
    return registry


@pytest.fixture(scope="module")
def in_process():
    service = RecommendationService(_registry())
    yield service
    service.close()


@pytest.fixture(scope="module")
def pooled():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("POSIX shared memory filesystem required")
    service = PooledRecommendationService(_registry(), workers=2)
    yield service
    service.close()


@pytest.fixture(params=["in_process", "pooled"])
def tier(request):
    return request.param, request.getfixturevalue(request.param)


def _traffic(service, rows=range(4), repeats: int = 2) -> None:
    """Unique histories (misses) each sent ``repeats`` times (hits)."""
    scenario = service.registry.get(*SCENARIO.split(":"))
    for row in rows:
        history = [int(i) for i in scenario.dataset.split.test[row].history]
        for _ in range(repeats):
            service.recommend(*SCENARIO.split(":"), history, k=5)


def _series(parsed: dict, name: str, scenario: str, **match) -> int:
    total = 0.0
    for (sample, label_str), value in parsed.items():
        labels = metrics.parse_label_string(label_str)
        if (sample == name and labels.get("scenario") == scenario
                and all(labels.get(k) == v for k, v in match.items())):
            total += value
    return int(total)


def _assert_mirrors_metrics(service, row: dict) -> None:
    parsed = metrics.parse_prometheus(service.metrics_text())
    for field, (name, match) in MIRRORS.items():
        assert row[field] == _series(parsed, name, SCENARIO, **match), field


# -- schema ------------------------------------------------------------------


def test_stats_schema(tier):
    name, service = tier
    _traffic(service)
    stats = service.stats()
    _check(stats, TOP_LEVEL)
    assert SCENARIO in stats["scenarios"]
    for row in stats["scenarios"].values():
        assert REQUIRED[name] <= set(row), sorted(row)
        _check(row, SCENARIO_KEYS, exact=False)
        _check(row["retrieval"], RETRIEVAL)
    row = stats["scenarios"][SCENARIO]
    _check(row["latency_ms"], LATENCY)
    assert row["requests"] >= 8 and row["latency_ms"]["count"] >= 8
    if name == "in_process":
        _check(stats["settings"], SETTINGS)
        assert stats["pool"] == {"mode": "in-process", "workers": 0}
        return
    _check(stats["settings"], {**SETTINGS, "workers": int})
    pool = stats["pool"]
    _check(pool, POOL)
    assert pool["mode"] == "pool" and pool["workers"] == 2
    assert {"state", "timeout_s"} <= set(pool["fence"]) <= FENCE_KEYS
    assert set(pool["generations"]) == {SCENARIO}
    assert len(pool["per_worker"]) == 2
    for worker in pool["per_worker"]:
        _check(worker, WORKER)
        assert set(worker["scenarios"]) == {SCENARIO}
        for counters in worker["scenarios"].values():
            _check(counters, WORKER_SCENARIO)
            _check(counters["retrieval"], RETRIEVAL)


def test_tiers_share_one_scenario_key_set(in_process, pooled):
    _traffic(in_process, rows=[0], repeats=1)
    _traffic(pooled, rows=[0], repeats=1)
    local = in_process.stats()["scenarios"][SCENARIO]
    remote = pooled.stats()["scenarios"][SCENARIO]
    assert set(local) == set(remote) == set(SCENARIO_KEYS)
    assert set(local["retrieval"]) == set(remote["retrieval"])


# -- hot swap ----------------------------------------------------------------


def _swap(name: str, service) -> None:
    dataset, model = SCENARIO.split(":")
    if name == "pooled":
        service.refresh(dataset, model)
        return
    live = service.registry.get(dataset, model)
    fresh = service.registry.build_scenario(live.spec, live.dataset,
                                            live.model)
    fresh.recommender.refresh()
    service.publish_generation(fresh)


def test_counts_survive_a_hot_swap_and_match_metrics(tier):
    name, service = tier
    _traffic(service, rows=range(4, 8))
    before = service.stats()["scenarios"][SCENARIO]
    _assert_mirrors_metrics(service, before)

    _swap(name, service)
    swapped = service.stats()["scenarios"].get(SCENARIO)
    assert swapped is not None, "the scenario row vanished on swap"
    assert "latency_ms" in swapped
    assert swapped["latency_ms"]["count"] >= before["latency_ms"]["count"]
    for field in MIRRORS:
        assert swapped[field] >= before[field], field
    _assert_mirrors_metrics(service, swapped)

    _traffic(service, rows=[8], repeats=1)
    after = service.stats()["scenarios"][SCENARIO]
    assert after["requests"] > swapped["requests"]
    for field in MIRRORS:
        assert after[field] >= swapped[field], field
    assert after["latency_ms"]["count"] > swapped["latency_ms"]["count"]
    _assert_mirrors_metrics(service, after)
