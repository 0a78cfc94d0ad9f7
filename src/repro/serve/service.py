"""The serving facade: registry routing + per-scenario micro-batchers.

:class:`RecommendationService` is what the HTTP endpoint (and the CLI)
talk to: it owns a :class:`~repro.serve.registry.ModelRegistry`, lazily
attaches a :class:`~repro.serve.batcher.MicroBatcher` to each scenario,
and answers ``recommend(dataset, model, history, k)`` with a
JSON-serializable payload including the request latency.

A streaming manager (``repro.stream``) can be attached to close the
train→serve loop online: the service then accepts ``POST /events``
ingestion and exposes swap/staleness counters on ``/stats``, and its
routing survives hot swaps — a request that races a scenario
replacement is transparently retried against the new generation, so
swaps never drop traffic. The service only knows the small duck-typed
protocol (``ingest`` / ``swap`` / ``stats`` / ``close``), keeping the
layering one-directional (stream imports serve, never the reverse).
"""

from __future__ import annotations

import threading
import time

from ..obs import metrics, trace
from .batcher import BatcherClosed, MicroBatcher
from .recommender import Recommendation
from .registry import ModelRegistry, Scenario

__all__ = ["RecommendationService", "SelfMonitoring", "scenario_counters"]

# The /stats field each scenario-labeled series feeds, keyed by the
# series name and the value of its one other label (None: no other).
_COUNT_FIELDS = {
    ("repro_serve_batcher_requests_total", None): "requests",
    ("repro_serve_cache_total", "hit"): "cache_hits",
    ("repro_serve_cache_total", "miss"): "cache_misses",
    ("repro_serve_flushes_total", "size"): "size_flushes",
    ("repro_serve_flushes_total", "timeout"): "timeout_flushes",
    ("repro_serve_batch_size_max", None): "largest_batch",
}
_ROUTING_FIELDS = {("repro_serve_batches_total", "ann"): "ann_batches",
                   ("repro_serve_batches_total", "exact"): "exact_batches"}
_FALLBACKS = "repro_serve_ann_fallbacks_total"
_FAMILIES = ({name for name, _ in _COUNT_FIELDS}
             | {name for name, _ in _ROUTING_FIELDS} | {_FALLBACKS})


def scenario_counters(exposition: str, scenarios) -> dict[str, dict]:
    """The per-scenario counter block of ``/stats``, read from ``exposition``.

    Every count ``/stats`` shows comes from here: the in-process
    service passes its registry render, the pooled parent its merged
    ``/metrics`` text, and each pool worker its own render. ``/stats``
    and ``/metrics`` are therefore two views of one registry and cannot
    disagree. ``scenarios`` names the rows to build (``dataset:model``
    labels); a row whose series are absent reads all zeros.
    ``largest_batch`` is a max-merged high-water gauge and
    ``mean_batch`` is cache misses per flush.
    """
    rows = {name: {"requests": 0, "batches": 0, "size_flushes": 0,
                   "timeout_flushes": 0, "cache_hits": 0,
                   "cache_misses": 0, "largest_batch": 0,
                   "retrieval": {"ann_batches": 0, "exact_batches": 0,
                                 "fallbacks": {}}}
            for name in scenarios}
    for (name, label_str), value in \
            metrics.parse_prometheus(exposition).items():
        if name not in _FAMILIES:
            continue
        labels = metrics.parse_label_string(label_str)
        row = rows.get(labels.pop("scenario", None))
        if row is None:
            continue
        key = (name, next(iter(labels.values()), None))
        if key in _COUNT_FIELDS:
            row[_COUNT_FIELDS[key]] = int(value)
        elif key in _ROUTING_FIELDS:
            row["retrieval"][_ROUTING_FIELDS[key]] = int(value)
        elif name == _FALLBACKS and value:
            row["retrieval"]["fallbacks"][key[1]] = int(value)
    for row in rows.values():
        row["batches"] = row["size_flushes"] + row["timeout_flushes"]
        row["mean_batch"] = (row["cache_misses"] / row["batches"]
                             if row["batches"] else 0.0)
    return rows


class SelfMonitoring:
    """The surface both serving tiers share.

    :class:`RecommendationService` and the pooled service
    (``repro.serve.pool``) inherit the batcher settings, the
    per-scenario request-latency histograms, the streaming hooks, the
    ``/stats`` assembly and the health/timeline endpoints from here, so
    every deployment shape reads the same. Each tier supplies its own
    ``recommend``, ``metrics_text`` and ``_serving_state``.

    Without :meth:`enable_monitoring`, ``/health`` stays the legacy
    unconditional-``ok`` payload and the other monitoring endpoints
    report ``monitoring: false``.
    """

    monitor = None      # set by enable_monitoring()

    def __init__(self, registry: ModelRegistry, max_batch: int,
                 cache_size: int, batching: bool):
        self.registry = registry
        self.settings = {"max_batch": max_batch, "cache_size": cache_size,
                         "batching": batching}
        self.stream = None          # attached via attach_stream()
        self._closed = False
        # End-to-end latency per scenario lives in log-bucketed
        # histograms: /stats reads p50/p99 in O(1) over ~64 buckets.
        self._latency: dict[str, metrics.Histogram] = {}
        self._m_swap_races = metrics.counter(
            "repro_serve_swap_race_retries_total",
            "requests retried because they raced a hot swap")

    def _observe_latency(self, dataset: str, model: str,
                         seconds: float) -> None:
        name = f"{dataset}:{model}"
        hist = self._latency.get(name)
        if hist is None:
            # Registry get-or-create is idempotent, so a benign double
            # create under race just returns the same instrument.
            hist = self._latency[name] = metrics.histogram(
                "repro_serve_request_seconds",
                "end-to-end recommend() latency", labels={"scenario": name})
        hist.observe(seconds)

    # -- streaming -----------------------------------------------------------

    def attach_stream(self, manager) -> None:
        """Attach a continual-learning manager (see ``repro.stream``).

        ``manager`` must provide ``ingest(dataset, model, events)``,
        ``swap(dataset, model)``, ``stats()`` and ``close()``. Once
        attached, the manager's lifecycle is tied to the service's.
        """
        self.stream = manager

    def _require_stream(self):
        if self.stream is None:
            raise ValueError("streaming is not enabled on this service; "
                             "start it with `repro stream`")
        return self.stream

    def ingest_events(self, dataset: str, model: str, events: list) -> dict:
        """Feed interaction/cold-item events to the streaming pipeline."""
        return self._require_stream().ingest(dataset, model, events)

    def trigger_swap(self, dataset: str, model: str) -> dict:
        """Force a hot swap of one scenario's model/index generation."""
        return self._require_stream().swap(dataset, model)

    # -- introspection -------------------------------------------------------

    def scenarios(self) -> list[dict]:
        return self.registry.describe()

    def stats(self) -> dict:
        """The ``GET /stats`` body on either tier.

        Counts come from :func:`scenario_counters` over
        :meth:`metrics_text`; queue depth, retrieval configuration and
        the ``pool`` topology are live state from ``_serving_state``.
        The counters are scenario-labeled and outlive batcher and
        worker generations, so a hot swap never resets a row.
        """
        state, topology = self._serving_state()
        rows = scenario_counters(self.metrics_text(), state)
        for name, row in rows.items():
            row["queue_depth"], config = state[name]
            row["retrieval"] = {**config, **row["retrieval"]}
            hist = self._latency.get(name)
            if hist is not None and hist.count:
                row["latency_ms"] = hist.snapshot().to_json(scale=1e3)
        payload = {"scenarios": rows,
                   "swap_race_retries": int(self._m_swap_races.value),
                   "pool": topology,
                   "settings": dict(self.settings)}
        if self.stream is not None:
            payload["stream"] = self.stream.stats()
        return payload

    # -- self-monitoring -----------------------------------------------------

    def enable_monitoring(self, interval_s: float = 1.0,
                          window_s: float = 300.0, rules=None,
                          start: bool = True):
        """Attach a timeline + SLO health monitor (idempotent).

        The monitor samples this service's own ``metrics_text()`` —
        already merged across pool workers on the pooled tier — every
        ``interval_s`` seconds and evaluates its rules after each
        sample. ``start=False`` skips the background thread so tests
        can drive ``monitor.timeline.sample()`` deterministically.
        """
        if self.monitor is None:
            from ..obs.health import monitor_service
            self.monitor = monitor_service(
                self, interval_s=interval_s, window_s=window_s,
                rules=rules, start=start)
        return self.monitor

    def health(self) -> dict:
        """The ``GET /health`` body; 503-worthy iff status is failing."""
        if self.monitor is None:
            return {"status": "ok", "monitoring": False, "causes": [],
                    "scenarios": len(self.registry)}
        payload = self.monitor.status()
        payload["scenarios"] = len(self.registry)
        return payload

    def alerts(self) -> dict:
        if self.monitor is None:
            return {"monitoring": False, "status": "ok",
                    "active": [], "history": [], "rules": []}
        return self.monitor.alerts()

    def timeline_export(self, metric: str | None = None,
                        window_s: float | None = None) -> dict:
        if self.monitor is None:
            return {"monitoring": False, "metrics": [], "series": []}
        return self.monitor.timeline.export(metric, window_s=window_s)

    # -- lifecycle -----------------------------------------------------------

    def _close_monitor(self) -> None:
        monitor, self.monitor = self.monitor, None
        if monitor is not None:
            monitor.close()

    def _close_background(self) -> None:
        """Stop the sampler, then the fine-tune workers, before serving."""
        self._close_monitor()
        stream, self.stream = self.stream, None
        if stream is not None:
            stream.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RecommendationService(SelfMonitoring):
    """Route requests to scenarios, micro-batching each scenario's load."""

    def __init__(self, registry: ModelRegistry, max_batch: int = 32,
                 cache_size: int = 1024, batching: bool = True):
        super().__init__(registry, max_batch=max_batch,
                         cache_size=cache_size, batching=batching)
        self._batchers: dict[tuple[str, str], MicroBatcher] = {}
        self._lock = threading.Lock()

    # -- internals -----------------------------------------------------------

    def _batcher(self, scenario: Scenario) -> MicroBatcher:
        key = scenario.spec.key
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            existing = self._batchers.get(key)
            if (existing is not None
                    and existing.recommender is not scenario.recommender):
                # The registry hot-swapped this scenario (re-add replaces
                # it); retire the batcher bound to the old recommender.
                existing.close()
                existing = None
            if existing is None:
                settings = self.settings
                existing = MicroBatcher(
                    scenario.recommender, max_batch=settings["max_batch"],
                    cache_size=settings["cache_size"],
                    start=settings["batching"],
                    metrics_label=f"{key[0]}:{key[1]}")
                self._batchers[key] = existing
            return existing

    def _serving_state(self) -> tuple[dict, dict]:
        with self._lock:
            depths = {key: batcher.queue_depth
                      for key, batcher in self._batchers.items()}
        state = {}
        for scenario in self.registry:
            key = scenario.spec.key
            state[f"{key[0]}:{key[1]}"] = (
                depths.get(key, 0), scenario.recommender.describe_retrieval())
        # Topology parity with the pooled tier: consumers can branch on
        # mode instead of sniffing for pool keys.
        return state, {"mode": "in-process", "workers": 0}

    # -- request API ---------------------------------------------------------

    def recommend(self, dataset: str, model: str, history,
                  k: int = 10) -> dict:
        """Answer one request; returns the JSON payload for the endpoint."""
        if self._closed:
            raise RuntimeError("service is closed")
        start = time.perf_counter()
        # A request can race a hot swap: it resolves the scenario, the
        # swap publishes a new generation and retires the old batcher,
        # then the request submits to the now-closed batcher. The old
        # batcher drained everything already queued before closing, so
        # the only casualty is this not-yet-queued request — retry it
        # against the replacement generation instead of dropping it.
        for attempt in range(5):
            scenario = self.registry.get(dataset, model)
            try:
                result: Recommendation = self._batcher(scenario).recommend(
                    history, k=k)
                break
            except BatcherClosed:
                if attempt == 4:  # pragma: no cover - would need 5 swaps
                    raise
                # Observable on /stats: a spike means swaps are so
                # frequent requests keep landing on retiring batchers.
                self._m_swap_races.inc()
        elapsed = time.perf_counter() - start
        self._observe_latency(dataset, model, elapsed)
        ctx = trace.current()
        if ctx is not None:
            ctx.meta.setdefault("cached", result.cached)
        payload = result.to_json()
        payload.update(dataset=dataset, model=model,
                       latency_ms=elapsed * 1e3)
        return payload

    def refresh(self, dataset: str, model: str) -> int:
        """Rebuild one scenario's catalogue index; returns the new version."""
        return self.registry.get(dataset, model).recommender.refresh()

    # -- hot swap ------------------------------------------------------------

    def publish_generation(self, scenario: Scenario) -> dict:
        """Flip routing to ``scenario`` and retire the old batcher.

        The single entry point the hot-swap path (``repro.stream``)
        calls to make a new generation live. The pooled service
        (``repro.serve.pool``) overrides this with a shared-memory
        publish + generation fence; the in-process version is
        ``registry.publish`` plus closing the old generation's batcher,
        timed with the same keys (``publish_s`` / ``fence_s`` /
        ``drain_s``) so the swap-phase observability reads identically
        in both tiers. Closing drains every request already queued
        against the old (still fully consistent) model+index; new
        requests build a fresh batcher bound to the new generation.
        """
        tick = time.perf_counter()
        self.registry.publish(scenario)
        published = time.perf_counter()
        with self._lock:
            batcher = self._batchers.pop(scenario.spec.key, None)
        if batcher is not None:
            batcher.close()
        done = time.perf_counter()
        return {"workers": 0, "acked": 0, "errors": [],
                "publish_s": published - tick, "fence_s": 0.0,
                "drain_s": done - published}

    # -- introspection -------------------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /metrics``.

        The in-process service has exactly one process, so this is the
        global registry's render; the pooled service overrides it with
        a cross-process merge.
        """
        return metrics.render_prometheus()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._close_background()
        with self._lock:
            self._closed = True
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()
