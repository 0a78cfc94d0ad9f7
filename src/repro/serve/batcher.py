"""Request micro-batching: coalesce concurrent requests into one pass.

The numpy substrate's throughput scales with batch width (one user
encoder pass over ``(B, L, d)`` costs barely more than over
``(1, L, d)``), so the server queues incoming requests and flushes them
as one ``recommend_batch`` call when either the batch is full (*size*
trigger) or the oldest request has waited ``max_wait_ms`` (*timeout*
trigger). Repeat users hit an LRU cache keyed on the history hash, the
requested ``k`` and the catalogue index version, and never reach the
model at all.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics, trace
from .recommender import Recommendation, Recommender

__all__ = ["BatcherClosed", "LRUCache", "MicroBatcher"]


class BatcherClosed(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after :meth:`MicroBatcher.close`.

    A distinct type so the service can tell the benign hot-swap race (a
    request routed to a batcher an instant before its scenario was
    swapped out) from real runtime errors, and transparently retry
    against the replacement batcher instead of dropping the request.
    """


class LRUCache:
    """A small thread-safe LRU mapping request keys to recommendations."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        with self._lock:
            if key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key, value) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)


def _request_key(history: np.ndarray, k: int, version: int) -> tuple:
    return (history.tobytes(), int(k), int(version))


@dataclass
class _Pending:
    history: np.ndarray
    k: int
    key: tuple
    enqueued: float = field(default_factory=time.monotonic)
    future: Future = field(default_factory=Future)
    # Trace-context handoff: the HTTP thread that submitted this request
    # parks its sampled context here; the batcher worker thread stamps
    # the queue-wait and batch-stage spans into it. None (the common,
    # unsampled case) costs the worker one attribute check.
    trace: trace.TraceContext | None = None
    enqueued_perf: float = 0.0


class MicroBatcher:
    """Queue + worker thread that turns single requests into batches.

    ``submit`` returns a ``concurrent.futures.Future``; ``recommend`` is
    the blocking convenience wrapper. Construct with ``start=False`` to
    drive flushing manually via :meth:`flush_pending` (used by tests and
    the offline benchmark, where a background thread only adds noise).
    """

    def __init__(self, recommender: Recommender, max_batch: int = 32,
                 max_wait_ms: float = 2.0, cache_size: int = 1024,
                 start: bool = True, metrics_label: str | None = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.recommender = recommender
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1000.0
        self.cache = LRUCache(cache_size)
        # The registry instruments are the only accounting: /stats and
        # /metrics both read them. Scenario-labeled, so every hot-swap
        # generation of a key keeps counting on the same series.
        scope = {"scenario": metrics_label or "default"}
        self._m_requests = metrics.counter(
            "repro_serve_batcher_requests_total",
            "requests submitted to the micro-batcher", labels=scope)
        self._m_cache = {
            hit: metrics.counter("repro_serve_cache_total",
                                 "LRU cache lookups by outcome",
                                 labels={**scope, "outcome": hit})
            for hit in ("hit", "miss")}
        self._m_batch_size = metrics.histogram(
            "repro_serve_batch_size", "requests coalesced per flush",
            labels=scope, start=1.0, factor=2 ** 0.25)
        self._m_largest = metrics.gauge(
            "repro_serve_batch_size_max", "largest flush so far (high-water)",
            labels=scope)
        self._m_flushes = {
            kind: metrics.counter("repro_serve_flushes_total",
                                  "batch flushes by trigger",
                                  labels={**scope, "trigger": kind})
            for kind in ("size", "timeout")}
        self._m_queue_wait = metrics.histogram(
            "repro_serve_queue_wait_seconds",
            "submit-to-flush wait of batched requests", labels=scope)
        self._pending: list[_Pending] = []
        self._cond = threading.Condition()
        self._closed = False
        self._thread: threading.Thread | None = None
        if start:
            self._thread = threading.Thread(target=self._worker,
                                            name="repro-serve-batcher",
                                            daemon=True)
            self._thread.start()

    # -- client side ---------------------------------------------------------

    def submit(self, history, k: int = 10) -> Future:
        """Enqueue one request; resolves to a :class:`Recommendation`."""
        history = np.asarray(history, dtype=np.int64)
        key = _request_key(history, k, self.recommender.index_version)
        ctx = trace.current()
        with self._cond:
            if self._closed:
                raise BatcherClosed("MicroBatcher is closed")
            self._m_requests.inc()
            # A stale index means the current version number still names
            # the pre-update snapshot: bypass the cache so the flush
            # rebuilds and the result is cached under the new version.
            hit = (None if getattr(self.recommender, "index_stale", False)
                   else self.cache.get(key))
            if hit is not None:
                self._m_cache["hit"].inc()
                future: Future = Future()
                future.set_result(Recommendation(
                    items=hit.items, scores=hit.scores,
                    index_version=hit.index_version, cached=True))
                return future
            # Only misses pay for validation: a cached key was validated
            # when its answer was stored. Checking here rather than in
            # the flush keeps one bad request from failing its batch.
            self.recommender.check_request(history, k)
            self._m_cache["miss"].inc()
            request = _Pending(history=history, k=k, key=key, trace=ctx)
            if ctx is not None:
                request.enqueued_perf = time.perf_counter()
            self._pending.append(request)
            self._cond.notify_all()
            return request.future

    @property
    def queue_depth(self) -> int:
        """Requests queued and not yet flushed (approximate, lock-free).

        A sustained non-zero depth on ``/stats`` means flushes cannot
        keep up with arrivals — the signal to raise ``max_batch`` or add
        pool workers.
        """
        return len(self._pending)

    def recommend(self, history, k: int = 10,
                  timeout: float | None = 30.0) -> Recommendation:
        """Blocking submit; flushes inline when no worker thread runs."""
        future = self.submit(history, k=k)
        if self._thread is None and not future.done():
            self.flush_pending()
        return future.result(timeout=timeout)

    # -- flushing ------------------------------------------------------------

    def _drain(self) -> list[_Pending]:
        batch = self._pending[:self.max_batch]
        self._pending = self._pending[self.max_batch:]
        return batch

    def _execute(self, batch: list[_Pending], trigger: str) -> None:
        if not batch:
            return
        self._m_flushes[trigger].inc()
        self._m_batch_size.observe(float(len(batch)))
        self._m_largest.set_max(len(batch))
        now_mono = time.monotonic()
        for pending in batch:
            self._m_queue_wait.observe(now_mono - pending.enqueued)
        # Sampled requests get a shared batch context: the model stages
        # (encode/shortlist/rerank/topk) are recorded once against it and
        # then copied into every traced request, because batch members
        # genuinely share that work.
        traced = [p for p in batch if p.trace is not None]
        batch_ctx: trace.TraceContext | None = None
        if traced:
            flush_tick = time.perf_counter()
            for pending in traced:
                pending.trace.add_span("queue_wait", pending.enqueued_perf,
                                       flush_tick)
            batch_ctx = trace.TraceContext(
                "batch", "micro_batch", meta={"batch_size": len(batch)})
        # All requests in a batch share one k so the top-k pass is a single
        # matrix operation; mixed-k batches use the largest and truncate.
        k_max = max(p.k for p in batch)
        try:
            with trace.activate(batch_ctx):
                results = self.recommender.recommend_batch(
                    [p.history for p in batch], k=k_max)
        except Exception as exc:  # propagate to every waiter
            for pending in batch:
                if not pending.future.cancelled():
                    pending.future.set_exception(exc)
            return
        if batch_ctx is not None:
            for pending in traced:
                pending.trace.extend(batch_ctx.spans)
        for pending, result in zip(batch, results):
            if pending.k < len(result.items):
                result = Recommendation(items=result.items[:pending.k],
                                        scores=result.scores[:pending.k],
                                        index_version=result.index_version)
            # Cache under the index version that actually produced the
            # answer — a refresh may have landed after submit keyed it.
            self.cache.put((pending.key[0], pending.k,
                            result.index_version), result)
            if not pending.future.cancelled():
                pending.future.set_result(result)

    def flush_pending(self) -> int:
        """Flush everything queued right now (manual mode); returns count."""
        flushed = 0
        while True:
            with self._cond:
                batch = self._drain()
            if not batch:
                return flushed
            trigger = "size" if len(batch) >= self.max_batch else "timeout"
            self._execute(batch, trigger)
            flushed += len(batch)

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._closed and not self._pending:
                    return
                # The clock runs from the *oldest request's arrival*, not
                # from when the worker woke up — a request that queued
                # while the previous batch executed must not wait a full
                # extra max_wait.
                deadline = self._pending[0].enqueued + self.max_wait
                while (len(self._pending) < self.max_batch
                       and not self._closed):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                trigger = ("size" if len(self._pending) >= self.max_batch
                           else "timeout")
                batch = self._drain()
            self._execute(batch, trigger)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the worker after draining anything still queued."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.flush_pending()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
