"""Multi-process serving tier: shared-memory catalogues + worker pool.

One python process is the QPS ceiling: the fused scoring kernels
saturate a core while the GIL serializes everything around them. This
module scales ``/recommend`` across cores without giving up the
old-or-new-ranks-only hot-swap contract (PR 5/6):

* :class:`SharedCatalogStore` owns ``multiprocessing.shared_memory``
  segments. Each segment carries a tiny JSON layout header followed by
  64-byte-aligned arrays — the catalogue matrix of one generation,
  plus (for full swaps) the model's state dict — so workers map them
  as zero-copy read-only ``np.ndarray`` views. The parent creates and
  unlinks; workers only attach.
* :class:`WorkerPool` forks N worker processes (fork, not spawn: the
  registry's datasets and models transfer by copy-on-write page, never
  by pickle) and dispatches requests over per-worker pipes. Each worker
  runs its own :class:`~repro.serve.batcher.MicroBatcher`, so batching
  still amortizes GEMMs inside every process.
* Hot swaps run through a **generation fence**: the parent publishes
  the new generation's segment, sends a ``swap`` control message down
  every worker pipe, and waits for every live worker to ack before the
  old segment is unlinked. Pipe FIFO ordering is the correctness
  argument — every request a worker received before the ``swap``
  message is drained by the retiring batcher (old generation), every
  request after it lands on the new one. No request is dropped, and no
  response ever mixes generations.
* :class:`PooledRecommendationService` is a drop-in for
  :class:`~repro.serve.service.RecommendationService`: the HTTP front,
  the CLI and the streaming manager talk to the same duck surface.

Requires POSIX ``fork`` and scenarios whose models expose
``encode_catalog`` (there is no matrix to share otherwise). Workers
must be forked *before* any thread the parent will rely on (HTTP
server, fine-tune workers) — the CLI and benches order construction
accordingly.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import secrets
import struct
import threading
import time
from concurrent.futures import Future
from multiprocessing import shared_memory

import numpy as np

from ..obs import metrics
from .batcher import MicroBatcher
from .index import FrozenCatalogIndex
from .registry import ModelRegistry, Scenario
from .service import SelfMonitoring, scenario_counters

__all__ = ["PoolError", "WorkerDied", "SharedCatalogStore", "WorkerPool",
           "PooledRecommendationService"]


class PoolError(RuntimeError):
    """The worker pool cannot serve (no workers, bad scenario, ...)."""


class WorkerDied(PoolError):
    """A request or control exchange was lost to a worker process death."""


def _fork_context():
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX platforms
        raise PoolError("the multi-process serving tier requires the "
                        "'fork' start method (POSIX only)") from exc


# -- shared-memory segments ---------------------------------------------------

_ALIGN = 64
_HEADER_LEN = struct.Struct("<Q")
_TAG_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


class SharedCatalogStore:
    """Create, name and unlink the shared segments of one serving parent.

    Segment layout: an 8-byte little-endian header length, a JSON header
    ``{"arrays": [{"name", "dtype", "shape", "offset", "nbytes"}, ...]}``
    with offsets relative to the (aligned) end of the header, then the
    array payloads. Readers recompute the data start from the header
    length, so the header needs no self-referential offsets.

    The parent process owns every segment's lifetime: :meth:`publish`
    creates, :meth:`unlink` (per generation) and :meth:`close` (on
    shutdown) remove the ``/dev/shm`` names. Workers :meth:`attach`
    read-only and immediately unregister from the resource tracker —
    on this python version attachers register too, and a worker exit
    would otherwise unlink a segment the parent still serves from.
    """

    def __init__(self, prefix: str | None = None):
        self.prefix = prefix or f"repro-{os.getpid()}-{secrets.token_hex(3)}"
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._seq = itertools.count(1)
        self._lock = threading.Lock()

    def publish(self, tag: str, arrays: dict[str, np.ndarray]) -> str:
        """Write ``arrays`` into a fresh segment; returns its name."""
        clean: list[tuple[str, np.ndarray]] = [
            (name, np.ascontiguousarray(arr)) for name, arr in arrays.items()]
        entries, cursor = [], 0
        for name, arr in clean:
            cursor = _aligned(cursor)
            entries.append({"name": name, "dtype": arr.dtype.str,
                            "shape": list(arr.shape), "offset": cursor,
                            "nbytes": int(arr.nbytes)})
            cursor += arr.nbytes
        header = json.dumps({"arrays": entries}).encode()
        data_start = _aligned(_HEADER_LEN.size + len(header))
        total = max(data_start + cursor, 1)
        short_tag = _TAG_RE.sub("-", tag)[:48]
        name = f"{self.prefix}-{next(self._seq)}-{short_tag}"
        segment = shared_memory.SharedMemory(name=name, create=True,
                                             size=total)
        segment.buf[:_HEADER_LEN.size] = _HEADER_LEN.pack(len(header))
        segment.buf[_HEADER_LEN.size:_HEADER_LEN.size + len(header)] = header
        for (_, arr), entry in zip(clean, entries):
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf,
                              offset=data_start + entry["offset"])
            view[...] = arr
            del view               # release the buffer export before close
        with self._lock:
            self._segments[name] = segment
        return name

    @staticmethod
    def attach(name: str) -> tuple[shared_memory.SharedMemory,
                                   dict[str, np.ndarray]]:
        """Map a segment read-only; returns the handle and its arrays.

        Workers are forked, so they share the parent's resource_tracker
        process: the attach-side ``register`` this SharedMemory() call
        performs lands in the tracker's set-based cache where the
        creator's entry already sits — a no-op. The creator's
        ``unlink()`` is the one balanced unregister; do NOT unregister
        here or the shared cache loses the entry early and the real
        unlink trips a KeyError inside the tracker.
        """
        segment = shared_memory.SharedMemory(name=name)
        (header_len,) = _HEADER_LEN.unpack_from(segment.buf, 0)
        raw = bytes(segment.buf[_HEADER_LEN.size:_HEADER_LEN.size
                                + header_len])
        entries = json.loads(raw.decode())["arrays"]
        data_start = _aligned(_HEADER_LEN.size + header_len)
        views: dict[str, np.ndarray] = {}
        for entry in entries:
            view = np.ndarray(tuple(entry["shape"]),
                              dtype=np.dtype(entry["dtype"]),
                              buffer=segment.buf,
                              offset=data_start + entry["offset"])
            view.flags.writeable = False
            views[entry["name"]] = view
        return segment, views

    def unlink(self, name: str) -> None:
        """Remove one segment's ``/dev/shm`` name (worker maps persist)."""
        with self._lock:
            segment = self._segments.pop(name, None)
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:  # pragma: no cover - parent holds no views
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def segments(self) -> list[str]:
        with self._lock:
            return list(self._segments)

    def close(self) -> None:
        for name in self.segments():
            self.unlink(name)


# -- worker-process side ------------------------------------------------------

class _DatasetView:
    """A dataset proxy whose ``num_items`` tracks the served generation.

    Workers never see the parent's grown ``GrowableDataset`` snapshots —
    only the catalogue matrix travels through shared memory — but the
    recommender validates history ids against ``dataset.num_items``.
    This proxy pins the generation's item count over the (read-only)
    base dataset the worker inherited at fork.
    """

    __slots__ = ("_base", "_num_items")

    def __init__(self, base, num_items: int):
        self._base = base
        self._num_items = int(num_items)

    @property
    def num_items(self) -> int:
        return self._num_items

    def __getattr__(self, name):
        return getattr(self._base, name)


class _WorkerScenario:
    """One scenario's serving state inside a worker process."""

    __slots__ = ("spec", "model", "base_dataset", "segment", "recommender",
                 "batcher", "generation", "version")

    def __init__(self, spec, model, base_dataset, segment, recommender,
                 batcher, generation, version):
        self.spec = spec
        self.model = model
        self.base_dataset = base_dataset
        self.segment = segment
        self.recommender = recommender
        self.batcher = batcher
        self.generation = generation
        self.version = version

    def release(self) -> None:
        """Drop every reference into the segment, then unmap it."""
        self.recommender = None
        self.batcher = None
        segment, self.segment = self.segment, None
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - lingering view
                # Something still borrows the buffer; the parent already
                # unlinked the name, so the pages die with the process.
                pass


def _adopt(registry: ModelRegistry, spec, model, base_dataset,
           segment_name: str, version: int, num_items: int, generation: int,
           model_changed: bool, settings: dict) -> _WorkerScenario:
    """Attach one generation's segment and build the serving stack on it."""
    segment, views = SharedCatalogStore.attach(segment_name)
    weights = {name[2:]: array for name, array in views.items()
               if name.startswith("w:")}
    if model_changed and weights:
        model.load_state_dict(weights)      # copies out of the segment
    dataset = _DatasetView(base_dataset, num_items)
    index = FrozenCatalogIndex(views["catalog"], version=version,
                               num_items=num_items)
    scenario = registry.build_scenario(spec, dataset, model, index=index)
    batcher = MicroBatcher(scenario.recommender,
                           max_batch=settings["max_batch"],
                           max_wait_ms=settings["max_wait_ms"],
                           cache_size=settings["cache_size"],
                           start=settings["batching"],
                           metrics_label=f"{spec.key[0]}:{spec.key[1]}")
    return _WorkerScenario(spec=spec, model=model, base_dataset=base_dataset,
                           segment=segment, recommender=scenario.recommender,
                           batcher=batcher, generation=generation,
                           version=version)


def _flip(registry: ModelRegistry, state: _WorkerScenario, segment_name: str,
          version: int, num_items: int, generation: int, model_changed: bool,
          settings: dict) -> _WorkerScenario:
    """Swap one worker scenario to a new generation (old-or-new contract).

    Closing the old batcher *first* drains every request received before
    the ``swap`` control message against the old generation; requests
    received after it build against the new one. Both sides of the fence
    therefore serve whole-generation ranks only.
    """
    state.batcher.close()
    fresh = _adopt(registry, state.spec, state.model, state.base_dataset,
                   segment_name, version, num_items, generation,
                   model_changed, settings)
    state.release()
    return fresh


def _worker_stats(states: dict) -> dict:
    """This worker's ``/stats`` rows: its own exposition plus live state."""
    names = {f"{dataset}:{model}": state
             for (dataset, model), state in states.items()}
    rows = scenario_counters(metrics.render_prometheus(), names)
    for name, row in rows.items():
        state = names[name]
        row.update(generation=state.generation, index_version=state.version,
                   queue_depth=state.batcher.queue_depth)
        row["retrieval"] = {**state.recommender.describe_retrieval(),
                            **row["retrieval"]}
    return {"pid": os.getpid(), "scenarios": rows}


def _worker_main(worker_id: int, conn, parent_conn, registry: ModelRegistry,
                 boot: dict, settings: dict) -> None:
    """Entry point of one forked worker process."""
    try:
        parent_conn.close()        # our copy of the parent's pipe end
    except Exception:  # pragma: no cover - already closed
        pass
    # The fork copied the parent's metric shards; zero them so the
    # cross-process merge never double-counts pre-fork history.
    metrics.REGISTRY.reset()
    states: dict[tuple[str, str], _WorkerScenario] = {}
    for key, info in boot.items():
        scenario = registry.get(*key)
        states[key] = _adopt(registry, scenario.spec, scenario.model,
                             scenario.dataset, info["segment"],
                             info["version"], info["num_items"],
                             info["generation"], model_changed=False,
                             settings=settings)
    send_lock = threading.Lock()

    def reply(message) -> None:
        try:
            with send_lock:
                conn.send(message)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass

    def deliver(req_id: int, future: Future) -> None:
        error = future.exception()
        if error is not None:
            reply(("err", req_id, type(error).__name__, str(error)))
        else:
            reply(("res", req_id, future.result().to_json()))

    running = True
    while running:
        try:
            message = conn.recv()
        except (EOFError, OSError):        # parent died or closed us out
            break
        kind = message[0]
        if kind == "req":
            _, req_id, key, history, k = message
            state = states.get(tuple(key))
            if state is None:
                reply(("err", req_id, "KeyError",
                       f"no scenario {key[0]}:{key[1]} in worker"))
                continue
            try:
                future = state.batcher.submit(history, k=k)
            except Exception as exc:
                reply(("err", req_id, type(exc).__name__, str(exc)))
                continue
            future.add_done_callback(
                lambda f, rid=req_id: deliver(rid, f))
        elif kind == "swap":
            (_, token, key, generation, segment_name, version, num_items,
             model_changed) = message
            error = None
            try:
                states[tuple(key)] = _flip(
                    registry, states[tuple(key)], segment_name, version,
                    num_items, generation, model_changed, settings)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            reply(("ack", token, error))
        elif kind == "stats":
            reply(("stats", message[1], _worker_stats(states)))
        elif kind == "metrics":
            reply(("metrics", message[1], metrics.render_prometheus()))
        elif kind == "stop":
            for state in states.values():
                state.batcher.close()      # drain everything still queued
            reply(("bye", message[1]))
            running = False
    for state in states.values():
        try:
            state.batcher.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass
        state.release()
    try:
        conn.close()
    except Exception:  # pragma: no cover - teardown best effort
        pass


# -- parent side --------------------------------------------------------------

_EXCEPTION_TYPES = {"ValueError": ValueError, "TypeError": TypeError,
                    "KeyError": KeyError, "RuntimeError": RuntimeError}


def _remote_exception(type_name: str, message: str) -> Exception:
    cls = _EXCEPTION_TYPES.get(type_name)
    if cls is None:
        return PoolError(f"{type_name}: {message}")
    return cls(message)


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, worker_id: int, process, conn):
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()       # guards pending/control/alive
        self.pending: dict[int, Future] = {}
        self.control: dict[str, Future] = {}
        self.alive = True
        self.reader: threading.Thread | None = None

    def inflight(self) -> int:
        with self.lock:
            return len(self.pending)


class WorkerPool:
    """Fork N serving processes and dispatch requests/fences over pipes."""

    def __init__(self, registry: ModelRegistry, workers: int = 2,
                 max_batch: int = 32, max_wait_ms: float = 2.0,
                 cache_size: int = 1024, batching: bool = True,
                 fence_timeout_s: float = 60.0):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if len(registry) == 0:
            raise PoolError("cannot start a worker pool over an empty "
                            "registry")
        context = _fork_context()
        self.registry = registry
        self.fence_timeout_s = fence_timeout_s
        self._settings = {"max_batch": max_batch, "max_wait_ms": max_wait_ms,
                          "cache_size": cache_size, "batching": batching}
        self._store = SharedCatalogStore()
        self._seq = itertools.count(1)
        self._rr = 0
        self._rr_lock = threading.Lock()
        self._fence_lock = threading.Lock()  # one fence at a time
        self._fence_state: dict = {"state": "idle"}
        self._generation: dict[tuple[str, str], int] = {}
        self._segment: dict[tuple[str, str], str] = {}
        self._closed = False
        boot: dict[tuple[str, str], dict] = {}
        for scenario in registry:
            index = scenario.recommender.index
            if index is None:
                raise PoolError(
                    f"scenario {scenario.spec.dataset}:{scenario.spec.model} "
                    "has no catalogue index; the worker pool can only serve "
                    "indexed models (encode_catalog protocol)")
            matrix, version = index.snapshot()
            key = scenario.spec.key
            name = self._store.publish(f"g1-{key[0]}-{key[1]}",
                                       {"catalog": matrix})
            self._generation[key] = 1
            self._segment[key] = name
            boot[key] = {"segment": name, "version": version,
                         "num_items": scenario.dataset.num_items,
                         "generation": 1}
        self._m_fence = metrics.histogram(
            "repro_pool_fence_seconds",
            "generation-fence wall time (publish ack wait)")
        self._m_publishes = metrics.counter(
            "repro_pool_publishes_total",
            "generations published through the pool fence")
        self._m_retries = metrics.counter(
            "repro_pool_retries_total",
            "requests retried on another worker after a worker death")
        self._m_flip_errors = metrics.counter(
            "repro_pool_flip_errors_total",
            "workers that failed to adopt a published generation")
        metrics.gauge(
            "repro_pool_workers_alive",
            "live worker processes in the serving pool").set_function(
                lambda: sum(h.alive for h in self._workers))
        metrics.gauge(
            "repro_pool_workers_total",
            "worker processes the pool was started with").set_function(
                lambda: len(self._workers))
        self._m_deaths = metrics.counter(
            "repro_pool_worker_deaths_total",
            "pool worker processes that died unexpectedly "
            "(clean shutdown is not counted)")
        self._workers: list[_WorkerHandle] = []
        for worker_id in range(workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(worker_id, child_conn, parent_conn, registry, boot,
                      self._settings),
                name=f"repro-pool-{worker_id}", daemon=True)
            process.start()
            child_conn.close()             # parent keeps only its own end
            handle = _WorkerHandle(worker_id, process, parent_conn)
            handle.reader = threading.Thread(
                target=self._read_loop, args=(handle,),
                name=f"repro-pool-reader-{worker_id}", daemon=True)
            handle.reader.start()
            self._workers.append(handle)

    # -- properties ----------------------------------------------------------

    @property
    def shm_prefix(self) -> str:
        return self._store.prefix

    @property
    def size(self) -> int:
        return len(self._workers)

    def alive(self) -> int:
        return sum(handle.alive for handle in self._workers)

    def generations(self) -> dict[str, int]:
        return {f"{d}:{m}": gen for (d, m), gen in self._generation.items()}

    # -- reader threads ------------------------------------------------------

    def _read_loop(self, handle: _WorkerHandle) -> None:
        conn, process = handle.conn, handle.process
        while True:
            try:
                # poll+is_alive instead of a blocking recv: a sibling
                # worker forked later inherits this pipe's write end, so
                # EOF alone cannot be trusted to signal this worker's
                # death.
                if conn.poll(0.2):
                    self._dispatch(handle, conn.recv())
                elif not process.is_alive() and not conn.poll(0):
                    break
            except (EOFError, OSError):
                break
        self._mark_dead(handle)

    def _dispatch(self, handle: _WorkerHandle, message) -> None:
        kind = message[0]
        if kind in ("res", "err"):
            with handle.lock:
                future = handle.pending.pop(message[1], None)
            if future is None:             # pragma: no cover - late reply
                return
            if kind == "res":
                future.set_result(message[2])
            else:
                future.set_exception(_remote_exception(message[2],
                                                       message[3]))
        else:                              # ack / stats / metrics / bye
            with handle.lock:
                future = handle.control.pop(message[1], None)
            if future is not None:
                future.set_result(message[2] if len(message) > 2 else None)

    def _mark_dead(self, handle: _WorkerHandle) -> None:
        with handle.lock:
            if not handle.alive:
                return
            handle.alive = False
            pending = list(handle.pending.values())
            handle.pending.clear()
            control = list(handle.control.values())
            handle.control.clear()
        if not self._closed:
            # An unexpected death is a health event (the increase rule
            # `pool_worker_death` watches this counter); the mass
            # _mark_dead sweep inside close() is not.
            self._m_deaths.inc()
        error = WorkerDied(f"pool worker {handle.id} died")
        for future in pending + control:
            if not future.done():
                future.set_exception(error)

    # -- request path --------------------------------------------------------

    def _pick(self) -> _WorkerHandle | None:
        with self._rr_lock:
            count = len(self._workers)
            for _ in range(count):
                handle = self._workers[self._rr % count]
                self._rr += 1
                if handle.alive:
                    return handle
        return None

    def recommend(self, key: tuple[str, str], history: list, k: int,
                  timeout: float = 30.0) -> dict:
        """Dispatch one request; returns the worker's JSON payload.

        Requests are read-only and idempotent, so a request lost to a
        worker death is transparently retried on another worker.
        """
        attempts = max(2, len(self._workers) + 1)
        last_error: Exception | None = None
        for _ in range(attempts):
            handle = self._pick()
            if handle is None:
                break
            req_id = next(self._seq)
            future: Future = Future()
            with handle.lock:
                if not handle.alive:
                    continue
                handle.pending[req_id] = future
            try:
                with handle.send_lock:
                    handle.conn.send(("req", req_id, key, history, k))
            except (BrokenPipeError, OSError):
                with handle.lock:
                    handle.pending.pop(req_id, None)
                self._mark_dead(handle)
                continue
            try:
                return future.result(timeout=timeout)
            except WorkerDied as exc:
                last_error = exc
                self._m_retries.inc()
                continue
        raise last_error or PoolError("no live pool workers")

    # -- control path --------------------------------------------------------

    def _control(self, handle: _WorkerHandle, kind: str,
                 payload: tuple = ()) -> Future:
        token = f"c{next(self._seq)}"
        future: Future = Future()
        with handle.lock:
            if not handle.alive:
                raise WorkerDied(f"pool worker {handle.id} died")
            handle.control[token] = future
        try:
            with handle.send_lock:
                handle.conn.send((kind, token) + payload)
        except (BrokenPipeError, OSError):
            self._mark_dead(handle)
            raise WorkerDied(f"pool worker {handle.id} died") from None
        return future

    def _broadcast(self, kind: str, payload: tuple = ()) -> list:
        waits = []
        for handle in self._workers:
            if not handle.alive:
                continue
            try:
                waits.append((handle, self._control(handle, kind, payload)))
            except WorkerDied:
                continue
        return waits

    # -- generation fence ----------------------------------------------------

    def publish(self, scenario: Scenario, model_changed: bool) -> dict:
        """Publish one scenario's new generation and fence every worker.

        Returns timing/ack info: ``publish_s`` (segment write),
        ``fence_s`` (ack wait), ``drain_s`` (old-segment unlink). The
        old segment is unlinked only after every live worker acked the
        flip — by then each worker's old batcher has drained its last
        old-generation request, so nothing still *needs* the name (and
        existing maps survive an unlink regardless).
        """
        key = scenario.spec.key
        index = scenario.recommender.index
        if index is None:
            raise PoolError(f"scenario {key[0]}:{key[1]} has no catalogue "
                            "index; cannot publish to the pool")
        with self._fence_lock:
            tick = time.perf_counter()
            generation = self._generation.get(key, 0) + 1
            matrix, version = index.snapshot()
            arrays: dict[str, np.ndarray] = {"catalog": matrix}
            if model_changed:
                for name, value in scenario.model.state_dict().items():
                    arrays[f"w:{name}"] = value
            segment_name = self._store.publish(
                f"g{generation}-{key[0]}-{key[1]}", arrays)
            published = time.perf_counter()
            self._fence_state = {"state": "fencing",
                                 "scenario": f"{key[0]}:{key[1]}",
                                 "generation": generation}
            waits = self._broadcast(
                "swap", (key, generation, segment_name, version,
                         scenario.dataset.num_items, model_changed))
            acked, errors = 0, []
            deadline = time.monotonic() + self.fence_timeout_s
            for handle, future in waits:
                remaining = max(deadline - time.monotonic(), 0.001)
                try:
                    error = future.result(timeout=remaining)
                except WorkerDied:
                    continue               # dead workers cannot hold a fence
                except TimeoutError:
                    errors.append(f"worker {handle.id}: fence timeout")
                    self._m_flip_errors.inc()
                    continue
                if error is None:
                    acked += 1
                else:
                    errors.append(f"worker {handle.id}: {error}")
                    self._m_flip_errors.inc()
            fenced = time.perf_counter()
            old_segment = self._segment.get(key)
            self._generation[key] = generation
            self._segment[key] = segment_name
            if old_segment is not None:
                self._store.unlink(old_segment)
            done = time.perf_counter()
            info = {"generation": generation, "version": version,
                    "workers": len(self._workers), "acked": acked,
                    "errors": errors,
                    "publish_s": published - tick,
                    "fence_s": fenced - published,
                    "drain_s": done - fenced,
                    "fence_ms": (fenced - published) * 1e3}
            self._fence_state = {"state": "complete",
                                 "scenario": f"{key[0]}:{key[1]}",
                                 "generation": generation, "acked": acked,
                                 "errors": errors,
                                 "ms": round((done - tick) * 1e3, 3)}
            self._m_fence.observe(fenced - published)
            self._m_publishes.inc()
            return info

    # -- introspection -------------------------------------------------------

    def stats(self, timeout: float = 10.0) -> dict:
        waits: dict[int, Future] = {}
        for handle in self._workers:
            if handle.alive:
                try:
                    waits[handle.id] = self._control(handle, "stats")
                except WorkerDied:
                    pass
        per_worker = []
        for handle in self._workers:
            # A worker's request count is the sum of its scenario rows,
            # read from its own exposition; a silent worker reports 0.
            entry = {"worker": handle.id, "pid": handle.process.pid,
                     "alive": handle.alive, "requests": 0,
                     "inflight": handle.inflight()}
            future = waits.get(handle.id)
            if future is not None:
                try:
                    data = future.result(timeout=timeout)
                    entry["scenarios"] = data["scenarios"]
                    entry["requests"] = sum(
                        row["requests"] for row in data["scenarios"].values())
                except (WorkerDied, TimeoutError):
                    entry["alive"] = handle.alive
            per_worker.append(entry)
        return {"mode": "pool", "workers": len(self._workers),
                "alive": self.alive(), "generations": self.generations(),
                "fence": dict(self._fence_state,
                              timeout_s=self.fence_timeout_s),
                "per_worker": per_worker}

    def metrics_texts(self, timeout: float = 10.0) -> list[str]:
        """One Prometheus exposition per live worker."""
        waits = self._broadcast("metrics")
        texts = []
        for _, future in waits:
            try:
                texts.append(future.result(timeout=timeout))
            except (WorkerDied, TimeoutError):  # pragma: no cover - racing
                continue
        return texts

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        waits = []
        try:
            waits = self._broadcast("stop")
        except Exception:  # pragma: no cover - teardown best effort
            pass
        for _, future in waits:
            try:
                future.result(timeout=10.0)
            except (WorkerDied, TimeoutError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - hung worker
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            self._mark_dead(handle)
            try:
                handle.conn.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._store.close()
        # The topology pull-gauges must not outlive the pool in the
        # process-global registry: a later service in this process would
        # read a dead pool (total N / alive 0) and false-fire the
        # pool_workers_dead liveness rule. Clearing the callbacks drops
        # both gauges back to their static default of 0 ("no pool"),
        # which keeps the guarded rule dormant.
        metrics.gauge("repro_pool_workers_alive").set_function(None)
        metrics.gauge("repro_pool_workers_total").set_function(None)


class PooledRecommendationService(SelfMonitoring):
    """Drop-in :class:`RecommendationService` over a process pool.

    Same duck surface as the in-process service (the HTTP front, CLI
    and streaming manager cannot tell them apart); requests are
    dispatched to forked workers instead of an in-parent batcher, and
    hot swaps run through the generation fence (:meth:`publish_generation`).
    """

    def __init__(self, registry: ModelRegistry, workers: int = 2,
                 max_batch: int = 32, max_wait_ms: float = 2.0,
                 cache_size: int = 1024, batching: bool = True,
                 fence_timeout_s: float = 60.0):
        super().__init__(registry, max_batch=max_batch,
                         max_wait_ms=max_wait_ms, cache_size=cache_size,
                         batching=batching)
        self.pool = WorkerPool(registry, workers=workers,
                               fence_timeout_s=fence_timeout_s,
                               **self.settings)
        self.settings["workers"] = workers

    @property
    def shm_prefix(self) -> str:
        return self.pool.shm_prefix

    # -- request API ---------------------------------------------------------

    def recommend(self, dataset: str, model: str, history,
                  k: int = 10) -> dict:
        if self._closed:
            raise RuntimeError("service is closed")
        start = time.perf_counter()
        self.registry.get(dataset, model)  # unknown scenarios 404 here
        payload = self.pool.recommend(
            (dataset, model), [int(item) for item in history], int(k))
        elapsed = time.perf_counter() - start
        self._observe_latency(dataset, model, elapsed)
        payload = dict(payload)
        payload.update(dataset=dataset, model=model, latency_ms=elapsed * 1e3)
        return payload

    def refresh(self, dataset: str, model: str) -> int:
        """Rebuild one scenario's index, then fence the pool onto it."""
        scenario = self.registry.get(dataset, model)
        version = scenario.recommender.refresh()
        self.publish_generation(scenario)
        return version

    # -- hot swap ------------------------------------------------------------

    def publish_generation(self, scenario: Scenario) -> dict:
        """Registry flip + pooled generation fence; returns fence info."""
        previous = self.registry.publish(scenario)
        # Weights ride the segment only when the generation actually
        # changed models (full swap); catalogue-only swaps reuse the
        # workers' resident weights.
        model_changed = previous.model is not scenario.model
        return self.pool.publish(scenario, model_changed=model_changed)

    # -- introspection -------------------------------------------------------

    def _serving_state(self) -> tuple[dict, dict]:
        """Queue depth summed over workers; retrieval config from one."""
        topology = self.pool.stats()
        state: dict[str, tuple[int, dict]] = {}
        for entry in topology["per_worker"]:
            for name, row in entry.get("scenarios", {}).items():
                depth, config = state.get(name, (0, row["retrieval"]))
                state[name] = (depth + row["queue_depth"], config)
        for scenario in self.registry:      # no worker answered for it
            key = scenario.spec.key
            state.setdefault(f"{key[0]}:{key[1]}",
                             (0, scenario.recommender.describe_retrieval()))
        return state, topology

    def metrics_text(self) -> str:
        """One merged exposition: the parent's plus every worker's."""
        return metrics.merge_expositions(
            [metrics.render_prometheus()] + self.pool.metrics_texts())

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._close_background()
        self._closed = True
        self.pool.close()
