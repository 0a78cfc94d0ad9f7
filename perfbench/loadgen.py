"""Seeded inputs and the HTTP load loops of the benchmark client.

The client is one process. Each thread owns one keep-alive connection,
so threads and connections are the same count; ``check_concurrency``
refuses to run with more of them than the host has cores.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import socket
import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

K = 10


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def check_concurrency(threads: int) -> None:
    if threads > nproc():
        raise SystemExit(f"refusing to run {threads} client threads/"
                         f"connections on {nproc()} cores")


@contextlib.contextmanager
def client_gc_paused():
    """Keep the client's cyclic GC out of the measured window.

    The client keeps every request it sent; a full collection over them
    stalls its threads for tens of milliseconds, which would show up as
    server latency.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def history_key(history) -> int:
    return zlib.crc32(np.asarray(history, dtype=np.int64).tobytes())


# -- inputs -------------------------------------------------------------------


class UniqueHistories:
    """Never-repeating histories: perturbed windows of real sequences.

    Each history is a contiguous window of a real user sequence with one
    position replaced by a random catalogue item, so lengths and item
    co-occurrence follow the dataset; a seen-set rejects repeats. Thread
    safe; the sequence drawn depends only on the seed.
    """

    def __init__(self, dataset, seed: int):
        self._rng = np.random.default_rng([seed, 1])
        self._sequences = [np.asarray(s, dtype=np.int64)
                           for s in dataset.sequences if len(s) >= 2]
        self._num_items = dataset.num_items
        self._seen: set[bytes] = set()
        self._lock = threading.Lock()

    def next(self) -> np.ndarray:
        with self._lock:
            rng = self._rng
            while True:
                seq = self._sequences[rng.integers(len(self._sequences))]
                length = int(rng.integers(2, len(seq) + 1))
                start = int(rng.integers(0, len(seq) - length + 1))
                history = seq[start:start + length].copy()
                history[rng.integers(length)] = rng.integers(
                    1, self._num_items + 1)
                raw = history.tobytes()
                if raw not in self._seen:
                    self._seen.add(raw)
                    return history


class HotHistories:
    """Returning users: Zipf draws from a small seeded pool, plus newcomers.

    ``pool`` histories are drawn once; a request picks pool entry ``r``
    with probability proportional to ``1 / (r + 1) ** exponent``, except
    that a ``new_frac`` share of requests carry a never-seen history
    (a first visit, which must miss the cache). Once :meth:`warm_order`
    has been sent, every pool entry is cached on every worker, so the
    miss share stays at ``new_frac`` however long the run.
    """

    def __init__(self, dataset, seed: int, pool: int = 128,
                 exponent: float = 1.1, new_frac: float = 0.03):
        self._unique = UniqueHistories(dataset, seed)
        self.pool = [self._unique.next() for _ in range(pool)]
        weights = 1.0 / np.arange(1, pool + 1) ** exponent
        self._cdf = np.cumsum(weights / weights.sum())
        self._new_frac = new_frac
        self._seed = seed

    def warm_order(self, copies: int) -> list[np.ndarray]:
        """Each pool entry ``copies`` times in a row (one per worker)."""
        return [h for h in self.pool for _ in range(copies)]

    def stream(self, thread: int):
        rng = np.random.default_rng([self._seed, 2, thread])
        while True:
            draws = np.minimum(np.searchsorted(self._cdf, rng.random(1024)),
                               len(self.pool) - 1)
            new = rng.random(1024) < self._new_frac
            for index, fresh in zip(draws, new):
                yield self._unique.next() if fresh else self.pool[index]


def recommend_body(dataset: str, model: str, history) -> bytes:
    return json.dumps({"dataset": dataset, "model": model,
                       "history": [int(i) for i in history],
                       "k": K}).encode()


def event_batches(dataset, seed: int, size: int = 8, cold_every: int = 3):
    """Endless ``/events`` batches: interactions plus a periodic cold item.

    Interactions pair an existing user with an item drawn from a real
    sequence. Every ``cold_every``-th batch adds one cold item (text and
    image) clicked by an existing user: its text is a same-topic item's
    tokens with a third of them taken from another same-topic item, its
    image that item's image plus seeded noise.
    """
    rng = np.random.default_rng([seed, 3])
    sequences = dataset.sequences
    topics = dataset.item_topics
    batch = 0
    while True:
        batch += 1
        events = []
        for _ in range(size - (1 if batch % cold_every == 0 else 0)):
            seq = sequences[rng.integers(len(sequences))]
            events.append({"user": int(rng.integers(len(sequences))),
                           "item": int(seq[rng.integers(len(seq))])})
        if batch % cold_every == 0:
            base = int(rng.integers(1, dataset.num_items + 1))
            same = np.flatnonzero(topics == topics[base])
            donor = int(same[rng.integers(len(same))])
            tokens = dataset.text_tokens[base].copy()
            swap = rng.random(tokens.shape) < 1 / 3
            tokens[swap] = dataset.text_tokens[donor][swap]
            image = dataset.images[base] + rng.normal(
                0.0, 0.05, dataset.images[base].shape)
            events.append({"user": int(rng.integers(len(sequences))),
                           "item": {"text_tokens": [int(t) for t in tokens],
                                    "topic": int(topics[base]),
                                    "image": image.tolist()}})
        yield events


# -- the client ---------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection on a raw socket.

    The server answers every request with a Content-Length, so a response
    is read as headers up to the blank line plus that many body bytes.
    Kept this lean so the client's own CPU time, which competes with the
    server's on the same cores, stays small.
    """

    def __init__(self, port: int):
        self._sock = socket.create_connection(("127.0.0.1", port),
                                              timeout=60)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def _fill(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def post(self, path: str, body: bytes) -> tuple[int, dict]:
        self._sock.sendall(
            b"POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % (path.encode(), len(body)) + body)
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        status = int(head[9:12])
        match = _LENGTH.search(head)
        if match is None:
            raise ConnectionError("response without Content-Length")
        length = int(match.group(1))
        while len(self._buffer) < length:
            self._fill()
        payload, self._buffer = (self._buffer[:length],
                                 self._buffer[length:])
        return status, json.loads(payload)

    def close(self) -> None:
        self._sock.close()


_LENGTH = re.compile(rb"(?i)\r\ncontent-length:\s*(\d+)")


@dataclass
class Request:
    """One ``/recommend`` exchange as the client saw it."""

    key: int
    history: np.ndarray
    t_due: float
    t_sent: float
    t_done: float
    status: int
    items: tuple = ()
    version: int = -1
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None


def recommend(conn: Connection, scenario: tuple[str, str], history,
              t_due: float | None = None) -> Request:
    body = recommend_body(*scenario, history)
    t_sent = time.perf_counter()
    try:
        status, payload = conn.post("/recommend", body)
        error = None if status == 200 else str(payload.get("error"))
    except (OSError, ValueError) as exc:
        status, payload, error = 0, {}, f"{type(exc).__name__}: {exc}"
    t_done = time.perf_counter()
    return Request(key=history_key(history), history=history,
                   t_due=t_sent if t_due is None else t_due, t_sent=t_sent,
                   t_done=t_done, status=status,
                   items=tuple(payload.get("items", ())),
                   version=int(payload.get("index_version", -1)),
                   error=error)


def closed_loop(port: int, scenario: tuple[str, str], sources: list,
                seconds: float) -> list[list[Request]]:
    """``len(sources)`` threads, each sending its next request on reply.

    ``sources[t]`` is a zero-argument callable returning thread ``t``'s
    next history. Returns each thread's requests in send order.
    """
    results: list[list[Request]] = [[] for _ in sources]
    start = threading.Barrier(len(sources) + 1)
    deadline: list[float] = [0.0]

    def run(index: int) -> None:
        conn = Connection(port)
        out = results[index]
        source = sources[index]
        try:
            start.wait()
            while time.perf_counter() < deadline[0]:
                out.append(recommend(conn, scenario, source()))
        finally:
            conn.close()

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(len(sources))]
    for thread in threads:
        thread.start()
    deadline[0] = time.perf_counter() + seconds
    start.wait()
    for thread in threads:
        thread.join()
    return results


@dataclass
class StreamLog:
    """Everything the ``stream-fresh`` client threads observed."""

    reads: list[Request] = field(default_factory=list)
    posts: list[dict] = field(default_factory=list)
    fresh_s: list[float] = field(default_factory=list)
    post_errors: list[str] = field(default_factory=list)


class StreamClient:
    """Open-loop reader plus an ``/events`` writer on two connections.

    The reader sends ``/recommend`` at ``rate`` per second on a fixed
    schedule and times each read from when it was due. The writer posts
    one event batch, waits until a read returns an ``index_version``
    newer than the one current at the post, records that delay, and
    posts the next batch.
    """

    def __init__(self, port: int, scenario: tuple[str, str], histories,
                 batches, rate: float):
        self.port = port
        self.scenario = scenario
        self.histories = histories
        self.batches = batches
        self.rate = rate
        self.log = StreamLog()
        self._version = -1
        self._version_cond = threading.Condition()

    def newest_version(self) -> int:
        with self._version_cond:
            return self._version

    def _observe(self, request: Request) -> None:
        with self._version_cond:
            if request.ok and request.version > self._version:
                self._version = request.version
                self._version_cond.notify_all()

    def wait_version(self, above: int, timeout_s: float) -> float | None:
        """Block until a read returns a version above ``above``."""
        deadline = time.perf_counter() + timeout_s
        with self._version_cond:
            while self._version <= above:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return None
                self._version_cond.wait(remaining)
            return time.perf_counter()

    def read_loop(self, t0: float, stop: threading.Event) -> None:
        conn = Connection(self.port)
        try:
            i = 0
            while not stop.is_set():
                due = t0 + i / self.rate
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                request = recommend(conn, self.scenario,
                                    self.histories.next(), t_due=due)
                self.log.reads.append(request)
                self._observe(request)
                i += 1
        finally:
            conn.close()

    def write_loop(self, until: float, wait_s: float,
                   batches: int | None = None) -> None:
        """Post batches until ``until`` (or ``batches`` of them)."""
        conn = Connection(self.port)
        try:
            while (time.perf_counter() < until if batches is None
                   else len(self.log.posts) < batches):
                before = self.newest_version()
                events = next(self.batches)
                t_post = time.perf_counter()
                try:
                    status, receipt = conn.post(
                        "/events", json.dumps({
                            "dataset": self.scenario[0],
                            "model": self.scenario[1],
                            "events": events}).encode())
                except (OSError, ValueError) as exc:
                    self.log.post_errors.append(f"{type(exc).__name__}: "
                                                f"{exc}")
                    return
                if status != 200:
                    self.log.post_errors.append(f"/events {status}: "
                                                f"{receipt.get('error')}")
                    return
                self.log.posts.append(receipt)
                seen = self.wait_version(before, wait_s)
                if seen is not None:
                    self.log.fresh_s.append(seen - t_post)
        finally:
            conn.close()
