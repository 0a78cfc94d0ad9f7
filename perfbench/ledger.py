"""Turn the traced server's spans into per-layer self times.

Each ``/recommend`` the client completed is followed down its chain:

    client → http → service → [pool → (worker process)] → batcher
           → recommender (the flush that served it) → scoring, mask, topk

Parent and child on one thread are linked by span id. Across the two
boundaries that change thread or process (client → http, pool → worker
batcher) the child is the span with the same history key whose interval
lies inside the parent's; a miss's recommender span is the one, in the
batcher's process, whose flush carried the key and which ran inside the
batcher span. A layer's self time is its duration minus its children's,
so a fully matched request's self times add up to its client latency.
"""

from __future__ import annotations

import bisect
import glob
import json
import os
import statistics
from collections import defaultdict

ID, PARENT, NAME, T0, T1, KEY, META = range(7)

#: Per-request layers in chain order; their self times sum to the latency.
LAYERS = ("client.wire", "http.self", "service.self", "pool.dispatch",
          "batcher.self", "recommender.self", "scoring.score",
          "recommender.mask", "topk")


def load(spans_dir: str) -> list[tuple[int, list]]:
    """``(pid, span)`` pairs from every process's span file."""
    out = []
    for path in sorted(glob.glob(os.path.join(spans_dir, "spans-*.json"))):
        pid = int(os.path.basename(path)[6:-5])
        with open(path) as handle:
            out.extend((pid, span) for span in json.load(handle))
    return out


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Ledger:
    def __init__(self, spans: list[tuple[int, list]]):
        self.children: dict = defaultdict(list)
        self.by_name: dict = defaultdict(list)
        self.keyed: dict = defaultdict(list)        # (name, key) -> spans
        self.flushes: dict = defaultdict(list)      # (pid, key) -> recs
        for pid, span in spans:
            if span[T1] is None:
                continue
            self.by_name[span[NAME]].append((pid, span))
            if span[PARENT] is not None:
                self.children[(pid, span[PARENT])].append(span)
            if span[KEY] is not None:
                self.keyed[(span[NAME], span[KEY])].append((pid, span))
        for spans_ in self.keyed.values():
            spans_.sort(key=lambda item: item[1][T0])
        self._starts = {k: [s[T0] for _, s in v]
                        for k, v in self.keyed.items()}
        for pid, span in self.by_name["flush"]:
            recs = [c for c in self.children[(pid, span[ID])]
                    if c[NAME] == "recommender"]
            for key in span[META]["keys"]:
                for rec in recs:
                    self.flushes[(pid, key)].append(rec)
        self._used: set = set()

    def durations_ms(self, name: str, t0: float, t1: float) -> list[float]:
        return [(s[T1] - s[T0]) * 1e3 for _, s in self.by_name[name]
                if t0 <= s[T0] <= t1]

    def _child(self, pid: int, span: list, name: str):
        for child in self.children[(pid, span[ID])]:
            if child[NAME] == name:
                return child
        return None

    def _inside(self, name: str, key: int, t0: float, t1: float,
                top_level: bool = False, ends_inside: bool = True):
        spans = self.keyed.get((name, key), ())
        first = bisect.bisect_left(self._starts.get((name, key), ()), t0)
        for pid, span in spans[first:]:
            if span[T0] > t1:
                break
            if ((span[T1] <= t1 or not ends_inside)
                    and (pid, span[ID]) not in self._used
                    and (not top_level or span[PARENT] is None)):
                self._used.add((pid, span[ID]))
                return pid, span
        return None, None

    def chain(self, key: int, t_sent: float, t_done: float) -> dict | None:
        """Self times (seconds) of one client request, or None if unmatched."""
        # The handler's epilogue (access log, request counter) runs after
        # the response is on the wire, off this request's critical path:
        # clip the http span at the client's receipt.
        pid, http = self._inside("http", key, t_sent, t_done,
                                 ends_inside=False)
        if http is None:
            return None
        http = http[:T1] + [min(http[T1], t_done)] + http[KEY:]
        service = self._child(pid, http, "service")
        if service is None:
            return None
        pool = self._child(pid, service, "pool")
        if pool is not None:
            bpid, batcher = self._inside("batcher", key, pool[T0], pool[T1],
                                         top_level=True)
        else:
            bpid, batcher = pid, self._child(pid, service, "batcher")
        if batcher is None:
            return None
        rec = None
        for candidate in self.flushes[(bpid, key)]:
            if batcher[T0] <= candidate[T0] and candidate[T1] <= batcher[T1]:
                rec = candidate
                break
        d = lambda s: 0.0 if s is None else s[T1] - s[T0]  # noqa: E731
        parts = {name: 0.0 for name in LAYERS}
        parts["client.wire"] = (t_done - t_sent) - d(http)
        parts["http.self"] = d(http) - d(service)
        parts["service.self"] = d(service) - d(pool or batcher)
        if pool is not None:
            parts["pool.dispatch"] = d(pool) - d(batcher)
        parts["batcher.self"] = d(batcher) - d(rec)
        if rec is not None:
            inner = {n: self._child(bpid, rec, n)
                     for n in ("scoring", "mask", "topk")}
            parts["recommender.self"] = d(rec) - sum(map(d, inner.values()))
            parts["scoring.score"] = d(inner["scoring"])
            parts["recommender.mask"] = d(inner["mask"])
            parts["topk"] = d(inner["topk"])
        return parts


def attribute(ledger: Ledger, requests) -> dict:
    """Median self time per layer over the matched requests, plus coverage.

    ``requests`` are the client's completed requests (``key``, ``t_sent``,
    ``t_done``). Coverage is the sum of the layer medians over the median
    latency of the same requests; ``unattributed_ms`` is what that sum
    leaves over (negative when the medians over-explain it).
    """
    rows, latencies = [], []
    for request in requests:
        parts = ledger.chain(request.key, request.t_sent, request.t_done)
        if parts is not None:
            rows.append(parts)
            latencies.append(request.t_done - request.t_sent)
    out = {f"{name}_ms": median(r[name] for r in rows) * 1e3
           for name in LAYERS}
    e2e_ms = median(latencies) * 1e3
    explained = sum(out.values())
    out["trace.e2e_p50_ms"] = e2e_ms
    out["trace.coverage"] = explained / e2e_ms if e2e_ms else 0.0
    out["trace.unattributed_ms"] = e2e_ms - explained
    out["trace.matched_frac"] = len(rows) / max(len(requests), 1)
    return out
