"""Thread-sharded metrics: counters, gauges, log-bucketed histograms.

The serving and streaming subsystems each grew a hand-rolled ``/stats``
dict; this module replaces the ad-hoc accounting with one registry of
typed instruments that is cheap enough to sit on the request hot path:

* **Counters** and **histograms** keep one shard per writer thread
  (keyed by thread id). A thread only ever mutates its own shard, so
  increments take no lock — under the GIL the final ``shard[0] += v``
  store is atomic, and a concurrent reader merging shards can observe a
  slightly *stale* value but never a torn one. Monotonicity across
  successive reads follows for free.
* **Histograms** use a fixed 64-bucket geometric layout (default
  ``√2`` growth from 1 µs, covering ~1 µs…1 h for latencies and
  1…10^9 for sizes), so p50/p95/p99 are O(buckets) merges over bounded
  state — no unbounded latency lists, no percentile pass over a deque.
  Quantile estimates return the geometric midpoint of the target
  bucket: relative error is bounded by the quarter-power of the growth
  factor (≈ ±19 % at the default layout), which the test suite pins
  against ``numpy.percentile`` on known distributions.
* The registry renders the whole instrument set as Prometheus text
  exposition (``GET /metrics`` on the serving endpoint) and as a JSON
  snapshot (the ``/stats`` families and the bench-report stage
  breakdowns read this).

``REGISTRY`` is the process-global default — the serving/streaming/
profiling instrumentation all writes there, mirroring the design of
every Prometheus client library. ``MetricsRegistry.enabled`` is a
measurement kill-switch used by ``benchmarks/test_obs_perf.py`` to A/B
the instrumented hot path against the bare one.
"""

from __future__ import annotations

import math
import re
import threading
from threading import get_ident

__all__ = ["Counter", "Gauge", "Histogram", "HistogramSnapshot",
           "MetricsRegistry", "REGISTRY", "counter", "gauge", "histogram",
           "render_prometheus", "parse_prometheus", "parse_label_string",
           "merge_expositions",
           "DEFAULT_BUCKETS", "DEFAULT_START", "DEFAULT_FACTOR"]

#: Fixed histogram geometry: 64 buckets, √2 growth from 1e-6. Bucket i
#: (1 ≤ i ≤ 62) covers (start·f^(i-1), start·f^i]; bucket 0 is
#: (-inf, start] and bucket 63 the +Inf overflow. 64 buckets at √2
#: span a 2^31.5 ≈ 3·10^9 dynamic range — microseconds to ~50 minutes
#: for latencies recorded in seconds.
DEFAULT_BUCKETS = 64
DEFAULT_START = 1e-6
DEFAULT_FACTOR = math.sqrt(2.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(label_key: tuple, extra: tuple = ()) -> str:
    pairs = list(label_key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _number(value: float) -> str:
    """Shortest exact rendering of a sample value.

    ``format(v, "g")`` keeps six significant digits, so a counter past
    10^6 would render rounded; ``repr`` round-trips every float, and
    integral values drop the trailing ``.0``.
    """
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


class _Instrument:
    """Shared naming/label plumbing for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None, registry=None):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labels = labels or {}
        for key in labels:
            if not _LABEL_RE.match(str(key)):
                raise ValueError(f"invalid label name {key!r}")
        self.name = name
        self.help = help
        self.labels = dict(labels)
        self.label_key = _label_key(labels)
        self._reg = registry

    def _on(self) -> bool:
        reg = self._reg
        return reg is None or reg._enabled


class Counter(_Instrument):
    """A monotonically increasing value, sharded per writer thread.

    Each thread owns a one-element list box in ``_shards``; only the
    owner ever writes it, so :meth:`inc` is lock-free. A thread that
    exits leaves its box behind — its contribution to the running total
    must survive the thread (counters are cumulative).
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None, registry=None):
        super().__init__(name, help, labels, registry)
        self._shards: dict[int, list[float]] = {}

    def inc(self, value: float = 1.0) -> None:
        if not self._on():
            return
        shards = self._shards
        tid = get_ident()
        box = shards.get(tid)
        if box is None:
            # setdefault, not assignment: never clobber a box another
            # lookup of the same tid just created (paranoia — a tid is
            # only reused after its thread died).
            box = shards.setdefault(tid, [0.0])
        box[0] += value

    @property
    def value(self) -> float:
        return sum(box[0] for box in list(self._shards.values()))

    def samples(self) -> list[tuple[tuple, float]]:
        return [((), self.value)]


class Gauge(_Instrument):
    """A point-in-time value: set/add, or computed by a callback.

    ``set_function`` turns the gauge into a pull-mode instrument whose
    value is read at collection time — used for depths that already
    live somewhere authoritative (replay-buffer size, catalogue items)
    rather than being double-booked on every mutation.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None, registry=None):
        super().__init__(name, help, labels, registry)
        self._value = 0.0
        self._fn = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if self._on():
            self._value = float(value)

    def add(self, value: float = 1.0) -> None:
        if not self._on():
            return
        with self._lock:
            self._value += value

    def set_max(self, value: float) -> None:
        """Raise the value to ``value`` if higher (a high-water mark)."""
        if not self._on() or value <= self._value:
            return
        with self._lock:
            self._value = max(self._value, float(value))

    def set_function(self, fn) -> None:
        """Read ``fn()`` at collection time instead of the stored value."""
        self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            try:
                return float(fn())
            except Exception:           # a dead callback must not kill
                return float("nan")     # the whole exposition
        return self._value

    def samples(self) -> list[tuple[tuple, float]]:
        return [((), self.value)]


class HistogramSnapshot:
    """Immutable merged view of a histogram: bounded, diff-able, O(1) stats.

    ``minus`` subtracts an earlier snapshot, yielding the distribution
    of only the observations made in between — how the bench reports
    carve per-run stage breakdowns out of process-lifetime instruments.
    """

    __slots__ = ("counts", "total", "sum", "bounds")

    def __init__(self, counts: list[int], total: int, sum_: float,
                 bounds: list[float]):
        self.counts = counts
        self.total = total
        self.sum = sum_
        self.bounds = bounds

    def quantile(self, q: float) -> float:
        """Geometric-midpoint estimate of the q-quantile (0 ≤ q ≤ 1)."""
        if self.total <= 0:
            return float("nan")
        rank = q * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count > 0:
                if i == 0:
                    return self.bounds[0]
                lo = self.bounds[i - 1]
                hi = (self.bounds[i] if i < len(self.bounds)
                      else self.bounds[-1] * (self.bounds[-1]
                                              / self.bounds[-2]))
                return math.sqrt(lo * hi)
        return self.bounds[-1]

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else float("nan")

    def minus(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        counts = [a - b for a, b in zip(self.counts, other.counts)]
        return HistogramSnapshot(counts, self.total - other.total,
                                 self.sum - other.sum, self.bounds)

    def to_json(self, scale: float = 1.0) -> dict:
        """Summary dict; ``scale`` converts units (e.g. 1e3 → ms)."""
        if self.total <= 0:
            return {"count": 0, "sum": 0.0,
                    "p50": None, "p95": None, "p99": None, "mean": None}
        return {"count": int(self.total),
                "sum": float(self.sum * scale),
                "p50": float(self.quantile(0.50) * scale),
                "p95": float(self.quantile(0.95) * scale),
                "p99": float(self.quantile(0.99) * scale),
                "mean": float(self.mean * scale)}


class Histogram(_Instrument):
    """Log-bucketed histogram with one count array per writer thread.

    ``observe`` computes the bucket index in closed form (one ``log``)
    rather than a search, and touches only the calling thread's shard:
    ``[counts…, n, sum]`` as a flat list, owner-written, reader-merged.
    All percentile math happens on merged :class:`HistogramSnapshot`
    objects so the hot path stays allocation- and lock-free.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None, registry=None,
                 start: float = DEFAULT_START,
                 factor: float = DEFAULT_FACTOR,
                 buckets: int = DEFAULT_BUCKETS):
        super().__init__(name, help, labels, registry)
        if start <= 0 or factor <= 1.0 or buckets < 2:
            raise ValueError("need start > 0, factor > 1, buckets >= 2")
        self.start = start
        self.factor = factor
        self.buckets = buckets
        self._inv_log_factor = 1.0 / math.log(factor)
        self._log_start = math.log(start)
        # Upper bounds of buckets 0..buckets-2; the last bucket is +Inf.
        self.bounds = [start * factor ** i for i in range(buckets - 1)]
        self._shards: dict[int, list] = {}

    def _bucket(self, value: float) -> int:
        if value <= self.start:
            return 0
        index = int(math.ceil((math.log(value) - self._log_start)
                              * self._inv_log_factor - 1e-9))
        return index if index < self.buckets else self.buckets - 1

    def observe(self, value: float) -> None:
        if not self._on():
            return
        shards = self._shards
        tid = get_ident()
        shard = shards.get(tid)
        if shard is None:
            shard = shards.setdefault(tid, [0] * self.buckets + [0, 0.0])
        shard[self._bucket(value)] += 1
        shard[self.buckets] += 1       # n
        shard[self.buckets + 1] += value  # sum

    def snapshot(self) -> HistogramSnapshot:
        counts = [0] * self.buckets
        total, sum_ = 0, 0.0
        for shard in list(self._shards.values()):
            for i in range(self.buckets):
                counts[i] += shard[i]
            total += shard[self.buckets]
            sum_ += shard[self.buckets + 1]
        return HistogramSnapshot(counts, total, sum_, self.bounds)

    def quantile(self, q: float) -> float:
        return self.snapshot().quantile(q)

    @property
    def count(self) -> int:
        return self.snapshot().total

    def samples(self) -> list[tuple[tuple, float]]:
        snap = self.snapshot()
        out, cumulative = [], 0
        for i, bound in enumerate(self.bounds):
            cumulative += snap.counts[i]
            out.append(((("le", format(bound, ".6g")),), float(cumulative)))
        out.append(((("le", "+Inf"),), float(snap.total)))
        return out


class MetricsRegistry:
    """Get-or-create instrument store + Prometheus/JSON exposition."""

    def __init__(self):
        self._instruments: dict[tuple, _Instrument] = {}
        self._lock = threading.Lock()
        self._enabled = True

    # -- kill-switch (overhead measurement only) -----------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def disable(self) -> None:
        """Turn every write into a no-op (bench baseline; not for prod)."""
        self._enabled = False

    def enable(self) -> None:
        self._enabled = True

    # -- get-or-create -------------------------------------------------------

    def _get(self, cls, name: str, help: str, labels: dict | None,
             **kwargs) -> _Instrument:
        key = (name, _label_key(labels or {}))
        found = self._instruments.get(key)   # lock-free fast path
        if found is not None:
            return found
        with self._lock:
            found = self._instruments.get(key)
            if found is None:
                found = cls(name, help=help, labels=labels, registry=self,
                            **kwargs)
                self._instruments[key] = found
            return found

    def counter(self, name: str, help: str = "",
                labels: dict | None = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: dict | None = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: dict | None = None,
                  start: float = DEFAULT_START,
                  factor: float = DEFAULT_FACTOR,
                  buckets: int = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, labels,
                         start=start, factor=factor, buckets=buckets)

    # -- introspection -------------------------------------------------------

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def histograms(self, prefix: str = "") -> list[Histogram]:
        return [inst for inst in self.instruments()
                if inst.kind == "histogram"
                and inst.name.startswith(prefix)]

    def render(self) -> str:
        """The Prometheus text exposition (``GET /metrics``)."""
        by_name: dict[str, list[_Instrument]] = {}
        for inst in self.instruments():
            by_name.setdefault(inst.name, []).append(inst)
        lines = []
        for name in sorted(by_name):
            group = by_name[name]
            help_text = next((g.help for g in group if g.help), "")
            if help_text:
                lines.append(f"# HELP {name} {_escape(help_text)}")
            lines.append(f"# TYPE {name} {group[0].kind}")
            for inst in sorted(group, key=lambda g: g.label_key):
                if inst.kind == "histogram":
                    for extra, value in inst.samples():
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels(inst.label_key, extra)} "
                            f"{_number(value)}")
                    snap = inst.snapshot()
                    tag = _render_labels(inst.label_key)
                    lines.append(f"{name}_sum{tag} {_number(snap.sum)}")
                    lines.append(f"{name}_count{tag} {_number(snap.total)}")
                else:
                    lines.append(f"{name}{_render_labels(inst.label_key)} "
                                 f"{_number(inst.value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-ready state: ``{name: {label_string: value|summary}}``."""
        out: dict[str, dict] = {}
        for inst in self.instruments():
            label = ",".join(f"{k}={v}" for k, v in inst.label_key) or ""
            entry = out.setdefault(inst.name, {})
            if inst.kind == "histogram":
                entry[label] = inst.snapshot().to_json()
            else:
                entry[label] = inst.value
        return out

    # -- fork support --------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument's state without discarding instruments.

        A forked worker process (``repro.serve.pool``) inherits the
        parent's shards by copy-on-write; left alone, its ``/metrics``
        exposition would replay the parent's whole pre-fork history and
        the cross-process merge would double-count it. Instruments
        themselves are kept — module-level code holds direct references
        to them (e.g. the recommender's stage histograms), so clearing
        ``_instruments`` would silently orphan those writers from the
        exposition. Gauge callbacks are dropped too: they close over
        parent-side objects whose forked copies no longer track anything
        real. Locks are recreated because fork copies them in whatever
        state some unrelated parent thread held them.
        """
        self._lock = threading.Lock()
        for inst in self.instruments():
            if inst.kind in ("counter", "histogram"):
                inst._shards.clear()
            elif inst.kind == "gauge":
                inst._value = 0.0
                inst._fn = None
                inst._lock = threading.Lock()


#: The process-global registry all built-in instrumentation writes to.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "",
            labels: dict | None = None) -> Counter:
    return REGISTRY.counter(name, help=help, labels=labels)


def gauge(name: str, help: str = "", labels: dict | None = None) -> Gauge:
    return REGISTRY.gauge(name, help=help, labels=labels)


def histogram(name: str, help: str = "", labels: dict | None = None,
              start: float = DEFAULT_START, factor: float = DEFAULT_FACTOR,
              buckets: int = DEFAULT_BUCKETS) -> Histogram:
    return REGISTRY.histogram(name, help=help, labels=labels,
                              start=start, factor=factor, buckets=buckets)


def render_prometheus() -> str:
    return REGISTRY.render()


def parse_prometheus(text: str) -> dict[tuple[str, str], float]:
    """Parse a text exposition into ``{(name, label_string): value}``.

    A deliberately small parser for the CI smoke check ("the endpoint's
    output parses and the core series exist") and the ``repro stats``
    table — not a general Prometheus client. Raises ``ValueError`` on a
    malformed sample line.
    """
    samples: dict[tuple[str, str], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
                         r"(\{.*\})?\s+(\S+)$", line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name, labels, value = match.groups()
        samples[(name, labels or "")] = float(value)
    return samples


_UNESCAPE = {"n": "\n", '"': '"', "\\": "\\"}


def parse_label_string(label_str: str) -> dict[str, str]:
    """Decode a rendered label string back into ``{name: value}``.

    The escape-aware inverse of the exposition's label rendering:
    quoted values may contain ``\\"``, ``\\\\`` and ``\\n`` (which is
    why a naive ``split(",")`` cannot parse them). Accepts ``""`` for
    an instrument with no labels. Raises ``ValueError`` on malformed
    input.
    """
    if not label_str or label_str == "{}":
        return {}
    if not (label_str.startswith("{") and label_str.endswith("}")):
        raise ValueError(f"malformed label string {label_str!r}")
    body = label_str[1:-1]
    out: dict[str, str] = {}
    i, n = 0, len(body)
    try:
        while i < n:
            eq = body.index("=", i)
            key = body[i:eq]
            if body[eq + 1] != '"':
                raise ValueError(f"unquoted label value in {label_str!r}")
            j = eq + 2
            chars: list[str] = []
            while True:
                char = body[j]
                if char == "\\":
                    chars.append(_UNESCAPE.get(body[j + 1],
                                               "\\" + body[j + 1]))
                    j += 2
                elif char == '"':
                    j += 1
                    break
                else:
                    chars.append(char)
                    j += 1
            out[key] = "".join(chars)
            if j < n and body[j] == ",":
                j += 1
            i = j
    except (IndexError, ValueError) as exc:
        raise ValueError(
            f"malformed label string {label_str!r}: {exc}") from exc
    return out


_META_RE = re.compile(r"^# (HELP|TYPE) (\S+)(?: (.*))?$")
_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$")


def merge_expositions(texts: list[str]) -> str:
    """Merge Prometheus expositions from several processes into one.

    The pool parent calls this over its own render plus one exposition
    per worker process, so ``GET /metrics`` stays a single scrape
    target. **Counter and histogram** samples with identical name +
    label set are summed — valid because every process uses the same
    deterministic bucket geometry (``DEFAULT_START`` /
    ``DEFAULT_FACTOR``, or whatever geometry the instrument was created
    with, which is code- not state-derived), so ``_bucket``/``_sum``/
    ``_count`` series line up exactly. **Gauges aggregate by max**, not
    sum: a point-in-time reading (staleness seconds, rejection streak,
    worker count) summed across N processes is meaningless, while max
    reports the worst/authoritative reading — and since forked workers
    reset inherited gauges to 0, the parent's authoritative value wins.
    ``NaN`` gauge readings (dead callbacks) lose to any real value.
    Family order and first-seen HELP text are preserved.
    """
    helps: dict[str, str] = {}
    kinds: dict[str, str] = {}
    family_order: list[str] = []
    rows: dict[str, list[tuple[str, str]]] = {}
    values: dict[tuple[str, str], float] = {}
    for text in texts:
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            meta = _META_RE.match(line)
            if meta is not None:
                keyword, name, rest = meta.groups()
                if keyword == "HELP":
                    helps.setdefault(name, rest or "")
                elif name not in kinds:
                    kinds[name] = rest or "untyped"
                    family_order.append(name)
                continue
            if line.startswith("#"):
                continue
            match = _SAMPLE_RE.match(line)
            if match is None:
                raise ValueError(f"unparseable exposition line: {raw!r}")
            name, labels, value = match.groups()
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[:-len(suffix)] in kinds:
                    family = name[:-len(suffix)]
                    break
            if family not in kinds:
                kinds[family] = "untyped"
                family_order.append(family)
            key = (name, labels or "")
            if key in values:
                fresh = float(value)
                if kinds.get(family) == "gauge":
                    old = values[key]
                    # Prefer any real reading over NaN; otherwise max.
                    if math.isnan(old):
                        values[key] = fresh
                    elif not math.isnan(fresh):
                        values[key] = max(old, fresh)
                else:
                    values[key] += fresh
            else:
                values[key] = float(value)
                rows.setdefault(family, []).append(key)
    lines = []
    for family in family_order:
        if helps.get(family):
            lines.append(f"# HELP {family} {helps[family]}")
        lines.append(f"# TYPE {family} {kinds[family]}")
        for name, labels in rows.get(family, []):
            lines.append(f"{name}{labels} {_number(values[(name, labels)])}")
    return "\n".join(lines) + "\n"
