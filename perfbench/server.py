"""Start, observe and stop one `repro` server process tree.

The server runs through the normal CLI (``python -m repro.cli serve|stream``)
in its own session, so its pool workers share one process group that the
benchmark can enumerate for CPU time and PSS, and kill as a last resort.
A traced server runs the same CLI through ``perfbench/tracehook.py``,
which wraps the layer entry points before handing over to ``repro.cli``.
"""

from __future__ import annotations

import glob
import http.client
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server did not start, answer or stop as expected."""


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def server_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.update(extra or {})
    return env


class Server:
    """One server process tree: ``repro <argv> --port <free port>``.

    ``spans_dir`` switches to the traced launcher, which writes its span
    files there when the server exits.
    """

    def __init__(self, argv: list[str], log_path: str,
                 spans_dir: str | None = None, env: dict | None = None):
        self.port = free_port()
        self.argv = list(argv) + ["--port", str(self.port)]
        if spans_dir is None:
            self.cmd = [sys.executable, "-m", "repro.cli"] + self.argv
        else:
            self.cmd = [sys.executable, os.path.join(HERE, "tracehook.py"),
                        spans_dir] + self.argv
        self.log_path = log_path
        self.env = server_env(env)
        self.proc: subprocess.Popen | None = None
        self.setup_s = float("nan")
        self.pss = float("nan")

    @property
    def cli_line(self) -> str:
        return "repro " + " ".join(self.argv)

    def start(self, timeout_s: float = 120.0) -> float:
        """Launch, wait until ``GET /scenarios`` answers; returns seconds."""
        log = open(self.log_path, "ab")
        tick = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                self.cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        finally:
            log.close()
        deadline = tick + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise ServerError(f"server exited with {self.proc.returncode} "
                                  f"during start-up; see {self.log_path}")
            try:
                status, _ = self.request("GET", "/scenarios", timeout=5.0)
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.kill()
                raise ServerError(f"server not ready after {timeout_s:.0f} s")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - tick
        return self.setup_s

    def request(self, method: str, path: str, body: bytes | None = None,
                timeout: float = 30.0) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict:
        """One ``/metrics`` scrape: ``{(name, labels): value}``."""
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise ServerError(f"/metrics answered {status}")
        return parse_exposition(body.decode())

    # -- the process tree ------------------------------------------------

    def pids(self) -> list[int]:
        """Live processes in the server's session (parent + pool workers)."""
        out = []
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            try:
                if os.getsid(int(name)) == self.proc.pid:
                    out.append(int(name))
            except OSError:
                continue
        return out

    def cpu_s(self) -> float:
        """User + system CPU seconds of the live process tree."""
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])
        return total / CLK_TCK

    def pss_mib(self) -> float:
        """Summed proportional set size of the process tree, in MiB.

        PSS splits each shared page (copy-on-write after fork, the
        ``/dev/shm`` catalogues) between the processes that map it, so
        the sum counts every page once.
        """
        total_kib = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/smaps_rollup") as handle:
                    for line in handle:
                        if line.startswith("Pss:"):
                            total_kib += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kib / 1024.0

    def stop(self, timeout_s: float = 60.0) -> None:
        """SIGINT the parent (the CLI's clean shutdown) and reap the tree."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                _kill_group(proc)
                raise ServerError("server ignored SIGINT; killed")
        deadline = time.monotonic() + 10.0
        while _group_alive(proc.pid):
            if time.monotonic() > deadline:
                _kill_group(proc)
                raise ServerError("server left processes behind; killed")
            time.sleep(0.02)
        if proc.returncode != 0:
            raise ServerError(f"server exited with {proc.returncode}; "
                              f"see {self.log_path}")

    def kill(self) -> None:
        if self.proc is not None:
            _kill_group(self.proc)
            self.proc = None


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the whole tree, then remove the shared-memory segments its
    pool could no longer unlink (they are named after the parent's pid)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=30)
    deadline = time.monotonic() + 10.0
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    for segment in glob.glob(f"/dev/shm/repro-{proc.pid}-*"):
        try:
            os.unlink(segment)
        except OSError:
            pass


# -- /metrics -----------------------------------------------------------------

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict:
    """Prometheus text → ``{(name, frozenset(labels.items())): value}``."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line.strip())
        if match is None:
            raise ServerError(f"unparseable /metrics line {line!r}")
        name, labels, value = match.groups()
        pairs = frozenset(_LABEL.findall(labels or ""))
        out[(name, pairs)] = float(value)
    return out


def family(scrape: dict, name: str, **match) -> float:
    """Sum of one series family over the samples whose labels match."""
    total = 0.0
    for (sample, labels), value in scrape.items():
        if sample != name:
            continue
        have = dict(labels)
        if all(have.get(k) == v for k, v in match.items()):
            total += value
    return total


def delta(before: dict, after: dict, name: str, **match) -> float:
    return family(after, name, **match) - family(before, name, **match)


# -- the host -----------------------------------------------------------------


def steal_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs, from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


class StealSampler:
    """CPU time the hypervisor gave to other guests, sampled on a thread.

    On a shared virtual machine, bursts of steal stretch every latency
    and cut throughput by tens of percent. ``clean_windows`` names the
    sampling intervals with little of it, so a measurement can be taken
    over those: all intervals at or below ``limit``, or, if they cover
    less than half the time, the least-stolen intervals that do.
    """

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.samples: list[tuple[float, int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        self.samples.append((time.perf_counter(), *steal_ticks()))

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "StealSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def duration(self) -> float:
        return self.samples[-1][0] - self.samples[0][0]

    @property
    def frac(self) -> float:
        (_, s0, n0), (_, s1, n1) = self.samples[0], self.samples[-1]
        return share(s1 - s0, n1 - n0)

    def clean_windows(self, limit: float) -> list[tuple[float, float]]:
        windows = [(t0, t1, share(s1 - s0, n1 - n0))
                   for (t0, s0, n0), (t1, s1, n1)
                   in zip(self.samples, self.samples[1:])]
        half = sum(t1 - t0 for t0, t1, _ in windows) / 2
        kept = [w for w in windows if w[2] <= limit]
        if sum(t1 - t0 for t0, t1, _ in kept) < half:
            kept, covered = [], 0.0
            for window in sorted(windows, key=lambda w: w[2]):
                if covered >= half:
                    break
                kept.append(window)
                covered += window[1] - window[0]
        return sorted((t0, t1) for t0, t1, _ in kept)


def within(windows: list[tuple[float, float]], *times: float) -> bool:
    """True when every time falls inside one of the windows."""
    return all(any(t0 <= t <= t1 for t0, t1 in windows) for t in times)
