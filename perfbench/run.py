"""The repository benchmark: one workload against a real server process.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-unique --seed 1 \
        --seconds 15 --trace 0

Workloads (BENCHMARK.json and README.md say why each exists):

``serve-unique``
    ``repro serve --workers <nproc>``; a closed loop over ``nproc``
    keep-alive connections sends ``/recommend`` with a never-repeated
    history each time, so the LRU cache never hits.
``serve-hot``
    The same server and loop; histories are Zipf draws from a seeded
    pool of returning users plus a few first visits, so most requests
    are cache hits.
``stream-fresh``
    ``repro stream --workers 0``; one thread reads ``/recommend``
    open-loop at a fixed rate while another posts ``/events`` batches
    (a cold item every third batch) and times each batch until a read
    is served by the generation that includes it.

A run starts the server several times (a *session* each) and splits
``--seconds`` between them; each metric is a median over sessions, and
rates and latencies leave out the slices of the window in which the
hypervisor stole CPU time (see README.md).
Every session checks the answers (an independent oracle for the serve
workloads; no dropped read, monotonic versions and every published
generation served for ``stream-fresh``). The last line printed is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``; with ``--trace 1`` one untraced and one traced session
(through ``perfbench/tracehook.py``) and the per-layer ledger.
Scratch files go to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402
import loadgen  # noqa: E402
from ledger import median  # noqa: E402
from loadgen import K  # noqa: E402
from server import (ROOT, SRC, Server, ServerError, StealSampler,  # noqa: E402
                    delta, server_env, share, steal_ticks, within)

SCENARIO = ("hm", "pmmrec")
PROFILE = "paper"
SERVER_SEED = 0
SESSIONS = {"serve-unique": 5, "serve-hot": 5, "stream-fresh": 3}
WARMUP_S = 0.5
SETTLE_S = 0.5            # idle wait after start-up before reading PSS
STEAL_LIMIT = 0.02        # steal share above which a 0.5 s slice is set aside
PROBES = 2                # /refresh probes per serve session
ORACLE_SAMPLE = 100       # answers checked against the oracle per session
STREAM_RATE = 100.0       # reads per second offered on stream-fresh
STREAM_WAIT_S = 30.0      # longest wait for a known generation to be served
BATCH_WAIT_S = 5.0        # a batch not served by then was rejected by the
                          # eval gate (or is late); the next one is posted
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
KERNEL_OPS = ("fused.attention", "fused.mha", "fused.transformer_block",
              "fused.cross_entropy", "fused.linear", "fused.ffn",
              "fused.info_nce", "fused.layer_norm", "train.forward",
              "train.backward", "train.clip", "train.optimizer_step")
SWAP_PHASES = ("snapshot", "pre_warm", "index_build", "gate", "checkpoint",
               "publish", "fence", "drain")

#: Per-layer metrics: name -> (unit, parent layer as the trace links it).
PER_LAYER = {
    "client.wire_ms": ("ms", None),
    "http.self_ms": ("ms", "client"),
    "service.self_ms": ("ms", "http"),
    "pool.dispatch_ms": ("ms", "service"),
    "pool.retries": ("count", "service"),
    "pool.fence_ms": ("ms", "service"),
    "server.cpu_ms_per_req": ("ms", None),
    "batcher.self_ms": ("ms", "pool|service"),
    "batcher.queue_wait_ms": ("ms", "batcher"),
    "batcher.batch_size": ("requests", "batcher"),
    "batcher.timeout_flush_frac": ("frac", "batcher"),
    "batcher.cache_hit_frac": ("frac", "batcher"),
    "recommender.batch_ms": ("ms", "batcher"),
    "recommender.self_ms": ("ms", "batcher"),
    "scoring.score_ms": ("ms", "recommender"),
    "recommender.mask_ms": ("ms", "recommender"),
    "topk_ms": ("ms", "recommender"),
    "recommender.rps_b1": ("1/s", None),
    "recommender.rps_b32": ("1/s", None),
    "index.refresh_ms": ("ms", "service|worker.swap"),
    "ingest_ms": ("ms", "http"),
    "train.step_ms": ("ms", "worker.round"),
    "worker.swap_ms": ("ms", "worker.round"),
    **{f"swap.{phase}_ms": ("ms", "worker.swap") for phase in SWAP_PHASES},
    "stream.steps": ("count", "worker.round"),
    "stream.published": ("count", "worker.swap"),
    "stream.rejected": ("count", "worker.swap"),
    **{f"kernel.{op}_ms": ("ms", "train.step|scoring") for op in KERNEL_OPS},
    "trace.e2e_p50_ms": ("ms", None),
    "trace.coverage": ("frac", None),
    "trace.unattributed_ms": ("ms", None),
    "trace.matched_frac": ("frac", None),
    "trace.overhead_frac": ("frac", None),
}


class BenchError(RuntimeError):
    """The workload could not be measured."""


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def mean_of(before: dict, after: dict, name: str, scale: float = 1.0,
            **match) -> float:
    """Mean of a histogram's observations between two scrapes."""
    count = delta(before, after, name + "_count", **match)
    if count <= 0:
        return 0.0
    return delta(before, after, name + "_sum", **match) / count * scale


def steal_frac(since: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor gave elsewhere since ``since``."""
    now = steal_ticks()
    return share(now[0] - since[0], now[1] - since[1])


# -- context ------------------------------------------------------------------


class Context:
    """Run-wide state: arguments, the oracle scenario, outcome counters."""

    def __init__(self, args):
        from repro.serve import ModelRegistry
        self.args = args
        self.workdir = os.path.join(ROOT, ".perfbench", str(os.getpid()))
        os.makedirs(self.workdir, exist_ok=True)
        # The oracle: the same scenario, profile and seed the server
        # loads, built independently in the client process.
        registry = ModelRegistry(profile=PROFILE, dtype="float32")
        self.scenario = registry.add(":".join(SCENARIO), seed=SERVER_SEED)
        self.dataset = self.scenario.dataset
        self.recommender = self.scenario.recommender
        self.failures: list[str] = []
        self.notes: dict = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def start_server(ctx: Context, argv: list[str],
                 spans_dir: str | None) -> Server:
    env = {"REPRO_PROF": "1"} if spans_dir else None
    server = Server(argv, os.path.join(ctx.workdir, "server.log"),
                    spans_dir=spans_dir, env=env)
    try:
        server.start()
        # Memory after set-up, once the pool's shared-memory tracker has
        # started. Under load, whether a worker's collector has yet made
        # a full pass (copying the pages it shares with the parent) moves
        # the sum by ~20 MiB from session to session.
        time.sleep(SETTLE_S)
        server.pss = server.pss_mib()
    except BaseException:
        server.kill()
        raise
    ctx.notes["server_cli"] = server.cli_line
    return server


def stop_server(ctx: Context, server: Server) -> None:
    try:
        server.stop()
    except ServerError as exc:
        ctx.fail(str(exc))


# -- serve workloads ----------------------------------------------------------


def oracle_items(ctx: Context, history) -> tuple:
    """Full-catalogue scores, seen items and padding masked, stable argsort."""
    import numpy as np
    scores = np.array(ctx.recommender.score([history])[0], copy=True)
    scores[0] = -np.inf
    scores[np.asarray(history)] = -np.inf
    order = np.argsort(-scores, kind="stable")[:K]
    return tuple(int(i) for i in order if np.isfinite(scores[i]))


def check_served(ctx: Context, requests, rng) -> None:
    """Shape checks on every answer, oracle equality on a seeded sample."""
    version = requests[0].version
    bad = 0
    for request in requests:
        items = set(request.items)
        if (len(request.items) != K or len(items) != K
                or items & set(request.history.tolist())
                or min(items) < 1 or max(items) > ctx.dataset.num_items
                or request.version != version):
            bad += 1
    if bad:
        ctx.fail(f"{bad} answers break the top-{K} contract "
                 f"(length, duplicates, seen items, id range or version)")
    picks = rng.choice(len(requests), size=min(ORACLE_SAMPLE, len(requests)),
                       replace=False)
    expected: dict = {}
    mismatches = 0
    for index in picks:
        request = requests[int(index)]
        if request.key not in expected:
            expected[request.key] = oracle_items(ctx, request.history)
        mismatches += request.items != expected[request.key]
    ctx.notes["oracle_checked"] = ctx.notes.get("oracle_checked", 0) \
        + len(picks)
    if mismatches:
        ctx.fail(f"{mismatches}/{len(picks)} sampled answers differ from "
                 f"the oracle")


def refresh_probes(ctx: Context, server: Server, next_history) -> list[float]:
    """``POST /refresh`` → first ``/recommend`` served by the new index."""
    conn = loadgen.Connection(server.port)
    body = json.dumps({"dataset": SCENARIO[0],
                       "model": SCENARIO[1]}).encode()
    fresh = []
    try:
        for _ in range(PROBES):
            tick = time.perf_counter()
            status, payload = conn.post("/refresh", body)
            if status != 200:
                ctx.fail(f"/refresh answered {status}: {payload}")
                return fresh
            while True:
                request = loadgen.recommend(conn, SCENARIO, next_history())
                if not request.ok:
                    ctx.fail(f"probe read failed: {request.error}")
                    return fresh
                if request.version >= payload["index_version"]:
                    break
                if time.perf_counter() - tick > STREAM_WAIT_S:
                    ctx.fail("refreshed index never served")
                    return fresh
            fresh.append(request.t_done - tick)
    finally:
        conn.close()
    return fresh


class ServeInputs:
    """Per-thread history sources for one serve workload."""

    def __init__(self, ctx: Context, hot: bool, threads: int):
        self.hot = hot
        if hot:
            self.histories = loadgen.HotHistories(ctx.dataset, ctx.args.seed)
            streams = [self.histories.stream(t) for t in range(threads)]
            self.sources = [stream.__next__ for stream in streams]
        else:
            self.histories = loadgen.UniqueHistories(ctx.dataset,
                                                     ctx.args.seed)
            self.sources = [self.histories.next] * threads
        self.sent: list = []


def serve_session(ctx: Context, inputs: ServeInputs, seconds: float,
                  spans_dir: str | None = None) -> dict:
    threads = len(inputs.sources)
    argv = ["serve", "--scenarios", ":".join(SCENARIO), "--profile", PROFILE,
            "--seed", str(SERVER_SEED), "--workers", str(threads)]
    server = start_server(ctx, argv, spans_dir)
    try:
        warm = []
        if inputs.hot:
            # Round-robin dispatch sends consecutive requests of one
            # connection to consecutive workers: each worker caches each
            # pool entry once.
            conn = loadgen.Connection(server.port)
            try:
                warm = [loadgen.recommend(conn, SCENARIO, history) for history
                        in inputs.histories.warm_order(threads)]
            finally:
                conn.close()
        warm += [r for thread in loadgen.closed_loop(
            server.port, SCENARIO, inputs.sources, WARMUP_S) for r in thread]
        before, cpu0 = server.metrics(), server.cpu_s()
        with loadgen.client_gc_paused(), StealSampler() as steal:
            tick = time.perf_counter()
            per_thread = loadgen.closed_loop(server.port, SCENARIO,
                                             inputs.sources, seconds)
            elapsed = time.perf_counter() - tick
        cpu1, after = server.cpu_s(), server.metrics()
        fresh = refresh_probes(ctx, server, inputs.sources[0])
        probed = server.metrics()
    finally:
        stop_server(ctx, server)
    requests = [r for thread in per_thread for r in thread]
    ok = [r for r in requests if r.ok]
    failed = [r for r in warm + requests if not r.ok]
    ctx.count(len(warm) + len(requests) + PROBES,
              len(failed) + PROBES - len(fresh))
    if failed:
        ctx.fail(f"{len(failed)} requests failed, first: {failed[0].error}")
    if not ok:
        raise BenchError("no request succeeded")
    if len(fresh) != PROBES:
        ctx.fail("refresh probes incomplete")
    inputs.sent += warm + requests
    windows = steal.clean_windows(STEAL_LIMIT)
    clean_s = sum(t1 - t0 for t0, t1 in windows)
    kept = [r for r in ok if within(windows, r.t_sent, r.t_done)]
    return {"setup_s": server.setup_s, "ok": ok, "kept": kept,
            "rps": sum(within(windows, r.t_done) for r in ok) / clean_s,
            "clean_frac": clean_s / steal.duration, "steal": steal.frac,
            "fresh": fresh, "pss_mib": server.pss, "cpu_s": cpu1 - cpu0,
            "before": before, "after": after, "probed": probed,
            "window": (tick, tick + elapsed)}


def serve_checks(ctx: Context, inputs: ServeInputs, sessions: list) -> None:
    import numpy as np
    rng = np.random.default_rng([ctx.args.seed, 4])
    for session in sessions:
        check_served(ctx, session["ok"], rng)
    lookups = sum(delta(s["before"], s["after"], "repro_serve_cache_total")
                  for s in sessions)
    hits = sum(delta(s["before"], s["after"], "repro_serve_cache_total",
                     outcome="hit") for s in sessions)
    if inputs.hot:
        ctx.notes["cache_hit_share"] = share(hits, lookups)
        return
    distinct = len({r.history.tobytes() for r in inputs.sent})
    ctx.notes["distinct_history_share"] = distinct / len(inputs.sent)
    if distinct != len(inputs.sent) or hits:
        ctx.fail(f"histories repeated ({distinct}/{len(inputs.sent)} "
                 f"distinct, {hits:.0f} cache hits)")


# -- stream-fresh -------------------------------------------------------------


class StreamInputs:
    def __init__(self, ctx: Context):
        self.histories = loadgen.UniqueHistories(ctx.dataset, ctx.args.seed)
        self.batches = loadgen.event_batches(ctx.dataset, ctx.args.seed)


def stream_session(ctx: Context, inputs: StreamInputs, seconds: float,
                   spans_dir: str | None = None) -> dict:
    argv = ["stream", "--scenarios", ":".join(SCENARIO), "--profile", PROFILE,
            "--seed", str(SERVER_SEED), "--workers", "0"]
    server = start_server(ctx, argv, spans_dir)
    warm = loadgen.StreamClient(server.port, SCENARIO, inputs.histories,
                                inputs.batches, STREAM_RATE)
    client = loadgen.StreamClient(server.port, SCENARIO, inputs.histories,
                                  inputs.batches, STREAM_RATE)
    try:
        # Warm-up: reads, and one event batch through a whole fine-tune
        # round, so one-time costs of the first round are not measured.
        stop = threading.Event()
        reader = threading.Thread(target=warm.read_loop,
                                  args=(time.perf_counter(), stop))
        reader.start()
        try:
            time.sleep(WARMUP_S)
            warm.write_loop(time.perf_counter(), BATCH_WAIT_S, batches=1)
        finally:
            stop.set()
            reader.join()
        before, cpu0 = server.metrics(), server.cpu_s()
        tick = time.perf_counter()
        stop = threading.Event()
        reader = threading.Thread(target=client.read_loop, args=(tick, stop))
        reader.start()
        try:
            with loadgen.client_gc_paused(), StealSampler() as steal:
                client.write_loop(tick + seconds, BATCH_WAIT_S)
            # Keep reading until the last published generation is served.
            _, stats = server.request("GET", "/stats")
            final = json.loads(stats)["stream"][":".join(SCENARIO)]
            if client.wait_version(final["index_version"] - 1,
                                   STREAM_WAIT_S) is None:
                ctx.fail("last published generation never served")
        finally:
            stop.set()
            reader.join()
        cpu1, after = server.cpu_s(), server.metrics()
    finally:
        stop_server(ctx, server)
    log = client.log
    reads = warm.log.reads + log.reads
    posts = len(warm.log.posts) + len(log.posts)
    errors = warm.log.post_errors + log.post_errors
    failed = [r for r in reads if not r.ok]
    ctx.count(len(reads) + posts + len(errors), len(failed) + len(errors))
    if failed:
        ctx.fail(f"{len(failed)} reads failed, first: {failed[0].error}")
    if errors:
        ctx.fail(f"/events failed: {errors[0]}")
    versions = [r.version for r in reads if r.ok]
    if any(b < a for a, b in zip(versions, versions[1:])):
        ctx.fail("index_version went backwards on a reader connection")
    missing = set(range(versions[0], final["index_version"] + 1)) \
        - set(versions)
    if missing:
        ctx.fail(f"published generations never served: {sorted(missing)}")
    if final["round_errors"]:
        ctx.fail(f"fine-tune rounds raised: {final['last_error']}")
    if not log.fresh_s:
        ctx.fail("no event batch reached a served generation")
    # Reads due after the writer's last batch only confirm that the final
    # generation is served; they are checked but not measured.
    measured = [r for r in log.reads if r.t_due < tick + seconds]
    ok = [r for r in measured if r.ok]
    if not ok:
        raise BenchError("no read succeeded")
    windows = steal.clean_windows(STEAL_LIMIT)
    # Achieved rate: the reads due in the window over the time from the
    # first due time to the last completion, which stretches when the
    # server falls behind the schedule.
    return {"setup_s": server.setup_s, "ok": ok, "measured": measured,
            "kept": [r for r in ok if within(windows, r.t_due, r.t_done)],
            "rps": len(ok) / (max(r.t_done for r in measured) - tick),
            "clean_frac": sum(t1 - t0 for t0, t1 in windows)
            / steal.duration,
            "steal": steal.frac, "fresh": log.fresh_s, "posts": log.posts,
            "pss_mib": server.pss, "cpu_s": cpu1 - cpu0, "before": before,
            "after": after, "window": (tick, tick + seconds)}


def stream_notes(ctx: Context, sessions: list) -> None:
    posts = [p for s in sessions for p in s["posts"]]
    lateness = [r.t_sent - r.t_due for s in sessions for r in s["measured"]]
    ctx.notes.update(
        event_batches=len(posts),
        events=sum(p["accepted"] for p in posts),
        cold_items=sum(p["cold_items"] for p in posts),
        offered_rate=STREAM_RATE,
        achieved_rate=[round(s["rps"], 3) for s in sessions],
        lateness_p50_ms=median(lateness) * 1e3,
        lateness_max_ms=max(lateness) * 1e3,
        published=sum(delta(s["before"], s["after"],
                            "repro_stream_swaps_total", kind=kind)
                      for s in sessions for kind in ("full", "catalog")),
        rejected=sum(delta(s["before"], s["after"],
                           "repro_stream_swaps_total", kind="rejected")
                     for s in sessions),
        fresh_samples=sum(len(s["fresh"]) for s in sessions),
        batches_unserved=sum(len(s["posts"]) - len(s["fresh"])
                             for s in sessions))


# -- metrics ------------------------------------------------------------------


def latencies_ms(sessions: list) -> list[float]:
    """Kept latencies of the sessions, from the due time when open-loop."""
    return [(r.t_done - r.t_due) * 1e3 for s in sessions for r in s["kept"]]


def end_to_end(sessions: list) -> dict:
    """The end-to-end metrics, each a median over the run's sessions.

    Rates and latencies come from the parts of each measured window with
    little hypervisor steal (``StealSampler``), and per-session figures
    keep one session hit by a long burst from moving the result. No tail
    percentile is among them: on a 2-vCPU virtual machine p95 and p99
    spread by 12-40 % from run to run (the record keeps p50 to p99.9).
    """
    return {"setup_s": (median(s["setup_s"] for s in sessions), "s"),
            "rps": (median(s["rps"] for s in sessions), "1/s"),
            "p50_ms": (median(median(latencies_ms([s])) for s in sessions),
                       "ms"),
            "fresh_s": (median(f for s in sessions for f in s["fresh"]), "s"),
            "pss_mib": (median(s["pss_mib"] for s in sessions), "MiB")}


# -- the traced run -----------------------------------------------------------


def ceilings(ctx: Context) -> dict:
    """``Recommender.recommend_batch`` throughput at batch 1 and 32."""
    histories = loadgen.UniqueHistories(ctx.dataset, ctx.args.seed + 7)
    pool = [histories.next() for _ in range(512)]
    out = {}
    for width in (1, 32):
        done, tick = 0, time.perf_counter()
        while time.perf_counter() - tick < 1.0:
            start = done % len(pool)
            ctx.recommender.recommend_batch(pool[start:start + width], k=K)
            done += width
        out[f"recommender.rps_b{width}"] = done / (time.perf_counter() - tick)
    return out


def per_layer(session: dict, ledger_obj) -> dict:
    before, after = session["before"], session["after"]
    t0, t1 = session["window"]
    served = session["ok"]
    out = ledger.attribute(ledger_obj, served)

    def spans(name: str, until: float = t1) -> float:
        return median(ledger_obj.durations_ms(name, t0, until))

    lookups = delta(before, after, "repro_serve_cache_total")
    published = sum(delta(before, after, "repro_stream_swaps_total",
                          kind=kind) for kind in ("full", "catalog"))
    out.update({
        "pool.retries": delta(before, after, "repro_pool_retries_total"),
        "pool.fence_ms": mean_of(after, session.get("probed", after),
                                 "repro_pool_fence_seconds", 1e3),
        "server.cpu_ms_per_req": session["cpu_s"] * 1e3 / len(served),
        "batcher.queue_wait_ms": mean_of(
            before, after, "repro_serve_queue_wait_seconds", 1e3),
        "batcher.batch_size": mean_of(before, after,
                                      "repro_serve_batch_size"),
        "batcher.timeout_flush_frac": share(
            delta(before, after, "repro_serve_flushes_total",
                  trigger="timeout"),
            delta(before, after, "repro_serve_flushes_total")),
        "batcher.cache_hit_frac": share(
            delta(before, after, "repro_serve_cache_total", outcome="hit"),
            lookups),
        "recommender.batch_ms": spans("recommender"),
        # Refreshes happen in the probes after the window on serve
        # workloads and inside swaps on stream-fresh.
        "index.refresh_ms": spans("index.refresh", float("inf")),
        "ingest_ms": spans("ingest"),
        "train.step_ms": spans("train.step"),
        "worker.swap_ms": spans("worker.swap"),
        "stream.steps": delta(before, after, "repro_stream_steps_total"),
        "stream.published": published,
        "stream.rejected": delta(before, after, "repro_stream_swaps_total",
                                 kind="rejected"),
    })
    for phase in SWAP_PHASES:
        out[f"swap.{phase}_ms"] = mean_of(
            before, after, "repro_stream_swap_phase_seconds", 1e3,
            phase=phase)
    for op in KERNEL_OPS:
        calls = delta(before, after, "repro_prof_op_calls_total", op=op)
        seconds = delta(before, after, "repro_prof_op_seconds_total", op=op)
        out[f"kernel.{op}_ms"] = seconds / calls * 1e3 if calls else 0.0
    return out


# -- driver -------------------------------------------------------------------


def host_record(ctx: Context) -> dict:
    import numpy as np
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=30).stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: record what we can
        blas = "unknown"
    senv = server_env()
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": loadgen.nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_env_client": {k: os.environ.get(k) for k in BLAS_ENV},
            "blas_env_server": {k: senv.get(k) for k in BLAS_ENV},
            "workload": ctx.args.workload, "seed": ctx.args.seed,
            "seconds": ctx.args.seconds, "trace": ctx.args.trace,
            "scenario": ":".join(SCENARIO), "profile": PROFILE,
            "server_seed": SERVER_SEED}


def run_workload(ctx: Context) -> dict:
    workload = ctx.args.workload
    if workload == "stream-fresh":
        loadgen.check_concurrency(2)          # one reader, one writer
        inputs = StreamInputs(ctx)
        session = stream_session
    else:
        threads = loadgen.nproc()
        loadgen.check_concurrency(threads)
        inputs = ServeInputs(ctx, workload == "serve-hot", threads)
        session = serve_session

    def finish(sessions: list) -> None:
        if workload == "stream-fresh":
            stream_notes(ctx, sessions)
        else:
            serve_checks(ctx, inputs, sessions)
        ctx.notes["sessions"] = [
            {"setup_s": round(s["setup_s"], 4), "rps": round(s["rps"], 2),
             "samples": len(s["ok"]), "kept": len(s["kept"]),
             "clean_frac": round(s["clean_frac"], 3),
             "steal_frac": round(s["steal"], 4)}
            for s in sessions]

    if ctx.args.trace == 0:
        count = SESSIONS[workload]
        sessions = [session(ctx, inputs, ctx.args.seconds / count)
                    for _ in range(count)]
        finish(sessions)
        latencies = latencies_ms(sessions)
        ctx.notes["latency_samples"] = len(latencies)
        ctx.notes["percentiles_ms"] = {
            q: round(percentile(latencies, q), 3)
            for q in (50, 90, 95, 98, 99, 99.5, 99.9)}
        return end_to_end(sessions)

    spans_dir = os.path.join(ctx.workdir, "spans")
    os.makedirs(spans_dir)
    half = ctx.args.seconds / 2
    plain = session(ctx, inputs, half)
    traced = session(ctx, inputs, half, spans_dir)
    finish([plain, traced])
    layers = per_layer(traced, ledger.Ledger(ledger.load(spans_dir)))
    untraced_p50 = median((r.t_done - r.t_sent) * 1e3 for r in plain["ok"])
    layers["trace.overhead_frac"] = \
        layers["trace.e2e_p50_ms"] / untraced_p50 - 1.0
    layers.update(ceilings(ctx))
    ctx.notes["untraced"] = {name: round(value, 4) for name, (value, _)
                             in end_to_end([plain]).items()}
    return {name: (layers[name], unit) for name, (unit, _)
            in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(SESSIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # The server stops cleanly on SIGINT. A shell that starts this script
    # in the background hands it an ignored SIGINT, which exec would pass
    # on to the server; a Python-level handler is reset to the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    run_steal = steal_ticks()
    ctx = Context(args)
    try:
        record = host_record(ctx)
        metrics = run_workload(ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    record["steal_frac"] = steal_frac(run_steal)
    ctx.notes["error_frac"] = share(ctx.failed, ctx.attempted)
    record["notes"] = ctx.notes
    for name, (value, unit) in metrics.items():
        parent = PER_LAYER.get(name, (None, None))[1]
        print(f"{name:<32} {value:>14.4f} {unit:<8} "
              f"{'parent ' + parent if parent else ''}")
    if args.trace:
        print(f"coverage: per-layer self-time medians explain "
              f"{metrics['trace.coverage'][0]:.1%} of the traced p50 "
              f"({metrics['trace.unattributed_ms'][0]:.3f} ms unattributed)")
    print(f"attempted {ctx.attempted}, failed {ctx.failed}, "
          f"failures: {ctx.failures or 'none'}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not ctx.failures, "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
