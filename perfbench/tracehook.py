"""Run the `repro` CLI with a span recorded around each layer entry point.

Usage (from the repository root)::

    python3 perfbench/tracehook.py SPANS_DIR serve --scenarios hm:pmmrec ...

The wrappers are installed before ``repro.cli.main`` runs, so forked pool
workers inherit them. Every process keeps its spans in memory and writes
``SPANS_DIR/spans-<pid>.json`` when it exits (the parent after the CLI's
SIGINT shutdown, each pool worker when its main loop returns).

A span is ``[id, parent_id, name, t0, t1, key, meta]``: ``parent_id`` is
the enclosing span on the same thread (``None`` at a thread or process
boundary), ``t0``/``t1`` are ``time.perf_counter()`` readings, which on
Linux are CLOCK_MONOTONIC and so comparable across processes, and
``key`` is the CRC-32 of the request history, which the analysis uses to
join spans across those boundaries.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter

from loadgen import history_key

_LOCAL = threading.local()
_IDS = itertools.count(1)
SPANS: list[list] = []


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _open(name: str, key=None, meta=None) -> list:
    stack = _stack()
    span = [next(_IDS), stack[-1][0] if stack else None, name,
            perf_counter(), None, key, meta]
    stack.append(span)
    return span


def _close(span: list) -> None:
    span[4] = perf_counter()
    _stack().pop()
    SPANS.append(span)


def wrap(owner, attr: str, name: str, key_arg: int | None = None) -> None:
    """Replace ``owner.attr`` with a version that records a span.

    ``key_arg`` is the positional index of the request history, whose
    CRC becomes the span key.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        key = history_key(args[key_arg]) if key_arg is not None else None
        span = _open(name, key)
        try:
            return fn(*args, **kwargs)
        finally:
            _close(span)

    setattr(owner, attr, traced)


def install() -> None:
    from repro.serve import http as serve_http
    from repro.serve import recommender as serve_recommender
    from repro.serve import pool as serve_pool
    from repro.serve.batcher import MicroBatcher
    from repro.serve.index import CatalogIndex
    from repro.serve.service import RecommendationService
    from repro.stream.worker import FineTuneWorker
    from repro.train.trainer import Trainer

    handler = serve_http._Handler
    do_post = handler.do_POST

    @functools.wraps(do_post)
    def traced_post(self):
        span = _open("http", meta=self.path)
        try:
            return do_post(self)
        finally:
            _close(span)

    handler.do_POST = traced_post

    recommend_route = handler._recommend

    @functools.wraps(recommend_route)
    def keyed_route(self, payload, *args, **kwargs):
        # Label the enclosing http span with the request's history key.
        stack = _stack()
        if stack and isinstance(payload.get("history"), list):
            stack[-1][5] = history_key(payload["history"])
        return recommend_route(self, payload, *args, **kwargs)

    handler._recommend = keyed_route

    wrap(RecommendationService, "recommend", "service", key_arg=3)
    wrap(serve_pool.PooledRecommendationService, "recommend", "service",
         key_arg=3)
    wrap(serve_pool.WorkerPool, "recommend", "pool", key_arg=2)

    submit = MicroBatcher.submit

    @functools.wraps(submit)
    def traced_submit(self, history, k=10):
        # Submit-to-resolution: queue wait plus the flush for a miss,
        # the cache lookup alone for a hit. Ends in the batcher thread.
        stack = _stack()
        span = [next(_IDS), stack[-1][0] if stack else None, "batcher",
                perf_counter(), None, history_key(history), None]
        future = submit(self, history, k=k)

        def resolved(_future):
            span[4] = perf_counter()
            SPANS.append(span)

        future.add_done_callback(resolved)
        return future

    MicroBatcher.submit = traced_submit

    execute = MicroBatcher._execute

    @functools.wraps(execute)
    def traced_execute(self, batch, trigger):
        span = _open("flush", meta={
            "keys": [history_key(p.history) for p in batch],
            "trigger": trigger})
        try:
            return execute(self, batch, trigger)
        finally:
            _close(span)

    MicroBatcher._execute = traced_execute

    wrap(serve_recommender.Recommender, "recommend_batch", "recommender")
    wrap(serve_recommender.Recommender, "_mask_scores", "mask")
    wrap(serve_recommender, "score_batch", "scoring")
    wrap(serve_recommender, "topk", "topk")
    wrap(CatalogIndex, "refresh", "index.refresh")
    wrap(FineTuneWorker, "ingest", "ingest")
    wrap(FineTuneWorker, "_round", "worker.round")
    # The background round and the public swap() both enter here.
    wrap(FineTuneWorker, "_swap_locked", "worker.swap")
    wrap(Trainer, "train_step", "train.step")

    worker_main = serve_pool._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        SPANS.clear()            # the fork copied the parent's spans
        try:
            return worker_main(*args, **kwargs)
        finally:
            dump()

    serve_pool._worker_main = traced_worker_main


def dump() -> None:
    path = os.path.join(OUT_DIR, f"spans-{os.getpid()}.json")
    with open(path + ".tmp", "w") as handle:
        json.dump(SPANS, handle)
    os.replace(path + ".tmp", path)


OUT_DIR = ""

if __name__ == "__main__":
    OUT_DIR = sys.argv[1]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    install()
    from repro.cli import main
    try:
        code = main(sys.argv[2:])
    finally:
        dump()
    raise SystemExit(code)
