"""Span recorder for the traced run.

Wrappers are installed from this file around each layer's public entry
points, so nothing under ``src/`` changes:

* class methods (``PGASRuntime.charge``, ``SharedArray.gather``, ...)
  are patched on the class;
* ``getd``/``setd``/``setdmin`` are patched on every solver module that
  imported them, because callers look the name up there;
* the kernel ops are wrapped on the ``active_backend()`` instance;
* graph generators and ``autotune`` are patched on the package that
  callers import them from at call time.

Each call becomes one span ``(id, name, start, end, parent, job,
child_s, amount, thread)``.  Spans are kept in memory and written out
when the run ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import json
import threading
import time

# Modules that bind the collectives by name (``from ..collectives.getd
# import getd``): the attribute must be patched where it is looked up.
_COLLECTIVE_CALLERS = (
    "repro.cc.collective",
    "repro.cc.sv",
    "repro.lt.solver",
    "repro.mst.collective",
    "repro.bfs.solvers",
    "repro.tuning.probes",
    "repro.listrank.cgm",
    "repro.listrank.wyllie",
)
KERNEL_OPS = (
    "group_minima",
    "exchange_matrix",
    "owner_distinct",
    "segment_distinct",
    "concat_segments",
)
_GENERATORS = ("random_graph", "powerlaw_graph", "hybrid_graph", "with_random_weights")


# ``amount`` functions see (args, kwargs, result) of the wrapped call.
def _group_elems(args, kwargs, result):
    return len(args[0] if args else kwargs["idx"])


def _index_elems(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["indices"])


def _requests(args, kwargs, result):
    return int((args[2] if len(args) > 2 else kwargs["indices"]).total)


def _hit(args, kwargs, result):
    return int(result is not None)


def _solve_counters(args, kwargs, result):
    solved = (result or {}).get("_result_obj")
    if solved is None:
        return (0, 0)
    counters = solved.info.trace.counters
    return (counters.remote_messages, counters.remote_bytes)


def perf_counts():
    """[arena leases, arena reuses, derived-cache hits, misses] so far."""
    import numpy as np
    from repro.perf import derived_cache_stats, global_arena

    arena = global_arena().stats()
    caches = derived_cache_stats().values()
    return np.array([
        arena["leases"], arena["reuses"],
        sum(c["hits"] for c in caches), sum(c["misses"] for c in caches),
    ], dtype=np.int64)


class Tracer:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def set_job(self, job_id) -> None:
        """Tag the spans this thread records from now on with a job id."""
        self._local.job = job_id

    def wrap(self, name: str, fn, amount=None):
        spans = self.spans
        ids = self._ids
        local = self._local
        frames_of = self._frames
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frames = frames_of()
            span_id = next(ids)
            parent = frames[-1][0] if frames else 0
            frame = [span_id, 0.0]
            frames.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                frames.pop()
                if frames:
                    frames[-1][1] += end - start
                spans.append((
                    span_id, name, start, end, parent, getattr(local, "job", None),
                    frame[1], amount(args, kwargs, result) if amount is not None else 0,
                    threading.get_ident(),
                ))

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, amount=None) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, self.wrap(name, original, amount))

    def install(self, layers=("all",)) -> None:
        """Wrap every layer's entry points (``layers=("graph",)`` wraps
        only the graph generators, for set-up)."""
        every = "all" in layers
        if every or "graph" in layers:
            graph = importlib.import_module("repro.graph")
            for fn in _GENERATORS:
                self.patch(graph, fn, "graph.generate")
        if not every:
            return
        from repro.faults.checkpoint import RoundCheckpointer
        from repro.faults.injector import FaultInjector
        from repro.integrity.monitor import IntegrityMonitor
        from repro.kernels import active_backend
        from repro.resilience.session import ResilientSession
        from repro.runtime import PartitionedArray, PGASRuntime, SharedArray
        from repro.tuning import PlanCache

        backend = active_backend()
        for op in KERNEL_OPS:
            amount = _group_elems if op == "group_minima" else None
            self.patch(backend, op, f"kernels.{op}", amount)
        self.patch(PGASRuntime, "charge", "runtime.charge")
        self.patch(PGASRuntime, "barrier", "runtime.barrier")
        for method in ("gather", "scatter_min", "scatter_store_min"):
            self.patch(SharedArray, method, "runtime.shared_array", _index_elems)
        self.patch(PartitionedArray, "filter", "runtime.partitioned_filter")
        for modname in _COLLECTIVE_CALLERS:
            module = importlib.import_module(modname)
            for fn in ("getd", "setd", "setdmin"):
                if fn in vars(module):
                    self.patch(module, fn, f"collectives.{fn}", _requests)
        self.patch(FaultInjector, "sample_retries", "faults.sample_retries")
        self.patch(RoundCheckpointer, "save", "faults.checkpoint")
        self.patch(RoundCheckpointer, "restore", "faults.checkpoint")
        self.patch(IntegrityMonitor, "on_barrier", "integrity.on_barrier")
        for method in ("verify_cc_round", "verify_lt_round", "verify_star_round",
                       "verify_mst_selection"):
            self.patch(IntegrityMonitor, method, "integrity.verify_round")
        self.patch(ResilientSession, "commit_round", "resilience.commit_round")
        self.patch(ResilientSession, "recover_loss", "resilience.recover")
        self.patch(PlanCache, "get", "tuning.plan_lookup", _hit)
        self.patch(importlib.import_module("repro.tuning"), "autotune", "tuning.autotune")
        self._patch_service()

    def _patch_service(self) -> None:
        from repro.service.executor import JobExecutor

        self.patch(JobExecutor, "_solve", "service.solve", _solve_counters)
        execute = JobExecutor.execute
        tracer = self

        def tagged(executor, job):
            tracer.set_job(job.job_id)
            try:
                return execute(executor, job)
            finally:
                tracer.set_job(None)

        self._patches.append((JobExecutor, "execute", execute, True))
        JobExecutor.execute = tagged

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, previous, own = self._patches.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    # -- reporting -------------------------------------------------------

    def totals(self) -> dict:
        """``{name: [self_s, calls, amount]}`` over all spans (amounts
        that are not plain counts are left out)."""
        out: dict = collections.defaultdict(lambda: [0.0, 0, 0])
        for _, name, start, end, _, _, child, amount, _ in self.spans:
            row = out[name]
            row[0] += (end - start) - child
            row[1] += 1
            row[2] += amount if isinstance(amount, int) else 0
        return dict(out)

    def by_job(self, name: str) -> dict:
        """Total duration of ``name`` spans per job id."""
        out: dict = collections.defaultdict(float)
        for _, span_name, start, end, _, job, _, _, _ in self.spans:
            if span_name == name and job is not None:
                out[job] += end - start
        return dict(out)

    def write(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (one ``X`` event
        per span; ``args`` carry id, parent, job and amount)."""
        events = [
            {
                "name": name, "ph": "X", "ts": start * 1e6, "dur": (end - start) * 1e6,
                "pid": 0, "tid": thread,
                "args": {"id": span_id, "parent": parent, "job": job, "amount": amount},
            }
            for span_id, name, start, end, parent, job, _, amount, thread in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
