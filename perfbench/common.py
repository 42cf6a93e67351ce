"""Helpers shared by the orchestrator and the workers."""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Build outputs (compiled bytecode, per-run temp dirs) stay here, out
#: of the source tree.
BUILD = ROOT / ".bench_build"

#: Fresh worker processes per run.  Back-to-back processes on the same
#: host differ by 10-20% in speed, so one run pools several of them and
#: also sets up that many times.
PROCESSES = 3

#: The solvers every workload runs: CC ``collective``, CC ``lt-pf``
#: (Liu-Tarjan), MST ``collective``.
ALGS = ("cc", "lt", "mst")

#: Exact per-layer counts: metric name -> trace counter it sums.
EXACT_COUNTERS = {
    "runtime.messages": "remote_messages",
    "runtime.bytes": "remote_bytes",
    "faults.retries": "retries",
    "faults.crashes": "crashes",
    "faults.checkpoint_restores": "checkpoint_restores",
    "integrity.corruptions_injected": "corruptions_injected",
    "integrity.corruptions_detected": "corruptions_detected",
    "integrity.repairs": "repairs",
    "resilience.replicas_written": "replicas_written",
    "resilience.blocks_reconstructed": "blocks_reconstructed",
    "resilience.epoch_changes": "epoch_changes",
}


def child_env(tmp: Path) -> dict:
    """Environment for every process the benchmark starts: the package
    from ``src/``, bytecode under ``.bench_build``, and the tuning plan
    and bench graph caches in the run's temp dir, never in the tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PYTHON"))}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        PYTHONUNBUFFERED="1",
        REPRO_TUNE_CACHE=str(tmp / "tune_cache.json"),
        REPRO_BENCH_CACHE=str(tmp / "bench_cache"),
    )
    return env


class HostProbe:
    """A fixed numpy sort plus interpreter loop that uses no code of the
    program, run on ``threads`` threads at once.  This host's speed
    drifts by up to ±25% over tens of seconds (busy neighbours on shared
    cores), so timed work is bracketed by probes and scaled by
    ``ref_s`` over their mean; a program change cannot move the probe.
    ``ref_s`` is the probe's median time on the reference host (2 vCPUs,
    Python 3.11, numpy 2.4)."""

    def __init__(self, threads: int = 1, ref_s: float = 0.015, repeats: int = 1) -> None:
        import numpy as np

        self._np = np
        self._keys = np.random.default_rng(0).integers(0, 1 << 40, 100_000)
        self.threads = threads
        self.ref_s = ref_s
        self.repeats = repeats
        self.times: list = []
        self._work()  # untimed: the first call pays for page faults

    def _work(self) -> None:
        self._np.argsort(self._keys, kind="stable")
        acc: dict = {}
        for i in range(20_000):
            acc[i & 1023] = acc.get(i & 1023, 0) + i

    def _once(self) -> float:
        workers = [threading.Thread(target=self._work) for _ in range(self.threads - 1)]
        start = time.perf_counter()
        for t in workers:
            t.start()
        self._work()
        for t in workers:
            t.join()
        return time.perf_counter() - start

    def __call__(self) -> float:
        """One probe: the median of ``repeats`` timed runs (thread
        hand-offs make a single multi-thread run noisy)."""
        elapsed = median([self._once() for _ in range(self.repeats)])
        self.times.append(elapsed)
        return elapsed

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between two probes, at reference speed."""
        return seconds * 2 * self.ref_s / (before + after)


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return float(ordered[rank - 1])


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
