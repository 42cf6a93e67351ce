"""Benchmark entry point.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Runs one workload (``solve-large``, ``chaos-medium`` or ``service-closed``;
see ``perfbench/README.md``) in ``PROCESSES`` fresh worker processes one
after another, each measuring ``--seconds / PROCESSES``, and pools their
samples.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--trace-out
DIR`` keeps the traced run's spans (Chrome trace-event JSON, one file
per process).  Exits 1 when a worker fails and 2 when the package
source is missing; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
from common import (  # noqa: E402
    ALGS, BUILD, EXACT_COUNTERS, PROCESSES, ROOT, SRC, child_env, log, median, percentile,
)
from tracer import KERNEL_OPS  # noqa: E402

WORKLOADS = ("solve-large", "chaos-medium", "service-closed")
WORKER_TIMEOUT_S = 150
EXACT = (*EXACT_COUNTERS, "core.modeled_ms")


def run_worker(args, index: int, tmp: Path) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds / PROCESSES), "--trace", str(args.trace),
        "--index", str(index), "--t0", repr(time.monotonic()), "--tmp", str(tmp),
    ]
    # Its own session, so a timeout also stops the server a worker started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(tmp),
                            cwd=ROOT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {index} timed out after {WORKER_TIMEOUT_S}s")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def cli_import_s(tmp: Path, repeats: int = 5) -> float:
    """Median wall time of ``import repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=child_env(tmp), cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout)
        for _ in range(repeats)
    ]
    return median(times)


def end_to_end(workload: str, results: list, scaled: bool = True) -> dict:
    """End-to-end metrics; ``scaled=False`` gives the batch workloads'
    figures before host-speed scaling."""
    prefix = "" if scaled else "raw_"
    if workload == "service-closed":
        latency = 2 if scaled else 3
        jobs = [j for r in results for j in r["service"]["jobs"]]
        latencies = [j[latency] for j in jobs]
        done = sum(r["service"]["done"] for r in results)
        elapsed = sum(r["service"][prefix + "elapsed_s"] for r in results)
        by_alg = {
            alg: (sum(j[1] for j in jobs if j[0] == alg),
                  sum(j[latency] for j in jobs if j[0] == alg))
            for alg in ALGS
        }
    else:
        samples: dict = {}
        for r in results:
            for key, walls in r[prefix + "samples"].items():
                samples.setdefault(key, []).extend(walls)
        edges = results[0]["edges"]
        latencies = [w for walls in samples.values() for w in walls]
        done = sum(r["attempted"] - r["failed"] for r in results)
        elapsed = sum(latencies)
        # Per input, the median of its solves; summed over the inputs.
        by_alg = {
            alg: (
                sum(edges[k] for k in samples if k.endswith("/" + alg)),
                sum(median(w) for k, w in samples.items() if k.endswith("/" + alg)),
            )
            for alg in ALGS
        }
    metrics = {
        f"{alg}_edges_per_s": (by_alg[alg][0] / by_alg[alg][1] if by_alg[alg][1] else 0.0,
                               "edges/s")
        for alg in ALGS
    }
    metrics.update(
        jobs_done_per_s=(done / elapsed if elapsed else 0.0, "1/s"),
        job_p50_s=(percentile(latencies, 0.5), "s"),
        job_p90_s=(percentile(latencies, 0.9), "s"),
        setup_s=(median([r[prefix + "setup_s"] for r in results]), "s"),
        peak_rss_mb=(median([r["peak_rss_mb"] for r in results]), "MB"),
    )
    if scaled:
        log(f"{workload}: {len(latencies)} latency samples from {len(results)} processes")
    return metrics


def per_layer(workload: str, results: list, import_s: float) -> dict:
    traces = [r["trace"] for r in results]
    per = sum(t["per"] for t in traces) or 1
    totals: dict = {}
    for t in traces:
        for name, row in t["totals"].items():
            acc = totals.setdefault(name, [0.0, 0, 0])
            for i in range(3):
                acc[i] += row[i]

    def self_s(name):
        return totals.get(name, [0.0, 0, 0])[0] / per

    def calls(name):
        return totals.get(name, [0.0, 0, 0])[1] / per

    def amount(name):
        return totals.get(name, [0.0, 0, 0])[2] / per

    m = {}
    for op in KERNEL_OPS:
        m[f"kernels.{op}_s"] = (self_s(f"kernels.{op}"), "s")
        m[f"kernels.{op}_calls"] = (calls(f"kernels.{op}"), "count")
    m["kernels.group_minima_elems"] = (amount("kernels.group_minima"), "count")
    for name in ("charge", "barrier"):
        m[f"runtime.{name}_s"] = (self_s(f"runtime.{name}"), "s")
        m[f"runtime.{name}_calls"] = (calls(f"runtime.{name}"), "count")
    m["runtime.shared_array_s"] = (self_s("runtime.shared_array"), "s")
    m["runtime.shared_array_elems"] = (amount("runtime.shared_array"), "count")
    m["runtime.partitioned_filter_s"] = (self_s("runtime.partitioned_filter"), "s")
    for name in ("getd", "setd", "setdmin"):
        m[f"collectives.{name}_s"] = (self_s(f"collectives.{name}"), "s")
        m[f"collectives.{name}_calls"] = (calls(f"collectives.{name}"), "count")
        m[f"collectives.{name}_requests"] = (amount(f"collectives.{name}"), "count")
    m["faults.sample_retries_s"] = (self_s("faults.sample_retries"), "s")
    m["faults.checkpoint_s"] = (self_s("faults.checkpoint"), "s")
    m["integrity.on_barrier_s"] = (self_s("integrity.on_barrier"), "s")
    m["integrity.on_barrier_calls"] = (calls("integrity.on_barrier"), "count")
    m["integrity.verify_round_s"] = (self_s("integrity.verify_round"), "s")
    m["resilience.commit_round_s"] = (self_s("resilience.commit_round"), "s")
    m["resilience.recover_s"] = (self_s("resilience.recover"), "s")

    # Exact counts: per round for the batch workloads (every process runs
    # the same inputs, so they must agree), per fixed job-sequence head
    # for the service (every process has its own head, so they add up).
    exacts = [t["exact"] for t in traces]
    if workload == "service-closed":
        exact = {k: sum(e.get(k, 0) for e in exacts) for k in EXACT}
    else:
        exact = {k: exacts[0].get(k, 0) for k in EXACT}
        if any(e != exacts[0] for e in exacts):
            raise RuntimeError("exact per-round counts differ between processes")
    for name in EXACT:
        m[name] = (exact[name], "ms" if name == "core.modeled_ms" else "count")
    injected = exact["integrity.corruptions_injected"]
    m["integrity.detected_ratio"] = (
        exact["integrity.corruptions_detected"] / injected if injected else 1.0, "ratio")

    perf = [sum(t["perf"][i] for t in traces) for i in range(4)]
    m["perf.arena_hit_ratio"] = (perf[1] / perf[0] if perf[0] else 0.0, "ratio")
    m["perf.derived_cache_hit_ratio"] = (
        perf[2] / (perf[2] + perf[3]) if perf[2] + perf[3] else 0.0, "ratio")

    if workload == "service-closed":
        m["graph.generate_s"] = (self_s("graph.generate"), "s")
        m["graph.generate_calls"] = (calls("graph.generate"), "count")
    else:  # generated once per process, in set-up
        m["graph.generate_s"] = (median([t["setup"]["graph.generate_s"] for t in traces]), "s")
        m["graph.generate_calls"] = (
            median([t["setup"]["graph.generate_calls"] for t in traces]), "count")
    m["tuning.plan_lookup_s"] = (self_s("tuning.plan_lookup"), "s")
    m["tuning.autotune_s"] = (self_s("tuning.autotune"), "s")
    lookups = totals.get("tuning.plan_lookup", [0.0, 0, 0])
    m["tuning.cache_hit_ratio"] = (lookups[2] / lookups[1] if lookups[1] else 0.0, "ratio")

    service: dict = {}
    for t in traces:
        for key, values in t["service"].items():
            if isinstance(values, list):
                service.setdefault(key, []).extend(values)
            else:
                service[key] = service.get(key, 0) + values
    for key in ("submit_rtt_s", "queue_wait_s", "run_s", "solve_s", "overhead_s"):
        m[f"service.{key}"] = (median(service.get(key, [])), "s")
    attempts, polls = service.get("attempts", []), service.get("polls", [])
    m["service.attempts_per_job"] = (sum(attempts) / len(attempts) if attempts else 0.0, "count")
    m["service.rejected_429"] = (service.get("rejected_429", 0), "count")
    m["service.polls_per_job"] = (sum(polls) / len(polls) if polls else 0.0, "count")

    m["cli.import_s"] = (import_s, "s")
    traced = sum(t["overhead"][0] for t in traces)
    untraced = sum(t["overhead"][1] for t in traces)
    m["bench.trace_overhead"] = (traced / untraced if untraced else 0.0, "ratio")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="directory that receives the traced run's span files")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: package source not found under {SRC}")
        return 2
    BUILD.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=BUILD))
    try:
        import_s = cli_import_s(tmp) if args.trace else 0.0
        results = [run_worker(args, i, tmp) for i in range(PROCESSES)]
        if args.trace:
            metrics = per_layer(args.workload, results, import_s)
            if args.trace_out is not None:
                args.trace_out.mkdir(parents=True, exist_ok=True)
                for spans in sorted(tmp.glob("spans-*.json")):
                    shutil.copy(spans, args.trace_out / f"{args.workload}-{spans.name}")
        else:
            metrics = end_to_end(args.workload, results)
            unscaled = end_to_end(args.workload, results, scaled=False)
            log("unscaled wall: " + ", ".join(
                f"{k} {v[0]:.6g}" for k, v in unscaled.items() if k.endswith(("_s", "per_s"))))
            log(f"median host probe: {median([r['probe_s'] for r in results]):.6f} s")
    except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as err:
        log(f"error: {err}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    errors = [e for r in results for e in r["errors"]]
    for line in errors:
        log(f"check failed: {line}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
