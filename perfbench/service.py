"""The ``service-closed`` workload: a closed loop against ``repro serve``.

``CLIENTS`` client threads each submit one job, poll ``/status`` every
``POLL_S`` seconds until it is terminal, fetch ``/result`` and only then
submit the next.  A closed loop is used because it is steady: an open
loop below capacity delivers exactly the offered rate, so its throughput
can never move.

Untraced, the server is its own process (``python -m repro serve --port 0
--journal <tmp>``, default config).  Traced, it is hosted in this process
so the wrappers see its layers; that run first measures the job sequence
untraced, then replays the same sequence traced.
"""

from __future__ import annotations

import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

from common import PROCESSES, HostProbe, child_env, median, peak_rss_mb

TENANTS = ("t0", "t1", "t2")
CLIENTS = min(2, os.cpu_count() or 1)
N = 1024
KINDS = ("random", "hybrid")
POLL_S = 0.02
TERMINAL = ("done", "failed", "cancelled", "shed")
#: The loop pauses this often, once in-flight jobs finish, for a host
#: probe while the server is idle.
SLICE_S = 2.0
#: Median two-thread ``HostProbe`` seconds on the reference host.
PROBE_REF_S = 0.025
#: Length of the seeded job list; every process starts at its own offset.
JOBS = 240
#: Jobs at the head of each process's sequence whose modeled times are
#: summed into ``core.modeled_ms``.
EXACT_JOBS = 20
#: ``auto`` jobs run on random graphs only: two plans to tune in set-up.
AUTO_KINDS = ("random",)
#: The graphs jobs query, fixed like a service's popular datasets: a
#: per-seed choice of graphs moved job times more than host noise did.
GRAPH_SEEDS = (0, 1, 2, 3)


#: One block of the job mix: (algo, impl or variant, jobs, of which lossy).
#: CC:MST:BFS = 2:1:1, a tenth ``auto``, a quarter of the CC/MST jobs
#: with 5% message loss, and a slice of Liu-Tarjan variants.
BLOCK = (
    ("cc", "collective", 8, 2),
    ("cc", "lt-pf", 3, 1),
    ("cc", "lt-es", 3, 1),
    ("cc", "lt-ps", 3, 1),
    ("cc", "auto", 3, 0),
    ("mst", "collective", 9, 3),
    ("mst", "auto", 1, 0),
    ("bfs", "collective", 10, 0),
)


def job_list(seed: int) -> list:
    """The seeded job list: ``JOBS // 40`` shuffled blocks of ``BLOCK``,
    so any prefix has close to the same mix.  Graph kinds alternate
    within each entry of a block (``auto`` jobs use random graphs);
    tenant, graph seed (one of 4, so the graph cache hits), BFS source
    and fault seed are drawn per job; machine is 4x2."""
    rng = random.Random(seed)
    jobs = []
    for b in range(JOBS // 40):
        block = []
        for algo, impl, count, lossy in BLOCK:
            for i in range(count):
                job = {
                    "tenant": rng.choice(TENANTS), "algo": algo, "n": N,
                    "kind": KINDS[(i + b) % 2], "seed": rng.choice(GRAPH_SEEDS),
                    "machine": "4x2",
                }
                if impl == "auto":
                    job.update(kind=AUTO_KINDS[0], impl="auto", opts="auto")
                elif impl.startswith("lt-"):
                    job["variant"] = impl
                if algo == "bfs":
                    job["source"] = rng.randrange(N)
                if i < lossy:
                    job.update(loss=0.05, fault_seed=rng.randrange(1 << 16))
                block.append(job)
        rng.shuffle(block)
        jobs += block
    return jobs


def warmup_jobs() -> list:
    """One ``auto`` job per plan (the tuner probes) and one MST job per
    graph (fills the server's graph cache, weights included)."""
    jobs = [
        {"tenant": "warmup", "algo": algo, "n": N, "kind": kind, "seed": GRAPH_SEEDS[0],
         "machine": "4x2", "impl": "auto", "opts": "auto"}
        for algo in ("cc", "mst") for kind in AUTO_KINDS
    ]
    jobs += [
        {"tenant": "warmup", "algo": "mst", "n": N, "kind": kind, "seed": graph_seed,
         "machine": "4x2"}
        for kind in KINDS for graph_seed in GRAPH_SEEDS
    ]
    return jobs


class Client:
    """HTTP client of the service: one connection per request, like the
    repository's own load generator."""

    def __init__(self, host: str, port: int) -> None:
        self.base = f"http://{host}:{port}"

    def request(self, method: str, path: str, body=None):
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read() or b"{}"), resp.headers.get("Retry-After")
        except urllib.error.HTTPError as err:
            with err:
                return err.code, json.loads(err.read() or b"{}"), err.headers.get("Retry-After")

    def wait(self, job_id: str) -> list:
        """Poll ``/status`` every ``POLL_S`` until the job is terminal;
        returns the status bodies seen."""
        seen = []
        while True:
            _, body, _ = self.request("GET", f"/status/{job_id}")
            seen.append(body)
            if body.get("state") in TERMINAL:
                return seen
            time.sleep(POLL_S)

    def run_job(self, payload: dict) -> dict:
        """Submit, poll until terminal, fetch the result."""
        record = {"rejected": 0, "polls": 0}
        start = time.perf_counter()
        while True:
            sent = time.perf_counter()
            status, body, retry_after = self.request("POST", "/submit", payload)
            record["submit_rtt_s"] = time.perf_counter() - sent
            if status == 202:
                break
            if status in (429, 503):
                record["rejected"] += status == 429
                time.sleep(float(retry_after or 1))
                continue
            record.update(state=f"submit {status}", error=body.get("error"))
            return record
        job_id = record["job_id"] = body["job_id"]
        record["polls"] = len(self.wait(job_id))
        status, body, _ = self.request("GET", f"/result/{job_id}")
        record["latency_s"] = time.perf_counter() - start
        record["state"] = body.get("state")
        record["result"] = body.get("result")
        return record


def closed_loop(host: str, port: int, jobs: list, seconds: float) -> tuple:
    """Run ``jobs`` in order with ``CLIENTS`` closed-loop clients until
    ``seconds`` pass; jobs in flight then finish.  Returns (records in
    job order, elapsed seconds)."""
    lock = threading.Lock()
    cursor = iter(range(len(jobs)))
    records: dict = {}
    start = time.monotonic()
    stop_at = start + seconds
    finished = [start]

    def worker() -> None:
        client = Client(host, port)
        while time.monotonic() < stop_at:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                record = client.run_job(jobs[index])
            except (OSError, ValueError, KeyError) as err:
                record = {"state": f"client error {type(err).__name__}: {err}",
                          "rejected": 0, "polls": 0}
            with lock:
                records[index] = record
                finished.append(time.monotonic())

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [records[i] for i in sorted(records)], max(finished) - start


def measured_loop(host: str, port: int, jobs: list, seconds: float, probe) -> tuple:
    """``closed_loop`` in slices of ``SLICE_S`` with a host probe between
    slices; each slice's latencies get a ``scaled_latency_s``.  Returns
    (records in job order, elapsed, scaled elapsed)."""
    records: list = []
    elapsed = scaled_elapsed = 0.0
    before = probe()
    while elapsed < seconds and len(records) < len(jobs):
        part, part_s = closed_loop(host, port, jobs[len(records):], min(SLICE_S, seconds - elapsed))
        after = probe()
        for record in part:
            if "latency_s" in record:
                record["scaled_latency_s"] = probe.scale(record["latency_s"], before, after)
        records += part
        elapsed += part_s
        scaled_elapsed += probe.scale(part_s, before, after)
        before = after
    return records, elapsed, scaled_elapsed


def run_warmup(host: str, port: int) -> list:
    """Submit the warm-up jobs together and wait for all of them."""
    client = Client(host, port)
    ids = []
    for payload in warmup_jobs():
        status, body, _ = client.request("POST", "/submit", payload)
        if status != 202:
            return [f"warm-up job rejected with {status}: {body}"]
        ids.append(body["job_id"])
    errors = []
    for job_id in ids:
        body = client.wait(job_id)[-1]
        if body["state"] != "done":
            errors.append(f"warm-up job {job_id} ended {body['state']}: {body.get('error')}")
    return errors


def start_server(tmp, index: int):
    """Spawn ``repro serve`` on an ephemeral port; read the URL from its
    unbuffered banner, then wait for ``/healthz``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--journal", str(tmp / f"journal-{index}.jsonl")],
        stdout=subprocess.PIPE, text=True, env=child_env(tmp),
    )
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line)

    threading.Thread(target=pump, daemon=True).start()
    try:
        while True:
            line = lines.get(timeout=60)
            if "http://" in line:
                host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
                break
        client = Client(host, int(port))
        deadline = time.monotonic() + 30
        while True:
            try:
                if client.request("GET", "/healthz")[0] == 200:
                    break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
    except BaseException:
        stop_server(proc)
        raise
    return proc, host, int(port)


def stop_server(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def check_jobs(jobs: list, records: list) -> list:
    """Oracle check of every served answer; one error string per bad job."""
    import repro.graph as gen
    from oracle import GraphOracle

    builders = {"random": gen.random_graph, "hybrid": gen.hybrid_graph}
    oracles: dict = {}
    errors = []
    for payload, record in zip(jobs, records):
        name = f"job {record.get('job_id')} ({payload['algo']} {payload['kind']} s{payload['seed']})"
        result = record.get("result")
        if record["state"] != "done" or not result:
            errors.append(f"{name}: ended {record['state']}: {record.get('error')}")
            continue
        if result.get("verify", {}).get("status") != "verified":
            errors.append(f"{name}: result not verified: {result.get('verify')}")
            continue
        key = (payload["kind"], payload["seed"])
        if key not in oracles:  # the inputs the service generates for this spec
            graph = builders[payload["kind"]](N, 4 * N, seed=payload["seed"])
            oracles[key] = GraphOracle(gen.with_random_weights(graph, seed=payload["seed"] + 1))
        oracle = oracles[key]
        answer = result["answer"]
        if payload["algo"] == "cc":
            want = {"num_components": oracle.ncomp}
        elif payload["algo"] == "mst":
            weight, edges = oracle.msf()
            want = {"num_edges": edges, "total_weight": weight}
        else:
            reached, levels = oracle.bfs(payload["source"] % N)
            want = {"reached": reached, "levels": levels}
        if answer != want:
            errors.append(f"{name}: answer {answer} != oracle {want}")
    return errors


def _sequence(seed: int, index: int) -> list:
    """Process ``index``'s rotation of the job list."""
    jobs = job_list(seed)
    offset = index * len(jobs) // PROCESSES
    return jobs[offset:] + jobs[:offset]


def _summary(jobs, records, elapsed, scaled_elapsed) -> dict:
    """Done jobs, elapsed time, and per done job its algorithm (``lt``
    for Liu-Tarjan variants), edge count, scaled and raw latency."""
    done = [(job, r) for job, r in zip(jobs, records) if r["state"] == "done"]
    return {
        "done": len(done),
        "elapsed_s": scaled_elapsed,
        "raw_elapsed_s": elapsed,
        "jobs": [
            ["lt" if "variant" in job else job["algo"], 4 * job["n"],
             r["scaled_latency_s"], r["latency_s"]]
            for job, r in done
        ],
    }


def run(seed: int, seconds: float, trace: bool, t0: float, index: int, tmp) -> dict:
    jobs = _sequence(seed, index)
    if trace:
        return _run_traced(jobs, seconds, index, tmp)
    # Two threads, like the two busy workers of the server.
    host_probe = HostProbe(threads=CLIENTS, ref_s=PROBE_REF_S, repeats=5)
    first_probe = host_probe()
    proc, host, port = start_server(tmp, index)
    try:
        errors = run_warmup(host, port)
        setup_s = time.monotonic() - t0
        records, elapsed, scaled_elapsed = measured_loop(host, port, jobs, seconds, host_probe)
        rss = peak_rss_mb(proc.pid)
    finally:
        stop_server(proc)
    wrong = check_jobs(jobs, records)
    return {
        "setup_s": host_probe.scale(setup_s, first_probe, host_probe.times[1]),
        "raw_setup_s": setup_s,
        "probe_s": median(host_probe.times),
        "peak_rss_mb": rss,
        "attempted": len(records),
        "failed": len(wrong),
        "errors": (errors + wrong)[:20],
        "service": _summary(jobs, records, elapsed, scaled_elapsed),
    }


def _run_traced(jobs, seconds, index, tmp) -> dict:
    from repro.service import ServiceConfig, ServiceServer
    from tracer import Tracer, perf_counts

    tracer = Tracer()
    server = ServiceServer(ServiceConfig(
        port=0, journal_path=str(tmp / f"journal-traced-{index}.jsonl"),
    )).start_background()
    host, port = server.address
    try:
        errors = run_warmup(host, port)
        plain, plain_elapsed = closed_loop(host, port, jobs, seconds / 2)
        before = perf_counts()
        tracer.install()
        try:
            traced, traced_elapsed = closed_loop(host, port, jobs, seconds / 2)
        finally:
            tracer.uninstall()
        perf = perf_counts() - before
        by_id = dict(server.service.jobs)
    finally:
        server.stop()
    wrong = check_jobs(jobs, plain) + check_jobs(jobs, traced)
    solve = tracer.by_job("service.solve")
    done = [r for r in traced if r["state"] == "done"]
    timings = [by_id[r["job_id"]] for r in done]
    run_s = [j.finished_at - j.started_at for j in timings]
    solve_s = [solve.get(j.job_id, 0.0) for j in timings]
    # Exact figures come from the fixed head of the sequence, summed in
    # job order; a retried job counts its last (served) attempt.
    head = [r for r in traced[:EXACT_JOBS] if r.get("result")]
    counters = {s[5]: s[7] for s in tracer.spans if s[1] == "service.solve"}
    head_counters = [counters.get(r["job_id"], (0, 0)) for r in head]
    totals = tracer.totals()
    return {
        "attempted": len(plain) + len(traced),
        "failed": len(wrong),
        "errors": (errors + wrong)[:20],
        "trace": {
            "per": len(done),
            "totals": totals,
            "exact": {
                "core.modeled_ms": sum(r["result"]["modeled_ms"] for r in head),
                "runtime.messages": sum(c[0] for c in head_counters),
                "runtime.bytes": sum(c[1] for c in head_counters),
            },
            "service": {
                "submit_rtt_s": [r["submit_rtt_s"] for r in done],
                "queue_wait_s": [j.started_at - j.submitted_at for j in timings],
                "run_s": run_s,
                "solve_s": solve_s,
                "overhead_s": [r - s for r, s in zip(run_s, solve_s)],
                "attempts": [j.attempts for j in timings],
                "rejected_429": sum(r["rejected"] for r in traced),
                "polls": [r["polls"] for r in traced],
            },
            "perf": perf.tolist(),
            "setup": {},
            "overhead": [
                traced_elapsed / max(1, len(done)),
                plain_elapsed / max(1, len([r for r in plain if r["state"] == "done"])),
            ],
        },
        "tracer": tracer,
    }
