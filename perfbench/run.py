"""Serving-ledger benchmark of the Cheetah reproduction.

One workload, untraced (end-to-end metrics)::

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0

The same workload traced (per-layer metrics; the untraced run is
repeated first as the overhead baseline)::

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 1

All four workloads at one seed, with a summary table and the
kernel-to-serving gap; exits non-zero if any correctness check fails::

    python3 perfbench/run.py --all --seed 1

Run from the root of a checkout: the program is imported from its
``src`` directory, scratch files go to ``.perfbench/``.  Times are
scaled to a reference host speed (``workloads.HostSpeed``) and the
unscaled figures are printed beside them.  The last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Metric names, units and directions are the
ones ``BENCHMARK.json`` declares; ``perfbench/ledger.json`` maps each
layer to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import layers
import workloads
from workloads import NAMES, ROOT, WORKDIR, HostSpeed, clock

HERE = os.path.dirname(os.path.abspath(__file__))

#: Timed repetitions an in-process run makes at least, after one
#: untimed warm-up repetition.
MIN_REPS = 5
#: Server start-ups per socket run (``setup_s`` is their median).
SOCKET_SETUPS = 3
#: Unmeasured warm-up queries per connection: one pass over the mix.
SOCKET_WARMUP = 4
#: Bursts on each side of a query that scale its latency.
SOCKET_WINDOW = 10
#: Queries per connection in the traced socket session.
SOCKET_TRACED = 40
#: A traced run must attribute at least this share of its wall time
#: to program layers.  The rest is the benchmark's own code: on
#: prune_stream, slicing the streams into batches and collecting the
#: decisions take up to a tenth of the run.
ATTRIBUTION_FLOOR = 0.85


def declared() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set in MB (Linux reports KiB), plus the largest
    reaped child's when ``children``."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def host() -> Dict:
    """nproc, Python and numpy versions, and the commit when the
    checkout is a git work tree."""
    import numpy

    commit = "unknown"
    path = os.path.join(ROOT, ".git", "HEAD")
    while os.path.isfile(path):
        with open(path) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            commit = ref
            break
        path = os.path.join(ROOT, ".git", ref[5:])
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit[:12]}


class Run:
    """What one run attempted, what failed, and failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: List[str] = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed

    def fail(self, message: str) -> None:
        self.checks.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.checks


# -- untraced measurement ----------------------------------------------------

def measure_in_process(name: str, seed: int, seconds: float,
                       run: Run) -> Tuple[Dict, Dict]:
    """Repeat set-up, timed run and verification until ``seconds`` of
    timed runs (and at least ``MIN_REPS``) are collected, cycling
    through the workload's data sets.  Times are scaled to the
    reference host speed of each repetition.  Returns the end-to-end
    metrics and notes for the report."""
    workload = workloads.in_process(name)
    data_seeds = workloads.data_seeds(workload, seed)
    speed = HostSpeed()
    setups: List[float] = []
    rates: List[float] = []
    query_rates: List[float] = []
    raw: List[float] = []
    latencies: List[float] = []
    #: data seed -> its first repetition's counts (and scaled walls)
    counts: Dict[int, Dict] = {}
    walls: Dict[int, List[float]] = {data: [] for data in data_seeds}
    timed = 0.0
    rep = 0
    while len(rates) < MIN_REPS or timed < seconds:
        data = data_seeds[rep % len(data_seeds)]
        start = clock()
        state = workload.setup(data)
        setup = clock() - start
        mark = speed.mark()
        wall, done = workload.run(state, speed.burst)
        scale = speed.scale(mark)
        outcome = workload.verify(state)
        del state
        run.add(outcome)
        first = counts.setdefault(data, outcome.counts)
        if outcome.counts != first:
            run.fail(f"repetition {rep} counts {outcome.counts} differ "
                     f"from those of data seed {data}: {first}")
        if rep:
            entries = outcome.counts["entries"]
            setups.append(setup * scale)
            rates.append(entries / (wall * scale))
            query_rates.append(len(done) / (wall * scale))
            raw.append(entries / wall)
            walls[data].append(wall * scale)
            latencies += [latency * scale for latency in done]
            timed += wall
        rep += 1
    metrics = {
        "setup_s": statistics.median(setups),
        "entries_per_s": statistics.median(rates),
        "queries_per_s": statistics.median(query_rates),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "forwarded_fraction": (
            sum(c["delivered"] for c in counts.values())
            / sum(c["entries"] for c in counts.values())),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "run_s": statistics.median(walls[data_seeds[0]]),
        "host_speed": statistics.median(
            HostSpeed.REFERENCE_S / burst for burst in speed.bursts),
        "unscaled_entries_per_s": statistics.median(raw),
        "counts": counts,
    }
    return metrics, notes


async def _socket_session(seed: int, seconds: float,
                          run: Run) -> Tuple[Dict, Dict]:
    sock = workloads.SocketWorkload()
    speed = workloads.HostSpeed()
    argv = [sys.executable, "-m", "repro"] + sock.server_args(
        seed, max_queries=1_000_000)
    setups: List[float] = []
    proc = clients = None
    try:
        for attempt in range(SOCKET_SETUPS):
            start = clock()
            proc, port = sock.spawn(argv, f"{seed}-{attempt}")
            clients = await sock.connect(port)
            setups.append((clock() - start) * speed.measure())
            if attempt + 1 < SOCKET_SETUPS:
                for client in clients:
                    await client.close()
                workloads.stop(proc)
        _, warm = await sock.closed_loop(clients, seed, 0,
                                         count=SOCKET_WARMUP)
        mark = speed.mark()
        wall, samples = await sock.closed_loop(
            clients, seed, SOCKET_WARMUP, seconds=seconds,
            pause=speed.burst)
        scale = speed.scale(mark)
        for client in clients:
            await client.close()
    finally:
        if proc is not None:
            workloads.stop(proc)
    outcome = sock.verify(warm + samples)
    run.add(outcome)
    # Each query's latency is scaled by the bursts taken around it: the
    # pause after each result appends exactly one burst.
    bursts = speed.bursts[mark:]
    latencies = [
        sample[0] * HostSpeed.REFERENCE_S / statistics.median(
            bursts[max(0, index - SOCKET_WINDOW):index + SOCKET_WINDOW + 1])
        for index, sample in enumerate(samples)]
    entries = sum(sample[3]["entries"] for sample in samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "entries_per_s": entries / (wall * scale),
        "queries_per_s": len(samples) / (wall * scale),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "forwarded_fraction": (outcome.counts["delivered"]
                               / outcome.counts["entries"]),
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    notes = {
        "run_s": statistics.median(latencies),
        "host_speed": scale,
        "unscaled_entries_per_s": entries / wall,
        "queries": len(samples),
    }
    # The tail is reported only where at least ten samples lie beyond it.
    if len(latencies) * 0.05 >= 10:
        notes["query_p95_ms"] = percentile(latencies, 0.95) * 1e3
    return metrics, notes


def measure_socket(seed: int, seconds: float,
                   run: Run) -> Tuple[Dict, Dict]:
    return asyncio.run(_socket_session(seed, seconds, run))


# -- traced measurement ------------------------------------------------------

def _child(args: List[str], out: str) -> Dict:
    subprocess.run([sys.executable, os.path.join(HERE, "traced.py")]
                   + args + [out], check=True, cwd=ROOT,
                   stdin=subprocess.DEVNULL, timeout=170)
    with open(out + ".json") as handle:
        return json.load(handle)


def traced_in_process(name: str, seed: int, seconds: float,
                      run: Run) -> Dict:
    """Untraced baseline, then two traced child processes at the same
    seed whose counts must agree exactly."""
    _, base = measure_in_process(name, seed, seconds, run)
    results = [_child([name, str(seed)],
                      os.path.join(WORKDIR, f"{name}-{seed}-{k}"))
               for k in range(2)]
    first = results[0]
    for result in results:
        run.attempted += result["attempted"]
        run.failed += result["failed"]
    deterministic = all(
        result["outcome"] == first["outcome"]
        and result["summary"]["counts"] == first["summary"]["counts"]
        and result["summary"]["calls"] == first["summary"]["calls"]
        for result in results[1:])
    if not deterministic:
        run.fail("two traced runs at one seed gave different counts")
    summary = first["summary"]
    wall = summary["root_s"]
    metrics = layers.layer_metrics(summary, wall)
    metrics["trace.overhead_ratio"] = (first["run_s"] * first["scale"]
                                       / base["run_s"])
    metrics["trace.deterministic"] = 1.0 if deterministic else 0.0
    counts = first["outcome"]
    metrics["scheduler.makespan_ticks"] = counts.get("makespan_ticks", 0)
    return _finish_traced(name, metrics, summary, first["trace"])


def traced_socket(seed: int, seconds: float, run: Run) -> Dict:
    """Untraced baseline, then one traced server session of
    ``SOCKET_TRACED`` queries per connection."""
    _, base = measure_socket(seed, seconds, run)
    sock = workloads.SocketWorkload()
    out = os.path.join(WORKDIR, f"socket_closed-{seed}")
    total = sock.connections * SOCKET_TRACED
    argv = ([sys.executable, os.path.join(HERE, "traced.py"), "--serve",
             out] + sock.server_args(seed, max_queries=total))

    speed = HostSpeed()
    scale = [1.0]

    async def session():
        proc = None
        try:
            proc, port = sock.spawn(argv, f"{seed}-traced")
            clients = await sock.connect(port)
            _, warm = await sock.closed_loop(clients, seed, 0,
                                             count=SOCKET_WARMUP)
            mark = speed.mark()
            _, samples = await sock.closed_loop(
                clients, seed, SOCKET_WARMUP,
                count=SOCKET_TRACED - SOCKET_WARMUP, pause=speed.burst)
            scale[0] = speed.scale(mark)
            for client in clients:
                await client.close()
            proc.wait(timeout=60)
        finally:
            if proc is not None:
                workloads.stop(proc)
        return warm, samples

    warm, samples = asyncio.run(session())
    run.add(sock.verify(warm + samples))
    with open(out + ".json") as handle:
        result = json.load(handle)
    summary = result["summary"]
    metrics = layers.layer_metrics(summary, summary["root_s"])
    metrics["trace.overhead_ratio"] = (
        statistics.median(sample[0] for sample in samples) * scale[0]
        / base["run_s"])
    metrics["trace.deterministic"] = 1.0
    metrics["scheduler.makespan_ticks"] = 0
    return _finish_traced("socket_closed", metrics, summary,
                          result["trace"])


def _finish_traced(name: str, metrics: Dict, summary: Dict,
                   trace_path: str) -> Dict:
    problems = layers.coverage(name, summary)
    metrics["trace.coverage_ok"] = 0.0 if problems else 1.0
    attributed = metrics["trace.attributed_fraction"]
    metrics["trace.attribution_ok"] = (
        1.0 if attributed >= ATTRIBUTION_FLOOR else 0.0)
    print(f"trace file: {os.path.relpath(trace_path, ROOT)} "
          f"({summary['spans']} spans)")
    print("coverage check: "
          + (f"FAIL: {'; '.join(problems)}" if problems else "PASS"))
    print(f"attribution check: {attributed:.3f} of traced wall time in "
          f"layer self times (floor {ATTRIBUTION_FLOOR}): "
          f"{'PASS' if attributed >= ATTRIBUTION_FLOOR else 'FAIL'}")
    return metrics


# -- reporting ---------------------------------------------------------------

def emit(run: Run, metrics: Dict, names: List[Dict]) -> None:
    """Print each declared metric with its unit, then the JSON line."""
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"benchmark bug: no value for {missing}")
    for message in run.checks:
        print(f"check failed: {message}")
    for metric in names:
        print(f"{metric['name']:36s} {metrics[metric['name']]:>16.6g} "
              f"{metric['unit']}")
    print(f"{'failed_fraction':36s} "
          f"{run.failed / max(1, run.attempted):>16.6g} ratio")
    print(json.dumps({
        "correct": run.correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in names},
    }))


def one(args) -> int:
    workloads.import_repro()
    os.makedirs(WORKDIR, exist_ok=True)
    spec = declared()
    run = Run()
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in host().items()))
    if args.trace:
        if args.workload == "socket_closed":
            metrics = traced_socket(args.seed, args.seconds, run)
        else:
            metrics = traced_in_process(args.workload, args.seed,
                                        args.seconds, run)
        emit(run, metrics, spec["per_layer"])
        return 0
    if args.workload == "socket_closed":
        metrics, notes = measure_socket(args.seed, args.seconds, run)
        tail = notes.get("query_p95_ms")
        print(f"queries measured: {notes['queries']}; query_p95_ms: "
              + (f"{tail:.6g}" if tail is not None
                 else "not reported (fewer than 10 samples beyond it)"))
    else:
        metrics, notes = measure_in_process(args.workload, args.seed,
                                            args.seconds, run)
        for data, counts in notes["counts"].items():
            print(f"data seed {data}: {counts}")
            if "makespan_ticks" in counts:
                print(f"  makespan_ticks: {counts['makespan_ticks']}; "
                      f"wire_packets_per_entry: "
                      f"{counts['packets'] / counts['entries']:.6g}")
    print(f"host speed: {notes['host_speed']:.4g} x reference; "
          f"unscaled entries_per_s: {notes['unscaled_entries_per_s']:.6g}")
    emit(run, metrics, spec["end_to_end"])
    return 0


def every(args) -> int:
    """Run each workload in its own process and tabulate."""
    spec = declared()
    key = "per_layer" if args.trace else "end_to_end"
    results: Dict[str, Optional[Dict]] = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
            stdin=subprocess.DEVNULL)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = None
        if proc.returncode == 0 and lines:
            try:
                results[name] = json.loads(lines[-1])
                lines.pop()
            except json.JSONDecodeError:
                pass
        print("\n".join(lines))
    print()
    print(f"{'metric':36s} " + " ".join(f"{n:>14s}" for n in NAMES)
          + "  unit")
    for metric in spec[key]:
        cells = []
        for name in NAMES:
            value = (results[name] or {}).get("metrics", {}).get(
                metric["name"], {}).get("value")
            cells.append(f"{value:>14.6g}" if value is not None
                         else f"{'-':>14s}")
        print(f"{metric['name']:36s} " + " ".join(cells)
              + f"  {metric['unit']}")
    cells = []
    for name in NAMES:
        result = results[name]
        cells.append(f"{result['failed'] / result['attempted']:>14.6g}"
                     if result else f"{'error':>14s}")
    print(f"{'failed_fraction':36s} " + " ".join(cells) + "  ratio")
    if not args.trace and results["serve_mix"] and results["prune_stream"]:
        gap = (results["prune_stream"]["metrics"]["entries_per_s"]["value"]
               / results["serve_mix"]["metrics"]["entries_per_s"]["value"])
        print(f"{'runtime.kernel_gap':36s} {gap:>14.6g}  "
              "prune_stream.entries_per_s / serve_mix.entries_per_s")
    ok = all(result and result["correct"] for result in results.values())
    print("all workloads correct" if ok else "CORRECTNESS CHECK FAILED")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return every(args)
    try:
        return one(args)
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
