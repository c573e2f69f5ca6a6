"""The four workloads.  Each builds its inputs from the seed alone and
drives the program through a public entry point:

* ``serve_mix`` / ``serve_lossy``: ``repro.cluster.scheduler.ServingLoop``
  in this process;
* ``socket_closed``: ``python -m repro serve --listen`` in a child
  process, driven over TCP by ``repro.serving.client``;
* ``prune_stream``: ``repro.cluster.runtime.make_sharded(...).offer_batch``
  over the Figure 11 pruner streams.

An in-process workload is a ``setup`` / ``run`` / ``verify`` triple;
only ``run`` is inside the timed region.
"""

from __future__ import annotations

import ast
import asyncio
import collections
import dataclasses
import hashlib
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: The checkout the benchmark runs in, and its scratch directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench")

TENANTS = 8

#: Work between two calibration bursts inside a timed region.
SLICE_S = 0.05


class HostSpeed:
    """Scales timings to a reference host speed.

    On a shared host the CPU's speed can drift by tens of percent
    within a minute.  A timed region therefore pauses every ``SLICE_S``
    for a calibration burst, a fixed pure-Python integer loop, outside
    the region's own time.  ``scale`` turns the region's measured
    seconds into seconds on a host where one burst takes
    ``REFERENCE_S``: measured seconds x REFERENCE_S / median burst.
    """

    ITERATIONS = 20_000
    REFERENCE_S = 1.0e-3

    def __init__(self) -> None:
        self.bursts: List[float] = []

    def burst(self) -> None:
        start = clock()
        total = 0
        for value in range(self.ITERATIONS):
            total += value * value
        self.bursts.append(clock() - start)

    def mark(self) -> int:
        return len(self.bursts)

    def measure(self, bursts: int = 20) -> float:
        """``scale`` from ``bursts`` fresh bursts."""
        since = self.mark()
        for _ in range(bursts):
            self.burst()
        return self.scale(since)

    def scale(self, since: int = 0) -> float:
        """Reference seconds per measured second, from the bursts
        taken after ``mark()`` returned ``since``."""
        if len(self.bursts) <= since:
            self.burst()
        return self.REFERENCE_S / statistics.median(self.bursts[since:])


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else;
    raises ImportError when the checkout has no program."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise ImportError(f"no repro package under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


@dataclasses.dataclass
class Outcome:
    """What ``verify`` found, plus the deterministic counts that two
    runs at one seed must reproduce exactly."""

    attempted: int
    failed: int
    counts: Dict[str, object]


def data_seeds(workload, seed: int) -> List[int]:
    """The data sets one run cycles through: a run's medians then
    average over several inputs, not one input's makespan."""
    return [seed * workload.datasets + k for k in range(workload.datasets)]


class ServeWorkload:
    """Eight tenants cycling ``DEFAULT_TENANT_MIX``, all arriving at
    tick 0, served to completion by one ``ServingLoop``."""

    datasets = 4

    def __init__(self, rows: int, shards: int, loss: float, reorder: int,
                 congestion: str = "fixed",
                 queue_capacity: Optional[int] = None):
        self.rows = rows
        self.shards = shards
        self.loss = loss
        self.reorder = reorder
        self.congestion = congestion
        self.queue_capacity = queue_capacity

    def setup(self, seed: int):
        from repro.cluster import scheduler

        config = scheduler.SchedulerConfig(
            slots=TENANTS, loss_rate=self.loss,
            reorder_window=self.reorder, shards=self.shards, seed=seed,
            congestion=self.congestion,
            queue_capacity=self.queue_capacity)
        loop = scheduler.ServingLoop(config)
        for spec in scheduler.tenant_specs(TENANTS, rows=self.rows,
                                           seed=seed):
            loop.submit(spec)
        return loop

    def run(self, loop, pause) -> Tuple[float, List[float]]:
        """Serve until idle: (seconds, per-query completion seconds, all
        queries having arrived at the start).  ``pause()`` runs between
        slices of work, outside the measured time."""
        done: List[float] = []
        elapsed = 0.0
        start = clock()
        while loop.has_work:
            finished = loop.run_tick()
            now = clock()
            if finished:
                done += [elapsed + now - start] * len(finished)
            if now - start >= SLICE_S:
                elapsed += now - start
                pause()
                start = clock()
        return elapsed + clock() - start, done

    def verify(self, loop) -> Outcome:
        report = loop.report(check=True)
        passes = [p for tenant in report.tenants for p in tenant.passes]
        served = sum(1 for tenant in report.tenants
                     if tenant.status == "served" and tenant.equivalent)
        return Outcome(
            attempted=TENANTS, failed=TENANTS - served,
            counts={
                "entries": report.entries,
                "delivered": report.delivered,
                "makespan_ticks": report.ticks,
                "packets": sum(p.packets_sent for p in passes),
                "retransmissions": sum(p.retransmissions for p in passes),
                "pruned": sum(p.switch_pruned for p in passes),
                "passes": len(passes),
            })


@dataclasses.dataclass
class PruneCase:
    name: str
    factory: Callable[[], object]
    stream: list
    query_type: Optional[str] = None
    two_pass: bool = False


def prune_cases(rows: int, seed: int) -> List[PruneCase]:
    """The six Figure 11 pruner configurations on their seeded
    streams (the same shapes ``repro bench fig11`` builds)."""
    from repro.core import (
        DistinctPruner,
        GroupByPruner,
        HavingPruner,
        JoinPruner,
        SkylinePruner,
        TopNRandomized,
    )
    from repro.core.join import JoinSide
    from repro.workloads import streams

    keyed = streams.keyed_value_stream(rows, max(1, rows // 40), seed=seed)
    left, right = streams.join_key_streams(rows // 2, rows // 2,
                                           overlap=0.25,
                                           key_space=1 << 22, seed=seed)
    joined = []
    for left_key, right_key in zip(left, right):
        joined.append((JoinSide.A, left_key))
        joined.append((JoinSide.B, right_key))
    mass = sum(value for _, value in keyed)
    return [
        PruneCase("distinct",
                  lambda: DistinctPruner(rows=4096, width=2, seed=seed),
                  streams.random_order_stream(rows, max(1, rows // 10),
                                              seed)),
        PruneCase("skyline", lambda: SkylinePruner(dimensions=2, width=8),
                  streams.random_points(max(1, rows // 3), dimensions=2,
                                        seed=seed)),
        PruneCase("topn_rand",
                  lambda: TopNRandomized(n=250, rows=4096, width=8,
                                         seed=seed),
                  streams.value_stream(rows, seed=seed)),
        PruneCase("groupby",
                  lambda: GroupByPruner(rows=4096, width=6, seed=seed),
                  keyed, query_type="groupby"),
        PruneCase("having",
                  lambda: HavingPruner(threshold=mass * 0.002, width=128,
                                       depth=3, seed=seed),
                  keyed, query_type="having"),
        PruneCase("join",
                  lambda: JoinPruner(size_bits=256 * 1024 * 8, hashes=3,
                                     seed=seed),
                  joined, query_type="join", two_pass=True),
    ]


class PruneWorkload:
    """The fig11 streams through serial 4-shard ``offer_batch`` at a
    large batch; each case counts as one query."""

    shards = 4
    batch = 8192
    #: Pruning rates barely move between seeds; one data set keeps the
    #: per-entry reference check to one per run.
    datasets = 1

    def __init__(self, rows: int):
        self.rows = rows
        self._reference: Dict[int, Dict[str, bytes]] = {}

    def _sharded(self, case: PruneCase, seed: int):
        from repro.cluster import runtime

        return runtime.make_sharded(case.factory, self.shards,
                                    case.query_type, seed=seed)

    def setup(self, seed: int):
        cases = prune_cases(self.rows, seed)
        return seed, [(case, self._sharded(case, seed)) for case in cases], {}

    def run(self, state, pause) -> Tuple[float, List[float]]:
        """Every case's stream: (seconds, per-case seconds).
        ``pause()`` runs between batches, outside the measured time."""
        _seed, cases, decisions = state
        batch = self.batch
        times: List[float] = []
        for case, pruner in cases:
            elapsed = 0.0
            out: List[bool] = []
            start = clock()
            for index in range(2 if case.two_pass else 1):
                if index:
                    pruner.start_second_pass()
                stream = case.stream
                for at in range(0, len(stream), batch):
                    out += pruner.offer_batch(stream[at:at + batch])
                    now = clock()
                    if now - start >= SLICE_S:
                        elapsed += now - start
                        pause()
                        start = clock()
            decisions[case.name] = out
            times.append(elapsed + clock() - start)
        return sum(times), times

    def reference(self, seed: int) -> Dict[str, bytes]:
        """Per-entry ``offer`` decisions on fresh pruners: the
        reference every batched run must reproduce exactly."""
        if seed not in self._reference:
            digests = {}
            for case in prune_cases(self.rows, seed):
                pruner = self._sharded(case, seed)
                out = [pruner.offer(entry) for entry in case.stream]
                if case.two_pass:
                    pruner.start_second_pass()
                    out += [pruner.offer(entry) for entry in case.stream]
                digests[case.name] = bytes(bytearray(out))
            self._reference[seed] = digests
        return self._reference[seed]

    def verify(self, state) -> Outcome:
        seed, cases, decisions = state
        reference = self.reference(seed)
        attempted = failed = pruned = 0
        digest = hashlib.sha256()
        for case, _pruner in cases:
            got = bytes(bytearray(decisions.get(case.name, [])))
            want = reference[case.name]
            attempted += len(want)
            if got != want:
                failed += sum(1 for a, b in zip(got, want) if a != b)
                failed += abs(len(want) - len(got))
            pruned += sum(got)
            digest.update(got)
        return Outcome(attempted=attempted, failed=failed, counts={
            "entries": attempted, "delivered": attempted - pruned,
            "pruned": pruned,
            "decisions_sha256": digest.hexdigest()})


class SocketWorkload:
    """``repro serve --listen`` in a child process, two connections each
    running a closed ``submit`` -> ``result`` loop over the scenario
    mix.  Queries cycle through ``pool`` data seeds per scenario."""

    rows = 400
    connections = 2
    pool = 4

    def server_args(self, seed: int, max_queries: int) -> List[str]:
        return ["serve", "--listen", "127.0.0.1:0",
                "--max-queries", str(max_queries), "--slots", "8",
                "--loss", "0.01", "--shards", "2", "--seed", str(seed)]

    def spawn(self, argv: List[str], tag: str):
        """Start a server child; returns (process, port)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        out_path = os.path.join(WORKDIR, f"server-{tag}.out")
        with open(out_path, "w") as out:
            proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                    stdout=out, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL,
                                    preexec_fn=_default_sigint)
        deadline = time.monotonic() + 120
        while True:
            with open(out_path) as handle:
                text = handle.read()
            marker = text.find("listening on ")
            if marker >= 0 and "\n" in text[marker:]:
                address = text[marker:].split()[2]
                return proc, int(address.rsplit(":", 1)[1])
            if proc.poll() is not None or time.monotonic() > deadline:
                stop(proc)
                raise RuntimeError(f"server did not start:\n{text}")
            time.sleep(0.005)

    def queries(self, seed: int, connection: int, index: int):
        """(tenant, scenario, data seed) of one connection's query."""
        from repro.cluster.scheduler import DEFAULT_TENANT_MIX

        mix = DEFAULT_TENANT_MIX
        number = index * self.connections + connection
        scenario = mix[number % len(mix)]
        data_seed = seed * 100 + (number // len(mix)) % self.pool
        return f"c{connection}-q{index}", scenario, data_seed

    async def connect(self, port: int):
        from repro.serving.client import AsyncReproClient

        return [await AsyncReproClient.connect("127.0.0.1", port,
                                               client=f"perfbench-{c}")
                for c in range(self.connections)]

    async def closed_loop(self, clients, seed: int, first: int,
                          seconds: Optional[float] = None,
                          count: Optional[int] = None, pause=None):
        """Every connection submits its queries ``first``,
        ``first + 1``, ... one at a time, each after the previous
        result, until ``seconds`` have passed or it has sent ``count``.
        ``pause()`` runs after each result, before the next submit.
        Returns the wall seconds and the samples
        (latency, scenario, data seed, reply)."""
        samples: List[tuple] = []
        deadline = None if seconds is None else clock() + seconds
        pause = pause or (lambda: None)

        async def loop(connection: int, client) -> None:
            index = first
            while ((count is None or index < first + count)
                   and (deadline is None or clock() < deadline)):
                tenant, scenario, data_seed = self.queries(
                    seed, connection, index)
                began = clock()
                reply = await client.run(scenario, tenant=tenant,
                                         rows=self.rows, seed=data_seed)
                samples.append((clock() - began, scenario, data_seed,
                                reply))
                pause()
                index += 1

        start = clock()
        await asyncio.gather(*(loop(c, client)
                               for c, client in enumerate(clients)))
        return clock() - start, samples

    def verify(self, samples) -> Outcome:
        """Every reply served, verified by the server against its
        ``QueryPlan.run`` and equal to the reference computed here."""
        from repro.cluster.simulation import build_scenario
        from repro.db.planner import QueryPlanner

        references: Dict[tuple, object] = {}
        failed = 0
        for _latency, scenario, data_seed, reply in samples:
            key = (scenario, data_seed)
            if key not in references:
                query, tables = build_scenario(scenario, rows=self.rows,
                                               seed=data_seed)
                result = QueryPlanner().plan(query).run(tables).result
                references[key] = result.output
            try:
                output = parse_output(reply.get("output_repr") or "")
            except (SyntaxError, ValueError):
                output = None
            if (reply.get("status") != "served"
                    or reply.get("equivalent") is not True
                    or output != references[key]):
                failed += 1
        entries = sum(reply["entries"] for *_, reply in samples)
        delivered = sum(reply["delivered"] for *_, reply in samples)
        return Outcome(attempted=len(samples), failed=failed,
                       counts={"entries": entries,
                               "delivered": delivered})


_CONSTRUCTORS = {"Counter": collections.Counter, "frozenset": frozenset,
                 "set": set}


def parse_output(text: str):
    """Rebuild a query output from the ``repr`` a result frame carries:
    literals, containers, ``Counter`` and ``frozenset`` only.  Dict and
    set order and int-valued floats do not survive ``repr`` comparison,
    so outputs are compared as values."""
    def value(node):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Tuple):
            return tuple(value(item) for item in node.elts)
        if isinstance(node, ast.List):
            return [value(item) for item in node.elts]
        if isinstance(node, ast.Set):
            return {value(item) for item in node.elts}
        if isinstance(node, ast.Dict):
            return {value(k): value(v)
                    for k, v in zip(node.keys, node.values)}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _CONSTRUCTORS and not node.keywords):
            return _CONSTRUCTORS[node.func.id](
                *(value(arg) for arg in node.args))
        raise ValueError(f"unexpected {ast.dump(node)[:60]} in an output")

    return value(ast.parse(text, mode="eval").body)


def _default_sigint() -> None:
    """A child started from a background job inherits SIGINT ignored;
    restore the default so ``stop`` can interrupt it."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def stop(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Interrupt a child, then kill it if it lingers; always reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


#: The workloads, sized for a run of about ten seconds on a 2-core
#: host.  ``serve_mix`` is mostly fresh sends; ``serve_lossy``
#: mostly gap drops and retransmissions under AIMD pacing.
SERVE = {
    "serve_mix": ServeWorkload(rows=4000, shards=4, loss=0.01, reorder=0),
    "serve_lossy": ServeWorkload(rows=1000, shards=2, loss=0.05,
                                 reorder=2, congestion="aimd",
                                 queue_capacity=64),
}
PRUNE_ROWS = 60_000
NAMES = ("serve_mix", "serve_lossy", "socket_closed", "prune_stream")


def in_process(name: str):
    """The setup/run/verify workload behind ``name`` (not the socket
    one)."""
    if name == "prune_stream":
        return PruneWorkload(PRUNE_ROWS)
    return SERVE[name]
