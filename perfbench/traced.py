"""One traced run in a fresh process (started by ``run.py --trace 1``).

In-process workload::

    python3 perfbench/traced.py WORKLOAD SEED OUT

makes one untraced warm-up repetition, installs the layer wrappers,
then sets up, runs and verifies one repetition under a root span.

Socket server::

    python3 perfbench/traced.py --serve OUT serve --listen ... --max-queries N

installs the same wrappers and runs ``repro.cli.main`` with the given
arguments under a root span.

Either way ``OUT.json`` receives the summary and ``OUT.trace.json`` the
spans as Chrome trace-event JSON, written at exit.
"""

from __future__ import annotations

import json
import sys

import layers
import workloads
from tracer import ROOT, Tracer


def in_process(name: str, seed: int, out: str) -> int:
    workload = workloads.in_process(name)
    seed = workloads.data_seeds(workload, seed)[0]
    speed = workloads.HostSpeed()
    state = workload.setup(seed)
    workload.run(state, speed.burst)
    workload.verify(state)
    del state

    tracer = Tracer()
    layers.install(tracer)

    def whole():
        state = tracer.span("bench.setup", workload.setup)(seed)
        tracer.span("bench.run", workload.run)(state, lambda: None)
        return tracer.span("bench.verify", workload.verify)(state)

    mark = speed.mark()
    speed.measure()
    outcome = tracer.span(ROOT, whole)()
    tracer.unpatch()
    speed.measure()
    summary = tracer.summary()
    _write(tracer, out, {
        "summary": summary,
        "run_s": summary["inclusive_s"]["bench.run"],
        "scale": speed.scale(mark),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "outcome": outcome.counts,
    })
    return 0


def serve(out: str, argv) -> int:
    from repro import cli

    tracer = Tracer()
    layers.install(tracer, server=True)
    code = tracer.span(ROOT, cli.main)(argv)
    tracer.unpatch()
    _write(tracer, out, {"summary": tracer.summary(), "exit": code})
    return code


def _write(tracer: Tracer, out: str, payload) -> None:
    payload["trace"] = out + ".trace.json"
    tracer.write(payload["trace"])
    with open(out + ".json", "w") as handle:
        json.dump(payload, handle)


def main(argv) -> int:
    workloads.import_repro()
    if argv[0] == "--serve":
        return serve(argv[1], argv[2:])
    name, seed, out = argv
    return in_process(name, int(seed), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
