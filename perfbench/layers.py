"""Which program functions each layer's wrappers replace, and the
per-layer metrics computed from a traced run.

Every name here is patched where its callers look it up: a function
imported with ``from module import name`` is replaced in the importing
module, a method on its class.
"""

from __future__ import annotations

from typing import Dict, List

from tracer import Tracer

#: Wrapped names each workload must call (the wrapper coverage
#: check): a wrapper patched at a name no caller looks up is never
#: called.
TRANSPORT = ("simulation.step", "reliability.worker_init",
             "reliability.worker_tick", "reliability.forwarder_batch",
             "reliability.master_batch", "channel.send", "channel.drain",
             "wire.decode_header_fields", "wire.decode_values",
             "wire.decode_ack", "wire.encode")
SERVING_LOOP = ("scheduler.run_tick", "scheduler.submit",
                "switch.install", "db.plan", "db.execute", "db.oracle",
                "workloads.build", "runtime.offer_batch",
                "core.offer_batch")
CALLED = {
    "serve_mix": TRANSPORT + SERVING_LOOP,
    "serve_lossy": TRANSPORT + SERVING_LOOP + ("congestion.try_send",
                                               "congestion.signal"),
    "socket_closed": TRANSPORT + SERVING_LOOP + (
        "obs.service_tick", "serving.read_frame", "serving.encode_frame",
        "serving.idle"),
    "prune_stream": ("workloads.build", "runtime.make_sharded",
                     "runtime.offer_batch", "core.offer_batch"),
}
#: Wrapped names a workload must not call: the congestion controller
#: runs only under ``congestion="aimd"`` and the observability hooks
#: only behind the socket server.
NOT_CALLED = {
    "serve_mix": ("congestion.try_send", "obs.service_tick"),
    "serve_lossy": ("obs.service_tick",),
    "socket_closed": ("congestion.try_send",),
    "prune_stream": ("congestion.try_send", "obs.service_tick",
                     "channel.send", "scheduler.run_tick"),
}


#: The stream generators the prune workload builds its inputs with.
STREAM_GENERATORS = ("random_order_stream", "random_points",
                     "value_stream", "keyed_value_stream",
                     "join_key_streams")


def install(tracer: Tracer, server: bool = False) -> None:
    """Patch every layer's wrappers into the loaded ``repro`` modules.
    ``server`` adds the reactor's idle wait (the socket server's
    event-loop selector)."""
    from repro.cluster import runtime, scheduler, simulation
    from repro.core import base
    from repro.db import planner
    from repro.net import channel, congestion, reliability
    from repro.obs import hooks
    from repro.serving import protocol
    from repro.switch import controlplane
    from repro.workloads import streams

    counts = tracer.counts
    query_of = tracer.query_of

    def count_entries(key):
        def post(args, result, state):
            counts[key] += len(args[1])
        return post

    def core_post(args, result, state):
        counts["core.entries"] += len(result)
        counts["core.pruned"] += sum(1 for pruned in result if pruned)

    def frames_post(args, result, state):
        counts["wire.header_frames"] += len(args[0])

    def worker_init_post(args, result, state):
        counts["reliability.entries"] += len(args[2])

    def worker_tick_pre(args):
        worker, channel_ = args[0], args[2]
        return worker.retransmissions, channel_.sent

    def worker_tick_post(args, result, state):
        worker, channel_ = args[0], args[2]
        counts["reliability.retransmissions"] += (worker.retransmissions
                                                  - state[0])
        counts["reliability.worker_sends"] += channel_.sent - state[1]

    def send_pre(args):
        return args[0].dropped

    def send_post(args, result, state):
        if args[0].dropped != state:
            counts["channel.drops"] += 1

    def try_send_post(args, result, state):
        if not result:
            counts["congestion.denied"] += 1

    def decoded_post(args, result, state):
        counts["serving.decoded"] += 1

    def submit_post(args, result, state):
        query_of[result.sim] = args[1].tenant

    def begin_transfer(original):
        def wrapper(sim, request):
            transfer = original(sim, request)
            query = query_of.get(sim)
            if query is not None:
                query_of[transfer] = query
            return transfer
        return wrapper

    patch = tracer.patch
    patch(scheduler, "build_scenario", "span", "workloads.build")
    for generator in STREAM_GENERATORS:
        patch(streams, generator, "span", "workloads.build")
    patch(planner.QueryPlanner, "plan", "span", "db.plan")
    patch(simulation, "execute", "span", "db.execute")
    patch(planner.QueryPlan, "run", "span", "db.oracle")
    patch(controlplane.ControlPlane, "install_query", "span",
          "switch.install")
    patch(runtime.ShardedSwitchFrontend, "install_query", "span",
          "switch.install")
    patch(runtime, "make_sharded", "span", "runtime.make_sharded")
    patch(runtime.ShardedPruner, "offer_batch", "span",
          "runtime.offer_batch", post=count_entries("runtime.entries"))
    patch(base.PruningAlgorithm, "offer_batch", "span",
          "core.offer_batch", post=core_post)
    patch(reliability, "decode_header_fields", "span",
          "wire.decode_header_fields", post=frames_post)
    patch(reliability, "decode_values", "tally", "wire.decode_values")
    patch(simulation, "decode_ack", "tally", "wire.decode_ack")
    patch(reliability, "encode_packet", "tally", "wire.encode")
    patch(reliability, "encode_ack", "tally", "wire.encode")
    patch(channel.LossyChannel, "send", "tally", "channel.send",
          pre=send_pre, post=send_post)
    patch(channel.LossyChannel, "drain", "span", "channel.drain")
    patch(reliability.ReliableWorker, "__init__", "span",
          "reliability.worker_init", post=worker_init_post)
    patch(reliability.ReliableWorker, "tick", "span",
          "reliability.worker_tick", pre=worker_tick_pre,
          post=worker_tick_post)
    patch(reliability.BatchedSwitchForwarder, "process_batch", "span",
          "reliability.forwarder_batch")
    patch(reliability.MasterEndpoint, "process_batch", "span",
          "reliability.master_batch")
    patch(congestion.RateController, "try_send", "tally",
          "congestion.try_send", post=try_send_post)
    patch(congestion.RateController, "on_queue_signal", "tally",
          "congestion.signal")
    patch(simulation.ActiveTransfer, "step", "span", "simulation.step",
          qid=lambda args: query_of.get(args[0]))
    patch(scheduler.ServingLoop, "run_tick", "span", "scheduler.run_tick")
    patch(scheduler.ServingLoop, "submit", "span", "scheduler.submit",
          qid=lambda args: args[1].tenant, post=submit_post)
    patch(hooks.Observability, "on_service_tick", "span",
          "obs.service_tick")
    patch(protocol, "decode_payload", "tally", "serving.read_frame",
          post=decoded_post)
    patch(protocol, "validate_message", "tally", "serving.read_frame")
    patch(protocol, "encode_frame", "tally", "serving.encode_frame")
    tracer.replace(simulation.ClusterSimulation, "begin_transfer",
                   begin_transfer)
    if server:
        import selectors

        patch(selectors.DefaultSelector, "select", "span", "serving.idle")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer ``*_s`` metrics: name -> the tracer's span/tally name.
SELF_TIMES = {
    "workloads.build_s": "workloads.build",
    "db.plan_s": "db.plan",
    "db.execute_s": "db.execute",
    "db.oracle_s": "db.oracle",
    "switch.install_s": "switch.install",
    "runtime.make_sharded_s": "runtime.make_sharded",
    "runtime.offer_batch_s": "runtime.offer_batch",
    "core.offer_batch_s": "core.offer_batch",
    "wire.decode_header_fields_s": "wire.decode_header_fields",
    "wire.decode_values_s": "wire.decode_values",
    "wire.decode_ack_s": "wire.decode_ack",
    "wire.encode_s": "wire.encode",
    "channel.send_s": "channel.send",
    "channel.drain_s": "channel.drain",
    "reliability.worker_init_s": "reliability.worker_init",
    "reliability.worker_tick_s": "reliability.worker_tick",
    "reliability.forwarder_batch_s": "reliability.forwarder_batch",
    "reliability.master_batch_s": "reliability.master_batch",
    "congestion.signal_s": "congestion.signal",
    "simulation.step_s": "simulation.step",
    "scheduler.run_tick_s": "scheduler.run_tick",
    "scheduler.submit_s": "scheduler.submit",
    "serving.read_frame_s": "serving.read_frame",
    "serving.encode_frame_s": "serving.encode_frame",
    "serving.idle_s": "serving.idle",
    "obs.service_tick_s": "obs.service_tick",
}


def coverage(name: str, summary: Dict) -> List[str]:
    """The wrapped names ``name`` failed to call or called in error."""
    calls = summary["calls"]
    return ([f"{layer} never called" for layer in CALLED[name]
             if not calls.get(layer)]
            + [f"{layer} called" for layer in NOT_CALLED[name]
               if calls.get(layer)])


def layer_metrics(summary: Dict, wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run.  ``wall`` is the traced
    wall time the shares and the attribution refer to."""
    self_s = summary["self_s"]
    inclusive = summary["inclusive_s"]
    calls = summary["calls"]
    counts = summary["counts"]
    metrics: Dict[str, float] = {}
    for metric, name in SELF_TIMES.items():
        seconds = self_s.get(name, 0.0)
        metrics[metric] = seconds
        metrics[metric[:-2] + "_share"] = _ratio(seconds, wall)
    offer_calls = calls.get("runtime.offer_batch", 0)
    core_entries = counts.get("core.entries", 0)
    sends = calls.get("channel.send", 0)
    worker_sends = counts.get("reliability.worker_sends", 0)
    try_sends = calls.get("congestion.try_send", 0)
    ticks = calls.get("scheduler.run_tick", 0)
    framing = (self_s.get("serving.read_frame", 0.0)
               + self_s.get("serving.encode_frame", 0.0))
    metrics.update({
        "db.oracle_calls": calls.get("db.oracle", 0),
        "switch.install_calls": calls.get("switch.install", 0),
        "runtime.offer_batch_calls": offer_calls,
        "runtime.entries_per_offer_batch": _ratio(
            counts.get("runtime.entries", 0), offer_calls),
        "core.entries": core_entries,
        "core.pruned_fraction": _ratio(counts.get("core.pruned", 0),
                                       core_entries),
        "wire.frames_per_decode": _ratio(
            counts.get("wire.header_frames", 0),
            calls.get("wire.decode_header_fields", 0)),
        "channel.send_calls": sends,
        "channel.drop_fraction": _ratio(counts.get("channel.drops", 0),
                                        sends),
        "reliability.retransmit_fraction": _ratio(
            counts.get("reliability.retransmissions", 0), worker_sends),
        "reliability.goodput_ratio": _ratio(
            counts.get("reliability.entries", 0), worker_sends),
        "congestion.try_send_calls": try_sends,
        "congestion.denied_fraction": _ratio(
            counts.get("congestion.denied", 0), try_sends),
        "simulation.steps": calls.get("simulation.step", 0),
        "scheduler.ticks": ticks,
        "scheduler.stepped_per_tick": _ratio(
            calls.get("simulation.step", 0), ticks),
        "serving.frames": (calls.get("serving.encode_frame", 0)
                           + counts.get("serving.decoded", 0)),
        "obs.calls": calls.get("obs.service_tick", 0),
        "channel.packets_per_entry": _ratio(
            sends, counts.get("reliability.entries", 0)),
        "trace.attributed_fraction": _ratio(summary["attributed_s"],
                                            wall),
    })
    if calls.get("serving.idle", 0):
        other = (wall - inclusive.get("scheduler.run_tick", 0.0)
                 - framing)
    else:
        other = 0.0
    metrics["serving.reactor_other_s"] = other
    metrics["serving.reactor_other_share"] = _ratio(other, wall)
    return metrics
