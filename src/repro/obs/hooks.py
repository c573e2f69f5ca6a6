"""The :class:`Observability` facade the serving stack hooks into.

One instance bundles a :class:`~repro.obs.metrics.MetricsRegistry` and
(optionally) a :class:`~repro.obs.spans.SpanTracer`, pre-registers the
full metric catalog from :mod:`repro.obs.names`, and exposes the small
set of hook methods :class:`~repro.cluster.scheduler.ServingLoop`
calls.  Attach it via ``SchedulerConfig(obs=...)``; when the field is
``None`` (the default) every hook site is a single ``is not None``
test, so the instrumented loop and the bare loop run the same code.

Two invariants keep the §acceptance gates honest:

* **Read-only hooks.** No hook mutates scheduler, transport, or
  switch state, draws randomness, or reads a wall clock — so obs-on
  decisions are bit-identical to obs-off (CI sha256-compares them)
  and two identical seeded runs export byte-identical files.
* **Each pass folded once.**  Each wire pass is a fresh
  :class:`~repro.cluster.simulation.ActiveTransfer` (fresh channels,
  workers, forwarder), so it is the unit of transport accounting.  A
  pass is registered when it opens (admission, or a transfer swap seen
  at the end of a service tick) and folded exactly once when it ends
  (the swap, completion, or :meth:`Observability.finalize`): its
  totals are added to the per-tenant counters, its end-of-pass channel
  depth and rate gauges are set, and its ``pass:`` span is recorded.
  Per-tenant transport counters therefore advance when a pass ends,
  not while it runs, and a service tick costs only the loop gauges.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Tuple

from . import names
from .metrics import MetricsRegistry
from .spans import SpanTracer

logger = logging.getLogger(__name__)

#: The three lossy channels of one wire pass, in publish order.
_CHANNELS = ("up", "down", "acks")


def _transfer_totals(transfer) -> Dict[str, int]:
    """Counters of one ended wire pass."""
    workers = transfer.workers.values()
    controllers = transfer.controllers.values()
    totals = {
        "retransmissions": sum(w.retransmissions for w in workers),
        "timer_scans": sum(w.timer_scans for w in workers),
        "queue_signals": sum(c.queue_signals for c in controllers),
        "loss_events": sum(c.loss_events for c in controllers),
        "switch_offers": transfer.switch.pruned + transfer.switch.forwarded,
        "switch_prunes": transfer.switch.pruned,
        "duplicates": transfer.master.duplicates,
    }
    for channel_name in _CHANNELS:
        channel = getattr(transfer, channel_name)
        totals[f"{channel_name}_sent"] = channel.sent
        totals[f"{channel_name}_dropped"] = channel.dropped
        totals[f"{channel_name}_tail_dropped"] = channel.tail_dropped
    return totals


class Observability:
    """Metrics + spans for one serving run (``SchedulerConfig.obs``).

    ``spans=False`` keeps only the metrics registry — span bookkeeping
    (one event per pass and per lifecycle transition, plus two counter
    samples per tick) is the more voluminous half.
    """

    def __init__(self, spans: bool = False):
        self.registry = MetricsRegistry()
        self.tracer: Optional[SpanTracer] = SpanTracer() if spans else None
        #: run index -> (run, open transfer, pass start tick), in
        #: admission order (see module docstring).
        self._open: Dict[int, Tuple] = {}
        self._finalized = False
        self._register()

    def _register(self) -> None:
        """Pre-register the full catalog (docs/OBSERVABILITY.md), so
        the exported metric *names* are identical for every run — a
        scenario that never preempts still exports the preemption
        counter's HELP/TYPE header."""
        r = self.registry
        self.sched_tick = r.gauge(
            names.SCHED_TICK, "Serving-loop tick at export time.")
        self.sched_occupancy = r.gauge(
            names.SCHED_OCCUPANCY, "Slots held by admitted tenants.")
        self.sched_queue_depth = r.gauge(
            names.SCHED_QUEUE_DEPTH, "Tenants queued for admission.")
        self.sched_suspended = r.gauge(
            names.SCHED_SUSPENDED, "Tenants preempted and suspended.")
        self.sched_active = r.gauge(
            names.SCHED_ACTIVE, "Tenants in service.")
        self.sched_admissions = r.counter(
            names.SCHED_ADMISSIONS, "Tenants admitted.", ("qos_class",))
        self.sched_completions = r.counter(
            names.SCHED_COMPLETIONS, "Tenants served to completion.",
            ("qos_class",))
        self.sched_rejections = r.counter(
            names.SCHED_REJECTIONS, "Tenants rejected at admission.",
            ("qos_class",))
        self.sched_preemptions = r.counter(
            names.SCHED_PREEMPTIONS, "Tenants preempted (suspended).",
            ("qos_class",))
        self.sched_resumes = r.counter(
            names.SCHED_RESUMES, "Suspended tenants resumed.",
            ("qos_class",))
        self.sched_service = r.counter(
            names.SCHED_SERVICE,
            "DRR service steps (tenant-ticks advanced).", ("qos_class",))
        self.query_latency = r.histogram(
            names.QUERY_LATENCY,
            "Arrival-to-completion latency in ticks.", ("qos_class",))
        self.query_wait = r.histogram(
            names.QUERY_WAIT,
            "Arrival-to-admission wait in ticks.", ("qos_class",))
        self.transport_retransmissions = r.counter(
            names.TRANSPORT_RETRANSMISSIONS,
            "Worker retransmissions (timeout-driven resends).",
            ("tenant",))
        self.transport_timer_scans = r.counter(
            names.TRANSPORT_TIMER_SCANS,
            "Retransmission-timer scans.", ("tenant",))
        self.transport_queue_signals = r.counter(
            names.TRANSPORT_QUEUE_SIGNALS,
            "AIMD multiplicative decreases (queue feedback).",
            ("tenant",))
        self.transport_loss_events = r.counter(
            names.TRANSPORT_LOSS_EVENTS,
            "AIMD loss events (timeout feedback).", ("tenant",))
        self.transport_rate = r.gauge(
            names.TRANSPORT_RATE,
            "AIMD send rate per flow (packets/tick).",
            ("tenant", "fid"))
        self.transport_rate_peak = r.gauge(
            names.TRANSPORT_RATE_PEAK,
            "Peak AIMD send rate per flow (packets/tick).",
            ("tenant", "fid"))
        self.channel_depth = r.gauge(
            names.CHANNEL_DEPTH, "In-flight packets queued per channel.",
            ("tenant", "channel"))
        self.channel_sent = r.counter(
            names.CHANNEL_SENT, "Packets accepted per channel.",
            ("tenant", "channel"))
        self.channel_drops = r.counter(
            names.CHANNEL_DROPS, "Packets lost per channel.",
            ("tenant", "channel"))
        self.channel_tail_drops = r.counter(
            names.CHANNEL_TAIL_DROPS,
            "Packets tail-dropped by finite ingress queues.",
            ("tenant", "channel"))
        self.switch_offers = r.counter(
            names.SWITCH_OFFERS,
            "Entries offered to the switch stage.", ("tenant",))
        self.switch_prunes = r.counter(
            names.SWITCH_PRUNES,
            "Entries pruned (switch-ACKed) in the data plane.",
            ("tenant",))
        self.switch_shard_offered = r.gauge(
            names.SWITCH_SHARD_OFFERED,
            "Entries offered per physical shard.", ("shard",))
        self.switch_shard_pruned = r.gauge(
            names.SWITCH_SHARD_PRUNED,
            "Entries pruned per physical shard.", ("shard",))
        self.switch_installed = r.gauge(
            names.SWITCH_INSTALLED,
            "Queries installed on the shared data plane.")
        self.switch_live_shards = r.gauge(
            names.SWITCH_LIVE_SHARDS,
            "Physical pipelines currently serving.")
        self.chaos_events = r.counter(
            names.CHAOS_EVENTS, "Chaos events applied.", ("event",))
        self.chaos_migrations = r.counter(
            names.CHAOS_MIGRATIONS,
            "Queries migrated off killed shards.")
        self.chaos_restored = r.counter(
            names.CHAOS_RESTORED,
            "Refugee queries restored to restarted shards.")
        self.chaos_replayed = r.counter(
            names.CHAOS_REPLAYED_PACKETS,
            "Unacked window packets replayed after worker kills.")
        self.chaos_recovery = r.counter(
            names.CHAOS_RECOVERY_TICKS,
            "Ticks spent in worker-kill recovery.")

    # -- lifecycle hooks (called by ServingLoop) -------------------------------
    def on_admit(self, run, tick: int) -> None:
        cls = run.qos_class.name
        self.sched_admissions.inc(qos_class=cls)
        wait = tick - run.spec.arrival_tick
        self.query_wait.observe(wait, qos_class=cls)
        if run.current is not None:
            # The first pass steps at the service tick that follows.
            self._open[run.index] = (run, run.current, tick + 1)
        if self.tracer is None:
            return
        tenant = run.spec.tenant
        if wait > 0:
            self.tracer.record(
                names.SPAN_QUEUE, run.spec.arrival_tick, tick,
                track=tenant, cat=names.CAT_SCHEDULER,
                tenant=tenant, qos_class=cls)
        self.tracer.begin(
            ("service", run.index), names.SPAN_SERVICE, tick,
            track=tenant, cat=names.CAT_SCHEDULER, tenant=tenant,
            qos_class=cls, slots=run.spec.slots,
            scenario=run.spec.scenario)

    def on_complete(self, run, tick: int) -> None:
        cls = run.qos_class.name
        self.sched_completions.inc(qos_class=cls)
        self.query_latency.observe(tick - run.spec.arrival_tick,
                                   qos_class=cls)
        if run.index in self._open:
            self._fold(self._open.pop(run.index), tick)
        if self.tracer is not None:
            self.tracer.end(("service", run.index), tick,
                            passes=len(run.passes))

    def on_reject(self, run, tick: int) -> None:
        self.sched_rejections.inc(qos_class=run.qos_class.name)
        if self.tracer is not None:
            self.tracer.instant(
                names.SPAN_REJECT, tick, track=run.spec.tenant,
                cat=names.CAT_SCHEDULER, tenant=run.spec.tenant,
                qos_class=run.qos_class.name, reason=run.reason)

    def on_preempt(self, victim, tick: int, by=None) -> None:
        self.sched_preemptions.inc(qos_class=victim.qos_class.name)
        if self.tracer is not None:
            self.tracer.begin(
                ("suspend", victim.index), names.SPAN_SUSPEND, tick,
                track=victim.spec.tenant, cat=names.CAT_SCHEDULER,
                tenant=victim.spec.tenant,
                preempted_by="" if by is None else by.spec.tenant)

    def on_resume(self, run, tick: int) -> None:
        self.sched_resumes.inc(qos_class=run.qos_class.name)
        if self.tracer is not None:
            self.tracer.end(("suspend", run.index), tick)

    def on_chaos(self, records: List[Dict], tick: int,
                 controller) -> None:
        for record in records:
            event = str(record.get("event", "unknown"))
            self.chaos_events.inc(event=event)
            logger.info("chaos event %s at tick %d", event, tick)
            if self.tracer is not None:
                args = {}
                for key, value in sorted(record.items()):
                    if key in ("name", "tick", "track", "cat"):
                        key = f"event_{key}"  # instant() params
                    if isinstance(value, (bool, int, float, str)):
                        args[key] = value
                    elif isinstance(value, (list, tuple, dict, set)):
                        args[key] = len(value)
                self.tracer.instant(event, tick, track="chaos",
                                    cat=names.CAT_CHAOS, **args)
        self._poll_chaos(controller)

    def _poll_chaos(self, controller) -> None:
        self.chaos_migrations.set_total(controller.migrations)
        self.chaos_restored.set_total(controller.restored)
        self.chaos_replayed.set_total(controller.replayed_packets)
        self.chaos_recovery.set_total(controller.recovery_ticks)

    def on_service_tick(self, loop, tick: int, stepped) -> None:
        """End-of-tick hook: loop gauges, DRR service counts, and the
        fold of every pass that ended this tick into a successor."""
        occupancy = sum(run.spec.slots for run in loop.active)
        self.sched_tick.set(tick)
        self.sched_occupancy.set(occupancy)
        self.sched_queue_depth.set(len(loop.waiting))
        self.sched_suspended.set(len(loop.suspended))
        self.sched_active.set(len(loop.active))
        for run in stepped:
            self.sched_service.inc(qos_class=run.qos_class.name)
        # Folded in loop.active order, after the step loop: that order
        # fixes span emission order, and so the export bytes.
        for run in loop.active:
            entry = self._open.get(run.index)
            if entry is not None and entry[1] is not run.current:
                self._fold(entry, tick)
                self._open[run.index] = (run, run.current, tick)
        if self.tracer is not None:
            self.tracer.counter(names.COUNTER_OCCUPANCY, tick,
                                {"slots": occupancy})
            self.tracer.counter(names.COUNTER_QUEUE_DEPTH, tick,
                                {"tenants": len(loop.waiting)})

    def _fold(self, entry: Tuple, tick: int) -> None:
        """Add one ended pass's totals to its tenant's counters, set
        its end-of-pass channel depth and rate gauges, and (with spans
        on) record its ``pass:`` span."""
        run, transfer, start = entry
        tenant = run.spec.tenant
        totals = _transfer_totals(transfer)
        for counter, key in (
                (self.transport_retransmissions, "retransmissions"),
                (self.transport_timer_scans, "timer_scans"),
                (self.transport_queue_signals, "queue_signals"),
                (self.transport_loss_events, "loss_events"),
                (self.switch_offers, "switch_offers"),
                (self.switch_prunes, "switch_prunes")):
            counter.inc(totals[key], tenant=tenant)
        for channel_name in _CHANNELS:
            self.channel_sent.inc(totals[f"{channel_name}_sent"],
                                  tenant=tenant, channel=channel_name)
            self.channel_drops.inc(totals[f"{channel_name}_dropped"],
                                   tenant=tenant, channel=channel_name)
            self.channel_tail_drops.inc(
                totals[f"{channel_name}_tail_dropped"],
                tenant=tenant, channel=channel_name)
            self.channel_depth.set(
                getattr(transfer, channel_name).pending(),
                tenant=tenant, channel=channel_name)
        for fid in sorted(transfer.controllers):
            controller = transfer.controllers[fid]
            self.transport_rate.set(controller.rate,
                                    tenant=tenant, fid=fid)
            self.transport_rate_peak.set(controller.peak_rate,
                                         tenant=tenant, fid=fid)
        if self.tracer is None:
            return
        request = transfer.request
        self.tracer.record(
            names.SPAN_PASS_PREFIX + request.name, start, tick,
            track=tenant, cat=names.CAT_TRANSPORT, tenant=tenant,
            pass_no=len(run.passes),
            fids=len(transfer.workers),
            entries=sum(len(s) for s in request.streams.values()),
            ticks=transfer.ticks,
            retransmissions=totals["retransmissions"],
            tail_drops=sum(totals[f"{c}_tail_dropped"]
                           for c in _CHANNELS),
            drops=sum(totals[f"{c}_dropped"] for c in _CHANNELS),
            pruned=totals["switch_prunes"],
            offered=totals["switch_offers"],
            duplicates=totals["duplicates"])

    def publish_switch(self, frontend) -> None:
        """Set the data-plane gauges from the shared frontend: read at
        :meth:`finalize` and by the server's ``stats`` reply."""
        self.switch_installed.set(len(frontend.installed_queries()))
        per_shard_stats = getattr(frontend, "per_shard_stats", None)
        if per_shard_stats is None:
            self.switch_live_shards.set(1)
            return
        for shard, stats in enumerate(per_shard_stats()):
            self.switch_shard_offered.set(stats.offered, shard=shard)
            self.switch_shard_pruned.set(stats.pruned, shard=shard)
        self.switch_live_shards.set(len(frontend.live_shards))

    # -- end of run ------------------------------------------------------------
    def finalize(self, loop) -> None:
        """Fold still-open passes, read the switch gauges, stamp the
        final tick, close open spans.  Idempotent — the socket server
        and the synchronous ``QueryScheduler.serve`` may both reach
        it."""
        if self._finalized:
            return
        tick = loop.tick
        for entry in self._open.values():
            self._fold(entry, tick)
        self._open.clear()
        self.publish_switch(loop.frontend)
        self.sched_tick.set(tick)
        if loop.chaos is not None:
            self._poll_chaos(loop.chaos)
        if self.tracer is not None:
            self.tracer.finalize(tick)
        self._finalized = True
        logger.debug("observability finalized at tick %d", tick)

    # -- post-hoc ingestion (solo `repro run` / e2e path) ----------------------
    def ingest_simulation_report(self, report, track: str = "run") -> None:
        """Populate metrics and pass spans from a finished solo
        :class:`~repro.cluster.simulation.SimulationReport`.

        The solo ``ClusterSimulation`` drives each pass to completion
        internally (no shared tick loop to hook), so ``repro run``
        exports are reconstructed from the per-pass accounting; pass
        spans lay out back-to-back on the summed tick axis, and
        channel counters (aggregated across the three channels in
        :class:`PassStats`) use the ``all`` channel label.
        """
        cursor = 0
        for index, stats in enumerate(report.passes):
            start = cursor
            cursor += stats.ticks
            self.transport_retransmissions.inc(stats.retransmissions,
                                               tenant=track)
            self.switch_offers.inc(
                stats.switch_pruned + stats.switch_forwarded,
                tenant=track)
            self.switch_prunes.inc(stats.switch_pruned, tenant=track)
            self.channel_sent.inc(stats.packets_sent,
                                  tenant=track, channel="all")
            self.channel_drops.inc(stats.packets_dropped,
                                   tenant=track, channel="all")
            if self.tracer is not None:
                self.tracer.record(
                    names.SPAN_PASS_PREFIX + stats.name, start, cursor,
                    track=track, cat=names.CAT_TRANSPORT,
                    tenant=track, pass_no=index + 1,
                    entries=stats.entries, delivered=stats.delivered,
                    ticks=stats.ticks,
                    retransmissions=stats.retransmissions,
                    pruned=stats.switch_pruned,
                    duplicates=stats.master_duplicates,
                    drops=stats.packets_dropped)
        self.sched_tick.set(cursor)
        if self.tracer is not None:
            self.tracer.finalize(cursor)

    # -- exports ---------------------------------------------------------------
    def write_metrics(self, path: str,
                      tick: Optional[int] = None) -> None:
        self.registry.write(path, tick=tick)

    def write_spans(self, path: str) -> None:
        if self.tracer is None:
            logger.warning(
                "span output %s requested but span tracing is off", path)
            return
        self.tracer.write(path)


__all__ = ["Observability"]
