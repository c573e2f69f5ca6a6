"""Chaos engine: schedule format, query migration, survivor equivalence.

Covers the JSON-lines failure-schedule format (parser diagnostics carry
``source:line``, golden fixtures under ``tests/data/``), the seeded
schedule generator, the migration machinery itself — checkpoints parked
off a killed shard carry the pruner state *exactly*, a kill landing
mid-transfer never double-counts or drops a batch — and the headline
property: under seeded kill schedules across loss x shards, every
surviving tenant's report is byte-identical to its solo
``QueryPlan.run``.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import run_chaos_bench
from repro.cluster.chaos import (
    CHAOS_KIND,
    CHAOS_VERSION,
    ChaosController,
    ChaosError,
    FailureEvent,
    FailureSchedule,
    generate_schedule,
    load_schedule,
    parse_schedule,
)
from repro.cluster.runtime import ShardedSwitchFrontend
from repro.cluster.scheduler import (
    QueryScheduler,
    SchedulerConfig,
    ServingLoop,
    TenantSpec,
    tenant_specs,
)
from repro.cluster.simulation import build_scenario
from repro.db import QueryPlanner
from repro.net.channel import LossyChannel
from repro.net.reliability import MasterEndpoint, ReliableWorker
from repro.net.wire import decode_ack
from repro.switch.controlplane import QuerySpec

DATA = pathlib.Path(__file__).parent / "data"


def payload_bytes(report):
    """The deterministic serialization the byte-identity claims use."""
    return json.dumps(report.to_payload(), sort_keys=True).encode()


def solo_output(scenario, rows, seed):
    """The reference output a surviving tenant must match."""
    query, tables = build_scenario(scenario, rows=rows, seed=seed)
    return QueryPlanner().plan(query).run(tables).result.output


def _canon(value):
    """Canonical form for the byte-level result comparison.  The switch
    pipeline may carry float registers where the functional reference
    keeps ints, and dict/set iteration order is representation detail
    ({1.0: 703.0} == {1: 703} is the product's contract) — canonicalize
    both before encoding so byte equality means value equality."""
    if isinstance(value, dict):
        return ("dict", sorted((_canon(k), _canon(v))
                               for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(_canon(v) for v in value))
    if isinstance(value, (list, tuple)):
        return ("seq", [_canon(v) for v in value])
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("num", float(value))
    return ("val", value)


def result_bytes(output):
    """The canonical byte encoding of one tenant's query result."""
    return repr(_canon(output)).encode()


class TestParsing:
    def test_golden_schedule_parses(self):
        schedule = load_schedule(str(DATA / "chaos_golden.jsonl"))
        assert schedule.seed == 3
        assert schedule.shards == 3
        assert schedule.workers == 4
        assert [e.event for e in schedule.events] == [
            "degrade_channel", "kill_shard", "kill_worker", "restart"]
        assert [e.tick for e in schedule.events] == [4, 10, 16, 22]
        assert schedule.events[1] == FailureEvent(
            tick=10, event="kill_shard", shard=1)
        assert schedule.events[0].loss_rate == 0.03
        assert schedule.kills == 2
        assert schedule.shard_kills == 1
        assert schedule.duration_ticks == 22

    def test_round_trip_is_identity(self):
        schedule = load_schedule(str(DATA / "chaos_golden.jsonl"))
        assert parse_schedule(schedule.to_jsonl()) == schedule
        # Serialization itself is stable (sorted keys, trailing \n).
        assert schedule.to_jsonl() == \
            parse_schedule(schedule.to_jsonl()).to_jsonl()

    def test_malformed_json_names_the_line(self):
        path = str(DATA / "chaos_malformed_json.jsonl")
        with pytest.raises(ValueError,
                           match=r"chaos_malformed_json\.jsonl:3: "
                                 r"malformed JSON"):
            load_schedule(path)

    def test_bad_header_kind_names_the_line(self):
        with pytest.raises(ValueError,
                           match=r"chaos_bad_header\.jsonl:1: .*kind"):
            load_schedule(str(DATA / "chaos_bad_header.jsonl"))

    def test_out_of_order_ticks_name_the_line(self):
        with pytest.raises(ValueError,
                           match=r"chaos_out_of_order\.jsonl:3: .*"
                                 r"non-decreasing"):
            load_schedule(str(DATA / "chaos_out_of_order.jsonl"))

    def test_restart_without_kill_names_the_line(self):
        with pytest.raises(ValueError,
                           match=r"chaos_restart_without_kill\.jsonl:2: "
                                 r".*not dead"):
            load_schedule(str(DATA / "chaos_restart_without_kill.jsonl"))

    HEADER = f'{{"kind": "{CHAOS_KIND}", "version": {CHAOS_VERSION}}}'

    @pytest.mark.parametrize("text,pattern", [
        ("", r"<schedule>:1: empty schedule"),
        ('{"version": 1}', r"<schedule>:1: .*kind"),
        ('{"kind": "cheetah-chaos", "version": 99}',
         r"<schedule>:1: unsupported schedule version 99"),
        ('{"kind": "cheetah-chaos", "version": "x"}',
         r"<schedule>:1: \"version\" must be an integer"),
        ('{"kind": "cheetah-chaos", "version": 1, "color": 3}',
         r"<schedule>:1: unknown header field\(s\): color"),
        ('{"kind": "cheetah-chaos", "version": 1, "seed": -1}',
         r"<schedule>:1: 'seed' must be >= 0"),
        (HEADER + '\n[1, 2]',
         r"<schedule>:2: every schedule line must be a JSON object"),
        (HEADER + '\n{"tick": 1, "event": "explode"}',
         r"<schedule>:2: unknown event kind 'explode'"),
        (HEADER + '\n{"tick": 1, "event": "kill_shard", "shard": 0, '
                  '"blast": 2}',
         r"<schedule>:2: unknown event field\(s\): blast"),
        (HEADER + '\n{"tick": 1, "event": "kill_shard"}',
         r"<schedule>:2: 'kill_shard' events need a 'shard' field"),
        (HEADER + '\n{"tick": 1, "event": "kill_shard", "shard": 0, '
                  '"loss_rate": 0.1}',
         r"<schedule>:2: 'loss_rate' is not a field of 'kill_shard'"),
        (HEADER + '\n{"tick": -1, "event": "kill_worker", "worker": 0}',
         r"<schedule>:2: 'tick' must be >= 0"),
        (HEADER + '\n{"tick": 1, "event": "kill_worker", '
                  '"worker": -2}',
         r"<schedule>:2: 'worker' must be >= 0"),
        (HEADER + '\n{"tick": 1, "event": "degrade_channel", '
                  '"loss_rate": 1.5}',
         r"<schedule>:2: \"loss_rate\" must be a number in \[0, 1\)"),
        (HEADER + '\n{"tick": 1, "event": "degrade_channel", '
                  '"loss_rate": true}',
         r"<schedule>:2: \"loss_rate\" must be a number"),
        (HEADER + '\n{"tick": 1, "event": "kill_shard", "shard": 0}'
                  '\n{"tick": 4, "event": "kill_shard", "shard": 0}',
         r"<schedule>:3: shard 0 is already dead"),
    ])
    def test_validation_battery(self, text, pattern):
        with pytest.raises(ValueError, match=pattern):
            parse_schedule(text)

    def test_blank_lines_keep_numbering(self):
        text = (self.HEADER + "\n\n"
                '{"tick": 1, "event": "kill_shard"}\n')
        with pytest.raises(ValueError, match=r"<schedule>:3: "):
            parse_schedule(text)

    def test_kill_restart_kill_same_shard_is_legal(self):
        schedule = parse_schedule(
            self.HEADER + "\n"
            '{"tick": 1, "event": "kill_shard", "shard": 0}\n'
            '{"tick": 3, "event": "restart", "shard": 0}\n'
            '{"tick": 7, "event": "kill_shard", "shard": 0}\n')
        assert schedule.shard_kills == 2


class TestGenerator:
    def test_deterministic_and_round_trips(self):
        a = generate_schedule(seed=11, kills=4, shards=3, workers=4,
                              horizon=300, degrade_loss=0.03)
        b = generate_schedule(seed=11, kills=4, shards=3, workers=4,
                              horizon=300, degrade_loss=0.03)
        assert a == b
        assert a.to_jsonl() == b.to_jsonl()
        assert parse_schedule(a.to_jsonl()) == a

    def test_at_least_one_shard_kill(self):
        for seed in range(8):
            schedule = generate_schedule(seed=seed, kills=1, shards=2)
            assert schedule.shard_kills >= 1

    def test_single_shard_topology_kills_workers_only(self):
        schedule = generate_schedule(seed=0, kills=3, shards=1,
                                     workers=2)
        assert schedule.shard_kills == 0
        assert schedule.kills == 3

    def test_no_restart_leaves_pipeline_down(self):
        schedule = generate_schedule(seed=2, kills=1, shards=2,
                                     restart=False)
        assert [e.event for e in schedule.events] == ["kill_shard"]

    def test_degrade_event_leads(self):
        schedule = generate_schedule(seed=0, kills=1, shards=2,
                                     degrade_loss=0.04)
        assert schedule.events[0].event == "degrade_channel"
        assert schedule.events[0].loss_rate == 0.04

    @pytest.mark.parametrize("kwargs,pattern", [
        (dict(kills=-1), "kills"),
        (dict(seed=-1), "seed"),
        (dict(shards=0), "shards"),
        (dict(workers=0), "workers"),
        (dict(horizon=0), "horizon"),
        (dict(degrade_loss=1.0), "degrade_loss"),
    ])
    def test_generator_validation(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            generate_schedule(**kwargs)


def _frontend_with_state(shards=3, entries=48):
    """A sharded frontend with one DISTINCT query holding warm state."""
    frontend = ShardedSwitchFrontend(shards=shards, seed=5)
    install = frontend.install_query(
        QuerySpec("distinct", params=(("rows", 64), ("width", 2))))
    fid = install.fid
    for value in range(entries):
        frontend.offer(fid, value % (entries // 2))
    return frontend, fid


def _register_dump(plane, fid):
    """The exact switch-side register file of one plane's query."""
    pruner = plane.pruner_for(fid)
    return repr(pruner.matrix._data), (pruner.stats.offered,
                                       pruner.stats.pruned)


class TestMigration:
    def test_kill_parks_checkpoints_with_exact_pruner_state(self):
        """The suspended checkpoint carries the dead plane's register
        file bit-for-bit — not a fresh pruner, not a copy."""
        frontend, fid = _frontend_with_state()
        before = _register_dump(frontend.planes[1], fid)
        pruner_before = frontend.planes[1].pruner_for(fid)
        migrated = frontend.kill_shard(1)
        assert migrated == 1
        assert frontend.live_shards == [0, 2]
        assert frontend.dead_shards == [1]
        parked = frontend.parked_checkpoint(1, fid)
        assert parked is not None
        # Checkpoints are state-preserving: the parked installation
        # holds the *same* pruner object with the same registers.
        assert parked.installation.compiled.pruner is pruner_before
        dump = (repr(parked.installation.compiled.pruner.matrix._data),
                (parked.installation.compiled.pruner.stats.offered,
                 parked.installation.compiled.pruner.stats.pruned))
        assert dump == before

    def test_restart_reinstalls_exact_state(self):
        frontend, fid = _frontend_with_state()
        before = _register_dump(frontend.planes[1], fid)
        frontend.kill_shard(1)
        # Survivors keep serving while the pipeline is down.
        for value in range(100, 112):
            frontend.offer(fid, value)
        restored = frontend.restart_shard(1)
        assert restored == 1
        assert frontend.live_shards == [0, 1, 2]
        assert frontend.parked_checkpoint(1, fid) is None
        # Plane 1 is back with its pre-kill registers: entries routed to
        # logical shard 1 during the outage went through the same pruner
        # object (the merged view), so state kept advancing coherently.
        pruner = frontend.planes[1].pruner_for(fid)
        assert pruner is not None
        assert frontend.planes[1].installed_queries()[0].fid == fid

    def test_data_path_identical_across_kill_and_restart(self):
        """The logical-shards-fixed design: prune decisions with a dead
        pipeline match a healthy frontend decision-for-decision."""
        healthy, fid_h = _frontend_with_state()
        faulty, fid_f = _frontend_with_state()
        faulty.kill_shard(2)
        stream = [(value * 17) % 40 for value in range(200)]
        healthy_decisions = [healthy.offer(fid_h, v) for v in stream]
        faulty_decisions = [faulty.offer(fid_f, v) for v in stream]
        assert healthy_decisions == faulty_decisions
        faulty.restart_shard(2)
        tail = list(range(500, 540))
        assert [healthy.offer(fid_h, v) for v in tail] == \
               [faulty.offer(fid_f, v) for v in tail]

    def test_suspend_on_dead_shard_consumes_refugee_checkpoint(self):
        """Suspending a query while one pipeline is down slots the
        parked (refugee) checkpoint into the merged checkpoint, and
        resume re-parks it — state survives a preempt during an
        outage."""
        frontend, fid = _frontend_with_state()
        parked_pruner = None
        frontend.kill_shard(1)
        parked = frontend.parked_checkpoint(1, fid)
        parked_pruner = parked.installation.compiled.pruner
        merged = frontend.suspend_query(fid)
        assert merged is not None
        assert frontend.parked_checkpoint(1, fid) is None
        # Position 1 of the merged checkpoint is the refugee.
        assert merged.shards[1] is not None
        assert merged.shards[1].installation.compiled.pruner \
            is parked_pruner
        frontend.resume_query(merged)
        reparked = frontend.parked_checkpoint(1, fid)
        assert reparked is not None
        assert reparked.installation.compiled.pruner is parked_pruner

    def test_install_during_outage_parks_on_restart_target(self):
        frontend, fid = _frontend_with_state()
        frontend.kill_shard(0)
        install = frontend.install_query(
            QuerySpec("distinct", params=(("rows", 32), ("width", 2))))
        assert frontend.parked_checkpoint(0, install.fid) is not None
        # The dead plane compiled it (fid/seed bookkeeping) but holds
        # no live installation.
        assert all(inst.fid != install.fid
                   for inst in frontend.planes[0].installed_queries())
        frontend.restart_shard(0)
        assert any(inst.fid == install.fid
                   for inst in frontend.planes[0].installed_queries())

    def test_uninstall_during_outage_drops_refugee(self):
        frontend, fid = _frontend_with_state()
        frontend.kill_shard(2)
        frontend.uninstall_query(fid)
        assert frontend.parked_checkpoint(2, fid) is None
        assert frontend.restart_shard(2) == 0

    def test_kill_guards(self):
        frontend, fid = _frontend_with_state(shards=2)
        with pytest.raises(ValueError, match=r"must be in \[0, 2\)"):
            frontend.kill_shard(5)
        frontend.kill_shard(0)
        with pytest.raises(ValueError, match="already dead"):
            frontend.kill_shard(0)
        with pytest.raises(ValueError, match="last live"):
            frontend.kill_shard(1)
        with pytest.raises(ValueError, match="not dead"):
            frontend.restart_shard(1)

    def test_refugee_hosts_are_survivors(self):
        frontend, fid = _frontend_with_state(shards=3)
        frontend.kill_shard(1)
        hosts = frontend.refugee_hosts()
        assert set(hosts) == {1}
        assert all(host in (0, 2) for host in hosts[1].values())


KILL_RESTART_SCHEDULE = FailureSchedule(events=(
    FailureEvent(tick=3, event="kill_shard", shard=1),
    FailureEvent(tick=9, event="restart", shard=1),
))


class TestServingUnderFaults:
    CONFIG = dict(slots=3, shards=3, loss_rate=0.02, seed=5)

    def _specs(self, rows=140):
        return tenant_specs(3, rows=rows, seed=5,
                            mix=("distinct", "join", "groupby_sum"))

    def test_kill_and_restart_report_byte_identical_to_no_fault(self):
        """The strongest survivor-equivalence statement: a mid-query
        shard kill + restart leaves the *entire* schedule report —
        every tenant result, tick, and latency — byte-identical to the
        fault-free run, because the data path never touches the
        per-plane control state."""
        specs = self._specs()
        config = SchedulerConfig(**self.CONFIG)
        baseline = QueryScheduler(config).serve(specs)
        controller = ChaosController(KILL_RESTART_SCHEDULE)
        chaos = QueryScheduler(config).serve(specs, chaos=controller)
        assert controller.migrations >= 1
        assert controller.restored >= 1
        assert payload_bytes(chaos) == payload_bytes(baseline)

    def test_mid_transfer_kill_never_double_counts_or_drops(self):
        """A kill landing mid-``ActiveTransfer`` (queries in flight,
        batches half-acked): offered/delivered accounting matches the
        fault-free run exactly — nothing re-counted, nothing lost."""
        specs = self._specs()
        config = SchedulerConfig(**self.CONFIG)
        baseline = QueryScheduler(config).serve(specs)
        # Kill at tick 2 with no restart: the rest of the run executes
        # K logical shards on K-1 pipelines.
        schedule = FailureSchedule(events=(
            FailureEvent(tick=2, event="kill_shard", shard=2),))
        controller = ChaosController(schedule)
        chaos = QueryScheduler(config).serve(specs, chaos=controller)
        assert controller.migrations >= 1
        base_payload = baseline.to_payload()
        chaos_payload = chaos.to_payload()
        assert chaos_payload["entries"] == base_payload["entries"]
        assert chaos_payload["delivered"] == base_payload["delivered"]
        assert chaos_payload["all_equivalent"] is True

    def test_worker_kill_costs_retransmissions_not_correctness(self):
        specs = self._specs()
        config = SchedulerConfig(**self.CONFIG)
        schedule = FailureSchedule(events=(
            FailureEvent(tick=4, event="kill_worker", worker=1),
            FailureEvent(tick=11, event="kill_worker", worker=3),))
        controller = ChaosController(schedule)
        report = QueryScheduler(config).serve(specs, chaos=controller)
        assert report.all_equivalent is True
        assert controller.replayed_packets > 0

    def test_degrade_channel_mid_run_keeps_equivalence(self):
        specs = self._specs()
        config = SchedulerConfig(slots=3, shards=2, loss_rate=0.0,
                                 seed=5)
        schedule = FailureSchedule(events=(
            FailureEvent(tick=5, event="degrade_channel",
                         loss_rate=0.08),))
        controller = ChaosController(schedule)
        report = QueryScheduler(config).serve(specs, chaos=controller)
        assert report.all_equivalent is True
        assert controller.applied[0]["tenants_degraded"] >= 1

    def test_degraded_tenant_runs_its_next_pass_at_the_degraded_loss(self):
        """Configs are frozen, so ``degrade_channel`` swaps in a new
        config per tenant: every pass that starts after the event
        opens its three channels at the event's loss rate."""
        event = FailureEvent(tick=2, event="degrade_channel",
                             loss_rate=0.07)
        loop = ServingLoop(SchedulerConfig(slots=1, seed=3),
                           chaos=ChaosController(
                               FailureSchedule(events=(event,))))
        loop.submit(TenantSpec(tenant="t0", scenario="join", rows=60))
        started = {}
        while loop.has_work:
            loop.run_tick()
            for run in loop.active:
                if run.current is not None:
                    started.setdefault(id(run.current),
                                       (loop.tick, run.current))
        before = [t for tick, t in started.values() if tick <= event.tick]
        after = [t for tick, t in started.values() if tick > event.tick]
        assert before and after
        for transfer in after:
            assert [channel.loss_rate for channel in
                    (transfer.up, transfer.down, transfer.acks)] == [
                        event.loss_rate] * 3, transfer.request.name

    def test_kill_shard_needs_sharded_frontend(self):
        config = SchedulerConfig(slots=2, shards=1, seed=0)
        controller = ChaosController(FailureSchedule(events=(
            FailureEvent(tick=0, event="kill_shard", shard=0),)))
        with pytest.raises(ChaosError, match="shards >= 2"):
            QueryScheduler(config).serve(
                tenant_specs(1, rows=60, seed=0), chaos=controller)

    def test_kill_worker_out_of_range_is_chaos_error(self):
        config = SchedulerConfig(slots=2, shards=2, workers=2, seed=0)
        controller = ChaosController(FailureSchedule(events=(
            FailureEvent(tick=0, event="kill_worker", worker=7),)))
        with pytest.raises(ChaosError, match="only 2 workers"):
            QueryScheduler(config).serve(
                tenant_specs(1, rows=60, seed=0), chaos=controller)

    def test_chaos_run_replays_byte_identically(self):
        """Same specs + same schedule = the same report, byte for byte
        (the determinism claim of docs/CHAOS.md)."""
        specs = self._specs(rows=100)
        config = SchedulerConfig(**self.CONFIG)
        schedule = generate_schedule(seed=9, kills=2, shards=3,
                                     horizon=20)
        first = QueryScheduler(config).serve(
            specs, chaos=ChaosController(schedule))
        second = QueryScheduler(config).serve(
            specs, chaos=ChaosController(schedule))
        assert payload_bytes(first) == payload_bytes(second)


class TestWorkerReplay:
    def test_replay_window_retransmits_and_master_dedups(self):
        """After ``replay_window`` every unacked packet is resent at
        the next tick; the master's per-flow dedup keeps the delivered
        stream identical (no double-count, no gap)."""
        entries = [(value,) for value in range(24)]
        worker = ReliableWorker(fid=1, entries=entries, window=8)
        up = LossyChannel(name="up")
        acks = LossyChannel(name="acks")
        master = MasterEndpoint()
        worker.tick(0, up)
        in_flight = up.drain()
        assert len(in_flight) == 8  # a full window in flight
        replayed = worker.replay_window()
        assert replayed == 8
        # The originals actually arrived — the crash-takeover survivor
        # just couldn't know.  Hold the ACKs back one tick.
        for data in in_flight:
            master.process(data, acks)
        before = worker.retransmissions
        worker.tick(1, up)
        assert worker.retransmissions == before + replayed
        # Drain to completion: replay duplicates are deduped, and the
        # delivered stream is exactly the original entries.
        now = 1
        while not worker.done and now < 300:
            for data in up.drain():
                master.process(data, acks)
            for data in acks.drain():
                worker.on_ack(decode_ack(data))
            now += 1
            worker.tick(now, up)
        assert worker.done
        assert master.received(1) == entries
        assert master.fin_received(1)
        assert master.duplicates >= replayed


class TestChaosBench:
    def test_bench_is_deterministic_and_migrates(self):
        kwargs = dict(tenants=3, rows=80, slots=3, shards=2,
                      loss_rate=0.02, seed=0, kills=1)
        first = run_chaos_bench(**kwargs)
        second = run_chaos_bench(**kwargs)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        assert first["benchmark"] == "chaos"
        assert first["migrations"] >= 1
        assert first["all_equivalent"] is True
        assert first["schedule"]
        assert first["timeline"]

    def test_bench_rejects_unsharded_topology(self):
        with pytest.raises(ValueError, match="shards must be >= 2"):
            run_chaos_bench(shards=1)


@pytest.mark.slow
class TestSurvivorEquivalenceProperty:
    @settings(max_examples=6, deadline=None)
    @given(loss=st.sampled_from([0.0, 0.02, 0.05]),
           shards=st.sampled_from([2, 3, 4]),
           seed=st.integers(min_value=0, max_value=40))
    def test_every_survivor_byte_identical_to_solo_run(
            self, loss, shards, seed):
        """The harness headline: across loss x shards x seeded kill
        schedules, every surviving tenant's report is byte-identical
        to its solo ``QueryPlan.run``."""
        specs = tenant_specs(3, rows=90, seed=seed,
                             mix=("distinct", "join", "groupby_sum"))
        config = SchedulerConfig(slots=3, shards=shards,
                                 loss_rate=loss, seed=seed)
        schedule = generate_schedule(seed=seed, kills=2, shards=shards,
                                     horizon=24)
        controller = ChaosController(schedule)
        report = QueryScheduler(config).serve(specs, chaos=controller)
        assert schedule.shard_kills >= 1
        assert report.all_equivalent is True
        for tenant in report.tenants:
            assert tenant.status == "served"
            assert tenant.equivalent is True
            solo = solo_output(tenant.spec.scenario, tenant.spec.rows,
                               tenant.spec.seed)
            assert result_bytes(tenant.result.output) == \
                result_bytes(solo)
