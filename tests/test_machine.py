"""The simulated machine: event execution, sessions, crash, scheduling."""

import dataclasses

import pytest

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.events import EventKind, FaseBegin, FaseEnd, Load, Store, Work
from repro.nvram.failure import CrashJournal, crashed_states
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.nvram.timing import TimingModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload
from tests.crash_reference import CrashPlan, LiveCrashMachine, PowerFailure


class ListWorkload(Workload):
    """Replays fixed per-thread event lists."""

    name = "list"

    def __init__(self, *streams):
        self._streams = [list(s) for s in streams]

    def streams(self, num_threads, seed):
        return [iter(s) for s in self._streams]


def run(machine, *streams, technique="LA", threads=None, **kwargs):
    w = ListWorkload(*streams)
    return machine.run(
        w, technique_factory(technique), num_threads=threads or len(streams), seed=0, **kwargs
    )


PA = NVRAM_BASE  # persistent base address


@pytest.mark.parametrize(
    "geometry, message",
    [
        ({"l1_capacity_lines": 512.0}, "l1_capacity_lines must be an int"),
        ({"l1_capacity_lines": "512"}, "l1_capacity_lines must be an int"),
        ({"l1_ways": True}, "l1_ways must be an int"),
        ({"l1_ways": 0}, "l1_ways must be >= 1"),
        ({"l1_capacity_lines": 4}, "l1_capacity_lines must be >= 8"),
        ({"l1_capacity_lines": 100}, "100 is not a multiple of l1_ways 8"),
    ],
)
def test_l1_geometry_is_a_typed_error_at_construction(geometry, message):
    """A float capacity used to pass and fail in ``Machine()`` with a bare
    ``TypeError``, a string to raise one from the comparison, and a
    capacity off the ways' multiple to wait for ``HardwareCache``."""
    with pytest.raises(ConfigurationError, match=message):
        MachineConfig(**geometry)


def after_stores(k, events, technique):
    """A plan crashing as the ``k``-th persistent store retires: the
    ``k``-th ``store`` site of a site-recording run of the same events."""
    golden = Machine(MachineConfig(track_values=True))
    sites = golden.record_sites()
    run(golden, events, technique=technique)
    stores = [index for index, site_class, *_ in sites if site_class == "store"]
    return CrashPlan(at_site=stores[k - 1])


def test_persistent_store_counted_and_flushed(machine):
    res = run(machine, [FaseBegin(), Store(PA, 8), FaseEnd()])
    assert res.persistent_stores == 1
    assert res.flushes == 1            # LA drains the single line
    assert res.flush_ratio == 1.0


def test_volatile_store_not_persistent(machine):
    res = run(machine, [Store(64, 8)])
    assert res.persistent_stores == 0
    assert res.flushes == 0


def test_store_spanning_two_lines(machine):
    res = run(machine, [FaseBegin(), Store(PA + 60, 8), FaseEnd()])
    assert res.persistent_stores == 1
    assert res.flushes == 2            # two lines drained


def test_work_advances_clock_and_instructions(machine):
    res = run(machine, [Work(500)])
    assert res.instructions == 500
    assert res.time >= 500


def test_an_unknown_flush_category_is_a_typed_error(machine):
    """A misspelt category used to pass for a ``final`` flush — no trace
    cause, no crash-site class.  A technique's ``flush_category`` is
    checked before the batched loop runs any event, and at its first
    flush on the per-event engine; a port flush's at the call."""
    from repro.cache.policies import AtlasTechnique, EagerTechnique

    class MisspeltEager(EagerTechnique):
        flush_category = "eagre"

    class MisspeltEviction(AtlasTechnique):
        flush_category = "evicton"

    for technique in (MisspeltEager, MisspeltEviction):
        category = technique.flush_category
        for use_batches in (True, False):
            made = []

            def factory(tid):
                made.append(technique())
                return made[-1]

            with pytest.raises(SimulationError, match=f"unknown flush category '{category}'"):
                Machine(MachineConfig()).run(
                    get_workload("water-spatial", scale=0.02),
                    factory,
                    num_threads=1,
                    seed=7,
                    use_batches=use_batches,
                )
            assert (made[0].port._ctx.stats.cycles == 0) == use_batches
    session = machine.session(technique_factory("LA")(0))
    with pytest.raises(SimulationError, match="'fase-end'.*'eviction'.*'final'"):
        session._ctx.port.flush_sync([PA >> 6], "fase-end")
    for category in ("final", "victim", "commit"):
        session._ctx.port.flush_async(PA >> 6, category)
    assert session.stats.final_flushes == 1 and session.stats.flushes == 3
    # The removed stages' categories are unknown like any misspelling.
    for category in ("clean", "bypass"):
        with pytest.raises(SimulationError, match=f"unknown flush category '{category}'"):
            session._ctx.port.flush_async(PA >> 6, category)


@pytest.mark.parametrize(
    "category",
    ["eviction", "resize_eviction", "victim", "fase_end", "eager", "log", "commit", "final"],
)
@pytest.mark.parametrize("track_values", [False, True])
def test_a_flush_with_a_trace_cause_is_never_a_commit_train(category, track_values):
    """No ``flush_sync`` is a train: ``flush_sync(lines, c)`` is
    ``flush_async(line, c)`` per line, then a drain, so a category traced
    as ``evict_flush`` keeps each line's record.  Traced, on a queue that
    saturates, over dirty, clean and absent lines, both leave the same
    records, counters, L1, NVRAM image and flush-queue state, in every
    category."""
    config = MachineConfig(
        timing=TimingModel(flush_queue_depth=2), track_values=track_values
    )
    lines = [(PA >> 6) + k for k in range(14)] + [(PA >> 6) + 99]
    seen = []
    for sync in (True, False):
        machine = Machine(config, recorder=TraceRecorder())
        session = machine.session(technique_factory("LA")(0))
        for k in range(12):
            session.store(PA + 64 * k, 8, value=k)
        for k in (12, 13):
            session.load(PA + 64 * k)
        port = session._ctx.port
        if sync:
            port.flush_sync(lines, category)
        else:
            for line in lines:
                port.flush_async(line, category)
            machine._do_drain(session._ctx, category)
        hw, flushq = machine.hwcache, session._ctx.flushq
        seen.append((
            machine.recorder.to_jsonl(),
            dataclasses.asdict(session.stats),
            (hw.loads, hw.stores, hw.flush_writebacks, hw.clean_flushes, hw.dirty_lines()),
            dict(machine.memory.nvram),
            (flushq.last_completion, flushq.issued, flushq.outstanding),
        ))
    assert seen[0] == seen[1]
    assert seen[0][1]["flushes"] == len(lines) and seen[0][1]["stall_cycles"] > 0
    causes = seen[0][0].count('"evict_flush"')
    assert causes == (len(lines) if category in ("eviction", "resize_eviction", "victim") else 0)


def test_a_zero_byte_store_touches_its_line_managed_or_not():
    """A session's unmanaged store takes the managed one's line rule: a
    zero-byte store touches its address's line, unless the address is a
    line's first byte."""
    seen = []
    for managed in (True, False):
        machine = Machine()
        session = machine.session(technique_factory("BEST")(0))
        store = session.store if managed else session.store_unmanaged
        store(PA + 8, 0)
        store(PA + 128, 0)
        hw = machine.hwcache
        seen.append((hw.stores, session.stats.cycles, hw.dirty_lines()))
    assert seen[0] == seen[1] == (1, 101, [PA >> 6])


def test_load_touches_cache(machine):
    res = run(machine, [Load(PA, 8), Load(PA, 8)])
    assert res.threads[0].persistent_loads == 2
    assert res.l1_accesses == 2
    assert res.l1_misses == 1


def test_unmatched_fase_end_raises(machine):
    with pytest.raises(SimulationError):
        run(machine, [FaseEnd()])


def test_stream_ending_inside_fase_raises(machine):
    with pytest.raises(SimulationError):
        run(machine, [FaseBegin(), Store(PA, 8)])


def test_nested_fases_drain_only_at_outermost(machine):
    events = [
        FaseBegin(),
        Store(PA, 8),
        FaseBegin(),
        Store(PA + 64, 8),
        FaseEnd(),                     # inner end: no drain
        Store(PA + 128, 8),
        FaseEnd(),                     # outer end: drain all three lines
    ]
    res = run(machine, events)
    assert res.fase_count == 1
    assert res.flushes == 3
    assert res.threads[0].fase_end_flushes == 3


def test_two_threads_interleave_and_aggregate(machine):
    a = [FaseBegin(), Store(PA, 8), FaseEnd(), Work(10)]
    b = [FaseBegin(), Store(PA + 4096, 8), FaseEnd(), Work(10_000)]
    res = run(machine, a, b)
    assert res.num_threads == 2
    assert res.persistent_stores == 2
    assert res.fase_count == 2
    # Wall time is the slower thread's clock.
    assert res.time == max(t.cycles for t in res.threads)
    assert res.time >= 10_000


def test_wrong_stream_count_rejected(machine):
    w = ListWorkload([Work(1)])
    with pytest.raises(SimulationError):
        machine.run(w, technique_factory("LA"), num_threads=2, seed=0)


def test_thread_count_validation(machine):
    w = ListWorkload([Work(1)])
    with pytest.raises(ConfigurationError):
        machine.run(w, technique_factory("LA"), num_threads=0, seed=0)


@pytest.mark.parametrize("num_threads", [True, 2.0, "2", None])
def test_a_thread_count_that_is_no_int_is_a_typed_error(machine, num_threads):
    """A bool used to run (and land in ``RunResult.num_threads``); a float,
    a string or ``None`` raised a bare ``TypeError``."""
    w = ListWorkload([Work(1)])
    with pytest.raises(ConfigurationError, match="num_threads must be an int"):
        machine.run(w, technique_factory("LA"), num_threads=num_threads, seed=0)


def test_trace_recording(machine):
    events = [
        FaseBegin(), Store(PA, 8), Store(PA + 64, 8), FaseEnd(),
        Store(PA + 128, 8),
    ]
    res = run(machine, events, technique="BEST", record_traces=True)
    trace = res.traces[0]
    assert trace.n == 3
    assert list(trace.fase_ids)[:2] == [0, 0]
    assert list(trace.fase_ids)[2] == -1   # outside any FASE


def test_crash_plan_stops_execution():
    machine = LiveCrashMachine(MachineConfig(track_values=True))
    events = [FaseBegin()] + [Store(PA + i * 64, 8, value=i) for i in range(10)]
    events += [FaseEnd()]
    res = run(machine, events, technique="ER", crash_plan=after_stores(4, events, "ER"))
    assert res.crashed
    assert machine.crashed_state is not None
    assert machine.crashed_state.at_store == 4
    assert res.persistent_stores == 4


def test_site_crash_plan_stops_run_at_that_site():
    events = [FaseBegin()] + [Store(PA + i * 64, 8, value=i) for i in range(10)]
    events += [FaseEnd()]
    machine = LiveCrashMachine(MachineConfig(track_values=True))
    res = run(machine, events, technique="ER", crash_plan=CrashPlan(at_site=5))
    assert res.crashed
    assert res.persistent_stores == 6   # ER's only sites are its stores
    assert machine.crashed_state.at_site == 5


def test_a_journal_cut_is_what_a_plan_captures_live():
    """A value-tracking machine recording sites into a journal can give
    the crashed state at any of them afterwards: the state a machine
    armed with a plan at that site captures as it stops there."""

    def store_ten(machine):
        session = machine.session(technique_factory("ER")(0))
        for i in range(10):
            session.store(PA + i * 64, 8, i)

    golden = Machine(MachineConfig(track_values=True))
    journal = CrashJournal(golden.config.timing.flush_queue_depth)
    sites = golden.record_sites(journal)
    store_ten(golden)
    cut = list(crashed_states(journal.walk([(sites[site], 0) for site in (1, 3, 5)], ("clean",))))
    assert [len(state.nvram) for state in cut] == [2, 4, 6]
    for site, state in zip((1, 3, 5), cut):
        live = LiveCrashMachine(MachineConfig(track_values=True))
        live.arm_crash_plan(CrashPlan(at_site=site))
        with pytest.raises(PowerFailure):
            store_ten(live)
        assert state == live.crashed_state


def test_crash_preserves_only_written_back_values():
    machine = LiveCrashMachine(MachineConfig(track_values=True))
    # BEST never flushes: nothing reaches NVRAM before the crash.
    events = [Store(PA + i * 64, 8, value=i) for i in range(5)]
    run(machine, events, technique="BEST", crash_plan=after_stores(5, events, "BEST"))
    state = machine.crashed_state
    assert state.nvram == {}
    assert len(state.lost_lines) == 5


def test_eager_survives_crash():
    machine = LiveCrashMachine(MachineConfig(track_values=True))
    events = [Store(PA + i * 64, 8, value=i) for i in range(5)]
    run(machine, events, technique="ER", crash_plan=after_stores(5, events, "ER"))
    state = machine.crashed_state
    assert state.read(PA + 0) == 0
    assert state.read(PA + 4 * 64) == 4


# ---------------------------------------------------------------------------
# Sessions (the imperative driver)
# ---------------------------------------------------------------------------


def test_session_basic_flow(value_machine):
    tech = technique_factory("LA")(0)
    s = value_machine.session(tech)
    s.fase_begin()
    s.store(PA, 8, value="x")
    s.fase_end()
    assert s.stats.persistent_stores == 1
    assert s.stats.flushes == 1
    s.finish()
    assert value_machine.memory.read(PA) == "x"


def test_session_load_reads_through_cache(value_machine):
    tech = technique_factory("BEST")(0)
    s = value_machine.session(tech)
    s.store(PA, 8, value=41)
    # Dirty in cache, not in NVRAM - but loads must see it.
    assert s.load(PA) == 41
    assert value_machine.memory.read(PA) is None


def test_session_store_unmanaged_bypasses_technique(value_machine):
    tech = technique_factory("LA")(0)
    s = value_machine.session(tech)
    s.fase_begin()
    s.store_unmanaged(PA, 8, value="meta")
    s.fase_end()
    # Not routed to LA: nothing to drain, no flush counted.
    assert s.stats.flushes == 0
    assert s.stats.persistent_stores == 0
    assert value_machine.read_current(PA) == "meta"


def test_session_finish_inside_fase_raises(value_machine):
    s = value_machine.session(technique_factory("LA")(0))
    s.fase_begin()
    with pytest.raises(SimulationError):
        s.finish()


def test_session_trace_recording(value_machine):
    s = value_machine.session(technique_factory("BEST")(0), record_trace=True)
    s.fase_begin()
    s.store(PA, 8)
    s.fase_end()
    s.finish()
    assert s.trace().n == 1


def test_read_current_prefers_pending_value(value_machine):
    s = value_machine.session(technique_factory("ER")(0))
    s.store(PA, 8, value="first")    # ER flushes: durable immediately
    assert value_machine.read_current(PA) == "first"


# ---------------------------------------------------------------------------
# Sessions under the machine's scheduler
# ---------------------------------------------------------------------------


def test_drive_interleaves_sessions_as_run_interleaves_streams():
    """``Machine.drive`` is ``Machine.run``'s scheduler with the caller
    dispatching the events: same interleaving (a staged technique),
    metrics samples, recorder events and final counters."""
    streams = [
        [ev for i in range(90) for ev in (
            FaseBegin(), Store(PA + (tid << 16) + (i % 11) * 64, 8), Work(40 + 300 * tid),
            Store(PA + (tid << 16) + (i % 7) * 64, 8), Load(PA + (i % 5) * 64, 8),
            FaseEnd(), Store(PA + (tid << 16) + (i % 3) * 64, 8),
        )]
        for tid in range(2)
    ]
    factory = technique_factory("SC-offline+victim:1", sc_fixed_size=1)

    def observed(machine, stats):
        hw = machine.hwcache
        return (
            [dataclasses.asdict(s) for s in stats],
            (hw.loads, hw.stores, hw.load_misses, hw.store_misses,
             hw.evict_writebacks, hw.flush_writebacks, hw.clean_flushes),
            machine.recorder.to_jsonl(),
            machine.metrics.to_dict(),
        )

    def fresh():
        return Machine(
            MachineConfig(), recorder=TraceRecorder(), metrics=MetricsRegistry(interval=500)
        )

    ran = fresh()
    result = ran.run(
        ListWorkload(*streams), factory, num_threads=2, seed=0, use_batches=False
    )
    assert result.threads[0].victim_flushes > 0

    driven = fresh()
    sessions = [driven.session(factory(tid), tid) for tid in range(2)]
    pending = [iter(stream) for stream in streams]
    push = {
        EventKind.STORE: lambda s, ev: s.store(ev.addr, ev.size, ev.value),
        EventKind.LOAD: lambda s, ev: s.load(ev.addr, ev.size),
        EventKind.WORK: lambda s, ev: s.work(ev.amount),
        EventKind.FASE_BEGIN: lambda s, ev: s.fase_begin(),
        EventKind.FASE_END: lambda s, ev: s.fase_end(),
    }

    def step(tid, budget):
        for _ in range(budget):
            ev = next(pending[tid], None)
            if ev is None:
                return False
            push[ev.kind](sessions[tid], ev)
        return True

    driven.drive(sessions, step)
    assert observed(driven, [s.stats for s in sessions]) == observed(ran, result.threads)
    # The scheduler finished both threads: closing them again is a no-op.
    flushes = [s.stats.flushes for s in sessions]
    for session in sessions:
        session.finish()
    assert [s.stats.flushes for s in sessions] == flushes
