"""The simulated machine: event execution, sessions, crash, scheduling."""

import dataclasses

import pytest

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.events import EventKind, FaseBegin, FaseEnd, Load, Store, Work
from repro.nvram.failure import CrashJournal, CrashPlan, PowerFailure
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload


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
    cause, no crash-site class.  Through a real ``FlushPort``, one flush
    at a time and as a write-through train.  ``Misspelt`` inherits ER's
    ``write_through`` declaration but not the ``on_store`` it vouches
    for, so the batched loop must call its own."""
    from repro.cache.policies import EagerTechnique

    class Misspelt(EagerTechnique):
        def on_store(self, line):
            self.port.flush_async(line, "evicton")

    class MisspeltTrain(EagerTechnique):
        write_through = "eagre"

    assert Misspelt.write_through is None and EagerTechnique.write_through == "eager"
    for technique, category in ((Misspelt, "evicton"), (MisspeltTrain, "eagre")):
        with pytest.raises(SimulationError, match=f"unknown flush category '{category}'"):
            Machine(MachineConfig()).run(
                get_workload("water-spatial", scale=0.02),
                lambda tid: technique(),
                num_threads=1,
                seed=7,
            )
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
    machine = Machine(MachineConfig(track_values=True))
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
    machine = Machine(MachineConfig(track_values=True))
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
    cut = []
    journal.cut([(sites[site], 0) for site in (1, 3, 5)], ("clean",), cut.append)
    assert [len(state.nvram) for state in cut] == [2, 4, 6]
    for site, state in zip((1, 3, 5), cut):
        live = Machine(MachineConfig(track_values=True))
        live.arm_crash_plan(CrashPlan(at_site=site))
        with pytest.raises(PowerFailure):
            store_ten(live)
        assert state == live.crashed_state


def test_crash_preserves_only_written_back_values():
    machine = Machine(MachineConfig(track_values=True))
    # BEST never flushes: nothing reaches NVRAM before the crash.
    events = [Store(PA + i * 64, 8, value=i) for i in range(5)]
    run(machine, events, technique="BEST", crash_plan=after_stores(5, events, "BEST"))
    state = machine.crashed_state
    assert state.nvram == {}
    assert len(state.lost_lines) == 5


def test_eager_survives_crash():
    machine = Machine(MachineConfig(track_values=True))
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
