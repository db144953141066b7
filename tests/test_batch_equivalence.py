"""The batched execution path must be bit-identical to the per-event path.

The machine's ``_run_batches`` loop is an optimisation, never a semantic
fork: whatever ``batch_streams`` serves — a native emitter's columns or
``BatchCachingWorkload``'s one-time recording of a generator — a batched
run must produce exactly the statistics of the same run with
``use_batches=False``: every per-thread counter, every flush category,
and the shared hardware cache's counters and final image.
"""

import contextlib
import copy
import dataclasses
import pickle
import random
from unittest import mock

import pytest

from repro.cache.adaptive import AdaptiveConfig
from repro.cache.policies import EagerTechnique, SoftwareCacheTechnique
from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.common.events import (
    EventBatch,
    FaseBegin,
    FaseEnd,
    Load,
    Store,
    Work,
    batches_from_events,
    events_from_batches,
)
from repro.experiments.harness import (
    Harness,
    HarnessConfig,
    ProfileSummary,
    execute_cell,
    sc_factory_kwargs,
)
from repro.locality.trace import WriteTrace
from repro.nvram.hwcache import HardwareCache
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.obs.live import StreamingRecorder
from repro.obs.trace import TraceRecorder
from repro.workloads.base import BatchCachingWorkload, TraceWorkload, Workload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.parray import PersistentArray
from repro.workloads.registry import WORKLOAD_NAMES, get_workload
from tests.crash_reference import CrashPlan, LiveCrashMachine

SEED = 7
#: The workloads that spell their program as batches: the seven SPLASH2
#: stand-ins, and a replayed trace.
NATIVE = Harness.splash2_workloads() + ("trace",)
TECHNIQUES = ("ER", "LA", "AT", "SC", "SC-offline", "BEST", "SC+victim:16")
THREADS = (1, 4)
#: Generators whose threads draw node addresses from one allocator: above
#: one thread their event stream depends on the schedule, so on the
#: technique, and is never recorded.
SHARED_ALLOCATOR = ("queue", "linked-list")

CONFIG = HarnessConfig(scale=0.02, seed=SEED)


@pytest.fixture(scope="module")
def harness():
    """One harness for the module, as a report uses one per grid: each
    workload's recording is shared by every technique below."""
    return Harness(CONFIG)


def _grid():
    for name in WORKLOAD_NAMES:
        workload = get_workload(name, scale=CONFIG.scale)
        for threads in THREADS:
            if workload.supports_threads(threads):
                for technique in TECHNIQUES:
                    yield pytest.param(
                        name, technique, threads, id=f"{threads}-{technique}-{name}"
                    )


def _full_stats(result):
    """Everything a run produces, as one comparable structure."""
    return {
        "threads": [dataclasses.asdict(t) for t in result.threads],
        "l1_accesses": result.l1_accesses,
        "l1_misses": result.l1_misses,
        "crashed": result.crashed,
    }


def _run(workload, technique, threads, use_batches, recorder=None, **factory_kwargs):
    machine = Machine(MachineConfig(), recorder=recorder)
    result = machine.run(
        workload,
        technique_factory(technique, **factory_kwargs),
        num_threads=threads,
        seed=SEED,
        use_batches=use_batches,
    )
    return machine, result


def _l1_image(machine):
    """Each set's ``(line, dirty)`` ways, least recently used first."""
    return [list(ways.items()) for ways in machine.hwcache.sets]


@pytest.mark.parametrize("name,technique,threads", _grid())
def test_batched_run_is_bit_identical(harness, name, technique, threads):
    """Every registry workload, as the harness builds it: the automatic
    path (recorded or native batches) against the forced per-event one."""
    workload = harness.workload(name)
    recordable = threads == 1 or name not in SHARED_ALLOCATOR
    assert (workload.batch_streams(threads, SEED) is not None) == recordable
    kwargs = sc_factory_kwargs(
        CONFIG, workload, technique, threads, harness.profile_summary(name)
    )
    m_ev, r_ev = _run(workload, technique, threads, False, **kwargs)
    m_b, r_b = _run(workload, technique, threads, None, **kwargs)

    assert _full_stats(r_b) == _full_stats(r_ev)
    # The shared hardware cache's full counter set, not just the two
    # aggregates RunResult carries, and what it holds at the end.
    for attr in ("loads", "stores", "load_misses", "store_misses",
                 "evict_writebacks", "flush_writebacks", "clean_flushes"):
        assert getattr(m_b.hwcache, attr) == getattr(m_ev.hwcache, attr), attr
    assert _l1_image(m_b) == _l1_image(m_ev)


@pytest.mark.parametrize("name", NATIVE)
def test_native_batches_encode_the_stream(name):
    """A program is spelled once: these workloads define ``batch_streams``
    only, and their ``streams`` is the decoding of it."""
    if name == "trace":
        programs = get_workload("water-spatial", scale=0.02).batch_streams(4, SEED)
        traces = [
            WriteTrace.from_batches(batches, tid, NVRAM_BASE)
            for tid, batches in enumerate(programs)
        ]
        workload, thread_counts = TraceWorkload(traces), (4,)
    else:
        workload, thread_counts = get_workload(name, scale=0.05), THREADS
    assert type(workload).streams is Workload.streams
    for threads in thread_counts:
        streams = workload.streams(threads, seed=7)
        batch_streams = workload.batch_streams(threads, seed=7)
        assert len(streams) == len(batch_streams) == threads
        for stream, batches in zip(streams, batch_streams):
            want = [repr(ev) for ev in events_from_batches(batches)]
            got = [repr(ev) for ev in stream]
            assert got == want and got


def _both_engines(workload, technique, threads, spied=()):
    """The run batched and per event: equal down to the L1 image, with
    repeats absorbed on the batched side; returns each side's calls of
    the ``spied`` :class:`HardwareCache` methods."""
    seen, calls = {}, {}
    for use_batches in (True, False):
        with contextlib.ExitStack() as stack:
            spies = {
                name: stack.enter_context(mock.patch.object(
                    HardwareCache, name, autospec=True,
                    side_effect=getattr(HardwareCache, name),
                ))
                for name in spied
            }
            machine, result = _run(workload, technique, threads, use_batches)
        calls[use_batches] = {name: spy.call_count for name, spy in spies.items()}
        hw = machine.hwcache
        seen[use_batches] = _full_stats(result), _l1_image(machine), (
            hw.loads, hw.stores, hw.load_misses, hw.store_misses,
            hw.evict_writebacks, hw.flush_writebacks, hw.clean_flushes,
        )
        assert (machine.absorbed_stores > 0) == use_batches
    assert seen[True] == seen[False]
    return calls


def test_the_batched_loop_owns_write_throughs_and_the_l1():
    """Counts, not timings.  Untraced ER on barnes at scale 0.1 — 20 k
    stores a thread, longer than the hypothesis examples reach, on a
    saturated flush queue — at one thread (the whole stream one quantum)
    and eight (edges kept while more than one thread can run); traced at
    eight, every store is still a write-through train's, with no
    ``insert`` call.  Then an untraced AT run, evicting (ocean) and
    commit-heavy (queue): the batched loop touches L1, flushes evictions
    and runs commit trains on its own locals, so it calls no
    :class:`HardwareCache` method at all, where the per-event engine
    calls each."""
    barnes = get_workload("barnes", scale=0.1)
    for threads in (1, 8):
        _both_engines(barnes, "ER", threads)
    with mock.patch.object(
        EagerTechnique, "insert", autospec=True, side_effect=EagerTechnique.insert
    ) as insert:
        machine, _ = _run(barnes, "ER", 8, True, recorder=TraceRecorder())
    assert insert.call_count == 0
    touches = sum(
        WriteTrace.from_batches(batches, tid, NVRAM_BASE).n
        for tid, batches in enumerate(barnes.batch_streams(8, SEED))
    )
    assert machine.absorbed_stores == touches > 0
    queue = BatchCachingWorkload(get_workload("queue", scale=0.05))
    for workload in (get_workload("ocean", scale=0.1), queue):
        calls = _both_engines(workload, "AT", 1, spied=("access", "clflush"))
        assert all(calls[False].values()), (workload.name, calls)
        assert not any(calls[True].values()), (workload.name, calls)


def _tally_stream(rng, length):
    """A thread's events with every row whose ``STORE``/``LOAD`` events
    differ from the tallies' count: persistent runs with ``WORK`` inside,
    volatile line-touch runs, stores across two lines, persistent and
    DRAM loads, ``Work(1 << 40)`` and ``Work(-3)``, FASE marks — after
    zero-byte accesses, which touch their address's line unless it is a
    line's first byte."""
    events = [
        Load(100, 0), Store(100, 0), Store(104, 8), Store(NVRAM_BASE, 0),
        Store(NVRAM_BASE + 8, 0), Store(NVRAM_BASE + 16, 8), Load(NVRAM_BASE + 72, 0),
    ]
    depth = 0
    while len(events) < length:
        roll = rng.random()
        if roll < 0.5:
            line = rng.choice((NVRAM_BASE, NVRAM_BASE, 4096)) + 64 * rng.randrange(12)
            for _ in range(rng.randrange(1, 40)):
                events.append(Store(line + 8 * rng.randrange(8), 8))
                if rng.random() < 0.3:
                    events.append(Work(rng.choice((2, 9))))
        elif roll < 0.6:
            events.append(Store(NVRAM_BASE + 64 * rng.randrange(12) + 60, 8))
        elif roll < 0.75:
            base = rng.choice((NVRAM_BASE, 4096))
            events.append(Load(base + 64 * rng.randrange(12) + rng.choice((0, 60)), 8))
        elif roll < 0.85:
            events.append(Work(rng.choice((1 << 40, -3, 5))))
        elif depth and rng.random() < 0.5:
            events.append(FaseEnd())
            depth -= 1
        else:
            events.append(FaseBegin())
            depth += 1
    return events + [FaseEnd()] * depth


class _Listed:
    """Fixed per-thread event lists, as batches or, ``live``, as a bare
    generator's streams (its quanta pulled as the threads run)."""

    name = "listed"

    def __init__(self, streams, live):
        self.lists, self.live = streams, live

    def streams(self, num_threads, seed):
        return [iter(events) for events in self.lists]

    def batch_streams(self, num_threads, seed):
        if self.live:
            return None
        return [batches_from_events(iter(events), 256) for events in self.lists]


@pytest.mark.parametrize("live", [False, True], ids=["batches", "live"])
@pytest.mark.parametrize("threads", [1, 3])
def test_tallied_counters_match_the_per_event_engine(live, threads, monkeypatch):
    """The batched loop counts a slice of rows' ``STORE``/``LOAD`` events
    from the table's tallies (a live quantum's from its kinds) and
    corrects the rows that differ; every ``ThreadStats`` field and every
    L1 counter equals the per-event engine's.  One thread runs uncut
    tables, three cut ones; SC's sampler edges fall inside runs, which
    it declines."""
    rng = random.Random(threads)
    workload = _Listed([_tally_stream(rng, 2500) for _ in range(threads)], live)
    declined = []
    absorb = SoftwareCacheTechnique.absorb_repeats

    def spied(self, line, n):
        taken = absorb(self, line, n)
        declined.append(not taken)
        return taken

    monkeypatch.setattr(SoftwareCacheTechnique, "absorb_repeats", spied)
    kwargs = {
        "SC": {"adaptive_config": AdaptiveConfig(burst_length=40, initial_skip=25)},
        "SC-offline": {"sc_fixed_size": 4},
    }
    for technique in TECHNIQUES:
        seen = {}
        for use_batches in (False, True):
            declined.clear()
            machine = Machine(MachineConfig())
            result = machine.run(
                workload, technique_factory(technique, **kwargs.get(technique, {})),
                num_threads=threads, use_batches=use_batches,
            )
            hw = machine.hwcache
            seen[use_batches] = (
                [dataclasses.asdict(t) for t in result.threads],
                [getattr(hw, attr) for attr in ("loads", "stores", "load_misses",
                 "store_misses", "evict_writebacks", "flush_writebacks", "clean_flushes")],
                _l1_image(machine),
            )
        assert seen[True] == seen[False], technique
        if not live:    # a live quantum's rows are span 0
            assert machine.absorbed_stores > 0, technique
            assert any(declined) or technique != "SC", "no run declined"


class RecordedBatches:
    """One recording of ``workload`` at ``threads``, served to every run
    as a harness serves it to each technique."""

    name = "recorded"

    def __init__(self, workload, threads):
        self.batches = [list(s) for s in workload.batch_streams(threads, SEED)]

    def batch_streams(self, num_threads, seed):
        return [iter(s) for s in self.batches]


def test_a_thread_enters_its_batched_loop_once(monkeypatch):
    """Counts, not timings: ocean at 8 threads, recorded once and run
    under AT, SC and BEST, untraced and traced.  Each thread's loop runs
    its prologue once however many quanta it takes; a quantum is a slice
    of a table cut at the thread's edges, the rest of the batch a thread
    becomes alone in included; and each table is built once across the
    cells."""
    recorded = RecordedBatches(get_workload("ocean", scale=0.05), 8)
    loops, tables = [], {}
    batch_loop, visits = Machine._batch_loop, EventBatch.visits

    def counted_loop(self, ctx):
        assert ctx.thread_id not in loops, ("a second prologue", ctx.thread_id)
        loops.append(ctx.thread_id)
        return batch_loop(self, ctx)

    def kept(self, *args):
        table = visits(self, *args)
        key = (id(self),) + args + (1.0, 0, 0, 0)[len(args):]
        assert tables.setdefault(key, table) is table, ("built twice", key)
        return table

    monkeypatch.setattr(Machine, "_batch_loop", counted_loop)
    monkeypatch.setattr(EventBatch, "visits", kept)
    for technique in ("AT", "SC", "BEST"):
        for recorder in (None, TraceRecorder()):
            loops.clear()
            machine = Machine(recorder=recorder)
            runner, quanta = machine._run_batches, []

            def counted(ctx, budget, runner=runner, quanta=quanta):
                quanta.append(budget)
                return runner(ctx, budget)

            machine._run_batches = counted
            machine.run(recorded, technique_factory(technique), num_threads=8, seed=SEED)
            assert sorted(loops) == list(range(8)), (technique, loops)
            assert len(quanta) > 10 * 8, (technique, len(quanta))
    assert {key[4] for key in tables} == {0, 64}


@pytest.mark.parametrize(
    "name,technique,threads",
    [
        ("ocean", "AT", 1),
        ("water-spatial", "SC", 8),
        ("water-spatial", "ER", 8),
        ("ocean", "ER", 1),
        ("hash", "SC+victim:16", 1),
    ],
)
def test_traced_runs_write_the_per_event_engines_bytes(name, technique, threads):
    """A recorder sees every flush, stall and FASE span, and keeps every
    quantum edge — a lone thread's too — 64 events apart: the batched
    loop's trace is the per-event engine's, byte for byte, and both are
    a value-tracking run's, whose flushes go line by line.  At 8 threads
    this is the cut-table path.  Traced ER runs its write-through trains,
    and the victim stage flushes its displaced victim (cause 4)."""
    workload = get_workload(name, scale=0.1)
    traces = []
    for use_batches, config in (
        (True, MachineConfig()),
        (False, MachineConfig()),
        (None, MachineConfig(track_values=True)),
    ):
        recorder = TraceRecorder()
        Machine(config, recorder=recorder).run(
            workload, technique_factory(technique), num_threads=threads,
            seed=SEED, use_batches=use_batches,
        )
        traces.append(recorder.to_jsonl())
    assert traces[0] == traces[1] == traces[2] and traces[0]


def test_a_streamed_live_cell_writes_the_per_event_engines_bytes(tmp_path):
    """The traced ``queue`` SC@2 smoke cell — live quanta, streamed to
    disk — spills the same bytes when forced onto the per-event engine."""
    config = HarnessConfig(scale=0.2, seed=SEED)
    summary = Harness(config).profile_summary("queue")
    run = Machine.run
    spills = []
    for use_batches in (None, False):
        path = tmp_path / f"queue-{use_batches}.jsonl"

        def forced(self, *args, use_batches=use_batches, **kwargs):
            return run(self, *args, **kwargs, use_batches=use_batches)

        with mock.patch.object(Machine, "run", forced), StreamingRecorder(str(path)) as rec:
            execute_cell(config, "queue", "SC", 2, summary, recorder=rec)
        spills.append(path.read_bytes())
    assert spills[0] == spills[1] and spills[0]


def test_batch_caching_workload_replays_identically():
    """Materialized batches must replay the same sequence every call."""
    inner = get_workload("water-spatial", scale=0.05)
    caching = BatchCachingWorkload(inner)
    first = [
        [repr(ev) for ev in events_from_batches(s)]
        for s in caching.batch_streams(2, seed=7)
    ]
    again = [
        [repr(ev) for ev in events_from_batches(s)]
        for s in caching.batch_streams(2, seed=7)
    ]
    assert first == again
    # And they match the uncached emission.
    native = [
        [repr(ev) for ev in events_from_batches(s)]
        for s in inner.batch_streams(2, seed=7)
    ]
    assert first == native


def test_generic_chunking_adapter_round_trips():
    """batches_from_events/events_from_batches are exact inverses."""
    workload = get_workload("barnes", scale=0.05)
    want = [repr(ev) for ev in workload.streams(1, seed=7)[0]]
    batches = batches_from_events(workload.streams(1, seed=7)[0], chunk=100)
    got = [repr(ev) for ev in events_from_batches(batches)]
    assert got == want


def test_auto_batching_matches_explicit():
    """use_batches=None (the default) must pick the batched path and
    still produce per-event-identical results."""
    workload = get_workload("water-spatial", scale=0.05)
    _, r_auto = _run(workload, "BEST", 1, use_batches=None)
    _, r_ev = _run(workload, "BEST", 1, use_batches=False)
    assert _full_stats(r_auto) == _full_stats(r_ev)


# -- recording: once per (threads, seed), bounded, never partial ---------


class CountingWorkload(Workload):
    """A generator-only workload that counts how often it is executed.

    Threads write disjoint lines and share nothing, so it declares
    itself schedule-independent at any thread count.  ``fail_after``
    makes every stream raise once it has emitted that many FASEs.
    """

    name = "counting"

    def __init__(self, fases=200, fail_after=None):
        self.fases = fases
        self.fail_after = fail_after
        self.executions = 0

    def supports_threads(self, num_threads):
        return True

    def schedule_independent(self, num_threads):
        return True

    def streams(self, num_threads, seed):
        self.executions += 1
        return [self._stream(t, seed) for t in range(num_threads)]

    def _stream(self, tid, seed):
        base = NVRAM_BASE + (tid << 20)
        for i in range(self.fases):
            if i == self.fail_after:
                raise RuntimeError("generator failed mid-stream")
            yield FaseBegin()
            yield Work(20)
            yield Store(base + 64 * ((i * (seed + 1)) % 48), 8)
            yield Store(base + 64 * (i % 5), 8)
            yield FaseEnd()


def test_generator_executes_once_per_threads_and_seed():
    """Seven techniques and the profiling run share one execution."""
    inner = CountingWorkload()
    workload = BatchCachingWorkload(inner)
    summary = ProfileSummary(persistent_stores=2 * inner.fases, offline_size=8)
    expected = 0
    for seed in (SEED, 11):
        config = dataclasses.replace(CONFIG, seed=seed)
        for threads in (1, 2):
            expected += 1
            for technique in TECHNIQUES:
                execute_cell(
                    config, inner.name, technique, threads,
                    summary=summary, workload=workload,
                )
            Machine(config.machine_config()).run(
                workload, technique_factory("BEST"), num_threads=threads, seed=seed,
            )
            assert inner.executions == expected


def test_max_entries_bounds_recordings_fifo():
    inner = CountingWorkload(fases=10)
    workload = BatchCachingWorkload(inner, max_entries=2)
    for seed in (1, 2, 3):
        workload.batch_streams(1, seed)
    assert list(workload._materialized) == [(1, 2), (1, 3)]
    workload.batch_streams(1, 3)
    assert inner.executions == 3       # still held: replayed
    workload.batch_streams(1, 1)
    assert inner.executions == 4       # evicted first: re-executed
    assert list(workload._materialized) == [(1, 3), (1, 1)]


def test_failed_recording_memoizes_nothing():
    """A stream that raises mid-recording raises again on the next call
    instead of replaying the truncated prefix."""
    inner = CountingWorkload(fail_after=150)
    workload = BatchCachingWorkload(inner)
    for attempt in (1, 2):
        with pytest.raises(RuntimeError, match="mid-stream"):
            workload.batch_streams(1, SEED)
        assert inner.executions == attempt
        assert not workload._materialized


@pytest.mark.parametrize(
    "inner", [PersistentArray(outer=4), HashTableWorkload(elements=64)],
    ids=["persistent-array", "hash"],
)
def test_thread_count_errors_surface_through_the_wrapper(inner):
    """Both sequential benchmarks reject threads with the same typed
    error, and the wrapper never turns it into a ``None`` fallback."""
    workload = BatchCachingWorkload(inner)
    with pytest.raises(ConfigurationError):
        inner.streams(2, SEED)
    with pytest.raises(ConfigurationError):
        workload.batch_streams(2, SEED)
    assert not workload._materialized


def test_wrapper_holding_a_recording_copies_and_pickles():
    """``__getattr__`` used to recurse on the half-built instance that
    copy and pickle probe for dunders."""
    workload = BatchCachingWorkload(get_workload("hash", scale=0.02))
    want = [repr(ev) for ev in events_from_batches(workload.batch_streams(1, SEED)[0])]
    for clone in (copy.copy(workload), pickle.loads(pickle.dumps(workload))):
        assert clone.name == "hash"
        assert clone.elements == workload.elements      # still delegates
        assert list(clone._materialized) == [(1, SEED)]
        got = [repr(ev) for ev in events_from_batches(clone.batch_streams(1, SEED)[0])]
        assert got == want
    with pytest.raises(AttributeError):
        workload._no_such_private_attribute


# -- the exclusion, and the runs that bypass batches altogether ----------


class TappedWorkload(Workload):
    """Record the events each thread's generator actually handed out."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.consumed = []

    def streams(self, num_threads, seed):
        self.consumed = [[] for _ in range(num_threads)]
        return [
            self._tap(stream, log)
            for stream, log in zip(self._inner.streams(num_threads, seed), self.consumed)
        ]

    @staticmethod
    def _tap(stream, log):
        for ev in stream:
            log.append(repr(ev))
            yield ev


def _consumed_under(name, technique, threads):
    tapped = TappedWorkload(get_workload(name, scale=CONFIG.scale))
    Machine(MachineConfig()).run(
        tapped, technique_factory(technique), num_threads=threads, seed=SEED
    )
    return tapped.consumed


@pytest.mark.parametrize("name", SHARED_ALLOCATOR)
def test_shared_allocator_streams_depend_on_the_technique(name):
    """Why queue/linked-list are not recorded above one thread: their
    generators bump one allocator in smallest-clock-first order, so the
    addresses a thread sees under AT are not the ones it sees under SC."""
    workload = BatchCachingWorkload(get_workload(name, scale=CONFIG.scale))
    assert workload.batch_streams(4, SEED) is None
    assert not workload._materialized
    assert _consumed_under(name, "AT", 4) != _consumed_under(name, "SC", 4)
    # A single thread has no interleaving to observe.
    assert workload.batch_streams(1, SEED) is not None
    assert _consumed_under(name, "AT", 1) == _consumed_under(name, "SC", 1)


def test_mdb_reader_threads_are_recorded_bit_identically():
    """1 writer + 3 readers: the store runs to completion inside the
    native emitter, so its columns are the stream under every technique
    — and ``streams`` is the same recording."""
    inner = get_workload("mdb", scale=CONFIG.scale)
    assert inner.batch_streams(4, SEED) is not None
    recorded = BatchCachingWorkload(inner).batch_streams(4, SEED)
    assert recorded is not None
    got = [[repr(ev) for ev in events_from_batches(s)] for s in recorded]
    want = [
        [repr(ev) for ev in events_from_batches(batches_from_events(s))]
        for s in inner.streams(4, SEED)
    ]
    assert got == want
    assert len(got) == 4 and all(got)
    assert _consumed_under("mdb", "AT", 4) == _consumed_under("mdb", "SC", 4)


class BatchSpy(BatchCachingWorkload):
    """Counts the asks for a batched encoding: batches, or a step
    emitter's steps (what a live quantum pulls)."""

    def __init__(self, inner):
        super().__init__(inner)
        self.batch_calls = 0

    def batch_streams(self, num_threads, seed):
        self.batch_calls += 1
        return super().batch_streams(num_threads, seed)

    def steps(self, num_threads, seed):
        self.batch_calls += 1
        return super().steps(num_threads, seed)


def test_value_tracking_and_site_plans_never_ask_for_batches():
    spy = BatchSpy(get_workload("linked-list", scale=CONFIG.scale))
    tracking = Machine(MachineConfig(track_values=True))
    tracking.run(spy, technique_factory("SC"), seed=SEED)
    sited = LiveCrashMachine(MachineConfig())
    result = sited.run(
        spy, technique_factory("SC"), seed=SEED, crash_plan=CrashPlan(at_site=3)
    )
    assert result.crashed
    assert spy.batch_calls == 0
    # Nor does a run that only enumerates sites, whatever ``use_batches``
    # says: the indices a golden logs are the ones a plan will count, on
    # a workload with native batches and on a recorded one.  (Enumerating
    # on the batched loop logged 348 of barnes' sites.)
    for name, sites in (("barnes", 4674), ("linked-list", 1246)):
        spy = BatchSpy(get_workload(name, scale=CONFIG.scale))
        logs = []
        for use_batches in (None, False, True):
            enumerating = Machine(MachineConfig())
            logs.append(enumerating.record_sites())
            result = enumerating.run(
                spy, technique_factory("AT"), seed=SEED, use_batches=use_batches
            )
        assert spy.batch_calls == 0
        assert logs[0] == logs[1] == logs[2] and len(logs[0]) == sites
        stores = sum(site_class == "store" for _, site_class, *_ in logs[0])
        assert stores == result.persistent_stores > 0
    Machine(MachineConfig()).run(spy, technique_factory("SC"), seed=SEED)
    assert spy.batch_calls == 1
