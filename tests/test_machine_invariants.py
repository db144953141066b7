"""Machine-level invariants over random event streams (hypothesis)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.adaptive import AdaptiveConfig
from repro.cache.policies import VictimCacheTechnique
from repro.cache.spec import technique_factory
from repro.cache.write_cache import WriteCombiningCache
from repro.common.errors import SimulationError
from repro.common.events import (
    FaseBegin,
    FaseEnd,
    Load,
    Store,
    Work,
    batches_from_events,
)
from repro.locality.trace import WriteTrace
from repro.nvram.flushqueue import FlushQueue
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.nvram.timing import TimingModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload
from tests.crash_reference import CrashPlan, LiveCrashMachine
from tests.trace_reference import recorded_traces
from tests.conftest import l1_dirty


class ListWorkload(Workload):
    name = "rand"

    def __init__(self, *streams):
        self._streams = [list(s) for s in streams]

    def streams(self, num_threads, seed):
        return [iter(s) for s in self._streams]


@st.composite
def event_streams(draw):
    """A well-bracketed random event stream over a small line pool."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["store", "load", "work", "fase"]),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=120,
        )
    )
    events = []
    depth = 0
    for op, arg in ops:
        if op == "store":
            events.append(Store(NVRAM_BASE + arg * 64, 8))
        elif op == "load":
            events.append(Load(NVRAM_BASE + arg * 64, 8))
        elif op == "work":
            events.append(Work(arg + 1))
        elif op == "fase":
            if depth and arg % 2:
                events.append(FaseEnd())
                depth -= 1
            else:
                events.append(FaseBegin())
                depth += 1
    events.extend(FaseEnd() for _ in range(depth))
    return events


TECHNIQUES = ["ER", "LA", "AT", "SC-offline", "BEST"]


def run(events, technique):
    machine = Machine(MachineConfig())
    kwargs = {"sc_fixed_size": 4} if technique == "SC-offline" else {}
    result = machine.run(
        ListWorkload(events), technique_factory(technique, **kwargs), num_threads=1, seed=0
    )
    return machine, result


@settings(max_examples=30, deadline=None)
@given(event_streams(), st.sampled_from(TECHNIQUES))
def test_flush_category_conservation(events, technique):
    _m, res = run(events, technique)
    t = res.threads[0]
    assert t.flushes == (
        t.eviction_flushes
        + t.fase_end_flushes
        + t.eager_flushes
        + t.log_flushes
        + t.final_flushes
    )


@settings(max_examples=30, deadline=None)
@given(event_streams(), st.sampled_from(TECHNIQUES))
def test_determinism(events, technique):
    _m1, a = run(events, technique)
    _m2, b = run(events, technique)
    assert a.flushes == b.flushes
    assert a.time == b.time
    assert a.l1_misses == b.l1_misses


@settings(max_examples=30, deadline=None)
@given(event_streams())
def test_technique_flush_bounds(events):
    """ER flushes per store; BEST never; LA/AT/SC in between; LA is the
    floor among the correct techniques."""
    results = {t: run(events, t)[1] for t in TECHNIQUES}
    stores = results["ER"].persistent_stores
    assert results["ER"].flushes == stores
    assert results["BEST"].flushes == 0
    for t in ("LA", "AT", "SC-offline"):
        assert results[t].flushes <= stores
    assert results["LA"].flushes <= results["AT"].flushes
    assert results["LA"].flushes <= results["SC-offline"].flushes


@settings(max_examples=25, deadline=None)
@given(event_streams())
def test_la_flushes_equal_distinct_lines_per_drain(events):
    """LA's flush count is exactly the number of distinct (line, drain
    epoch) pairs — the analytical lower bound of Table III."""
    _m, res = run(events, "LA")
    # Reconstruct the bound from the event stream.
    distinct = 0
    pending = set()
    depth = 0
    for ev in events:
        if ev.kind == 0 and ev.addr >= NVRAM_BASE:      # store
            pending.add(ev.addr >> 6)
        elif ev.kind == 3:
            depth += 1
        elif ev.kind == 4:
            depth -= 1
            if depth == 0:
                distinct += len(pending)
                pending.clear()
    distinct += len(pending)        # final drain
    assert res.flushes == distinct


@settings(max_examples=25, deadline=None)
@given(event_streams())
def test_hw_accesses_match_issued_operations(events):
    machine, res = run(events, "BEST")
    issued = sum(1 for ev in events if ev.kind in (0, 1))
    assert machine.hwcache.accesses == issued


@settings(max_examples=20, deadline=None)
@given(event_streams(), st.sampled_from(["LA", "AT", "SC-offline"]))
def test_nothing_left_dirty_after_finish(events, technique):
    """After the final drain only BEST may leave dirty persistent lines."""
    machine, _res = run(events, technique)
    assert l1_dirty(machine.hwcache) == []


# -- line-touch runs: the batched loop against the per-event oracle ---------


class BatchedListWorkload(ListWorkload):
    """The same events in both encodings, cut into ``chunk``-event batches
    so batch edges fall inside runs."""

    def __init__(self, streams, chunk):
        super().__init__(*streams)
        self._chunk = chunk

    def batch_streams(self, num_threads, seed):
        return [batches_from_events(iter(s), self._chunk) for s in self._streams]


#: Lines 0-3 are persistent, 4-5 volatile.
LINE_POOL = [NVRAM_BASE + i * 64 for i in range(4)] + [4096, 4160]


#: ``WORK`` amounts inside runs.  An ER store costs 905 cycles besides
#: (``l1_hit + l1_miss + flush_issue + cost_per_store``), so 995 ± 1 and
#: 4095 ± 1 put consecutive flushes on both sides of one write-back
#: service time (1900 and 5000 below): the edge of a saturated queue.
RUN_WORK = [2, 72, 995, 4095]


@st.composite
def run_heavy_streams(draw):
    """Mostly runs of stores to one line — four in five pieces repeat the
    previous piece's line — with lengths straddling the 64-event quantum,
    computation inside them, and every run-breaking event between them."""
    pieces = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["run"] * 5 + ["load", "fase", "wide", "work"]),
                st.sampled_from([None] * 4 + [0, 1, 2, 3, 4, 5]),
                st.sampled_from([1, 2, 3, 7, 31, 62, 63, 64, 65, 66, 130]),
                st.sampled_from([0, 0, 1, 3]),
                st.sampled_from(RUN_WORK),
            ),
            min_size=1,
            max_size=10,
        )
    )
    events = []
    depth = 0
    base = LINE_POOL[0]
    for op, line, length, work_every, work in pieces:
        if line is not None:
            base = LINE_POOL[line]
        if op == "run":
            for j in range(length):
                events.append(Store(base + (j % 8) * 8, 8))
                if work_every and j % work_every == 0:
                    events.append(Work(work - 1 + j % 3))
        elif op == "load":
            events.append(Load(base, 8))
        elif op == "wide":
            events.append(Store(base + 60, 8))
        elif op == "work":
            events.append(Work(length))
        elif depth and length % 2:
            events.append(FaseEnd())
            depth -= 1
        else:
            events.append(FaseBegin())
            depth += 1
    events.extend(FaseEnd() for _ in range(depth))
    return events


def adaptive(burst, skip=0):
    return {"adaptive_config": AdaptiveConfig(burst_length=burst, initial_skip=skip)}


#: Every way a technique answers ``absorb_repeats``: never (ER), always
#: (LA, AT, SC-offline, BEST), and unless a sampler phase edge lies in the
#: run (SC and the victim stage, which passes repeats through).
RUN_TECHNIQUES = {
    "ER": lambda *sampling: {},
    "LA": lambda *sampling: {},
    "AT": lambda *sampling: {},
    "BEST": lambda *sampling: {},
    "SC": adaptive,
    "SC-offline": lambda *sampling: {"sc_fixed_size": 4},
    "SC+victim:1": adaptive,
    "SC+victim:2": adaptive,
    "SC+victim:16": adaptive,
}


def run_engine(streams, chunk, technique, burst, use_batches, **run_kwargs):
    """One run; returns ``(machine, everything observable about it)``."""
    config = run_kwargs.pop("config", MachineConfig())
    skip = run_kwargs.pop("skip", 0)
    # Untraced is when write-through runs and inert quantum edges apply.
    traced = run_kwargs.pop("traced", True)
    metrics = run_kwargs.pop("metrics", None)
    inner = technique_factory(technique, **RUN_TECHNIQUES[technique](burst, skip))
    made, entered = [], [0]

    def factory(tid):
        # A store enters a technique at ``insert`` (both engines call it);
        # an SC's at its cache's ``access``, since an adaptive SC's
        # ``insert`` becomes that ``access`` when its burst closes —
        # dropping any wrapper over it (counted below, on the class).
        instance = inner(tid)
        made.append(instance)
        if getattr(instance, "cache", None) is not None:
            return instance
        call = instance.insert

        def counted(line):
            entered[0] += 1
            return call(line)

        instance.insert = counted
        return instance

    def counted_access(cache, line):
        entered[0] += 1
        return access(cache, line)

    recorder = run_kwargs.pop("recorder", TraceRecorder() if traced else None)
    live = "crash_plan" in run_kwargs
    machine = (LiveCrashMachine if live else Machine)(config, recorder=recorder, metrics=metrics)
    queues, new_context = [], machine._new_context

    def queued_context(*args):
        ctx = new_context(*args)
        queues.append(ctx.flushq)
        return ctx

    machine._new_context = queued_context
    access = WriteCombiningCache.access
    WriteCombiningCache.access = counted_access
    workload = BatchedListWorkload(streams, chunk)
    try:
        result = machine.run(
            workload,
            factory,
            num_threads=len(streams),
            seed=0,
            use_batches=use_batches,
            **run_kwargs,
        )
    finally:
        WriteCombiningCache.access = access
    hw = machine.hwcache
    caches = [getattr(t, "cache", None) for t in made]
    tables = [getattr(t, "table", None) for t in made]
    observed = {
        "threads": [dataclasses.asdict(t) for t in result.threads],
        "crashed": (result.crashed, machine.crashed_state if live else None),
        "l1": (hw.loads, hw.stores, hw.load_misses, hw.store_misses,
               hw.evict_writebacks, hw.flush_writebacks, hw.clean_flushes),
        "dirty": sorted(l1_dirty(hw)),
        "jsonl": recorder.to_jsonl() if recorder is not None else None,
        "write_caches": [c.snapshot() for c in caches if c is not None],
        "atlas_tables": [(t.hits, t.misses, t.conflicts) for t in tables if t is not None],
        # The loop writes its inline issues back to each thread's queue:
        # a forgotten count or a stale ``_seen`` shows here.
        "flush_queues": [(q.last_completion, q.issued, q.outstanding) for q in queues],
    }
    # Persistent line touches: the rows of the program's write traces.
    touches = sum(
        WriteTrace.from_batches(batches, tid, NVRAM_BASE).n
        for tid, batches in enumerate(workload.batch_streams(len(streams), 0))
    )
    return machine, observed, entered[0], touches


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(run_heavy_streams(), min_size=1, max_size=4),
    st.sampled_from([1, 50, 64, 100, 4096]),
    # ER is the one technique whose runs are write-through: every third draw.
    st.sampled_from(sorted(RUN_TECHNIQUES) + ["ER"] * 3),
    st.integers(min_value=2, max_value=90),
    st.sampled_from([1, 2, 8]),
    st.sampled_from([0, 100, 1900, 5000]),
    # The sampler's other phase: a warm-up before the burst.
    st.sampled_from([0, 0, 1, 5, 40]),
)
def test_coalesced_runs_match_the_per_event_engine(
    streams, chunk, technique, burst, depth, service, skip
):
    """Everything a run leaves behind — counters the goldens carry and the
    ones they cannot see — is the same whether repeats were absorbed or
    executed one by one, traced (every flush observed, every quantum edge
    kept) or not, on a flush queue that saturates or never fills, with the
    sampler warming up, recording or done."""
    config = MachineConfig(
        timing=TimingModel(flush_queue_depth=depth, writeback_service=service)
    )
    for traced in (True, False):
        m_b, batched, calls_b, touches = run_engine(
            streams, chunk, technique, burst, True, config=config, traced=traced,
            skip=skip,
        )
        m_e, per_event, calls_e, _ = run_engine(
            streams, chunk, technique, burst, False, config=config, traced=traced,
            skip=skip,
        )
        assert batched == per_event
        assert m_e.absorbed_stores == 0
        if technique == "BEST":
            assert calls_b == 0                 # no flush category: never called
        else:
            assert calls_e == touches
            assert m_b.absorbed_stores + calls_b == touches
        if technique == "ER":
            # Traced or not, only a store across two lines reaches ER's
            # ``insert``: every other touch is a write-through train's.
            wide = sum(
                2 for s in streams for ev in s
                if isinstance(ev, Store) and ev.addr >= NVRAM_BASE
                and ev.addr >> 6 != (ev.addr + ev.size - 1) >> 6
            )
            assert m_b.absorbed_stores == touches - wide


@st.composite
def commit_heavy_streams(draw):
    """Many short FASEs — one to four single-line stores each over ten
    lines, some repeated, computation between — with loads and idle
    stretches between the FASEs: most flushes are a commit's."""
    fases = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.integers(0, 9), st.sampled_from([0, 0, 5, 995])),
                    min_size=1,
                    max_size=4,
                ),
                st.sampled_from([0, 0, 1, 40, 4000]),
                st.sampled_from([None, None, 0, 3, 12]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    events = []
    for stores, idle, load in fases:
        events.append(FaseBegin())
        for j, (line, work) in enumerate(stores):
            events.append(Store(NVRAM_BASE + line * 64 + (j % 8) * 8, 8))
            if work:
                events.append(Work(work))
        events.append(FaseEnd())
        if idle:
            events.append(Work(idle))
        if load is not None:
            events.append(Load(NVRAM_BASE + load * 64, 8))
    return events


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(commit_heavy_streams(), min_size=1, max_size=3),
    st.sampled_from(["LA", "AT", "SC", "SC-offline", "SC+victim:2", "ER"]),
    st.sampled_from([1, 2, 8]),
    st.sampled_from([0, 100, 1900]),
    # A small L1 writes lines back before their commit: clean flushes,
    # after the commit's last write-back too when a set holds one line.
    st.sampled_from([(512, 8), (8, 2), (4, 1)]),
)
def test_a_commit_is_one_flush_train(streams, technique, depth, service, l1):
    """A FASE commit is one flush train, traced or not, and ER's stores
    never reach ``insert``: batched equals ``_process_event`` down to the
    L1 counters, the trace bytes and each thread's final flush queue, and
    both equal a value-tracking run, whose commits flush line by line —
    the train's own oracle."""
    config = MachineConfig(
        timing=TimingModel(flush_queue_depth=depth, writeback_service=service),
        l1_capacity_lines=l1[0],
        l1_ways=l1[1],
    )
    oracle = run_engine(
        streams, 4096, technique, 20, False,
        config=dataclasses.replace(config, track_values=True),
    )[1]
    for traced in (True, False):
        for use_batches in (True, False):
            machine, seen, calls, touches = run_engine(
                streams, 4096, technique, 20, use_batches, config=config, traced=traced
            )
            assert seen == (oracle if traced else dict(oracle, jsonl=None))
            if technique == "ER" and use_batches:
                assert calls == 0
                assert machine.absorbed_stores == touches


@st.composite
def eviction_heavy_streams(draw):
    """Short runs over 24 persistent lines — more than AT's eight slots
    and SC's eight (SC-offline's four) entries — in and between FASEs,
    with computation and loads: most head stores evict."""
    pieces = draw(
        st.lists(
            st.tuples(
                st.integers(0, 23),
                st.sampled_from([1, 1, 2, 5]),
                st.sampled_from([0, 0, 3, 995]),
                st.sampled_from([None, None, None, "load", "begin", "end"]),
            ),
            min_size=1,
            max_size=80,
        )
    )
    events = []
    depth = 0
    for line, length, work, extra in pieces:
        base = NVRAM_BASE + line * 64
        events += [Store(base + (j % 8) * 8, 8) for j in range(length)]
        if work:
            events.append(Work(work))
        if extra == "load":
            events.append(Load(base, 8))
        elif extra == "begin":
            events.append(FaseBegin())
            depth += 1
        elif extra == "end" and depth:
            events.append(FaseEnd())
            depth -= 1
    events.extend(FaseEnd() for _ in range(depth))
    return events


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.lists(eviction_heavy_streams(), min_size=1, max_size=3),
    st.sampled_from(["AT", "SC", "SC-offline", "SC+victim:2"]),
    st.sampled_from([7, 64, 4096]),
    st.sampled_from([1, 2, 8]),
    st.sampled_from([0, 100, 1900]),
    st.sampled_from([(512, 8), (8, 2)]),
)
def test_an_eviction_flush_is_issued_inline_as_the_port_issues_it(
    streams, technique, chunk, depth, service, l1
):
    """The batched loop flushes what a technique's ``insert``
    evicts on its own locals: batched equals ``_process_event`` down to
    the L1 counters, traced (the JSONL byte for byte) and untraced, and
    the untraced run equals the traced one."""
    config = MachineConfig(
        timing=TimingModel(flush_queue_depth=depth, writeback_service=service),
        l1_capacity_lines=l1[0],
        l1_ways=l1[1],
    )
    observed = {}
    for traced in (True, False):
        for use_batches in (True, False):
            observed[traced, use_batches] = run_engine(
                streams, chunk, technique, 20, use_batches, config=config, traced=traced
            )[1]
    assert observed[True, True] == observed[True, False]
    untraced = dict(observed[False, True], jsonl=None)
    assert untraced == dict(observed[False, False], jsonl=None)
    assert untraced == dict(observed[True, True], jsonl=None)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("technique", ["AT", "SC-offline"])
def test_a_batched_eviction_never_reaches_the_port(technique, traced, monkeypatch):
    """A count, not a timing: every eviction of a store that heads its
    visit is the loop's own — it reaches neither the port nor
    ``Machine._do_flush``, which every port flush goes through — and the
    per-event engine's go through ``_do_flush`` one by one."""
    port_evictions = [0]
    do_flush = Machine._do_flush

    def spy(self, ctx, line, category):
        port_evictions[0] += category == "eviction"
        do_flush(self, ctx, line, category)

    monkeypatch.setattr(Machine, "_do_flush", spy)
    stream = [FaseBegin()] + [
        Store(NVRAM_BASE + (k * 7 % 24) * 64 + j * 8, 8)
        for k in range(300)
        for j in range(k % 3 + 1)
    ] + [FaseEnd()]
    for use_batches in (True, False):
        port_evictions[0] = 0
        seen = run_engine([stream], 4096, technique, 20, use_batches, traced=traced)[1]
        evictions = seen["threads"][0]["eviction_flushes"]
        assert evictions > 200
        assert port_evictions[0] == (0 if use_batches else evictions)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("technique", ["AT", "SC-offline", "LA", "ER"])
def test_the_batched_loop_issues_its_flushes_inline(technique, traced, monkeypatch):
    """A count, not a timing: the batched loop issues every commit, victim
    and ER head flush on its own locals — no ``FlushQueue`` method — while
    the per-event engine issues each written-back flush through ``issue``
    and drains once per non-empty commit.  Each store stays in one line
    and the 24 lines fit the L1, so no write-back eviction issues either."""
    calls = dict.fromkeys(["issue", "issue_train", "drain"], 0)
    for name in calls:
        def counted(*args, _call=getattr(FlushQueue, name), _name=name):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(FlushQueue, name, counted)
    fases = 60
    stream = []
    for f in range(fases):
        stream += [FaseBegin()] + [
            Store(NVRAM_BASE + (f + 5 * k) % 24 * 64 + k % 8 * 8, 8) for k in range(f % 12 + 1)
        ] + [FaseEnd()]
    for use_batches in (True, False):
        calls.update(dict.fromkeys(calls, 0))
        seen = run_engine([stream], 4096, technique, 20, use_batches, traced=traced)[1]
        flushes = seen["threads"][0]
        assert (flushes["eviction_flushes"] > 0) == (technique in ("AT", "SC-offline"))
        assert (flushes["eager_flushes"] > 0) == (technique == "ER")
        assert seen["l1"][4] == 0   # no write-back eviction
        if use_batches:
            assert calls == dict.fromkeys(calls, 0)
        else:
            assert calls == {
                "issue": seen["l1"][5],     # one per written-back flush
                "issue_train": 0,
                "drain": 0 if technique == "ER" else fases,
            }


A, B, C, D = (NVRAM_BASE + i * 64 for i in range(4))
#: SC caches A, B, C during the sampler's three-write warm-up; the burst
#: then sees five stores to D and closes — selecting size 1 — on a store
#: to A, the cache's oldest entry, which opens a run.
SHRINK_ONTO_OWN_LINE = (
    [Store(A, 8), Store(B, 8), Store(C, 8)]
    + [Store(D, 8)] * 5
    + [Store(A + 8 * j, 8) for j in range(6)]
    + [Store(B, 8)] * 3
)


@pytest.mark.parametrize(
    "technique, streams, skip",
    [
        ("SC", [SHRINK_ONTO_OWN_LINE], 3),
        ("SC+victim:16", [SHRINK_ONTO_OWN_LINE], 3),
        ("SC+victim:1", [SHRINK_ONTO_OWN_LINE], 3),
    ],
)
def test_a_resize_that_evicts_the_stored_line_splits_its_run(
    technique, streams, skip, monkeypatch
):
    """``insert(A)`` shrinks the cache and so flushes (or parks) A
    itself before re-inserting it: the first repeat is then no pure hit —
    an L1 miss, a re-dirtied line, a victim rescue — and must execute.
    A's run goes store by store; the run on B after it is absorbed (2).

    A sampling SC takes runs too since the visit-table loop: the burst's
    five stores to D are one ``insert`` (it opens the burst) and four
    repeats recorded as one slice, short of the sixth write that closes
    it — 4 + 2."""
    evicted = []
    resize = WriteCombiningCache.resize
    monkeypatch.setattr(
        WriteCombiningCache,
        "resize",
        lambda self, size: evicted.append(resize(self, size)) or evicted[-1],
    )
    m_b, batched, _, _ = run_engine(streams, 4096, technique, 6, True, skip=skip)
    _m, per_event, _, _ = run_engine(streams, 4096, technique, 6, False, skip=skip)
    assert any(A >> 6 in lines for lines in evicted)    # scenario reached
    assert batched == per_event
    assert m_b.absorbed_stores == 6


@pytest.mark.parametrize("technique", ["AT", "LA", "SC-offline", "BEST", "SC"])
def test_a_settled_technique_takes_a_quantums_repeats_in_one_call(technique, monkeypatch):
    """A settled technique's ``insert`` reads no clock and its
    ``absorb_repeats`` takes every run on a count alone: once a thread's
    technique has taken a run while settled, the batched loop sums each
    quantum's repeats into one call at the quantum's end — an SC's from
    the quantum after its burst closes.  So in the quanta that start
    settled, at most one call each, bar the first taken run's quantum
    (that run's own call and the sum's); results as the per-event engine's."""
    cls = type(technique_factory(technique, **RUN_TECHNIQUES[technique](9, 10))(0))
    calls, quanta = [], []
    absorb, run_batches = cls.absorb_repeats, Machine._run_batches

    def counted(self, line, n):
        calls.append(n)
        return absorb(self, line, n)

    def quantum(self, ctx, budget):
        before, settled = len(calls), not ctx.technique.settling
        try:
            return run_batches(self, ctx, budget)
        finally:
            quanta.append((ctx.thread_id, settled, len(calls) - before))

    monkeypatch.setattr(cls, "absorb_repeats", counted)
    monkeypatch.setattr(Machine, "_run_batches", quantum)
    _m, batched, _, _ = run_engine([SEVENS] * 2, 4096, technique, 9, True, skip=10)
    _m, per_event, _, _ = run_engine([SEVENS] * 2, 4096, technique, 9, False, skip=10)
    assert batched == per_event
    for tid in (0, 1):
        settled = [count for i, after, count in quanta if i == tid and after]
        first = next(k for k, count in enumerate(settled) if count)
        assert settled[first] <= 2 and max(settled[first + 1:]) == 1, settled
    assert max(calls) > 6       # a quantum's runs of seven, summed


def test_a_parked_lines_repeat_is_declined_and_rescued(monkeypatch):
    """The victim cache is never settled: the resize at its burst's end
    parks A, the store it closes on, and A's repeat is declined — it
    arrives by ``insert``, which rescues A from the victim buffer."""
    absorb, insert = VictimCacheTechnique.absorb_repeats, VictimCacheTechnique.insert
    declined, rescued = [], []

    def spied_absorb(self, line, n):
        taken = absorb(self, line, n)
        if not taken:
            declined.append(line)
        return taken

    def spied_insert(self, line):
        if line in self._victim:
            rescued.append(line)
        return insert(self, line)

    monkeypatch.setattr(VictimCacheTechnique, "absorb_repeats", spied_absorb)
    monkeypatch.setattr(VictimCacheTechnique, "insert", spied_insert)
    assert technique_factory("SC+victim:16", **adaptive(6, 3))(0).settling
    seen = {}
    for use_batches in (True, False):
        declined.clear()
        rescued.clear()
        seen[use_batches] = run_engine(
            [SHRINK_ONTO_OWN_LINE], 4096, "SC+victim:16", 6, use_batches, skip=3
        )[1], list(rescued), list(declined)
    assert seen[True][2] == [A >> 6]            # the per-event engine asks none
    assert seen[True][:2] == seen[False][:2]
    assert seen[True][1] == [A >> 6, B >> 6]    # B parked too, rescued by its head


#: Runs of seven stores over three lines, computation inside them: store
#: ``k`` of a thread belongs to run ``k // 7``.
SEVENS = [
    ev
    for run in range(12)
    for j in range(7)
    for ev in (Store(NVRAM_BASE + run % 3 * 64 + j * 8, 8), Work(3 + j))
]


@pytest.mark.parametrize("chunk", [1, 50, 64, 4096])
@pytest.mark.parametrize("threads", [1, 2, 4])
# The ids keep a column for the hibernation after the burst: ``None``,
# the paper's infinite one, is the sampler's only kind.
@pytest.mark.parametrize(
    "skip, burst",
    [
        # warm-up ends at store 10, the burst closes at 19
        pytest.param(10, 9, id="10-9-None"),
        # the first store opens the burst; closes at 10
        pytest.param(0, 10, id="0-10-None"),
        # opens on a run's head (14), closes on a run's last store (27)
        pytest.param(14, 14, id="14-14-None"),
        # warm-up as the first; closes at 32, inside run 4 — traced at
        # two threads, the first store after the first quantum cut
        pytest.param(10, 23, id="10-23-None"),
    ],
)
@pytest.mark.parametrize("technique", ["SC", "SC+victim:16"])
def test_a_run_straddles_every_sampler_phase_edge(technique, skip, burst, threads, chunk):
    """Warm-up → recording and recording → closed each fall inside a
    seven-store run (in the 14-14 case, on its ends): a run with an edge in
    it arrives store by store, every other one is taken as a slice, and
    the burst opens, closes and resizes at the cycle the per-event engine
    says."""
    streams = [SEVENS] * threads
    for traced in (True, False):
        m_b, batched, calls_b, touches = run_engine(
            streams, chunk, technique, burst, True, skip=skip, traced=traced
        )
        _m, per_event, _, _ = run_engine(
            streams, chunk, technique, burst, False, skip=skip, traced=traced
        )
        assert batched == per_event
        assert all(t["selected_sizes"] for t in batched["threads"])
        assert m_b.absorbed_stores + calls_b == touches == 84 * threads
        if chunk > 1:
            # Runs are absorbed in every phase; what is not is each run's
            # head, the rest of a run cut by a batch or quantum edge, and
            # the five runs at most with a phase edge in them.
            assert m_b.absorbed_stores > 0.3 * touches


def test_a_quantum_that_opens_on_work_inside_a_run():
    """Thread 0's first quantum ends on the second store of a run whose
    next two events are ``WORK``: the second quantum must execute both
    before it takes the store after them as the head of the rest.  (Skip
    to that store and 12 instructions, 12 cycles go missing.)"""
    straddling = [Work(1)] * 62 + [
        Store(A, 8), Store(A + 8, 8), Work(5), Work(7),
        Store(A + 16, 8), Store(A + 24, 8), Work(3), Store(A + 32, 8),
    ]
    other = [Store(B + (j % 8) * 8, 8) for j in range(200)]
    for technique in ("LA", "AT", "SC", "SC-offline", "BEST", "ER"):
        for traced in (True, False):
            m_b, batched, calls_b, touches = run_engine(
                [straddling, other], 4096, technique, 3, True, traced=traced
            )
            _m, per_event, _, _ = run_engine(
                [straddling, other], 4096, technique, 3, False, traced=traced
            )
            assert batched == per_event
            assert batched["threads"][0]["instructions"] >= 62 + 5 + 7 + 3 + 5
            if technique != "ER" or not traced:
                assert m_b.absorbed_stores >= 3  # thread 0's, either side of the edge


def test_long_runs_are_entered_once_per_quantum():
    """The point of the exercise, as a count: 200 stores to one line cost
    LA one ``insert`` per 64-event quantum, not 200."""
    stream = [Store(NVRAM_BASE + (j % 8) * 8, 8) for j in range(200)]
    machine, _obs, calls, touches = run_engine([stream], 4096, "LA", 2, True)
    assert (touches, calls, machine.absorbed_stores) == (200, 4, 196)
    # Untraced, nothing observes the edges and no other thread waits at
    # them: one quantum, one ``insert`` — and none for ER, whose 200
    # stores are one train of flushes.
    for technique, once in (("LA", 1), ("ER", 0)):
        machine, obs, calls, touches = run_engine(
            [stream], 4096, technique, 2, True, traced=False
        )
        assert (touches, calls, machine.absorbed_stores) == (200, once, 200 - once)
    assert obs["threads"][0]["eager_flushes"] == 200
    # Two threads alternate at every edge while both can run — one call
    # per quantum each; the longer one's last 208 stores, when it is
    # alone, are one quantum over the table already cut at its edges —
    # one call per 64 of them.
    other = [Store(NVRAM_BASE + 64 + (j % 8) * 8, 8) for j in range(400)]
    machine, _obs, calls, touches = run_engine(
        [stream, other], 4096, "LA", 2, True, traced=False
    )
    assert (touches, calls, machine.absorbed_stores) == (600, 4 + 3 + 4, 589)


class QuantumCountingRecorder(TraceRecorder):
    def __init__(self):
        super().__init__()
        self.quanta = []

    def on_quantum(self, thread_id, now):
        self.quanta.append((thread_id, now))


def test_an_observed_quantum_edge_stays_where_it_is():
    """A lone thread's quantum edge is inert only when nothing looks at
    it.  A metrics registry and a recorder each keep all of them, 64
    events apart: what they see is what the per-event engine shows them.
    No technique looks, so an unobserved staged run is one quantum."""
    # FASEs of 42 events over five lines, computation between the stores:
    # most edges fall inside a FASE with lines cached.
    stream = []
    for fase in range(10):
        stream.append(FaseBegin())
        for j in range(20):
            stream += [Store(NVRAM_BASE + (fase + j) % 5 * 64, 8), Work(3000)]
        stream.append(FaseEnd())
    edges = -(-len(stream) // 64)

    def both_engines(technique, **kwargs):
        runs = [
            run_engine([stream], 4096, technique, 60, use_batches, **kwargs)[1]
            for use_batches in (True, False)
        ]
        assert runs[0] == runs[1]
        return runs[0]

    both_engines("SC+victim:16", traced=False)
    machine = Machine(MachineConfig())
    runner, budgets = machine._run_batches, []

    def counted(ctx, budget):
        budgets.append(budget)
        return runner(ctx, budget)

    machine._run_batches = counted
    machine.run(
        BatchedListWorkload([stream], 4096), technique_factory("SC+victim:16"),
        num_threads=1, seed=0, use_batches=True,
    )
    assert len(budgets) == 1

    registries = [MetricsRegistry(interval=1), MetricsRegistry(interval=1)]
    for use_batches, registry in zip((True, False), registries):
        run_engine(
            [stream], 4096, "AT", 60, use_batches, traced=False, metrics=registry
        )
    assert registries[0].to_dict() == registries[1].to_dict()
    assert len(registries[0].series("flush_queue_depth/t0")[0]) == edges

    recorders = [QuantumCountingRecorder(), QuantumCountingRecorder()]
    for use_batches, recorder in zip((True, False), recorders):
        run_engine([stream], 4096, "AT", 60, use_batches, recorder=recorder)
    assert recorders[0].quanta == recorders[1].quanta
    assert recorders[0].to_jsonl() == recorders[1].to_jsonl()
    assert len(recorders[0].quanta) == edges


RUN_WITH_WORK = (
    [Store(NVRAM_BASE + 64, 8), Store(NVRAM_BASE + 128, 8), FaseBegin()]
    + [ev for j in range(12) for ev in (Store(NVRAM_BASE + (j % 8) * 8, 8), Work(5))]
    + [Store(NVRAM_BASE + 192, 8), FaseEnd()]
)


@pytest.mark.parametrize("technique", ["LA", "AT", "SC-offline", "BEST", "ER"])
@pytest.mark.parametrize("track_values", [False, True])
def test_store_count_crash_inside_a_run(technique, track_values):
    """A power cut at every ``store`` site of a run with ``WORK`` in it,
    one plan per position: an armed machine executes event by event, so
    the captured state — image, lost lines, ``at_store`` — and every
    counter up to the cut are the same whichever ``use_batches`` value
    was passed, untraced too, and nothing is ever absorbed."""
    config = MachineConfig(track_values=track_values)
    golden = Machine(config)
    sites = golden.record_sites()
    golden.run(
        BatchedListWorkload([RUN_WITH_WORK], 4096),
        technique_factory(technique, **RUN_TECHNIQUES[technique](2, 0)),
        seed=0,
    )
    stores = [index for index, site_class, *_ in sites if site_class == "store"]
    assert len(stores) == 15
    for after, site in enumerate(stores, 1):
        for traced in (True, False):
            runs = [
                run_engine(
                    [RUN_WITH_WORK], 4096, technique, 2, use_batches, traced=traced,
                    config=config, crash_plan=CrashPlan(at_site=site),
                )
                for use_batches in (True, None, False)
            ]
            (m_b, batched, _, _), (_m, auto, _, _), (_m, per_event, _, _) = runs
            assert batched == auto == per_event
            crashed, state = batched["crashed"]
            assert crashed and state.at_store == after and state.at_site == site
            assert m_b.absorbed_stores == 0


@pytest.mark.parametrize("technique", ["AT", "SC", "SC-offline", "SC+victim:16"])
@pytest.mark.parametrize("threads", [1, 4])
def test_technique_counters_survive_coalescing_on_a_splash_stream(technique, threads):
    """What ``RunResult`` and the goldens do not carry — the write cache's
    ``snapshot()``, the Atlas table's counters — on a stream where most
    stores are absorbed."""
    workload = get_workload("water-spatial", scale=0.02)
    kwargs = {"sc_fixed_size": 12} if technique == "SC-offline" else {}
    if technique.startswith("SC") and not kwargs:
        kwargs = adaptive(60)
    seen = {}
    for use_batches in (True, False):
        made = []
        inner = technique_factory(technique, **kwargs)
        machine = Machine(MachineConfig())
        result = machine.run(
            workload,
            lambda tid: made.append(inner(tid)) or made[-1],
            num_threads=threads,
            seed=7,
            use_batches=use_batches,
        )
        seen[use_batches] = (
            [t.cache.snapshot() for t in made if t.cache is not None]
            if technique != "AT"
            else [(t.table.hits, t.table.misses, t.table.conflicts) for t in made],
            machine.hwcache.stores,
            machine.hwcache.store_misses,
            [dataclasses.asdict(t) for t in result.threads],
        )
        if use_batches:
            assert machine.absorbed_stores > 0.7 * result.persistent_stores
    assert seen[True] == seen[False]


# -- the write trace is a column pass ---------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.one_of(run_heavy_streams(), event_streams()), min_size=1, max_size=3),
    st.sampled_from([1, 50, 64, 4096]),
)
def test_trace_from_columns_is_the_trace_the_machine_records(streams, chunk):
    """``WriteTrace.from_batches`` against the lines a BEST run stores
    (``tests/trace_reference.py``): nested FASEs, stores spanning two
    lines, stores below ``NVRAM_BASE``, loads, empty threads, batch edges
    anywhere."""
    workload = BatchedListWorkload(streams, chunk)
    result, recorded = recorded_traces(workload, len(streams), 0)
    programs = [list(s) for s in workload.batch_streams(len(streams), 0)]
    for tid, (batches, want) in enumerate(zip(programs, recorded)):
        got = WriteTrace.from_batches(batches, tid, NVRAM_BASE)
        assert got.lines.tolist() == want.lines.tolist()
        assert got.fase_ids.tolist() == want.fase_ids.tolist()
    assert result.persistent_stores == sum(
        b.count_stores(NVRAM_BASE) for batches in programs for b in batches
    )


@pytest.mark.parametrize(
    "events",
    [
        [FaseBegin(), Store(NVRAM_BASE, 8), FaseEnd(), FaseEnd(), FaseBegin()],
        [Store(NVRAM_BASE, 8), FaseBegin(), FaseBegin(), FaseEnd()],
    ],
    ids=["end-at-depth-0", "ends-inside-a-fase"],
)
def test_malformed_bracketing_is_the_same_typed_error_from_both(events):
    workload = BatchedListWorkload([events], 2)
    with pytest.raises(SimulationError) as simulated:
        Machine(MachineConfig()).run(
            workload, technique_factory("BEST"), num_threads=1, seed=0
        )
    with pytest.raises(SimulationError) as derived:
        WriteTrace.from_batches(workload.batch_streams(1, 0)[0], 0, NVRAM_BASE)
    assert str(derived.value) == str(simulated.value)
