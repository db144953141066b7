"""Live generators on the batched loop: one quantum at a time.

A workload with no batch stream — ``queue`` and ``linked-list`` above one
thread, whose generators share an allocator, or any bare generator
workload — runs each thread's next quantum as visit rows of span 0
(``repro.nvram.machine._live_quanta``).  Everything it leaves behind must be what the
per-event reference (``use_batches=False``) leaves: every counter, the
L1 image, the trace JSONL and the metrics.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.cache.adaptive import AdaptiveConfig
from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError, SimulationError
from repro.common import events
from repro.common.events import FaseBegin, FaseEnd, Load, Store, Work
from repro.experiments.harness import Harness, HarnessConfig
from repro.nvram.machine import SCHED_BATCH, Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.workloads import base
from repro.workloads.base import BatchCachingWorkload, Workload
from repro.workloads.registry import get_workload
from tests.trace_reference import TraceRecordingMachine, recorded_traces

SEED = 7
#: (spec, factory keywords): every base technique and the victim stage,
#: with a burst short enough for SC to select a size.
TECHNIQUES = {
    "ER": {},
    "LA": {},
    "AT": {},
    "SC": {"adaptive_config": AdaptiveConfig(burst_length=300)},
    "SC-offline": {"sc_fixed_size": 8},
    "BEST": {},
    "SC+victim:4": {"adaptive_config": AdaptiveConfig(burst_length=300)},
}
WORKLOADS = {
    "queue": lambda: BatchCachingWorkload(get_workload("queue", scale=0.005)),
    "linked-list": lambda: BatchCachingWorkload(get_workload("linked-list", scale=0.02)),
}


class ListWorkload(Workload):
    """A bare generator workload: ``streams`` only, one list per thread."""

    name = "list"

    def __init__(self, *streams):
        self._streams = [list(s) for s in streams]

    def supports_threads(self, num_threads):
        return num_threads == len(self._streams)

    def streams(self, num_threads, seed):
        return [(ev for ev in s) for s in self._streams]


def every_row_code():
    """Each visit-row code: single-line persistent stores and loads, and
    the odd ones — across two lines, volatile — with nested FASEs."""
    events = []
    for k in range(150):
        line = NVRAM_BASE + 64 * (k % 11)
        events += [FaseBegin(), Work(k % 7 + 1), Store(line + 8 * (k % 8), 8)]
        if k % 3 == 0:
            events += [FaseBegin(), Store(line + 60, 8), FaseEnd()]
        if k % 5 == 0:
            events += [Store(4096 + 64 * (k % 3), 8), Load(4096, 8)]
        if k % 4 == 0:
            events += [Load(line, 8), Load(line + 62, 4)]
        events += [Store(line, 8), FaseEnd(), Work(900)]
    return events


def observe(workload, spec, threads, use_batches, traced):
    """Everything a run leaves behind, as one comparable structure."""
    recorder = TraceRecorder() if traced else None
    metrics = MetricsRegistry(interval=2000) if traced else None
    machine = Machine(MachineConfig(), recorder=recorder, metrics=metrics)
    result = machine.run(
        workload,
        technique_factory(spec, **TECHNIQUES[spec]),
        num_threads=threads,
        seed=SEED,
        use_batches=use_batches,
    )
    hw = machine.hwcache
    return {
        "result": result.to_dict(),
        "l1":(hw.loads, hw.stores, hw.load_misses, hw.store_misses,
               hw.evict_writebacks, hw.flush_writebacks, hw.clean_flushes),
        "l1_image": [list(ways.items()) for ways in hw.sets],
        "jsonl": recorder.to_jsonl() if traced else None,
        "metrics": metrics.to_dict() if traced else None,
    }


def assert_live_is_the_reference(workload, spec, threads):
    for traced in (False, True):
        with mock.patch.object(
            Machine, "_process_event", autospec=True, side_effect=Machine._process_event
        ) as spy:
            live = observe(workload, spec, threads, None, traced)
        assert spy.call_count == 0, (spec, threads, traced)
        reference = observe(workload, spec, threads, False, traced)
        assert live == reference, (spec, threads, traced)


@pytest.mark.parametrize("spec", sorted(TECHNIQUES))
@pytest.mark.parametrize("threads", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shared_allocator_quanta_match_the_reference(name, threads, spec):
    workload = WORKLOADS[name]()
    assert workload.batch_streams(threads, SEED) is None
    assert_live_is_the_reference(workload, spec, threads)


def test_sampler_edges_on_repeated_stores_match_the_reference():
    """SC on live ``queue`` quanta at two threads, its warm-up ending and
    its burst opening and closing on stores that repeat the previous
    store's line in the same FASE: the traced run is the reference's
    byte for byte."""
    workload = get_workload("queue", scale=0.02)
    trace = recorded_traces(workload, 2, SEED)[1][0]
    writes = list(zip(trace.lines.tolist(), trace.fase_ids.tolist()))
    repeats = [i for i in range(1, len(writes)) if writes[i] == writes[i - 1]]
    skip = next(i for i in repeats if i > 100 and i - 1 in repeats)
    close = next(i for i in repeats if i > skip + 200)
    config = AdaptiveConfig(burst_length=close - skip + 1, initial_skip=skip)
    jsonl = {}
    for use_batches in (None, False):
        recorder = TraceRecorder()
        machine = TraceRecordingMachine(recorder=recorder)
        result = machine.run(
            workload,
            technique_factory("SC", adaptive_config=config),
            num_threads=2,
            seed=SEED,
            use_batches=use_batches,
        )
        if use_batches is False:
            # SC stores what BEST stored: the edges above fall on repeats.
            assert machine.traces(2)[0].lines.tolist() == trace.lines.tolist()
        assert result.threads[0].selected_sizes
        jsonl[use_batches] = recorder.to_jsonl()
    assert jsonl[None] == jsonl[False]


@pytest.mark.parametrize("spec", sorted(TECHNIQUES))
def test_a_bare_generator_workload_matches_the_reference(spec):
    assert_live_is_the_reference(ListWorkload(every_row_code()), spec, 1)


class QuantumLog(TraceRecorder):
    def __init__(self):
        super().__init__()
        self.quanta = []

    def on_quantum(self, thread_id, now):
        self.quanta.append((thread_id, now))


def test_a_stream_of_whole_quanta_ends_on_the_reference_edge():
    """Exactly two quanta: the third, empty one only finds the end, at
    the edge the reference shows the recorder."""
    events = [FaseBegin()] + [Store(NVRAM_BASE + 64 * (k % 3), 8) for k in range(126)]
    events.append(FaseEnd())
    assert len(events) == 2 * SCHED_BATCH
    runs = []
    for use_batches in (None, False):
        recorder = QuantumLog()
        result = Machine(MachineConfig(), recorder=recorder).run(
            ListWorkload(events), technique_factory("AT"), use_batches=use_batches
        )
        runs.append((recorder.quanta, result.to_dict(), recorder.to_jsonl()))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 3


@pytest.mark.parametrize(
    "events,message",
    [
        ([FaseBegin()] * SCHED_BATCH, "thread 0 ended inside a FASE"),
        ([FaseBegin(), FaseBegin(), Store(NVRAM_BASE, 8), FaseEnd(), Work(5)],
         "thread 0 ended inside a FASE"),
        ([Store(NVRAM_BASE, 8), FaseEnd(), FaseBegin()], "FaseEnd without FaseBegin"),
    ],
    ids=["a-whole-quantum-inside-a-fase", "ends-inside-a-fase", "end-without-begin"],
)
def test_malformed_bracketing_raises_the_reference_error(events, message):
    errors = []
    for use_batches in (None, False):
        with pytest.raises(SimulationError, match=message) as raised:
            Machine(MachineConfig()).run(
                ListWorkload(events), technique_factory("SC"), use_batches=use_batches
            )
        errors.append(str(raised.value))
    assert errors[0] == errors[1]


class Tagged:
    """An object with an event's ``kind`` attribute but no such kind."""

    kind = 9

    def __repr__(self):
        return "Tagged(kind=9)"


@pytest.mark.parametrize("use_batches", [None, False], ids=["live", "per-event"])
@pytest.mark.parametrize(
    "element,shown", [(None, "None"), (17, "17"), (Tagged(), "Tagged(kind=9)")],
    ids=["none", "int", "kind-9"],
)
def test_a_stream_element_that_is_not_an_event_is_a_typed_error(element, shown, use_batches):
    good = [FaseBegin(), Store(NVRAM_BASE, 8), FaseEnd()] * 30
    workload = ListWorkload(good, good[:40] + [element] + good[40:])
    with pytest.raises(SimulationError) as raised:
        Machine(MachineConfig()).run(
            workload, technique_factory("AT"), num_threads=2, use_batches=use_batches
        )
    assert str(raised.value) == f"thread 1: stream element {shown} is not an event"


class StepWorkload(Workload):
    """A step emitter: ``steps`` only, one list of steps per thread."""

    name = "steps"

    def __init__(self, *per_thread):
        self._steps = per_thread

    def supports_threads(self, num_threads):
        return num_threads == len(self._steps)

    def steps(self, num_threads, seed):
        return [iter(steps) for steps in self._steps]


def fase_step(stores):
    return (
        [3, *[0] * stores, 4],
        [0, *[NVRAM_BASE + 8 * k for k in range(stores)], 0],
        [0, *[8] * stores, 0],
    )


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("use_batches", [None, False], ids=["batched", "per-event"])
@pytest.mark.parametrize(
    "short,shown", [((1, 2), "5/4/4"), ((2,), "5/5/4")], ids=["args", "sizes"]
)
def test_a_step_whose_columns_differ_in_length_is_a_typed_error(
    short, shown, use_batches, threads
):
    """Checked step by step: the next step is short where this one is
    long, so the stream's totals balance, and zipping the columns would
    silently drop the fifth event."""
    ragged, balance = fase_step(3), fase_step(3)
    for column in range(3):
        (ragged if column in short else balance)[column].pop()
    good = [fase_step(3)] * 40
    workload = StepWorkload(*[good] * (threads - 1), good[:7] + [ragged, balance] + good)
    want = f"thread {threads - 1}: step 7 has columns of lengths {shown} "
    with pytest.raises(SimulationError, match=want):
        Machine(MachineConfig()).run(
            workload, technique_factory("AT"), num_threads=threads, use_batches=use_batches
        )
    with pytest.raises(SimulationError, match=want):
        [list(s) for s in workload.streams(threads, SEED)]


@pytest.mark.parametrize("offset", [0, 8], ids=["aligned", "unaligned"])
@pytest.mark.parametrize("kind", [0, 1], ids=["store", "load"])
def test_a_negative_access_size_is_refused_everywhere(kind, offset):
    """One refusal, whether the access fits the one-line test or not:
    at the constructor, on both engines (a lone thread runs recorded
    batches, two run live steps) and through a session."""
    addr = NVRAM_BASE + offset
    refused = pytest.raises(ConfigurationError, match=r"^negative access size: -1$")
    with refused:
        (Store if kind == 0 else Load)(addr, -1)
    step = ([3, kind, 4], [0, addr, 0], [0, -1, 0])
    for threads, use_batches in ((1, None), (2, None), (1, False), (2, False)):
        workload = StepWorkload(*[[fase_step(3), step]] * threads)
        with refused:
            Machine(MachineConfig()).run(
                workload, technique_factory("AT"), num_threads=threads,
                use_batches=use_batches,
            )
    session = Machine(MachineConfig()).session(technique_factory("LA")(0))
    with refused:
        (session.store if kind == 0 else session.load)(addr, -1)
    if kind == 0:
        with refused:
            session.store_flushed(addr, -1, None, "log")


@pytest.fixture
def constructions(monkeypatch):
    """Count every per-object event built, and every call recording a
    per-object stream."""
    counts = Counter()
    for cls in (Store, Load, Work, FaseBegin, FaseEnd):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            counts[type(self).__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    for module in (events, base):
        record = module.batches_from_events

        def recording(*args, _record=record, **kwargs):
            counts["batches_from_events"] += 1
            return _record(*args, **kwargs)

        monkeypatch.setattr(module, "batches_from_events", recording)
    return counts


def test_the_constructions_spy_sees_decodings_and_recordings(constructions):
    list(get_workload("queue", scale=0.005).streams(1, SEED)[0])
    assert all(constructions[cls.__name__] for cls in (Store, Load, Work, FaseBegin, FaseEnd))
    BatchCachingWorkload(ListWorkload(())).batch_streams(1, SEED)
    assert constructions["batches_from_events"] == 1


def test_step_programs_record_and_run_live_without_event_objects(constructions):
    harness = Harness(HarnessConfig(scale=0.02, seed=SEED))
    assert harness.trace("queue").n > 0
    for name, spec in (("queue", "SC"), ("linked-list", "AT")):
        assert harness.workload(name).batch_streams(4, SEED) is None
        assert harness.run(name, spec, 4).persistent_stores > 0
    assert constructions == Counter()
