"""The event model and stream validation."""

import copy
import pickle
import random

import pytest

from repro.common.errors import SimulationError
from repro.common.events import (
    EventBatch,
    EventKind,
    FaseBegin,
    FaseEnd,
    Load,
    Store,
    Work,
    validate_stream,
)


def test_kind_tags_distinct():
    kinds = {
        Store(0).kind,
        Load(0).kind,
        Work(1).kind,
        FaseBegin().kind,
        FaseEnd().kind,
    }
    assert kinds == {
        EventKind.STORE,
        EventKind.LOAD,
        EventKind.WORK,
        EventKind.FASE_BEGIN,
        EventKind.FASE_END,
    }


def test_store_defaults():
    s = Store(0x100)
    assert s.size == 8 and s.value is None


def test_reprs_are_informative():
    assert "0x100" in repr(Store(0x100))
    assert "0x200" in repr(Load(0x200))
    assert "Work(5)" == repr(Work(5))


def test_validate_stream_passthrough():
    events = [FaseBegin(), Store(1), FaseEnd(), Work(2)]
    assert list(validate_stream(iter(events))) == events


def test_validate_stream_unmatched_end():
    with pytest.raises(SimulationError):
        list(validate_stream(iter([FaseEnd()])))


def test_validate_stream_unclosed_fase():
    with pytest.raises(SimulationError):
        list(validate_stream(iter([FaseBegin(), Store(1)])))


def test_validate_stream_nesting_ok():
    events = [FaseBegin(), FaseBegin(), FaseEnd(), FaseEnd()]
    assert len(list(validate_stream(iter(events)))) == 4


# -- line-touch runs --------------------------------------------------------

N0 = 1 << 40          # a line-aligned address in the persistence domain


def reference_runs(batch, cpi=1.0):
    """``EventBatch.line_runs`` as plain loops: mark the events that
    continue the previous event's run, then sum suffixes backwards."""
    kinds, args, sizes = batch.kinds, batch.args, batch.sizes
    n = len(kinds)
    cont, line = [], None
    for k, a, s in zip(kinds, args, sizes):
        if k == EventKind.WORK and 0 <= a < 1 << 40:
            cont.append(line is not None)
            continue
        single = k == EventKind.STORE and a >= 0 and a >> 6 == (a + s - 1) >> 6
        cont.append(single and line == a >> 6)
        line = a >> 6 if single else None
    cols = [[0] * n for _ in range(4)]
    for i in range(n - 2, -1, -1):
        if cont[i + 1]:
            w = args[i + 1] if kinds[i + 1] == EventKind.WORK else 0
            step = (1, kinds[i + 1] == EventKind.STORE, w, int(w * cpi))
            for col, inc in zip(cols, step):
                col[i] = col[i + 1] + inc
    return cols


def runs_of(batch, cpi=1.0):
    return [list(col) for col in batch.line_runs(cpi)]


def batch_of(*events):
    return EventBatch.from_events(events)


def test_line_runs_of_degenerate_batches():
    assert runs_of(EventBatch()) == [[], [], [], []]
    for lone in (Store(N0), Work(5), Load(N0), FaseBegin(), FaseEnd()):
        assert runs_of(batch_of(lone)) == [[0], [0], [0], [0]]


def test_one_run_spanning_the_whole_batch():
    batch = batch_of(Store(N0), Store(N0 + 8), Work(7), Store(N0 + 56, 8), Work(2))
    span, stores, work, cycles = runs_of(batch)
    assert span == [4, 3, 2, 1, 0]
    assert stores == [2, 1, 1, 0, 0]
    assert work == cycles == [9, 9, 2, 2, 0]
    # A cut at event j leaves col[i] - col[j] for the part before it.
    assert (span[0] - span[2], stores[0] - stores[2], work[0] - work[2]) == (2, 1, 7)


@pytest.mark.parametrize(
    "breaker",
    [
        Load(N0),                  # a load, even of the run's own line
        FaseBegin(),
        FaseEnd(),
        Store(N0 + 64),            # another line
        Store(N0 + 60, 8),         # spans two lines, the run's among them
        Store(64),                 # a DRAM line
        Work(1 << 40),             # too large to sum in int64 columns
        Work(-3),
    ],
    ids=repr,
)
def test_every_other_event_kind_breaks_a_run(breaker):
    batch = batch_of(Store(N0), Store(N0 + 8), breaker, Store(N0 + 16), Store(N0 + 24))
    span, stores, _work, _cycles = runs_of(batch)
    assert span == stores == [1, 0, 0, 1, 0]
    assert runs_of(batch) == reference_runs(batch)


def test_work_joins_only_a_run_that_a_store_started():
    batch = batch_of(Work(3), Store(N0), Work(4), Load(N0), Work(5), Store(N0))
    assert runs_of(batch)[0] == [0, 1, 0, 0, 0, 0]
    assert runs_of(batch) == reference_runs(batch)


def test_dram_lines_run_like_nvram_lines():
    batch = batch_of(Store(128), Store(136), Work(1), Store(128))
    assert runs_of(batch)[:2] == [[3, 2, 1, 0], [2, 1, 1, 0]]


def test_work_cycles_follow_cpi_event_by_event():
    batch = batch_of(Store(N0), Work(3), Work(3), Store(N0))
    assert runs_of(batch, 1.5)[2:] == [[6, 3, 0, 0], [8, 4, 0, 0]]   # int(4.5) twice
    assert runs_of(batch, 1.5) == reference_runs(batch, 1.5)
    assert runs_of(batch) == reference_runs(batch)                   # re-keyed by cpi


def test_line_runs_match_the_reference_on_random_streams():
    rng = random.Random(7)
    for _ in range(60):
        events = []
        for _ in range(rng.randrange(1, 150)):
            roll = rng.random()
            if roll < 0.6:
                base = rng.choice((N0, 4096)) + 64 * rng.randrange(3)
                events.append(Store(base + rng.choice((0, 8, 56, 60)), 8))
            elif roll < 0.85:
                events.append(Work(rng.choice((1, 70, 300, 1 << 41))))
            else:
                events.append(rng.choice((Load(N0), FaseBegin(), FaseEnd())))
        batch = batch_of(*events)
        for cpi in (1.0, 0.7):
            assert runs_of(batch, cpi) == reference_runs(batch, cpi)


def test_appending_after_a_decode_leaves_no_stale_table():
    batch = batch_of(Store(N0), Store(N0 + 8))
    assert runs_of(batch)[0] == [1, 0]
    assert batch.line_runs() is batch.line_runs()       # kept with the batch
    batch.append_store(N0 + 16)                         # the columns may grow
    batch.append_work(9)
    assert runs_of(batch) == reference_runs(batch) == [
        [3, 2, 1, 0], [2, 1, 0, 0], [9, 9, 9, 0], [9, 9, 9, 0],
    ]


def test_run_table_is_not_copied_or_pickled():
    batch = batch_of(Store(N0), Store(N0 + 8), Work(2))
    bare = len(pickle.dumps(batch))
    want = runs_of(batch)
    assert batch._runs is not None
    assert len(pickle.dumps(batch)) == bare
    for clone in (copy.copy(batch), copy.deepcopy(batch), pickle.loads(pickle.dumps(batch))):
        assert clone._runs is None
        assert [repr(ev) for ev in clone.events()] == [repr(ev) for ev in batch.events()]
        assert runs_of(clone) == want


# -- the optional payload column ---------------------------------------------


def payload_batch():
    batch = EventBatch(keep_values=True)
    batch.append_fase_begin()
    batch.append_store(N0, 8, ("k", 1))
    batch.append_event(Store(N0 + 8, 8, "v"))
    batch.append_event(Load(N0, 8))
    batch.append_work(3)
    batch.extend_accesses(EventKind.STORE, range(N0 + 64, N0 + 96, 16), 16, ["a", "b"])
    batch.extend_accesses(EventKind.LOAD, range(N0, N0 + 16, 8), 8)
    batch.append_load(N0 + 8)
    batch.append_fase_end()
    return batch


def test_payload_column_is_absent_by_default_and_as_long_as_the_rest_when_kept():
    plain = EventBatch.from_events(payload_batch().events())
    assert plain.values is None
    assert all(ev.value is None for ev in plain.events() if ev.kind == EventKind.STORE)
    kept = payload_batch()
    assert kept.values == [
        None, ("k", 1), "v", None, None, "a", "b", None, None, None, None
    ]
    assert [repr(ev) for ev in kept.events()] == [
        "FaseBegin()",
        f"Store(addr={N0:#x}, size=8, value=('k', 1))",
        f"Store(addr={N0 + 8:#x}, size=8, value='v')",
        f"Load(addr={N0:#x}, size=8)",
        "Work(3)",
        f"Store(addr={N0 + 64:#x}, size=16, value='a')",
        f"Store(addr={N0 + 80:#x}, size=16, value='b')",
        f"Load(addr={N0:#x}, size=8)",
        f"Load(addr={N0 + 8:#x}, size=8)",
        f"Load(addr={N0 + 8:#x}, size=8)",
        "FaseEnd()",
    ]
    # The machine's view of a batch does not involve it.
    assert runs_of(kept) == runs_of(plain)
    assert kept.count_stores(N0) == plain.count_stores(N0) == 4
    assert kept.count_stores(N0 + 64) == 2


def test_payload_column_rides_copy_and_pickle_and_is_dropped_by_split():
    batch = payload_batch()
    batch.line_runs()
    for clone in (copy.copy(batch), copy.deepcopy(batch), pickle.loads(pickle.dumps(batch))):
        assert clone._runs is None
        assert clone.values == batch.values
        assert [repr(ev) for ev in clone.events()] == [repr(ev) for ev in batch.events()]
    parts = list(batch.split(4))
    assert [len(p) for p in parts] == [4, 4, 3]
    assert all(p.values is None for p in parts)
    assert [repr(ev) for p in parts for ev in p.events()] == [
        repr(ev) for ev in EventBatch.from_events(batch.events()).events()
    ]
    assert list(EventBatch().split(4)) == []
