"""The event model and stream validation."""

import copy
import pickle
import random

import pytest

from repro.common.errors import SimulationError
from repro.common.events import (
    EventBatch,
    EventKind,
    RunRecorder,
    FaseBegin,
    FaseEnd,
    Load,
    Store,
    VisitCode,
    Work,
    batches_from_events,
    batches_from_steps,
    events_from_steps,
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


def reference_runs(batch, cpi=1.0, phase=0, period=0):
    """``EventBatch.line_runs`` as plain loops: mark the events that
    continue the previous event's run — none at an edge, and a ``WORK`` on
    one lets no ``WORK`` after it continue — then sum suffixes backwards."""
    kinds, args, sizes = batch.kinds, batch.args, batch.sizes
    n = len(kinds)
    cont, line = [], None
    for i, (k, a, s) in enumerate(zip(kinds, args, sizes)):
        edge = period and i and i % period == phase
        if k == EventKind.WORK and 0 <= a < 1 << 40:
            cont.append(line is not None and not edge)
            if edge:
                line = None
            continue
        single = k == EventKind.STORE and a >= 0 and a >> 6 == (a + s - 1) >> 6
        cont.append(single and line == a >> 6 and not edge)
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


# -- the visit table ---------------------------------------------------------


def visit_code(kind, addr, size, base):
    """A row's code and ``arg``: the common access comes with its line."""
    if kind in (EventKind.STORE, EventKind.LOAD):
        if addr >= base and addr >> 6 == (addr + size - 1) >> 6:
            return kind, addr >> 6
        return (VisitCode.ANY_STORE if kind == EventKind.STORE else VisitCode.ANY_LOAD), addr
    return kind, addr


def reference_visits(batch, cpi=1.0, base=N0):
    """``EventBatch.visits`` as a plain loop over ``reference_runs``: a row
    for every event that does not continue the event before it."""
    span, stores, work, cycles = reference_runs(batch, cpi)
    rows = []
    for i, (k, a, s) in enumerate(zip(batch.kinds, batch.args, batch.sizes)):
        if i == 0 or span[i - 1] == 0:
            rows.append(
                (i, *visit_code(k, a, s, base), span[i], stores[i], work[i], cycles[i])
            )
    return rows


def reference_rows(batch, pos, end, cpi=1.0, base=N0):
    """The visits of events ``[pos, end)`` as a plain walk over them: any
    single-line store heads what is left of its run before ``end``,
    everything else is entered on its own."""
    span, stores, work, cycles = reference_runs(batch, cpi)
    kinds, args, sizes = batch.kinds, batch.args, batch.sizes
    rows, j = [], pos
    while j < end:
        code = visit_code(kinds[j], args[j], sizes[j], base)
        single = args[j] >= 0 and args[j] >> 6 == (args[j] + sizes[j] - 1) >> 6
        if kinds[j] == EventKind.STORE and single:
            last = min(j + span[j], end - 1)
            rows.append(
                (j, *code, last - j, stores[j] - stores[last],
                 work[j] - work[last], cycles[j] - cycles[last])
            )
            j = last + 1
        else:
            rows.append((j, *code, 0, 0, 0, 0))
            j += 1
    return rows


def visits_of(batch, cpi=1.0, base=N0):
    return list(zip(*batch.visits(cpi, base)))


def random_batch(rng):
    """Stores and loads of every shape — single-line and across a line
    boundary, persistent, volatile and at negative addresses — between
    ``WORK`` of every size and FASE marks."""
    events = []
    for _ in range(rng.randrange(1, 150)):
        roll = rng.random()
        if roll < 0.6:
            base = rng.choice((N0, N0, 4096, -4096)) + 64 * rng.randrange(3)
            events.append(Store(base + rng.choice((0, 8, 56, 60)), 8))
        elif roll < 0.8:
            events.append(Work(rng.choice((1, 70, 300, 1 << 41, -3))))
        elif roll < 0.9:
            events.append(Load(rng.choice((N0, 4096, -64)) + rng.choice((0, 60)), 8))
        else:
            events.append(rng.choice((FaseBegin(), FaseEnd())))
    return batch_of(*events)


def test_visits_of_degenerate_batches():
    assert EventBatch().visits(1.0, N0) == EventBatch().visits()
    assert [list(col) for col in EventBatch().visits(1.0, N0)] == [[]] * 7
    line = N0 >> 6
    for lone, row in [
        (Store(N0 + 8), (0, EventKind.STORE, line, 0, 0, 0, 0)),
        (Load(N0 + 8), (0, EventKind.LOAD, line, 0, 0, 0, 0)),
        (Work(5), (0, EventKind.WORK, 5, 0, 0, 0, 0)),
        (Work(-3), (0, EventKind.WORK, -3, 0, 0, 0, 0)),
        (FaseBegin(), (0, EventKind.FASE_BEGIN, 0, 0, 0, 0, 0)),
        (FaseEnd(), (0, EventKind.FASE_END, 0, 0, 0, 0, 0)),
        # Not the common case: read from the event columns by index.
        (Store(N0 + 60, 8), (0, VisitCode.ANY_STORE, N0 + 60, 0, 0, 0, 0)),
        (Store(4096), (0, VisitCode.ANY_STORE, 4096, 0, 0, 0, 0)),
        (Store(-64), (0, VisitCode.ANY_STORE, -64, 0, 0, 0, 0)),
        (Load(N0 + 60, 8), (0, VisitCode.ANY_LOAD, N0 + 60, 0, 0, 0, 0)),
        (Load(4096), (0, VisitCode.ANY_LOAD, 4096, 0, 0, 0, 0)),
    ]:
        assert visits_of(batch_of(lone)) == [row] == reference_visits(batch_of(lone))
    all_work = batch_of(Work(1), Work(2), Work(3))
    assert [row[:3] for row in visits_of(all_work)] == [(0, 2, 1), (1, 2, 2), (2, 2, 3)]


def test_a_run_is_one_row_and_the_base_decides_what_is_persistent():
    batch = batch_of(
        Store(N0), Store(N0 + 8), Work(7), Store(N0 + 56, 8),     # one run
        Load(N0), Store(4096), Work(2), Store(4100),              # a volatile one
    )
    line = N0 >> 6
    assert visits_of(batch) == reference_visits(batch) == [
        (0, EventKind.STORE, line, 3, 2, 7, 7),
        (4, EventKind.LOAD, line, 0, 0, 0, 0),
        (5, VisitCode.ANY_STORE, 4096, 2, 1, 2, 2),
    ]
    # Keyed by ``base`` as by ``cpi``: at base 0 the volatile run is plain.
    assert visits_of(batch, base=0)[2] == (5, EventKind.STORE, 64, 2, 1, 2, 2)
    assert visits_of(batch, 1.5)[0] == (0, EventKind.STORE, line, 3, 2, 7, 10)
    assert visits_of(batch) == reference_visits(batch)


def test_visits_match_the_reference_on_random_streams():
    rng = random.Random(11)
    for _ in range(60):
        batch = random_batch(rng)
        for cpi, base in ((1.0, N0), (0.7, N0), (1.0, 0)):
            assert visits_of(batch, cpi, base) == reference_visits(batch, cpi, base)
            n = len(batch)
            assert reference_rows(batch, 0, n, cpi, base) == reference_visits(
                batch, cpi, base
            )


def quantum_rows(batch, pos, end):
    """The rows of ``[pos, end)`` in the table cut at both its ends: the
    period is the quantum's length and ``pos`` an edge of that phase."""
    period = end - pos
    return cut_rows(batch, pos, end, pos % period, period)


def test_any_quantum_enters_exactly_its_events():
    """Wherever a quantum opens and ends — on a run's head, on a store or
    a ``WORK`` inside it, on its last event — the table cut at its ends
    holds the reference walk's rows for it, and they cover ``[pos, end)``
    once."""
    rng = random.Random(5)
    for _ in range(40):
        batch = random_batch(rng)
        n = len(batch)
        for _ in range(30):
            pos = rng.randrange(n)
            end = rng.randrange(pos + 1, n + 1)
            rows = quantum_rows(batch, pos, end)
            assert rows == reference_rows(batch, pos, end)
            assert sum(1 + row[3] for row in rows) == end - pos
    # Directed: a quantum opening on the WORK inside a run enters that
    # WORK (and the next) on its own, then the store after them as a head.
    batch = batch_of(Store(N0), Store(N0 + 8), Work(5), Work(7), Store(N0 + 16), Work(3))
    line = N0 >> 6
    assert quantum_rows(batch, 2, 6) == [
        (2, EventKind.WORK, 5, 0, 0, 0, 0),
        (3, EventKind.WORK, 7, 0, 0, 0, 0),
        (4, EventKind.STORE, line, 1, 0, 3, 3),
    ]
    assert quantum_rows(batch, 0, 4) == [(0, EventKind.STORE, line, 3, 1, 12, 12)]
    assert quantum_rows(batch, 3, 4) == [(3, EventKind.WORK, 7, 0, 0, 0, 0)]


def test_visit_table_is_kept_like_the_run_table():
    batch = batch_of(Store(N0), Store(N0 + 8), Work(2))
    bare = len(pickle.dumps(batch))
    want = visits_of(batch)
    assert batch.visits(1.0, N0) is batch.visits(1.0, N0)       # kept with the batch
    assert batch._visits is not None
    assert len(pickle.dumps(batch)) == bare
    for clone in (copy.copy(batch), copy.deepcopy(batch), pickle.loads(pickle.dumps(batch))):
        assert clone._visits is None
        assert visits_of(clone) == want
    batch.append_load(N0)                                       # the columns may grow
    batch.append_store(N0 + 64)
    assert visits_of(batch) == reference_visits(batch) == want + [
        (3, EventKind.LOAD, N0 >> 6, 0, 0, 0, 0),
        (4, EventKind.STORE, (N0 >> 6) + 1, 0, 0, 0, 0),
    ]


# -- tables cut at a thread's quantum edges -----------------------------------


def edges_of(n, phase, period=64):
    """``0``, every edge ``p`` in ``(0, n)`` with ``p % period == phase``, ``n``."""
    return [0] + [p for p in range(1, n) if p % period == phase] + [n]


def cut_rows(batch, pos, end, phase, period=64, cpi=1.0, base=N0):
    """The rows of the table cut at ``phase`` with ``pos <= index < end``."""
    rows = zip(*batch.visits(cpi, base, phase, period))
    return [row for row in rows if pos <= row[0] < end]


def longer_batch(rng, n):
    """Runs long enough to cross several edges: bursts of stores to a few
    lines, some volatile, with ``WORK`` between and the odd FASE mark."""
    events = []
    while len(events) < n:
        base = rng.choice((N0, N0, 4096)) + 64 * rng.randrange(4)
        for _ in range(rng.randrange(1, 90)):
            events.append(Store(base + rng.choice((0, 8, 56, 60)), 8))
            if rng.random() < 0.4:
                events.append(Work(rng.choice((3, 70))))
        if rng.random() < 0.3:
            events.append(rng.choice((FaseBegin(), FaseEnd(), Load(N0))))
    return batch_of(*events[:n])


def test_a_cut_table_holds_each_quantum_between_its_edges():
    """For every phase, the rows of a quantum between two of its edges are
    the reference walk's over that quantum, and the cut run columns are
    the reference's."""
    rng = random.Random(13)
    batches = [random_batch(rng) for _ in range(12)]
    batches += [longer_batch(rng, n) for n in (300, 700)]
    for batch in batches:
        n = len(batch)
        for phase in range(64):
            edges = edges_of(n, phase)
            for pos, end in zip(edges, edges[1:]):
                rows = cut_rows(batch, pos, end, phase)
                assert rows == reference_rows(batch, pos, end), (phase, pos, end)
        for phase in (0, 5, 63):
            for cpi in (1.0, 0.7):
                assert [list(col) for col in batch.line_runs(cpi, phase, 64)] == (
                    reference_runs(batch, cpi, phase, 64)
                )


def test_an_edge_cuts_every_kind_of_row():
    """Directed: an edge on a ``WORK`` inside a run enters the ``WORK``s
    one by one and then the store as a new head; one on a volatile run or
    a line-straddling store or a FASE mark starts its row there."""
    line = N0 >> 6
    at_work = batch_of(Store(N0), Store(N0 + 8), Work(5), Work(7), Store(N0 + 16), Work(3))
    assert cut_rows(at_work, 0, 6, 2, 2) == [
        (0, EventKind.STORE, line, 1, 1, 0, 0),
        (2, EventKind.WORK, 5, 0, 0, 0, 0),
        (3, EventKind.WORK, 7, 0, 0, 0, 0),
        (4, EventKind.STORE, line, 1, 0, 3, 3),
    ]
    volatile = batch_of(Store(4096), Work(2), Store(4100), Store(4104), Work(1))
    assert cut_rows(volatile, 0, 5, 2, 2) == [
        (0, VisitCode.ANY_STORE, 4096, 1, 0, 2, 2),
        (2, VisitCode.ANY_STORE, 4100, 1, 1, 0, 0),
        (4, EventKind.WORK, 1, 0, 0, 0, 0),
    ]
    straddle = batch_of(Store(N0), Store(N0 + 60, 8), Store(N0 + 64), Work(4))
    assert cut_rows(straddle, 0, 4, 1, 64) == [
        (0, EventKind.STORE, line, 0, 0, 0, 0),
        (1, VisitCode.ANY_STORE, N0 + 60, 0, 0, 0, 0),
        (2, EventKind.STORE, line + 1, 1, 0, 4, 4),
    ]
    fase = batch_of(FaseBegin(), Store(N0), Work(2), FaseEnd(), Store(N0))
    assert cut_rows(fase, 0, 5, 3, 64) == [
        (0, EventKind.FASE_BEGIN, 0, 0, 0, 0, 0),
        (1, EventKind.STORE, line, 1, 0, 2, 2),
        (3, EventKind.FASE_END, 0, 0, 0, 0, 0),
        (4, EventKind.STORE, line, 0, 0, 0, 0),
    ]
    for batch in (at_work, volatile, straddle, fase):
        n = len(batch)
        for phase, period in ((0, 2), (1, 2), (1, 3), (3, 64)):
            edges = edges_of(n, phase, period)
            for pos, end in zip(edges, edges[1:]):
                assert cut_rows(batch, pos, end, phase, period) == (
                    reference_rows(batch, pos, end)
                )


def test_each_phase_table_is_kept_with_the_batch_and_never_pickled():
    batch = longer_batch(random.Random(2), 200)
    bare = len(pickle.dumps(batch))
    tables = {phase: batch.visits(1.0, N0, phase, 64) for phase in (0, 7, 63)}
    uncut = batch.visits(1.0, N0)
    for phase, table in tables.items():
        assert batch.visits(1.0, N0, phase, 64) is table
        assert batch.line_runs(1.0, phase, 64) is batch.line_runs(1.0, phase, 64)
    assert batch.visits(1.0, N0) is uncut
    assert tables[7] != uncut
    assert len(pickle.dumps(batch)) == bare
    for clone in (copy.copy(batch), copy.deepcopy(batch), pickle.loads(pickle.dumps(batch))):
        assert clone._runs is None and clone._visits is None
        assert clone.visits(1.0, N0, 7, 64) == tables[7]


def test_tallies_count_each_rows_stores_and_loads():
    """``tallies`` are prefix sums over the visit rows, cut or not: a
    ``STORE`` or ``ANY_STORE`` row holds ``1 + stores`` store events, a
    ``LOAD`` or ``ANY_LOAD`` row one load; they add up to the batch's."""
    rng = random.Random(5)
    for batch in [random_batch(rng) for _ in range(10)] + [longer_batch(rng, 300)]:
        kinds = list(batch.kinds)
        for phase, period in ((0, 0), (0, 64), (7, 64)):
            stores, loads = batch.tallies(1.0, N0, phase, period)
            assert batch.tallies(1.0, N0, phase, period)[0] is stores   # kept
            want = [(0, 0)]
            for row in zip(*batch.visits(1.0, N0, phase, period)):
                kind = kinds[row[0]]
                want.append((
                    want[-1][0] + (1 + row[4] if kind == EventKind.STORE else 0),
                    want[-1][1] + (kind == EventKind.LOAD),
                ))
            assert list(zip(stores, loads)) == want
            assert want[-1] == (kinds.count(EventKind.STORE), kinds.count(EventKind.LOAD))


# -- runs: a recording expanded into columns ---------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_recorded_runs_are_the_events_appended_one_by_one(seed):
    """Runs of every length, the buffer expanded whenever it fills and
    whenever the batch is read, give the columns of the same events
    appended one at a time."""
    rng = random.Random(seed)
    recorder, want = RunRecorder(), EventBatch()
    for _ in range(rng.randrange(0, 80)):
        kind = rng.choice((EventKind.STORE, EventKind.LOAD, EventKind.WORK, EventKind.FASE_BEGIN))
        first, count = rng.randrange(N0, N0 + 4096), rng.choice((0, 1, 1, 2, 7, 40, 2500))
        stride, size = rng.choice((0, 8, 16, 64)), rng.choice((0, 8, 16))
        recorder.add(kind, first, stride, count, size)
        for i in range(count):
            want._append(kind, first + i * stride, size)
        if rng.random() < 0.1:
            assert len(recorder.batch()) == len(want)
    got = recorder.batch()
    assert (got.kinds, got.args, got.sizes) == (want.kinds, want.args, want.sizes)


# -- steps: the column tuples a shared-allocator program hands out -----------


def random_steps(rng, n):
    """Steps of 0 to 40 events — some longer than the chunk below."""
    steps = []
    for _ in range(n):
        events = [
            rng.choice((
                Store(N0 + rng.randrange(4096), rng.choice((4, 8))),
                Load(N0 + rng.randrange(4096), 8),
                Work(rng.randrange(1, 300)),
                FaseBegin(),
                FaseEnd(),
            ))
            for _ in range(rng.randrange(41))
        ]
        steps.append((
            tuple(ev.kind for ev in events),
            tuple(getattr(ev, "addr", getattr(ev, "amount", 0)) for ev in events),
            tuple(getattr(ev, "size", 0) for ev in events),
        ))
    return steps


@pytest.mark.parametrize("seed", range(5))
def test_steps_pack_and_decode_as_their_events_do(seed):
    steps = random_steps(random.Random(seed), 60)
    events = list(events_from_steps(iter(steps)))
    assert len(events) == sum(len(step[0]) for step in steps)
    want = list(batches_from_events(iter(events), 32))
    got = list(batches_from_steps(iter(steps), 32))
    assert [len(b) for b in got] == [len(b) for b in want]
    assert [(b.kinds, b.args, b.sizes) for b in got] == [
        (b.kinds, b.args, b.sizes) for b in want
    ]
    assert [repr(ev) for ev in events] == [
        repr(ev) for b in got for ev in b.events()
    ]
