"""The instrumented-program event model.

The paper instruments programs with an LLVM pass that reports every memory
store and every FASE lock/unlock to the runtime (§III-C, "Compiler
Support").  We replace the compiler pass with an explicit event stream: a
workload is a generator of events per thread, and the simulated machine
consumes the stream, driving the hardware cache, the persistence technique
and the timing model.

Event classes use ``__slots__`` and an integer ``kind`` tag so that the
machine's dispatch loop — the hottest code in the simulator — can branch on
an int instead of ``isinstance``.

Events
------
``Store(addr, size, value)``
    A store to *persistent* memory.  ``value`` is the payload a session
    store writes (the Atlas runtime, the persistent structures); a
    decoded workload stream leaves it ``None``.
``Load(addr, size)``
    A load from persistent memory.  Loads never trigger flush bookkeeping
    (the software cache is write-combining and "does not consider data
    reads at all", §III-A) but they do exercise the hardware cache, which
    is how the *indirect* cost of `clflush` invalidations is measured.
``Work(amount)``
    ``amount`` instructions of computation that do not touch persistent
    memory.  Asynchronous flushes overlap with this work.
``FaseBegin()`` / ``FaseEnd()``
    Failure-atomic section boundaries.  FASEs may nest; persistence is
    only guaranteed at the end of an *outermost* FASE, matching Atlas.

Batched representation
----------------------
Even with ``__slots__``, one Python object per event dominates the
simulator's run time: the machine spends more cycles resuming workload
generator frames and allocating ``Store`` instances than it spends in
the cache and flush models.  :class:`EventBatch` is the compact
alternative — three parallel ``array`` columns (kind / addr-or-amount /
size, ~17 bytes per event) that a workload fills by appending plain
integers and the machine consumes through the visit table below, no
per-event allocation at all.  A workload spells its program in one encoding and
the others are derived: ``Workload.streams`` of a native batch emitter is
:func:`events_from_batches` over its batches, a program whose threads
share an allocator hands out *steps* (below), and a bare generator's
batches are recorded once by ``BatchCachingWorkload`` via
:func:`batches_from_events`.  Every encoding therefore describes the same
event sequence by construction, and the machine's two execution paths
are required (and tested) to produce bit-identical statistics.

A :data:`Step` is the events between two allocations as plain column
tuples ``(kinds, args, sizes)``.  Taking the next step performs the
allocations before its first event and nothing else touches shared
state, so a machine that pulls steps as it runs sees what a per-event
generator would hand it.  They pack into batches
(:func:`batches_from_steps`) where one execution serves every technique,
decode into events (:func:`events_from_steps`) for the per-event engine,
and feed live quanta and crash replays as they are.

No encoding carries store payloads: a decoded ``Store`` has ``value``
``None``.  A crash replay stores its own token per store (the fault
driver), and ``Store.value`` is read only where a program stores real
values through a session (the Atlas runtime, the persistent structures).

Line-touch runs
---------------
Most persistent stores directly repeat the previous store's cache line
(the premise of the paper's Table III), and a repeat changes nothing but
counters: it hits the hardware cache at the MRU position and the
technique's buffer at its newest entry.  :meth:`EventBatch.line_runs`
therefore gives the machine the *line-touch runs* of a batch — computed
once per batch with numpy and kept with it, so every technique
replaying the batch shares them — and the machine enters Python once
per run instead of once per event.

What the machine walks is the *visit table* (:meth:`EventBatch.visits`):
one row per event it has to enter — the head of a run, or an event in
none — saying what the event is and what follows it in its run, so the
loop indexes no column to find out.  A row's :class:`VisitCode` is the
event's kind, with the accesses split once per batch instead of once per
technique per visit:

``STORE`` / ``LOAD``
    The common case — inside one cache line, in the persistence domain —
    and the row's ``arg`` is that *line*.
``ANY_STORE`` / ``ANY_LOAD``
    Every other access: across a line boundary, or below the persistent
    base (volatile).  The machine reads its address and size from the
    event columns by the row's ``index``.
``WORK`` / ``FASE_BEGIN`` / ``FASE_END``
    As the event; ``arg`` is the ``WORK`` amount.

A thread that shares the machine with others stops every
``SCHED_BATCH`` events it runs, and a run must not straddle such a
quantum edge.  ``line_runs`` and ``visits`` therefore also take a
``phase`` and ``period``: the table cut at the thread's edges in this
batch, whose rows between two edges are exactly that quantum's, kept
with the batch like the uncut one; the rest of a batch that a thread
comes to take alone is the rest of that cut table.  A live quantum (a
workload with no batch stream: steps pulled as the thread runs, or a
bare generator's events) gets its rows without numpy: the machine codes
each event of its columns by the rules above, span 0 apiece.
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import SimulationError
from repro.common.geometry import negative_size


class EventKind:
    """Integer tags for fast dispatch in the machine's inner loop."""

    STORE = 0
    LOAD = 1
    WORK = 2
    FASE_BEGIN = 3
    FASE_END = 4


class VisitCode(EventKind):
    """What a row of the visit table asks of the machine: the event's
    kind, except for an access outside the common case (module docstring)."""

    ANY_STORE = 5
    ANY_LOAD = 6


class Store:
    """A store of ``size`` bytes at byte address ``addr``."""

    __slots__ = ("addr", "size", "value")
    kind = EventKind.STORE

    def __init__(self, addr: int, size: int = 8, value: object = None) -> None:
        if size < 0:
            raise negative_size(size)
        self.addr = addr
        self.size = size
        self.value = value

    def __repr__(self) -> str:
        return f"Store(addr={self.addr:#x}, size={self.size}, value={self.value!r})"


class Load:
    """A load of ``size`` bytes at byte address ``addr``."""

    __slots__ = ("addr", "size")
    kind = EventKind.LOAD

    def __init__(self, addr: int, size: int = 8) -> None:
        if size < 0:
            raise negative_size(size)
        self.addr = addr
        self.size = size

    def __repr__(self) -> str:
        return f"Load(addr={self.addr:#x}, size={self.size})"


class Work:
    """``amount`` instructions of computation not touching persistent data."""

    __slots__ = ("amount",)
    kind = EventKind.WORK

    def __init__(self, amount: int) -> None:
        self.amount = amount

    def __repr__(self) -> str:
        return f"Work({self.amount})"


class FaseBegin:
    """Enter a failure-atomic section (may nest)."""

    __slots__ = ()
    kind = EventKind.FASE_BEGIN

    def __repr__(self) -> str:
        return "FaseBegin()"


class FaseEnd:
    """Leave a failure-atomic section."""

    __slots__ = ()
    kind = EventKind.FASE_END

    def __repr__(self) -> str:
        return "FaseEnd()"


Event = Union[Store, Load, Work, FaseBegin, FaseEnd]
EventStream = Iterator[Event]


#: ``WORK`` amounts from here up never join a line-touch run.
_MAX_RUN_WORK = 1 << 40


def _compact(column: np.ndarray) -> array:
    """A non-negative column as the narrowest unsigned ``array``."""
    dtype = np.min_scalar_type(int(column.max(initial=0)))
    return array(dtype.char, column.astype(dtype).tobytes())


class EventBatch:
    """A run of events as parallel integer columns (no per-event objects).

    Columns (all the same length):

    ``kinds``
        One :class:`EventKind` tag per event (signed byte array).
    ``args``
        The event's primary integer: byte address for ``STORE``/``LOAD``,
        instruction count for ``WORK``, 0 for FASE boundaries.
    ``sizes``
        Access size in bytes for ``STORE``/``LOAD``, 0 otherwise.
    """

    __slots__ = ("kinds", "args", "sizes", "_runs", "_visits")

    def __init__(self) -> None:
        self.kinds = array("b")
        self.args = array("q")
        self.sizes = array("q")
        # line_runs() and visits() results by their arguments and the
        # batch length: derived data, dropped by copy and pickle.
        self._runs: Optional[dict] = None
        self._visits: Optional[dict] = None

    def __getstate__(self) -> tuple:
        return self.kinds, self.args, self.sizes

    def __setstate__(self, state: tuple) -> None:
        self.kinds, self.args, self.sizes = state
        self._runs = self._visits = None

    def __len__(self) -> int:
        return len(self.kinds)

    def __repr__(self) -> str:
        return f"EventBatch(len={len(self.kinds)})"

    # -- building --------------------------------------------------------

    def append_store(self, addr: int, size: int = 8) -> None:
        """Append a persistent-or-not store of ``size`` bytes at ``addr``."""
        self._append(EventKind.STORE, addr, size)

    def append_load(self, addr: int, size: int = 8) -> None:
        """Append a load of ``size`` bytes at ``addr``."""
        self._append(EventKind.LOAD, addr, size)

    def append_work(self, amount: int) -> None:
        """Append ``amount`` instructions of computation."""
        self._append(EventKind.WORK, amount, 0)

    def append_fase_begin(self) -> None:
        """Append a failure-atomic-section entry."""
        self._append(EventKind.FASE_BEGIN, 0, 0)

    def append_fase_end(self) -> None:
        """Append a failure-atomic-section exit."""
        self._append(EventKind.FASE_END, 0, 0)

    def _append(self, kind: int, arg: int, size: int) -> None:
        self.kinds.append(kind)
        self.args.append(arg)
        self.sizes.append(size)

    def append_event(self, ev: Event) -> None:
        """Append one per-object event (a store's payload is dropped)."""
        kind = ev.kind
        self.kinds.append(kind)
        if kind == EventKind.STORE or kind == EventKind.LOAD:
            self.args.append(ev.addr)
            self.sizes.append(ev.size)
        elif kind == EventKind.WORK:
            self.args.append(ev.amount)
            self.sizes.append(0)
        else:
            self.args.append(0)
            self.sizes.append(0)

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventBatch":
        """Pack an event sequence into one batch (payloads are dropped)."""
        batch = cls()
        for ev in events:
            batch.append_event(ev)
        return batch

    def split(self, chunk: int) -> Iterator["EventBatch"]:
        """This batch as batches of at most ``chunk`` events."""
        for start in range(0, len(self.kinds), chunk):
            part = EventBatch()
            part.kinds = self.kinds[start:start + chunk]
            part.args = self.args[start:start + chunk]
            part.sizes = self.sizes[start:start + chunk]
            yield part

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(kinds, args, sizes)`` as numpy views of the columns."""
        return (
            np.frombuffer(self.kinds, dtype=np.int8),
            np.frombuffer(self.args, dtype=np.int64),
            np.frombuffer(self.sizes, dtype=np.int64),
        )

    def count_stores(self, base: int) -> int:
        """``STORE`` rows at or above ``base`` (``NVRAM_BASE``: the
        persistent stores a machine counts running this batch)."""
        kinds, args, _sizes = self.columns()
        return int(np.count_nonzero((kinds == EventKind.STORE) & (args >= base)))

    # -- line-touch runs -------------------------------------------------

    def line_runs(
        self, cpi: float = 1.0, phase: int = 0, period: int = 0
    ) -> Tuple[array, array, array, array]:
        """The batch's line-touch runs as four per-event columns.

        A *run* starts at a single-line ``STORE`` and extends over every
        directly following event that is a single-line ``STORE`` to the
        same cache line or a ``WORK``.  Any other event — a ``LOAD``, a
        FASE mark, a store to another line or one spanning two lines —
        ends it, and so does the batch.  Given a ``period``, so does every
        *edge*: an event ``p > 0`` with ``p ≡ phase (mod period)`` starts
        afresh, as if a non-run event came before it (a scheduler quantum
        edge; module docstring).  For event ``i``:

        ``span[i]``
            Events after ``i`` in its run (0: ``i`` ends a run or is in
            none).
        ``stores[i]``
            ``STORE`` events among those ``span[i]``.
        ``work[i]`` / ``cycles[i]``
            Their summed ``WORK`` amounts, and the cycles those cost at
            ``cpi`` (``int(amount * cpi)`` each: the charging rule
            stated on ``repro.nvram.timing.TimingModel.cpi``).

        Every column is a suffix *within* the run, so the part of a run
        from ``i`` up to an arbitrary cut at ``j`` is ``col[i] - col[j]``.
        Computed once per batch length, ``cpi``, ``phase`` and ``period``
        and kept with the batch; never pickled or copied.
        """
        n = len(self.kinds)
        key = (n, cpi, phase, period)
        cached = self._runs
        if cached is None:
            cached = self._runs = {}
        elif key in cached:
            return cached[key]
        kinds, args, sizes = self.columns()
        line = args >> 6
        store = kinds == EventKind.STORE
        real = args >= 0
        # The line a run may continue on after this event; -1 (no real
        # line: negative addresses are excluded) lets none continue.
        touch = np.where(
            store & real & (line == (args + sizes - 1) >> 6), line, -1
        )
        # Amounts are bounded so that the int64 sums below cannot wrap
        # and ``amount * cpi`` rounds as it does for a Python int.
        work = (kinds == EventKind.WORK) & real & (args < _MAX_RUN_WORK)
        index = np.arange(n)
        edges = slice(phase or period, None, period) if period else slice(0)
        anchors = ~work
        anchors[edges] = True
        # prev[i]: ``touch`` of the nearest non-WORK event or edge before
        # ``i``; -1 at an edge.
        anchor = np.maximum.accumulate(np.where(anchors, index, 0))
        prev = np.full(n, -1, dtype=np.int64)
        prev[1:] = touch[anchor[:-1]]
        prev[edges] = -1
        head = (prev == -1) | (np.where(work, prev, touch) != prev)
        # last[i]: the final event of the run (or lone event) holding i.
        last = (np.append(np.flatnonzero(head)[1:], n) - 1)[np.cumsum(head) - 1]

        def suffix(per_event: np.ndarray) -> array:
            total = np.cumsum(per_event, dtype=np.int64)
            return _compact(total[last] - total)

        amount = np.where(work, args, 0)
        run_work = suffix(amount)
        runs = (
            _compact(last - index),
            suffix(store),
            run_work,
            run_work if cpi == 1.0 else suffix((amount * cpi).astype(np.int64)),
        )
        cached[key] = runs
        return runs

    # -- the visit table -------------------------------------------------

    def visits(
        self, cpi: float = 1.0, base: int = 0, phase: int = 0, period: int = 0
    ) -> Tuple[array, ...]:
        """The events a machine enters, as seven row-aligned columns.

        One row per head of a line-touch run and per event in no run
        (``i`` such that ``span[i - 1] == 0``), in event order:

        ``index``
            The event's position in the batch.
        ``code`` / ``arg``
            Its :class:`VisitCode`, and the *line* of a ``STORE`` or
            ``LOAD`` — single-line, at or above ``base`` — or the
            ``args`` entry of any other event.
        ``span`` / ``stores`` / ``work`` / ``cycles``
            :meth:`line_runs` at ``index``: the rest of the event's run.

        With a ``period``, the runs are those cut at every edge ``phase``
        (mod ``period``), so the rows of events ``[pos, end)`` between two
        edges are the table's rows with ``pos <= index < end``: the runs
        of those events as if no event came before or after them.  Kept
        with the batch exactly as the run columns are.
        """
        return self._visit_table(cpi, base, phase, period)[0]

    def tallies(
        self, cpi: float = 1.0, base: int = 0, phase: int = 0, period: int = 0
    ) -> Tuple[array, array]:
        """Prefix counts over the rows of :meth:`visits` (same arguments),
        one entry more than rows: ``stores[k]`` and ``loads[k]`` are the
        ``STORE`` and ``LOAD`` events of the rows before row ``k`` — a
        ``STORE``/``ANY_STORE`` row's ``1 + stores``, a ``LOAD``/``ANY_LOAD``
        row's one — so rows ``[a, b)`` hold ``stores[b] - stores[a]``.
        Kept beside the visit table, under its key."""
        return self._visit_table(cpi, base, phase, period)[1]

    def _visit_table(self, cpi, base, phase, period) -> tuple:
        key = (len(self.kinds), cpi, base, phase, period)
        cached = self._visits
        if cached is None:
            cached = self._visits = {}
        elif key in cached:
            return cached[key]
        runs = [
            np.frombuffer(col, dtype=col.typecode)
            for col in self.line_runs(cpi, phase, period)
        ]
        kinds, args, sizes = self.columns()
        if len(sizes) and sizes.min() < 0:
            raise negative_size(int(sizes.min()))
        entered = np.ones(len(kinds), dtype=bool)
        entered[1:] = runs[0][:-1] == 0
        heads = np.flatnonzero(entered)
        code = kinds[heads]
        arg = args[heads]
        line = arg >> 6
        access = (code == EventKind.STORE) | (code == EventKind.LOAD)
        plain = access & (arg >= base) & (line == (arg + sizes[heads] - 1) >> 6)
        # STORE -> ANY_STORE and LOAD -> ANY_LOAD are the same step up.
        any_access = VisitCode.ANY_STORE - EventKind.STORE
        table = (
            _compact(heads),
            array("b", np.where(access & ~plain, code + any_access, code).tobytes()),
            array("q", np.where(plain, line, arg).tobytes()),
            # A run's suffixes peak at its head, a row: each keeps its type.
            *(array(col.dtype.char, col[heads].tobytes()) for col in runs),
        )
        stores = np.where(code == EventKind.STORE, 1 + runs[1][heads].astype(np.int64), 0)
        prefix = np.zeros((2, len(heads) + 1), dtype=np.int64)
        np.cumsum(stores, out=prefix[0, 1:])
        np.cumsum(code == EventKind.LOAD, out=prefix[1, 1:])
        cached[key] = table, (_compact(prefix[0]), _compact(prefix[1]))
        return cached[key]

    # -- expanding -------------------------------------------------------

    def events(self) -> Iterator[Event]:
        """Expand back into per-object events (the reference decoding)."""
        return events_from_steps([(self.kinds, self.args, self.sizes)])


BatchStream = Iterator[EventBatch]

#: The events between two allocations of a step-emitting program, as
#: plain column tuples ``(kinds, args, sizes)`` (module docstring).
Step = Tuple[Sequence[int], Sequence[int], Sequence[int]]
StepStream = Iterator[Step]

#: Default events per batch when packing a stream into batches.
BATCH_CHUNK = 4096

#: A run's five integers, ``(kind, first, stride, count, size)``, as bytes.
_RUN = struct.Struct("=5q").pack


class RunRecorder:
    """An :class:`EventBatch` recorded as *runs*: ``count`` events of one
    ``kind`` and ``size`` whose args are ``first``, ``first + stride``,
    ... (a page image, a sampled page read; a lone event is a run of
    one).  A run is five integers in a buffer; one numpy pass per
    ``BATCH_CHUNK`` events expands the buffer into the columns.
    """

    __slots__ = ("_batch", "_runs", "_pending")

    def __init__(self) -> None:
        self._batch = EventBatch()
        self._runs = bytearray()
        self._pending = 0

    def add(self, kind: int, first: int, stride: int, count: int, size: int) -> None:
        """Append a run."""
        if not count:
            return
        self._runs += _RUN(kind, first, stride, count, size)
        self._pending += count
        if self._pending >= BATCH_CHUNK:
            self._expand()

    def _expand(self) -> None:
        kind, first, stride, count, size = np.frombuffer(
            self._runs, dtype=np.int64).reshape(-1, 5).T
        batch = self._batch
        batch.kinds.frombytes(np.repeat(kind.astype(np.int8), count).view(np.uint8))
        batch.sizes.frombytes(np.repeat(size, count).view(np.uint8))
        # Each arg is the one before plus its stride; a run's first steps
        # from the last of the run before.  One array, summed in place.
        args = np.repeat(stride, count)
        args[0] = first[0]
        args[np.cumsum(count[:-1])] = first[1:] - (first + (count - 1) * stride)[:-1]
        batch.args.frombytes(np.cumsum(args, out=args).view(np.uint8))
        self._runs = bytearray()
        self._pending = 0

    def batch(self) -> EventBatch:
        """The recording so far: the batch every later run extends."""
        if self._runs:
            self._expand()
        return self._batch


def ragged_step(tid: int, index: int, step: Step) -> SimulationError:
    """The error for step ``index`` of thread ``tid`` whose three columns
    differ in length: every step consumer checks each step, so a
    malformed one never runs as fewer events than it lists."""
    lengths = "/".join(str(len(column)) for column in step)
    return SimulationError(
        f"thread {tid}: step {index} has columns of lengths {lengths} "
        "(kinds/args/sizes); every column needs one entry per event"
    )


def not_an_event(tid: int, element: object) -> SimulationError:
    """The error for an element of thread ``tid``'s per-object stream that
    is not an event, on every consumer of such a stream."""
    return SimulationError(f"thread {tid}: stream element {element!r} is not an event")


def columns_from_events(events: Iterable[object], tid: int = 0) -> Tuple[list, list, list]:
    """Encode thread ``tid``'s per-object events as one step's column
    lists ``(kinds, args, sizes)``."""
    kinds, args, sizes = [], [], []
    try:
        for ev in events:
            if (kind := ev.kind) not in (0, 1, 2, 3, 4):
                raise not_an_event(tid, ev)
            args.append(ev.addr if kind < 2 else ev.amount if kind == 2 else 0)
            sizes.append(ev.size if kind < 2 else 0)
            kinds.append(kind)
    except AttributeError:
        raise not_an_event(tid, ev) from None
    return kinds, args, sizes


def columns_from_steps(steps: Iterable[Step], tid: int = 0) -> Tuple[list, list, list]:
    """Concatenate thread ``tid``'s steps into one step's column lists."""
    kinds, args, sizes = [], [], []
    for index, step in enumerate(steps):
        if not len(step[0]) == len(step[1]) == len(step[2]):
            raise ragged_step(tid, index, step)
        kinds += step[0]
        args += step[1]
        sizes += step[2]
    return kinds, args, sizes


def batches_from_steps(
    steps: StepStream, chunk: int = BATCH_CHUNK, tid: int = 0
) -> BatchStream:
    """Pack thread ``tid``'s step stream into batches of ``chunk`` events
    (the last one shorter), filled one chunk at a time: the batches
    :func:`batches_from_events` makes of the same events."""
    kinds, args, sizes = [], [], []
    for index, (step_kinds, step_args, step_sizes) in enumerate(steps):
        if not len(step_kinds) == len(step_args) == len(step_sizes):
            raise ragged_step(tid, index, (step_kinds, step_args, step_sizes))
        kinds += step_kinds
        args += step_args
        sizes += step_sizes
        while len(kinds) >= chunk:
            batch = EventBatch()
            batch.kinds = array("b", bytes(kinds[:chunk]))
            batch.args = array("q", args[:chunk])
            batch.sizes = array("q", sizes[:chunk])
            del kinds[:chunk], args[:chunk], sizes[:chunk]
            yield batch
    if kinds:
        batch = EventBatch()
        batch.kinds, batch.args, batch.sizes = (
            array("b", bytes(kinds)), array("q", args), array("q", sizes)
        )
        yield batch


def events_from_steps(steps: Iterable[Step], tid: int = 0) -> EventStream:
    """Decode thread ``tid``'s steps into per-object events."""
    store, load, work, begin, end = Store, Load, Work, FaseBegin, FaseEnd
    for index, (kinds, args, sizes) in enumerate(steps):
        if not len(kinds) == len(args) == len(sizes):
            raise ragged_step(tid, index, (kinds, args, sizes))
        for kind, arg, size in zip(kinds, args, sizes):
            if kind == 0:
                yield store(arg, size)
            elif kind == 1:
                yield load(arg, size)
            elif kind == 2:
                yield work(arg)
            elif kind == 3:
                yield begin()
            else:
                yield end()


def batches_from_events(
    events: EventStream, chunk: int = BATCH_CHUNK
) -> BatchStream:
    """Chunk a per-object event stream into :class:`EventBatch` runs.

    The recording path for a workload that defines only ``streams()``
    (a bare generator; every registered program emits batches or steps):
    ``BatchCachingWorkload`` drains each stream through here once and
    every technique replays the columns.
    """
    batch = EventBatch()
    append = batch.append_event
    n = 0
    for ev in events:
        append(ev)
        n += 1
        if n >= chunk:
            yield batch
            batch = EventBatch()
            append = batch.append_event
            n = 0
    if n:
        yield batch


def events_from_batches(batches: BatchStream) -> EventStream:
    """Flatten a batch stream back into per-object events."""
    for batch in batches:
        yield from batch.events()


def validate_stream(events: EventStream) -> Iterator[Event]:
    """Yield events from ``events`` while checking FASE bracketing.

    Raises :class:`~repro.common.errors.SimulationError` on an unmatched
    ``FaseEnd`` or on a stream ending inside a FASE.  Useful for testing
    hand-written workloads; the machine itself performs the same checks.
    """
    depth = 0
    for ev in events:
        k = ev.kind
        if k == EventKind.FASE_BEGIN:
            depth += 1
        elif k == EventKind.FASE_END:
            depth -= 1
            if depth < 0:
                raise SimulationError("FaseEnd without matching FaseBegin")
        yield ev
    if depth != 0:
        raise SimulationError(f"stream ended inside a FASE (depth={depth})")
