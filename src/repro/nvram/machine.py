"""The simulated machine: event streams × technique × cache × flush engine.

``Machine.run`` executes a workload's per-thread event streams against

- one shared hardware cache (threads contend for capacity, the effect
  behind Table IV's rising L1 miss ratios),
- one asynchronous flush queue *per thread* (clflush ordering is a
  per-core constraint; the emulated NVRAM behind it is DRAM with
  bandwidth to spare, as on the paper's testbed), and
- one *persistence technique instance per thread* (the paper's software
  caches are strictly per-thread, §II-B: "There is no data sharing
  between software caches").

Threads are interleaved deterministically by smallest-cycle-first
scheduling: the thread whose clock is furthest behind runs the next batch
of events.  Wall-clock time of a run is the largest per-thread clock.
That scheduler is written once (``Machine._schedule``): ``run`` feeds it
workload streams — batches, or live generators a quantum at a time, on
one batched loop; event by event only for value tracking, crash sites
and the tests' reference — and ``drive`` lets a caller that dispatches
operations itself — the Atlas crash replay — borrow it for its sessions.

The technique is a buffer (see :mod:`repro.cache.policies`): the machine
calls ``bind(port)``, then ``insert(line)`` per persistent store —
flushing a returned line in the technique's ``flush_category`` — and
``absorb_repeats`` for a line-touch run's repeats, and at an outermost
FASE's end and the thread's end flushes what ``drain()`` returns,
``levels`` times, one ``clflush`` per line and one drain per result.  It
charges ``cost_per_store`` cycles per persistent store and re-reads
``insert``, handing it the clock, while ``settling`` is set.

Each cache line is touched on one of two paths: inline by the batched
loop's hot rows, or by ``Machine._store_lines`` / ``_load_lines`` — the
per-event engine, sessions, and the loop's cold rows.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import (
    Callable,
    Collection,
    Generator,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
)

from repro.common.errors import ConfigurationError, SimulationError, require_int
from repro.common.events import (
    Event,
    EventKind,
    FaseBegin,
    FaseEnd,
    Load,
    Store,
    VisitCode,
    Work,
    ragged_step,
)
from repro.common.geometry import lines_spanned, negative_size
from repro.locality.trace import WriteTrace
from repro.nvram.failure import (
    SITE_COMMIT,
    SITE_DRAIN,
    SITE_EVICT_FLUSH,
    SITE_LOG_APPEND,
    SITE_STORE,
    CrashedState,
    CrashJournal,
)
from repro.nvram.flushqueue import FlushQueue
from repro.nvram.hwcache import HardwareCache
from repro.nvram.memory import NVRAM_BASE, MainMemory
from repro.nvram.stats import RunResult, ThreadStats
from repro.nvram.timing import DEFAULT_TIMING, TimingModel
from repro.obs.trace import (
    EV_DRAIN,
    EV_EVICT_FLUSH,
    EV_FASE_BEGIN,
    EV_FASE_END,
    EV_SIZE_SELECTED,
    EV_STALL,
    NULL_RECORDER,
)

#: Events a thread executes before the scheduler re-evaluates clocks.
SCHED_BATCH = 64

#: Flush categories that are injectable crash sites, and their class.
#: ``fase_end``/``eager``/``final`` flushes are not individually
#: injectable — the synchronous drain that follows them is the ordering
#: point, and it gets its own :data:`~repro.nvram.failure.SITE_DRAIN`.
_FLUSH_SITE = {
    "eviction": SITE_EVICT_FLUSH,
    "resize_eviction": SITE_EVICT_FLUSH,
    "victim": SITE_EVICT_FLUSH,
    "log": SITE_LOG_APPEND,
    "commit": SITE_COMMIT,
}

class _FlushCounters(dict):
    """Flush category -> counter; a category not listed is a typed error
    (it would otherwise pass for a ``final`` flush with no trace cause
    and no crash-site class)."""

    def __missing__(self, category: str) -> str:
        raise SimulationError(
            f"unknown flush category {category!r}; expected one of {sorted(self)}"
        )


#: The ``ThreadStats`` counter each flush category lands in.
#: Resize-forced evictions stay in the eviction counter (the RunResult
#: schema is unchanged); the trace's cause code below is what
#: distinguishes them.
_FLUSH_COUNTER = _FlushCounters(
    {
        "eviction": "eviction_flushes",
        "resize_eviction": "eviction_flushes",
        "fase_end": "fase_end_flushes",
        "eager": "eager_flushes",
        "log": "log_flushes",
        "commit": "log_flushes",
        "victim": "victim_flushes",
        "final": "final_flushes",
    }
)

#: ``evict_flush`` trace-event cause codes (the event's ``cause`` arg).
#: 0/1 are the schema-2 ``resize_evict`` flag values, so traces of the
#: base techniques are byte-identical across the rename; 4 only appears
#: when the victim stage is composed in (2 and 3 belonged to removed
#: stages and are never written).
_EVICT_TRACE_CAUSE = {
    "eviction": 0,
    "resize_eviction": 1,
    "victim": 4,
}


@dataclass(frozen=True)
class MachineConfig:
    """Static configuration of the simulated machine."""

    timing: TimingModel = DEFAULT_TIMING
    l1_capacity_lines: int = 512      # 32 KiB of 64-byte lines
    l1_ways: int = 8
    track_values: bool = False        # needed for crash/recovery tests

    def __post_init__(self) -> None:
        require_int("l1_ways", self.l1_ways, 1)
        require_int("l1_capacity_lines", self.l1_capacity_lines, self.l1_ways)
        if self.l1_capacity_lines % self.l1_ways:
            raise ConfigurationError(
                f"l1_capacity_lines {self.l1_capacity_lines} is not a multiple "
                f"of l1_ways {self.l1_ways}"
            )


class FlushPort:
    """The interface a persistence technique uses to act on the machine.

    One port per thread.  All flush accounting (counts by category, stall
    cycles, value write-backs) funnels through here.
    """

    __slots__ = ("_machine", "_ctx")

    def __init__(self, machine: "Machine", ctx: "_ThreadContext") -> None:
        self._machine = machine
        self._ctx = ctx

    # -- flushing ------------------------------------------------------

    def flush_async(self, line: int, category: str = "eviction") -> None:
        """Issue one ``clflush``; the write-back overlaps with execution."""
        self._machine._do_flush(self._ctx, line, category)

    def flush_sync(self, lines: Collection[int], category: str = "fase_end") -> None:
        """Flush ``lines`` and stall until all write-backs are durable."""
        self._machine._flush_sync(self._ctx, lines, category)

    # -- bookkeeping -----------------------------------------------------

    def add_adaptation_cost(self, cycles: int) -> None:
        """Charge online adaptation (sampling analysis, size selection)."""
        stats = self._ctx.stats
        stats.cycles += cycles
        stats.adaptation_cycles += cycles

    def record_selected_size(self, size: int) -> None:
        """Log an adaptive cache-size decision."""
        ctx = self._ctx
        ctx.stats.selected_sizes.append(size)
        machine = self._machine
        if machine.metrics is not None:
            # The post-adaptation gauge series starts at the thread's
            # *first* selection (see Machine._sample_metrics).
            tid = ctx.thread_id
            machine._selected_size[tid] = size
            machine._first_selection.setdefault(tid, ctx.stats.cycles)
        rec = machine.recorder
        if rec.enabled:
            rec.record(EV_SIZE_SELECTED, ctx.thread_id, ctx.stats.cycles, size)

    def record_event(self, kind: str, a: int = 0, b: int = 0, c: int = 0) -> None:
        """Emit one structured trace event at the thread's current time.

        A no-op when tracing is off — techniques and controllers call
        this unconditionally; the ``enabled`` gate keeps the cost to one
        attribute load.
        """
        rec = self._machine.recorder
        if rec.enabled:
            ctx = self._ctx
            rec.record(kind, ctx.thread_id, ctx.stats.cycles, a, b, c)

    # -- context ---------------------------------------------------------

    @property
    def current_fase_id(self) -> int:
        """Unique id of the current outermost FASE, or -1 outside any."""
        return self._ctx.fase_uid if self._ctx.fase_depth > 0 else -1

    @property
    def thread_id(self) -> int:
        """Id of the thread this port belongs to."""
        return self._ctx.thread_id


class _ThreadContext:
    """Mutable per-thread execution state (internal)."""

    __slots__ = (
        "thread_id",
        "stream",
        "technique",
        "flushq",
        "stats",
        "port",
        "fase_depth",
        "fase_uid",
        "commit_fase_uid",
        "next_fase_uid",
        "trace_lines",
        "trace_fids",
        "alive",
        "batch_iter",
        "loop",
    )

    def __init__(
        self, thread_id: int, technique: object, record_trace: bool
    ) -> None:
        self.thread_id = thread_id
        self.technique = technique
        # What ``Machine.run`` pulls from: a per-object stream, or batches
        # or live quanta for ``loop``, the thread's batched loop while it
        # runs.  A session has neither — its caller pushes operations.
        self.stream: Iterator[Event] = iter(())
        self.batch_iter: Optional[Iterator] = None
        self.loop: Optional[Generator[bool, int, None]] = None
        self.flushq: Optional[FlushQueue] = None
        self.stats = ThreadStats(thread_id=thread_id)
        self.port: Optional[FlushPort] = None
        self.fase_depth = 0
        self.fase_uid = -1
        # Uid of the FASE currently committing: set just before the
        # technique's buffer drains (its flushes happen at depth 0, after
        # fase_uid stops being "current"), cleared implicitly by the next
        # FASE.  -1 outside any commit.
        self.commit_fase_uid = -1
        # FASE uids unique across threads: thread_id in the high bits.
        self.next_fase_uid = thread_id << 40
        self.trace_lines: Optional[List[int]] = [] if record_trace else None
        self.trace_fids: Optional[List[int]] = [] if record_trace else None
        self.alive = True


def _not_an_event(ctx: _ThreadContext, element: object) -> SimulationError:
    what = f"stream element {element!r} is not an event"
    return SimulationError(f"thread {ctx.thread_id}: {what}")


def _none(num_threads: int, seed: int) -> None:
    """What a workload offers in an encoding it does not emit."""


class _LiveQuantum(NamedTuple):
    """A live quantum as the batch surface the batched loop reads: its
    columns and one span-0 visit row per event."""

    kinds: List[int]
    args: List[int]
    sizes: List[int]
    rows: List[tuple]


def _live_quanta(
    ctx: _ThreadContext, steps: Optional[Iterator]
) -> Iterator[_LiveQuantum]:
    """``ctx``'s live stream as quanta of ``SCHED_BATCH`` events, each
    pulled only when the batched loop reaches it: whole ``steps``
    (enumerated) until it holds one, the rest kept for the next, or else
    per-object events of ``ctx.stream``.  Each event is one span-0 row,
    coded as :meth:`EventBatch.visits` codes it (DESIGN.md §8).  A step
    whose columns differ in length is a ``SimulationError``."""
    kinds, args, sizes = [], [], []
    base = NVRAM_BASE
    while True:
        if steps is not None:
            while len(kinds) < SCHED_BATCH and (taken := next(steps, None)) is not None:
                index, (step_kinds, step_args, step_sizes, values) = taken
                if not len(step_kinds) == len(step_args) == len(step_sizes) == len(values):
                    raise ragged_step(ctx.thread_id, index, taken[1])
                kinds += step_kinds
                args += step_args
                sizes += step_sizes
        else:
            try:
                for ev in islice(ctx.stream, SCHED_BATCH):
                    if (kind := ev.kind) not in (0, 1, 2, 3, 4):
                        raise _not_an_event(ctx, ev)
                    args.append(ev.addr if kind < 2 else ev.amount if kind == 2 else 0)
                    sizes.append(ev.size if kind < 2 else 0)
                    kinds.append(kind)
            except AttributeError:
                raise _not_an_event(ctx, ev) from None
        if not kinds:
            return
        quantum = kinds[:SCHED_BATCH], args[:SCHED_BATCH], sizes[:SCHED_BATCH]
        if min(quantum[2]) < 0:
            raise negative_size(min(quantum[2]))
        del kinds[:SCHED_BATCH], args[:SCHED_BATCH], sizes[:SCHED_BATCH]
        rows = [
            (i, kind, arg, 0, 0, 0, 0) if kind > 1
            else (i, kind, arg >> 6, 0, 0, 0, 0)  # inside one persistent line
            if arg >= base and arg >> 6 == (arg + size - 1) >> 6
            else (i, kind + 5, arg, 0, 0, 0, 0)  # ANY_STORE, ANY_LOAD
            for i, kind, arg, size in zip(range(len(quantum[0])), *quantum)
        ]
        yield _LiveQuantum(*quantum, rows)


class Machine:
    """Executes workloads under a persistence technique.

    Parameters
    ----------
    config:
        Machine configuration (timing model, cache geometry).
    recorder:
        Structured trace recorder (keyword-only); defaults to the
        disabled ``NULL_RECORDER``.
    metrics:
        Metrics registry (keyword-only); default ``None`` disables
        sampling entirely.
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        *,
        recorder: Optional[object] = None,
        metrics: Optional[object] = None,
    ) -> None:
        self.config = config or MachineConfig()
        self.memory = MainMemory()
        self.hwcache = HardwareCache(
            self.config.l1_capacity_lines,
            self.config.l1_ways,
            track_values=self.config.track_values,
        )
        # Observability is strictly opt-in: the default NULL_RECORDER has
        # ``enabled = False``, which every recording site checks first,
        # so an untraced run does no extra work (DESIGN.md §9).
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.metrics = metrics
        self._metrics_prev: dict = {}
        # Post-adaptation gauge state: thread id -> cycle of its first
        # size selection / its current selected size (metrics only).
        self._first_selection: dict = {}
        self._selected_size: dict = {}
        self._stores_seen = 0
        #: Persistent stores the batched loop took as part of a
        #: line-touch run — absorbed as hits, or written through as one
        #: train of flushes — i.e. without an ``insert`` call of their own.
        self.absorbed_stores = 0
        # Crash-site enumeration (repro.faults).  ``_sites_active`` gates
        # every site hook with one attribute load, so a run that does not
        # enumerate sites pays nothing — and it is what ``run`` routes
        # on: a run that does executes event by event.
        self._sites_active = False
        self._sites_seen = 0
        self._site_log: Optional[List[tuple]] = None
        self._journal: Optional[CrashJournal] = None

    def _new_context(
        self, thread_id: int, technique: object, record_trace: bool
    ) -> "_ThreadContext":
        """A thread's execution state, its technique bound to its port."""
        ctx = _ThreadContext(thread_id, technique, record_trace)
        t = self.config.timing
        ctx.flushq = FlushQueue(t.flush_queue_depth, t.writeback_service)
        ctx.port = FlushPort(self, ctx)
        technique.bind(ctx.port)
        return ctx

    # ------------------------------------------------------------------
    # Crash-site enumeration (repro.faults)
    # ------------------------------------------------------------------

    def record_sites(self, journal: Optional[CrashJournal] = None) -> List[tuple]:
        """Enable crash-site enumeration; returns the live site log.

        Each completed injectable site appends one ``(index, site_class,
        thread_id, cycles, journal_length, stores_seen)`` tuple.  Indices
        are global and in execution order, and the same on every replay
        of one configuration: enumeration runs the per-event engine,
        whatever ``use_batches`` a later :meth:`run` is given.  A
        value-tracking machine also records into ``journal`` every change
        a crash capture reads (its length is 0 without one), so any
        site's crashed state is cut from it afterwards.
        """
        self._site_log = []
        self._sites_active = True
        self._journal = journal
        return self._site_log

    @property
    def sites_seen(self) -> int:
        """How many injectable sites have completed so far."""
        return self._sites_seen

    def _note_site(self, ctx: "_ThreadContext", site_class: str) -> None:
        """One injectable site just completed: log it."""
        idx = self._sites_seen
        self._sites_seen = idx + 1
        log = self._site_log
        if log is not None:
            journal = self._journal
            size = 0 if journal is None else len(journal.codes)
            log.append(
                (idx, site_class, ctx.thread_id, ctx.stats.cycles, size, self._stores_seen)
            )

    # ------------------------------------------------------------------
    # Internal flush plumbing
    # ------------------------------------------------------------------

    def _do_flush(self, ctx: _ThreadContext, line: int, category: str) -> None:
        t = self.config.timing
        stats = ctx.stats
        counter = _FLUSH_COUNTER[category]
        stats.cycles += t.flush_issue
        stats.instructions += 1
        stats.flushes += 1
        setattr(stats, counter, getattr(stats, counter) + 1)
        dirty = self.hwcache.clflush(line)
        if self.config.track_values:
            values = self.hwcache.take_values(line)
            if self._journal is not None:
                self._journal.written_back(ctx.thread_id, line, False)
            if values:
                self.memory.write_back(values.items())
        stall = 0
        if dirty:
            now, stall = ctx.flushq.issue(stats.cycles)
            stats.cycles = now
            stats.stall_cycles += stall
        if self.recorder.enabled:
            cause = _EVICT_TRACE_CAUSE.get(category)
            self._record_flush(ctx.thread_id, stats.cycles, line, dirty, cause, stall)
        if self._sites_active:
            site = _FLUSH_SITE.get(category)
            if site is not None:
                self._note_site(ctx, site)

    def _record_flush(self, tid, now, line, dirty, cause, stall) -> None:
        """Trace a flush: its ``evict_flush`` (given a ``cause``) and ``stall``."""
        rec = self.recorder
        if cause is not None:
            rec.record(EV_EVICT_FLUSH, tid, now, line, int(dirty), cause)
        if stall:
            rec.record(EV_STALL, tid, now, stall, 0)

    def _do_drain(self, ctx: _ThreadContext, category: str = "final") -> None:
        stats = ctx.stats
        rec = self.recorder
        outstanding = ctx.flushq.outstanding if rec.enabled else 0
        now, stall = ctx.flushq.drain(stats.cycles)
        stats.cycles = now
        stats.stall_cycles += stall
        if rec.enabled:
            self._record_drain(ctx, category, stall, outstanding)
        if self._journal is not None:
            self._journal.drained(ctx.thread_id)
        if self._sites_active:
            self._note_site(ctx, SITE_DRAIN)

    def _record_drain(self, ctx, category, stall, outstanding) -> None:
        # A FASE-boundary drain is attributed to the committing FASE
        # (commit_fase_uid: fase_depth is already 0 here); uid 0 is a
        # valid FASE, so "no FASE" is explicitly -1.
        fase_id = ctx.commit_fase_uid if category == "fase_end" else -1
        self.recorder.record(
            EV_DRAIN, ctx.thread_id, ctx.stats.cycles, stall, outstanding, fase_id
        )

    def _record_stalls(self, tid: int, stalls: list) -> None:
        # A train's stalled slots, traced as _record_flush traces each.
        for now, stall in stalls:
            self.recorder.record(EV_STALL, tid, now, stall, 0)
        stalls.clear()

    def _flush_sync(
        self, ctx: _ThreadContext, lines: Collection[int], category: str
    ) -> None:
        """Flush ``lines`` in ``category`` and drain: :meth:`_do_flush`
        per line, then :meth:`_do_drain`."""
        for line in lines:
            self._do_flush(ctx, line, category)
        self._do_drain(ctx, category)

    def _commit(self, ctx: _ThreadContext, category: str) -> None:
        """Flush what ``ctx``'s technique drains, level by level."""
        technique = ctx.technique
        for _ in range(technique.levels):
            lines = technique.drain()
            if lines:
                self._flush_sync(ctx, lines, category)

    def _evict_writeback(self, ctx: _ThreadContext, line: int) -> None:
        # A dirty line displaced by a fill: the hardware writes it back in
        # the background (no CPU issue cost, but channel occupancy).
        if self.config.track_values:
            values = self.hwcache.take_values(line)
            if self._journal is not None:
                self._journal.written_back(ctx.thread_id, line, True)
            if values:
                self.memory.write_back(values.items())
        stats = ctx.stats
        now, stall = ctx.flushq.issue(stats.cycles)
        stats.cycles = now
        stats.stall_cycles += stall
        if stall:
            rec = self.recorder
            if rec.enabled:
                rec.record(EV_STALL, ctx.thread_id, stats.cycles, stall, 1)

    # ------------------------------------------------------------------
    # The per-line path: every access the batched loop does not touch inline
    # ------------------------------------------------------------------

    def _store_lines(
        self, ctx: _ThreadContext, addr: int, size: int, value=None, managed=True
    ) -> None:
        """Store ``size`` bytes at ``addr``, line by line: the L1 write, the
        write-back of a dirty line it displaces and the tracked value; for
        a managed persistent store also the technique's ``insert`` (never
        called without a flush category), the flush of the line it
        returns, and the write trace.  An access inside one line — a
        zero-byte one too — touches that line, any other the lines it
        spans."""
        t = self.config.timing
        stats = ctx.stats
        first = addr >> 6
        one = first == (addr + size - 1) >> 6 and size >= 0
        lines = (first,) if one else lines_spanned(addr, size)
        technique = ctx.technique
        persistent = managed and addr >= NVRAM_BASE
        category = technique.flush_category
        for line in lines:
            hit, evicted = self.hwcache.access(line, True)
            stats.cycles += t.l1_hit if hit else t.l1_hit + t.l1_miss
            if evicted is not None and evicted[1]:
                self._evict_writeback(ctx, evicted[0])
            if self.config.track_values:
                self._store_value(line, addr, value)
            if persistent:
                if category is not None:
                    victim = technique.insert(line)
                    if victim is not None:
                        self._do_flush(ctx, victim, category)
                if ctx.trace_lines is not None:
                    ctx.trace_lines.append(line)
                    ctx.trace_fids.append(ctx.fase_uid if ctx.fase_depth > 0 else -1)

    def _load_lines(self, ctx: _ThreadContext, addr: int, size: int) -> None:
        """Load ``size`` bytes at ``addr``, line by line, on
        :meth:`_store_lines`'s line rule: the L1 read and the write-back
        of a dirty line it displaces."""
        t = self.config.timing
        stats = ctx.stats
        first = addr >> 6
        one = first == (addr + size - 1) >> 6 and size >= 0
        lines = (first,) if one else lines_spanned(addr, size)
        for line in lines:
            hit, evicted = self.hwcache.access(line, False)
            stats.cycles += t.l1_hit if hit else t.l1_hit + t.l1_miss
            if evicted is not None and evicted[1]:
                self._evict_writeback(ctx, evicted[0])

    # ------------------------------------------------------------------
    # Event execution
    # ------------------------------------------------------------------

    def _run_batch(self, ctx: _ThreadContext, budget: int) -> bool:
        """Run up to ``budget`` events of ``ctx`` one by one (the reference
        engine); return False at stream end."""
        process = self._process_event
        count = 0
        for ev in islice(ctx.stream, budget):
            try:
                process(ctx, ev)
            except AttributeError:
                if hasattr(ev, "kind"):
                    raise
                raise _not_an_event(ctx, ev) from None
            count += 1
        return count == budget

    def _run_batches(self, ctx: _ThreadContext, budget: int) -> bool:
        """Run up to ``budget`` events of ``ctx``'s batches or live quanta
        on its resident loop (:meth:`_batch_loop`, created at the thread's
        first quantum); False at stream end."""
        loop = ctx.loop
        if loop is None:
            loop = ctx.loop = self._batch_loop(ctx)
            next(loop)
        return loop.send(budget)

    def _batch_loop(self, ctx: _ThreadContext) -> Generator[bool, int, None]:
        """``ctx``'s batched loop: one per thread, resumed by
        :meth:`_run_batches` with each quantum's budget; yields whether the
        thread has more.

        It runs ``ctx``'s batches (or :func:`_live_quanta`) with
        :meth:`_process_event`'s event semantics, entering Python once per
        row of a visit table (:meth:`EventBatch.visits`): the head of a
        line-touch run, or an event in none.  What does not change within
        a run lives as long as the thread: the locals hoisted below, and
        per batch its columns, its row iterator and a row cursor.  A batch
        pulled while other threads can run takes the table cut at this
        thread's quantum edges (its phase: ``-pulled % SCHED_BATCH``), so a
        quantum's rows are the next ``islice`` of it; the rest of the batch
        a thread becomes alone in is the rest of that table.  A thread
        running alone takes whole uncut tables (DESIGN.md §8).  No site is
        logged and no value is tracked in here: such runs execute on
        :meth:`_process_event`.

        *Runs.*  A run's head executes as any store; the rest — ``n``
        same-line stores and the ``WORK`` between them — is one step: ``n``
        L1 hits, ``absorb_repeats(line, n)``, the summed cycles, ``n`` trace
        records.  That is exact because the run lies inside one quantum (no
        other thread touches the set), the head left its line dirty in L1
        (the set says so), and nothing in the run reads the clock.  A
        declined run arrives store by store.

        *Inline and per line.*  A ``STORE``/``LOAD`` row touches its L1 set
        in place; a ``STORE`` row's ``insert`` returns a line that is
        flushed here in the technique's ``flush_category``, records
        included.  An ``eager`` run is that flush of its head and ``n``
        more in one :meth:`FlushQueue.issue_every` (equal gaps, untraced)
        or ``issue_train``, with no ``insert``.  A commit is, per
        ``drain()`` level, :meth:`_flush_sync`'s flushes and drain on
        locals.  The head's and the commit's issues run
        ``FlushQueue.issue``'s lines here.  ``ANY_*`` rows and a declined
        run's stores take the per-line path, :meth:`_store_lines` /
        :meth:`_load_lines`.

        *Counters.*  The hot ``ThreadStats`` and L1 counters are locals,
        merged at every quantum's end, where the scheduler, the sampler and
        the recorder read them.  A slice of rows counts its stores and
        loads (and their instructions) once, off :meth:`EventBatch.tallies`
        or a live quantum's kinds; ``ANY_*`` rows, declined runs and
        volatile accesses correct that on their own branches.
        ``stats.cycles`` is handed over around every call that reads or
        charges it — ``insert`` only while the technique is ``settling``,
        which also has it re-read; a settled technique's repeats, once it
        takes a run, go to one ``absorb_repeats`` per quantum.
        ``cost_per_store``, the flush category and ``levels`` are read once.

        Quanta between runnable threads end on the per-event engine's event
        counts, so the interleaving and every statistic are bit-identical
        (tests/test_batch_equivalence.py, test_machine_invariants.py).
        """
        t = self.config.timing
        stats = ctx.stats
        hw = self.hwcache
        sets = hw.sets
        num_sets = hw.num_sets
        ways = hw.ways
        technique = ctx.technique
        cost_per_store = technique.cost_per_store
        absorb = technique.absorb_repeats
        trace_lines = ctx.trace_lines
        trace_fids = ctx.trace_fids
        evict_writeback = self._evict_writeback
        # Structured tracing: ``recording`` gates the trace records below;
        # it never changes which path a store or a commit takes.
        recorder = self.recorder
        recording = recorder.enabled
        thread_id = ctx.thread_id
        hit_cost = t.l1_hit
        miss_cost = t.l1_hit + t.l1_miss
        # The buffer: what ``insert`` returns is flushed here, in the one
        # category, checked here once; a buffer that never returns a line
        # (BEST) is not called.
        category = technique.flush_category
        insert = None if category is None else technique.insert
        counter = None if category is None else _FLUSH_COUNTER[category]
        cause = _EVICT_TRACE_CAUSE.get(category)
        # A write-through run folds its flushes into one train; traced, it
        # lists each stalled slot for the trace.
        write_through = category == "eager"
        stalls = [] if recording else None
        drains = (technique.drain,) * technique.levels
        settling = technique.settling
        # Each inline issue reads and writes back ``flushq``'s integers:
        # port flushes and ``evict_writeback`` issue on the object too.
        flushq = ctx.flushq
        service = flushq.service
        lead = (flushq.depth - 1) * service
        issue_train = flushq.issue_train
        issue_every = flushq.issue_every
        flush_issue = t.flush_issue
        # Cycles from one flush of such a run to the next, ``WORK`` aside:
        # the bookkeeping of the store just flushed, a miss-fill, the issue.
        flush_gap = cost_per_store + miss_cost + flush_issue
        cpi = t.cpi
        nvram_base = NVRAM_BASE
        kind_store = VisitCode.STORE
        kind_load = VisitCode.LOAD
        kind_work = VisitCode.WORK
        kind_fase_begin = VisitCode.FASE_BEGIN
        kind_fase_end = VisitCode.FASE_END
        any_store = VisitCode.ANY_STORE
        any_load = VisitCode.ANY_LOAD
        store_instructions = 1 + cost_per_store
        repeat_cost = hit_cost + cost_per_store
        # A settled technique that took one run takes every run: the rest
        # of a quantum's repeats go to one ``absorb`` at its end.
        takes = False
        batches = ctx.batch_iter
        batch_len = pos = row = pulled = 0
        budget = yield
        while True:
            # Counters: absolute ones re-read, deltas from zero; merged back
            # in the finally block, with cycles re-synced around every call
            # that reads or charges it (the flush queue timestamps from
            # stats.cycles).  Callbacks only increment, never read, the rest.
            cycles = stats.cycles
            fase_count = stats.fase_count
            instructions = stalled = stores = loads = repeats = 0
            persistent_stores = persistent_loads = 0
            absorbed = flushed = written = cleaned = committed = 0
            l1_loads = l1_stores = load_misses = store_misses = evict_writebacks = 0
            alive = True
            try:
                while budget > 0:
                    if pos >= batch_len:
                        batch = next(batches, None)
                        if batch is None:
                            alive = False
                            break
                        kinds = batch.kinds
                        args = batch.args
                        sizes = batch.sizes
                        batch_len = len(kinds)
                        pos = row = 0
                        if type(batch) is _LiveQuantum:     # span-0 rows, run whole
                            run_stores = run_cycles = bytes(batch_len)
                            index, rows = range(batch_len), iter(batch.rows)
                            store_tally = 0, kinds.count(kind_store)
                            load_tally = 0, kinds.count(kind_load)
                        else:
                            cut = SCHED_BATCH if budget <= SCHED_BATCH else 0
                            phase = -pulled % SCHED_BATCH if cut else 0
                            _, run_stores, _, run_cycles = batch.line_runs(
                                cpi, phase, cut
                            )
                            table = batch.visits(cpi, nvram_base, phase, cut)
                            index, rows = table[0], zip(*table)
                            store_tally, load_tally = batch.tallies(
                                cpi, nvram_base, phase, cut
                            )
                        pulled += batch_len
                    end = batch_len
                    if end - pos > budget:
                        end = pos + budget
                    if end == batch_len:
                        quantum = rows
                        entered = -1    # the table's end
                    else:
                        entered = bisect_left(index, end, row)
                        quantum = islice(rows, entered - row)
                    stores += store_tally[entered] - store_tally[row]
                    loads += load_tally[entered] - load_tally[row]
                    row = entered
                    budget -= end - pos
                    for i, code, arg, span, n, amount, work_cycles in quantum:
                        if code == kind_store:
                            # Inside one line — ``arg`` — and persistent.
                            lines_set = sets[arg % num_sets]
                            if arg in lines_set:
                                lines_set.move_to_end(arg)
                                cycles += hit_cost
                            else:
                                store_misses += 1
                                cycles += miss_cost
                                if len(lines_set) >= ways and (
                                    old := lines_set.popitem(False)
                                )[1]:
                                    evict_writebacks += 1
                                    stats.cycles = cycles
                                    evict_writeback(ctx, old[0])
                                    cycles = stats.cycles
                            lines_set[arg] = True
                            if insert is not None:
                                if write_through:
                                    # ER flushes what it stores, unasked.
                                    victim = arg
                                elif settling:
                                    # A sampling SC charges samples and resizes
                                    # in here, and rebinds ``insert`` when it
                                    # settles; a settled one reads no clock.
                                    insert = technique.insert
                                    settling = technique.settling
                                    stats.cycles = cycles
                                    victim = insert(arg)
                                    cycles = stats.cycles
                                else:
                                    victim = insert(arg)
                                if victim is not None:
                                    # Its flush, as ``_do_flush`` issues it.
                                    cycles += flush_issue
                                    flushed += 1
                                    stall = 0
                                    dirty = sets[victim % num_sets].pop(victim, False)
                                    written += dirty
                                    cleaned += not dirty
                                    if dirty:
                                        done = flushq.last_completion
                                        free_at = done - lead
                                        if free_at > cycles:
                                            stall = free_at - cycles
                                            stalled += stall
                                            cycles = free_at
                                        elif cycles > done:
                                            done = cycles
                                        flushq.last_completion = done + service
                                        flushq._seen = cycles
                                        flushq.issued += 1
                                    if recording:
                                        self._record_flush(
                                            thread_id, cycles, victim, dirty, cause, stall
                                        )
                            if trace_lines is not None:
                                trace_lines.append(arg)
                                trace_fids.append(
                                    ctx.fase_uid if ctx.fase_depth > 0 else -1
                                )
                            cycles += cost_per_store
                            if write_through:
                                # A write-through run: per repeat the ``WORK``
                                # before it, a miss-fill, one flush, one queue
                                # slot, bookkeeping, gapped from the head's
                                # issue; no ``insert``.
                                absorbed += n + 1
                                instructions += amount
                                if not n:
                                    cycles += work_cycles
                                    continue
                                cycles -= cost_per_store    # the head's issue
                                if stalls is None and run_stores[i + n] + n == run_stores[i]:
                                    # The repeats come first, any ``WORK``
                                    # after them: the usual store burst, in
                                    # closed form unless each stall is traced.
                                    cycles, stall = issue_every(cycles, flush_gap, n)
                                    cycles += cost_per_store + work_cycles
                                else:
                                    before = run_cycles[i]
                                    gaps = []
                                    for j in range(i + 1, i + span + 1):
                                        if kinds[j] == kind_store:
                                            here = run_cycles[j]
                                            gaps.append(flush_gap + before - here)
                                            before = here
                                    cycles, stall = issue_train(cycles, gaps, stalls)
                                    cycles += cost_per_store + before - run_cycles[i + span]
                                    if stalls:
                                        self._record_stalls(thread_id, stalls)
                                stalled += stall
                                store_misses += n
                                written += n
                                flushed += n
                                if trace_lines is not None:
                                    trace_lines.extend([arg] * n)
                                    trace_fids.extend([trace_fids[-1]] * n)
                                continue
                            if not span:
                                continue
                            if n:
                                # The ``n`` stores that repeat this one, taken
                                # in one step if ``absorb`` vouches for each —
                                # and only if the head left the line in L1,
                                # dirty (SC may flush it when it shrinks; a
                                # flush pops it and nothing since refills it):
                                # a flushed line's repeat is a miss.  No
                                # flush, no change.
                                if arg in lines_set:
                                    if takes:
                                        repeats += n
                                        repeat_line = arg
                                    else:
                                        # A sampling SC charges its samples here.
                                        stats.cycles = cycles
                                        taken = absorb(arg, n)
                                        cycles = stats.cycles
                                        takes = taken and not settling
                                    if takes or taken:
                                        absorbed += n
                                        if trace_lines is not None:
                                            trace_lines.extend([arg] * n)
                                            trace_fids.extend([trace_fids[-1]] * n)
                                        cycles += n * repeat_cost + work_cycles
                                        instructions += amount
                                        continue
                                # Declined: the run arrives store by store, its
                                # L1 touches counted by ``access``.
                                l1_stores -= n
                                stats.cycles = cycles
                                for j in range(i + 1, i + span + 1):
                                    if kinds[j] == kind_work:
                                        work = args[j]
                                        stats.cycles += int(work * cpi)
                                        instructions += work
                                        continue
                                    self._store_lines(ctx, args[j], sizes[j])
                                    stats.cycles += cost_per_store
                                cycles = stats.cycles
                                continue
                        elif code == kind_work:
                            cycles += int(arg * cpi)
                            instructions += arg
                            continue
                        elif code == kind_load:
                            lines_set = sets[arg % num_sets]
                            if arg in lines_set:
                                lines_set.move_to_end(arg)
                                cycles += hit_cost
                            else:
                                load_misses += 1
                                cycles += miss_cost
                                if len(lines_set) >= ways and (
                                    old := lines_set.popitem(False)
                                )[1]:
                                    evict_writebacks += 1
                                    stats.cycles = cycles
                                    evict_writeback(ctx, old[0])
                                    cycles = stats.cycles
                                lines_set[arg] = False
                            continue
                        elif code == kind_fase_begin:
                            ctx.fase_depth += 1
                            if ctx.fase_depth == 1:
                                ctx.fase_uid = ctx.next_fase_uid
                                ctx.next_fase_uid += 1
                                if recording:
                                    recorder.record(
                                        EV_FASE_BEGIN, thread_id, cycles, ctx.fase_uid
                                    )
                            continue
                        elif code == kind_fase_end:
                            if ctx.fase_depth == 0:
                                raise SimulationError(
                                    f"thread {ctx.thread_id}: "
                                    "FaseEnd without FaseBegin"
                                )
                            ctx.fase_depth -= 1
                            if ctx.fase_depth == 0:
                                ctx.commit_fase_uid = ctx.fase_uid
                                for drain in drains:
                                    lines = drain()
                                    if not lines:
                                        continue
                                    # ``_flush_sync`` on locals: per line a pop
                                    # and the issue cycles, per write-back ``issue``.
                                    done = flushq.last_completion
                                    stall = dirty = 0
                                    for line in lines:
                                        cycles += flush_issue
                                        if sets[line % num_sets].pop(line, False):
                                            dirty += 1
                                            free_at = done - lead
                                            if free_at > cycles:
                                                stall += free_at - cycles
                                                if recording:
                                                    stalls.append((free_at, free_at - cycles))
                                                cycles = free_at
                                            done = (done if done > cycles else cycles) + service
                                            seen = cycles
                                    if dirty:
                                        flushq.last_completion = done
                                        flushq._seen = seen
                                        flushq.issued += dirty
                                    wait = done - cycles if done > cycles else 0
                                    cycles += wait
                                    stalled += stall + wait
                                    if recording:
                                        self._record_stalls(thread_id, stalls)
                                        stats.cycles = cycles
                                        self._record_drain(
                                            ctx, "fase_end", wait, flushq.outstanding
                                        )
                                    flushq._seen = None
                                    written += dirty
                                    cleaned += len(lines) - dirty
                                    committed += len(lines)
                                fase_count += 1
                                if recording:
                                    # After the drain, so the B/E span covers
                                    # the commit stall (same in both paths).
                                    recorder.record(
                                        EV_FASE_END, thread_id, cycles, ctx.fase_uid
                                    )
                            continue
                        elif code == any_store:
                            # Across lines, or volatile: the general store.
                            addr = args[i]
                            stats.cycles = cycles
                            self._store_lines(ctx, addr, sizes[i])
                            cycles = stats.cycles
                            l1_stores -= 1          # ``access`` counted it
                            if addr >= nvram_base:
                                cycles += cost_per_store
                            else:
                                # Tallied as ``1 + n`` persistent stores.
                                persistent_stores -= 1 + n
                                instructions -= (1 + n) * cost_per_store
                            if not span:  # only a volatile line touch has one
                                continue
                        elif code == any_load:
                            addr = args[i]
                            stats.cycles = cycles
                            self._load_lines(ctx, addr, sizes[i])
                            cycles = stats.cycles
                            l1_loads -= 1           # ``access`` counted it
                            if addr < nvram_base:
                                persistent_loads -= 1
                            continue
                        else:
                            raise SimulationError(f"unknown event kind {code}")
                        # What is left of this line touch is ``n`` plain hits (a
                        # volatile line's) and ``amount`` instructions of ``WORK``.
                        cycles += n * hit_cost + work_cycles
                        instructions += amount
                    pos = end
            finally:
                stats.cycles = cycles
                if repeats:
                    absorb(repeat_line, repeats)
                stats.instructions += instructions + flushed + committed
                stats.instructions += stores * store_instructions + loads
                stats.stall_cycles += stalled
                persistent_stores += stores
                self._stores_seen += persistent_stores
                stats.persistent_stores += persistent_stores
                stats.persistent_loads += persistent_loads + loads
                stats.fase_count = fase_count
                self.absorbed_stores += absorbed
                if flushed:
                    stats.flushes += flushed
                    setattr(stats, counter, getattr(stats, counter) + flushed)
                if committed:
                    stats.flushes += committed
                    stats.fase_end_flushes += committed
                hw.loads += l1_loads + loads
                hw.stores += l1_stores + stores
                hw.load_misses += load_misses
                hw.store_misses += store_misses
                hw.evict_writebacks += evict_writebacks
                hw.flush_writebacks += written
                hw.clean_flushes += cleaned
            budget = yield alive

    def _process_event(self, ctx: _ThreadContext, ev: Event) -> None:
        """Execute one event on behalf of ``ctx`` (the simulator core)."""
        stats = ctx.stats
        kind = ev.kind
        if kind == EventKind.STORE:
            addr = ev.addr
            self._store_lines(ctx, addr, ev.size, ev.value)
            stats.instructions += 1
            if addr >= NVRAM_BASE:
                cost_per_store = ctx.technique.cost_per_store
                stats.persistent_stores += 1
                stats.cycles += cost_per_store
                stats.instructions += cost_per_store
                self._stores_seen += 1
                if self._sites_active:
                    self._note_site(ctx, SITE_STORE)
        elif kind == EventKind.WORK:
            amount = ev.amount
            stats.cycles += int(amount * self.config.timing.cpi)
            stats.instructions += amount
        elif kind == EventKind.LOAD:
            addr = ev.addr
            self._load_lines(ctx, addr, ev.size)
            stats.instructions += 1
            if addr >= NVRAM_BASE:
                stats.persistent_loads += 1
        elif kind == EventKind.FASE_BEGIN:
            ctx.fase_depth += 1
            if ctx.fase_depth == 1:
                ctx.fase_uid = ctx.next_fase_uid
                ctx.next_fase_uid += 1
                rec = self.recorder
                if rec.enabled:
                    rec.record(
                        EV_FASE_BEGIN, ctx.thread_id, stats.cycles, ctx.fase_uid
                    )
        elif kind == EventKind.FASE_END:
            if ctx.fase_depth == 0:
                raise SimulationError(
                    f"thread {ctx.thread_id}: FaseEnd without FaseBegin"
                )
            ctx.fase_depth -= 1
            if ctx.fase_depth == 0:
                ctx.commit_fase_uid = ctx.fase_uid
                self._commit(ctx, "fase_end")
                stats.fase_count += 1
                rec = self.recorder
                if rec.enabled:
                    rec.record(
                        EV_FASE_END, ctx.thread_id, stats.cycles, ctx.fase_uid
                    )
        else:
            raise _not_an_event(ctx, ev)

    def _sample_metrics(self, ctx: _ThreadContext) -> None:
        """Record one thread's gauge levels if its interval elapsed.

        Called at quantum boundaries (every ``SCHED_BATCH`` events), so
        sampling cost never touches the event hot loop.  All levels are
        functions of deterministic model state, so repeated runs of one
        configuration produce byte-identical registries.
        """
        m = self.metrics
        stats = ctx.stats
        now = stats.cycles
        tid = ctx.thread_id
        if not m.due(tid, now):
            return
        key = f"t{tid}"
        m.sample(f"flush_queue_depth/{key}", now, ctx.flushq.outstanding)
        # Software-cache (or Atlas-table) occupancy, for techniques that
        # have one; duck-typed like the rest of the technique protocol.
        buf = getattr(ctx.technique, "cache", None)
        if buf is None:
            buf = getattr(ctx.technique, "table", None)
        if buf is not None:
            m.sample(f"cache_occupancy/{key}", now, len(buf))
        prev_flushes, prev_stores = self._metrics_prev.get(tid, (0, 0))
        d_flushes = stats.flushes - prev_flushes
        d_stores = stats.persistent_stores - prev_stores
        self._metrics_prev[tid] = (stats.flushes, stats.persistent_stores)
        m.sample(
            f"flush_ratio/{key}", now, d_flushes / d_stores if d_stores else 0.0
        )
        # Post-adaptation gauge: exists only once the thread has selected
        # a size.  Its own due-schedule starts at the selection cycle, so
        # the series never backfills a phantom sample at cycle 0.
        first = self._first_selection.get(tid)
        if first is not None and m.due(("selected_size", tid), now, start=first):
            m.sample(f"selected_size/{key}", now, self._selected_size[tid])

    def _final_metrics(self, ctx: _ThreadContext) -> None:
        """Dump one thread's run totals into the registry as counters.

        Final totals land as counters so one registry dump is
        self-describing without the matching RunResult in hand.  Called
        by the scheduler for every thread, whether the run finished or
        the power failed.
        """
        m = self.metrics
        s = ctx.stats
        key = f"t{ctx.thread_id}"
        m.inc(f"flushes/{key}", s.flushes)
        m.inc(f"persistent_stores/{key}", s.persistent_stores)
        m.inc(f"stall_cycles/{key}", s.stall_cycles)
        m.inc(f"fase_count/{key}", s.fase_count)
        m.set_gauge(f"cycles/{key}", s.cycles)

    def _store_value(self, line: int, addr: int, value: object) -> None:
        """Track a store to ``line`` (a volatile ``addr`` only dirties it)."""
        journal = self._journal
        if addr >= NVRAM_BASE:
            self.hwcache.store_value(line, addr, value)
            if journal is not None:
                journal.stored(line, addr, value)
        elif journal is not None:
            journal.dirtied(line)

    def power_cut(self) -> CrashedState:
        """What a clean power cut *now* leaves: the durable image, copied,
        and the dirty lines lost.  The machine itself is left as it was."""
        lost = sorted(self.hwcache.dirty_lines())
        return CrashedState(dict(self.memory.nvram), lost, self._stores_seen)

    # ------------------------------------------------------------------
    # Imperative per-thread driver (used by the Atlas runtime)
    # ------------------------------------------------------------------

    def session(
        self,
        technique: object,
        thread_id: int = 0,
        record_trace: bool = False,
    ) -> "MachineSession":
        """Open an imperative execution session for one simulated thread.

        Unlike :meth:`run`, which pulls events from workload streams, a
        session lets library code *push* operations (store, load, FASE
        boundaries) as they happen — this is how the Atlas runtime and
        the MDB store drive the machine.
        """
        return MachineSession(
            self, self._new_context(thread_id, technique, record_trace)
        )

    def read_current(self, addr: int, default: object = None) -> object:
        """The value a load of ``addr`` would observe right now.

        Reads through the hardware cache's pending (dirty, un-written-
        back) values, falling back to the durable memory image.  Only
        meaningful with ``track_values`` enabled.
        """
        line = addr >> 6
        pending = self.hwcache.values.get(line)
        if pending is not None and addr in pending:
            return pending[addr]
        return self.memory.read(addr, default)

    # ------------------------------------------------------------------
    # Public driver
    # ------------------------------------------------------------------

    def run(
        self,
        workload: object,
        technique_factory: Callable[[int], object],
        *,
        num_threads: int = 1,
        seed: int = 0,
        record_traces: bool = False,
        use_batches: Optional[bool] = None,
    ) -> RunResult:
        """Execute ``workload`` and return the collected statistics.

        Parameters
        ----------
        workload:
            Object with ``streams(num_threads, seed) -> list of event
            iterators`` and a ``name``; the batched loop runs its
            ``batch_streams`` or else its ``steps`` instead, where it
            offers them (:class:`~repro.workloads.base.Workload`).
        technique_factory:
            Called once per thread id; returns a fresh technique instance
            (software caches are per-thread).
        num_threads, seed, record_traces, use_batches:
            Keyword-only.  ``record_traces`` collects the per-thread
            persistent-write traces (needed for offline MRC analysis and
            the figure pipelines).  ``use_batches=False`` selects the
            per-event reference engine; either engine gives bit-identical
            results.

        Routing: a run goes event by event only under ``use_batches=False``,
        value tracking (the batched loop reads no payloads) or crash sites
        active (:meth:`record_sites` called: ``store`` sites exist only
        there).  Any other run takes the batched loop, over batches or a
        live stream's quanta (:func:`_live_quanta`).
        """
        require_int("num_threads", num_threads, 1)
        per_event = (
            use_batches is False or self.config.track_values or self._sites_active
        )
        streams = steps = None
        if not per_event:
            streams = getattr(workload, "batch_streams", _none)(num_threads, seed)
            if streams is None:
                steps = getattr(workload, "steps", _none)(num_threads, seed)
        batched = streams is not None
        if not batched:
            streams = workload.streams(num_threads, seed) if steps is None else steps
        if len(streams) != num_threads:
            raise SimulationError(
                f"workload produced {len(streams)} streams for {num_threads} threads"
            )
        contexts = []
        for tid, stream in enumerate(streams):
            ctx = self._new_context(tid, technique_factory(tid), record_traces)
            if batched:
                ctx.batch_iter = iter(stream)
            elif steps is not None:
                ctx.batch_iter = _live_quanta(ctx, enumerate(stream))
            else:
                ctx.stream = iter(stream)
                if not per_event:
                    ctx.batch_iter = _live_quanta(ctx, None)
            contexts.append(ctx)
        self._schedule(contexts, self._run_batch if per_event else self._run_batches)
        for ctx in contexts:    # ports let go: no cycle keeps the machine alive
            ctx.port._ctx = None

        traces = None
        if record_traces:
            traces = [
                WriteTrace(ctx.trace_lines, ctx.trace_fids) for ctx in contexts
            ]
        return RunResult(
            workload=getattr(workload, "name", type(workload).__name__),
            technique=getattr(
                contexts[0].technique, "name", type(contexts[0].technique).__name__
            ),
            num_threads=num_threads,
            threads=[ctx.stats for ctx in contexts],
            l1_accesses=self.hwcache.accesses,
            l1_misses=self.hwcache.misses,
            traces=traces,
        )

    def drive(
        self,
        sessions: Sequence["MachineSession"],
        step: Callable[[int, int], bool],
    ) -> None:
        """Interleave session-driven threads under the machine's scheduler.

        For code that must dispatch each operation itself (the Atlas
        golden replay logs a store's old value before the store) yet wants
        the interleaving and sampling of :meth:`run`.
        ``step(thread_id, budget)`` pushes up to ``budget`` operations
        through that thread's session and returns whether any are left;
        a thread that has none left is finished here, as by
        :meth:`MachineSession.finish`.  Returns when every thread has
        finished.
        """
        self._schedule(
            [session._ctx for session in sessions],
            lambda ctx, budget: step(ctx.thread_id, budget),
        )

    def _schedule(
        self,
        contexts: Sequence[_ThreadContext],
        runner: Callable[[_ThreadContext, int], bool],
    ) -> None:
        """Run ``contexts`` to completion, smallest clock first.

        The thread whose clock is furthest behind (ties: lowest thread
        id) gets the next quantum: ``runner(ctx, budget)`` executes up to
        ``budget`` events and returns whether the thread has more.  A
        thread's last quantum is followed by ``finish()``.  Every edge
        feeds the metrics sampler and the recorder's window watermark;
        final counters are dumped for every thread at the end.
        """
        metrics = self.metrics
        rec = self.recorder
        # A quantum edge exists to let another thread run, and for what
        # observes it: the sampler and the recorder.  With neither it is
        # inert (DESIGN.md §8), so the only runnable thread of an
        # unobserved batched run takes the rest of its stream as one
        # quantum.
        lone_budget = (
            sys.maxsize
            if runner == self._run_batches and metrics is None and not rec.enabled
            else SCHED_BATCH
        )
        # Thread ids are unique, so comparison never reaches the context.
        heap = [(ctx.stats.cycles, ctx.thread_id, ctx) for ctx in contexts]
        heapq.heapify(heap)
        while heap:
            _, tid, ctx = heap[0]
            alive = runner(ctx, SCHED_BATCH if len(heap) > 1 else lone_budget)
            if metrics is not None:
                self._sample_metrics(ctx)
            if rec.enabled:
                rec.on_quantum(tid, ctx.stats.cycles)
            if alive:
                heapq.heapreplace(heap, (ctx.stats.cycles, tid, ctx))
            else:
                heapq.heappop(heap)
                self._finish(ctx)
        if metrics is not None:
            for ctx in contexts:
                self._final_metrics(ctx)

    def _finish(self, ctx: _ThreadContext) -> None:
        """End of a thread: the technique drains what it still buffers.
        Its batched loop goes, and with it the loop's reference to ``ctx``."""
        ctx.loop = None
        if ctx.fase_depth != 0:
            raise SimulationError(
                f"thread {ctx.thread_id} ended inside a FASE "
                f"(depth={ctx.fase_depth})"
            )
        self._commit(ctx, "final")
        ctx.alive = False


class MachineSession:
    """Imperative single-thread execution handle (see ``Machine.session``).

    Methods mirror the event vocabulary; each call executes immediately
    against the machine's cache, flush queue and the session's technique.
    The session must be closed with :meth:`finish` so the technique can
    drain its remaining buffered lines.
    """

    __slots__ = ("machine", "_ctx")

    def __init__(self, machine: Machine, ctx: _ThreadContext) -> None:
        self.machine = machine
        self._ctx = ctx

    # -- operations ------------------------------------------------------

    def store(self, addr: int, size: int = 8, value: object = None) -> None:
        """Execute a store (persistent iff ``addr`` is in NVRAM)."""
        self.machine._process_event(self._ctx, Store(addr, size, value))

    def store_unmanaged(self, addr: int, size: int = 8, value: object = None) -> None:
        """A persistent store *not* routed to the persistence technique.

        Used for runtime metadata (undo-log records) that has its own
        flush discipline: the technique must not buffer these lines, or
        it would re-flush already-durable log entries at every drain.
        Still pays full hardware-cache timing and value tracking.
        """
        self.machine._store_lines(self._ctx, addr, size, value, managed=False)
        self._ctx.stats.instructions += 1

    def load(self, addr: int, size: int = 8) -> object:
        """Execute a load; return the currently visible value."""
        self.machine._process_event(self._ctx, Load(addr, size))
        return self.machine.read_current(addr)

    def work(self, amount: int) -> None:
        """Execute ``amount`` instructions of computation."""
        self.machine._process_event(self._ctx, Work(amount))

    def fase_begin(self) -> None:
        """Enter a failure-atomic section (may nest)."""
        self.machine._process_event(self._ctx, FaseBegin())

    def fase_end(self) -> None:
        """Leave a failure-atomic section."""
        self.machine._process_event(self._ctx, FaseEnd())

    # -- lifecycle ---------------------------------------------------------

    @property
    def fase_depth(self) -> int:
        """Current FASE nesting depth."""
        return self._ctx.fase_depth

    @property
    def current_fase_id(self) -> int:
        """Unique id of the current outermost FASE, or -1 outside any."""
        return self._ctx.fase_uid if self._ctx.fase_depth > 0 else -1

    @property
    def stats(self) -> ThreadStats:
        """Live counters of this session's thread."""
        return self._ctx.stats

    def trace(self) -> Optional[WriteTrace]:
        """The persistent-write trace, if recording was requested."""
        if self._ctx.trace_lines is None:
            return None
        return WriteTrace(self._ctx.trace_lines, self._ctx.trace_fids)

    def finish(self) -> None:
        """Close the session: drain the technique's remaining lines."""
        if self._ctx.alive:
            self.machine._finish(self._ctx)
