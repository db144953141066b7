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

The technique object is duck-typed (see :mod:`repro.cache.policies`): the
machine calls ``bind(port)``, ``on_store(line)``, ``on_fase_begin()``,
``on_fase_end()`` (outermost FASEs only) and ``finish()``, and reads the
``cost_per_store`` attribute for per-store bookkeeping cycles.  The
batched loop also reads the ``on_store_noop`` and ``write_through``
attributes and calls ``absorb_repeats``, which let it skip ``on_store``,
and drives a ``buffered`` technique through ``insert``/``drain``, issuing
its flushes itself.  A FASE commit is one flush train.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from itertools import islice
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.events import (
    Event,
    EventBatch,
    EventKind,
    FaseBegin,
    FaseEnd,
    Load,
    Store,
    VisitCode,
    Work,
)
from repro.common.geometry import lines_spanned
from repro.locality.trace import WriteTrace
from repro.nvram.failure import (
    FAULT_CLEAN,
    FAULT_REORDERED_FLUSH,
    SITE_COMMIT,
    SITE_DRAIN,
    SITE_EVICT_FLUSH,
    SITE_LOG_APPEND,
    SITE_STORE,
    CrashedState,
    CrashJournal,
    CrashPlan,
    InFlight,
    PowerFailure,
    crash_state,
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
        if self.l1_ways < 1:
            raise ConfigurationError(f"l1_ways must be >= 1, got {self.l1_ways}")
        if self.l1_capacity_lines < self.l1_ways:
            raise ConfigurationError("cache must hold at least one set")


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

    def flush_async(
        self, line: int, category: str = "eviction", invalidate: bool = True
    ) -> None:
        """Issue one flush; the write-back overlaps with execution.

        ``invalidate=True`` models ``clflush`` (what Atlas uses);
        ``invalidate=False`` models ``clwb``, which writes back but keeps
        the line valid — cheaper on the next access, at the coherence
        caveat §II-A notes.
        """
        self._machine._do_flush(self._ctx, line, category, invalidate)

    def flush_sync(
        self,
        lines: Iterable[int],
        category: str = "fase_end",
        invalidate: bool = True,
    ) -> None:
        """Flush ``lines`` and stall until all write-backs are durable."""
        self._machine._flush_sync(self._ctx, lines, category, invalidate)

    # -- bookkeeping -----------------------------------------------------

    def add_overhead(self, cycles: int, instructions: int = 0) -> None:
        """Charge technique bookkeeping (e.g. MRC analysis) to the thread."""
        stats = self._ctx.stats
        stats.cycles += cycles
        stats.instructions += instructions
        stats.technique_overhead_cycles += cycles

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
        "batch",
        "batch_pos",
    )

    def __init__(
        self, thread_id: int, technique: object, record_trace: bool
    ) -> None:
        self.thread_id = thread_id
        self.technique = technique
        # What ``Machine.run`` pulls from: a per-object stream or a batch
        # stream.  A session has neither — its caller pushes operations.
        self.stream: Iterator[Event] = iter(())
        self.batch_iter: Optional[Iterator[EventBatch]] = None
        self.batch: Optional[EventBatch] = None
        self.batch_pos = 0
        self.flushq: Optional[FlushQueue] = None
        self.stats = ThreadStats(thread_id=thread_id)
        self.port: Optional[FlushPort] = None
        self.fase_depth = 0
        self.fase_uid = -1
        # Uid of the FASE currently committing: set just before the
        # technique's on_fase_end() runs (the drain it triggers happens
        # at depth 0, after fase_uid stops being "current"), cleared
        # implicitly by the next FASE.  -1 outside any commit.
        self.commit_fase_uid = -1
        # FASE uids unique across threads: thread_id in the high bits.
        self.next_fase_uid = thread_id << 40
        self.trace_lines: Optional[List[int]] = [] if record_trace else None
        self.trace_fids: Optional[List[int]] = [] if record_trace else None
        self.alive = True


def _not_an_event(ctx: _ThreadContext, element: object) -> SimulationError:
    what = f"stream element {element!r} is not an event"
    return SimulationError(f"thread {ctx.thread_id}: {what}")


class _LiveQuantum(NamedTuple):
    """A live quantum as the :class:`EventBatch` surface ``_run_batches``
    reads: one visit row per event, so every line-touch run is empty."""

    kinds: List[int]
    args: List[int]
    sizes: List[int]
    rows: List[tuple]

    def line_runs(self, cpi: float) -> Tuple[bytes, ...]:
        return (bytes(len(self.kinds)),) * 4

    def visit_rows(self, pos: int, end: int, cpi: float, base: int) -> list:
        return self.rows[pos:end]


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
        #: train of flushes — i.e. without an ``on_store`` call of their own.
        self.absorbed_stores = 0
        self.crashed_state: Optional[CrashedState] = None
        # Crash-site machinery (repro.faults).  ``_sites_active`` gates
        # every site hook with one attribute load, so runs that neither
        # enumerate sites nor arm a crash pay nothing — and it is what
        # ``run`` routes on: such a run executes event by event.
        self._sites_active = False
        self._sites_seen = 0
        self._site_log: Optional[List[tuple]] = None
        self._journal: Optional[CrashJournal] = None
        # The armed crash; ``_next_target`` is its site (-1: none), so
        # ``_note_site`` tests one int per site.
        self._crash_plan: Optional[CrashPlan] = None
        self._next_target = -1
        # In-flight eviction write-backs, kept only for an armed
        # reordered_flush crash.
        self._inflight: Optional[InFlight] = None

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
    # Crash-site enumeration and scheduled failures (repro.faults)
    # ------------------------------------------------------------------

    def record_sites(self, journal: Optional[CrashJournal] = None) -> List[tuple]:
        """Enable crash-site enumeration; returns the live site log.

        Each completed injectable site appends one ``(index, site_class,
        thread_id, cycles, journal_length, stores_seen)`` tuple.  Indices
        are global and in execution order; a deterministic replay of the
        same configuration visits the same sites with the same indices,
        which is the contract ``CrashPlan(at_site=...)`` relies on —
        enumeration and injection both run the per-event engine, whatever
        ``use_batches`` a later :meth:`run` is given.  A value-tracking
        machine also records into ``journal`` every change a crash
        capture reads (its length is 0 without one), so any site's
        crashed state can be cut from it afterwards.
        """
        self._site_log = []
        self._sites_active = True
        self._journal = journal
        return self._site_log

    @property
    def sites_seen(self) -> int:
        """How many injectable sites have completed so far."""
        return self._sites_seen

    def arm_crash_plan(self, plan: Optional[CrashPlan]) -> None:
        """Schedule the crash ``plan`` names; ``None`` disarms.

        ``Machine.run`` arms its ``crash_plan`` argument through here;
        imperative drivers (sessions / the Atlas runtime) call it
        directly before pushing operations, and see
        :class:`~repro.nvram.failure.PowerFailure` raised out of the
        operation that completed the site, with ``crashed_state``
        already populated.
        """
        self._crash_plan = plan
        self._next_target = -1 if plan is None else plan.at_site
        self._inflight = None
        if plan is not None:
            self._sites_active = True
            if plan.fault_model == FAULT_REORDERED_FLUSH:
                depth = self.config.timing.flush_queue_depth
                self._inflight = InFlight(depth, self.memory.nvram)

    def _note_site(self, ctx: "_ThreadContext", site_class: str) -> None:
        """One injectable site just completed; crash here if scheduled."""
        idx = self._sites_seen
        self._sites_seen = idx + 1
        log = self._site_log
        if log is not None:
            journal = self._journal
            size = 0 if journal is None else len(journal.codes)
            log.append(
                (idx, site_class, ctx.thread_id, ctx.stats.cycles, size, self._stores_seen)
            )
        if idx == self._next_target:
            plan = self._crash_plan
            self._crash(idx, site_class, plan.fault_model, plan.fault_seed)
            raise PowerFailure(f"scheduled power failure at site {idx} ({site_class})")

    # ------------------------------------------------------------------
    # Internal flush plumbing
    # ------------------------------------------------------------------

    def _do_flush(
        self,
        ctx: _ThreadContext,
        line: int,
        category: str,
        invalidate: bool = True,
    ) -> None:
        t = self.config.timing
        stats = ctx.stats
        counter = _FLUSH_COUNTER[category]
        stats.cycles += t.flush_issue
        stats.instructions += 1
        stats.flushes += 1
        setattr(stats, counter, getattr(stats, counter) + 1)
        if invalidate:
            dirty = self.hwcache.clflush(line)
        else:
            dirty = self.hwcache.clwb(line)
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
        if self._inflight is not None:
            self._inflight.flushed(line)
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
            # A FASE-boundary drain is attributed to the committing FASE
            # (commit_fase_uid: fase_depth is already 0 here); uid 0 is a
            # valid FASE, so "no FASE" is explicitly -1.
            fase_id = ctx.commit_fase_uid if category == "fase_end" else -1
            rec.record(
                EV_DRAIN, ctx.thread_id, stats.cycles, stall, outstanding, fase_id
            )
        if self._inflight is not None:
            self._inflight.drained(ctx.thread_id)
        if self._journal is not None:
            self._journal.drained(ctx.thread_id)
        if self._sites_active:
            self._note_site(ctx, SITE_DRAIN)

    def _flush_sync(
        self,
        ctx: _ThreadContext,
        lines: Iterable[int],
        category: str,
        invalidate: bool,
    ) -> None:
        """Flush ``lines`` and drain: a commit is one flush train.

        Each line costs what :meth:`_do_flush` charges — ``flush_issue``
        cycles, one instruction, one count — and the written-back ones
        take their queue slots as one :meth:`FlushQueue.issue_train`
        whose gaps are the issue cycles since the previous write-back;
        the clean flushes after the last one add theirs, then the queue
        drains.  Where a single flush is observed — tracked values (each
        carries its payload), trace events (each may be an
        ``evict_flush`` or a ``stall``), or a crash site per flush of
        this category — the lines go through :meth:`_do_flush` one at a
        time instead.  (In-flight write-back records need tracked
        values, so the train has none to retire.)
        """
        counter = _FLUSH_COUNTER[category]
        if (
            self.config.track_values
            or self.recorder.enabled
            or (self._sites_active and category in _FLUSH_SITE)
        ):
            for line in lines:
                self._do_flush(ctx, line, category, invalidate)
            self._do_drain(ctx, category)
            return
        issue_cost = self.config.timing.flush_issue
        written = self.hwcache.flush_lines(lines, invalidate)
        gaps = []
        gap = 0
        for dirty in written:
            gap += issue_cost
            if dirty:
                gaps.append(gap)
                gap = 0
        stats = ctx.stats
        flushq = ctx.flushq
        now, stall = flushq.issue_train(stats.cycles, gaps)
        now, wait = flushq.drain(now + gap)
        stats.cycles = now
        stats.stall_cycles += stall + wait
        count = len(written)
        stats.instructions += count
        stats.flushes += count
        setattr(stats, counter, getattr(stats, counter) + count)
        if self._sites_active:
            self._note_site(ctx, SITE_DRAIN)

    def _evict_writeback(self, ctx: _ThreadContext, line: int) -> None:
        # A dirty line displaced by a fill: the hardware writes it back in
        # the background (no CPU issue cost, but channel occupancy).
        if self.config.track_values:
            values = self.hwcache.take_values(line)
            if self._journal is not None:
                self._journal.written_back(ctx.thread_id, line, True)
            if values:
                if self._inflight is not None:
                    self._inflight.evicted(ctx.thread_id, line, values)
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

    def _run_live(self, ctx: _ThreadContext, budget: int) -> bool:
        """Run up to ``budget`` events of ``ctx``'s live event stream on
        :meth:`_run_batches`; return False at stream end.

        Pulled just before it runs and never an event more, a quantum
        holds what generators sharing an allocator hand out one event at
        a time; each event is coded as :meth:`EventBatch.visits` codes it,
        in a row of span 0 (DESIGN.md §8, *Live quanta*)."""
        events = list(islice(ctx.stream, budget))
        if not events:
            return False
        kinds, args, sizes, rows = ctx.batch = _LiveQuantum([], [], [], [])
        base = NVRAM_BASE
        try:
            for i, ev in enumerate(events):
                kind = ev.kind
                if kind == 0 or kind == 1:  # STORE, LOAD
                    arg, size = ev.addr, ev.size
                    line = arg >> 6
                    if arg >= base and line == (arg + size - 1) >> 6:
                        rows.append((i, kind, line, 0, 0, 0, 0))
                    else:  # ANY_STORE, ANY_LOAD
                        rows.append((i, kind + 5, arg, 0, 0, 0, 0))
                elif kind == 2 or kind == 3 or kind == 4:  # WORK, FASE marks
                    arg = ev.amount if kind == 2 else 0
                    size = 0
                    rows.append((i, kind, arg, 0, 0, 0, 0))
                else:
                    raise _not_an_event(ctx, ev)
                kinds.append(kind)
                args.append(arg)
                sizes.append(size)
        except AttributeError:
            raise _not_an_event(ctx, ev) from None
        ctx.batch_pos = 0
        self._run_batches(ctx, len(events))
        return len(events) == budget

    def _run_batches(self, ctx: _ThreadContext, budget: int) -> bool:
        """The batched loop; returns False at stream end.

        Consumes up to ``budget`` events of ``ctx``'s batch stream (or
        :meth:`_run_live`'s quantum) with :meth:`_process_event`'s event
        semantics, entering Python once per *line visit*, not once per
        event.  Each batch carries a visit table (:meth:`EventBatch.visits`):
        one row per event that has to be entered — the head of a
        line-touch run, or an event in none — holding what the event is (a
        store or load inside one persistent line comes with that line; the
        odd access has a code of its own and is read from the event
        columns) and what follows it in its run.  A quantum is the slice
        of that table between ``batch_pos`` and the budget
        (:meth:`EventBatch.visit_rows`, which also cuts the run the
        quantum's edge falls in and opens a quantum that starts inside
        one); the loop walks its rows with the per-quantum invariants
        hoisted into locals.  No crash can fire in here: a run that
        enumerates sites or has one armed executes on :meth:`_process_event`.

        *Line-touch runs.*  Most stores repeat the previous store's
        line.  The head of such a run executes as any store; the row
        says what is left — ``n`` same-line stores and the ``WORK``
        between them — and that is taken in one step: ``n`` L1 hits,
        ``n`` technique hits via ``absorb_repeats(line, n)``, the summed
        computation, ``n`` trace records.  That is exact because the run
        lies inside one thread's quantum and batch, so no other thread
        touches the L1 set; ``on_store`` left the line dirty in L1
        (checked here) and the technique absorbed it, so a repeat is a
        pure hit on its set's dirty MRU line, only a count; and nothing
        inside it reads the clock, so the cycle additions commute
        (DESIGN.md §8) — including the sample costs a
        sampling SC charges from ``absorb_repeats``, which is why
        ``stats.cycles`` is handed over around that call too.  Whether
        ``on_store`` left the line dirty needs no lookup when it flushed
        nothing: inside it the line's L1 state changes only through a
        port flush, and each one counts in ``stats.flushes``.  When the
        technique declines, or values are tracked, the run's other
        events execute one by one in an inner loop.

        *Flushes issued here* (DESIGN.md §8).  A technique whose every
        store is one ``flush_async(line, category)`` says so
        (``write_through``; ER's is ``"eager"``), and while nothing
        observes flushes one by one its runs never enter ``on_store``:
        the head's access and ``clflush``, then per repeat a miss whose
        fill cannot evict (the flush vacated a way of its set) and one
        write-back — one train of ``n + 1`` (:meth:`FlushQueue.issue_every`
        when the gaps are equal), bulk counters, the set as it began.  A
        ``buffered`` technique's head store is its ``insert``, whose
        victim — never the head line, so the ``stats.flushes`` test
        holds — is flushed here as :meth:`_do_flush` would, records
        included (with tracked values, ``on_store`` and the port do it);
        a commit is :meth:`_flush_sync`'s train over ``drain()``, run
        here unless traced or ``clwb``, where it is handed over.
        :meth:`_process_event` never coalesces and stays the oracle;
        ``absorbed_stores`` counts the stores that never entered the
        technique.

        *The L1 traffic is the loop's too*: a ``STORE``/``LOAD`` row's
        touch, those ``clflush``es and that train apply
        :class:`HardwareCache`'s rules to its ``sets`` in place and count
        into locals merged at quantum exit (nothing in a quantum reads
        the L1 counters); ``ANY_*`` rows, declined runs, ``clwb`` and
        port flushes call the cache.

        The hot ``ThreadStats`` counters are accumulated in locals.
        ``stats.cycles`` is written back before every point that can
        observe it (technique callbacks and dirty-eviction write-backs,
        which funnel into the flush queue via ``stats.cycles``; quantum
        exit, which the scheduler reads) and re-read after.
        ``instructions`` is kept as a local delta merged in at quantum
        exit: callbacks only ever increment ``stats.instructions``,
        never read it, so no per-call hand-off is needed.
        ``technique.cost_per_store`` is read once per quantum —
        techniques must keep it constant during a run, which every
        built-in technique does.

        Quantum boundaries between runnable threads fall on the same
        event counts as the per-event path (:meth:`_schedule` passes a
        larger ``budget`` only where no other thread can run and nothing
        observes the edge), so the smallest-clock thread interleaving —
        and with it every statistic, including the shared hardware
        cache's — is bit-identical.  Enforced by
        tests/test_batch_equivalence.py and test_machine_invariants.py.
        """
        config = self.config
        t = config.timing
        stats = ctx.stats
        hw = self.hwcache
        access = hw.access
        sets = hw.sets
        num_sets = hw.num_sets
        ways = hw.ways
        technique = ctx.technique
        on_store = technique.on_store
        # A technique that declares its on_store a no-op (BEST) saves
        # the call and the stats hand-off around it on every store.
        skip_on_store = getattr(technique, "on_store_noop", False)
        cost_per_store = technique.cost_per_store
        track_values = config.track_values
        # Value tracking keeps every persistent store's own payload, so
        # there it is as if the technique could not absorb repeats.
        absorb = (
            None if track_values else getattr(technique, "absorb_repeats", None)
        )
        trace_lines = ctx.trace_lines
        trace_fids = ctx.trace_fids
        evict_writeback = self._evict_writeback
        # Structured tracing: ``recording`` gates the (rare) FASE-boundary
        # sites below; with the null recorder the fast path adds only
        # this one hoisted attribute load per quantum.
        recorder = self.recorder
        recording = recorder.enabled
        thread_id = ctx.thread_id
        hit_cost = t.l1_hit
        miss_cost = t.l1_hit + t.l1_miss
        # Write-through runs fold a run's flushes into one step, so they
        # stand down when anything observes a flush on its own: tracked
        # values, trace events.  The category is checked here, once.
        write_through = (
            None
            if track_values or recording
            else getattr(technique, "write_through", None)
        )
        through_counter = (
            None if write_through is None else _FLUSH_COUNTER[write_through]
        )
        # The buffer model: evictions are issued here unless a payload is
        # observed; commits too, unless traced or ``clwb``.
        drain = technique.drain if getattr(technique, "buffered", False) else None
        inline = drain is not None and not track_values
        insert = technique.insert if inline and not skip_on_store else None
        invalidate = getattr(technique, "invalidate", True)
        clwb = hw.clwb
        train_commit = inline and invalidate and not recording
        flushq = ctx.flushq
        issue = flushq.issue
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
        # Hoisted counters; flushed back to stats in the finally block,
        # with cycles re-synced around every technique/flush-engine call
        # (the flush queue timestamps from stats.cycles).  instructions
        # is a local *delta* added back at the end: every callback only
        # ever increments stats.instructions, none reads it, so the two
        # accumulators merge exactly and no per-call sync is needed.
        cycles = stats.cycles
        instructions = 0
        persistent_stores = stats.persistent_stores
        persistent_loads = stats.persistent_loads
        fase_count = stats.fase_count
        absorbed = through = evictions = written = cleaned = 0
        l1_loads = l1_stores = load_misses = store_misses = evict_writebacks = 0
        try:
            while budget > 0:
                batch = ctx.batch
                pos = ctx.batch_pos
                if batch is None or pos >= len(batch.kinds):
                    batch = next(ctx.batch_iter, None)
                    if batch is None:
                        ctx.batch = None
                        return False
                    ctx.batch = batch
                    pos = 0
                kinds = batch.kinds
                args = batch.args
                sizes = batch.sizes
                _, run_stores, _, run_cycles = batch.line_runs(cpi)
                end = len(kinds)
                if end - pos > budget:
                    end = pos + budget
                budget -= end - pos
                for i, code, arg, span, n, amount, work_cycles in batch.visit_rows(
                    pos, end, cpi, nvram_base
                ):
                    if code == kind_store:
                        # Inside one line — ``arg`` — and persistent.
                        l1_stores += 1
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
                        if write_through is not None:
                            # A write-through run: the head's flush pops
                            # the line it just dirtied; per repeat the
                            # ``WORK`` before it, a miss-fill, one flush,
                            # one queue slot, bookkeeping.
                            del lines_set[arg]
                            if run_stores[i + n] + n == run_stores[i]:
                                # The repeats come first, any ``WORK``
                                # after them: the usual store burst.
                                now, stall = issue(cycles + flush_issue)
                                if n:
                                    now, more = issue_every(now, flush_gap, n)
                                    stall += more
                                cycles = now + cost_per_store + work_cycles
                            else:
                                before = run_cycles[i]
                                gaps = [flush_issue]
                                for j in range(i + 1, i + span + 1):
                                    if kinds[j] == kind_store:
                                        here = run_cycles[j]
                                        gaps.append(flush_gap + before - here)
                                        before = here
                                now, stall = issue_train(cycles, gaps)
                                cycles = (
                                    now + cost_per_store + before - run_cycles[i + span]
                                )
                            stats.stall_cycles += stall
                            l1_stores += n
                            store_misses += n
                            n += 1
                            written += n
                            instructions += n * (2 + cost_per_store) + amount
                            persistent_stores += n
                            absorbed += n
                            through += n
                            if trace_lines is not None:
                                trace_lines.extend([arg] * n)
                                trace_fids.extend(
                                    [ctx.fase_uid if ctx.fase_depth > 0 else -1] * n
                                )
                            continue
                        if track_values:
                            hw.store_value(arg, args[i], None)
                        flushes = stats.flushes
                        if insert is not None:
                            # A sampling SC charges samples and resizes in here.
                            stats.cycles = cycles
                            victim = insert(arg)
                            cycles = stats.cycles
                            if victim is not None:
                                # Its eviction flush, as ``_do_flush`` issues it.
                                cycles += flush_issue
                                evictions += 1
                                stall = 0
                                if invalidate:
                                    dirty = sets[victim % num_sets].pop(victim, False)
                                    written += dirty
                                    cleaned += not dirty
                                else:  # counted by the cache
                                    dirty = clwb(victim)
                                if dirty:
                                    cycles, stall = issue(cycles)
                                    stats.stall_cycles += stall
                                if recording:
                                    self._record_flush(
                                        thread_id, cycles, victim, dirty, 0, stall
                                    )
                        elif not skip_on_store:
                            stats.cycles = cycles
                            on_store(arg)
                            cycles = stats.cycles
                        if trace_lines is not None:
                            trace_lines.append(arg)
                            trace_fids.append(
                                ctx.fase_uid if ctx.fase_depth > 0 else -1
                            )
                        persistent_stores += 1
                        cycles += cost_per_store
                        instructions += store_instructions
                        if not span:
                            continue
                        if n:
                            # The ``n`` stores that repeat this one, taken
                            # in one step if ``absorb`` vouches for each —
                            # and only if ``on_store`` left the line dirty
                            # (SC may flush it when it shrinks; a filter
                            # may bypass it): a flushed line's repeat is
                            # a miss.  No flush, no change.
                            if absorb is not None and (
                                stats.flushes == flushes or lines_set.get(arg)
                            ):
                                # A sampling SC charges its samples here.
                                stats.cycles = cycles
                                taken = absorb(arg, n)
                                cycles = stats.cycles
                                if taken:
                                    absorbed += n
                                    l1_stores += n
                                    persistent_stores += n
                                    if trace_lines is not None:
                                        trace_lines.extend([arg] * n)
                                        trace_fids.extend([trace_fids[-1]] * n)
                                    cycles += n * repeat_cost + work_cycles
                                    instructions += n * store_instructions + amount
                                    continue
                            # Declined: the run arrives store by store.
                            for j in range(i + 1, i + span + 1):
                                if kinds[j] == kind_work:
                                    work = args[j]
                                    cycles += int(work * cpi)
                                    instructions += work
                                    continue
                                hit, evicted = access(arg, True)
                                cycles += hit_cost if hit else miss_cost
                                if evicted is not None and evicted[1]:
                                    stats.cycles = cycles
                                    evict_writeback(ctx, evicted[0])
                                    cycles = stats.cycles
                                if track_values:
                                    hw.store_value(arg, args[j], None)
                                if not skip_on_store:
                                    stats.cycles = cycles
                                    on_store(arg)
                                    cycles = stats.cycles
                                if trace_lines is not None:
                                    trace_lines.append(arg)
                                    trace_fids.append(
                                        ctx.fase_uid if ctx.fase_depth > 0 else -1
                                    )
                                persistent_stores += 1
                                cycles += cost_per_store
                                instructions += store_instructions
                            continue
                    elif code == kind_work:
                        cycles += int(arg * cpi)
                        instructions += arg
                        continue
                    elif code == kind_load:
                        l1_loads += 1
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
                        instructions += 1
                        persistent_loads += 1
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
                            if drain is None:
                                stats.cycles = cycles
                                technique.on_fase_begin()
                                cycles = stats.cycles
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
                            stats.cycles = cycles
                            if drain is None:
                                technique.on_fase_end()
                            elif (lines := drain()) and train_commit:
                                # ``_flush_sync``'s train, one pop a line.
                                gaps = []
                                gap = 0
                                for line in lines:
                                    gap += flush_issue
                                    if sets[line % num_sets].pop(line, False):
                                        gaps.append(gap)
                                        gap = 0
                                now, stall = issue_train(stats.cycles, gaps)
                                stats.cycles, wait = flushq.drain(now + gap)
                                stats.stall_cycles += stall + wait
                                count = len(lines)
                                written += len(gaps)
                                cleaned += count - len(gaps)
                                instructions += count
                                stats.flushes += count
                                stats.fase_end_flushes += count
                            elif lines:
                                self._flush_sync(ctx, lines, "fase_end", invalidate)
                            cycles = stats.cycles
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
                        persistent = addr >= nvram_base
                        for line in lines_spanned(addr, sizes[i]):
                            hit, evicted = access(line, True)
                            cycles += hit_cost if hit else miss_cost
                            if evicted is not None and evicted[1]:
                                stats.cycles = cycles
                                evict_writeback(ctx, evicted[0])
                                cycles = stats.cycles
                            if persistent:
                                if track_values:
                                    hw.store_value(line, addr, None)
                                if not skip_on_store:
                                    stats.cycles = cycles
                                    on_store(line)
                                    cycles = stats.cycles
                                if trace_lines is not None:
                                    trace_lines.append(line)
                                    trace_fids.append(
                                        ctx.fase_uid if ctx.fase_depth > 0 else -1
                                    )
                        instructions += 1
                        if persistent:
                            persistent_stores += 1
                            cycles += cost_per_store
                            instructions += cost_per_store
                        if not span:  # only a volatile line touch has one
                            continue
                    elif code == any_load:
                        addr = args[i]
                        for line in lines_spanned(addr, sizes[i]):
                            hit, evicted = access(line, False)
                            cycles += hit_cost if hit else miss_cost
                            if evicted is not None and evicted[1]:
                                stats.cycles = cycles
                                evict_writeback(ctx, evicted[0])
                                cycles = stats.cycles
                        instructions += 1
                        if addr >= nvram_base:
                            persistent_loads += 1
                        continue
                    else:
                        raise SimulationError(f"unknown event kind {code}")
                    # What is left of this line touch is ``n`` plain hits (a
                    # volatile line's) and ``amount`` instructions of ``WORK``.
                    l1_stores += n
                    cycles += n * hit_cost + work_cycles
                    instructions += n + amount
                ctx.batch_pos = end
            return True
        finally:
            stats.cycles = cycles
            stats.instructions += instructions + evictions
            self._stores_seen += persistent_stores - stats.persistent_stores
            stats.persistent_stores = persistent_stores
            stats.persistent_loads = persistent_loads
            stats.fase_count = fase_count
            self.absorbed_stores += absorbed
            stats.flushes += evictions
            stats.eviction_flushes += evictions
            if through:
                stats.flushes += through
                counter = through_counter
                setattr(stats, counter, getattr(stats, counter) + through)
            hw.loads += l1_loads
            hw.stores += l1_stores
            hw.load_misses += load_misses
            hw.store_misses += store_misses
            hw.evict_writebacks += evict_writebacks
            hw.flush_writebacks += written
            hw.clean_flushes += cleaned

    def _process_event(self, ctx: _ThreadContext, ev: Event) -> None:
        """Execute one event on behalf of ``ctx`` (the simulator core)."""
        t = self.config.timing
        stats = ctx.stats
        hw = self.hwcache
        technique = ctx.technique
        track_values = self.config.track_values
        kind = ev.kind
        if kind == EventKind.STORE:
            addr = ev.addr
            persistent = addr >= NVRAM_BASE
            # Fast path: the overwhelmingly common single-line access.
            first = addr >> 6
            last = (addr + ev.size - 1) >> 6
            lines = (first,) if first == last else lines_spanned(addr, ev.size)
            for line in lines:
                hit, evicted = hw.access(line, True)
                stats.cycles += t.l1_hit if hit else t.l1_hit + t.l1_miss
                if evicted is not None and evicted[1]:
                    self._evict_writeback(ctx, evicted[0])
                if track_values:
                    self._store_value(line, addr, ev.value)
                if persistent:
                    technique.on_store(line)
                    if ctx.trace_lines is not None:
                        ctx.trace_lines.append(line)
                        ctx.trace_fids.append(
                            ctx.fase_uid if ctx.fase_depth > 0 else -1
                        )
            stats.instructions += 1
            if persistent:
                cost_per_store = technique.cost_per_store
                stats.persistent_stores += 1
                stats.cycles += cost_per_store
                stats.instructions += cost_per_store
                self._stores_seen += 1
                if self._sites_active:
                    self._note_site(ctx, SITE_STORE)
        elif kind == EventKind.WORK:
            amount = ev.amount
            stats.cycles += int(amount * t.cpi)
            stats.instructions += amount
        elif kind == EventKind.LOAD:
            addr = ev.addr
            first = addr >> 6
            last = (addr + ev.size - 1) >> 6
            lines = (first,) if first == last else lines_spanned(addr, ev.size)
            for line in lines:
                hit, evicted = hw.access(line, False)
                stats.cycles += t.l1_hit if hit else t.l1_hit + t.l1_miss
                if evicted is not None and evicted[1]:
                    self._evict_writeback(ctx, evicted[0])
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
                technique.on_fase_begin()
        elif kind == EventKind.FASE_END:
            if ctx.fase_depth == 0:
                raise SimulationError(
                    f"thread {ctx.thread_id}: FaseEnd without FaseBegin"
                )
            ctx.fase_depth -= 1
            if ctx.fase_depth == 0:
                ctx.commit_fase_uid = ctx.fase_uid
                technique.on_fase_end()
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

    def _crash(
        self,
        site: Optional[int] = None,
        site_class: Optional[str] = None,
        model: str = FAULT_CLEAN,
        fault_seed: int = 0,
    ) -> None:
        """Capture into ``crashed_state`` what a power cut *now* leaves
        under fault ``model``; the machine itself is left as it was."""
        hw = self.hwcache
        self.crashed_state = crash_state(
            self.memory.nvram, sorted(hw.dirty_lines()), hw.values, self._inflight,
            model, fault_seed, self._stores_seen, site, site_class,
        )

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
        crash_plan: Optional[CrashPlan] = None,
        use_batches: Optional[bool] = None,
    ) -> RunResult:
        """Execute ``workload`` and return the collected statistics.

        Parameters
        ----------
        workload:
            Object with ``streams(num_threads, seed) -> list of event
            iterators`` and a ``name`` attribute.  Workloads may also
            offer ``batch_streams(num_threads, seed)`` yielding
            :class:`~repro.common.events.EventBatch` runs, which the
            batched loop then executes instead of the live streams.
        technique_factory:
            Called once per thread id; returns a fresh technique instance
            (software caches are per-thread).
        num_threads, seed, record_traces, crash_plan, use_batches:
            Keyword-only.  ``record_traces`` collects the per-thread
            persistent-write traces (needed for offline MRC analysis and
            the figure pipelines).  ``crash_plan`` schedules a power
            failure at one site; afterwards ``self.crashed_state`` holds
            the durable NVRAM image and the result reads ``crashed``.
            ``use_batches=False`` selects the per-event reference engine;
            either engine gives bit-identical results.

        Routing: a run executes event by event only under
        ``use_batches=False``, value tracking (the batched loop reads no
        store payloads) or crash sites active — :meth:`record_sites` was
        called, or a target is armed — because ``store`` sites exist
        only there, so enumeration and injection always see one site
        sequence.  Any other run takes the batched loop, over batch
        streams or live ones a quantum at a time (:meth:`_run_live`).
        """
        if num_threads < 1:
            raise ConfigurationError("num_threads must be >= 1")
        self.arm_crash_plan(crash_plan)
        per_event = (
            use_batches is False or self.config.track_values or self._sites_active
        )
        streams = None
        if not per_event:
            getter = getattr(workload, "batch_streams", None)
            if getter is not None:
                streams = getter(num_threads, seed)
        batched = streams is not None
        if not batched:
            streams = workload.streams(num_threads, seed)
        if len(streams) != num_threads:
            raise SimulationError(
                f"workload produced {len(streams)} streams for "
                f"{num_threads} threads"
            )
        contexts = []
        for tid, stream in enumerate(streams):
            ctx = self._new_context(tid, technique_factory(tid), record_traces)
            if batched:
                ctx.batch_iter = iter(stream)
            else:
                ctx.stream = iter(stream)
            contexts.append(ctx)
        runner = self._run_batch if per_event else self._run_live
        self._schedule(contexts, self._run_batches if batched else runner)

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
            crashed=self.crashed_state is not None,
        )

    def drive(
        self,
        sessions: Sequence["MachineSession"],
        step: Callable[[int, int], bool],
    ) -> None:
        """Interleave session-driven threads under the machine's scheduler.

        For code that must dispatch each operation itself (the Atlas
        crash replay logs a store's old value before the store) yet wants
        the interleaving and sampling of :meth:`run`.
        ``step(thread_id, budget)`` pushes up to ``budget`` operations
        through that thread's session and returns whether any are left;
        a thread that has none left is finished here, as by
        :meth:`MachineSession.finish`.  Returns when every thread has
        finished or the power failed (``crashed_state`` then says where).
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
        feeds the metrics sampler and the recorder's window watermark.
        :class:`~repro.nvram.failure.PowerFailure` — from an event or a
        final flush, either of which can complete an armed site — is the
        one stop signal; final counters are dumped for every thread
        either way.
        """
        metrics = self.metrics
        rec = self.recorder
        # A quantum edge exists to let another thread run, and for what
        # observes it: the sampler and the recorder.  With neither it is
        # inert (DESIGN.md §8), so the only runnable thread of an
        # unobserved run over batch streams takes the rest of its stream
        # as one quantum (a live stream keeps pulling quanta).
        lone_budget = (
            sys.maxsize
            if runner == self._run_batches and metrics is None and not rec.enabled
            else SCHED_BATCH
        )
        # Thread ids are unique, so comparison never reaches the context.
        heap = [(ctx.stats.cycles, ctx.thread_id, ctx) for ctx in contexts]
        heapq.heapify(heap)
        try:
            while heap:
                _, tid, ctx = heapq.heappop(heap)
                alive = runner(ctx, SCHED_BATCH if heap else lone_budget)
                if metrics is not None:
                    self._sample_metrics(ctx)
                if rec.enabled:
                    rec.on_quantum(tid, ctx.stats.cycles)
                if alive:
                    heapq.heappush(heap, (ctx.stats.cycles, tid, ctx))
                else:
                    self._finish(ctx)
        except PowerFailure:
            pass  # crashed_state holds the image; nothing runs after it
        if metrics is not None:
            for ctx in contexts:
                self._final_metrics(ctx)

    def _finish(self, ctx: _ThreadContext) -> None:
        """End of a thread: the technique drains what it still buffers."""
        if ctx.fase_depth != 0:
            raise SimulationError(
                f"thread {ctx.thread_id} ended inside a FASE "
                f"(depth={ctx.fase_depth})"
            )
        ctx.technique.finish()
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
        machine = self.machine
        ctx = self._ctx
        t = machine.config.timing
        stats = ctx.stats
        hw = machine.hwcache
        for line in lines_spanned(addr, size):
            hit, evicted = hw.access(line, True)
            stats.cycles += t.l1_hit if hit else t.l1_hit + t.l1_miss
            if evicted is not None and evicted[1]:
                machine._evict_writeback(ctx, evicted[0])
            if machine.config.track_values:
                machine._store_value(line, addr, value)
        stats.instructions += 1

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
