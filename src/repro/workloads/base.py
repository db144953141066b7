"""Workload protocol and shared building blocks."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.events import (
    Event,
    EventBatch,
    Step,
    batches_from_events,
    batches_from_steps,
    events_from_batches,
    events_from_steps,
)
from repro.common.geometry import CACHE_LINE_SIZE, align_up
from repro.nvram.memory import NVRAM_BASE


class Workload:
    """Base class for workloads.

    A workload produces one event stream per simulated thread.  Streams
    must be independent iterators (the machine interleaves them), and a
    workload instance must be reusable: each ``streams`` call starts a
    fresh logical execution.

    The program is written once — one emitter; the others are derived.
    A workload implements one of:

    :meth:`batch_streams`
        Compact :class:`~repro.common.events.EventBatch` columns, for a
        program whose threads share nothing the machine's schedule can
        change (the SPLASH2 stand-ins, ``mdb``, ``persistent-array``).
    :meth:`steps`
        Column tuples of the events between two allocations
        (:data:`~repro.common.events.Step`), for a program whose threads
        draw from one allocator (``queue``, ``linked-list``, ``hash``):
        taking a step performs the allocations before its first event,
        so a machine pulling steps lazily sees the allocator's calls in
        the order the per-event engine does.  ``batch_streams`` packs
        them where :meth:`schedule_independent` holds, and
        the machine pulls them a quantum at a time elsewhere.
    :meth:`streams`
        Per-object events: a bare generator.  Its batches are recorded
        once by :class:`BatchCachingWorkload` where
        :meth:`schedule_independent` says a recording is the execution
        every technique would have seen.

    ``streams`` of a batch or step emitter is their decoding.  Every
    encoding is one event sequence by construction.
    """

    name = "abstract"

    def streams(self, num_threads: int, seed: int) -> List[Iterator[Event]]:
        """Return ``num_threads`` independent event iterators.

        The default decodes :meth:`steps`, or else :meth:`batch_streams`;
        a workload with neither overrides this instead.
        """
        steps = self.steps(num_threads, seed)
        if steps is not None:
            return [events_from_steps(thread, tid=tid) for tid, thread in enumerate(steps)]
        batch_streams = self.batch_streams(num_threads, seed)
        if batch_streams is None:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither streams nor batch_streams"
            )
        return [events_from_batches(batches) for batches in batch_streams]

    def steps(self, num_threads: int, seed: int) -> Optional[List[Iterator[Step]]]:
        """Return per-thread :data:`~repro.common.events.Step` iterators,
        or ``None`` (the default: the workload emits no steps)."""
        return None

    def batch_streams(
        self, num_threads: int, seed: int
    ) -> Optional[List[Iterator[EventBatch]]]:
        """Return per-thread :class:`EventBatch` iterators, or ``None``.

        The default packs :meth:`steps` into ``BATCH_CHUNK`` batches
        where :meth:`schedule_independent` holds; ``None`` means the
        machine runs the workload live.
        """
        steps = self.steps(num_threads, seed)
        if steps is None or not self.schedule_independent(num_threads):
            return None
        return [
            batches_from_steps(thread, tid=tid) for tid, thread in enumerate(steps)
        ]

    def schedule_independent(self, num_threads: int) -> bool:
        """Whether ``streams(num_threads, seed)`` yields the same events
        however the machine interleaves the threads.

        Generators are resumed smallest-clock-first, so streams that
        share mutable state (one allocator handing out node addresses,
        say) emit a sequence that depends on the technique being
        simulated; each run re-executes it, a live quantum at a time.  A single
        thread has no interleaving, hence the default; a workload whose
        threads share nothing overrides this (one that computes every
        event up front — ``mdb`` — is a native batch emitter and is
        never asked).
        """
        return num_threads == 1

    def supports_threads(self, num_threads: int) -> bool:
        """Whether the workload can be partitioned over this many threads."""
        return num_threads == 1

    def store_threads(self, num_threads: int) -> int:
        """How many of the threads actually issue persistent stores.

        Most workloads partition stores across all threads; MVCC-style
        workloads (MDB) have a single writer, so per-thread sampling
        bursts must be sized against the writer's stream, not an even
        split.
        """
        return num_threads


class BatchCachingWorkload(Workload):
    """Execute a workload once per ``(threads, seed)``; replay it batched.

    Experiment pipelines run the same ``(workload, threads, seed)``
    event sequence once per technique — five times for a Table III row,
    plus the profiling run — as the paper compares techniques on *one*
    instrumented execution.  Batches are plain data, so this wrapper
    materializes them into lists on the first ``batch_streams`` call and
    serves iterators over those lists on every later one, keeping at
    most ``max_entries`` ``(threads, seed)`` materializations (FIFO) so
    thread-sweep grids do not accumulate unbounded batch data.

    The batches come from the wrapped workload's ``batch_streams``: a
    batch emitter's, or a step emitter's packed steps.  A workload with
    only ``streams`` is recorded through
    :func:`~repro.common.events.batches_from_events`.  Steps and streams
    are recorded only where :meth:`Workload.schedule_independent` holds,
    because a recording fixes one interleaving: where streams share
    mutable state (``queue`` and ``linked-list`` above one thread)
    ``batch_streams`` stays ``None`` and each run re-executes the program
    a quantum at a time.  An error raised by the wrapped workload
    propagates unchanged and memoizes nothing.

    Everything else — ``streams``, ``steps``, ``store_threads``,
    workload-specific attributes — delegates to the wrapped workload.
    """

    def __init__(self, inner: Workload, max_entries: int = 4) -> None:
        if max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        self._inner = inner
        self._max_entries = max_entries
        self._materialized: dict = {}

    @property
    def name(self) -> str:
        return self._inner.name

    def __getattr__(self, attr: str):
        # Only public workload attributes delegate.  copy/pickle probe
        # dunders on an instance whose __dict__ is still empty, where
        # looking up ``_inner`` would re-enter this method forever.
        if attr.startswith("_"):
            raise AttributeError(attr)
        return getattr(self._inner, attr)

    def streams(self, num_threads: int, seed: int) -> List[Iterator[Event]]:
        return self._inner.streams(num_threads, seed)

    def steps(self, num_threads: int, seed: int) -> Optional[List[Iterator[Step]]]:
        return self._inner.steps(num_threads, seed)

    def supports_threads(self, num_threads: int) -> bool:
        return self._inner.supports_threads(num_threads)

    def store_threads(self, num_threads: int) -> int:
        return self._inner.store_threads(num_threads)

    def schedule_independent(self, num_threads: int) -> bool:
        return self._inner.schedule_independent(num_threads)

    def batch_streams(
        self, num_threads: int, seed: int
    ) -> Optional[List[Iterator[EventBatch]]]:
        key = (num_threads, seed)
        entry = self._materialized.get(key)
        if entry is None:
            inner = self._inner
            inner_streams = inner.batch_streams(num_threads, seed)
            if inner_streams is None:
                # Built before the rule is consulted: a thread count the
                # workload rejects raises here, it is not "unrecordable".
                event_streams = inner.streams(num_threads, seed)
                if not inner.schedule_independent(num_threads):
                    return None
                inner_streams = [
                    batches_from_events(stream) for stream in event_streams
                ]
            entry = [list(stream) for stream in inner_streams]
            while len(self._materialized) >= self._max_entries:
                self._materialized.pop(next(iter(self._materialized)))
            self._materialized[key] = entry
        return [iter(per_thread) for per_thread in entry]


class BumpAllocator:
    """A trivial persistent-heap allocator for workload data structures.

    Real allocation policy is irrelevant to flush behaviour; what matters
    is that distinct objects land on distinct, deterministic addresses in
    the persistence domain.  Allocations can be line-aligned so that one
    node maps to one cache line (how the micro-benchmarks lay out nodes).
    """

    __slots__ = ("next_addr",)

    def __init__(self, base: int = NVRAM_BASE) -> None:
        if base < NVRAM_BASE:
            raise ConfigurationError("persistent allocations must be in NVRAM")
        self.next_addr = base

    def alloc(self, nbytes: int, line_aligned: bool = False) -> int:
        """Reserve ``nbytes``; return the base address."""
        if nbytes <= 0:
            raise ConfigurationError(f"allocation size must be positive: {nbytes}")
        if line_aligned:
            self.next_addr = align_up(self.next_addr, CACHE_LINE_SIZE)
        addr = self.next_addr
        self.next_addr += nbytes
        return addr

    def alloc_lines(self, nlines: int) -> int:
        """Reserve ``nlines`` whole cache lines; return the base address."""
        return self.alloc(nlines * CACHE_LINE_SIZE, line_aligned=True)


class TraceWorkload(Workload):
    """Replay pre-computed per-thread write traces as store events.

    Used by tests and by trace-level experiments: each per-thread trace
    is a sequence of ``(line, fase_id)`` records; consecutive runs of the
    same fase id are bracketed with ``FaseBegin``/``FaseEnd``, and
    ``fase_id == -1`` emits bare stores.
    """

    def __init__(self, per_thread_traces: Sequence, name: str = "trace") -> None:
        self.name = name
        self._traces = list(per_thread_traces)

    def supports_threads(self, num_threads: int) -> bool:
        return num_threads == len(self._traces)

    def batch_streams(
        self, num_threads: int, seed: int
    ) -> List[Iterator[EventBatch]]:
        if num_threads != len(self._traces):
            raise ConfigurationError(
                f"trace workload has {len(self._traces)} threads, "
                f"{num_threads} requested"
            )
        return [self._replay_batches(trace) for trace in self._traces]

    @staticmethod
    def _trace_shift(lines) -> int:
        # Traces recorded from the machine carry real NVRAM line ids;
        # synthetic traces often use small ids starting at 0.  Shift the
        # latter into the persistence domain so replayed stores are
        # persistent (a constant shift preserves the flush pattern).
        if len(lines) and int(lines.max()) * CACHE_LINE_SIZE < NVRAM_BASE:
            return NVRAM_BASE // CACHE_LINE_SIZE
        return 0

    @classmethod
    def _replay_batches(cls, trace, chunk: int = 4096) -> Iterator[EventBatch]:
        """One trace as batches: a store per record, FASE marks where
        the fase id changes."""
        lines = trace.lines.tolist()
        fids = trace.fase_ids.tolist()
        shift = cls._trace_shift(trace.lines)
        line_size = CACHE_LINE_SIZE
        batch = EventBatch()
        current = None
        for i in range(len(lines)):
            fid = fids[i]
            if fid != current:
                if current is not None and current != -1:
                    batch.append_fase_end()
                if fid != -1:
                    batch.append_fase_begin()
                current = fid
            batch.append_store((lines[i] + shift) * line_size, 8)
            # FASE state carries across batches, so splits can fall anywhere.
            if len(batch.kinds) >= chunk:
                yield batch
                batch = EventBatch()
        if current is not None and current != -1:
            batch.append_fase_end()
        if len(batch.kinds):
            yield batch

