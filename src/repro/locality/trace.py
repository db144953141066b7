"""Write traces at cache-line granularity.

A :class:`WriteTrace` is the object of study of the paper's locality theory
(§III-B): "We consider an execution as a sequence of data accesses
(writes). A logical time is assigned to each data access."  Logical times
are 1-based throughout this package, matching the paper's window algebra.

A trace records, per access, the cache-line id written and the id of the
FASE the write occurred in (-1 when outside any FASE).  FASE ids only need
to be distinct per dynamic FASE instance; the FASE-semantics correction
(:mod:`repro.locality.fase_transform`) renames lines so that accesses to
the same line in different FASEs look like accesses to different data.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.events import EventBatch, EventKind
from repro.common.geometry import line_of


def _count_distinct(values: np.ndarray) -> int:
    """``len(set(values))`` by the cheapest counting pass that applies:
    the changes of non-decreasing values (a program trace's FASE uids),
    a boolean mask over a span of under ~8 slots per entry (line ids of
    one heap), and ``np.unique``'s sort for anything else."""
    n = len(values)
    if np.all(values[1:] >= values[:-1]):
        return min(n, 1) + int(np.count_nonzero(values[1:] != values[:-1]))
    low, high = int(values.min()), int(values.max())
    if high - low >= 8 * n:
        return len(np.unique(values))
    seen = np.zeros(high - low + 1, dtype=bool)
    seen[values - low] = True
    return int(np.count_nonzero(seen))


class WriteTrace:
    """A sequence of persistent writes, one cache line id per access.

    Parameters
    ----------
    lines:
        Cache-line ids, one per write, in program order.
    fase_ids:
        Optional per-access FASE instance ids (same length).  ``-1`` marks
        writes outside any FASE.  If omitted, the whole trace is treated
        as a single FASE (id 0).
    """

    __slots__ = ("lines", "fase_ids")

    def __init__(
        self,
        lines: Sequence[int] | np.ndarray,
        fase_ids: Optional[Sequence[int] | np.ndarray] = None,
    ) -> None:
        self.lines = np.asarray(lines, dtype=np.int64)
        if self.lines.ndim != 1:
            raise ConfigurationError("trace lines must be one-dimensional")
        if fase_ids is None:
            self.fase_ids = np.zeros(len(self.lines), dtype=np.int64)
        else:
            self.fase_ids = np.asarray(fase_ids, dtype=np.int64)
            if self.fase_ids.shape != self.lines.shape:
                raise ConfigurationError(
                    "fase_ids must have the same length as lines "
                    f"({len(self.fase_ids)} != {len(self.lines)})"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_addresses(
        cls,
        addrs: Iterable[int],
        fase_ids: Optional[Iterable[int]] = None,
    ) -> "WriteTrace":
        """Build a trace from byte addresses, mapping each to its line."""
        lines = np.fromiter((line_of(a) for a in addrs), dtype=np.int64)
        fids = None if fase_ids is None else np.fromiter(
            (int(f) for f in fase_ids), dtype=np.int64
        )
        return cls(lines, fids)

    @classmethod
    def from_batches(
        cls, batches: Iterable[EventBatch], thread_id: int, nvram_base: int
    ) -> "WriteTrace":
        """One thread's persistent-write trace, read off its program's
        columns — the one trace path (the paper's offline profile, taken
        by instrumentation, §III-C): a row per cache line of every
        ``STORE`` at or above ``nvram_base``, on the machine's line rule
        (an access inside one line, zero bytes too, is that line), tagged
        with the machine's FASE uid (``thread_id << 40`` + outermost
        ``FASE_BEGIN``s so far, -1 outside a FASE).  Malformed bracketing
        raises the machine's own
        :class:`~repro.common.errors.SimulationError`.  The tests hold it
        to a machine that records the lines it stores.
        """
        # An empty batch first, so a thread with no batches has columns too.
        views = [batch.columns() for batch in (EventBatch(), *batches)]
        kinds, args, sizes = (np.concatenate(column) for column in zip(*views))
        begin = kinds == EventKind.FASE_BEGIN
        depth = np.cumsum(begin.astype(np.int64) - (kinds == EventKind.FASE_END))
        if depth.min(initial=0) < 0:
            raise SimulationError(f"thread {thread_id}: FaseEnd without FaseBegin")
        if len(depth) and depth[-1] != 0:
            raise SimulationError(
                f"thread {thread_id} ended inside a FASE (depth={depth[-1]})"
            )
        uid = (thread_id << 40) - 1 + np.cumsum(begin & (depth == 1))
        rows = np.flatnonzero((kinds == EventKind.STORE) & (args >= nvram_base))
        first = args[rows] >> 6
        # Lines each store touches, as ``lines_spanned`` counts them.
        spans = np.maximum(((args[rows] + sizes[rows] - 1) >> 6) - first + 1, 0)
        within = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans, spans)
        return cls(
            np.repeat(first, spans) + within,
            np.repeat(np.where(depth[rows] > 0, uid[rows], -1), spans),
        )

    @classmethod
    def from_string(cls, text: str) -> "WriteTrace":
        """Build a trace from a compact string like ``"abb"`` or ``"ab|ab"``.

        Each letter is a datum; ``|`` marks a FASE boundary (the paper's
        notation in §III-B).  Useful for unit tests and doctests::

            >>> t = WriteTrace.from_string("abb")
            >>> t.n
            3
        """
        lines = []
        fids = []
        fase = 0
        for ch in text:
            if ch == "|":
                fase += 1
            elif ch.isspace():
                continue
            else:
                lines.append(ord(ch))
                fids.append(fase)
        return cls(np.asarray(lines, dtype=np.int64), np.asarray(fids, dtype=np.int64))

    # ------------------------------------------------------------------
    # Basic statistics
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """The trace length (number of writes)."""
        return int(len(self.lines))

    @property
    def m(self) -> int:
        """The number of distinct lines written."""
        return _count_distinct(self.lines)

    @property
    def num_fases(self) -> int:
        """The number of distinct FASE instances in the trace."""
        return _count_distinct(self.fase_ids[self.fase_ids >= 0])

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"WriteTrace(n={self.n}, m={self.m}, fases={self.num_fases})"

    # ------------------------------------------------------------------
    # Derived interval structure (the inputs to Eq. 2 and Eq. 4)
    # ------------------------------------------------------------------

    def dense_ids(self) -> np.ndarray:
        """Return lines re-coded as dense ids ``0..m-1`` (stable mapping)."""
        _, inverse = np.unique(self.lines, return_inverse=True)
        return inverse.astype(np.int64)

    def reuse_intervals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(starts, ends)`` of all reuse intervals, 1-based times.

        A reuse interval spans a write and the *next* write to the same
        line (Def. 1).  A trace with ``n`` writes and ``m`` distinct lines
        has exactly ``n - m`` reuse intervals.
        """
        # Stably sorted, equal neighbours are consecutive accesses; that
        # is all that is asked of the ids, so they are sorted as they are.
        order = np.argsort(self.lines, kind="stable")
        sorted_ids = self.lines[order]
        same = np.flatnonzero(sorted_ids[1:] == sorted_ids[:-1])
        return order[same] + 1, order[same + 1] + 1  # 1-based logical times

    def first_last_times(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(first, last)`` access time (1-based) per distinct line."""
        ids = self.dense_ids()
        n = len(ids)
        m = int(ids.max()) + 1 if n else 0
        first = np.zeros(m, dtype=np.int64)
        last = np.zeros(m, dtype=np.int64)
        times = np.arange(n, 0, -1, dtype=np.int64)  # n..1
        # Writing in reverse time order leaves the earliest time in place.
        first[ids[::-1]] = times
        times = np.arange(1, n + 1, dtype=np.int64)
        last[ids] = times
        return first, last

    # ------------------------------------------------------------------
    # Slicing / composition
    # ------------------------------------------------------------------

    def head(self, k: int) -> "WriteTrace":
        """Return the first ``k`` writes as a new trace (for sampling)."""
        return WriteTrace(self.lines[:k], self.fase_ids[:k])

    def concat(self, other: "WriteTrace") -> "WriteTrace":
        """Concatenate two traces, keeping FASE ids disjoint."""
        shift = 0
        if self.num_fases and other.num_fases:
            shift = int(self.fase_ids.max()) + 1
        other_fids = np.where(other.fase_ids >= 0, other.fase_ids + shift, -1)
        return WriteTrace(
            np.concatenate([self.lines, other.lines]),
            np.concatenate([self.fase_ids, other_fids]),
        )
