"""The resizable write-combining software cache (§II-B, §III-A).

The cache buffers *addresses* of dirty cache lines: "Each time a thread
running in a FASE writes to persistent memory, the thread stores the
cache line address to its software cache."  A write to a line already
present is a *reuse* — the flush is combined and nothing happens.  A
write to an absent line inserts it; if the cache is over capacity the
least-recently-written line is evicted, and the caller must flush it to
NVRAM (Fig. 1's execution model).

The lines live in an ``OrderedDict``, which *is* the structure §III-C
specifies — "a hash map and a doubly linked list … All cache operations
have O(1) time complexity" — written in C: a hit is ``move_to_end``, an
eviction ``popitem(last=False)``, a drain ``list()`` then ``clear()``.
Iteration order is least to most recently written.

Capacity can change at run time (the adaptive controller resizes it when
a new MRC arrives); shrinking evicts LRU lines, which the caller flushes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.common.errors import SimulationError, require_int


class WriteCombiningCache:
    """A fully associative, LRU, resizable cache of dirty-line addresses."""

    __slots__ = (
        "_lines",
        "capacity",
        "hits",
        "misses",
        "evictions",
        "resize_evictions",
        "resizes",
        "drains",
    )

    def __init__(self, capacity: int) -> None:
        require_int("capacity", capacity, 1)
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resize_evictions = 0
        self.resizes = 0
        self.drains = 0

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, line: int) -> bool:
        return line in self._lines

    def access(self, line: int) -> Optional[int]:
        """Record a write to ``line``; return an evicted line to flush.

        A hit combines the write (returns ``None``).  A miss inserts the
        line and, if the cache exceeded capacity, returns the evicted LRU
        line — the caller must issue its flush.
        """
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
            self.hits += 1
            return None
        self.misses += 1
        lines[line] = None
        if len(lines) > self.capacity:
            self.evictions += 1
            return lines.popitem(last=False)[0]
        return None

    def drain(self) -> List[int]:
        """Empty the cache (end of FASE); return lines to flush, LRU first.

        Draining an already-empty cache is a no-op and does not count as
        a drain: back-to-back FASEs with no intervening stores would
        otherwise inflate the ``drains`` statistic without any flush work.
        """
        lines = self._lines
        if not lines:
            return []
        self.drains += 1
        drained = list(lines)
        lines.clear()
        return drained

    def resize(self, capacity: int) -> List[int]:
        """Change capacity; return lines evicted by a shrink (LRU first)."""
        require_int("capacity", capacity, 1)
        lines = self._lines
        evicted = [lines.popitem(last=False)[0] for _ in range(len(lines) - capacity)]
        self.evictions += len(evicted)
        self.resize_evictions += len(evicted)
        self.resizes += 1
        self.capacity = capacity
        return evicted

    @property
    def accesses(self) -> int:
        """Total persistent writes observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of writes combined so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, int]:
        """An invariant-checked copy of the counters at this instant.

        The checks are the cache's accounting identities: every access
        is a hit or a miss, and a capacity eviction needs a miss to have
        inserted the line (resize evictions are the one exception, so
        they are tracked — and excepted — separately).  A violation
        means the counters can no longer be trusted and raises
        :class:`~repro.common.errors.SimulationError`.
        """
        snap = {
            "capacity": self.capacity,
            "used": len(self),
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resize_evictions": self.resize_evictions,
            "resizes": self.resizes,
            "drains": self.drains,
        }
        if any(v < 0 for v in snap.values()):
            raise SimulationError(
                f"write-cache accounting broken: negative counter in {snap}"
            )
        if snap["hits"] + snap["misses"] != snap["accesses"]:
            raise SimulationError(
                f"write-cache accounting broken: hits {snap['hits']} + "
                f"misses {snap['misses']} != accesses {snap['accesses']}"
            )
        if snap["evictions"] - snap["resize_evictions"] > snap["misses"]:
            raise SimulationError(
                f"write-cache accounting broken: "
                f"{snap['evictions'] - snap['resize_evictions']} capacity "
                f"evictions exceed {snap['misses']} misses"
            )
        if snap["resize_evictions"] > 0 and snap["resizes"] == 0:
            raise SimulationError(
                f"write-cache accounting broken: "
                f"{snap['resize_evictions']} resize evictions with no resize"
            )
        if snap["used"] > snap["capacity"]:
            raise SimulationError(
                f"write-cache over capacity: {snap['used']} lines held, "
                f"capacity {snap['capacity']}"
            )
        return snap

    def __repr__(self) -> str:
        return (
            f"WriteCombiningCache(capacity={self.capacity}, used={len(self)}, "
            f"hit_ratio={self.hit_ratio:.3f})"
        )
