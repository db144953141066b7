"""A set-associative write-back hardware cache with flush operations.

The cache models the part of the memory hierarchy the paper's problem
lives in: "at any point of program execution, some of the updates to
persistent memory may only reside in CPU caches and have not yet
propagated to NVRAM" (§I).  It provides:

- ``access(line, is_write)`` — a load or store at cache-line granularity
  with LRU replacement within the set; write-allocate, write-back.
- ``clflush(line)`` — write back if dirty and *invalidate*, the operation
  Atlas uses and the only flush modelled; the invalidation is why "the
  next access will be a cache miss" (§II-A), the indirect flush cost the
  software cache reduces.

Sets use ``OrderedDict`` for O(1) LRU: lookup, move-to-end on touch,
pop-first on eviction.  When several simulated threads share the cache,
capacity contention between them arises naturally — the effect behind
Table IV's rising L1 miss ratios.  The machine's batched loop spells the
same rules on ``sets`` itself for its single-line touches, its flushes
and its commits; every other access is one ``access`` call.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError


class HardwareCache:
    """A ``capacity_lines``-line, ``ways``-way set-associative cache.

    Parameters
    ----------
    capacity_lines:
        Total capacity in cache lines (must be a multiple of ``ways``).
    ways:
        Associativity.  ``ways == capacity_lines`` gives a fully
        associative cache.
    """

    __slots__ = (
        "num_sets",
        "ways",
        "sets",
        "loads",
        "stores",
        "load_misses",
        "store_misses",
        "evict_writebacks",
        "flush_writebacks",
        "clean_flushes",
    )

    def __init__(self, capacity_lines: int = 512, ways: int = 8) -> None:
        if capacity_lines < 1 or ways < 1:
            raise ConfigurationError("capacity and ways must be >= 1")
        if capacity_lines % ways:
            raise ConfigurationError(
                f"capacity {capacity_lines} not a multiple of ways {ways}"
            )
        self.num_sets = capacity_lines // ways
        self.ways = ways
        # One OrderedDict per set: line -> dirty flag, LRU order = insertion order.
        self.sets: List[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.loads = 0
        self.stores = 0
        self.load_misses = 0
        self.store_misses = 0
        self.evict_writebacks = 0
        self.flush_writebacks = 0
        self.clean_flushes = 0

    # ------------------------------------------------------------------

    def access(
        self, line: int, is_write: bool
    ) -> Tuple[bool, Optional[Tuple[int, bool]]]:
        """Touch ``line``; return ``(hit, evicted)``.

        ``evicted`` is ``(victim_line, was_dirty)`` when the fill displaced
        a line, else ``None``.  Dirty evictions are write-backs the caller
        must route to memory (they occupy the memory channel but do not
        count as persistence flushes).
        """
        cache_set = self.sets[line % self.num_sets]
        if is_write:
            self.stores += 1
        else:
            self.loads += 1
        if line in cache_set:
            cache_set.move_to_end(line)
            if is_write:
                cache_set[line] = True
            return True, None
        # Miss: fill (write-allocate), evict LRU if the set is full.
        if is_write:
            self.store_misses += 1
        else:
            self.load_misses += 1
        evicted: Optional[Tuple[int, bool]] = None
        if len(cache_set) >= self.ways:
            victim, dirty = cache_set.popitem(last=False)
            if dirty:
                self.evict_writebacks += 1
            evicted = (victim, dirty)
        cache_set[line] = is_write
        return False, evicted

    # ------------------------------------------------------------------

    def clflush(self, line: int) -> bool:
        """Flush-and-invalidate; return True when a write-back happened."""
        cache_set = self.sets[line % self.num_sets]
        dirty = cache_set.pop(line, None)
        if dirty is None:
            self.clean_flushes += 1
            return False
        if dirty:
            self.flush_writebacks += 1
            return True
        self.clean_flushes += 1
        return False

    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total loads + stores."""
        return self.loads + self.stores

    @property
    def misses(self) -> int:
        """Total load + store misses."""
        return self.load_misses + self.store_misses

    @property
    def miss_ratio(self) -> float:
        """Overall miss ratio (0 when no accesses happened)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"HardwareCache(sets={self.num_sets}, ways={self.ways}, "
            f"mr={self.miss_ratio:.3f})"
        )
