"""The *hash* micro-benchmark: a chained hash table (§IV-B).

Modelled on the open-source C hash table the paper uses [13]: separate
chaining, entries allocated individually, the bucket array resized
(doubled and rehashed) when the load factor crosses a threshold.  The
workload is single-threaded (as in the paper) and mixes inserts, updates
and deletes, one operation per FASE.

Why the technique ordering of Table III's hash row (LA 0.50 < SC 0.595 <
AT 0.62) emerges here: operations write the entry line plus a
hash-scattered bucket-array line — scattered lines conflict in the
8-entry direct-mapped Atlas table (pushing AT above the lazy bound),
while rehash FASEs sweep many lines with little reuse beyond what any
cache captures (keeping SC between the two).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError, require_int
from repro.common.events import Step
from repro.common.rng import derive_seed, make_rng
from repro.workloads.base import BumpAllocator, Workload

DEFAULT_ELEMENTS = 4_000

_KEY_OFF = 0
_VALUE_OFF = 8
_NEXT_OFF = 16
_HASH_OFF = 24

_PTR_SIZE = 8
_INITIAL_BUCKETS = 64
_MAX_LOAD = 0.75
_HASH_MULT = 2654435761

#: Insert: ``WORK`` 250, a load of the bucket, the entry's key, value,
#: next and hash, the bucket pointer, the element count.
_INSERT_KINDS = (3, 2, 1, 0, 0, 0, 0, 0, 0, 4)
_INSERT_SIZES = (0, 0, _PTR_SIZE, 8, 8, 8, 8, _PTR_SIZE, 8, 0)
#: Update: ``WORK`` 70, loads of the bucket and the entry's key, the value.
_UPDATE_KINDS = (3, 2, 1, 1, 0, 4)
_UPDATE_SIZES = (0, 0, _PTR_SIZE, 8, 8, 0)
#: Delete: ``WORK`` 250, a load of the bucket, the unlinking pointer (the
#: bucket's or the predecessor's next), the element count.
_DELETE_KINDS = (3, 2, 1, 0, 0, 4)
_DELETE_SIZES = (0, 0, _PTR_SIZE, 8, 8, 0)


class HashTableWorkload(Workload):
    """Insert/update/delete mix on a chained hash table, one FASE per op."""

    name = "hash"

    def __init__(
        self,
        elements: int = DEFAULT_ELEMENTS,
        updates: Optional[int] = None,
        deletes: Optional[int] = None,
    ) -> None:
        require_int("elements", elements, 0)
        self.elements = elements
        self.updates = updates if updates is not None else elements // 2
        self.deletes = deletes if deletes is not None else elements // 4
        require_int("updates", self.updates, 0)
        require_int("deletes", self.deletes, 0)

    @property
    def total_fases(self) -> int:
        """Operations (paper's hash row: ~7K FASEs for 4000 elements)."""
        return self.elements + self.updates + self.deletes

    def steps(self, num_threads: int, seed: int) -> List[Iterator[Step]]:
        if num_threads != 1:
            raise ConfigurationError("the hash benchmark is single-threaded")
        return [self._steps(derive_seed(seed, self.name))]

    def _ops(self) -> List[Tuple[str, int]]:
        """The operation sequence: updates and deletes trail the inserts."""
        ops: List[Tuple[str, int]] = []
        u = d = 0
        for i in range(self.elements):
            ops.append(("insert", i))
            while u < self.updates and u * self.elements < i * self.updates:
                ops.append(("update", u))
                u += 1
            while d < self.deletes and d * self.elements < i * self.deletes:
                ops.append(("delete", d))
                d += 1
        ops.extend(("update", j) for j in range(u, self.updates))
        ops.extend(("delete", j) for j in range(d, self.deletes))
        return ops

    def _steps(self, seed: int) -> Iterator[Step]:
        """The program, one step per operation.  The bucket array lives
        in this stream alone: two streams of one instance share nothing."""
        rng = make_rng(seed)
        alloc = BumpAllocator()
        num_buckets = _INITIAL_BUCKETS
        buckets_base = alloc.alloc(num_buckets * _PTR_SIZE, True)
        count_addr = alloc.alloc_lines(1)
        chains: Dict[int, List[Tuple[int, int]]] = {}   # bucket addr -> [(key, entry)]
        entry_of: Dict[int, int] = {}
        live_keys: List[int] = []
        inserted = 0

        def bucket_addr(key: int) -> int:
            # Multiplicative hash, as the C original uses; bucket pointers
            # are 8 bytes each, eight per cache line.
            return buckets_base + (key * _HASH_MULT) % num_buckets * _PTR_SIZE

        for op, _arg in self._ops():
            if op == "insert":
                key = int(rng.integers(0, 1 << 30))
                # Rehash outside the insert FASE when the load is high.
                if inserted + 1 > _MAX_LOAD * num_buckets:
                    num_buckets *= 2
                    buckets_base = alloc.alloc(num_buckets * _PTR_SIZE, True)
                    yield _rehash(chains, bucket_addr, buckets_base, num_buckets)
                entry = alloc.alloc_lines(1)
                bucket = bucket_addr(key)
                yield (
                    _INSERT_KINDS,
                    (0, 250, bucket, entry + _KEY_OFF, entry + _VALUE_OFF,
                     entry + _NEXT_OFF, entry + _HASH_OFF, bucket, count_addr, 0),
                    _INSERT_SIZES,
                )
                chains.setdefault(bucket, []).insert(0, (key, entry))
                entry_of[key] = entry
                live_keys.append(key)
                inserted += 1
            elif op == "update" and live_keys:
                key = live_keys[int(rng.integers(0, len(live_keys)))]
                entry = entry_of[key]
                yield (
                    _UPDATE_KINDS,
                    (0, 70, bucket_addr(key), entry + _KEY_OFF, entry + _VALUE_OFF, 0),
                    _UPDATE_SIZES,
                )
            elif op == "delete" and live_keys:
                pick = int(rng.integers(0, len(live_keys)))
                key = live_keys.pop(pick)
                entry = entry_of.pop(key)
                bucket = bucket_addr(key)
                chain = chains.get(bucket, [])
                pos = next(i for i, (k, _) in enumerate(chain) if k == key)
                unlink = bucket if pos == 0 else chain[pos - 1][1] + _NEXT_OFF
                yield _DELETE_KINDS, (0, 250, bucket, unlink, count_addr, 0), _DELETE_SIZES
                chain.pop(pos)
                inserted -= 1


def _rehash(
    chains: Dict[int, List[Tuple[int, int]]],
    bucket_addr: Callable[[int], int],
    base: int,
    num_buckets: int,
) -> Step:
    """Relink every entry of ``chains`` into the doubled bucket array at
    ``base`` as one big FASE: zero the array (sequential lines), then
    relink the entries in hash order (scattered bucket lines)."""
    entries = [pair for chain in chains.values() for pair in chain]
    chains.clear()
    zeroed = range(base, base + num_buckets * _PTR_SIZE, 8 * _PTR_SIZE)
    stores = len(zeroed) + 2 * len(entries)     # every one a pointer
    args = [0, 4 * num_buckets, *zeroed]
    for key, entry in entries:
        bucket = bucket_addr(key)
        args += (entry + _NEXT_OFF, bucket)
        chains.setdefault(bucket, []).insert(0, (key, entry))
    args.append(0)
    return [3, 2] + [0] * stores + [4], args, [0, 0] + [_PTR_SIZE] * stores + [0]
