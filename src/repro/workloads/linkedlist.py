"""The *linked-list* micro-benchmark (§IV-B).

"The singly linked-list is a multi-threaded benchmark, whereby a total of
N elements are inserted in a perfect shuffle pattern for a given number
of elements added atomically at each step."

One insert per FASE.  Each node occupies one cache line (key, value,
next); an insert stores the three node fields (one line), the
predecessor's ``next`` pointer (a second line) and the list's element
count (a third line) — five stores over three lines, which is why every
technique lands on the same flush ratio of 0.6: there is no reuse beyond
the in-line combining even the lazy bound gets, so LA = AT = SC
(Table III's linked-list row).

The perfect shuffle is realised by inserting keys in bit-reversed order,
so successive inserts land far apart in the list.  With T threads the key
space is sharded: thread ``t`` maintains its own sublist of the keys
congruent to ``t`` — insert counts and flush ratios are unchanged, and
per-thread software caches never interact (as in the paper's model).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, List

from repro.common.errors import require_int
from repro.common.events import Step
from repro.workloads.base import BumpAllocator, Workload

DEFAULT_ELEMENTS = 10_000

_KEY_OFF = 0
_VALUE_OFF = 8
_NEXT_OFF = 16

#: An insert's kinds and sizes, by (new head?, first insert?): the FASE
#: opens with the search (``WORK``) and the node's key and value; a new
#: head then stores node.next and the head pointer, any other insert
#: loads the predecessor's next and stores node.next and pred.next; every
#: insert but the first stores the element count.
_INSERT_KINDS = {
    (True, True): (3, 2, 0, 0, 0, 0, 4),
    (True, False): (3, 2, 0, 0, 0, 0, 0, 4),
    (False, True): (3, 2, 0, 0, 1, 0, 0, 4),
    (False, False): (3, 2, 0, 0, 1, 0, 0, 0, 4),
}
_INSERT_SIZES = {
    shape: tuple(8 if kind < 2 else 0 for kind in kinds)
    for shape, kinds in _INSERT_KINDS.items()
}


def _bit_reverse(value: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def perfect_shuffle_order(n: int) -> List[int]:
    """Keys 0..n-1 in bit-reversed (perfect shuffle) insertion order."""
    if n <= 0:
        return []
    bits = max(1, (n - 1).bit_length())
    order = [k for v in range(1 << bits) if (k := _bit_reverse(v, bits)) < n]
    return order


class LinkedListWorkload(Workload):
    """Sorted singly linked list built by perfect-shuffle inserts."""

    name = "linked-list"

    def __init__(self, elements: int = DEFAULT_ELEMENTS) -> None:
        require_int("elements", elements, 0)
        self.elements = elements

    @property
    def total_stores(self) -> int:
        """5 stores per insert, 4 for the first (no count update): 5N - 1."""
        return 5 * self.elements - 1 if self.elements else 0

    def supports_threads(self, num_threads: int) -> bool:
        return num_threads >= 1

    def steps(self, num_threads: int, seed: int) -> List[Iterator[Step]]:
        require_int("num_threads", num_threads, 1)
        alloc = BumpAllocator()
        # One count line and one head-pointer line per thread, then nodes.
        return [self._steps(t, num_threads, alloc) for t in range(num_threads)]

    def _steps(self, tid: int, nthreads: int, alloc: BumpAllocator) -> Iterator[Step]:
        """One thread's inserts, one step each, after the ``alloc_lines``
        of its node; the first pull allocates the head and count lines,
        even for a thread with no keys."""
        head_addr = alloc.alloc_lines(1)
        count_addr = alloc.alloc_lines(1)
        keys = [k for k in perfect_shuffle_order(self.elements) if k % nthreads == tid]
        sorted_keys: List[int] = []
        node_of = {}
        for key in keys:
            node = alloc.alloc_lines(1)
            idx = bisect_left(sorted_keys, key)
            # Search cost: one predecessor load plus traversal work.
            args = [0, 180 + idx // 4, node + _KEY_OFF, node + _VALUE_OFF]
            if idx == 0:
                # New head: next := old head, head := node.
                args += (node + _NEXT_OFF, head_addr)
            else:
                pred_next = node_of[sorted_keys[idx - 1]] + _NEXT_OFF
                args += (pred_next, node + _NEXT_OFF, pred_next)
            first = not sorted_keys     # paper's store count is 5N - 1
            if not first:
                args.append(count_addr)
            args.append(0)
            shape = (idx == 0, first)
            yield _INSERT_KINDS[shape], args, _INSERT_SIZES[shape]
            insort(sorted_keys, key)
            node_of[key] = node
