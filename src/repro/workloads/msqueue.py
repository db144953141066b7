"""The *queue* micro-benchmark: Michael & Scott's two-lock queue (§IV-B).

"The queue is a multithreaded benchmark we wrote based on the blocking
algorithm of Michael and Scott."  The two-lock (blocking) variant keeps a
dummy node; enqueue appends under the tail lock, dequeue advances the
head pointer under the head lock.  The locks are transient (DRAM) — only
the queue's nodes and anchor pointers are persistent.

Persistent stores per operation, each operation one FASE:

- enqueue: node.value, node.next, pred.next, tail pointer — 4 stores;
- dequeue: head pointer — 1 store.

Nodes are 16 bytes (value + next), four to a cache line, exactly the
M&S node layout; consecutive allocations pack lines, so the new node
and its predecessor usually share one — which is how the combined ratio
lands near the paper's 0.625 (5 stores over ~3 distinct lines per
enqueue/dequeue pair).

FASEs are single operations, so no technique can combine beyond the
in-FASE reuse: LA = AT = SC, as in Table III's queue row (SC merely
chooses the smallest size among the optimal ones).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.common.errors import require_int
from repro.common.events import Step
from repro.workloads.base import BumpAllocator, Workload

DEFAULT_OPERATIONS = 100_000

_VALUE_OFF = 0
_NEXT_OFF = 8

#: The setup FASE: dummy.next, head and tail pointers.
_SETUP_KINDS = (3, 0, 0, 0, 4)
_SETUP_SIZES = (0, 8, 8, 8, 0)
#: One enqueue/dequeue pair.  Enqueue: lock, pointer math and
#: instrumentation (``WORK`` 170), node.value, node.next, pred.next, tail
#: pointer.  Dequeue: ``WORK`` 60, a load of the front node's successor,
#: the head pointer.
_PAIR_KINDS = (3, 2, 0, 0, 0, 0, 4, 3, 2, 1, 0, 4)
_PAIR_SIZES = (0, 0, 8, 8, 8, 8, 0, 0, 0, 8, 8, 0)


class QueueWorkload(Workload):
    """Alternating enqueue/dequeue pairs on a two-lock M&S queue."""

    name = "queue"

    def __init__(self, operations: int = DEFAULT_OPERATIONS) -> None:
        # `operations` counts enqueue+dequeue pairs per thread group.
        require_int("operations", operations, 0)
        self.operations = operations

    def supports_threads(self, num_threads: int) -> bool:
        return num_threads >= 1

    def steps(self, num_threads: int, seed: int) -> List[Iterator[Step]]:
        require_int("num_threads", num_threads, 1)
        alloc = BumpAllocator()
        per_thread = [self.operations // num_threads] * num_threads
        per_thread[0] += self.operations - sum(per_thread)
        return [self._steps(per_thread[t], alloc) for t in range(num_threads)]

    @staticmethod
    def _steps(pairs: int, alloc: BumpAllocator) -> Iterator[Step]:
        """One thread's program: the setup FASE, then one step per pair,
        each after the ``alloc(16)`` of its node."""
        head_addr = alloc.alloc_lines(1)
        tail_addr = alloc.alloc_lines(1)
        dummy = alloc.alloc(16, line_aligned=True)
        yield (
            _SETUP_KINDS,
            (0, dummy + _NEXT_OFF, head_addr, tail_addr, 0),
            _SETUP_SIZES,
        )
        # Each pair enqueues behind the tail and dequeues the front, so
        # the front is always the previous tail and its successor the
        # node just enqueued.
        tail_next = dummy + _NEXT_OFF
        for _ in range(pairs):
            node = alloc.alloc(16)
            yield (
                _PAIR_KINDS,
                (0, 170, node + _VALUE_OFF, node + _NEXT_OFF, tail_next, tail_addr,
                 0, 0, 60, tail_next, head_addr, 0),
                _PAIR_SIZES,
            )
            tail_next = node + _NEXT_OFF
