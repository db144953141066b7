"""*persistent-array* — reproduced exactly from §IV-B.

"A simple sequential program … It has only one FASE, which consists of a
two-level nested loop.  The inner loop iterates 400 times and writes in
iteration i to the i-th element of an array of integers.  The outer loop
repeats the inner loop 2500 times.  On the tested machine, a cache block
has 64 bytes, i.e. 16 (4-byte) integers.  The inner loop accesses 25
(cache line aligned) or 26 (not cache line aligned) cache blocks."

The analytically known results this workload must reproduce *exactly*
(Table III):

- total persistent stores: 2500 × 400 + 1 = 1 000 001 (the +1 is a final
  completion-flag store);
- Atlas (8-entry table): sequential stores combine 15/16 writes per line
  through spatial locality — flush ratio 1/16 = 0.0625;
- the software cache picks size 26 (the unaligned working set) and the
  ratio collapses to 26 drain flushes + the flag ≈ 0.00003 (LA's bound).
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.events import BATCH_CHUNK, EventBatch, EventKind
from repro.common.geometry import CACHE_LINE_SIZE
from repro.workloads.base import BumpAllocator, Workload

INNER_ITERATIONS = 400
OUTER_ITERATIONS = 2500
INT_SIZE = 4


class PersistentArray(Workload):
    """The paper's persistent-array micro-benchmark (sequential)."""

    name = "persistent-array"

    def __init__(
        self,
        inner: int = INNER_ITERATIONS,
        outer: int = OUTER_ITERATIONS,
        aligned: bool = False,
        work_per_store: int = 50,
    ) -> None:
        self.inner = inner
        self.outer = outer
        self.aligned = aligned
        self.work_per_store = work_per_store

    @property
    def total_stores(self) -> int:
        """Persistent stores per run (paper: 1 000 001)."""
        return self.inner * self.outer + 1

    @property
    def working_set_lines(self) -> int:
        """Cache lines the inner loop touches (25 aligned, 26 not)."""
        span = self.inner * INT_SIZE
        if self.aligned:
            return (span + CACHE_LINE_SIZE - 1) // CACHE_LINE_SIZE
        return (span + CACHE_LINE_SIZE - 1) // CACHE_LINE_SIZE + 1

    def batch_streams(
        self, num_threads: int, seed: int
    ) -> List[Iterator[EventBatch]]:
        if num_threads != 1:
            raise ConfigurationError("persistent-array is a sequential benchmark")
        return [self._batches()]

    def _batches(self) -> Iterator[EventBatch]:
        """The program as columns — its one spelling; ``streams`` is the
        inherited decoding.  The inner loop is laid out once and tiled,
        and the run is handed out in ``BATCH_CHUNK``-row slices: where a
        recording of the per-event program cut it, so line runs end
        where they did.
        """
        alloc = BumpAllocator()
        base = alloc.alloc(self.inner * INT_SIZE + CACHE_LINE_SIZE, line_aligned=True)
        if not self.aligned:
            base += CACHE_LINE_SIZE // 2  # straddle one extra line
        flag = alloc.alloc(INT_SIZE, line_aligned=True)
        inner, work = self.inner, self.work_per_store
        kinds = np.full(inner, EventKind.STORE, dtype=np.int8)
        args = base + INT_SIZE * np.arange(inner, dtype=np.int64)
        sizes = np.full(inner, INT_SIZE, dtype=np.int64)
        if work:    # one iteration is (WORK, STORE)
            kinds = np.column_stack((np.full_like(kinds, EventKind.WORK), kinds))
            args = np.column_stack((np.full_like(args, work), args))
            sizes = np.column_stack((np.zeros_like(sizes), sizes))
        program = EventBatch()
        program.append_fase_begin()
        for column, loop in (
            (program.kinds, kinds), (program.args, args), (program.sizes, sizes)
        ):
            column.frombytes(np.tile(loop.ravel(), self.outer).tobytes())
        program.append_store(flag, INT_SIZE)     # the completion flag: the +1 store
        program.append_fase_end()
        yield from program.split(BATCH_CHUNK)
