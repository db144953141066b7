"""The cycle-accounting cost model.

All "time" reported by the simulator is in model cycles.  The constants
are back-derived from the paper's own measurements so the relative
behaviour matches by construction:

- Table IV's instruction counts give ~62 instructions of computation
  per persistent store (BEST: 2.56G instructions / 41M stores) and the
  per-store instrumentation costs of each technique (AT ~19, SC ~24);
- Table I's eager slowdowns (22x on ~62-instruction stores) then pin
  the end-to-end cost of a serialised flush at ~1900 cycles — the
  clflush + fence + NVRAM-write path of the emulated platform;
- the hardware-cache re-fill after an invalidating flush costs an
  NVRAM read (~100 cycles), §II-A's indirect cost.

Mechanically:

- ``clflush`` to (emulated) NVRAM is expensive and serialising — several
  hundred nanoseconds once fencing is accounted for.  Eager flushing of
  every store therefore throttles the CPU to the flush service rate,
  giving the order-of-magnitude slowdowns of Table I.
- An asynchronous flush only charges the CPU its *issue* cost as long as
  the flush queue has room; the write-back itself overlaps with
  computation ("the eager solution has the benefit of hiding memory
  transfer cost via asynchronous cache line flushes").
- A synchronous drain at the end of a FASE stalls until the queue is
  empty — the lazy solution's weakness ("the CPU stall at the end of a
  FASE severely hurts performance").
- ``clflush`` invalidates, so the next access to a flushed line misses in
  the hardware cache; the simulator charges that indirect cost through
  the cache model, not through a constant.

Per-store software bookkeeping costs are properties of the *techniques*
(see :mod:`repro.cache.policies`) and are expressed in the same cycle
units; Table IV's "SC executes ~8% more instructions than AT" emerges
from those constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import require_int, require_positive


@dataclass(frozen=True)
class TimingModel:
    """Cycle costs of the simulated machine.

    Attributes
    ----------
    cpi:
        Cycles per plain instruction: a ``Work`` of ``a`` instructions
        costs ``int(a * cpi)`` cycles, truncated per event.  The machine
        charges that in both engines, and
        :meth:`repro.common.events.EventBatch.line_runs` mirrors it for
        the ``Work`` inside line-touch runs — change the three together.
    l1_hit:
        Cycles for a load/store that hits the hardware cache.
    l1_miss:
        Additional cycles for a hardware-cache miss (line fill).
    flush_issue:
        CPU-visible cost of issuing one ``clflush`` (decode + queue
        insert); paid whether or not the line is dirty.
    writeback_service:
        Memory-channel occupancy of one cache-line write-back to NVRAM.
        This is the asynchronous part: it only stalls the CPU when the
        flush queue is full or on a synchronous drain.
    flush_queue_depth:
        Outstanding flushes the hardware can buffer before the CPU blocks.
    """

    cpi: float = 1.0
    l1_hit: int = 1
    l1_miss: int = 100
    flush_issue: int = 800
    writeback_service: int = 1900
    flush_queue_depth: int = 8

    def __post_init__(self) -> None:
        require_positive("cpi", self.cpi)
        # Cycle counts stay exact ints end to end: a fractional cost would
        # silently turn every counter into a float.
        for name in ("l1_hit", "l1_miss", "flush_issue", "writeback_service"):
            require_int(name, getattr(self, name), 0)
        require_int("flush_queue_depth", self.flush_queue_depth, 1)


#: The model used by the experiment harness unless overridden.
DEFAULT_TIMING = TimingModel()
