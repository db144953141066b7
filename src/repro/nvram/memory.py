"""The simulated physical address space.

Addresses at or above :data:`NVRAM_BASE` form the *persistence domain* —
the byte-addressable non-volatile region the paper's tmpfs emulation
stands in for.  Addresses below it are ordinary volatile DRAM (where the
software cache itself lives; the paper places it "in the faster DRAM,
rather than NVRAM").

For crash/recovery testing the NVRAM region tracks actual values: a store
becomes *durable* only when its cache line is written back (evicted dirty
or flushed), when the machine lands the line's pending values — all
persistent — in ``nvram``.  :meth:`MainMemory.read` is the durable read
path.
"""

from __future__ import annotations

from typing import Dict

#: Start of the persistence domain.  Everything at or above this byte
#: address survives a crash once written back.
NVRAM_BASE: int = 0x1000_0000


class MainMemory:
    """Backing store: the durable NVRAM image.

    Values are Python objects keyed by byte address.  Workloads that only
    study flush *counts* never materialise values (they pass
    ``value=None`` in their stores) and pay no bookkeeping here.  No
    volatile value is ever written back: a volatile address reads
    ``default``.
    """

    __slots__ = ("nvram",)

    def __init__(self) -> None:
        self.nvram: Dict[int, object] = {}

    def read(self, addr: int, default: object = None) -> object:
        """Read the durable value at ``addr`` (post-write-back state)."""
        return self.nvram.get(addr, default)
