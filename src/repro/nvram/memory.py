"""The simulated physical address space.

Addresses at or above :data:`NVRAM_BASE` form the *persistence domain* —
the byte-addressable non-volatile region the paper's tmpfs emulation
stands in for.  Addresses below it are ordinary volatile DRAM (where the
software cache itself lives; the paper places it "in the faster DRAM,
rather than NVRAM").

For crash/recovery testing the NVRAM region tracks actual values: a store
becomes *durable* only when its cache line is written back (evicted dirty
or flushed).  :class:`MainMemory` therefore exposes ``write_back`` — how
values enter NVRAM; the machine's explicit flush, once per undo-log
record, lands a line's pending values (all persistent) in ``nvram``
itself — and a read path that recovery code uses after a simulated power
failure.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.common.errors import SimulationError

#: Start of the persistence domain.  Everything at or above this byte
#: address survives a crash once written back.
NVRAM_BASE: int = 0x1000_0000


class MainMemory:
    """Backing store: volatile DRAM plus non-volatile NVRAM.

    Values are Python objects keyed by byte address.  Workloads that only
    study flush *counts* never materialise values (they pass
    ``value=None`` in their stores) and pay no bookkeeping here.
    """

    __slots__ = ("nvram", "dram", "writebacks")

    def __init__(self) -> None:
        self.nvram: Dict[int, object] = {}
        self.dram: Dict[int, object] = {}
        self.writebacks: int = 0

    @staticmethod
    def is_persistent(addr: int) -> bool:
        """True when ``addr`` lies in the persistence domain."""
        return addr >= NVRAM_BASE

    def write_back(self, values: Iterable[Tuple[int, object]]) -> None:
        """Make ``(addr, value)`` pairs durable (a cache-line write-back)."""
        self.writebacks += 1
        for addr, value in values:
            if addr >= NVRAM_BASE:
                self.nvram[addr] = value
            else:
                self.dram[addr] = value

    def read(self, addr: int, default: object = None) -> object:
        """Read the durable value at ``addr`` (post-write-back state)."""
        if addr >= NVRAM_BASE:
            return self.nvram.get(addr, default)
        return self.dram.get(addr, default)

    def require_persistent(self, addr: int) -> None:
        """Raise unless ``addr`` is in the persistence domain."""
        if addr < NVRAM_BASE:
            raise SimulationError(
                f"address {addr:#x} is below NVRAM_BASE {NVRAM_BASE:#x}"
            )
