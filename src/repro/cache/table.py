"""Atlas's address table (§II-A) — the state-of-the-art baseline.

"Atlas monitors data writes at cache-line granularity.  It uses a table
to record the address of all modified cache blocks.  Upon a write, if its
cache-line address is in the table, Atlas does nothing.  Otherwise, the
address is inserted.  If the table is full, a previously stored
cache-line address is read and then flushed before the new insertion.
The whole table is flushed at the end of a FASE."

The paper characterises the table as "equivalent to a direct-mapped,
fixed size cache": each line indexes one slot (``line mod size``); a
conflicting occupant is flushed and replaced.  Atlas uses 8 entries.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import require_int

#: Atlas's table size ("The software solution is pioneered in Atlas as a
#: 8-entry table", §V).
ATLAS_TABLE_SIZE = 8


class AtlasTable:
    """A direct-mapped, fixed-size table of dirty-line addresses."""

    __slots__ = ("size", "slots", "hits", "misses", "conflicts")

    def __init__(self, size: int = ATLAS_TABLE_SIZE) -> None:
        require_int("table_size", size, 1)
        self.size = size
        self.slots: List[Optional[int]] = [None] * size
        self.hits = 0
        self.misses = 0
        self.conflicts = 0

    def access(self, line: int) -> Optional[int]:
        """Record a write to ``line``; return a conflicting line to flush."""
        idx = line % self.size
        occupant = self.slots[idx]
        if occupant == line:
            self.hits += 1
            return None
        self.misses += 1
        self.slots[idx] = line
        if occupant is not None:
            self.conflicts += 1
        return occupant

    def drain(self) -> List[int]:
        """Empty the table (end of FASE); return lines to flush."""
        lines = [line for line in self.slots if line is not None]
        self.slots = [None] * self.size
        return lines

    def __len__(self) -> int:
        return sum(1 for line in self.slots if line is not None)

    def __contains__(self, line: int) -> bool:
        return self.slots[line % self.size] == line

    def __repr__(self) -> str:
        return f"AtlasTable(size={self.size}, used={len(self)})"
