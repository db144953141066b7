"""Fixed-size pages in persistent memory.

MDB organises the B+-tree in pages; the copy-on-write policy operates at
page granularity ("writers use copy-on-write policy", §IV-B).  A page
here is a line-aligned block of fixed 16-byte slots, the first one the
header; the slot layout means a page copy is a run of consecutive
same-line stores — the spatial write locality that makes Atlas's table
effective on MDB (its flush ratio of 0.30 reflects roughly three
combined stores per line) and that the software cache improves on by
also combining *across* the pages a transaction revisits.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigurationError
from repro.mdb.ops import PersistenceOps

#: Default page size in bytes.  LMDB uses 4096; the reproduction scales
#: the page down with everything else so trees stay deep enough to
#: exercise multi-level copy-on-write at laptop problem sizes.
DEFAULT_PAGE_SIZE = 512

#: Bytes per page slot (the header and each entry).
SLOT_BYTES = 16


class Page:
    """A typed page handle: header + entry slots.

    The header slot stores ``(kind, nkeys)``; entry slot ``i`` stores an
    arbitrary tuple (leaf: ``(key, value)``; branch: ``(key, child)``).
    """

    __slots__ = ("ops", "addr", "capacity")

    LEAF = "leaf"
    BRANCH = "branch"
    META = "meta"

    def __init__(self, ops: PersistenceOps, addr: int, page_size: int) -> None:
        self.ops = ops
        self.addr = addr
        self.capacity = page_size // SLOT_BYTES - 1

    # -- header -----------------------------------------------------------

    def write_header(self, kind: str, nkeys: int) -> None:
        """Store ``(kind, nkeys)`` in the header slot (never more than
        the page holds: a page read trusts it)."""
        if not 0 <= nkeys <= self.capacity:
            raise ConfigurationError(f"{nkeys} entries: a page holds 0..{self.capacity}")
        self.ops.store(self.addr, (kind, nkeys), SLOT_BYTES)

    # -- slots --------------------------------------------------------------

    def slot_addr(self, i: int) -> int:
        """Byte address of entry slot ``i``."""
        return self.addr + (i + 1) * SLOT_BYTES

    def write_slot(self, i: int, entry: object) -> None:
        """Store ``entry`` in slot ``i``."""
        if not 0 <= i < self.capacity:
            raise ConfigurationError(f"slot {i} out of range 0..{self.capacity - 1}")
        self.ops.store(self.slot_addr(i), entry, SLOT_BYTES)

    def read_slot(self, i: int) -> object:
        """Load slot ``i``."""
        if not 0 <= i < self.capacity:
            raise ConfigurationError(f"slot {i} out of range 0..{self.capacity - 1}")
        return self.ops.load(self.slot_addr(i), SLOT_BYTES)

    def write_entries(self, kind: str, entries: List[object]) -> None:
        """Store a full page image as one ``store_run``: the header
        slot, then the entries.

        Charges computation proportional to the page image (the compares
        and copies a real page write performs) so that timing reflects
        B+-tree work, not just raw stores.
        """
        if len(entries) > self.capacity:
            raise ConfigurationError(
                f"{len(entries)} entries exceed capacity {self.capacity}"
            )
        self.ops.work(2 + 2 * len(entries))
        self.ops.store_run(self.addr, [(kind, len(entries)), *entries], SLOT_BYTES)


class PageAllocator:
    """Allocates pages from the backend (append-only, as in COW MDB)."""

    __slots__ = ("ops", "page_size", "allocated")

    def __init__(self, ops: PersistenceOps, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < 3 * SLOT_BYTES:
            raise ConfigurationError(f"page size too small: {page_size}")
        self.ops = ops
        self.page_size = page_size
        self.allocated = 0

    def new_page(self) -> Page:
        """Allocate a fresh page."""
        addr = self.ops.alloc(self.page_size)
        self.allocated += 1
        return Page(self.ops, addr, self.page_size)

    def page_at(self, addr: int) -> Page:
        """A handle for an existing page."""
        return Page(self.ops, addr, self.page_size)

    @property
    def capacity_per_page(self) -> int:
        """Entry slots per page."""
        return self.page_size // SLOT_BYTES - 1
