"""The copy-on-write B+-tree.

Writers never modify a live page: every page on the root-to-leaf path of
an update is copied into a fresh page first (within one transaction the
copy is reused, so several puts touching the same leaf combine — the
write locality the software cache exploits).  Readers holding an old
root keep a consistent snapshot because old pages are never overwritten.

Layout: branch entries are ``(separator_key, child_addr)`` where the
child covers keys ``>= separator_key`` and the first separator is
``None`` (covers everything below the second); leaf entries are sorted
``(key, value)`` pairs.  Deletion is LMDB-style lazy: pages may
underflow, empty pages are unlinked, and a single-child branch root
collapses.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.mdb.ops import PersistenceOps
from repro.mdb.pages import SLOT_BYTES, Page, PageAllocator


class CowContext:
    """Per-write-transaction copy-on-write state."""

    __slots__ = ("copied", "writable", "pages_copied", "pages_created")

    def __init__(self) -> None:
        self.copied: Dict[int, int] = {}   # old page addr -> new page addr
        self.writable: set = set()         # pages owned by this transaction
        self.pages_copied = 0
        self.pages_created = 0


class BPlusTree:
    """COW B+-tree over a page allocator (see module docstring)."""

    def __init__(self, ops: PersistenceOps, allocator: PageAllocator) -> None:
        self.ops = ops
        self.alloc = allocator
        self.order = allocator.capacity_per_page

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def create_empty(self) -> int:
        """Allocate an empty leaf as the initial root; return its address."""
        page = self.alloc.new_page()
        page.write_entries(Page.LEAF, [])
        return page.addr

    # ------------------------------------------------------------------
    # Reads (work on any root snapshot, no COW)
    # ------------------------------------------------------------------

    def _read_page(self, addr: int) -> Tuple[str, List[object]]:
        (kind, _nkeys), entries = self.ops.load_page(addr, SLOT_BYTES)
        return kind, entries

    def get(self, root: int, key: int) -> Optional[object]:
        """Look ``key`` up under the given root snapshot."""
        addr = root
        while True:
            kind, entries = self._read_page(addr)
            self.ops.work(4 + len(entries) // 8)
            if kind == Page.LEAF:
                for k, v in entries:
                    if k == key:
                        return v
                return None
            addr = self._child_for(entries, key)

    def scan(self, root: int) -> Iterator[Tuple[int, object]]:
        """Yield all ``(key, value)`` pairs in key order (a traversal)."""
        kind, entries = self._read_page(root)
        self.ops.work(4)
        if kind == Page.LEAF:
            yield from entries
            return
        for _sep, child in entries:
            yield from self.scan(child)

    def depth(self, root: int) -> int:
        """Tree height (1 for a lone leaf)."""
        addr, d = root, 1
        while True:
            kind, entries = self._read_page(addr)
            if kind == Page.LEAF:
                return d
            addr = entries[0][1]
            d += 1

    @staticmethod
    def _child_for(entries: List[Tuple[Optional[int], int]], key: int) -> int:
        # Separators are sorted with entries[0][0] == None (minus infinity).
        lo, hi = 1, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid][0] <= key:
                lo = mid + 1
            else:
                hi = mid
        return entries[lo - 1][1]

    # ------------------------------------------------------------------
    # Copy-on-write plumbing
    # ------------------------------------------------------------------

    def _cow_page(self, cow: CowContext, addr: int) -> Tuple[int, str, List[object]]:
        """Return a writable version of ``addr`` (copying on first touch).

        Pages this transaction already owns (its earlier copies and
        splits) are modified in place — that in-transaction reuse is the
        write combining the software cache exploits on MDB.
        """
        if addr in cow.writable:
            kind, entries = self._read_page(addr)
            return addr, kind, entries
        if addr in cow.copied:
            new_addr = cow.copied[addr]
            kind, entries = self._read_page(new_addr)
            return new_addr, kind, entries
        kind, entries = self._read_page(addr)
        page = self.alloc.new_page()
        page.write_entries(kind, entries)
        cow.copied[addr] = page.addr
        cow.writable.add(page.addr)
        cow.pages_copied += 1
        return page.addr, kind, entries

    def _write_page(self, addr: int, kind: str, entries: List[object]) -> None:
        # Full-image page writes: LMDB-style write amplification (page
        # memcpy on copy, spill-style rewrites on edit).  This is what
        # gives MDB its heavy same-line write multiplicity - the
        # combining opportunity Table III's mdb row measures.
        self.alloc.page_at(addr).write_entries(kind, entries)

    def _new_page(self, cow: CowContext, kind: str, entries: List[object]) -> int:
        page = self.alloc.new_page()
        page.write_entries(kind, entries)
        cow.writable.add(page.addr)
        cow.pages_created += 1
        return page.addr

    # ------------------------------------------------------------------
    # Writes (require a CowContext; return the new root)
    # ------------------------------------------------------------------

    def insert(self, root: int, key: int, value: object, cow: CowContext) -> int:
        """Insert or overwrite ``key``; return the new root address."""
        new_root, split = self._insert_rec(root, key, value, cow)
        if split is None:
            return new_root
        sep_key, right = split
        return self._new_page(
            cow, Page.BRANCH, [(None, new_root), (sep_key, right)]
        )

    def _insert_rec(
        self, addr: int, key: int, value: object, cow: CowContext
    ) -> Tuple[int, Optional[Tuple[int, int]]]:
        new_addr, kind, old = self._cow_page(cow, addr)
        self.ops.work(4 + len(old) // 8)
        entries = list(old)
        if kind == Page.LEAF:
            keys = [k for k, _ in entries]
            i = bisect_right(keys, key)
            if i and keys[i - 1] == key:
                entries[i - 1] = (key, value)       # overwrite in place
            else:
                entries.insert(i, (key, value))     # memmove of the tail
            if len(entries) <= self.order:
                self._write_page(new_addr, kind, entries)
                return new_addr, None
            mid = len(entries) // 2
            left, right = entries[:mid], entries[mid:]
            self._write_page(new_addr, kind, left)
            right_addr = self._new_page(cow, Page.LEAF, right)
            return new_addr, (right[0][0], right_addr)
        # Branch: descend, then patch the child pointer (and any split).
        child_idx = self._child_index(entries, key)
        child = entries[child_idx][1]
        new_child, split = self._insert_rec(child, key, value, cow)
        entries[child_idx] = (entries[child_idx][0], new_child)
        if split is not None:
            sep_key, right_addr = split
            entries.insert(child_idx + 1, (sep_key, right_addr))
        if len(entries) <= self.order:
            self._write_page(new_addr, kind, entries)
            return new_addr, None
        mid = len(entries) // 2
        left, right = entries[:mid], entries[mid:]
        self._write_page(new_addr, kind, left)
        # The right half's first separator becomes the push-up key and
        # its slot reverts to the minus-infinity sentinel.
        push_key = right[0][0]
        right = [(None, right[0][1])] + right[1:]
        right_addr = self._new_page(cow, Page.BRANCH, right)
        return new_addr, (push_key, right_addr)

    @staticmethod
    def _child_index(entries: List[Tuple[Optional[int], int]], key: int) -> int:
        lo, hi = 1, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid][0] <= key:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    def delete(self, root: int, key: int, cow: CowContext) -> Tuple[int, bool]:
        """Delete ``key``; return ``(new_root, found)``."""
        new_root, found, _empty = self._delete_rec(root, key, cow)
        # Collapse a single-child branch root (lazy rebalance).
        kind, entries = self._read_page(new_root)
        while kind == Page.BRANCH and len(entries) == 1:
            new_root = entries[0][1]
            kind, entries = self._read_page(new_root)
        return new_root, found

    def _delete_rec(
        self, addr: int, key: int, cow: CowContext
    ) -> Tuple[int, bool, bool]:
        new_addr, kind, old = self._cow_page(cow, addr)
        self.ops.work(4 + len(old) // 8)
        entries = list(old)
        if kind == Page.LEAF:
            for i, (k, _v) in enumerate(entries):
                if k == key:
                    del entries[i]
                    self._write_page(new_addr, kind, entries)
                    return new_addr, True, not entries
            return new_addr, False, not entries
        child_idx = self._child_index(entries, key)
        child = entries[child_idx][1]
        new_child, found, child_empty = self._delete_rec(child, key, cow)
        if child_empty and len(entries) > 1:
            del entries[child_idx]
            if child_idx == 0:
                # The new leftmost child covers minus infinity.
                entries[0] = (None, entries[0][1])
            subtree_empty = False
        else:
            entries[child_idx] = (entries[child_idx][0], new_child)
            # A branch whose only remaining child is empty is itself
            # empty; report it so ancestors can unlink the whole chain.
            subtree_empty = child_empty
        self._write_page(new_addr, kind, entries)
        return new_addr, found, subtree_empty

    # ------------------------------------------------------------------
    # Integrity checking (used by tests)
    # ------------------------------------------------------------------

    def check(self, root: int) -> int:
        """Validate ordering/structure invariants; return the key count."""
        count, _lo, _hi = self._check_rec(root, None, None)
        return count

    def _check_rec(
        self, addr: int, lo: Optional[int], hi: Optional[int]
    ) -> Tuple[int, Optional[int], Optional[int]]:
        kind, entries = self._read_page(addr)
        if kind == Page.LEAF:
            keys = [k for k, _ in entries]
            if keys != sorted(keys) or len(set(keys)) != len(keys):
                raise ConfigurationError(f"leaf {addr:#x} keys out of order")
            for k in keys:
                if (lo is not None and k < lo) or (hi is not None and k >= hi):
                    raise ConfigurationError(f"leaf key {k} outside [{lo},{hi})")
            return len(keys), None, None
        if not entries:
            raise ConfigurationError(f"empty branch page {addr:#x}")
        if entries[0][0] is not None:
            raise ConfigurationError(f"branch {addr:#x} missing -inf sentinel")
        seps = [k for k, _ in entries[1:]]
        if seps != sorted(seps):
            raise ConfigurationError(f"branch {addr:#x} separators out of order")
        total = 0
        for i, (sep, child) in enumerate(entries):
            child_lo = lo if sep is None else sep
            child_hi = entries[i + 1][0] if i + 1 < len(entries) else hi
            n, _, _ = self._check_rec(child, child_lo, child_hi)
            total += n
        return total, None, None
