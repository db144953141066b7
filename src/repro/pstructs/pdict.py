"""A durable open-addressing hash map.

Layout:

- header slot: ``(count, capacity, table_base)``;
- table: ``capacity`` slots at ``table_base + 8*i``, each holding
  ``None`` (empty), the tombstone marker, or ``(key, value)``.

Linear probing with tombstoned deletion; the table doubles (one
rehash FASE) when the load factor crosses 2/3.  Every operation is one
FASE, so crash recovery never exposes a half-rehashed table: the new
table is fully built before the header that points at it is published.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.atlas.runtime import AtlasRuntime
from repro.common.errors import ConfigurationError

_SLOT = 8
_MAX_LOAD_NUM, _MAX_LOAD_DEN = 2, 3

#: Distinguishable deleted-slot marker (a plain string survives the
#: simulated NVRAM's object storage).
TOMBSTONE = "__repro_tombstone__"


def _key_hash(key: object) -> int:
    """``hash(key)``, except that ``str`` and ``bytes`` keys — whose built-in
    hash is salted per process — and the tuples built from them hash the
    same in every process, so a dict's slot layout never depends on
    ``PYTHONHASHSEED``.  An int keeps its value."""
    if isinstance(key, str):
        key = key.encode("utf-8", "surrogatepass")
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, tuple):
        return hash(tuple(map(_key_hash, key)))
    return hash(key)


def _hash(key: object, capacity: int) -> int:
    return (_key_hash(key) * 2654435761) % capacity


class PersistentDict:
    """A crash-consistent hash map of Python keys/values."""

    def __init__(
        self,
        runtime: AtlasRuntime,
        initial_capacity: int = 16,
        header_addr: Optional[int] = None,
    ) -> None:
        if initial_capacity < 4:
            raise ConfigurationError("initial capacity must be >= 4")
        self.rt = runtime
        if header_addr is None:
            self.header = runtime.alloc(_SLOT)
            table = runtime.alloc(initial_capacity * _SLOT)
            with runtime.fase():
                runtime.store(self.header, value=(0, initial_capacity, table))
        else:
            self.header = header_addr

    @classmethod
    def reattach(cls, runtime: AtlasRuntime, header_addr: int) -> "PersistentDict":
        """Rebuild a handle from a recovered/reopened header address."""
        return cls(runtime, header_addr=header_addr)

    # -- internals ---------------------------------------------------------

    def _header(self) -> Tuple[int, int, int]:
        header = self.rt.load(self.header)
        if header is None:
            raise ConfigurationError(f"no dict at {self.header:#x}")
        return header

    def _probe(self, table: int, capacity: int, key: object):
        """Yield ``(slot_addr, payload)`` along ``key``'s probe sequence."""
        idx = _hash(key, capacity)
        for step in range(capacity):
            addr = table + ((idx + step) % capacity) * _SLOT
            yield addr, self.rt.load(addr)

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._header()[0]

    def get(self, key: object, default: object = None) -> object:
        """Look ``key`` up."""
        _count, capacity, table = self._header()
        for _addr, payload in self._probe(table, capacity, key):
            if payload is None:
                return default
            if payload != TOMBSTONE and payload[0] == key:
                return payload[1]
        return default

    def __contains__(self, key: object) -> bool:
        marker = object()
        return self.get(key, marker) is not marker

    def items(self) -> Iterator[Tuple[object, object]]:
        """Iterate live ``(key, value)`` pairs (arbitrary order)."""
        _count, capacity, table = self._header()
        for i in range(capacity):
            payload = self.rt.load(table + i * _SLOT)
            if payload is not None and payload != TOMBSTONE:
                yield payload

    # -- writes ----------------------------------------------------------------

    def put(self, key: object, value: object) -> None:
        """Insert or overwrite (one FASE, may rehash)."""
        with self.rt.fase():
            count, capacity, table = self._header()
            if (count + 1) * _MAX_LOAD_DEN > capacity * _MAX_LOAD_NUM:
                capacity, table = self._rehash(capacity, table)
                count = self._header()[0]
            first_free = None
            for addr, payload in self._probe(table, capacity, key):
                if payload == TOMBSTONE:
                    if first_free is None:
                        first_free = addr
                elif payload is None:
                    self.rt.store(first_free or addr, value=(key, value))
                    self.rt.store(self.header, value=(count + 1, capacity, table))
                    return
                elif payload[0] == key:
                    self.rt.store(addr, value=(key, value))
                    return
            if first_free is None:
                raise ConfigurationError("probe sequence exhausted (table corrupt?)")
            # No empty slot left on the sequence, only tombstones and
            # other keys (deletes do not lower the load the rehash tests).
            self.rt.store(first_free, value=(key, value))
            self.rt.store(self.header, value=(count + 1, capacity, table))

    def delete(self, key: object) -> bool:
        """Remove ``key`` (one FASE); returns whether it was present."""
        with self.rt.fase():
            count, capacity, table = self._header()
            for addr, payload in self._probe(table, capacity, key):
                if payload is None:
                    return False
                if payload != TOMBSTONE and payload[0] == key:
                    self.rt.store(addr, value=TOMBSTONE)
                    self.rt.store(self.header, value=(count - 1, capacity, table))
                    return True
            return False

    def _rehash(self, capacity: int, table: int) -> Tuple[int, int]:
        """Double the table inside the caller's FASE; returns (cap, base)."""
        new_cap = capacity * 2
        new_table = self.rt.alloc(new_cap * _SLOT)
        live = 0
        for i in range(capacity):
            payload = self.rt.load(table + i * _SLOT)
            if payload is None or payload == TOMBSTONE:
                continue
            key = payload[0]
            idx = _hash(key, new_cap)
            for step in range(new_cap):
                addr = new_table + ((idx + step) % new_cap) * _SLOT
                if self.rt.load(addr) is None:
                    self.rt.store(addr, value=payload)
                    break
            live += 1
        self.rt.store(self.header, value=(live, new_cap, new_table))
        return new_cap, new_table

    # -- post-crash verification -------------------------------------------------

    @staticmethod
    def read_back(
        read: Callable[[int], object], header_addr: int
    ) -> Dict[object, object]:
        """Materialise the mapping from a recovered NVRAM image."""
        header = read(header_addr)
        if header is None:
            raise ConfigurationError(f"no dict header at {header_addr:#x}")
        _count, capacity, table = header
        out: Dict[object, object] = {}
        for i in range(capacity):
            payload = read(table + i * _SLOT)
            if payload is not None and payload != TOMBSTONE:
                out[payload[0]] = payload[1]
        return out
