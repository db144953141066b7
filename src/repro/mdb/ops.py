"""Persistence backends for the MDB store.

The B+-tree and transaction code are written once against
:class:`PersistenceOps`; the backend decides what a store/load *does*:

- :class:`RecordingOps` keeps a shadow memory and records the event
  stream as runs into :class:`~repro.common.events.EventBatch` columns
  — this is how ``MtestWorkload`` produces the machine-runnable streams
  the experiment harness consumes;
- :class:`AtlasOps` executes against a live
  :class:`~repro.atlas.runtime.AtlasRuntime`, making the store genuinely
  durable and crash-recoverable (used by the recovery tests and the
  ``examples/mdb_store.py`` example).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.common.errors import ConfigurationError
from repro.common.events import EventBatch, EventKind, RunRecorder
from repro.nvram.memory import NVRAM_BASE

_STORE, _LOAD, _WORK = EventKind.STORE, EventKind.LOAD, EventKind.WORK

#: The header a page reads as before anything was written to it.
FRESH_HEADER = ("?", 0)


class PersistenceOps:
    """Backend protocol: allocation, data access, FASE bracketing."""

    def alloc(self, nbytes: int) -> int:
        """Reserve persistent memory; return its base address."""
        raise NotImplementedError

    def store(self, addr: int, value: object, size: int = 8) -> None:
        """Persistent store."""
        raise NotImplementedError

    def load(self, addr: int, size: int = 8) -> object:
        """Persistent load; returns the visible value."""
        raise NotImplementedError

    def store_run(self, addr: int, values: List[object], size: int) -> None:
        """Store ``values`` in consecutive ``size``-byte slots from ``addr``."""
        for i, value in enumerate(values):
            self.store(addr + i * size, value, size)

    def load_run(self, addr: int, n: int, size: int) -> List[object]:
        """Load ``n`` consecutive ``size``-byte slots from ``addr``."""
        return [self.load(addr + i * size, size) for i in range(n)]

    def load_page(self, addr: int, slot_bytes: int) -> Tuple[object, List[object]]:
        """Load a page's header slot at ``addr`` — ``(kind, nkeys)``, a
        fresh page reading as :data:`FRESH_HEADER` — then the ``nkeys``
        entry slots after it; return ``(header, entries)``."""
        header = self.load(addr, slot_bytes)
        if header is None:
            header = FRESH_HEADER
        return header, self.load_run(addr + slot_bytes, header[1], slot_bytes)

    def work(self, amount: int) -> None:
        """Computation between memory operations."""
        raise NotImplementedError

    @contextmanager
    def fase(self) -> Iterator[None]:
        """A failure-atomic section (one write transaction)."""
        raise NotImplementedError
        yield  # pragma: no cover


class RecordingOps(PersistenceOps):
    """Shadow-memory backend that records the event stream as runs.

    ``recording`` is a :class:`~repro.common.events.RunRecorder`: a
    page image is one ``STORE`` run, a page read — header and entries —
    one sampled ``LOAD`` run, anything else a run of one; ``events`` is
    the batch the runs expand into.  Values live in the shadow only.

    Loads are served from the shadow dict — a page read again before
    any store, from the earlier read — and, optionally, recorded as
    events so the hardware-cache model sees read traffic.  Recording
    loads is configurable because read-heavy phases (MDB traversals)
    otherwise dominate event volume without affecting flush counts:
    one load in ``load_sample``, counted across the recording, is kept.
    """

    def __init__(
        self,
        base: int = NVRAM_BASE,
        record_loads: bool = True,
        load_sample: int = 4,
    ) -> None:
        if load_sample < 1:
            raise ConfigurationError("load_sample must be >= 1")
        self.recording = RunRecorder()
        self.shadow: Dict[int, object] = {}
        self._next = base
        self.record_loads = record_loads
        self.load_sample = load_sample
        self._load_counter = 0
        self._pages: Dict[int, Tuple[object, List[object]]] = {}

    @property
    def events(self) -> EventBatch:
        """The recording so far as one batch."""
        return self.recording.batch()

    def alloc(self, nbytes: int) -> int:
        if nbytes <= 0:
            raise ConfigurationError("allocation size must be positive")
        # Line-align so pages start on cache-line boundaries.
        addr = (self._next + 63) & ~63
        self._next = addr + nbytes
        return addr

    def store(self, addr: int, value: object, size: int = 8) -> None:
        self.shadow[addr] = value
        self._pages.clear()
        self.recording.add(_STORE, addr, size, 1, size)

    def load(self, addr: int, size: int = 8) -> object:
        if self.record_loads:
            self._sample_loads(addr, 1, size)
        return self.shadow.get(addr)

    def _sample_loads(self, addr: int, n: int, size: int) -> None:
        """Count ``n`` slot loads from ``addr``; record as one run those
        whose number (slot i is counter + 1 + i) divides by ``load_sample``."""
        sample = self.load_sample
        first = -(self._load_counter + 1) % sample
        self._load_counter += n
        if first < n:
            self.recording.add(
                _LOAD, addr + first * size, sample * size,
                (n - 1 - first) // sample + 1, size,
            )

    def store_run(self, addr: int, values: List[object], size: int) -> None:
        self.shadow.update(zip(range(addr, addr + len(values) * size, size), values))
        self._pages.clear()
        self.recording.add(_STORE, addr, size, len(values), size)

    def load_page(self, addr: int, slot_bytes: int) -> Tuple[object, List[object]]:
        # The header slot and the entries are consecutive slots: one run.
        # A page (one slot size) read since the last store reads the same.
        page = self._pages.get(addr)
        if page is None:
            header = self.shadow.get(addr)
            if header is None:
                header = FRESH_HEADER
            end = addr + (header[1] + 1) * slot_bytes
            page = self._pages[addr] = header, list(
                map(self.shadow.get, range(addr + slot_bytes, end, slot_bytes))
            )
        header, entries = page
        if self.record_loads:
            self._sample_loads(addr, len(entries) + 1, slot_bytes)
        return header, entries[:]

    def work(self, amount: int) -> None:
        self.recording.add(_WORK, amount, 0, 1, 0)

    @contextmanager
    def fase(self) -> Iterator[None]:
        self.recording.add(EventKind.FASE_BEGIN, 0, 0, 1, 0)
        try:
            yield
        finally:
            self.recording.add(EventKind.FASE_END, 0, 0, 1, 0)


class AtlasOps(PersistenceOps):
    """Backend running on a live Atlas runtime (durable execution)."""

    def __init__(self, runtime, region_name: str = "mdb") -> None:
        self.runtime = runtime
        self.region = runtime.find_or_create_region(region_name)

    def alloc(self, nbytes: int) -> int:
        return self.region.alloc(nbytes)

    def store(self, addr: int, value: object, size: int = 8) -> None:
        self.runtime.store(addr, size, value)

    def load(self, addr: int, size: int = 8) -> object:
        return self.runtime.load(addr, size)

    def work(self, amount: int) -> None:
        self.runtime.work(amount)

    @contextmanager
    def fase(self) -> Iterator[None]:
        with self.runtime.fase():
            yield
