"""Persistence backends for the MDB store.

The B+-tree and transaction code are written once against
:class:`PersistenceOps`; the backend decides what a store/load *does*:

- :class:`RecordingOps` keeps a shadow memory and records the event
  stream straight into :class:`~repro.common.events.EventBatch` columns
  — this is how ``MtestWorkload`` produces the machine-runnable streams
  the experiment harness consumes;
- :class:`AtlasOps` executes against a live
  :class:`~repro.atlas.runtime.AtlasRuntime`, making the store genuinely
  durable and crash-recoverable (used by the recovery tests and the
  ``examples/mdb_store.py`` example).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.common.errors import ConfigurationError
from repro.common.events import EventBatch, EventKind
from repro.nvram.memory import NVRAM_BASE

_STORE, _LOAD, _WORK = EventKind.STORE, EventKind.LOAD, EventKind.WORK


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

    def work(self, amount: int) -> None:
        """Computation between memory operations."""
        raise NotImplementedError

    @contextmanager
    def fase(self) -> Iterator[None]:
        """A failure-atomic section (one write transaction)."""
        raise NotImplementedError
        yield  # pragma: no cover


class RecordingOps(PersistenceOps):
    """Shadow-memory backend that records the event stream.

    ``events`` is the :class:`~repro.common.events.EventBatch` being
    filled: an operation appends integers to its columns (a store's
    payload to ``values`` under ``keep_values``, for the crash replay)
    — no per-event object, no second pass — and a page run is a handful
    of column extends.

    Loads are served from the shadow dict (and, optionally, recorded as
    events so the hardware-cache model sees read traffic).  Recording
    loads is configurable because read-heavy phases (MDB traversals)
    otherwise dominate event volume without affecting flush counts:
    one load in ``load_sample``, counted across the recording, is kept.
    """

    def __init__(
        self,
        base: int = NVRAM_BASE,
        record_loads: bool = True,
        load_sample: int = 4,
        keep_values: bool = True,
    ) -> None:
        if load_sample < 1:
            raise ConfigurationError("load_sample must be >= 1")
        self.events = EventBatch(keep_values=keep_values)
        self.shadow: Dict[int, object] = {}
        self._next = base
        self.record_loads = record_loads
        self.load_sample = load_sample
        self._load_counter = 0

    def alloc(self, nbytes: int) -> int:
        if nbytes <= 0:
            raise ConfigurationError("allocation size must be positive")
        # Line-align so pages start on cache-line boundaries.
        addr = (self._next + 63) & ~63
        self._next = addr + nbytes
        return addr

    def store(self, addr: int, value: object, size: int = 8) -> None:
        self.shadow[addr] = value
        events = self.events
        events.kinds.append(_STORE)
        events.args.append(addr)
        events.sizes.append(size)
        if events.values is not None:
            events.values.append(value)

    def load(self, addr: int, size: int = 8) -> object:
        if self.record_loads:
            self._load_counter += 1
            if self._load_counter % self.load_sample == 0:
                self._note(_LOAD, addr, size)
        return self.shadow.get(addr)

    def _note(self, kind: int, arg: int, size: int) -> None:
        """Append one event that carries no payload."""
        events = self.events
        events.kinds.append(kind)
        events.args.append(arg)
        events.sizes.append(size)
        if events.values is not None:
            events.values.append(None)

    def store_run(self, addr: int, values: List[object], size: int) -> None:
        slots = range(addr, addr + len(values) * size, size)
        self.shadow.update(zip(slots, values))
        self.events.extend_accesses(EventKind.STORE, slots, size, values)

    def load_run(self, addr: int, n: int, size: int) -> List[object]:
        slots = range(addr, addr + n * size, size)
        if self.record_loads:
            # Slot i is load number counter + 1 + i; kept if that
            # divides by load_sample, as per-slot ``load`` would.
            first = -(self._load_counter + 1) % self.load_sample
            self._load_counter += len(slots)
            self.events.extend_accesses(
                EventKind.LOAD, slots[first::self.load_sample], size
            )
        return list(map(self.shadow.get, slots))

    def work(self, amount: int) -> None:
        self._note(_WORK, amount, 0)

    @contextmanager
    def fase(self) -> Iterator[None]:
        self._note(EventKind.FASE_BEGIN, 0, 0)
        try:
            yield
        finally:
            self._note(EventKind.FASE_END, 0, 0)


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
