"""Atlas-style FASE runtime on the simulated NVRAM machine.

Atlas [Chakrabarti, Boehm & Bhandari, OOPSLA'14] is the system the paper
builds its software cache into: lock-delimited *failure-atomic sections*
(FASEs), undo logging for atomicity, and cache-line write-back for
durability.  This package reproduces that runtime on the simulator:

- :mod:`repro.atlas.region` — named persistent regions with a root
  pointer and an allocator (durable data placement).
- :mod:`repro.atlas.log` — the undo log: old values are logged (and the
  log entry made durable) before the first in-FASE modification of a
  location; a commit record seals the FASE after its data is flushed.
- :mod:`repro.atlas.fase` — :class:`FaseLock`, the lock-based entry
  point Atlas instruments.
- :mod:`repro.atlas.runtime` — :class:`AtlasRuntime`, the user-facing
  object tying a machine session, a technique, the log and regions
  together; its ``fase_begin``/``fase_end`` is the one FASE bracket.
- :mod:`repro.atlas.recovery` — post-crash recovery: roll back
  uncommitted FASEs from the undo log and hand back a consistent heap.

This is where the *correctness* side of the paper lives: the flush
techniques exist so that, at any crash point, the log + flushed data
suffice to reconstruct a consistent state.  The test suite crashes the
machine at arbitrary store counts and asserts recovery round-trips.
"""

from repro.atlas.region import PersistentRegion, RegionManager
from repro.atlas.log import UndoLog, LogRecord
from repro.atlas.fase import FaseLock
from repro.atlas.runtime import AtlasRuntime
from repro.atlas.recovery import recover, RecoveryReport

__all__ = [
    "PersistentRegion",
    "RegionManager",
    "UndoLog",
    "LogRecord",
    "FaseLock",
    "AtlasRuntime",
    "recover",
    "RecoveryReport",
]
