"""Simulated NVRAM machine — the substrate replacing the paper's emulator.

The paper evaluates on a 60-core Xeon where tmpfs-backed DRAM emulates
NVRAM; flush counts come from software accounting and L1 miss ratios from
perf counters.  We replace that testbed with a deterministic simulator
that measures the same architectural quantities directly:

- :mod:`repro.nvram.memory` — the physical address space: a DRAM region
  and an NVRAM region (the persistence domain), with value tracking for
  crash/recovery testing.
- :mod:`repro.nvram.hwcache` — a set-associative write-back hardware
  cache with ``clflush`` (write back + invalidate, what Atlas uses) and
  hit/miss/write-back counters.
- :mod:`repro.nvram.flushqueue` — the asynchronous flush engine: a
  bounded queue over a serialised memory channel.  Flushes issued during
  computation overlap with it; a drain (end of FASE) stalls the CPU until
  the queue empties.  This is where eager flushing hides latency and lazy
  flushing pays the stall the paper describes.
- :mod:`repro.nvram.timing` — the cycle-accounting cost model.
- :mod:`repro.nvram.machine` — executes per-thread event streams against
  the cache, the flush queue and a persistence technique.
- :mod:`repro.nvram.failure` — crash injection: at a crash, dirty lines
  still in the hardware cache are lost; only written-back values survive
  in NVRAM.
"""

from repro.nvram.timing import TimingModel
from repro.nvram.memory import MainMemory, NVRAM_BASE
from repro.nvram.hwcache import HardwareCache
from repro.nvram.flushqueue import FlushQueue
from repro.nvram.machine import Machine, MachineConfig, FlushPort
from repro.nvram.stats import ThreadStats, RunResult
from repro.nvram.failure import CrashedState

__all__ = [
    "TimingModel",
    "MainMemory",
    "NVRAM_BASE",
    "HardwareCache",
    "FlushQueue",
    "Machine",
    "MachineConfig",
    "FlushPort",
    "ThreadStats",
    "RunResult",
    "CrashedState",
]
