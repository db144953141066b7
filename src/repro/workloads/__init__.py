"""Workloads: micro-benchmarks, synthetic SPLASH2 generators, helpers.

The paper evaluates 12 applications (§IV-B): four micro-benchmarks from
the Atlas repository, seven SPLASH2 programs, and the MDB key-value
store.  Here:

- :mod:`repro.workloads.parray` — *persistent-array*, reproduced exactly
  from the paper's description (nested loop, 400-int inner array,
  2500 outer iterations, one FASE).
- :mod:`repro.workloads.linkedlist` — singly linked list with
  perfect-shuffle inserts, one insert per FASE.
- :mod:`repro.workloads.msqueue` — Michael & Scott's two-lock blocking
  queue, one operation per FASE.
- :mod:`repro.workloads.hashtable` — a chained hash table with
  occasional rehashing.
- :mod:`repro.workloads.generators` — the calibrated tile/burst/scatter
  trace generator used to stand in for SPLASH2 binaries.
- :mod:`repro.workloads.splash2` — per-benchmark profiles calibrated to
  the paper's published statistics (Table III, §IV-G).
- :mod:`repro.workloads.registry` — name → workload lookup used by the
  experiment harness.

The MDB workload lives in :mod:`repro.mdb`.
"""

from repro.workloads.base import Workload, BumpAllocator, TraceWorkload
from repro.workloads.parray import PersistentArray
from repro.workloads.linkedlist import LinkedListWorkload
from repro.workloads.msqueue import QueueWorkload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.generators import TilePatternConfig, TilePatternWorkload
from repro.workloads.splash2 import SPLASH2_PROFILES, SplashProfile, make_splash2
from repro.workloads.registry import get_workload, WORKLOAD_NAMES

__all__ = [
    "Workload",
    "BumpAllocator",
    "TraceWorkload",
    "PersistentArray",
    "LinkedListWorkload",
    "QueueWorkload",
    "HashTableWorkload",
    "TilePatternConfig",
    "TilePatternWorkload",
    "SPLASH2_PROFILES",
    "SplashProfile",
    "make_splash2",
    "get_workload",
    "WORKLOAD_NAMES",
]
