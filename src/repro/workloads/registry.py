"""Name → workload lookup used by the harness and the CLI."""

from __future__ import annotations


from repro.common.errors import ConfigurationError, require_positive
from repro.workloads.base import Workload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.linkedlist import LinkedListWorkload
from repro.workloads.msqueue import QueueWorkload
from repro.workloads.parray import PersistentArray
from repro.workloads.splash2 import SPLASH2_PROFILES, make_splash2

#: The paper's 12 applications, in Table III order.
WORKLOAD_NAMES = (
    "linked-list",
    "persistent-array",
    "queue",
    "hash",
    "barnes",
    "fmm",
    "ocean",
    "raytrace",
    "volrend",
    "water-nsquared",
    "water-spatial",
    "mdb",
)


def get_workload(name: str, scale: float = 1.0) -> Workload:
    """Build a workload by its Table III name.

    ``scale`` shrinks (or grows) the default problem size; tests use small
    scales, EXPERIMENTS.md uses 1.0.
    """
    require_positive("scale", scale)
    if name == "persistent-array":
        outer = max(4, round(2500 * scale))
        return PersistentArray(outer=outer)
    if name == "linked-list":
        return LinkedListWorkload(elements=max(16, round(10_000 * scale)))
    if name == "queue":
        return QueueWorkload(operations=max(16, round(100_000 * scale)))
    if name == "hash":
        return HashTableWorkload(elements=max(64, round(4_000 * scale)))
    if name in SPLASH2_PROFILES:
        budget = max(2_000, round(220_000 * scale))
        return make_splash2(name, store_budget=budget)
    if name == "mdb":
        from repro.mdb.mtest import MtestWorkload

        pairs = max(64, round(20_000 * scale))
        # Hold the B+-tree depth roughly constant across scales (larger
        # trees get larger pages, as LMDB's 4K pages imply at full
        # problem sizes) so the write-locality structure - and with it
        # the MRC knee - is scale-invariant.
        page_size = 1024 if pairs > 8_000 else 512
        return MtestWorkload(pairs=pairs, page_size=page_size)
    raise ConfigurationError(
        f"unknown workload {name!r}; known: {WORKLOAD_NAMES}"
    )
