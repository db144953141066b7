"""Recorded programs are what they were: column digests pinned at f326c17.

Every golden, flush ratio and ``ProfileSummary`` downstream is a function
of these columns, so an emitter may change how it fills them — bulk page
runs in ``mdb``, numpy-laid line groups in the SPLASH2 stand-ins — but
not what they hold.  The digests below were taken from the per-event
emitters (``RecordingOps`` → ``Store`` objects → ``batches_from_events``;
``TilePatternWorkload.sweep`` → ``append_store``) before they were
replaced: sha1 over each thread's ``kinds``, ``args`` and ``sizes``
columns, batches concatenated, so they do not depend on where a stream
is cut.  The stand-ins' batch boundaries are pinned beside them (line
runs end at a batch edge; the machine is exact either way, but
``absorbed_stores`` is not).
"""

from hashlib import sha1

import pytest

from repro.common.events import EventKind
from repro.workloads.parray import PersistentArray
from repro.workloads.registry import get_workload

#: (program, threads) -> (digest, [len(batch) per batch] per thread) at
#: scale 0.1.  The pattern is dithered, not drawn: the seed is not in it.
STANDINS = {
    ("barnes", 1): (
        "1b9c766c461a9408e096329aa58b34bb7e11bebb",
        [[24001]],
    ),
    ("barnes", 8): (
        "fd8ee09690db047df1645b6543aee7f558798d84",
        [[2771], [2969], [2771], [2969], [2969], [2771], [2969], [3826]],
    ),
    ("fmm", 1): (
        "f4c62f70af1da8884fbcf4569f8a52aa125378cf",
        [[21148]],
    ),
    ("fmm", 8): (
        "96eec04365eb9adcd95344dbb4449e2094145298",
        [[2419], [2419], [2419], [2419], [2419], [2419], [2419], [4231]],
    ),
    ("ocean", 1): (
        "1371e723bc05d68f0e154c1c78eba7ccb8bac4a7",
        [[4921, 4408, 4921, 4921, 4408, 4914, 2460]],
    ),
    ("ocean", 8): (
        "16b4ff515eb5288bedaf8cf52b89135edd62fdfe",
        [[2289], [2380], [2380], [2380], [2373], [2380], [2380], [4287, 4800, 4287, 1200]],
    ),
    ("raytrace", 1): (
        "256bcb838baed1feb737ba8925ac8a02a589cc42",
        [[5936, 4822, 5936, 5870, 2844]],
    ),
    ("raytrace", 8): (
        "2b827bb241809eff41a2132439d1a927eaa3d866",
        [[1592], [1592], [1592], [2311], [1592], [1592], [1592], [4859, 4993, 3861]],
    ),
    ("volrend", 1): (
        "15ea86fb0dc52c29bf941bee4eb085b09d79afe3",
        [[5632, 5633, 5729, 5632]],
    ),
    ("volrend", 8): (
        "e9583205de9f03cffd1c3b8971a55788188b4253",
        [[2726], [2726], [2823], [3017], [2726], [2823], [2726], [3114]],
    ),
    ("water-nsquared", 1): (
        "6d7c9278ee8c78b08b1b35310c08241a73b76990",
        [[23383]],
    ),
    ("water-nsquared", 8): (
        "a6e35b17055c83d1b28e9cc26aa6544c2c942800",
        [[2214], [2767], [2767], [2767], [2767], [2767], [2767], [4583]],
    ),
    ("water-spatial", 1): (
        "ff55fc10d6f266b2ff3e1607bd2ce232ad9633e9",
        [[23436]],
    ),
    ("water-spatial", 8): (
        "3daabeb138ae719e528a50b0809606bdf97b3028",
        [[2770], [2770], [3115], [2770], [2770], [3115], [2770], [3371]],
    ),
}
#: (threads, seed) -> digest at scale 0.03.
MDB = {
    (1, 11): "e8bceb94ed0ecdc66857733a9b383e6b47e71eb7",
    (1, 7): "5523bf0b322447ae2ffff61284725445e8a9f464",
    (4, 11): "e37f0cf9315ce20bcff6046d31199a986e5f78a5",
    (4, 7): "78b0d210f7272cbe035a2fdd632ac8e12381a626",
}
#: ``PersistentArray`` kwargs -> (digest, batch lengths), one thread,
#: taken from the per-event generator through ``batches_from_events``
#: (ISSUE 24) before the native emitter replaced it.
PARRAY = {
    (("outer", 125),): (             # get_workload(scale=0.05)
        "3527cf9f3ed1f41c34bf7c8cfd3ad1088eadc3d6",
        [4096] * 24 + [1699],
    ),
    (("outer", 50),): (              # get_workload(scale=0.02)
        "5dd13974f607bc683fe6e867adee965d443dc9dc",
        [4096] * 9 + [3139],
    ),
    (("aligned", True), ("outer", 3), ("work_per_store", 0)): (
        "cb0ec3cc8ac662b6852b6545dba02cc8da530332",
        [1203],
    ),
    (("inner", 7), ("outer", 5)): (
        "5f59924d91d25df912b4ada4327e0ae13d06f308",
        [73],
    ),
}


def digest(per_thread):
    h = sha1()
    for batches in per_thread:
        for column in ("kinds", "args", "sizes"):
            for batch in batches:
                h.update(getattr(batch, column).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name,threads", sorted(STANDINS))
def test_standin_columns_and_batch_boundaries_are_pinned(name, threads, seed):
    streams = get_workload(name, scale=0.1).batch_streams(threads, seed)
    per_thread = [list(stream) for stream in streams]
    want_digest, want_boundaries = STANDINS[(name, threads)]
    assert [[len(b) for b in batches] for batches in per_thread] == want_boundaries
    assert digest(per_thread) == want_digest


@pytest.mark.parametrize("threads,seed", sorted(MDB))
def test_mdb_columns_are_pinned(threads, seed):
    workload = get_workload("mdb", scale=0.03)
    per_thread = [list(s) for s in workload.batch_streams(threads, seed)]
    assert digest(per_thread) == MDB[(threads, seed)]
    assert all(b.values is None for batches in per_thread for b in batches)
    # ``streams`` decodes the same recording, payloads included.
    decoded = workload.streams(threads, seed)
    assert [sum(1 for _ in s) for s in decoded] == [
        sum(len(b) for b in batches) for batches in per_thread
    ]


@pytest.mark.parametrize("kwargs", sorted(PARRAY))
def test_persistent_array_columns_and_batch_boundaries_are_pinned(kwargs):
    workload = PersistentArray(**dict(kwargs))
    (batches,) = [list(s) for s in workload.batch_streams(1, 7)]
    want_digest, want_boundaries = PARRAY[kwargs]
    assert [len(b) for b in batches] == want_boundaries
    assert digest([batches]) == want_digest
    # ``streams`` decodes the same columns; the completion flag, the
    # program's one payload, comes through for the crash replay.
    (events,) = [list(s) for s in workload.streams(1, 7)]
    assert len(events) == sum(want_boundaries)
    stores = [ev for ev in events if ev.kind == EventKind.STORE]
    assert len(stores) == workload.total_stores
    assert [ev.value for ev in stores[-2:]] == [None, 1]
