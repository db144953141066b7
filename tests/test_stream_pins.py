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
``absorbed_stores`` is not).  The step emitters (``queue``,
``linked-list``, ``hash``) are pinned the same way, with their decoded
events and, where threads share an allocator, the events each thread
consumed under three techniques.

The event digests (``MICRO``'s third entries, ``SHARED_ALLOCATOR``,
``MDB_EVENTS``) were re-pinned at 1de62df when store payloads left every
encoding: that commit's events with every ``Store.value`` set to
``None``.
"""

from collections import Counter
from hashlib import sha1

import pytest

from repro.cache.spec import technique_factory
from repro.common.events import EventBatch, EventKind, events_from_steps
from repro.mdb.mtest import MtestWorkload
from repro.nvram.machine import Machine, MachineConfig
from repro.workloads.base import BatchCachingWorkload, Workload
from repro.workloads.generators import _Dither
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
#: (program, scale, threads) -> (digest, sha1 of the ``repr`` of the
#: per-thread batch lengths), pinned at 135e5f4, before the stand-ins
#: drew one FASE plan for all threads: how threads split each FASE at 2
#: and 32 threads, and the scale-1.0 traces ``locality_offline`` reads.
STANDINS_WIDE = {
    ("barnes", 0.1, 2): (
        "1a6b2b880db9174c7e47fe8f47518c1cf4b768dd",
        "2d05afa8685ef5ec45f4623e96237b9ecfefcdfc",
    ),
    ("barnes", 0.1, 32): (
        "2e8f7167fa23f575b237ad3af51ccf48931a0246",
        "20768f2dac55c1bac4c37dab65ee9b035ce23a18",
    ),
    ("fmm", 0.1, 2): (
        "f247d81d91be23b63d7b8fbe3f45a6a2bc8b3cb8",
        "54229f81d8f45d2ad1dc574eb7135dbdbae8e74d",
    ),
    ("fmm", 0.1, 32): (
        "d8abb089a6129bbd4f2a67fe67b80dee6a54e79d",
        "730c1312e9cca5f5ef856dbfd2b1076800d50965",
    ),
    ("ocean", 0.1, 2): (
        "19bd3fbcb378faccf3697bb090d66e7a42d3ff42",
        "1410ad32c3af4d4f78cb36ce580d5ff10e55297a",
    ),
    ("ocean", 0.1, 32): (
        "624c7922b4fb8da90bb20d477d26edc098513521",
        "fa875a48f21d8f9ddb92b325d381c810f5bd9f07",
    ),
    ("raytrace", 0.1, 2): (
        "9f54a8f59ba3d6c74cdc8110ac1a9258e879e6ea",
        "b8af8b30636ee1ec61a8b2468fda004a9fe4e1f4",
    ),
    ("raytrace", 0.1, 32): (
        "163fe339dae468e2faa0b891a2e138989c55efc1",
        "94ddbe29bdf2f72f1665887775a8f4054a0122e4",
    ),
    ("volrend", 0.1, 2): (
        "74d220eac28bf8e71ae698946b9768841bf70cbc",
        "0901c4a90a03997868096504c8cde54cefa16fd8",
    ),
    ("volrend", 0.1, 32): (
        "0cba7ff2004ccba9adde3aaa6313a51a55350b4b",
        "17a1b928bd56f7c1aeae8c3f9f61e99e4884bfd2",
    ),
    ("water-nsquared", 0.1, 2): (
        "d1644d31de71869d4db6f11d8a60c5e24837020c",
        "07918d486deecee10ad238753c9ceb8fb6e1ffcf",
    ),
    ("water-nsquared", 0.1, 32): (
        "4f402896d1a710b4c375e4286e18c53ec617771b",
        "f0e1081301b49d98c8d353aad4cd984c308190d9",
    ),
    ("water-spatial", 0.1, 2): (
        "519b9eabf7748aed5a69fa1e687f972a603f8600",
        "0f0c2235277236544f00c2d34edb7f5977576616",
    ),
    ("water-spatial", 0.1, 32): (
        "da6e36b1f7ce1b9cb693bdf1db50f98d8ed79da5",
        "66b4d53d22e606992fc3b4504e532dc6ccb922df",
    ),
    ("barnes", 1.0, 1): (
        "f1f3a3ef1581a98dee83fab2479214ef603c97f8",
        "bfcc33447d6b0df871dc1d13e5318e3a8e31bde9",
    ),
    ("ocean", 1.0, 1): (
        "1edda74f25516d0294c6a1290c3764ee79870185",
        "81ec0fcdb60d9a5962d67867581ae6f0b21c7878",
    ),
    ("water-spatial", 1.0, 1): (
        "939b23c881b7979b98152b088f81ccfb140d2186",
        "5c152a853d7be2b497d26b92974865ab1059a19a",
    ),
}
#: (threads, seed) -> digest at scale 0.03.
MDB = {
    (1, 11): "e8bceb94ed0ecdc66857733a9b383e6b47e71eb7",
    (1, 7): "5523bf0b322447ae2ffff61284725445e8a9f464",
    (4, 11): "e37f0cf9315ce20bcff6046d31199a986e5f78a5",
    (4, 7): "78b0d210f7272cbe035a2fdd632ac8e12381a626",
}
#: (threads, seed) -> ``event_digest`` of ``streams()`` at scale 0.03
#: (what a crash replay executes), pinned at 135e5f4.
MDB_EVENTS = {
    (1, 7): "9744b189166f0e98053afd84008ca197eaa1f70f",
    (1, 11): "d3b831a68dcf5cee0d46b6ed2d72667e8d9b7990",
    (4, 7): "9701362fad12d0b7b56998c81e434646732cd01e",
    (4, 11): "d45e19b02ad471068c8ed9cf9aefc59220de5859",
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


#: (program, scale, seed) -> (column digest, batch lengths, ``streams()``
#: digest) at one thread, taken from the per-event generators (recorded
#: through ``batches_from_events``) before the step emitters replaced
#: them.  ``queue`` and ``linked-list`` draw nothing from the seed.
MICRO = {
    ("queue", 0.02, 7): (
        "9b895bff8362ee087791b7a339ac2fb5fbaf9db8",
        [4096] * 5 + [3525],
        "46efa8b731a1c68bfbf60fa5096698d0ad9b434b",
    ),
    ("queue", 0.02, 11): (
        "9b895bff8362ee087791b7a339ac2fb5fbaf9db8",
        [4096] * 5 + [3525],
        "46efa8b731a1c68bfbf60fa5096698d0ad9b434b",
    ),
    ("queue", 0.1, 7): (
        "12cb9ff10b919a3746e13246317cc1575b334c82",
        [4096] * 29 + [1221],
        "167ee82dce4565bf3475373eab11330223148bdf",
    ),
    ("queue", 0.1, 11): (
        "12cb9ff10b919a3746e13246317cc1575b334c82",
        [4096] * 29 + [1221],
        "167ee82dce4565bf3475373eab11330223148bdf",
    ),
    ("linked-list", 0.02, 7): (
        "b60d606d5e8695185e33c73c46df5bced6402ca8",
        [1798],
        "e1dec94e6b954f5577b00df734f4b17b82e66b8a",
    ),
    ("linked-list", 0.02, 11): (
        "b60d606d5e8695185e33c73c46df5bced6402ca8",
        [1798],
        "e1dec94e6b954f5577b00df734f4b17b82e66b8a",
    ),
    ("linked-list", 0.1, 7): (
        "b3dd5b3588480d2e3358c3005b1af929f135b0f4",
        [4096, 4096, 806],
        "7083528ef9e42e9e67d9ea2732faeb11e3a29f7c",
    ),
    ("linked-list", 0.1, 11): (
        "b3dd5b3588480d2e3358c3005b1af929f135b0f4",
        [4096, 4096, 806],
        "7083528ef9e42e9e67d9ea2732faeb11e3a29f7c",
    ),
    ("hash", 0.02, 7): (
        "1ebe4150158a2aa291e99e185c607d7d75935d00",
        [1275],
        "b31c258491214465d0250a73a54fdb15cc5eb1e8",
    ),
    ("hash", 0.02, 11): (
        "37a3909173bde56f5c4ae2576cf5aaf3e1784fed",
        [1275],
        "5816da5b7f9b91a00ab817f0fdd79348189624d2",
    ),
    ("hash", 0.1, 7): (
        "79bf3fd8b8bb80c202f50371f1f34e5458ae4c81",
        [4096, 2497],
        "e772714135adcf4b342c57a98c5757792dfb7969",
    ),
    ("hash", 0.1, 11): (
        "4695c0cb2c5b36a7fc40f49b6ffb90b656c2064c",
        [4096, 2497],
        "ce89f4c9bcd9747256e6d6612d7a1e246fe985f1",
    ),
}
#: (program, technique) -> digest of the events each of four threads
#: consumed at scale 0.05, seed 7 (``event_digest``), from the per-event
#: generators.  The shared allocator makes them depend on the technique's
#: timing (DESIGN.md §8, *The schedule-independence rule*).
SHARED_ALLOCATOR = {
    ("queue", "AT"): "24adc3eded67495814cb5690aff3a87991d0a61b",
    ("queue", "SC"): "93c5b665de5c06339b2bcd7154bb304988fd4b37",
    ("queue", "ER"): "194b8a96b853950b6d64b23e9246fc9b3e558bc1",
    ("linked-list", "AT"): "4a765fc8d7b7337e96f1285750479ba0283611ce",
    ("linked-list", "SC"): "add36e5d2d8145c737205ee94dd607d84799e21a",
    ("linked-list", "ER"): "add36e5d2d8145c737205ee94dd607d84799e21a",
}


def digest(per_thread):
    h = sha1()
    for batches in per_thread:
        for column in ("kinds", "args", "sizes"):
            for batch in batches:
                h.update(getattr(batch, column).tobytes())
    return h.hexdigest()


def event_digest(per_thread):
    """sha1 over each thread's events as ``repr`` lines."""
    h = sha1()
    for events in per_thread:
        h.update("\n".join(map(repr, events)).encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name,scale,seed", sorted(MICRO))
def test_step_emitters_record_the_generators_columns(name, scale, seed):
    want_digest, want_boundaries, want_events = MICRO[(name, scale, seed)]
    workload = get_workload(name, scale=scale)
    for source in (workload, BatchCachingWorkload(workload)):
        per_thread = [list(s) for s in source.batch_streams(1, seed)]
        assert [[len(b) for b in batches] for batches in per_thread] == [want_boundaries]
        assert digest(per_thread) == want_digest
    assert event_digest([list(s) for s in workload.streams(1, seed)]) == want_events


class StepTap(Workload):
    """Record the steps each thread's program handed the machine."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.taken = []

    def supports_threads(self, num_threads):
        return self._inner.supports_threads(num_threads)

    def steps(self, num_threads, seed):
        self.taken = [[] for _ in range(num_threads)]
        return [
            self._tap(steps, log)
            for steps, log in zip(self._inner.steps(num_threads, seed), self.taken)
        ]

    @staticmethod
    def _tap(steps, log):
        for step in steps:
            log.append(step)
            yield step


@pytest.mark.parametrize("name,technique", sorted(SHARED_ALLOCATOR))
def test_live_steps_hand_out_the_generators_events(name, technique):
    tap = StepTap(get_workload(name, scale=0.05))
    assert tap.batch_streams(4, 7) is None
    Machine(MachineConfig()).run(tap, technique_factory(technique), num_threads=4, seed=7)
    consumed = [list(events_from_steps(steps)) for steps in tap.taken]
    assert event_digest(consumed) == SHARED_ALLOCATOR[(name, technique)]


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name,threads", sorted(STANDINS))
def test_standin_columns_and_batch_boundaries_are_pinned(name, threads, seed):
    streams = get_workload(name, scale=0.1).batch_streams(threads, seed)
    per_thread = [list(stream) for stream in streams]
    want_digest, want_boundaries = STANDINS[(name, threads)]
    assert [[len(b) for b in batches] for batches in per_thread] == want_boundaries
    assert digest(per_thread) == want_digest


@pytest.mark.parametrize("name,scale,threads", sorted(STANDINS_WIDE))
def test_standin_thread_splits_and_full_scale_traces_are_pinned(name, scale, threads):
    per_thread = [list(s) for s in get_workload(name, scale=scale).batch_streams(threads, 7)]
    lengths = [[len(b) for b in batches] for batches in per_thread]
    assert (digest(per_thread), sha1(repr(lengths).encode()).hexdigest()) == (
        STANDINS_WIDE[(name, scale, threads)]
    )


def test_standins_draw_one_fase_plan_and_no_dither_call_per_line(monkeypatch):
    """The pass and wide dithers are drawn once per ``batch_streams`` call
    and shared by every thread; bursts are drawn inline, not by call."""
    calls = Counter()
    next_count = _Dither.next_count

    def counting(self):
        calls[threads] += 1
        return next_count(self)

    monkeypatch.setattr(_Dither, "next_count", counting)
    for threads in (1, 32):
        per_thread = [list(s) for s in get_workload("ocean", scale=1.0).batch_streams(threads, 7)]
    line_visits = sum(
        b.kinds.count(EventKind.WORK) for batches in per_thread for b in batches
    )
    assert calls[32] == calls[1] < line_visits // 10


@pytest.mark.parametrize("threads,seed", sorted(MDB))
def test_mdb_columns_are_pinned(threads, seed):
    workload = get_workload("mdb", scale=0.03)
    per_thread = [list(s) for s in workload.batch_streams(threads, seed)]
    assert digest(per_thread) == MDB[(threads, seed)]
    # ``streams`` decodes the same recording.
    decoded = [list(s) for s in workload.streams(threads, seed)]
    assert [len(s) for s in decoded] == [
        sum(len(b) for b in batches) for batches in per_thread
    ]
    assert event_digest(decoded) == MDB_EVENTS[(threads, seed)]


def test_mdb_batch_streams_record_no_payloads(monkeypatch):
    """A batch has no payload column, and ``streams()`` is the decoding
    of the one recording ``batch_streams`` makes: the store runs once
    per call, whichever encoding is asked for."""
    assert "values" not in EventBatch.__slots__
    records = []
    record = MtestWorkload._record

    def counting(self, num_threads, seed):
        records.append((num_threads, seed))
        return record(self, num_threads, seed)

    monkeypatch.setattr(MtestWorkload, "_record", counting)
    workload = get_workload("mdb", scale=0.03)
    for batches in workload.batch_streams(4, 7):
        list(batches)
    assert records == [(4, 7)]
    for events in workload.streams(4, 7):
        list(events)
    assert records == [(4, 7)] * 2


@pytest.mark.parametrize("kwargs", sorted(PARRAY))
def test_persistent_array_columns_and_batch_boundaries_are_pinned(kwargs):
    workload = PersistentArray(**dict(kwargs))
    (batches,) = [list(s) for s in workload.batch_streams(1, 7)]
    want_digest, want_boundaries = PARRAY[kwargs]
    assert [len(b) for b in batches] == want_boundaries
    assert digest([batches]) == want_digest
    # ``streams`` decodes the same columns, the completion flag among
    # them; no store carries a payload.
    (events,) = [list(s) for s in workload.streams(1, 7)]
    assert len(events) == sum(want_boundaries)
    stores = [ev for ev in events if ev.kind == EventKind.STORE]
    assert len(stores) == workload.total_stores
    assert all(ev.value is None for ev in stores)
