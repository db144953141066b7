"""linked-list, queue and hash micro-benchmarks (Table III rows 1-4)."""

import pytest

from repro.cache.spec import technique_factory
from repro.nvram.machine import Machine, MachineConfig
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.linkedlist import LinkedListWorkload, perfect_shuffle_order
from repro.workloads.msqueue import QueueWorkload


def run(workload, technique, threads=1, **kw):
    machine = Machine(MachineConfig())
    return machine.run(workload, technique_factory(technique, **kw), num_threads=threads, seed=3)


# ---------------------------------------------------------------------------
# linked-list
# ---------------------------------------------------------------------------


def test_perfect_shuffle_is_a_permutation():
    order = perfect_shuffle_order(1000)
    assert sorted(order) == list(range(1000))


def test_perfect_shuffle_scatters_neighbours():
    order = perfect_shuffle_order(256)
    # Consecutive inserts land far apart in key space (bit reversal).
    gaps = [abs(a - b) for a, b in zip(order, order[1:])]
    assert sum(gaps) / len(gaps) > 64


def test_linked_list_store_count():
    w = LinkedListWorkload(elements=500)
    res = run(w, "BEST")
    assert res.persistent_stores == w.total_stores == 5 * 500 - 1
    assert res.fase_count == 500


def test_linked_list_all_techniques_equal():
    """Table III: LA = AT = SC = 0.6 — one insert per FASE leaves no
    combinable reuse beyond the node's own line."""
    w = LinkedListWorkload(elements=400)
    ratios = {
        t: run(w, t, **({"sc_fixed_size": 8} if t == "SC-offline" else {})).flush_ratio
        for t in ("LA", "AT", "SC-offline")
    }
    assert ratios["LA"] == pytest.approx(0.6, abs=0.01)
    assert ratios["AT"] == pytest.approx(ratios["LA"], rel=0.02)
    assert ratios["SC-offline"] == pytest.approx(ratios["LA"], rel=0.02)


def test_linked_list_threads_shard_cleanly():
    w = LinkedListWorkload(elements=300)
    res = run(w, "LA", threads=3)
    assert res.num_threads == 3
    assert res.persistent_stores == 5 * 300 - 3   # one count-less insert each
    assert all(t.persistent_stores > 0 for t in res.threads)


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------


def test_queue_fase_per_operation():
    w = QueueWorkload(operations=200)
    res = run(w, "BEST")
    # setup FASE + enqueue FASE + dequeue FASE per pair.
    assert res.fase_count == 1 + 2 * 200
    assert res.persistent_stores == 3 + 5 * 200


def test_queue_all_techniques_equal():
    """Table III: LA = AT = SC (0.625 in the paper; node packing gives
    ~0.65 here)."""
    w = QueueWorkload(operations=2000)
    la = run(w, "LA").flush_ratio
    at = run(w, "AT").flush_ratio
    sc = run(w, "SC-offline", sc_fixed_size=4).flush_ratio
    assert la == pytest.approx(0.65, abs=0.03)
    assert at == pytest.approx(la, rel=0.02)
    assert sc == pytest.approx(la, rel=0.02)


def test_queue_multithreaded_splits_work():
    w = QueueWorkload(operations=300)
    res = run(w, "LA", threads=4)
    assert res.persistent_stores == sum(t.persistent_stores for t in res.threads)
    assert all(t.persistent_stores > 0 for t in res.threads)


# ---------------------------------------------------------------------------
# hash
# ---------------------------------------------------------------------------


def test_hash_fase_count():
    w = HashTableWorkload(elements=400)
    res = run(w, "BEST")
    # inserts + updates + deletes (+ rehash FASEs).
    assert res.fase_count >= w.total_fases
    assert res.fase_count <= w.total_fases + 16


def test_hash_ordering_la_sc_at():
    """Table III: LA < SC <= AT for the hash table."""
    w = HashTableWorkload(elements=1500)
    la = run(w, "LA").flush_ratio
    at = run(w, "AT").flush_ratio
    sc = run(w, "SC-offline", sc_fixed_size=4).flush_ratio
    assert la < sc <= at * 1.01
    assert at > la * 1.05   # bucket-array conflicts hurt the table


def test_hash_single_threaded_only():
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        HashTableWorkload(100).streams(2, 0)


def test_hash_rehash_emits_big_fases():
    w = HashTableWorkload(elements=600)   # crosses several load factors
    res = run(w, "LA")
    biggest_drain = max(t.fase_end_flushes for t in res.threads)
    assert biggest_drain > 0


def test_two_hash_streams_of_one_instance_share_nothing():
    """The bucket array belongs to a stream: consumed interleaved, two
    streams of one instance are each what it is alone."""
    w = HashTableWorkload(200)
    alone = [[repr(ev) for ev in w.streams(1, seed)[0]] for seed in (7, 11)]
    a, b = w.streams(1, 7)[0], w.streams(1, 11)[0]
    interleaved = [[], []]
    for pair in zip(a, b):
        for log, ev in zip(interleaved, pair):
            log.append(repr(ev))
    interleaved[0] += map(repr, a)
    interleaved[1] += map(repr, b)
    assert interleaved == alone


# ---------------------------------------------------------------------------
# hostile sizes and thread counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build,shown",
    [
        (lambda: QueueWorkload(2.5), "2.5"),
        (lambda: QueueWorkload(-4), "-4"),
        (lambda: QueueWorkload(10).streams(0, 0), "0"),
        (lambda: QueueWorkload(10).streams(-1, 0), "-1"),
        (lambda: LinkedListWorkload(-3), "-3"),
        (lambda: LinkedListWorkload(2.5), "2.5"),
        (lambda: LinkedListWorkload(10).streams(0, 0), "0"),
        (lambda: HashTableWorkload(10, updates=-2), "-2"),
    ],
    ids=[
        "queue-float", "queue-negative", "queue-zero-threads",
        "queue-negative-threads", "list-negative", "list-float",
        "list-zero-threads", "hash-negative-updates",
    ],
)
def test_hostile_sizes_and_thread_counts_are_typed_errors(build, shown):
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match=f"got {shown}$"):
        build()
