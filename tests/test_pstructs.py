"""Persistent containers: functional behaviour + crash consistency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.atlas import AtlasRuntime, recover
from repro.pstructs import PersistentDict, PersistentQueue, PersistentVector


@pytest.fixture
def rt():
    return AtlasRuntime(technique="SC")


# ---------------------------------------------------------------------------
# vector
# ---------------------------------------------------------------------------


def test_vector_append_get(rt):
    v = PersistentVector(rt)
    for i in range(20):
        v.append(i * 3)
    assert len(v) == 20
    assert v.get(7) == 21
    assert list(v) == [i * 3 for i in range(20)]


def test_vector_growth_preserves_contents(rt):
    v = PersistentVector(rt, initial_capacity=2)
    for i in range(40):              # forces several doublings
        v.append(i)
    assert list(v) == list(range(40))


def test_vector_set_pop_bounds(rt):
    v = PersistentVector(rt)
    v.append("a")
    v.set(0, "b")
    assert v.get(0) == "b"
    assert v.pop() == "b"
    with pytest.raises(IndexError):
        v.pop()
    with pytest.raises(IndexError):
        v.get(0)
    with pytest.raises(IndexError):
        v.set(3, "x")


def test_vector_crash_mid_growth_rolls_back(rt):
    v = PersistentVector(rt, initial_capacity=4)
    v.extend(range(4))
    # Open the growth FASE by hand and crash inside it.
    rt.fase_begin()
    length, cap, data = v._header()
    new_data = rt.alloc(8 * cap * 2)
    for i in range(length):
        rt.store(new_data + 8 * i, value=rt.load(data + 8 * i))
    rt.store(v.header, value=(length, cap * 2, new_data))   # not committed!
    state = rt.crash()
    report = recover(state, rt.layout())
    assert PersistentVector.read_back(report.read, v.header) == [0, 1, 2, 3]


def test_vector_reattach(rt):
    v = PersistentVector(rt)
    v.extend(["x", "y"])
    again = PersistentVector.reattach(rt, v.header)
    assert list(again) == ["x", "y"]


# ---------------------------------------------------------------------------
# dict
# ---------------------------------------------------------------------------


def test_dict_put_get_delete(rt):
    d = PersistentDict(rt)
    d.put("a", 1)
    d.put("b", 2)
    d.put("a", 10)                   # overwrite
    assert d.get("a") == 10
    assert d.get("missing", "dflt") == "dflt"
    assert "b" in d and "c" not in d
    assert d.delete("b")
    assert not d.delete("b")
    assert len(d) == 1


def test_dict_rehash_keeps_entries(rt):
    d = PersistentDict(rt, initial_capacity=4)
    for i in range(40):              # forces several rehashes
        d.put(i, i * i)
    assert len(d) == 40
    assert dict(d.items()) == {i: i * i for i in range(40)}


def test_dict_tombstone_reuse(rt):
    d = PersistentDict(rt, initial_capacity=8)
    d.put(0, "zero")
    d.delete(0)
    d.put(8, "eight")                # may land on the tombstoned slot
    assert d.get(8) == "eight"
    assert d.get(0) is None


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["put", "del"]), st.integers(0, 30)),
        max_size=60,
    )
)
# Deletes leave tombstones the load factor does not count: here the fourth
# put finds no empty slot on its probe sequence, only reusable ones.
@example(
    [("put", 0), ("put", 3), ("del", 0), ("put", 1),
     ("del", 3), ("put", 2), ("del", 1), ("put", 0)]
)
def test_dict_matches_model(ops):
    rt = AtlasRuntime(technique="LA")
    d = PersistentDict(rt, initial_capacity=4)
    model = {}
    for op, key in ops:
        if op == "put":
            d.put(key, key + 1)
            model[key] = key + 1
        else:
            assert d.delete(key) == (key in model)
            model.pop(key, None)
    assert len(d) == len(model)
    assert dict(d.items()) == model
    # And the durable image agrees after a clean crash point.
    state = rt.crash()
    report = recover(state, rt.layout())
    assert PersistentDict.read_back(report.read, d.header) == model


#: Builds a dict of ``str``, ``bytes``, tuple and int keys (through two
#: rehashes) and prints each key's slot address and the run's flushes.
_LAYOUT_SCRIPT = """
from repro.atlas import AtlasRuntime
from repro.pstructs import PersistentDict
rt = AtlasRuntime(technique="SC")
d = PersistentDict(rt)
keys = [f"user-{i}" for i in range(12)] + [b"blob", ("user", 3), ("a", (b"b", 7)), 5, -1]
for i, key in enumerate(keys):
    d.put(key, i)
d.delete("user-4")
_count, capacity, table = d._header()
slots = {repr(rt.load(table + 8 * i)[0]): table + 8 * i for i in range(capacity)
         if rt.load(table + 8 * i) not in (None, "__repro_tombstone__")}
print(sorted(slots.items()), rt.stats.flushes, rt.stats.persistent_stores)
"""


def test_dict_layout_is_the_same_in_every_process():
    """``str`` and ``bytes`` hashes are salted per process; a dict keyed by
    them (or by tuples of them) lays its slots out the same under any
    ``PYTHONHASHSEED``, and so flushes the same lines."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _LAYOUT_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------


def test_queue_fifo_order(rt):
    q = PersistentQueue(rt)
    for i in range(10):
        q.enqueue(i)
    assert len(q) == 10
    assert q.peek() == 0
    assert [q.dequeue() for _ in range(10)] == list(range(10))
    with pytest.raises(IndexError):
        q.dequeue()
    with pytest.raises(IndexError):
        q.peek()


def test_queue_interleaved(rt):
    q = PersistentQueue(rt)
    q.enqueue("a")
    q.enqueue("b")
    assert q.dequeue() == "a"
    q.enqueue("c")
    assert q.dequeue() == "b"
    assert q.dequeue() == "c"


def test_queue_crash_recovers_committed_prefix(rt):
    q = PersistentQueue(rt)
    for i in range(6):
        q.enqueue(i)
    q.dequeue()
    # A torn enqueue: header update never commits.
    rt.fase_begin()
    node = rt.alloc(8)
    rt.store(node, value=("torn", None))
    state = rt.crash()
    report = recover(state, rt.layout())
    assert PersistentQueue.read_back(report.read, q.header) == [1, 2, 3, 4, 5]


def test_containers_share_one_runtime(rt):
    v = PersistentVector(rt)
    d = PersistentDict(rt)
    q = PersistentQueue(rt)
    v.append(1)
    d.put("k", "v")
    q.enqueue("x")
    state = rt.crash()
    report = recover(state, rt.layout())
    assert PersistentVector.read_back(report.read, v.header) == [1]
    assert PersistentDict.read_back(report.read, d.header) == {"k": "v"}
    assert PersistentQueue.read_back(report.read, q.header) == ["x"]
