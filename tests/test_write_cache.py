"""The resizable write-combining software cache (§II-B)."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.write_cache import WriteCombiningCache
from repro.common.errors import ConfigurationError


def test_hit_combines_write():
    c = WriteCombiningCache(2)
    assert c.access(1) is None    # miss, inserted
    assert c.access(1) is None    # hit: combined
    assert c.hits == 1 and c.misses == 1


def test_eviction_at_capacity():
    """Fig. 1's scenario: full cache, new line evicts the LRU line."""
    c = WriteCombiningCache(2)
    c.access(0x100)
    c.access(0x400)
    evicted = c.access(0x600)
    assert evicted == 0x100
    assert 0x400 in c and 0x600 in c and 0x100 not in c


def test_lru_order_respects_recency():
    c = WriteCombiningCache(2)
    c.access(1)
    c.access(2)
    c.access(1)               # 1 becomes MRU
    assert c.access(3) == 2   # 2 was LRU


def test_drain_empties_and_returns_all():
    c = WriteCombiningCache(4)
    for line in (1, 2, 3):
        c.access(line)
    assert c.drain() == [1, 2, 3]
    assert len(c) == 0
    assert c.drains == 1


def test_drain_of_empty_cache_is_not_counted():
    """Back-to-back FASEs with no stores must not inflate ``drains``."""
    c = WriteCombiningCache(4)
    assert c.drain() == []
    assert c.drains == 0
    c.access(1)
    assert c.drain() == [1]
    assert c.drain() == []    # already empty again
    assert c.drains == 1


def test_resize_shrink_evicts_lru_first():
    c = WriteCombiningCache(4)
    for line in (1, 2, 3, 4):
        c.access(line)
    evicted = c.resize(2)
    assert evicted == [1, 2]
    assert c.capacity == 2
    assert len(c) == 2


def test_resize_grow_keeps_contents():
    c = WriteCombiningCache(2)
    c.access(1)
    c.access(2)
    assert c.resize(5) == []
    assert c.access(3) is None
    assert len(c) == 3


def test_validation():
    with pytest.raises(ConfigurationError):
        WriteCombiningCache(0)
    c = WriteCombiningCache(2)
    with pytest.raises(ConfigurationError):
        c.resize(0)
    with pytest.raises(ConfigurationError, match="capacity must be an int"):
        c.resize(2.0)


def test_hit_ratio():
    c = WriteCombiningCache(8)
    for _ in range(3):
        c.access(1)
    assert c.hit_ratio == pytest.approx(2 / 3)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=120),
    st.integers(min_value=1, max_value=6),
)
def test_matches_ordereddict_model(lines, capacity):
    """The cache behaves exactly like a size-bounded OrderedDict LRU."""
    c = WriteCombiningCache(capacity)
    model: OrderedDict[int, None] = OrderedDict()
    for line in lines:
        expected_evict = None
        if line in model:
            model.move_to_end(line)
        else:
            model[line] = None
            if len(model) > capacity:
                expected_evict, _ = model.popitem(last=False)
        assert c.access(line) == expected_evict
        assert len(c) == len(model)
    assert c.drain() == list(model)


def test_never_exceeds_capacity():
    c = WriteCombiningCache(3)
    for line in range(100):
        c.access(line)
        assert len(c) <= 3


def test_snapshot_counters_and_invariants():
    c = WriteCombiningCache(2)
    for line in (1, 2, 1, 3):          # 1 hit, 3 misses, 1 capacity evict
        c.access(line)
    c.resize(1)                        # 1 resize evict
    snap = c.snapshot()
    assert snap == {
        "capacity": 1,
        "used": 1,
        "accesses": 4,
        "hits": 1,
        "misses": 3,
        "evictions": 2,
        "resize_evictions": 1,
        "resizes": 1,
        "drains": 0,
    }
    assert c.accesses == c.hits + c.misses


def test_snapshot_detects_corrupted_counters():
    from repro.common.errors import SimulationError

    c = WriteCombiningCache(2)
    c.access(1)
    c.hits = -1                        # simulate counter corruption
    with pytest.raises(SimulationError):
        c.snapshot()
    c = WriteCombiningCache(2)
    c.access(1)
    c.evictions = 5                    # capacity evictions without misses
    with pytest.raises(SimulationError):
        c.snapshot()
    c = WriteCombiningCache(2)
    c.access(1)
    c.resize_evictions = 1             # resize evictions without any resize
    with pytest.raises(SimulationError):
        c.snapshot()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=120),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
def test_snapshot_invariants_hold_under_random_traffic(lines, cap1, cap2):
    c = WriteCombiningCache(cap1)
    mid = len(lines) // 2
    for line in lines[:mid]:
        c.access(line)
    c.resize(cap2)
    for line in lines[mid:]:
        c.access(line)
    c.drain()
    snap = c.snapshot()               # raises if any identity breaks
    assert snap["accesses"] == len(lines)
