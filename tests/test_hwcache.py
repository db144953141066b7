"""The set-associative write-back hardware cache with clflush."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.nvram.hwcache import HardwareCache
from tests.conftest import l1_dirty, l1_lines


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        HardwareCache(0, 1)
    with pytest.raises(ConfigurationError):
        HardwareCache(10, 4)   # not a multiple of ways


def test_hit_after_fill():
    c = HardwareCache(64, 8)
    hit, evicted = c.access(5, is_write=False)
    assert not hit and evicted is None
    hit, _ = c.access(5, is_write=True)
    assert hit
    assert l1_lines(c).get(5) is True


def test_write_allocate_and_dirty_tracking():
    c = HardwareCache(64, 8)
    c.access(3, is_write=True)
    assert 3 in l1_lines(c) and l1_lines(c).get(3) is True
    c.access(4, is_write=False)
    assert l1_lines(c).get(4) is False


def test_lru_eviction_within_set():
    c = HardwareCache(2, 2)     # one set, two ways
    c.access(0, True)
    c.access(1, False)
    c.access(0, False)          # 0 becomes MRU
    hit, evicted = c.access(2, False)
    assert not hit
    assert evicted == (1, False)
    hit, evicted = c.access(3, True)
    assert evicted == (0, True)     # dirty eviction = write-back
    assert c.evict_writebacks == 1


def test_clflush_dirty_writes_back_and_invalidates():
    c = HardwareCache(64, 8)
    c.access(7, True)
    assert c.clflush(7) is True
    assert 7 not in l1_lines(c)
    assert c.flush_writebacks == 1
    # The next access misses: the indirect flush cost of §II-A.
    hit, _ = c.access(7, False)
    assert not hit


def test_clflush_clean_or_absent():
    c = HardwareCache(64, 8)
    assert c.clflush(9) is False
    c.access(9, False)
    assert c.clflush(9) is False
    assert c.clean_flushes == 2


def test_sets_are_independent():
    c = HardwareCache(16, 2)            # 8 sets
    c.access(0, True)
    c.access(8, True)                   # same set as 0
    c.access(1, True)                   # different set
    hit, evicted = c.access(16, True)   # set 0 full: evicts LRU (0)
    assert evicted == (0, True)
    assert 1 in l1_lines(c)


def test_dirty_lines_enumeration():
    c = HardwareCache(64, 8)
    c.access(1, True)
    c.access(2, False)
    c.access(3, True)
    assert sorted(l1_dirty(c)) == [1, 3]


def test_counters_and_miss_ratio():
    c = HardwareCache(64, 8)
    c.access(1, False)      # load miss
    c.access(1, False)      # load hit
    c.access(2, True)       # store miss
    assert c.loads == 2 and c.stores == 1
    assert c.load_misses == 1 and c.store_misses == 1
    assert c.miss_ratio == pytest.approx(2 / 3)
    assert HardwareCache(8, 8).miss_ratio == 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()), max_size=200))
def test_capacity_invariant(ops):
    c = HardwareCache(16, 4)
    for line, is_write in ops:
        c.access(line, is_write)
        total = sum(len(s) for s in c.sets)
        assert total <= 16
        assert all(len(s) <= 4 for s in c.sets)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=200))
def test_inclusion_no_phantom_lines(lines):
    """Whatever is cached was accessed and not since flushed."""
    c = HardwareCache(8, 2)
    seen = set()
    for line in lines:
        c.access(line, True)
        seen.add(line)
    for s in c.sets:
        for line in s:
            assert line in seen
