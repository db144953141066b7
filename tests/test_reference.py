"""The brute-force oracles themselves (they verify the fast paths, so
their own semantics deserve direct pinning)."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.locality.reference import (
    footprint_brute,
    lru_mrc,
    lru_write_cache_misses,
    reuse_brute,
)
from repro.locality.trace import WriteTrace


def test_reuse_brute_hand_example():
    t = WriteTrace.from_string("abb")
    assert reuse_brute(t, 2) == 0.5
    assert reuse_brute(t, 3) == 1.0
    with pytest.raises(ConfigurationError):
        reuse_brute(t, 0)
    with pytest.raises(ConfigurationError):
        reuse_brute(t, 4)


def test_footprint_brute_hand_example():
    t = WriteTrace.from_string("abb")
    assert footprint_brute(t, 2) == 1.5


def test_lru_misses_basic():
    t = WriteTrace([1, 2, 1, 3, 1])
    # size 2: 1m 2m 1h 3m(evict 2) 1h -> 3 misses
    assert lru_write_cache_misses(t, 2, honor_fases=False) == 3
    assert lru_write_cache_misses(t, 3, honor_fases=False) == 3
    assert lru_write_cache_misses(t, 1, honor_fases=False) == 5


def test_lru_misses_fase_drain():
    t = WriteTrace.from_string("ab|ab")
    assert lru_write_cache_misses(t, 4, honor_fases=True) == 4
    assert lru_write_cache_misses(t, 4, honor_fases=False) == 2


def test_lru_validation():
    with pytest.raises(ConfigurationError):
        lru_write_cache_misses(WriteTrace([1]), 0)
    with pytest.raises(ConfigurationError):
        lru_mrc(WriteTrace([]), [1])


def test_lru_mrc_monotone():
    rng = np.random.default_rng(2)
    t = WriteTrace(rng.integers(0, 20, size=400))
    curve = lru_mrc(t, [1, 2, 4, 8, 16, 32], honor_fases=False)
    assert np.all(np.diff(curve) <= 1e-12)   # LRU inclusion property
