"""Bursty sampling for online MRC analysis (§III-C)."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.locality.mrc import mrc_from_trace
from repro.locality.sampling import BurstSampler, sampled_mrc
from repro.locality.trace import WriteTrace


def feed(sampler, lines, fase=0):
    completed = False
    for line in lines:
        completed = sampler.record(line, fase) or completed
    return completed


def test_burst_fills_and_signals():
    s = BurstSampler(burst_length=4)
    assert not feed(s, [1, 2, 3])
    assert s.recording
    assert s.record(4, 0) is True
    assert s.burst_complete
    assert not s.recording


def test_records_beyond_burst_are_dropped():
    s = BurstSampler(burst_length=3)
    feed(s, [1, 2, 3, 4, 5])
    assert s.recorded == 3
    assert list(s.trace().lines) == [1, 2, 3]


def test_analyze_enters_infinite_hibernation_by_default():
    """The paper analyses the MRC just once (infinite hibernation)."""
    s = BurstSampler(burst_length=3)
    feed(s, [1, 2, 1])
    mrc = s.analyze()
    assert mrc.n == 3
    assert s.done
    assert s.record(9, 0) is False
    assert s.recorded == 0


def test_sampler_keeps_fase_ids():
    s = BurstSampler(burst_length=4)
    s.record(1, 0)
    s.record(1, 0)
    s.record(1, 1)
    s.record(1, 1)
    mrc = s.analyze()
    # Cross-FASE reuse must not be counted: only 1 reuse per FASE.
    assert mrc.miss_ratio(1) < 1.0
    t = WriteTrace([1, 1, 1, 1], [0, 0, 1, 1])
    expected = mrc_from_trace(t)
    np.testing.assert_allclose(mrc.table(4), expected.table(4))


def test_sampled_mrc_short_trace_uses_everything():
    t = WriteTrace.from_string("aabb" * 3)
    full = mrc_from_trace(t)
    samp = sampled_mrc(t, burst_length=10_000)
    np.testing.assert_allclose(samp.table(8), full.table(8))


def test_sampled_mrc_prefix_only():
    lines = [0, 0] * 50 + list(range(100, 200))
    t = WriteTrace(lines)
    samp = sampled_mrc(t, burst_length=100)
    # The sampled prefix is all "00" bursts: near-perfect combining.
    assert samp.miss_ratio(2) < 0.05


def test_validation():
    with pytest.raises(ConfigurationError):
        BurstSampler(burst_length=1)
    with pytest.raises(ConfigurationError):
        BurstSampler(burst_length=8, initial_skip=-1)


def test_sampled_preserves_knee_position():
    """Fig. 7's claim: sampling keeps the inflection points."""
    lines = (list(range(15)) * 20) * 4
    t = WriteTrace(lines)
    from repro.locality.knee import select_cache_size

    full = select_cache_size(mrc_from_trace(t, honor_fases=False))
    samp = select_cache_size(sampled_mrc(t, burst_length=len(lines) // 4))
    assert abs(full - samp) <= 1
