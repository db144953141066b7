"""Reuse -> miss-ratio-curve conversion (Eq. 3 / Eq. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.locality.mrc import MissRatioCurve, mrc_from_reuse, mrc_from_trace
from repro.locality.reference import lru_mrc
from repro.locality.trace import WriteTrace

traces = st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=60)


def test_paper_abab_conversion():
    """§III-B's table: cache of size 2 has hit ratio 1 on "abab…"."""
    mrc = mrc_from_trace(WriteTrace.from_string("ab" * 40), honor_fases=False)
    assert mrc.miss_ratio(1) == pytest.approx(1.0)
    assert mrc.miss_ratio(2) == pytest.approx(0.0, abs=1e-9)
    assert mrc.hit_ratio(2) == pytest.approx(1.0)


def test_fase_semantics_all_miss():
    mrc = mrc_from_trace(WriteTrace.from_string("ab|ab|ab|ab"))
    for c in (1, 2, 8, 32):
        assert mrc.miss_ratio(c) == pytest.approx(1.0)


def test_monotone_by_default():
    """The inclusion property: larger LRU caches never miss more."""
    t = WriteTrace(np.random.default_rng(0).integers(0, 12, size=300))
    mrc = mrc_from_trace(t, honor_fases=False)
    table = mrc.table(40)
    assert np.all(np.diff(table) <= 1e-12)


def test_raw_mode_skips_monotone_clamp():
    t = WriteTrace(np.random.default_rng(1).integers(0, 6, size=80))
    from repro.locality.reuse import reuse_curve_from_trace

    reuse = reuse_curve_from_trace(t, honor_fases=False)
    raw = mrc_from_reuse(reuse, monotone=False)
    clamped = mrc_from_reuse(reuse, monotone=True)
    assert np.all(
        clamped.miss_ratios_at(np.arange(1, 40.0))
        <= raw.miss_ratios_at(np.arange(1, 40.0)) + 1e-12
    )


def test_miss_ratio_below_first_sample_is_one():
    mrc = MissRatioCurve(np.asarray([2.0, 5.0]), np.asarray([0.4, 0.1]))
    assert mrc.miss_ratio(0.0) == 1.0
    assert mrc.miss_ratio(1.9) == 1.0
    assert mrc.miss_ratio(2.0) == pytest.approx(0.4)
    assert mrc.miss_ratio(7.0) == pytest.approx(0.1)


def test_negative_size_rejected():
    mrc = MissRatioCurve(np.asarray([0.0]), np.asarray([1.0]))
    with pytest.raises(ConfigurationError):
        mrc.miss_ratio(-1)


def test_a_nan_size_is_rejected():
    """NaN is no cache size, on a curve read on demand or built from
    arrays alike."""
    nan = float("nan")
    for mrc in (
        mrc_from_trace(WriteTrace.from_string("abab|ab")),
        MissRatioCurve(np.asarray([0.0, 1.0]), np.asarray([1.0, 0.5])),
    ):
        with pytest.raises(ConfigurationError):
            mrc.miss_ratio(nan)
        with pytest.raises(ConfigurationError):
            mrc.miss_ratios_at([1.0, nan])


def test_an_empty_trace_is_rejected_when_its_curve_is_made():
    with pytest.raises(ConfigurationError):
        mrc_from_trace(WriteTrace([]))
    with pytest.raises(ConfigurationError):
        mrc_from_trace(WriteTrace([]), honor_fases=False)


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        MissRatioCurve(np.asarray([1.0, 0.5]), np.asarray([0.5, 0.2]))
    with pytest.raises(ConfigurationError):
        MissRatioCurve(np.asarray([]), np.asarray([]))
    with pytest.raises(ConfigurationError):
        MissRatioCurve(np.asarray([1.0]), np.asarray([0.5, 0.2]))
    with pytest.raises(ConfigurationError):
        mrc_from_reuse(np.asarray([0.0]))


@settings(max_examples=40, deadline=None)
@given(traces)
def test_miss_ratios_in_unit_interval(lines):
    mrc = mrc_from_trace(WriteTrace(lines), honor_fases=False)
    table = mrc.table(30)
    assert np.all(table >= 0.0)
    assert np.all(table <= 1.0)


@settings(max_examples=25, deadline=None)
@given(traces)
def test_theory_tracks_actual_lru_for_big_caches(lines):
    """At cache size >= m the exact simulation sees only the m
    compulsory misses; the theory predicts the steady-state (windowed)
    miss ratio, which excludes them — so the two must agree within the
    compulsory fraction m/n."""
    t = WriteTrace(lines)
    mrc = mrc_from_trace(t, honor_fases=False)
    actual = lru_mrc(t, [t.m + 1], honor_fases=False)
    assert mrc.miss_ratio(t.m + 1) == pytest.approx(
        actual[0], abs=t.m / t.n + 0.1
    )


def test_theory_close_to_actual_on_cyclic_pattern():
    """Steady cyclic patterns satisfy the reuse-window hypothesis, so
    the predicted MRC should match exact LRU simulation closely."""
    lines = list(range(10)) * 50
    t = WriteTrace(lines)
    mrc = mrc_from_trace(t, honor_fases=False)
    sizes = [1, 5, 9, 10, 12]
    actual = lru_mrc(t, sizes, honor_fases=False)
    predicted = [mrc.miss_ratio(s) for s in sizes]
    np.testing.assert_allclose(predicted, actual, atol=0.06)


def test_table_requires_positive_size():
    mrc = MissRatioCurve(np.asarray([0.0]), np.asarray([1.0]))
    with pytest.raises(ConfigurationError):
        mrc.table(0)
