"""All-window timescale reuse: Eq. 1/2, the paper's worked examples,
and property-based equivalence with brute-force window enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.locality.reference import reuse_brute, reuse_curve_brute
from repro.locality.reuse import reuse_counts, reuse_curve, reuse_curve_from_trace
from repro.locality.trace import WriteTrace

traces = st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=50)


def test_paper_example_abb():
    """§III-B: the trace "abb" has reuse(2) = 1/2."""
    r = reuse_curve_from_trace(WriteTrace.from_string("abb"), honor_fases=False)
    assert r[1] == 0.0
    assert r[2] == pytest.approx(0.5)
    assert r[3] == pytest.approx(1.0)


def test_paper_example_abab_table():
    """§III-B's table: reuse(1)=0, reuse(2)=0, and reuse(3) -> 1."""
    t = WriteTrace.from_string("ab" * 50)
    r = reuse_curve_from_trace(t, honor_fases=False)
    assert r[1] == 0.0
    assert r[2] == 0.0
    assert r[3] == pytest.approx(1.0)
    assert r[4] == pytest.approx(2.0)


def test_reuse_zero_when_no_repeats():
    r = reuse_curve_from_trace(WriteTrace.from_string("abcdef"), honor_fases=False)
    assert np.all(r == 0.0)


def test_reuse_of_constant_trace():
    # "aaaa": every window of length k has k-1 reuses.
    n = 12
    r = reuse_curve_from_trace(WriteTrace([5] * n), honor_fases=False)
    for k in range(1, n + 1):
        assert r[k] == pytest.approx(k - 1)


@settings(max_examples=60, deadline=None)
@given(traces)
def test_linear_time_matches_brute_force(lines):
    t = WriteTrace(lines)
    fast = reuse_curve_from_trace(t, honor_fases=False)
    slow = reuse_curve_brute(t)
    np.testing.assert_allclose(fast, slow, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=29),
    st.integers(min_value=1, max_value=30),
)
def test_single_interval_window_count(n, s, d):
    """The piecewise-linear count equals explicit window enumeration."""
    e = s + d
    if e > n:
        e = n
    if s >= e:
        s = e - 1
    if s < 1:
        return
    total = reuse_counts(np.asarray([s]), np.asarray([e]), n)
    for k in range(1, n + 1):
        # Windows [w, w + k - 1] that enclose [s, e], one by one.
        assert total[k] == sum(w <= s and e <= w + k - 1 for w in range(1, n - k + 2))


def windows_enclosing(starts, ends, n):
    """``total[k]`` by enumerating every window of every length."""
    return [
        sum(w <= s and e <= w + k - 1 for s, e in zip(starts, ends) for w in range(1, n - k + 2))
        for k in range(n + 1)
    ]


def test_reuse_counts_with_repeated_ends():
    """Shared starts, shared ends, and ``e + 1 == n - s + 2`` (the rise
    ends where the fall begins): each lands on one bincount bin."""
    n = 7
    starts = [1, 1, 2, 2, 3, 3, 3, 6]
    ends = [4, 4, 4, 6, 6, 5, 7, 7]
    assert reuse_counts(np.asarray(starts), np.asarray(ends), n).tolist() == (
        windows_enclosing(starts, ends, n)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reuse_counts_sum_any_interval_multiset(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    starts = data.draw(st.lists(st.integers(1, n - 1), max_size=12))
    ends = [data.draw(st.integers(s + 1, n)) for s in starts]
    assert reuse_counts(np.asarray(starts), np.asarray(ends), n).tolist() == (
        windows_enclosing(starts, ends, n)
    )


def test_reuse_counts_validation():
    with pytest.raises(ConfigurationError):
        reuse_counts(np.asarray([1]), np.asarray([1]), 5)   # e <= s
    with pytest.raises(ConfigurationError):
        reuse_counts(np.asarray([0]), np.asarray([2]), 5)   # s < 1
    with pytest.raises(ConfigurationError):
        reuse_counts(np.asarray([1]), np.asarray([9]), 5)   # e > n
    with pytest.raises(ConfigurationError):
        reuse_counts(np.asarray([1, 2]), np.asarray([3]), 5)


def test_reuse_curve_monotone_in_k():
    """More context can only expose more reuses: reuse(k) is
    non-decreasing (each window of k+1 contains a window of k)."""
    t = WriteTrace(np.random.default_rng(3).integers(0, 5, size=60))
    r = reuse_curve_from_trace(t, honor_fases=False)
    assert np.all(np.diff(r) >= -1e-12)


def test_reuse_increments_bounded_by_one():
    """reuse(k+1) - reuse(k) is a hit *ratio*: it cannot exceed 1."""
    t = WriteTrace(np.random.default_rng(4).integers(0, 4, size=80))
    r = reuse_curve_from_trace(t, honor_fases=False)
    assert np.all(np.diff(r) <= 1 + 1e-12)


def test_full_window_reuse_equals_n_minus_m():
    t = WriteTrace(np.random.default_rng(5).integers(0, 6, size=40))
    r = reuse_curve_from_trace(t, honor_fases=False)
    assert r[t.n] == pytest.approx(t.n - t.m)


def test_fase_semantics_kills_cross_fase_reuse():
    """§III-B: under "ab|ab|ab…" every write is a miss at any size."""
    t = WriteTrace.from_string("ab|ab|ab|ab")
    r = reuse_curve_from_trace(t, honor_fases=True)
    assert np.all(r == 0.0)
    r_ignore = reuse_curve_from_trace(t, honor_fases=False)
    assert r_ignore[t.n] > 0


def test_single_k_brute_spot_check():
    t = WriteTrace.from_string("abcabcbb")
    r = reuse_curve_from_trace(t, honor_fases=False)
    for k in (1, 2, 3, 5, 8):
        assert r[k] == pytest.approx(reuse_brute(t, k))


def test_reuse_curve_empty_and_single():
    assert list(reuse_curve(np.asarray([]), np.asarray([]), 0)) == [0.0]
    r = reuse_curve(np.asarray([]), np.asarray([]), 1)
    assert r[1] == 0.0
