"""Knee detection and cache-size selection (§III-C)."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.locality.knee import (
    DEFAULT_POLICY,
    Knee,
    SelectionPolicy,
    find_knees,
    select_cache_size,
)
from repro.locality.mrc import MissRatioCurve, mrc_from_trace
from repro.locality.trace import WriteTrace


def step_mrc(steps):
    """Build an MRC from (size, miss_ratio) steps."""
    sizes = np.asarray([float(s) for s, _ in steps])
    ratios = np.asarray([float(r) for _, r in steps])
    return MissRatioCurve(sizes, ratios)


def test_single_sharp_knee_selected():
    mrc = step_mrc([(0, 1.0), (9, 1.0), (10, 0.05), (50, 0.05)])
    assert select_cache_size(mrc) == 10


def test_largest_of_top_knees_wins():
    # Two real knees at 5 and 20: the paper picks the larger.
    mrc = step_mrc([(0, 1.0), (5, 0.5), (20, 0.1)])
    assert select_cache_size(mrc) == 20


def test_knee_beyond_max_size_is_not_seen():
    mrc = step_mrc([(0, 1.0), (80, 0.1)])
    policy = SelectionPolicy(max_size=50)
    # No drop within 1..50: knee-less -> the maximum size.
    assert select_cache_size(mrc, policy) == 50


def test_all_miss_mrc_yields_max_size():
    # No drop anywhere (no combinable reuse at all): knee-less -> max.
    mrc = step_mrc([(0, 1.0)])
    assert select_cache_size(mrc) == DEFAULT_POLICY.max_size


def test_flat_after_size_one_selects_one():
    # Size 1 already achieves everything (the queue/linked-list rows:
    # "SC can choose the smallest cache size among all sizes that have
    # the lowest possible").
    mrc = step_mrc([(0, 1.0), (1, 0.4)])
    assert select_cache_size(mrc) == 1


def test_noise_below_fraction_threshold_ignored():
    # A large knee at 4 plus a tiny late wiggle at 40: the wiggle must
    # not win the largest-size tie-break.
    mrc = step_mrc([(0, 1.0), (4, 0.2), (39, 0.2), (40, 0.1999)])
    assert select_cache_size(mrc) == 4


def test_significant_late_knee_wins():
    mrc = step_mrc([(0, 1.0), (4, 0.5), (40, 0.1)])
    assert select_cache_size(mrc) == 40


def test_find_knees_ordering_and_contents():
    mrc = step_mrc([(0, 1.0), (3, 0.6), (10, 0.2)])
    knees = find_knees(mrc)
    assert [k.drop for k in knees] == sorted((k.drop for k in knees), reverse=True)
    assert {k.size for k in knees} == {3, 10}
    for k in knees:
        assert isinstance(k, Knee)
        assert 0 <= k.miss_ratio <= 1


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        SelectionPolicy(default_size=0)
    with pytest.raises(ConfigurationError):
        SelectionPolicy(default_size=10, max_size=5)
    with pytest.raises(ConfigurationError):
        SelectionPolicy(top_candidates=0)
    with pytest.raises(ConfigurationError):
        SelectionPolicy(min_drop=-0.1)
    with pytest.raises(ConfigurationError):
        SelectionPolicy(min_drop_fraction=1.5)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("default_size", 8.5),
        ("max_size", 52.5),
        ("top_candidates", 2.5),
        ("min_drop", float("nan")),
        ("min_drop", float("inf")),
    ],
)
def test_a_selection_parameter_is_checked_at_the_policy(field, bad):
    """Sizes and the candidate count are ints, ``min_drop`` a finite
    non-negative number: a bad one is a ConfigurationError naming it when
    the policy is built, never a numpy ``IndexError`` at the first
    analysis or a silently knee-less curve."""
    with pytest.raises(ConfigurationError, match=field):
        SelectionPolicy(**{field: bad})


def test_paper_default_policy_values():
    """§III-C: default size 8, maximum size 50."""
    assert DEFAULT_POLICY.default_size == 8
    assert DEFAULT_POLICY.max_size == 50


def test_selection_on_real_cyclic_trace():
    # A loop over 12 lines: the only post-burst knee is at 12.
    lines = list(range(12)) * 40
    mrc = mrc_from_trace(WriteTrace(lines), honor_fases=False)
    assert select_cache_size(mrc) in (12, 13)


def test_selection_respects_max_size_bound():
    lines = list(range(70)) * 20
    mrc = mrc_from_trace(WriteTrace(lines), honor_fases=False)
    assert select_cache_size(mrc) <= DEFAULT_POLICY.max_size
