"""Classical stack distance: exactness against simulation, and the
timescale-vs-access-locality comparison of §III-A."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.locality.mrc import mrc_from_trace
from repro.locality.reference import lru_mrc
from repro.locality.stack_distance import (
    COLD,
    distance_histogram,
    exact_mrc,
    mean_distance,
    stack_distances,
)
from repro.locality.trace import WriteTrace

traces = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=80)


def test_hand_example():
    # a b a a c b  (0-based distances: cold cold 1 0 cold 2)
    t = WriteTrace.from_string("abaacb")
    d = stack_distances(t, honor_fases=False)
    assert d[0] == COLD and d[1] == COLD and d[4] == COLD
    assert d[2] == 1      # b intervened
    assert d[3] == 0      # immediate re-reference
    assert d[5] == 2      # a and c intervened


def test_distance_zero_hits_at_size_one():
    t = WriteTrace([7, 7, 7, 7])
    mrc = exact_mrc(t, honor_fases=False)
    assert mrc.miss_ratio(1) == pytest.approx(0.25)   # only the cold miss


@settings(max_examples=40, deadline=None)
@given(traces)
def test_exact_mrc_equals_lru_simulation(lines):
    """Stack distance is not an approximation: the derived MRC must
    equal exhaustive per-size LRU simulation, exactly."""
    t = WriteTrace(lines)
    mrc = exact_mrc(t, honor_fases=False)
    sizes = [1, 2, 3, 5, t.m, t.m + 2]
    sim = lru_mrc(t, sizes, honor_fases=False)
    for s, expected in zip(sizes, sim):
        assert mrc.miss_ratio(s) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(traces, st.integers(min_value=2, max_value=5))
def test_fase_renaming_respected(lines, nfases):
    n = len(lines)
    fids = [(i * nfases) // n for i in range(n)]
    t = WriteTrace(lines, fids)
    mrc = exact_mrc(t, honor_fases=True)
    sim = lru_mrc(t, [2, 4, 8], honor_fases=True)
    for s, expected in zip([2, 4, 8], sim):
        assert mrc.miss_ratio(s) == pytest.approx(expected, abs=1e-12)


def test_timescale_curve_tracks_exact_on_steady_pattern():
    """§III-A's comparison: on patterns satisfying the reuse-window
    hypothesis, the linear-time timescale MRC approximates the exact
    access-locality curve closely."""
    lines = (list(range(9)) * 80)
    t = WriteTrace(lines)
    timescale = mrc_from_trace(t, honor_fases=False)
    exact = exact_mrc(t, honor_fases=False)
    for c in (2, 8, 9, 10, 15):
        assert timescale.miss_ratio(c) == pytest.approx(
            exact.miss_ratio(c), abs=0.05
        )


def test_histogram_and_average():
    t = WriteTrace.from_string("abab")
    d = stack_distances(t, honor_fases=False)
    hist = distance_histogram(d)
    assert hist[1] == 2                   # two distance-1 reuses
    assert mean_distance(d) == pytest.approx(1.0)
    assert mean_distance(stack_distances(WriteTrace([1, 2, 3]))) == float("inf")


def test_empty_trace_rejected():
    with pytest.raises(ConfigurationError):
        exact_mrc(WriteTrace([]))


def test_cold_misses_never_hit():
    t = WriteTrace(list(range(50)))       # all distinct
    mrc = exact_mrc(t, honor_fases=False)
    assert mrc.miss_ratio(100) == 1.0


@pytest.mark.parametrize(
    "lines,renaming,simulation",
    [
        # The FASE's write to line 1 misses under renaming (the outside
        # region has addresses of its own) and hits in the simulated
        # cache (keyed by line); the FASE's drain then takes the outside
        # copy with it, which renaming keeps.
        ([1, 1, 1], [3, 2, 2], [2, 2, 2]),
        ([1, 2, 1], [3, 2, 2], [3, 3, 3]),
    ],
)
def test_the_two_references_part_when_outside_writes_interleave(
    lines, renaming, simulation
):
    """``exact_mrc`` (renaming) and ``lru_mrc`` (drain on exit) are two
    models, equal only while no write outside a FASE follows one: these
    are the smallest traces on which they differ (misses at sizes 1-3).
    No registered program emits such a trace; neither model is wrong
    about one that does, they answer different questions."""
    trace = WriteTrace(lines, [-1, 5, -1])
    sizes = [1, 2, 3]
    assert np.rint(exact_mrc(trace).miss_ratios_at(sizes) * 3).tolist() == renaming
    assert np.rint(lru_mrc(trace, sizes) * 3).tolist() == simulation
