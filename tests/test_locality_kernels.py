"""The theory's column kernels against their definitions, over traces
built to be awkward: duplicates, a single write, all-cold runs, writes
outside any FASE interleaved with FASEs, FASE uids that are distinct
but not increasing (and as wide as two threads' ``tid << 40``), line
ids that are sparse and negative, lengths that are not powers of two.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locality.fase_transform import rename_for_fases
from repro.locality.footprint import footprint_curve
from repro.locality.reference import lru_write_cache_misses
from repro.locality.reuse import reuse_curve_from_trace
from repro.locality.stack_distance import COLD, exact_mrc, stack_distances
from repro.locality.trace import WriteTrace

ALPHABETS = (
    list(range(4)),                          # duplicates everywhere
    list(range(1000, 1040)),                 # mostly cold
    [-7, 0, 3, 2**33, -(2**41)],             # sparse and negative
)
#: Distinct per dynamic FASE, in no order; the last two are uids of
#: threads 1 and 2.
UIDS = (5, 2, 9, 0, (1 << 40) + 3, 1, 2 << 40)


@st.composite
def fase_traces(draw, outside=True):
    """FASEs of 1..12 writes with distinct uids, some of the segments
    outside any FASE when ``outside``."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    uids = draw(st.permutations(UIDS))
    segments = draw(st.lists(
        st.tuples(
            st.booleans() if outside else st.just(False),
            st.lists(st.sampled_from(alphabet), min_size=1, max_size=12),
        ),
        min_size=1, max_size=len(uids),
    ))
    lines, fids = [], []
    for uid, (is_outside, writes) in zip(uids, segments):
        lines += writes
        fids += [-1 if is_outside else uid] * len(writes)
    return WriteTrace(lines, fids)


def distances_by_definition(ids):
    """Distinct data strictly between an access and the previous access
    to the same datum — quadratic, and nothing else."""
    out = []
    for t, x in enumerate(ids):
        earlier = [j for j in range(t) if ids[j] == x]
        out.append(len(set(ids[earlier[-1] + 1 : t])) if earlier else COLD)
    return out


def renamed_ids(trace):
    """The renaming by its definition: one id per (FASE, line) pair."""
    return list(zip(trace.fase_ids.tolist(), trace.lines.tolist()))


@settings(max_examples=150, deadline=None)
@given(fase_traces())
def test_stack_distances_equal_the_definition(trace):
    assert stack_distances(trace).tolist() == distances_by_definition(
        renamed_ids(trace)
    )
    assert stack_distances(trace, honor_fases=False).tolist() == (
        distances_by_definition(trace.lines.tolist())
    )


@settings(max_examples=100, deadline=None)
@given(fase_traces(outside=False))
def test_exact_mrc_counts_the_simulations_misses_inside_fases(trace):
    sizes = np.arange(1, trace.m + 2)
    misses = np.rint(exact_mrc(trace).miss_ratios_at(sizes) * trace.n)
    assert misses.tolist() == [lru_write_cache_misses(trace, s) for s in sizes]


@settings(max_examples=150, deadline=None)
@given(fase_traces())
def test_reuse_intervals_are_the_pairs_a_dict_of_last_positions_yields(trace):
    last, pairs = {}, []
    for time, key in enumerate(renamed_ids(trace), 1):
        if key in last:
            pairs.append((last[key], time))
        last[key] = time
    starts, ends = rename_for_fases(trace).reuse_intervals()
    assert sorted(zip(starts.tolist(), ends.tolist())) == sorted(pairs)
    # Renaming never merges a reuse across a drain: both ends sit in one
    # FASE, which is contiguous — or both outside, which nothing drains.
    fids = trace.fase_ids
    for s, e in pairs:
        assert fids[s - 1] == fids[e - 1]
        assert fids[s - 1] == -1 or np.all(fids[s - 1 : e] == fids[s - 1])


@settings(max_examples=100, deadline=None)
@given(fase_traces())
def test_duality_holds_on_the_renamed_trace(trace):
    """Eq. 5, ``reuse(k) + fp(k) = k``, with the reuse side fed by the
    one-sort intervals and the footprint side by its own dense ids."""
    reuse = reuse_curve_from_trace(trace)
    fp = footprint_curve(rename_for_fases(trace))
    assert np.allclose(reuse + fp, np.arange(trace.n + 1))


@settings(max_examples=150, deadline=None)
@given(fase_traces())
def test_counts_of_lines_and_fases(trace):
    assert trace.m == len(set(trace.lines.tolist()))
    assert trace.num_fases == len(set(trace.fase_ids.tolist()) - {-1})


@pytest.mark.parametrize(
    "values",
    [
        [3, 3, 4, 9, 9, 2**50],              # non-decreasing: change count
        [4, 3, 3, 9, 4, 10],                 # narrow span: boolean mask
        [-5, -7, -5],
        [2**50, 3, 3, -(2**50), 3],          # wide span: np.unique
        [7],
    ],
    ids=["changes", "mask", "mask-negative", "unique", "single"],
)
def test_every_counting_branch(values):
    assert WriteTrace(values).m == len(set(values))
    assert WriteTrace([0] * len(values), values).num_fases == len(
        {v for v in values if v >= 0}
    )


def test_renaming_stays_injective_past_62_bits():
    """Two threads' uids over a line span of 2**30: the product leaves
    int64, so ranks stand in for the raw columns."""
    rng = np.random.default_rng(24)
    uids = np.concatenate(([-1], (1 << 40) + np.arange(3), (2 << 40) + np.arange(3)))
    lines = np.concatenate(([0, 2**30 - 1], rng.integers(0, 2**30, 40)))
    trace = WriteTrace(rng.choice(lines, 300), rng.choice(uids, 300))
    renamed = rename_for_fases(trace)
    assert np.array_equal(renamed.fase_ids, trace.fase_ids)
    pairs = renamed_ids(trace)
    assert len(set(zip(pairs, renamed.lines.tolist()))) == len(set(pairs))
    assert renamed.m == len(set(pairs))
