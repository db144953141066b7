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
from repro.locality.mrc import mrc_from_reuse, mrc_from_trace
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


def eager_mrc(trace, honor_fases):
    """Eq. 3 over the whole reuse curve, as ``mrc_from_trace`` once was."""
    return mrc_from_reuse(reuse_curve_from_trace(trace, honor_fases), n=trace.n)


def assert_read_as_the_eager_curve(trace, honor_fases, queries):
    """Each query on a fresh on-demand curve, so each grows its own
    prefix, answers as the eager curve does; so do all at once."""
    eager = eager_mrc(trace, honor_fases)
    for q in queries:
        assert mrc_from_trace(trace, honor_fases).miss_ratio(q) == eager.miss_ratio(q), q
    both = mrc_from_trace(trace, honor_fases).miss_ratios_at(queries), eager.miss_ratios_at(queries)
    assert both[0].tobytes() == both[1].tobytes()


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(fase_traces), st.booleans())
def test_the_on_demand_mrc_is_the_eager_curve(trace, honor_fases):
    """Read whole or at any size, the curve that evaluates Eq. 3 only as
    far as it is read is the eager conversion to the last bit."""
    eager = eager_mrc(trace, honor_fases)
    whole = mrc_from_trace(trace, honor_fases)
    assert whole.sizes.tobytes() == eager.sizes.tobytes()
    assert whole.miss_ratios.tobytes() == eager.miss_ratios.tobytes()
    assert whole.n == eager.n
    top = int(eager.sizes[-1])
    assert_read_as_the_eager_curve(
        trace, honor_fases, [*range(top + 2), 0.5, top / 3, top + 0.75]
    )


def test_a_size_plateau_at_the_query_reads_to_its_end():
    """``"aaaa"``'s sizes are 0, 1, 1, 1, and a run of 64 stays at 1 to
    the end: a prefix whose last size equals the query is not enough."""
    assert eager_mrc(WriteTrace.from_string("aaaa"), False).sizes.tolist() == [0, 1, 1, 1]
    for trace in (WriteTrace.from_string("aaaa"), WriteTrace([7] * 64)):
        assert_read_as_the_eager_curve(trace, False, [0, 0.5, 1, 1.5, 2, 50])


def test_a_curve_that_never_reaches_the_query_is_read_whole():
    """Five lines in a cycle never fill a cache of 50, nor does a hot
    line written 80 % of the time among Zipf-drawn others, whose size
    climbs slowly: its prefix is extended several times on the way."""
    rng = np.random.default_rng(0)
    zipf = rng.zipf(2.0, 2000)
    cyclic = WriteTrace(list(range(5)) * 40)
    hot = WriteTrace(np.where(rng.random(2000) < 0.8, 0, zipf))
    for trace in (cyclic, hot):
        assert eager_mrc(trace, False).sizes[-1] < 50
        assert_read_as_the_eager_curve(trace, False, [*range(52), 2.5])


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


# ---------------------------------------------------------------------------
# On program traces: one sort, and the simulation to the miss
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def program_traces():
    from repro.experiments.harness import Harness, HarnessConfig

    harness = Harness(HarnessConfig(scale=0.1, seed=7))
    return {name: harness.trace(name) for name in ("barnes", "fmm", "mdb")}


def test_the_linear_time_mrc_sorts_once(program_traces):
    """A count, not a timing: ``mrc_from_trace`` used to pay four
    O(n log n) passes (``np.unique`` x3 and a stable argsort).  Renaming
    is arithmetic now, and the reuse intervals sort the raw ids once."""
    from unittest import mock

    from repro.locality.mrc import mrc_from_trace

    spies = {name: mock.Mock(wraps=getattr(np, name))
             for name in ("unique", "argsort", "sort", "lexsort")}
    with mock.patch.multiple(np, **spies):
        mrc_from_trace(program_traces["barnes"])
    calls = {name: spy.call_count for name, spy in spies.items()}
    assert calls == {"unique": 0, "argsort": 1, "sort": 0, "lexsort": 0}


@pytest.mark.parametrize("name", ["barnes", "fmm", "mdb"])
def test_exact_mrc_counts_the_lru_simulations_misses(name, program_traces):
    """The two "actual MRC" references, column kernel and per-size LRU
    simulation, agree to the miss (their floats differ in the last ulp:
    1 - hits/n against misses/n)."""
    from repro.experiments.figures import FIG7_SIZES
    from repro.locality.reference import lru_mrc

    trace = program_traces[name]
    exact = exact_mrc(trace).miss_ratios_at(FIG7_SIZES)
    simulated = lru_mrc(trace, FIG7_SIZES)
    assert np.array_equal(np.rint(exact * trace.n), np.rint(simulated * trace.n))
