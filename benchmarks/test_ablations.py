"""Ablations of the design choices DESIGN.md §5 calls out.

Each ablation swaps one design decision and measures the flush-ratio /
selection consequences, substantiating why the paper's choice is the
right one on this substrate.
"""

import pytest

from repro.cache.spec import technique_factory
from repro.locality.knee import SelectionPolicy, find_knees, select_cache_size
from repro.locality.mrc import mrc_from_trace
from repro.locality.sampling import sampled_mrc
from repro.nvram.machine import Machine, MachineConfig


def run(workload, technique, **kw):
    machine = Machine(MachineConfig())
    return machine.run(workload, technique_factory(technique, **kw), num_threads=1, seed=1)


@pytest.fixture(scope="module")
def ws_trace(harness):
    return harness.trace("water-spatial")


def test_ablation_knee_rule(harness, ws_trace, once):
    """Largest-of-top-knees vs naive alternatives.

    'Smallest miss ratio' alone would always pick max_size (paying the
    drain stall for nothing on knee-less curves); 'biggest drop' alone
    would stop at the burst knee (size 1-2) and forfeit the pass reuse.
    """
    mrc = once(mrc_from_trace, ws_trace)
    knees = find_knees(mrc)
    paper_rule = select_cache_size(mrc)
    biggest_drop_rule = knees[0].size
    assert biggest_drop_rule <= 2            # the burst knee
    assert paper_rule >= 20                  # the pass-reuse knee
    w = harness.workload("water-spatial")
    small = run(w, "SC-offline", sc_fixed_size=biggest_drop_rule)
    ours = run(w, "SC-offline", sc_fixed_size=paper_rule)
    print(f"\nbiggest-drop size {biggest_drop_rule}: ratio {small.flush_ratio:.5f}; "
          f"paper rule size {paper_rule}: ratio {ours.flush_ratio:.5f}")
    assert ours.flush_ratio < small.flush_ratio / 10


def test_ablation_max_size_bound(harness, once):
    """The 50-line cap trades flushes for bounded FASE-end stalls.

    ocean's wide loops would reward a cache >= their region size; the
    cap forfeits those hits deliberately.  Removing the cap must recover
    them - and it must not change programs whose knees sit below 50.
    """
    trace = harness.trace("ocean")
    mrc = once(mrc_from_trace, trace)
    capped = select_cache_size(mrc, SelectionPolicy(max_size=50))
    uncapped = select_cache_size(mrc, SelectionPolicy(max_size=400))
    print(f"\nocean selection: capped {capped}, uncapped {uncapped}")
    assert capped <= 50
    w = harness.workload("ocean")
    r_capped = run(w, "SC-offline", sc_fixed_size=capped)
    r_big = run(w, "SC-offline", sc_fixed_size=max(uncapped, 200))
    assert r_big.flush_ratio < r_capped.flush_ratio
    # ... but the drain stall per FASE grows with the cache size.
    assert (
        r_big.threads[0].fase_end_flushes
        > r_capped.threads[0].fase_end_flushes
    )


def test_ablation_burst_length(harness, once):
    """Sampling burst: too short mis-selects, long enough converges.

    Fig. 7's claim quantified: the selection from a modest burst matches
    the whole-trace selection."""
    trace = harness.trace("water-spatial")
    full = select_cache_size(mrc_from_trace(trace))
    chosen = {}
    for burst in (64, 2_048, trace.n):
        mrc = sampled_mrc(trace, burst)
        chosen[burst] = select_cache_size(mrc)
    print(f"\nselections by burst: {chosen} (full-trace: {full})")
    assert chosen[trace.n] == full
    assert abs(chosen[2_048] - full) <= 2
    once(sampled_mrc, trace, 2_048)


def test_ablation_fase_renaming(harness, once):
    """Disabling the §III-B renaming inflates the apparent reuse.

    The queue rewrites its head/tail anchor lines in every one-operation
    FASE; ignoring FASE boundaries, those look like near-perfect cache
    hits, but the drained write cache can never combine them.  The
    corrected MRC must match what an exact drained LRU cache measures.
    """
    from repro.locality.reference import lru_mrc

    trace = harness.trace("queue")          # one tiny FASE per operation
    with_fix = once(mrc_from_trace, trace, honor_fases=True)
    without = mrc_from_trace(trace, honor_fases=False)
    actual = lru_mrc(trace, [8], honor_fases=True)[0]
    print(f"\nqueue: corrected mr(8)={with_fix.miss_ratio(8):.4f} "
          f"raw mr(8)={without.miss_ratio(8):.4f} "
          f"measured (drained LRU)={actual:.4f}")
    # Ignoring FASEs claims far better locality than the drained cache
    # can ever deliver; the corrected curve tracks the measurement.
    assert without.miss_ratio(8) < actual / 2
    assert with_fix.miss_ratio(8) == pytest.approx(actual, abs=0.1)


def test_ablation_mrc_method_spectrum(harness, once):
    """§III-A's efficiency spectrum on a real evaluation trace.

    Exact stack distance, SHARDS sampling, and the paper's linear-time
    timescale theory must all place water-spatial's knee at the same
    position; the timescale method gets there in O(n) with no sampling
    error at the knee.
    """
    from repro.locality.knee import select_cache_size
    from repro.locality.shards import shards_mrc
    from repro.locality.stack_distance import exact_mrc

    trace = harness.trace("water-spatial")
    exact = once(exact_mrc, trace)
    sampled = shards_mrc(trace, rate=0.3)
    timescale = harness.offline_mrc("water-spatial")
    selections = {
        "exact": select_cache_size(exact),
        "shards": select_cache_size(sampled),
        "timescale": select_cache_size(timescale),
    }
    print(f"\nknee selections: {selections} (paper: 23)")
    assert abs(selections["timescale"] - selections["exact"]) <= 2
    assert abs(selections["shards"] - selections["exact"]) <= 4
