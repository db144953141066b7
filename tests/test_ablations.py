"""Ablations of the design choices DESIGN.md §6 calls out.

Each ablation swaps one design decision and measures the flush-ratio /
selection consequences, substantiating why the paper's choice is the
right one on this substrate.
"""

import pytest

from repro.cache.spec import technique_factory
from repro.locality.knee import SelectionPolicy, find_knees, select_cache_size
from repro.locality.mrc import mrc_from_trace
from repro.locality.reference import lru_mrc
from repro.locality.sampling import sampled_mrc
from repro.locality.shards import shards_mrc
from repro.locality.stack_distance import exact_mrc
from repro.nvram.machine import Machine, MachineConfig


def run(workload, technique, **kw):
    machine = Machine(MachineConfig())
    return machine.run(workload, technique_factory(technique, **kw), num_threads=1, seed=1)


def test_ablation_knee_rule(small_harness):
    """Largest-of-top-knees vs naive alternatives.

    'Smallest miss ratio' alone would always pick max_size (paying the
    drain stall for nothing on knee-less curves); 'biggest drop' alone
    would stop at the burst knee (size 1-2) and forfeit the pass reuse.
    """
    mrc = mrc_from_trace(small_harness.trace("water-spatial"))
    paper_rule = select_cache_size(mrc)
    biggest_drop_rule = find_knees(mrc)[0].size
    assert biggest_drop_rule <= 2            # the burst knee
    assert paper_rule >= 20                  # the pass-reuse knee
    w = small_harness.workload("water-spatial")
    small = run(w, "SC-offline", sc_fixed_size=biggest_drop_rule)
    ours = run(w, "SC-offline", sc_fixed_size=paper_rule)
    assert ours.flush_ratio < small.flush_ratio / 10


def test_ablation_max_size_bound(small_harness):
    """The 50-line cap trades flushes for bounded FASE-end stalls.

    ocean's wide loops would reward a cache >= their region size; the
    cap forfeits those hits deliberately.  Removing the cap must recover
    them, and the drain per FASE must grow with the cache.
    """
    mrc = mrc_from_trace(small_harness.trace("ocean"))
    capped = select_cache_size(mrc, SelectionPolicy(max_size=50))
    uncapped = select_cache_size(mrc, SelectionPolicy(max_size=400))
    assert capped <= 50
    w = small_harness.workload("ocean")
    r_capped = run(w, "SC-offline", sc_fixed_size=capped)
    r_big = run(w, "SC-offline", sc_fixed_size=max(uncapped, 200))
    assert r_big.flush_ratio < r_capped.flush_ratio
    assert r_big.threads[0].fase_end_flushes > r_capped.threads[0].fase_end_flushes


def test_ablation_burst_length(small_harness):
    """Sampling burst: too short mis-selects, long enough converges
    (Fig. 7's claim quantified)."""
    trace = small_harness.trace("water-spatial")
    full = select_cache_size(mrc_from_trace(trace))
    chosen = {b: select_cache_size(sampled_mrc(trace, b)) for b in (64, 2_048, trace.n)}
    assert chosen[trace.n] == full
    assert abs(chosen[2_048] - full) <= 2


def test_ablation_fase_renaming(small_harness):
    """Disabling the §III-B renaming inflates the apparent reuse.

    The queue rewrites its head/tail anchor lines in every one-operation
    FASE; ignoring FASE boundaries, those look like near-perfect cache
    hits, but the drained write cache can never combine them.  The
    corrected MRC must match what an exact drained LRU cache measures.
    """
    trace = small_harness.trace("queue")          # one tiny FASE per operation
    with_fix = mrc_from_trace(trace, honor_fases=True)
    without = mrc_from_trace(trace, honor_fases=False)
    actual = lru_mrc(trace, [8], honor_fases=True)[0]
    assert without.miss_ratio(8) < actual / 2
    assert with_fix.miss_ratio(8) == pytest.approx(actual, abs=0.1)


def test_ablation_mrc_method_spectrum(small_harness):
    """§III-A's efficiency spectrum on a real evaluation trace.

    Exact stack distance, SHARDS sampling, and the paper's linear-time
    timescale theory must all place water-spatial's knee at the same
    position, within a couple of lines.
    """
    trace = small_harness.trace("water-spatial")
    exact = select_cache_size(exact_mrc(trace))
    assert abs(select_cache_size(small_harness.offline_mrc("water-spatial")) - exact) <= 2
    assert abs(select_cache_size(shards_mrc(trace, rate=0.3)) - exact) <= 4
