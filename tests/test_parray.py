"""persistent-array: the analytically exact Table III row.

The paper gives closed-form numbers for this benchmark (§IV-B): total
stores 1 000 001, Atlas flush ratio ≈ 1/16 through spatial combining,
software cache at size 26 collapsing the ratio to ~3e-5.  These tests
assert the *exact* machine-measured values at full and reduced scale.
"""

import pytest

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.locality.knee import select_cache_size
from repro.locality.mrc import mrc_from_trace
from repro.locality.trace import WriteTrace
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.parray import PersistentArray


def run(workload, technique, **kw):
    machine = Machine(MachineConfig())
    return machine.run(workload, technique_factory(technique, **kw), num_threads=1, seed=0)


@pytest.fixture(scope="module")
def parray():
    # 1/10th of the paper's outer iterations: all ratios are identical
    # because the working set repeats every pass.
    return PersistentArray(outer=250)


def test_store_count_formula(parray):
    assert parray.total_stores == 250 * 400 + 1
    assert PersistentArray().total_stores == 1_000_001


def test_working_set_lines():
    assert PersistentArray(aligned=True).working_set_lines == 25
    assert PersistentArray(aligned=False).working_set_lines == 26


def test_machine_counts_match_formula(parray):
    res = run(parray, "BEST")
    assert res.persistent_stores == parray.total_stores
    assert res.fase_count == 1


def test_eager_ratio_is_exactly_one(parray):
    assert run(parray, "ER").flush_ratio == 1.0


def test_atlas_ratio_spatial_combining():
    """Aligned: the table removes exactly 15/16 of flushes -> 1/16."""
    aligned = PersistentArray(outer=250, aligned=True)
    res = run(aligned, "AT")
    # 25 line-visits per pass; the first 8 fill empty slots (no flush);
    # the 8 occupants drain at the FASE end; the flag store conflicts.
    assert res.flushes == 25 * 250 - 8 + 8 + 1
    assert res.flush_ratio == pytest.approx(0.0625, rel=0.01)


def test_atlas_ratio_unaligned(parray):
    res = run(parray, "AT")
    assert res.flushes == 26 * 250 - 8 + 8 + 1
    assert res.flush_ratio == pytest.approx(26 / 400, rel=0.01)


def test_lazy_is_working_set_plus_flag(parray):
    res = run(parray, "LA")
    # 26 array lines + the completion-flag line, flushed once.
    assert res.flushes == 27


def test_sc_offline_matches_lazy_bound(parray):
    res = run(parray, "SC-offline", sc_fixed_size=26)
    # One eviction (the flag displaces an array line) + 26 at the drain.
    assert res.flushes == 27
    assert res.flush_ratio == pytest.approx(27 / parray.total_stores)


def test_offline_selection_picks_26(parray):
    (batches,) = parray.batch_streams(1, 0)
    trace = WriteTrace.from_batches(batches, 0, NVRAM_BASE)
    assert select_cache_size(mrc_from_trace(trace)) == 26


def test_sequential_benchmark_rejects_threads(parray):
    with pytest.raises(ConfigurationError):
        parray.streams(2, 0)


def test_technique_time_ordering(parray):
    """BEST < SC-offline < AT < ER in model time (LA's single FASE makes
    its one drain cheap, so it is excluded from this ordering)."""
    times = {
        t: run(parray, t, **({"sc_fixed_size": 26} if t == "SC-offline" else {})).time
        for t in ("ER", "AT", "SC-offline", "BEST")
    }
    assert times["BEST"] < times["SC-offline"] < times["AT"] < times["ER"]
