"""RNG derivation, the timing model, and run statistics."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed, make_rng
from repro.nvram.stats import RunResult, ThreadStats
from repro.nvram.timing import DEFAULT_TIMING, TimingModel


# -- rng ---------------------------------------------------------------------


def test_derive_seed_deterministic():
    assert derive_seed(42, "thread", 0) == derive_seed(42, "thread", 0)


def test_derive_seed_decorrelates():
    seeds = {derive_seed(42, "thread", i) for i in range(64)}
    assert len(seeds) == 64
    assert derive_seed(42, "a") != derive_seed(42, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_derive_seed_label_boundaries():
    # ("ab", "c") must differ from ("a", "bc").
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


def test_make_rng_reproducible():
    a = make_rng(7).integers(0, 1000, size=5)
    b = make_rng(7).integers(0, 1000, size=5)
    assert list(a) == list(b)


# -- timing ------------------------------------------------------------------


def test_default_timing_sane():
    t = DEFAULT_TIMING
    assert t.writeback_service > t.l1_miss > t.l1_hit
    assert t.flush_queue_depth >= 1


def test_timing_validation():
    with pytest.raises(ConfigurationError):
        TimingModel(cpi=0)
    with pytest.raises(ConfigurationError):
        TimingModel(l1_miss=-1)
    with pytest.raises(ConfigurationError):
        TimingModel(flush_queue_depth=0)


@pytest.mark.parametrize(
    "field", ["l1_hit", "l1_miss", "flush_issue", "writeback_service", "flush_queue_depth"]
)
@pytest.mark.parametrize("value", [2.5, 800.0, True, "8", None])
def test_cycle_costs_must_be_ints(field, value):
    """A fractional cost would turn every cycle count into a float, a
    fractional depth into a wrong stall: refused at construction."""
    with pytest.raises(ConfigurationError, match=field):
        TimingModel(**{field: value})
    assert TimingModel(cpi=1.5).cpi == 1.5      # cpi alone stays a float


@pytest.mark.parametrize(
    "cpi", [float("nan"), float("inf"), float("-inf"), 0, -1, True, "1.0"]
)
def test_cpi_is_a_finite_positive_real(cpi):
    """``nan`` and ``inf`` used to construct and then fail inside the
    engine (``int(nan)``, an ``OverflowError``), and ``True`` ran as 1.0."""
    with pytest.raises(ConfigurationError, match="cpi"):
        TimingModel(cpi=cpi)


# -- stats -------------------------------------------------------------------


def make_result(**thread_kwargs):
    t = ThreadStats(thread_id=0, **thread_kwargs)
    return RunResult("w", "T", 1, [t], l1_accesses=10, l1_misses=3)


def test_flush_ratio():
    r = make_result(persistent_stores=100, flushes=25)
    assert r.flush_ratio == 0.25
    assert r.threads[0].flush_ratio == 0.25


def test_flush_ratio_no_stores_is_zero():
    assert make_result().flush_ratio == 0.0
    assert ThreadStats().flush_ratio == 0.0


def test_time_is_slowest_thread():
    a = ThreadStats(thread_id=0, cycles=10)
    b = ThreadStats(thread_id=1, cycles=99)
    r = RunResult("w", "T", 2, [a, b], l1_accesses=0, l1_misses=0)
    assert r.time == 99


def test_l1_miss_ratio():
    assert make_result().l1_miss_ratio == pytest.approx(0.3)
    empty = RunResult("w", "T", 1, [ThreadStats()], l1_accesses=0, l1_misses=0)
    assert empty.l1_miss_ratio == 0.0


def test_speedup_over():
    fast = make_result()
    fast.threads[0].cycles = 50
    slow = make_result()
    slow.threads[0].cycles = 200
    assert fast.speedup_over(slow) == pytest.approx(4.0)


def test_aggregates_sum_threads():
    a = ThreadStats(thread_id=0, persistent_stores=5, flushes=2, instructions=10)
    b = ThreadStats(thread_id=1, persistent_stores=7, flushes=1, instructions=20)
    r = RunResult("w", "T", 2, [a, b], l1_accesses=0, l1_misses=0)
    assert r.persistent_stores == 12
    assert r.flushes == 3
    assert r.instructions == 30


def test_selected_sizes_mapping():
    a = ThreadStats(thread_id=0, selected_sizes=[12])
    r = RunResult("w", "SC", 1, [a], l1_accesses=0, l1_misses=0)
    assert r.selected_sizes == {0: [12]}
