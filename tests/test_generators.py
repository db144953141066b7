"""The tile/burst/wide-loop trace generator."""

import pytest

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.common.events import EventKind, validate_stream
from repro.nvram.machine import Machine, MachineConfig
from repro.workloads.generators import (
    ALIAS_STRIDE_LINES,
    TilePatternConfig,
    TilePatternWorkload,
    WideMode,
)


def cfg(**kw):
    defaults = dict(
        tile_lines=6, burst=4.0, passes=5.0, tiles_per_fase=3, num_fases=4
    )
    defaults.update(kw)
    return TilePatternConfig(**defaults)


def run(workload, technique, threads=1, seed=2, **kw):
    machine = Machine(MachineConfig())
    return machine.run(workload, technique_factory(technique, **kw), num_threads=threads, seed=seed)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        cfg(tile_lines=0)
    with pytest.raises(ConfigurationError):
        cfg(burst=0.5)
    with pytest.raises(ConfigurationError):
        cfg(wide_mode="bogus")
    with pytest.raises(ConfigurationError):
        cfg(wide_mode=WideMode.UNITS, wide_passes=0.5)


@pytest.mark.parametrize(
    "field,value,shown",
    [
        ("work_per_store", -50, "work_per_store must be >= 0, got -50"),
        ("tile_lines", 2.5, "tile_lines must be an int, got 2.5"),
        ("num_fases", 2.5, "num_fases must be an int, got 2.5"),
        ("tiles_per_fase", 1.5, "tiles_per_fase must be an int, got 1.5"),
        ("wide_lines", 0, "wide_lines must be >= 1, got 0"),
        ("work_per_store", True, "work_per_store must be an int, got True"),
    ],
)
def test_counts_are_ints_checked_at_construction(field, value, shown):
    """Caught in ``__post_init__``: not as a negative instruction count,
    nor as a ``TypeError`` from ``range`` once the stream is drawn."""
    with pytest.raises(ConfigurationError, match=f"^{shown}$"):
        cfg(**{field: value})


def test_store_volume_matches_estimate():
    c = cfg()
    w = TilePatternWorkload("t", c)
    res = run(w, "BEST")
    assert res.persistent_stores == pytest.approx(c.approx_total_stores, rel=0.05)


def test_fase_bracketing_is_valid():
    w = TilePatternWorkload("t", cfg())
    events = list(validate_stream(w.streams(1, 0)[0]))
    kinds = [e.kind for e in events]
    assert kinds.count(EventKind.FASE_BEGIN) == 4
    assert kinds.count(EventKind.FASE_END) == 4


def test_la_ratio_equals_inverse_burst_passes():
    """The core calibration identity: LA = 1/(burst * passes)."""
    c = cfg(burst=4.0, passes=5.0)
    res = run(TilePatternWorkload("t", c), "LA")
    assert res.flush_ratio == pytest.approx(1 / 20, rel=0.05)


def test_at_ratio_equals_inverse_burst():
    """Aliased tiles defeat the Atlas table: AT = 1/burst."""
    c = cfg(burst=4.0)
    res = run(TilePatternWorkload("t", c), "AT")
    assert res.flush_ratio == pytest.approx(1 / 4, rel=0.05)


def test_sc_at_tile_size_reaches_lazy_bound():
    c = cfg(tile_lines=6, burst=4.0, passes=5.0)
    w = TilePatternWorkload("t", c)
    la = run(w, "LA").flush_ratio
    sc = run(w, "SC-offline", sc_fixed_size=7).flush_ratio
    assert sc == pytest.approx(la, rel=0.1)


def test_small_sc_only_combines_bursts():
    c = cfg(tile_lines=12, burst=4.0)
    w = TilePatternWorkload("t", c)
    sc = run(w, "SC-offline", sc_fixed_size=2).flush_ratio
    assert sc == pytest.approx(1 / 4, rel=0.1)   # = the AT level


def test_wide_units_raise_sc_but_not_la():
    base = cfg(num_fases=6)
    wide = cfg(
        num_fases=6,
        wide_mode=WideMode.UNITS,
        wide_lines=64,
        wide_passes=3.0,
        wide_units_per_fase=1.0,
    )
    wb, ww = TilePatternWorkload("b", base), TilePatternWorkload("w", wide)
    la_b = run(wb, "LA").flush_ratio
    la_w = run(ww, "LA").flush_ratio
    sc_b = run(wb, "SC-offline", sc_fixed_size=7).flush_ratio
    sc_w = run(ww, "SC-offline", sc_fixed_size=7).flush_ratio
    assert sc_w > sc_b * 2          # wide sweeps all miss in the cache
    assert sc_w > la_w * 1.5        # ... but the lazy bound combines them


def test_alias_layout_stride():
    w = TilePatternWorkload("t", cfg(alias_tiles=True))
    assert w.tile_line(0, 1) - w.tile_line(0, 0) == ALIAS_STRIDE_LINES
    w2 = TilePatternWorkload("t", cfg(alias_tiles=False))
    assert w2.tile_line(0, 1) - w2.tile_line(0, 0) == 1


def test_strong_scaling_total_stores_constant():
    c = cfg(passes=8.0, num_fases=6)
    w = TilePatternWorkload("t", c)
    r1 = run(w, "BEST", threads=1)
    r4 = run(w, "BEST", threads=4)
    assert r4.persistent_stores == pytest.approx(r1.persistent_stores, rel=0.02)
    # FASEs multiply with threads (each thread brackets its block).
    assert r4.fase_count > r1.fase_count


def test_fase_round_robin_when_units_scarce():
    # 1 tile x 1 pass = 1 unit per FASE < 3 threads: deal whole FASEs.
    c = cfg(tiles_per_fase=1, passes=1.0, num_fases=9)
    w = TilePatternWorkload("t", c)
    res = run(w, "BEST", threads=3)
    assert res.fase_count == 9
    assert all(t.fase_count == 3 for t in res.threads)


def test_determinism():
    w = TilePatternWorkload("t", cfg())
    a = run(w, "LA", seed=5)
    b = run(w, "LA", seed=5)
    assert a.flushes == b.flushes
    assert a.time == b.time


def test_wide_fases_mode_emits_dedicated_fases():
    base = cfg(num_fases=8)
    wide = cfg(
        num_fases=8,
        wide_mode=WideMode.FASES,
        wide_lines=64,
        wide_passes=2.0,
        wide_fase_every=1.0,
    )
    rb = run(TilePatternWorkload("b", base), "BEST")
    rw = run(TilePatternWorkload("w", wide), "BEST")
    # One extra (wide) FASE per narrow FASE.
    assert rw.fase_count == pytest.approx(2 * rb.fase_count, abs=2)
    assert rw.persistent_stores > rb.persistent_stores


def test_wide_fases_round_robin_across_threads():
    c = cfg(
        num_fases=12,
        wide_mode=WideMode.FASES,
        wide_lines=64,
        wide_passes=2.0,
        wide_fase_every=1.0,
    )
    res = run(TilePatternWorkload("w", c), "BEST", threads=3)
    # Wide FASEs are dealt across threads: everyone gets some.
    assert all(t.fase_count > 0 for t in res.threads)


def test_wide_fases_gap_visible_to_sc_not_la():
    c = cfg(
        tile_lines=6,
        num_fases=10,
        wide_mode=WideMode.FASES,
        wide_lines=64,
        wide_passes=3.0,
        wide_fase_every=1.0,
    )
    w = TilePatternWorkload("w", c)
    la = run(w, "LA").flush_ratio
    sc = run(w, "SC-offline", sc_fixed_size=7).flush_ratio
    assert sc > la * 1.5
