"""Calibrated SPLASH2 stand-ins: published ratios must be reproduced."""

import pytest

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.locality.knee import select_cache_size
from repro.locality.mrc import mrc_from_trace
from repro.locality.trace import WriteTrace
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.splash2 import SPLASH2_PROFILES, make_splash2

BUDGET = 60_000   # scaled-down store budget for the test suite


def run(workload, technique, **kw):
    machine = Machine(MachineConfig())
    return machine.run(workload, technique_factory(technique, **kw), num_threads=1, seed=1)


@pytest.fixture(scope="module")
def results():
    """One LA/AT/profile pass per benchmark, shared by the tests."""
    out = {}
    for name, profile in SPLASH2_PROFILES.items():
        w = make_splash2(name, store_budget=BUDGET)
        (batches,) = w.batch_streams(1, 1)
        knee = select_cache_size(
            mrc_from_trace(WriteTrace.from_batches(batches, 0, NVRAM_BASE))
        )
        out[name] = {
            "profile": profile,
            "la": run(w, "LA"),
            "at": run(w, "AT"),
            "sc": run(w, "SC-offline", sc_fixed_size=knee),
            "knee": knee,
        }
    return out


def test_unknown_benchmark_rejected():
    with pytest.raises(ConfigurationError):
        make_splash2("nope")
    with pytest.raises(ConfigurationError):
        make_splash2("barnes", store_budget=10)


@pytest.mark.parametrize("name", sorted(SPLASH2_PROFILES))
def test_store_budget_respected(results, name):
    stores = results[name]["la"].persistent_stores
    assert BUDGET * 0.7 <= stores <= BUDGET * 1.4


@pytest.mark.parametrize("name", sorted(SPLASH2_PROFILES))
def test_at_ratio_matches_paper(results, name):
    r = results[name]
    assert r["at"].flush_ratio == pytest.approx(
        r["profile"].paper_at, rel=0.05
    )


@pytest.mark.parametrize("name", sorted(SPLASH2_PROFILES))
def test_la_ratio_matches_paper(results, name):
    r = results[name]
    assert r["la"].flush_ratio == pytest.approx(
        r["profile"].paper_la, rel=0.25
    )


@pytest.mark.parametrize("name", sorted(SPLASH2_PROFILES))
def test_sc_ratio_matches_paper(results, name):
    r = results[name]
    assert r["sc"].flush_ratio == pytest.approx(
        r["profile"].paper_sc, rel=0.30
    )


@pytest.mark.parametrize("name", sorted(SPLASH2_PROFILES))
def test_selected_size_near_paper(results, name):
    """§IV-G: barnes 15, fmm 10, ocean 2, raytrace 8, volrend 3,
    water-nsquared 28, water-spatial 23 — ours within +-2."""
    r = results[name]
    assert abs(r["knee"] - r["profile"].knee) <= 2


@pytest.mark.parametrize("name", sorted(SPLASH2_PROFILES))
def test_technique_ordering(results, name):
    r = results[name]
    la, at, sc = (
        r["la"].flush_ratio,
        r["at"].flush_ratio,
        r["sc"].flush_ratio,
    )
    assert la <= sc * 1.02          # LA is the floor
    assert sc <= at * 1.02          # SC never loses to AT on flushes


def test_volrend_sc_reaches_lazy_bound(results):
    """Table III: volrend's SC removes every removable flush."""
    r = results["volrend"]
    assert r["sc"].flush_ratio == pytest.approx(r["la"].flush_ratio, rel=0.02)


def test_no_one_size_fits_all(results):
    """§IV-G's point: selected sizes differ across programs."""
    sizes = {r["knee"] for r in results.values()}
    assert len(sizes) >= 5


def test_derived_parameters_sane():
    for profile in SPLASH2_PROFILES.values():
        assert profile.burst >= 1
        assert profile.passes >= 1
        assert profile.work_per_store >= 2
        cfg = profile.tile_config(BUDGET)
        assert cfg.tile_lines == profile.knee
