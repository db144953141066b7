"""The victim cache behind SC: unit behaviour and end-to-end equivalence."""

import pytest

from repro import api
from repro.cache.policies import SoftwareCacheTechnique, VictimCacheTechnique
from repro.cache.spec import REMOVED_STAGES, TechniqueSpec, technique_factory
from repro.common.errors import ConfigurationError
from repro.experiments.harness import Harness, HarnessConfig
from repro.faults.campaign import run_campaign


class FakePort:
    """Records the flush calls a technique makes (no flush queue)."""

    def __init__(self):
        self.async_calls = []     # (line, category)
        self.sync_calls = []      # (lines tuple, category)
        self.current_fase_id = 0
        self.thread_id = 0

    def flush_async(self, line, category="eviction"):
        self.async_calls.append((line, category))

    def flush_sync(self, lines, category="fase_end"):
        self.sync_calls.append((tuple(lines), category))

    def add_adaptation_cost(self, cycles):
        pass

    def record_selected_size(self, size):
        pass

    def record_event(self, kind, a=0, b=0):
        pass


def staged(spec, sc_fixed_size=4):
    t = technique_factory(spec, sc_fixed_size=sc_fixed_size)(0)
    port = FakePort()
    t.bind(port)
    return t, port


# -- unit behaviour ------------------------------------------------------


def test_victim_catches_evictions_and_rescues_restores():
    t, port = staged("SC-offline+victim:4", sc_fixed_size=2)
    for line in (1, 2, 3):            # 3 evicts 1 -> victim, no flush
        t.on_store(line)
    assert port.async_calls == []
    assert 1 in t._victim
    t.on_store(1)                     # rescue: back into SC, still no flush
    assert 1 not in t._victim
    assert 1 in t.cache
    assert port.async_calls == []


def test_victim_overflow_flushes_oldest():
    t, port = staged("SC-offline+victim:1", sc_fixed_size=1)
    for line in (1, 2, 3):            # evictions: 1 parks, then 2 pushes 1 out
        t.on_store(line)
    assert port.async_calls == [(1, "victim")]


def test_victim_drains_at_fase_end_and_finish():
    t, port = staged("SC-offline+victim:4", sc_fixed_size=1)
    t.on_store(1)
    t.on_store(2)                     # 1 parked in victim
    t.on_fase_end()
    assert port.sync_calls[-1] == ((1,), "fase_end")
    t.on_store(3)
    t.on_store(4)                     # 3 parked
    t.finish()
    assert port.sync_calls[-1] == ((3,), "final")


def test_insert_returns_the_victim_it_displaces():
    """The victim cache is a buffer: ``insert`` parks what SC evicts and
    hands back the oldest victim that overflows, for the machine to flush
    (category ``victim``); it flushes nothing itself."""
    t, port = staged("SC-offline+victim:1", sc_fixed_size=1)
    assert (t.flush_category, t.levels) == ("victim", 2)
    assert t.insert(1) is None
    assert t.insert(2) is None        # 1 parks
    assert t.insert(3) == 1           # 2 parks, displacing 1
    assert list(t._victim) == [2]
    assert port.async_calls == [] and port.sync_calls == []


def test_a_restore_rescues_its_line():
    t, port = staged("SC-offline+victim:2", sc_fixed_size=1)
    t.insert(1)
    t.insert(2)                       # 1 parks
    assert t.insert(1) is None        # 1 back in the base, 2 parks
    assert list(t._victim) == [2] and 1 in t.cache
    assert port.async_calls == []


def test_a_resize_eviction_parks():
    """SC's resize parks the lines it evicts too, and flushes the victim
    one displaces."""
    t, port = staged("SC-offline+victim:1", sc_fixed_size=4)
    for line in (1, 2, 3):
        t.insert(line)
    t._resize(1)                      # evicts 1 then 2: 1 parks, 2 displaces it
    assert list(t._victim) == [2] and 3 in t.cache and len(t.cache) == 1
    assert port.async_calls == [(1, "victim")]


@pytest.mark.parametrize("category", ["fase_end", "final"])
def test_a_commit_drains_the_base_then_the_victims(category):
    """Two levels, one flush train each: the cache, then the victims —
    and the victims alone when the cache is empty."""
    t, port = staged("SC-offline+victim:4", sc_fixed_size=2)
    commit = t.on_fase_end if category == "fase_end" else t.finish
    for line in (1, 2, 3):            # 1 parks; 2 and 3 stay in the base
        t.insert(line)
    commit()
    assert port.sync_calls == [((2, 3), category), ((1,), category)]
    assert not t.drain() and not t.drain()
    for line in (4, 5, 6):            # 4 parks
        t.insert(line)
    assert list(t.drain()) == [5, 6]  # the base level, drained by hand
    port.sync_calls.clear()
    commit()
    assert port.sync_calls == [((4,), category)]


def test_cost_per_store_adds_stage_bookkeeping():
    bare = technique_factory("SC")(0)
    t, _ = staged("SC+victim:4")
    assert t.cost_per_store == bare.cost_per_store + 3


# -- end-to-end equivalence (degenerate specs ≡ plain SC) ---------------


@pytest.fixture(scope="module")
def harness():
    return Harness(HarnessConfig(scale=0.05, seed=0))


@pytest.mark.parametrize("degenerate", ["SC+victim:0"])
def test_degenerate_specs_bit_identical_to_sc(harness, degenerate):
    base = harness.run("queue", "SC")
    staged_result = harness.run("queue", degenerate)
    base_doc = base.to_dict()
    staged_doc = staged_result.to_dict()
    # The technique label keeps the canonical spec string; every counter
    # must match bit for bit.
    staged_doc["technique"] = base_doc["technique"]
    assert staged_doc == base_doc


def test_composed_run_attributes_stage_flushes(harness):
    r = harness.run("hash", "SC+victim:16")
    assert sum(t.victim_flushes for t in r.threads) > 0
    # Flush accounting identity: categories sum to the total; the
    # removed stages' counters stay in the schema, always zero.
    assert sum(t.clean_flushes + t.bypass_flushes for t in r.threads) == 0
    for t in r.threads:
        assert t.flushes == (
            t.eviction_flushes + t.fase_end_flushes + t.eager_flushes
            + t.log_flushes + t.final_flushes + t.victim_flushes
        )


def test_staged_runs_from_every_base_entry_point(harness):
    """The same composed spec works via harness, api and factory."""
    spec = "SC+victim:8"
    r1 = harness.run("queue", spec)
    r2 = api.run(
        api.RunSpec(workload="queue", technique=spec, scale=0.05, seed=0)
    )
    assert r1.to_dict() == r2.to_dict()
    t = technique_factory(TechniqueSpec.parse(spec))(0)
    assert isinstance(t, VictimCacheTechnique)
    assert isinstance(t, SoftwareCacheTechnique)


def test_a_default_victim_shares_its_cache_entries(tmp_path, monkeypatch):
    """``SC+victim`` is ``SC+victim:16``: one ``Harness.run`` entry, one
    ``ResultCache`` key, and one simulation between them."""
    from repro.experiments.cache import ResultCache

    executed = []
    execute = Harness.execute

    def counted(self, name, technique, threads=1, **kwargs):
        executed.append(technique)
        return execute(self, name, technique, threads, **kwargs)

    monkeypatch.setattr(Harness, "execute", counted)
    config = HarnessConfig(scale=0.05, seed=0)
    harness = Harness(config, cache_dir=str(tmp_path))
    first = harness.run("queue", "SC+victim")
    assert harness.run("queue", "SC+victim:16") is first
    assert list(harness._runs) == [("queue", "SC+victim:16", 1)]
    key, raw = (
        ResultCache.key(config, "run", name="queue", technique=t, threads=1)
        for t in ("SC+victim:16", "SC+victim")
    )
    assert (tmp_path / f"{key}.json").exists() and not (tmp_path / f"{raw}.json").exists()
    fresh = Harness(config, cache_dir=str(tmp_path)).run("queue", "SC+victim")
    assert fresh.to_dict() == first.to_dict()
    assert executed == ["SC+victim:16"]


# -- the removed stages are named at every entry point -------------------


def _cli_exit(argv, capsys):
    from repro.experiments.__main__ import main

    assert main(argv) == 2
    raise ConfigurationError(capsys.readouterr().err)


#: Entry point -> how it takes the stage ``name`` (raises on a bad spec).
_ENTRY_POINTS = {
    "parse": lambda name, capsys: TechniqueSpec.parse(f"SC+{name}:2"),
    "RunSpec": lambda name, capsys: api.RunSpec(
        workload="queue", technique=f"SC+{name}:2"
    ),
    "cli_technique": lambda name, capsys: _cli_exit(
        ["run", "--technique", f"SC+{name}:2"], capsys
    ),
    "cli_techniques": lambda name, capsys: _cli_exit(
        ["crashmatrix", "--techniques", f"SC,SC+{name}:2"], capsys
    ),
    "run_campaign": lambda name, capsys: run_campaign(
        "queue", technique=f"SC+{name}:2"
    ),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("name", REMOVED_STAGES)
def test_removed_stage_is_named_at_every_entry_point(name, entry, capsys):
    with pytest.raises(ConfigurationError) as info:
        _ENTRY_POINTS[entry](name, capsys)
    message = str(info.value)
    assert f"policy stage {name!r}" in message and "was removed" in message
    assert "unknown policy stage" not in message
