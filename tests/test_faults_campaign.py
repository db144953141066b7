"""Fault-injection campaigns end to end: driver, enumerator, oracle, matrix.

The load-bearing properties:

- *soundness of the implementation* — exhaustive campaigns over the real
  workloads find zero violations under every fault model;
- *soundness of the oracle* — deliberately breaking the Atlas write
  ordering (commit record before data drain) IS detected;
- *determinism* — site enumeration, sampled selection and parallel
  fan-out all reproduce bit-identically for a fixed seed.
"""

import dataclasses
import functools
import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.events import FaseBegin, FaseEnd, Load, Store, Work
from repro.faults import campaign
from repro.faults import (
    AtlasReplayDriver,
    CrashMatrix,
    CrashPointEnumerator,
    FaultCampaignSpec,
    check_crash,
    expected_image_at,
    run_campaign,
)
from repro.faults.driver import GoldenRun
from repro.nvram.failure import FAULT_MODELS, SITE_CLASSES
from repro.nvram.memory import NVRAM_BASE
from repro.obs.metrics import MetricsRegistry
from repro.locality.trace import WriteTrace
from repro.workloads.base import TraceWorkload, Workload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.linkedlist import LinkedListWorkload
from repro.workloads.msqueue import QueueWorkload
from repro.workloads.registry import get_workload
from tests.conftest import die_once_in_worker
from tests.crash_reference import replayed_state

PA = NVRAM_BASE


class ListWorkload(Workload):
    """Replays fixed per-thread event lists (same shape as test_machine's)."""

    name = "list"

    def __init__(self, *streams):
        self._streams = [list(s) for s in streams]

    def supports_threads(self, num_threads):
        return num_threads == len(self._streams)

    def streams(self, num_threads, seed):
        return [iter(s) for s in self._streams]


def exhaustive_campaign(workload, **kwargs):
    kwargs.setdefault("spec", FaultCampaignSpec(max_sites=100_000))
    return run_campaign(workload, **kwargs)


# ---------------------------------------------------------------------------
# Exhaustive positive campaigns: atomicity survives every crash point
# ---------------------------------------------------------------------------


def test_linkedlist_two_threads_exhaustive_zero_violations():
    matrix = exhaustive_campaign(
        LinkedListWorkload(elements=16), technique="SC", threads=2
    )
    assert matrix.exhaustive
    assert matrix.ok, matrix.violations[:3]
    assert matrix.injected == matrix.total_sites > 0
    # Every site class fires in this workload (eviction flushes only
    # under cache pressure, so they are optional here).
    classes = {cls for (cls, _model) in matrix.cells}
    assert {"store", "log_append", "commit", "drain"} <= classes


def test_hashtable_exhaustive_zero_violations():
    matrix = exhaustive_campaign("hash", technique="SC", threads=2, scale=0.02)
    # The hash benchmark is single-threaded by construction; the
    # campaign falls back rather than erroring.
    assert matrix.threads == 1
    assert matrix.exhaustive
    assert matrix.ok, matrix.violations[:3]


@pytest.mark.parametrize("model", sorted(FAULT_MODELS))
def test_fault_models_zero_violations(model):
    # A 2-line direct-mapped L1 forces dirty hardware evictions, so the
    # reordered_flush model actually has in-flight write-backs to drop.
    matrix = run_campaign(
        LinkedListWorkload(elements=12),
        technique="SC",
        threads=1,
        spec=FaultCampaignSpec(fault_models=(model,), max_sites=100_000),
        l1_capacity_lines=2,
        l1_ways=1,
    )
    assert matrix.exhaustive
    assert matrix.ok, matrix.violations[:3]


def test_reordered_flush_model_is_not_vacuous():
    """With a tiny L1 some crashes must actually drop in-flight lines."""
    driver = AtlasReplayDriver(
        LinkedListWorkload(elements=12),
        technique="SC",
        l1_capacity_lines=2,
        l1_ways=1,
    )
    golden = driver.golden()
    dropped = 0
    for site in range(0, len(golden.sites), 7):
        state, _layout = driver.crash_at(
            site, fault_model="reordered_flush", fault_seed=site
        )
        dropped += state.dropped_writebacks
    assert dropped > 0


def test_torn_line_model_tears_lines():
    driver = AtlasReplayDriver(LinkedListWorkload(elements=16), technique="SC")
    golden = driver.golden()
    torn = 0
    for site in range(0, len(golden.sites), 5):
        state, _layout = driver.crash_at(
            site, fault_model="torn_line", fault_seed=site
        )
        torn += len(state.torn_lines)
    assert torn > 0


# ---------------------------------------------------------------------------
# Negative control: a broken write ordering must be detected
# ---------------------------------------------------------------------------


def test_commit_before_drain_is_detected():
    matrix = exhaustive_campaign(
        LinkedListWorkload(elements=16),
        technique="SC",
        threads=1,
        commit_before_drain=True,
    )
    assert not matrix.ok
    kinds = {v["kind"] for v in matrix.violations}
    assert "missing_committed" in kinds
    # The violations appear exactly where the ordering bites: after a
    # commit record became durable with data still volatile.
    assert any(v["site_class"] == "commit" for v in matrix.violations)


def test_correct_ordering_has_no_commit_window():
    """The same workload with proper ordering is clean (paired control)."""
    matrix = exhaustive_campaign(
        LinkedListWorkload(elements=16), technique="SC", threads=1
    )
    assert matrix.ok


# ---------------------------------------------------------------------------
# Property: every crash point of a random program recovers to golden
# ---------------------------------------------------------------------------


@st.composite
def small_programs(draw):
    """A random single-thread program of FASEs over a few lines."""
    events = []
    n_fases = draw(st.integers(1, 4))
    for _ in range(n_fases):
        events.append(FaseBegin())
        for _ in range(draw(st.integers(1, 5))):
            line = draw(st.integers(0, 5))
            events.append(Store(PA + 64 * line, 8, draw(st.integers(0, 99))))
            if draw(st.booleans()):
                events.append(Work(draw(st.integers(1, 50))))
            if draw(st.booleans()):
                events.append(Load(PA + 64 * draw(st.integers(0, 5)), 8))
        events.append(FaseEnd())
    return events


@settings(max_examples=15, deadline=None)
@given(small_programs(), st.sampled_from(sorted(FAULT_MODELS)))
def test_every_crash_point_recovers_to_golden(events, model):
    driver = AtlasReplayDriver(
        ListWorkload(events), technique="SC", l1_capacity_lines=2, l1_ways=1
    )
    golden = driver.golden()
    for site in range(len(golden.sites)):
        state, layout = driver.crash_at(site, fault_model=model, fault_seed=site)
        violations = check_crash(golden, site, state, layout)
        assert not violations, (site, model, [v.to_dict() for v in violations])


def test_expected_image_overlays_in_commit_order():
    events = [
        FaseBegin(), Store(PA, 8, "a"), FaseEnd(),
        FaseBegin(), Store(PA, 8, "b"), FaseEnd(),
    ]
    driver = AtlasReplayDriver(ListWorkload(events), technique="SC")
    golden = driver.golden()
    first, second = golden.commit_order
    at_first = expected_image_at(golden, golden.fases[first].commit_site)
    at_second = expected_image_at(golden, golden.fases[second].commit_site)
    addr = next(iter(golden.fases[first].writes))
    assert at_first[addr] == "a"
    assert at_second[addr] == "b"


# ---------------------------------------------------------------------------
# Enumerator: exhaustive vs sampled, determinism, class coverage
# ---------------------------------------------------------------------------


def _synthetic_sites(n, seed=0):
    rng = random.Random(seed)
    return [
        (i, rng.choice(SITE_CLASSES), rng.randrange(2), i * 10)
        for i in range(n)
    ]


def test_enumerator_exhaustive_below_threshold():
    sites = _synthetic_sites(50)
    e = CrashPointEnumerator(sites, max_sites=64)
    assert e.exhaustive
    assert e.select() == sites


def test_enumerator_sampled_selection_is_pinned():
    """The strided-sampled pick for a fixed seed is a regression surface:
    changing it silently changes which crashes every sampled campaign
    injects, so the exact selection is pinned here."""
    sites = _synthetic_sites(400, seed=3)
    e = CrashPointEnumerator(sites, max_sites=24, sample_seed=11)
    assert not e.exhaustive
    picked = [s[0] for s in e.select()]
    assert len(picked) <= 24
    assert picked == sorted(picked)
    assert picked == [s[0] for s in e.select()]  # stable across calls
    pinned = [
        s[0]
        for s in CrashPointEnumerator(
            sites, max_sites=24, sample_seed=11
        ).select()
    ]
    assert picked == pinned
    # Different seed, different interior picks (boundaries still kept).
    other = [
        s[0]
        for s in CrashPointEnumerator(
            sites, max_sites=24, sample_seed=12
        ).select()
    ]
    assert other != picked


def test_enumerator_keeps_class_boundaries():
    sites = _synthetic_sites(400, seed=3)
    picked = CrashPointEnumerator(sites, max_sites=24, sample_seed=0).select()
    by_class = {}
    for s in sites:
        by_class.setdefault(s[1], []).append(s[0])
    picked_idx = {s[0] for s in picked}
    for cls, members in by_class.items():
        assert members[0] in picked_idx, f"{cls} first site dropped"
        assert members[-1] in picked_idx, f"{cls} last site dropped"


def test_enumerator_class_filter_and_validation():
    sites = _synthetic_sites(50)
    only = CrashPointEnumerator(sites, site_classes=("commit",)).select()
    assert only and all(s[1] == "commit" for s in only)
    with pytest.raises(ConfigurationError):
        CrashPointEnumerator(sites, site_classes=("bogus",))
    with pytest.raises(ConfigurationError):
        CrashPointEnumerator(sites, max_sites=0)


# ---------------------------------------------------------------------------
# Campaign plumbing: parallel equivalence, caching, serialization
# ---------------------------------------------------------------------------


def test_parallel_campaign_matches_sequential():
    workload = LinkedListWorkload(elements=12)
    seq = run_campaign(
        workload, technique="SC", spec=FaultCampaignSpec(max_sites=40)
    )
    par = run_campaign(
        workload, technique="SC", spec=FaultCampaignSpec(max_sites=40, jobs=2)
    )
    assert par.to_dict() == seq.to_dict()


_THREE_MODELS = ("torn_line", "clean", "reordered_flush")   # not alphabetical


def test_parallel_campaign_on_registry_workload_matches_sequential(
    monkeypatch, tmp_path
):
    from repro.obs.ledger import RunLedger

    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path))
    kwargs = dict(technique="SC", threads=2, scale=0.01)
    par = run_campaign(
        "linked-list", spec=FaultCampaignSpec(max_sites=30, jobs=2), **kwargs
    )
    assert multiprocessing.active_children() == []
    seq = run_campaign(
        "linked-list", spec=FaultCampaignSpec(max_sites=30, jobs=1), **kwargs
    )
    assert par.to_dict() == seq.to_dict()
    # One ledger record each, and nothing in them depends on the job count.
    first, second = RunLedger(str(tmp_path)).records(kind="campaign")
    assert first.stable_dict() == second.stable_dict()


def test_parallel_campaign_is_one_chunk_per_worker(monkeypatch):
    """One walk of the golden run's journal captures every fault model,
    so a sequential 3-model campaign walks once and a jobs=2 one once per
    chunk — 2 walks — both after the one replay, and both write the same
    matrix."""
    counts = multiprocessing.get_context("fork").Array("i", 2)
    real_replay, real_walk = AtlasReplayDriver._replay, GoldenRun.walk

    def counting(slot, real):
        def spy(self, *args, **kwargs):
            with counts.get_lock():
                counts[slot] += 1
            return real(self, *args, **kwargs)

        return spy

    monkeypatch.setattr(AtlasReplayDriver, "_replay", counting(0, real_replay))
    monkeypatch.setattr(GoldenRun, "walk", counting(1, real_walk))
    workload = LinkedListWorkload(elements=12)
    spec = FaultCampaignSpec(fault_models=_THREE_MODELS, max_sites=40)
    seq = run_campaign(workload, technique="SC", spec=spec)
    assert counts[:] == [1, 1]
    counts[:] = [0, 0]
    par = run_campaign(
        workload, technique="SC", spec=dataclasses.replace(spec, jobs=2)
    )
    assert counts[:] == [1, 2]
    assert par.to_dict() == seq.to_dict()


def test_parallel_campaign_reports_violations_in_sequential_order():
    """The fold is model-major in the *spec's* order, so a campaign that
    does find violations lists them identically at any job count."""
    workload = LinkedListWorkload(elements=12)
    spec = FaultCampaignSpec(fault_models=_THREE_MODELS, max_sites=100_000)
    kwargs = dict(technique="SC", commit_before_drain=True)
    seq = run_campaign(workload, spec=spec, **kwargs)
    par = run_campaign(workload, spec=dataclasses.replace(spec, jobs=2), **kwargs)
    assert seq.violations and par.to_dict() == seq.to_dict()


_REAL_CHUNK_TASK = campaign._crash_chunk_task


def _chunk_task_dying_once(flag, state, chunk, fault_seed):
    die_once_in_worker(flag)
    return _REAL_CHUNK_TASK(state, chunk, fault_seed)


def _chunk_task_raising(state, chunk, fault_seed):
    raise ValueError("boom")


def test_campaign_survives_worker_killed_mid_flight(monkeypatch, tmp_path):
    monkeypatch.setattr(
        campaign,
        "_crash_chunk_task",
        functools.partial(_chunk_task_dying_once, str(tmp_path / "victim")),
    )
    workload = LinkedListWorkload(elements=12)
    spec = FaultCampaignSpec(fault_models=_THREE_MODELS, max_sites=40, jobs=2)
    seen = []
    with pytest.warns(RuntimeWarning, match=r"parent ran \d+ unfinished task"):
        par = run_campaign(
            workload, technique="SC", spec=spec,
            progress=lambda done, total: seen.append((done, total)),
        )
    assert (tmp_path / "victim").exists()
    assert multiprocessing.active_children() == []
    seq = run_campaign(
        workload, technique="SC", spec=dataclasses.replace(spec, jobs=1)
    )
    assert par.to_dict() == seq.to_dict()
    assert seen == [(d, seq.injected) for d in range(1, seq.injected + 1)]


def test_campaign_worker_exception_names_the_chunk(monkeypatch):
    monkeypatch.setattr(campaign, "_crash_chunk_task", _chunk_task_raising)
    with pytest.raises(SimulationError, match=r"crash chunk \d of linked-list") as info:
        run_campaign(
            LinkedListWorkload(elements=12),
            technique="SC",
            spec=FaultCampaignSpec(max_sites=40, jobs=2),
        )
    assert isinstance(info.value.__cause__, ValueError)
    assert "_chunk_task_raising" in str(info.value.__cause__.__cause__)
    assert multiprocessing.active_children() == []


def _chunk_task_garbling(how, state, chunk, fault_seed):
    replies = _REAL_CHUNK_TASK(state, chunk, fault_seed)
    site, model, violations = replies[-1]
    if how == "unknown model":
        replies[-1] = (site, "melted", violations)
    elif how == "foreign site":
        replies[-1] = (site + 1, model, violations)
    elif how == "missing":
        replies.pop()
    elif how == "repeated":
        replies.append(replies[0])
    elif how == "not dicts":
        replies[-1] = (site, model, ["missing_committed"])
    elif how == "not a triple":
        replies[-1] = (site, model)
    else:
        replies = None
    return replies


@pytest.mark.parametrize(
    "how",
    [
        "unknown model", "foreign site", "missing", "repeated", "not dicts",
        "not a triple", "not a list",
    ],
)
def test_a_chunk_that_replies_garbage_is_named(monkeypatch, how):
    """A chunk must reply exactly once per site and model it was given,
    each verdict a list of dicts; anything else stops the campaign with
    an error naming the chunk, never a matrix folded from it."""
    monkeypatch.setattr(
        campaign, "_crash_chunk_task", functools.partial(_chunk_task_garbling, how)
    )
    with pytest.raises(SimulationError, match=r"^crash chunk \d of linked-list \(\d+ injections\): "):
        run_campaign(
            LinkedListWorkload(elements=12),
            technique="SC",
            spec=FaultCampaignSpec(fault_models=_THREE_MODELS, max_sites=40, jobs=2),
        )
    assert multiprocessing.active_children() == []


def test_campaign_result_caches(tmp_path):
    kwargs = dict(
        technique="SC",
        scale=0.02,
        spec=FaultCampaignSpec(max_sites=16),
        cache_dir=str(tmp_path),
    )
    first = run_campaign("linked-list", **kwargs)
    calls = []
    second = run_campaign(
        "linked-list", progress=lambda d, t: calls.append(d), **kwargs
    )
    assert second.to_dict() == first.to_dict()
    assert not calls  # served from the cache: no crashes re-injected


def test_the_campaign_cache_keys_on_technique_options(tmp_path):
    """A campaign at one SC-offline size must not answer for another."""
    kwargs = dict(
        technique="SC-offline",
        scale=0.01,
        spec=FaultCampaignSpec(max_sites=4),
    )
    size = lambda n: {"technique_options": {"sc_fixed_size": n}}
    cache = {"cache_dir": str(tmp_path)}
    run_campaign("hash", **size(1), **cache, **kwargs)
    cached = run_campaign("hash", **size(64), **cache, **kwargs)
    fresh = run_campaign("hash", **size(64), **kwargs)
    assert cached.to_dict() == fresh.to_dict()


def test_matrix_roundtrip_and_markdown():
    matrix = exhaustive_campaign(
        LinkedListWorkload(elements=12), technique="SC", threads=1
    )
    again = CrashMatrix.from_dict(matrix.to_dict())
    assert again.to_dict() == matrix.to_dict()
    md = matrix.to_markdown()
    assert "zero violations" in md
    assert "| commit |" in md.replace("| commit ", "| commit ")
    with pytest.raises(ConfigurationError):
        CrashMatrix.from_dict({"schema": -1})


def test_crash_at_unreachable_site_errors():
    driver = AtlasReplayDriver(ListWorkload([FaseBegin(), Store(PA, 8, 1), FaseEnd()]))
    golden = driver.golden()
    with pytest.raises(SimulationError):
        driver.crash_at(len(golden.sites) + 10)


def test_crash_at_a_negative_site_is_refused():
    """-1 used to be an IndexError out of the site log."""
    driver = AtlasReplayDriver(ListWorkload([FaseBegin(), Store(PA, 8, 1), FaseEnd()]))
    with pytest.raises(ConfigurationError, match="crash site must be >= 0, got -1"):
        driver.crash_at(-1)


def test_sweep_to_a_negative_site_is_refused():
    """-1 was the machine's "no target left" sentinel, so a sweep to it
    delivered nothing and passed."""
    driver = AtlasReplayDriver(LinkedListWorkload(elements=12), technique="SC")
    seen = []
    with pytest.raises(ConfigurationError, match="crash site must be >= 0, got -1"):
        driver.crash_sweep([-1], ("clean",), 0, seen.append)
    assert seen == []


def test_sweep_without_fault_models_is_refused():
    """No model used to mean a sweep that delivered no state at all."""
    driver = AtlasReplayDriver(LinkedListWorkload(elements=12), technique="SC")
    seen = []
    with pytest.raises(ConfigurationError, match=r"one or more of .*, got \(\)"):
        driver.crash_sweep([1], (), 0, seen.append)
    assert seen == []


def test_sweep_unreachable_site_names_first_unfired():
    driver = AtlasReplayDriver(ListWorkload([FaseBegin(), Store(PA, 8, 1), FaseEnd()]))
    total = len(driver.golden().sites)
    seen = []
    with pytest.raises(SimulationError, match=f"crash site {total + 3} never fired"):
        driver.crash_sweep(
            [0, total - 1, total + 3, total + 9], ("clean",), 0, seen.append
        )
    # The reachable targets were still delivered before the run ended.
    assert [state.at_site for state in seen] == [0, total - 1]


def test_sweep_on_crash_exception_propagates():
    """The sweep swallows nothing — a failing callback (an
    oracle bug, a broken progress sink) must surface as itself, at the
    site that raised it."""
    driver = AtlasReplayDriver(LinkedListWorkload(elements=12), technique="SC")
    seen = []

    def on_crash(state):
        seen.append(state.at_site)
        if state.at_site == 5:
            raise KeyError("oracle bug")

    with pytest.raises(KeyError, match="oracle bug"):
        driver.crash_sweep([2, 5, 9], ("clean",), 0, on_crash)
    assert seen == [2, 5]


def test_a_sweeps_closing_failure_still_dumps_every_threads_counters():
    """Final counters land for every thread whether the replay finished
    or the power failed (the replay used to dump a thread's only when it
    reached its stream's end)."""

    def replayed(crash_site=None):
        registry = MetricsRegistry()
        driver = AtlasReplayDriver(
            LinkedListWorkload(elements=16), technique="SC", num_threads=2,
            metrics=registry,
        )
        if crash_site is None:
            return registry, len(driver.golden().sites)
        return registry, replayed_state(driver, crash_site)

    whole, total = replayed()
    cut, state = replayed(total // 2)
    assert state.at_site == total // 2
    assert set(cut.gauges) == set(whole.gauges) == {"cycles/t0", "cycles/t1"}
    assert set(cut.counters) == set(whole.counters)
    # Both threads had started and neither was done.
    for tid in (0, 1):
        key = f"persistent_stores/t{tid}"
        assert 0 < cut.counters[key] < whole.counters[key]


def test_sweep_rejects_unordered_sites():
    driver = AtlasReplayDriver(LinkedListWorkload(elements=12), technique="SC")
    with pytest.raises(ConfigurationError, match="ascend"):
        driver.crash_sweep([4, 4], ("clean",), 0, lambda state: None)


# ---------------------------------------------------------------------------
# Single-pass sweeps: exactly the states one replay per site produces
# ---------------------------------------------------------------------------


def _layout_facts(layout):
    return (
        [(r.name, r.base, r.size) for r in layout.regions],
        [r.name for r in layout.log_regions],
    )


@pytest.mark.parametrize("l1", [{}, {"l1_capacity_lines": 2, "l1_ways": 1}])
@pytest.mark.parametrize(
    "workload, technique, threads, options",
    [
        (LinkedListWorkload(elements=12), "SC", 2, {}),
        (HashTableWorkload(elements=12), "SC+victim:4", 1, {}),
        (QueueWorkload(operations=12), "AT", 2, {}),
        # A 2-line software cache: victim overflow flushes are sites too.
        (
            LinkedListWorkload(elements=12),
            "SC-offline+victim:4",
            1,
            {"sc_fixed_size": 2},
        ),
    ],
    ids=["linked-list", "hash-composed", "queue", "linked-list-evicting"],
)
def test_sweep_states_equal_crash_at_for_every_site(
    workload, technique, threads, options, l1
):
    """A one-model sweep and ``crash_at`` both equal the reference replay
    at every site.  The 2-line direct-mapped L1 variant forces dirty
    hardware evictions, so ``reordered_flush`` has write-backs to drop."""
    driver = AtlasReplayDriver(
        workload,
        technique=technique,
        num_threads=threads,
        technique_options=options,
        **l1,
    )
    sites = range(len(driver.golden().sites))
    fault_seed = 3
    for model in FAULT_MODELS:
        swept = []
        sweep_layout = driver.crash_sweep(sites, (model,), fault_seed, swept.append)
        assert [state.at_site for state in swept] == list(sites)
        for site, state in zip(sites, swept):
            want = replayed_state(driver, site, model, fault_seed + site)
            single, layout = driver.crash_at(
                site, fault_model=model, fault_seed=fault_seed + site
            )
            assert state == single == want, (site, model)
            assert _layout_facts(layout) == _layout_facts(sweep_layout)


@pytest.mark.parametrize(
    "workload, technique, threads",
    [
        (LinkedListWorkload(elements=8), "SC", 2),
        (HashTableWorkload(elements=8), "SC", 1),
        (LinkedListWorkload(elements=8), "SC+victim:4", 2),
    ],
    ids=["linked-list@2", "hash", "linked-list@2-victim"],
)
def test_one_sweep_captures_every_model_as_crash_at_does(workload, technique, threads):
    """At each site a multi-model sweep takes one image per model in
    spec order, each seeded as the reference replay is, with in-flight
    write-backs recorded for all of them — and every state equals that
    replay's for its site and model.  The 2-line direct-mapped L1 gives
    ``reordered_flush`` and ``torn_line`` work to do."""
    driver = AtlasReplayDriver(
        workload, technique=technique, num_threads=threads,
        l1_capacity_lines=2, l1_ways=1,
    )
    sites = range(len(driver.golden().sites))
    swept = []
    driver.crash_sweep(sites, _THREE_MODELS, 3, swept.append)
    assert [(s.at_site, s.fault_model) for s in swept] == [
        (site, model) for site in sites for model in _THREE_MODELS
    ]
    for state in swept:
        want = replayed_state(
            driver, state.at_site, state.fault_model, 3 + state.at_site
        )
        assert state == want, (state.at_site, state.fault_model)
    assert any(s.dropped_writebacks for s in swept)
    assert any(s.torn_lines for s in swept)


#: More dirty evictions inside one FASE than a flush queue holds.
_LONG_FASE = [FaseBegin()] + [Store(PA + 64 * i, 8, i) for i in range(12)] + [FaseEnd()]
#: Volatile lines dirty in the L1, and a store spanning two lines.
_VOLATILE_AND_SPANNING = [
    FaseBegin(), Store(PA, 8, "a"), Store(64, 8), Store(PA + 60, 8, "b"), FaseEnd(),
    Store(128, 8), FaseBegin(), Store(PA + 64, 8, "c"), Load(PA + 128, 8), FaseEnd(),
]


@pytest.mark.parametrize(
    "workload, kwargs",
    [
        (LinkedListWorkload(elements=6), dict(technique="SC", num_threads=2)),
        (LinkedListWorkload(elements=6), dict(technique="SC", num_threads=3)),
        (HashTableWorkload(elements=5), dict(technique="SC")),
        (QueueWorkload(operations=6), dict(technique="AT", num_threads=2)),
        (LinkedListWorkload(elements=6), dict(technique="SC+victim:4", num_threads=2)),
        (
            LinkedListWorkload(elements=6),
            dict(technique="SC", num_threads=2, commit_before_drain=True),
        ),
        (
            LinkedListWorkload(elements=6),
            dict(
                technique="SC-offline", num_threads=2, technique_options={"sc_fixed_size": 1},
                l1_capacity_lines=2, l1_ways=1,
            ),
        ),
        (ListWorkload(_LONG_FASE), dict(technique="SC", l1_capacity_lines=2, l1_ways=1)),
        (ListWorkload(_VOLATILE_AND_SPANNING), dict(technique="SC")),
    ],
    ids=[
        "linked-list@2", "linked-list@3", "hash", "queue-AT@2", "SC+victim:4",
        "commit-before-drain", "2-line-L1", "long-FASE", "volatile-and-spanning",
    ],
)
def test_a_journal_cut_equals_a_replay(workload, kwargs):
    """Every field of every state a three-model sweep cuts from the
    journal equals the reference replay's, at every site: threads
    interleaving, the broken write
    ordering, a one-line software cache evicting lines the L1 already
    wrote back, a thread with more write-backs in flight than its queue
    holds, and volatile lines dirty beside a store spanning two lines."""
    driver = AtlasReplayDriver(workload, **kwargs)
    sites = range(len(driver.golden().sites))
    swept = []
    driver.crash_sweep(sites, FAULT_MODELS, 5, swept.append)
    assert [(s.at_site, s.fault_model) for s in swept] == [
        (site, model) for site in sites for model in FAULT_MODELS
    ]
    for state in swept:
        want = replayed_state(driver, state.at_site, state.fault_model, 5 + state.at_site)
        assert state == want, (state.at_site, state.fault_model)


def test_campaign_progress_streams_in_sweep_order(monkeypatch):
    workload = LinkedListWorkload(elements=12)
    spec = FaultCampaignSpec(
        fault_models=("torn_line", "clean"), max_sites=100_000
    )
    judged, seen = [], []
    real = campaign.SweepJudge.__call__

    def judging(judge, site, model, overlay):
        judged.append((model, site))
        return real(judge, site, model, overlay)

    monkeypatch.setattr(campaign.SweepJudge, "__call__", judging)
    matrix = run_campaign(
        workload,
        technique="SC",
        spec=spec,
        progress=lambda done, total: seen.append((done, total, len(judged))),
    )
    total = 2 * matrix.total_sites
    # One call per judged crash, right after its verdict.
    assert seen == [(d, total, d) for d in range(1, total + 1)]
    # Site-major as the one sweep captures them: sites ascending, every
    # model at a site in the spec's order.
    every_site = list(range(matrix.total_sites))
    assert judged == [
        (model, site) for site in every_site for model in spec.fault_models
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_mdb_exhaustive_all_fault_models_zero_violations(threads):
    """Every durability point of the B+tree/MVCC store under a composed
    spec, under every fault model — affordable only as single-pass
    sweeps (one replay per site took minutes)."""
    matrix = run_campaign(
        "mdb",
        technique="SC+victim:16",
        threads=threads,
        scale=0.002,
        spec=FaultCampaignSpec(fault_models=FAULT_MODELS, max_sites=10**9),
    )
    assert matrix.threads == threads
    assert matrix.exhaustive
    assert matrix.ok, matrix.violations[:3]
    assert matrix.injected == 3 * matrix.total_sites > 6000
    assert {cls for (cls, _model) in matrix.cells} == set(SITE_CLASSES)
    # ... over a stream that has something to lose: the replay sees the
    # store's payloads, every put's (key, value) among them.
    workload = get_workload("mdb", scale=0.002)
    golden = AtlasReplayDriver(
        workload, technique="SC+victim:16", num_threads=threads
    ).golden()
    written = [v for f in golden.fases.values() for v in f.writes.values()]
    assert None not in written
    pairs = {v for v in written if isinstance(v[0], int) and v[1] == v[0] * 3 + 1}
    assert len(pairs) >= workload.pairs


def test_campaign_over_a_payload_free_stream_is_refused():
    """The oracle reads a ``None`` payload as "absent", so a campaign
    over stores that carry no values would pass whatever recovery did."""
    trace = WriteTrace([0, 1, 0, 2], [0, 0, 1, 1])
    with pytest.raises(ConfigurationError, match="'trace'.*no payloads"):
        run_campaign(TraceWorkload([trace]), technique="SC", threads=1)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        FaultCampaignSpec(fault_models=("bogus",))
    with pytest.raises(ConfigurationError):
        FaultCampaignSpec(jobs=0)


def test_spec_with_no_site_class_is_refused():
    """An empty filter read as no filter: every site got injected, under
    a second cache key for the same campaign."""
    with pytest.raises(ConfigurationError, match=r"site classes \(\)"):
        FaultCampaignSpec(site_classes=())


def test_spec_with_a_repeated_site_class_is_refused():
    with pytest.raises(ConfigurationError, match=r"site classes \('commit', 'commit'\)"):
        FaultCampaignSpec(site_classes=("commit", "commit"))


def test_spec_with_a_fractional_max_sites_is_refused():
    """2.5 used to run, injecting 8 sites."""
    with pytest.raises(ConfigurationError, match="max_sites must be an int, got 2.5"):
        FaultCampaignSpec(max_sites=2.5)


def test_spec_without_fault_models_is_refused():
    """No model means no injection: a matrix of 0 crashes reading ok."""
    with pytest.raises(ConfigurationError, match="no fault models"):
        FaultCampaignSpec(fault_models=())


def test_spec_with_a_repeated_fault_model_is_refused():
    """One sweep takes each model once per site; a repeat is named up
    front, not left to fail deep in the machine."""
    with pytest.raises(ConfigurationError, match=r"\['clean'\] are listed more than once"):
        FaultCampaignSpec(fault_models=("clean", "torn_line", "clean"))


def test_sweep_refuses_a_bare_model_name():
    """A string is not a tuple of models (it would sweep one per letter)."""
    driver = AtlasReplayDriver(LinkedListWorkload(elements=12), technique="SC")
    with pytest.raises(ConfigurationError, match="must be a tuple"):
        driver.crash_sweep([1], "clean", 0, lambda state: None)


# ---------------------------------------------------------------------------
# Composed policy specs under crash injection
# ---------------------------------------------------------------------------


def test_composed_spec_campaign_zero_violations():
    """The victim stage stays crash-safe: its overflow flushes are
    injectable sites, and recovery still restores every FASE."""
    matrix = exhaustive_campaign(
        LinkedListWorkload(elements=12),
        technique="SC-offline+victim:4",
        threads=1,
        technique_options={"sc_fixed_size": 2},
    )
    assert matrix.technique == "SC-offline+victim:4"
    assert matrix.exhaustive
    assert matrix.ok, matrix.violations[:3]
    assert matrix.injected == matrix.total_sites > 0


_FOUR_CLASSES = {"store", "log_append", "commit", "drain"}


@pytest.mark.parametrize(
    "technique, options, classes",
    [
        # Neither workload's FASEs outgrow cache + victim buffer: no
        # stage flush is a site here, as under plain SC.
        ("SC+victim:4", {}, _FOUR_CLASSES),
        # A one-line cache over a one-line victim buffer: victim overflow
        # flushes are sites too — all five classes.
        ("SC-offline+victim:1", {"sc_fixed_size": 1}, set(SITE_CLASSES)),
    ],
    ids=["victim4", "one-line"],
)
@pytest.mark.parametrize(
    "workload",
    [QueueWorkload(operations=48), LinkedListWorkload(elements=32)],
    ids=["queue", "linked-list"],
)
def test_two_thread_composed_spec_all_fault_models_zero_violations(
    workload, technique, options, classes
):
    matrix = run_campaign(
        workload,
        technique=technique,
        threads=2,
        technique_options=options,
        spec=FaultCampaignSpec(fault_models=FAULT_MODELS, max_sites=10**9),
    )
    assert (matrix.technique, matrix.threads) == (technique, 2)
    assert matrix.exhaustive
    assert matrix.ok, matrix.violations[:3]
    assert matrix.injected == 3 * matrix.total_sites > 1000
    # Every site class the run has, under every fault model.
    assert set(matrix.cells) == {(c, m) for c in classes for m in FAULT_MODELS}
