"""The oracle against the stateless oracle it replaced.

``check_crash`` judges a crashed image in one log scan against a golden
truth it advances along the sweep, and accepts a clean image without
naming a single address.  ``reference_check_crash`` below is the oracle
as it was before any of that: the committed overlay rebuilt from FASE 0
through ``committed_by``, the log rescanned for the undo entries and
again inside ``recover``, every protected address compared in Python.
Slow, stateless, obviously the three invariants — so it is the spec.
Every verdict list must equal its own, element for element, whatever
order sites are visited in, on sound runs, on a run with the write
ordering broken, and on images mutilated beyond what any fault model
does.  The images judged are the sweep's journal cuts, as a campaign
judges them; every k-th is held to a fresh replay's first.
"""

import dataclasses
import pickle
import random

import pytest

from repro.atlas.log import KIND_UNDO, LOG_SLOT_BYTES, LogRecord, UndoLog
from repro.atlas.recovery import recover
from repro.common.errors import RecoveryError, SimulationError
from repro.common.events import FaseBegin, FaseEnd, Store
from repro.faults import (
    AtlasReplayDriver,
    FaultCampaignSpec,
    check_crash,
    expected_image_at,
    run_campaign,
)
from repro.faults.oracle import (
    V_LEAKED_UNCOMMITTED,
    V_LOG_BEFORE_DATA,
    V_MISSING_COMMITTED,
    V_RECOVERY_ERROR,
    V_WRONG_VALUE,
    OracleViolation,
)
from repro.nvram.failure import FAULT_MODELS
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.linkedlist import LinkedListWorkload
from repro.workloads.msqueue import QueueWorkload
from repro.workloads.registry import get_workload
from tests.test_faults_campaign import ListWorkload, replayed_state


def reference_check_crash(golden, site, state, layout=None):
    """The oracle before the single scan, the cursor and the fast accept."""
    if layout is None:
        layout = golden.layout
    site_class = golden.site_class(site)
    fault_model = state.fault_model
    violations = []

    expected = expected_image_at(golden, site)
    committed = set(golden.committed_by(site))
    undo_entries = set()
    for region in layout.log_regions:
        for record in UndoLog.scan(state.nvram, region.base, region.size):
            if record.kind == KIND_UNDO:
                undo_entries.add((record.fase_id, record.addr))
    for uid, record in golden.fases.items():
        if uid in committed or record.begin_site > site:
            continue  # committed, or not yet begun at the crash
        for addr, values in record.all_values.items():
            if addr in golden.unprotected:
                continue
            leaked = state.nvram.get(addr)
            if leaked is None or leaked not in values:
                continue
            if leaked == expected.get(addr):
                continue  # indistinguishable from the committed value
            if (uid, addr) not in undo_entries:
                violations.append(
                    OracleViolation(
                        kind=V_LOG_BEFORE_DATA,
                        site=site,
                        site_class=site_class,
                        fault_model=fault_model,
                        addr=addr,
                        fase=uid,
                        actual=leaked,
                        detail="in-flight value durable without its undo record",
                    )
                )

    try:
        report = recover(state, layout)
    except RecoveryError as exc:
        violations.append(
            OracleViolation(
                kind=V_RECOVERY_ERROR,
                site=site,
                site_class=site_class,
                fault_model=fault_model,
                detail=str(exc),
            )
        )
        return violations

    checked = set()
    for record in golden.fases.values():
        checked.update(record.writes)
    checked -= golden.unprotected
    for addr in sorted(checked):
        exp = expected.get(addr)
        act = report.nvram.get(addr)
        if exp == act:
            continue
        if exp is not None and act is None:
            kind = V_MISSING_COMMITTED
        elif exp is None and act is not None:
            kind = V_LEAKED_UNCOMMITTED
        else:
            kind = V_WRONG_VALUE
        violations.append(
            OracleViolation(
                kind=kind,
                site=site,
                site_class=site_class,
                fault_model=fault_model,
                addr=addr,
                expected=exp,
                actual=act,
            )
        )
    return violations


# ---------------------------------------------------------------------------
# Configurations and helpers
# ---------------------------------------------------------------------------

#: name -> (workload, technique, threads, mutilation stride).
CASES = {
    "linked-list@2": (lambda: LinkedListWorkload(elements=16), "SC", 2, 1),
    "hash": (lambda: HashTableWorkload(elements=12), "SC", 1, 1),
    "queue@2": (lambda: QueueWorkload(operations=12), "SC", 2, 1),
    "mdb@2": (lambda: get_workload("mdb", scale=0.002), "SC+victim:16", 2, 5),
}


#: Every k-th swept state is held to the reference replay (one replay per
#: site and model is quadratic in the sites; mdb@2 has over 2,000).
REPLAY_STRIDE = {"mdb@2": 128}


def make_driver(case, **kwargs):
    workload, technique, threads, _stride = CASES[case]
    return AtlasReplayDriver(
        workload(), technique=technique, num_threads=threads, **kwargs
    )


def swept_states(case, driver, golden, model):
    """The crashed image at every site, as a campaign's sweep cuts them
    (``fault_seed`` 0, so each site's fault is seeded with its index),
    every k-th of them checked against the reference replay's."""
    states = []
    driver.crash_sweep(range(len(golden.sites)), (model,), 0, states.append)
    assert_replayed(case, driver, states)
    return states


def assert_replayed(case, driver, states):
    for state in states[:: REPLAY_STRIDE.get(case, 4)]:
        site, model = state.at_site, state.fault_model
        assert state == replayed_state(driver, site, model, site), (case, site, model)


def reference_verdicts(golden, states):
    return [
        reference_check_crash(golden, state.at_site, state) for state in states
    ]


def visiting_orders(count):
    ascending = list(range(count))
    shuffled = ascending[:]
    random.Random(7).shuffle(shuffled)
    return {
        "ascending": ascending,             # a sweep: the cursor only advances
        "descending": ascending[::-1],      # it restarts at every site
        "shuffled": shuffled,               # and both, mixed
    }


def assert_same_verdicts_in_every_order(golden, states, reference):
    for name, order in visiting_orders(len(states)).items():
        got = {site: check_crash(golden, site, states[site]) for site in order}
        for site, want in enumerate(reference):
            assert got[site] == want, (name, site)


def flattened(reference_by_model, models):
    """What a campaign's matrix lists: model-major, sites ascending."""
    return [
        v.to_dict()
        for model in models
        for verdict in reference_by_model[model]
        for v in verdict
    ]


# ---------------------------------------------------------------------------
# Sound runs: every site, every model, every order, and through a pool
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_verdict_equals_the_reference(case):
    driver = make_driver(case)
    golden = driver.golden()
    reference = {}
    for model in FAULT_MODELS:
        states = swept_states(case, driver, golden, model)
        reference[model] = reference_verdicts(golden, states)
        assert_same_verdicts_in_every_order(golden, states, reference[model])
    workload, technique, threads, _stride = CASES[case]
    matrix = run_campaign(
        workload(),
        technique=technique,
        threads=threads,
        spec=FaultCampaignSpec(fault_models=FAULT_MODELS, max_sites=10**9, jobs=2),
    )
    assert matrix.injected == 3 * len(golden.sites)
    assert matrix.violations == flattened(reference, FAULT_MODELS) == []


# ---------------------------------------------------------------------------
# The negative control: non-empty lists, equal element for element
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", ["linked-list@2", "queue@2"])
def test_broken_ordering_is_named_exactly_as_the_reference_names_it(case):
    driver = make_driver(case, commit_before_drain=True)
    golden = driver.golden()
    reference = {}
    for model in FAULT_MODELS:
        states = swept_states(case, driver, golden, model)
        reference[model] = reference_verdicts(golden, states)
        named = [v for verdict in reference[model] for v in verdict]
        assert V_MISSING_COMMITTED in {v.kind for v in named}
        # Most sites are still sound: the fast accept and the slow loop
        # both run, interleaved, inside one sweep.
        assert any(reference[model]) and not all(reference[model])
        assert_same_verdicts_in_every_order(golden, states, reference[model])
    workload, technique, threads, _stride = CASES[case]
    for jobs in (1, 2):
        matrix = run_campaign(
            workload(),
            technique=technique,
            threads=threads,
            commit_before_drain=True,
            spec=FaultCampaignSpec(
                fault_models=FAULT_MODELS, max_sites=10**9, jobs=jobs
            ),
        )
        assert matrix.violations == flattened(reference, FAULT_MODELS)


# ---------------------------------------------------------------------------
# Mutilated images: every violation kind, through both oracles
# ---------------------------------------------------------------------------


def log_slots(image, layout):
    """``(slot address, record)`` of every record a scan would find."""
    slots = []
    for region in layout.log_regions:
        records = UndoLog.scan(image, region.base, region.size)
        slots += [
            (region.base + 64 + i * LOG_SLOT_BYTES, record)
            for i, record in enumerate(records)
        ]
    return slots


def mutilate(state, golden, rng):
    """One seeded injury no fault model inflicts, on a copy of ``state``."""
    image = dict(state.nvram)
    slots = log_slots(image, golden.layout)
    how = rng.randrange(7)
    if how == 0 and slots:                  # the log loses its tail
        del image[rng.choice(slots)[0]]
    elif how == 1 and slots:                # ... or ends in a record of no kind
        addr, record = rng.choice(slots)
        image[addr] = record._replace(kind="weird")
    elif how == 2 and slots:                # an undo record aimed at the log
        addr, record = rng.choice(slots)
        image[addr] = record._replace(addr=rng.choice(slots)[0])
    elif how == 3 and slots:                # a record in the tuple's old clothes
        addr, record = rng.choice(slots)
        image[addr] = tuple(record)
    elif how == 4:                          # a protected value garbled
        image[rng.choice(golden.checked)] = "garbage"
    elif how == 5:                          # ... stored as None
        image[rng.choice(golden.checked)] = None
    else:                                   # ... or gone
        image.pop(rng.choice(golden.checked), None)
    return dataclasses.replace(state, nvram=image)


@pytest.mark.parametrize("case", sorted(CASES))
def test_mutilated_images_get_the_reference_verdict(case):
    driver = make_driver(case)
    golden = driver.golden()
    stride = CASES[case][3]
    rng = random.Random(11)
    kinds = set()
    for model in FAULT_MODELS:
        states = [
            mutilate(state, golden, rng)
            for state in swept_states(case, driver, golden, model)[::stride]
        ]
        sites = [state.at_site for state in states]
        reference = reference_verdicts(golden, states)
        kinds.update(v.kind for verdict in reference for v in verdict)
        for order in visiting_orders(len(states)).values():
            for i in order:
                assert check_crash(golden, sites[i], states[i]) == reference[i], (
                    model, sites[i],
                )
    assert kinds == {
        V_MISSING_COMMITTED,
        V_LEAKED_UNCOMMITTED,
        V_WRONG_VALUE,
        V_LOG_BEFORE_DATA,
        V_RECOVERY_ERROR,
    }


# ---------------------------------------------------------------------------
# The incremental parse: a prefix is kept only if every slot still holds it
# ---------------------------------------------------------------------------


def early_slot_injuries(state, golden):
    """Copies of ``state`` whose first log region lost, in its second
    slot, its record (a hole), its record's identity (an equal, distinct
    tuple) or its record (a payload that is no record) — each a prefix
    the previous image's parse must not be trusted for."""
    slots = log_slots(state.nvram, golden.layout)[:2]
    if len(slots) < 2:
        return []
    addr, record = slots[1]
    injured = []
    for payload in (None, LogRecord(*record), "not a record"):
        image = dict(state.nvram)
        if payload is None:
            del image[addr]
        else:
            image[addr] = payload
        injured.append(dataclasses.replace(state, nvram=image))
    return injured


@pytest.mark.parametrize("commit_before_drain", [False, True], ids=["sound", "broken"])
def test_incremental_oracle_equals_the_reference_inside_one_sweep(commit_before_drain):
    """Judged as a campaign judges them — inside one multi-model sweep,
    site by site, every model at a site — then with an early log slot
    injured between two sound images, then at sites behind the last:
    every verdict equals the stateless reference's."""
    driver = make_driver("linked-list@2", commit_before_drain=commit_before_drain)
    golden = driver.golden()
    states, got = [], []

    def on_crash(state):
        states.append(state)
        got.append(check_crash(golden, state.at_site, state))

    driver.crash_sweep(range(len(golden.sites)), FAULT_MODELS, 0, on_crash)
    assert_replayed("linked-list@2", driver, states)
    reference = reference_verdicts(golden, states)
    assert got == reference
    assert any(reference) == commit_before_drain
    injured = 0
    for state, want in zip(states, reference):
        for hurt in early_slot_injuries(state, golden):
            injured += 1
            assert check_crash(golden, hurt.at_site, hurt) == reference_check_crash(
                golden, hurt.at_site, hurt
            )
            assert check_crash(golden, state.at_site, state) == want
    assert injured > 100
    for state, want in list(zip(states, reference))[::-17]:
        assert check_crash(golden, state.at_site, state) == want


# ---------------------------------------------------------------------------
# The single parse, the cursor, the fast accept — each at its edge
# ---------------------------------------------------------------------------

PA = NVRAM_BASE


def two_fase_run(**kwargs):
    events = [
        FaseBegin(), Store(PA, 8, "a"), Store(PA + 64, 8, "b"), FaseEnd(),
        FaseBegin(), Store(PA, 8, "c"), Store(PA + 128, 8, "d"), FaseEnd(),
    ]
    driver = AtlasReplayDriver(ListWorkload(events), technique="SC", **kwargs)
    return driver, driver.golden()


def test_undo_record_aimed_at_the_log_is_one_recovery_error():
    driver, golden = two_fase_run()
    second = golden.commit_order[1]
    # Inside the second FASE, after its undo records became durable.
    site = golden.fases[second].commit_site - 1
    state, layout = driver.crash_at(site)
    slots = log_slots(state.nvram, layout)
    assert slots[-1][1].fase_id == second and slots[-1][1].kind == KIND_UNDO
    # One more undo record of the in-flight FASE, aimed at the log's head.
    state.nvram[slots[-1][0] + LOG_SLOT_BYTES] = LogRecord(
        KIND_UNDO, second, slots[0][0], "clobber"
    )
    verdict = check_crash(golden, site, state, layout)
    assert verdict == reference_check_crash(golden, site, state, layout)
    assert [v.kind for v in verdict] == [V_RECOVERY_ERROR]
    assert f"targets log slot {slots[0][0]:#x}" in verdict[0].detail
    with pytest.raises(RecoveryError):
        recover(state, layout)


def test_stored_none_takes_the_slow_road_and_names_nothing():
    """An absent address and a stored ``None`` are the same thing to the
    oracle; only the C-level acceptance can tell them apart, so it
    declines and the per-address loop finds nothing to name."""
    driver, golden = two_fase_run()
    first = golden.commit_order[0]
    site = golden.fases[first].commit_site
    state, _layout = driver.crash_at(site)
    unwritten = [a for a in golden.checked if a not in golden.fases[first].writes]
    assert unwritten
    state.nvram[unwritten[0]] = None
    assert check_crash(golden, site, state) == []
    assert reference_check_crash(golden, site, state) == []


def test_expected_images_are_never_the_cursors():
    driver, golden = two_fase_run()
    first, second = golden.commit_order
    early = expected_image_at(golden, golden.fases[first].commit_site)
    snapshot = dict(early)
    for site in range(len(golden.sites)):
        assert check_crash(golden, site, driver.crash_at(site)[0]) == []
    late = expected_image_at(golden, golden.fases[second].commit_site)
    assert early == snapshot and late is not early and late != early
    late.clear()                            # ours to break
    last = len(golden.sites) - 1
    assert check_crash(golden, last, driver.crash_at(last)[0]) == []


def test_golden_run_ships_without_its_cursor():
    driver, golden = two_fase_run()
    last = len(golden.sites) - 1
    state, _layout = driver.crash_at(last)
    assert check_crash(golden, last, state) == []
    assert golden._cursor is not None
    shipped = pickle.loads(pickle.dumps(golden))
    assert shipped._cursor is None
    assert shipped.checked == golden.checked and shipped.fases == golden.fases
    assert check_crash(shipped, 0, driver.crash_at(0)[0]) == []
    assert check_crash(shipped, last, state) == []


def test_golden_run_refuses_commit_sites_out_of_order():
    _driver, golden = two_fase_run()
    golden.commit_order.reverse()
    with pytest.raises(SimulationError, match="do not ascend"):
        golden.seal()
