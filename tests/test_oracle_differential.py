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
does.  The images judged are the sweep's journal cuts; every k-th is
held to a fresh replay's first.  A campaign's own judge, ``SweepJudge``,
reads each image as the walk's clean image plus its fault's overlay:
its verdicts are held to both, and the log slots it reads are counted.
"""

import dataclasses
import pickle
import random
import sys

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
    SweepJudge,
    V_LEAKED_UNCOMMITTED,
    V_LOG_BEFORE_DATA,
    V_MISSING_COMMITTED,
    V_RECOVERY_ERROR,
    V_WRONG_VALUE,
    OracleViolation,
)
from repro.faults import campaign
from repro.nvram import failure
from repro.nvram.failure import FAULT_MODELS
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.linkedlist import LinkedListWorkload
from repro.workloads.msqueue import QueueWorkload
from repro.workloads.registry import get_workload
from tests.conftest import token
from tests.crash_reference import replayed_state
from tests.test_faults_campaign import ListWorkload


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


def judged_by_the_sweep(golden, models=FAULT_MODELS):
    """What a campaign's sweep judge reports over every site, in walk
    order: ``(site, model, violation dicts)``, each fault seeded with its
    site as :meth:`AtlasReplayDriver.crash_sweep` seeds it at 0."""
    replies = []
    campaign._sweep(golden, (range(len(golden.sites)), models), 0, lambda *r: replies.append(r))
    return replies


def as_replies(states, verdicts):
    return [
        (state.at_site, state.fault_model, [v.to_dict() for v in verdict])
        for state, verdict in zip(states, verdicts)
    ]


def model_major(replies, models=FAULT_MODELS):
    """A matrix's violation list from walk-order replies."""
    return [v for model in models for _site, m, found in replies if m == model for v in found]


@pytest.mark.parametrize("commit_before_drain", [False, True], ids=["sound", "broken"])
def test_incremental_oracle_equals_the_reference_inside_one_sweep(commit_before_drain):
    """Judged as a campaign judges them — inside one multi-model sweep,
    site by site, every model at a site — then with an early log slot
    injured between two sound images, then at sites behind the last:
    every verdict equals the stateless reference's, and so does the
    sweep judge's, which reads each image as the walk's clean image plus
    its fault's overlay, in one process or two."""
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
    swept = judged_by_the_sweep(golden)
    assert swept == as_replies(states, reference)
    workload, technique, threads, _stride = CASES["linked-list@2"]
    for jobs in (1, 2):
        matrix = run_campaign(
            workload(),
            technique=technique,
            threads=threads,
            commit_before_drain=commit_before_drain,
            spec=FaultCampaignSpec(fault_models=FAULT_MODELS, max_sites=10**9, jobs=jobs),
        )
        assert matrix.violations == model_major(swept)
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


def declaring_injuries(golden, touched_log):
    """A ``crash_overlay`` that, at every other image, also inflicts one
    of :func:`mutilate`'s injuries and declares every address it changed
    as touched — so the sweep judge sees it in the overlay, as it would
    a fault model's; ``touched_log`` collects those that hit a log region."""
    real = failure.crash_overlay
    spans = [(r.base, r.base + r.size) for r in golden.layout.log_regions]

    def crash_overlay(nvram, lost_lines, pending, inflight, model, seed):
        overlay, torn, dropped = real(nvram, lost_lines, pending, inflight, model, seed)
        rng = random.Random(seed * len(FAULT_MODELS) + FAULT_MODELS.index(model))
        if rng.random() < 0.5:
            return overlay, torn, dropped
        image = failure.overlaid(nvram, overlay)
        hurt = mutilate(failure.CrashedState(image, [], 0), golden, rng).nvram
        overlay = dict(overlay)
        for addr in image.keys() | hurt.keys():
            if hurt.get(addr, failure.ABSENT) is not image.get(addr, failure.ABSENT):
                overlay[addr] = hurt.get(addr, failure.ABSENT)
                if any(lo <= addr < hi for lo, hi in spans):
                    touched_log.append(addr)
        return overlay, torn, dropped

    return crash_overlay


@pytest.mark.parametrize("case", ["linked-list@2", "hash"])
def test_declared_injuries_get_the_reference_verdict_from_the_sweep_judge(case, monkeypatch):
    """Injuries no fault model inflicts, declared in the overlay: values
    garbled, stored as None or gone, the log's tail lost, a record of no
    kind or in a plain tuple, an undo record aimed at the log.  The sweep
    judge names every one as ``check_crash`` and the reference do."""
    driver = make_driver(case)
    golden = driver.golden()
    touched_log = []
    monkeypatch.setattr(failure, "crash_overlay", declaring_injuries(golden, touched_log))
    states = []
    driver.crash_sweep(range(len(golden.sites)), FAULT_MODELS, 0, states.append)
    reference = reference_verdicts(golden, states)
    assert [check_crash(golden, s.at_site, s) for s in states] == reference
    assert judged_by_the_sweep(golden) == as_replies(states, reference)
    assert touched_log
    assert {v.kind for verdict in reference for v in verdict} == {
        V_MISSING_COMMITTED,
        V_LEAKED_UNCOMMITTED,
        V_WRONG_VALUE,
        V_LOG_BEFORE_DATA,
        V_RECOVERY_ERROR,
    }
    assert not all(reference)


@pytest.mark.parametrize("commit_before_drain", [False, True], ids=["sound", "broken"])
def test_a_slot_landing_under_the_clean_parse_is_read_again(commit_before_drain):
    """The sweep judge trusts its parse of a region only while nothing
    lands on a slot it already parsed: an early slot that lands again —
    as a hole, an equal but distinct record, or no record — makes it
    parse that region from its first slot; a record landing past the
    parse is read as it lands — one aimed at the log, one rolling back a
    wrong value, a committed FASE's — and each verdict is the
    reference's."""
    driver = make_driver("linked-list@2", commit_before_drain=commit_before_drain)
    golden = driver.golden()
    injured, kinds = 0, set()
    for site in range(0, len(golden.sites), 3):
        state = driver.crash_at(site)[0]
        slots = log_slots(state.nvram, golden.layout)
        aimed, end = [], slots[-1][0] + LOG_SLOT_BYTES if slots else None
        unlogged = [a for a in golden.checked if a not in {r.addr for _slot, r in slots}]
        if slots and slots[-1][1].kind == KIND_UNDO:
            fase = slots[-1][1].fase_id     # open: its commit record is not there yet
            # Aimed at the log, and rolling a protected address back wrong.
            for addr, old in [(slots[0][0], "clobber")] + [(a, "garbage") for a in unlogged[:1]]:
                image = {**state.nvram, end: LogRecord(KIND_UNDO, fase, addr, old)}
                aimed.append(dataclasses.replace(state, nvram=image))
        expected = expected_image_at(golden, site)
        done = [r.fase_id for _slot, r in slots if r.kind != KIND_UNDO]
        rolled = {r.addr for _slot, r in slots if r.fase_id not in done}
        stray = [a for a in expected if a not in rolled and expected[a] is not None]
        if done and stray:  # a committed FASE's undo record, over a garbled value
            record = LogRecord(KIND_UNDO, done[0], stray[0], expected[stray[0]])
            image = {**state.nvram, end: record, stray[0]: "garbage"}
            aimed.append(dataclasses.replace(state, nvram=image))
        for hurt in early_slot_injuries(state, golden) + aimed:
            image = dict(state.nvram)
            judge = SweepJudge(golden, image)
            judge.advance(site, set(image))
            assert judge(site, state.fault_model, {}) == check_crash(golden, site, state)
            landed = {a for a in image.keys() | hurt.nvram.keys() if image.get(a) is not hurt.nvram.get(a)}
            image.clear()
            image.update(hurt.nvram)
            judge.advance(site, landed)
            want = reference_check_crash(golden, site, hurt)
            assert judge(site, hurt.fault_model, {}) == want
            kinds.update(v.kind for v in want)
            injured += 1
    assert injured > 100 and V_RECOVERY_ERROR in kinds


def test_a_leak_rolled_back_by_another_fases_record_still_breaks_invariant_3():
    """Two FASEs in flight write X and only the first has logged it: a
    leak of the second's value at X is rolled back by the first's undo
    record, so invariants 1 and 2 hold, yet it is durable without its
    own undo record.  The sweep judge names it as the reference does —
    declared in an overlay, landed in the clean image, or already there
    when the second FASE begins."""
    first = [FaseBegin(), Store(PA, 8), *[Store(PA + 64 * k, 8) for k in range(1, 400)]]
    second = [FaseBegin(), *[Store(PA + 64 * k, 8) for k in range(200, 350)], Store(PA, 8)]
    a0, b1 = token(0, 1), token(1, 151)     # what each FASE writes at X
    driver = AtlasReplayDriver(
        ListWorkload(first + [FaseEnd()], second + [FaseEnd()]), technique="SC", num_threads=2
    )
    golden = driver.golden()
    f0, f1 = sorted(golden.fases.values(), key=lambda record: record.thread_id)
    x = next(addr for addr, value in f0.writes.items() if value == a0)
    assert f1.writes[x] == b1

    def logged(state, uid):
        return any(
            r.kind == KIND_UNDO and (r.fase_id, r.addr) == (uid, x)
            for _slot, r in log_slots(state.nvram, golden.layout)
        )

    def shared(site):
        """The clean image at ``site``, if only ``f0`` has logged X there."""
        state = driver.crash_at(site)[0]
        if logged(state, f0.uid) and not logged(state, f1.uid):
            return state
        return None

    before = [site for site in range(f1.begin_site) if shared(site)]
    during = [site for site in range(f1.begin_site, f1.commit_site) if shared(site)]
    assert before and during
    site, early = during[0], before[-1]
    state = shared(site)
    leaked = dataclasses.replace(state, nvram={**state.nvram, x: b1})
    want = reference_check_crash(golden, site, leaked)
    assert [v.kind for v in want] == [V_LOG_BEFORE_DATA]
    assert check_crash(golden, site, leaked) == want

    judge = SweepJudge(golden, dict(state.nvram))
    judge.advance(site, set(state.nvram))
    assert judge(site, "clean", {}) == []
    assert judge(site, "clean", {x: b1}) == want

    judge = SweepJudge(golden, dict(leaked.nvram))
    judge.advance(site, set(leaked.nvram))
    assert judge(site, "clean", {}) == want
    assert judge(site, "clean", {x + (1 << 20): failure.ABSENT}) == want  # elsewhere

    image = {**shared(early).nvram, x: b1}
    judge = SweepJudge(golden, image)
    judge.advance(early, set(image))
    assert judge(early, "clean", {}) == reference_check_crash(
        golden, early, dataclasses.replace(leaked, nvram=dict(image))
    )
    landed = {a for a in leaked.nvram if image.get(a) is not leaked.nvram[a]}
    assert x not in landed
    image.update(leaked.nvram)
    judge.advance(site, landed)
    assert judge(site, "clean", {}) == want

    # Once the second FASE has logged X too, its leak has its record —
    # until that record is no record any more, and the region is parsed
    # again.
    late = next(
        site for site in range(site, f1.commit_site) if logged(driver.crash_at(site)[0], f1.uid)
    )
    assert late < f0.commit_site
    image = {**driver.crash_at(late)[0].nvram, x: b1}
    judge = SweepJudge(golden, image)
    judge.advance(late, set(image))
    state = dataclasses.replace(leaked, nvram=dict(image))
    assert judge(late, "clean", {}) == reference_check_crash(golden, late, state)
    slot = next(a for a, r in log_slots(image, golden.layout) if (r.fase_id, r.addr) == (f1.uid, x))
    image[slot] = "not a record"
    judge.advance(late, {slot})
    want = reference_check_crash(golden, late, dataclasses.replace(state, nvram=dict(image)))
    assert [v.kind for v in want] == [V_LOG_BEFORE_DATA]
    assert judge(late, "clean", {}) == want


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_sweep_judge_reads_each_log_slot_about_once(case, monkeypatch):
    """Every log slot the sweep judge reads goes through
    ``UndoLog.slots``: over an exhaustive three-model sweep that is each
    slot once, plus one empty slot per region something landed in per
    site — not the whole log per site."""
    driver = make_driver(case)
    golden = driver.golden()
    regions = golden.layout.log_regions
    final, _layout = driver.crash_at(len(golden.sites) - 1)  # the journal walk's last image
    slots = sum(len(UndoLog.scan(final.nvram, r.base, r.size)) for r in regions)
    real = UndoLog.slots
    read = []

    def counting(*args):
        payloads = real(*args)
        read.append(len(payloads) + 1)  # and the empty slot that ends them
        return payloads

    monkeypatch.setattr(UndoLog, "slots", staticmethod(counting))
    assert all(found == [] for _site, _model, found in judged_by_the_sweep(golden))
    assert slots <= sum(read) <= slots + len(golden.sites) * len(regions)


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


class _LoopCount(list):
    """``golden.checked``, counting the per-address loops that read it."""

    entered = 0

    def __iter__(self):
        if sys._getframe(1).f_code.co_name == "_judge":
            self.entered += 1
        return super().__iter__()


def test_a_stored_none_takes_the_fast_accept_and_names_nothing():
    """An absent address and a stored ``None`` are the same thing to the
    oracle, its C-level acceptance included: it accepts, and the
    per-address loop is never entered."""
    driver, golden = two_fase_run()
    first = golden.commit_order[0]
    site = golden.fases[first].commit_site
    state, _layout = driver.crash_at(site)
    unwritten = [a for a in golden.checked if a not in golden.fases[first].writes]
    assert unwritten
    state.nvram[unwritten[0]] = None
    golden.checked = _LoopCount(golden.checked)
    assert check_crash(golden, site, state) == []
    assert golden.checked.entered == 0
    assert reference_check_crash(golden, site, state) == []


@pytest.mark.parametrize(
    "name, threads, scale",
    [("linked-list", 2, 0.003), ("queue", 2, 0.003), ("hash", 1, 0.02), ("mdb", 2, 0.002)],
)
def test_a_committed_none_takes_the_fast_accept(name, threads, scale):
    """Every clean image of a sound run is accepted without the
    per-address loop.  A replay's stores write tokens, so no FASE
    commits ``None`` any more; when they wrote the workloads' payloads,
    a committed ``None`` sat absent after rollback, and the key-subset
    accept sent 70, 1,500, 285 and 0 of these sites down the loop."""
    driver = AtlasReplayDriver(get_workload(name, scale=scale), num_threads=threads)
    golden = driver.golden()
    golden.checked = _LoopCount(golden.checked)
    verdicts = []
    driver.crash_sweep(
        range(len(golden.sites)), ("clean",), 0,
        lambda state: verdicts.extend(check_crash(golden, state.at_site, state)),
    )
    assert verdicts == [] and golden.checked.entered == 0


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
