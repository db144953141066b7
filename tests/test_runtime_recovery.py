"""The Atlas runtime and crash recovery — the correctness side of the paper.

These tests crash the machine at arbitrary points and assert the FASE
guarantee: every committed FASE's effects are fully present after
recovery, every uncommitted FASE's effects are fully rolled back.  The
real techniques (ER/LA/AT/SC) must all pass; BEST — which never flushes
— must demonstrably fail, which is exactly why the paper calls it "not
a valid solution".
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas import AtlasRuntime, recover
from repro.common.errors import SimulationError
from repro.nvram.machine import Machine, MachineConfig

TECHNIQUES = ["ER", "LA", "AT", "SC"]


def make_runtime(technique, **kw):
    if technique == "SC-offline":
        kw.setdefault("sc_fixed_size", 8)
    return AtlasRuntime(technique=technique, **kw)


def run_committed_fases(rt, n_fases=6, stores_per_fase=4):
    """Run committed FASEs; return {addr: value} of expected durable data."""
    expected = {}
    for i in range(n_fases):
        with rt.fase():
            for j in range(stores_per_fase):
                addr = rt.alloc(8)
                rt.store(addr, value=(i, j))
                expected[addr] = (i, j)
    return expected


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_committed_fases_survive_crash(technique):
    rt = make_runtime(technique)
    expected = run_committed_fases(rt)
    # Open a FASE that never commits.
    rt.fase_begin()
    doomed = [rt.alloc(8) for _ in range(4)]
    for a in doomed:
        rt.store(a, value="doomed")
    state = rt.crash()
    report = recover(state, rt.layout())
    for addr, value in expected.items():
        assert report.read(addr) == value, f"{technique}: lost committed data"
    for addr in doomed:
        assert report.read(addr) is None, f"{technique}: leaked uncommitted data"
    assert len(report.rolled_back_fases) == 1


def test_best_loses_committed_data():
    rt = make_runtime("BEST")
    expected = run_committed_fases(rt)
    state = rt.crash()
    report = recover(state, rt.layout())
    lost = [a for a, v in expected.items() if report.read(a) != v]
    assert lost, "BEST flushed nothing yet lost nothing - machine is broken"


@pytest.mark.parametrize("technique", ["LA", "SC"])
def test_overwrite_rolls_back_to_committed_value(technique):
    rt = make_runtime(technique)
    region = rt.find_or_create_region("data")
    slot = rt.alloc(8, region)
    with rt.fase():
        rt.store(slot, value="v1")
    rt.fase_begin()
    rt.store(slot, value="v2")           # uncommitted overwrite
    state = rt.crash()
    report = recover(state, rt.layout())
    assert report.read(slot) == "v1"


def test_clean_shutdown_makes_everything_durable():
    rt = make_runtime("SC")
    expected = run_committed_fases(rt)
    rt.finish()
    for addr, value in expected.items():
        assert rt.machine.power_cut().read(addr) == value


def test_root_pointer_roundtrip():
    rt = make_runtime("LA")
    region = rt.find_or_create_region("data")
    node = rt.alloc(64, region)
    with rt.fase():
        rt.store(node, value="payload")
        rt.set_root(region, node)
    assert rt.get_root(region) == node
    state = rt.crash()
    report = recover(state, rt.layout())
    assert report.read(region.root_addr) == node
    assert report.read(node) == "payload"


def test_a_fase_reads_and_logs_each_address_once(monkeypatch):
    """Only a FASE's first store to an address reads the value it
    overwrites and appends an undo record; the next FASE logs it again."""
    rt = make_runtime("SC")
    reads = []
    read_current = rt.machine.read_current
    monkeypatch.setattr(
        rt.machine, "read_current",
        lambda addr, default=None: reads.append(addr) or read_current(addr, default),
    )
    a, b = rt.alloc(8), rt.alloc(8)
    with rt.fase():
        for value in range(3):
            rt.store(a, value=value)
            rt.store(b, value=value)
    assert reads == [a, b]
    assert rt.log.appended == 3            # two undo records and the commit
    with rt.fase():
        rt.store(a, value=9)
    assert reads == [a, b, a]
    assert rt.log.appended == 5


def test_runtime_requires_value_tracking():
    with pytest.raises(SimulationError):
        AtlasRuntime(machine=Machine(MachineConfig(track_values=False)))


def test_multi_thread_runtimes_share_machine():
    from repro.atlas.region import RegionManager

    machine = Machine(MachineConfig(track_values=True))
    regions = RegionManager()
    rt0 = AtlasRuntime("SC", machine, regions, thread_id=0)
    rt1 = AtlasRuntime("SC", machine, regions, thread_id=1)
    a0 = rt0.alloc(8)
    a1 = rt1.alloc(8)
    assert a0 != a1
    with rt0.fase():
        rt0.store(a0, value="t0")
    with rt1.fase():
        rt1.store(a1, value="t1")
    state = rt0.crash()
    # Both threads' logs take part in recovery.
    layout = rt0.layout()
    assert len(layout.log_regions) == 2
    report = recover(state, layout)
    assert report.read(a0) == "t0"
    assert report.read(a1) == "t1"


@settings(max_examples=12, deadline=None)
@given(
    technique=st.sampled_from(TECHNIQUES),
    n_committed=st.integers(min_value=0, max_value=5),
    n_uncommitted=st.integers(min_value=0, max_value=5),
    overwrite=st.booleans(),
)
def test_crash_recovery_property(technique, n_committed, n_uncommitted, overwrite):
    """The all-or-nothing guarantee holds across techniques and shapes."""
    rt = make_runtime(technique)
    expected = run_committed_fases(rt, n_fases=n_committed, stores_per_fase=3)
    doomed = []
    if n_uncommitted:
        rt.fase_begin()
        for _ in range(n_uncommitted):
            a = rt.alloc(8)
            rt.store(a, value="bad")
            doomed.append(a)
        if overwrite and expected:
            victim = next(iter(expected))
            rt.store(victim, value="clobbered")
    state = rt.crash()
    report = recover(state, rt.layout())
    for addr, value in expected.items():
        assert report.read(addr) == value
    for addr in doomed:
        assert report.read(addr) is None


#: The two ways into a FASE: the section and the lock.
BRACKETS = {"fase": lambda rt: rt.fase(), "lock": lambda rt: rt.lock("l")}


@pytest.mark.parametrize(
    "technique, bracket",
    [("SC", "fase"), ("AT", "fase"), ("SC", "lock"), ("AT", "lock")],
    ids=["SC", "AT", "SC-lock", "AT-lock"],
)
def test_exhaustive_crash_point_sweep(technique, bracket):
    """Crash after every possible store count of one program shape:
    recovery must hold at *every* cut point, not just convenient ones,
    whichever way its FASEs are entered."""
    def build():
        rt = make_runtime(technique)
        committed = {}
        schedule = []
        for fase in range(5):
            slots = [rt.alloc(8) for _ in range(3)]
            schedule.append((slots, fase))
        return rt, committed, schedule

    # First pass: count data stores by running to completion.
    rt, committed, schedule = build()
    for slots, fase in schedule:
        with BRACKETS[bracket](rt):
            for j, addr in enumerate(slots):
                rt.store(addr, value=(fase, j))
    total = rt.stats.persistent_stores

    for cut in range(1, total + 1):
        rt, committed, schedule = build()
        stores_done = 0
        state = None
        for slots, fase in schedule:
            section = BRACKETS[bracket](rt)
            section.__enter__()
            wrote = {}
            for j, addr in enumerate(slots):
                rt.store(addr, value=(fase, j))
                wrote[addr] = (fase, j)
                stores_done += 1
                if stores_done == cut:
                    state = rt.crash()
                    break
            if state is not None:
                break
            section.__exit__(None, None, None)
            committed.update(wrote)
        if state is None:
            state = rt.crash()
        report = recover(state, rt.layout())
        for addr, value in committed.items():
            assert report.read(addr) == value, (technique, cut)
        # Nothing from the torn FASE leaks.
        torn = set()
        for slots, _f in schedule:
            torn.update(slots)
        torn -= set(committed)
        for addr in torn:
            assert report.read(addr) is None, (technique, cut)
