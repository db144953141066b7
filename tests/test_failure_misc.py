"""Small remaining surfaces: crash plans, recovery errors, misc reprs."""

import pytest

from repro.atlas.log import KIND_COMMIT, KIND_UNDO, LogRecord
from repro.atlas.recovery import RecoveryReport, recover
from repro.common.errors import ConfigurationError
from repro.nvram.failure import CrashedState, CrashPlan


def test_crash_plan_validation():
    CrashPlan(at_site=0)
    with pytest.raises(TypeError):
        CrashPlan()                     # a site is the only trigger there is
    with pytest.raises(ConfigurationError):
        CrashPlan(at_site=-1)
    with pytest.raises(ConfigurationError):
        CrashPlan(at_site=0, fault_model="cosmic_ray")


def test_crashed_state_read():
    state = CrashedState(nvram={100: "x"}, lost_lines=[5], at_store=7)
    assert state.read(100) == "x"
    assert state.read(200, "dflt") == "dflt"


class FakeRegion:
    def __init__(self, base, size):
        self.base = base
        self.size = size


class FakeLayout:
    def __init__(self, regions):
        self.log_regions = regions


def slotted(records, base):
    """Lay records out as the undo log would (first line reserved)."""
    nvram = {}
    addr = base + 64
    for rec in records:
        nvram[addr] = rec.as_payload()
        addr += 32
    return nvram


def test_recover_detects_contradictory_log():
    base = 0x1000_0000
    # A FASE both committed and carrying an undone record *after* its
    # commit cannot happen under the write ordering; recovery flags it.
    records = [
        LogRecord(KIND_UNDO, 1, 100, "old"),
        LogRecord(KIND_COMMIT, 1),
    ]
    nvram = slotted(records, base)
    state = CrashedState(nvram=nvram, lost_lines=[], at_store=0)
    # Committed FASE: nothing rolled back, no error.
    report = recover(state, FakeLayout([FakeRegion(base, 1 << 16)]))
    assert report.committed_fases == {1}
    assert report.undone_stores == 0


def test_recover_rolls_back_newest_first():
    base = 0x1000_0000
    records = [
        LogRecord(KIND_UNDO, 2, 100, "first-old"),
        LogRecord(KIND_UNDO, 2, 100, "should-not-be-used"),  # same addr later
    ]
    nvram = slotted(records, base)
    nvram[100] = "leaked"
    state = CrashedState(nvram=nvram, lost_lines=[], at_store=0)
    report = recover(state, FakeLayout([FakeRegion(base, 1 << 16)]))
    # Newest-first undo ends at the OLDEST durable value.
    assert report.read(100) == "first-old"
    assert report.rolled_back_fases == {2}
    assert report.undone_stores == 2


def test_recover_none_old_value_removes_location():
    base = 0x1000_0000
    nvram = slotted([LogRecord(KIND_UNDO, 3, 500, None)], base)
    nvram[500] = "leaked"
    state = CrashedState(nvram=nvram, lost_lines=[], at_store=0)
    report = recover(state, FakeLayout([FakeRegion(base, 1 << 16)]))
    assert report.read(500) is None


def test_recovery_report_defaults():
    report = RecoveryReport()
    assert report.read(1, "d") == "d"
    assert report.log_records == 0
