"""Small remaining surfaces: crash plans, recovery errors, misc reprs."""

import pytest

from repro.atlas.log import KIND_COMMIT, KIND_UNDO, LogRecord
from repro.atlas.recovery import RecoveryReport, recover, rollback, scan_log
from repro.common.errors import ConfigurationError, RecoveryError
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


def test_rollback_is_newest_first_across_the_fase_groups():
    """The parse groups undo records by FASE, but rollback still replays
    them newest-first in log order: interleaved uncommitted FASEs end at
    the oldest value (FASE 5 iterates after FASE 2 in a set), and an undo
    record after its FASE's commit record stays committed."""
    base = 0x1000_0000
    records = [
        LogRecord(KIND_UNDO, 5, 100, "oldest"),
        LogRecord(KIND_UNDO, 3, 300, "before-commit"),
        LogRecord(KIND_COMMIT, 3),
        LogRecord(KIND_UNDO, 2, 100, "newer"),
        LogRecord(KIND_UNDO, 5, 200, "five-old"),
        LogRecord(KIND_UNDO, 3, 300, "after-commit"),
    ]
    nvram = slotted(records, base)
    nvram.update({100: "leaked", 200: "leaked", 300: "committed"})
    state = CrashedState(nvram=nvram, lost_lines=[], at_store=0)
    report = recover(state, FakeLayout([FakeRegion(base, 1 << 16)]))
    assert report.nvram[100] == "oldest" and report.nvram[200] == "five-old"
    assert report.nvram[300] == "committed"
    assert (report.committed_fases, report.rolled_back_fases) == ({3}, {2, 5})
    assert report.undone_stores == 3


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


def test_recover_refuses_an_undo_record_aimed_at_the_log():
    """The log is parsed once, before any rollback: an undo record that
    would rewrite a log slot — in its own region or another thread's —
    is a malformed log, not a store to replay."""
    base, other = 0x1000_0000, 0x2000_0000
    layout = FakeLayout([FakeRegion(base, 1 << 16), FakeRegion(other, 1 << 16)])
    for target in (base + 64, base + (1 << 16) - 8, other + 64 + 32):
        nvram = slotted([LogRecord(KIND_UNDO, 4, target, "clobber")], base)
        nvram.update(slotted([LogRecord(KIND_UNDO, 9, 700, "old")], other))
        before = dict(nvram)
        state = CrashedState(nvram=nvram, lost_lines=[], at_store=0)
        with pytest.raises(RecoveryError, match=f"FASE 4 targets log slot {target:#x}"):
            recover(state, layout)
        assert nvram == before              # the crashed image is never touched
    # Committed, the same record is never replayed, so it is harmless ...
    nvram = slotted(
        [LogRecord(KIND_UNDO, 4, base + 64, "clobber"), LogRecord(KIND_COMMIT, 4)], base
    )
    state = CrashedState(nvram=nvram, lost_lines=[], at_store=0)
    assert recover(state, layout).undone_stores == 0
    # ... and one byte past the region is data like any other.
    nvram = slotted([LogRecord(KIND_UNDO, 4, base + (1 << 16), "old")], base)
    state = CrashedState(nvram=nvram, lost_lines=[], at_store=0)
    assert recover(state, layout).read(base + (1 << 16)) == "old"


def test_recover_is_rollback_over_scan_log():
    base = 0x1000_0000
    layout = FakeLayout([FakeRegion(base, 1 << 16)])
    records = [LogRecord(KIND_UNDO, 2, 100, "old"), (KIND_UNDO, 2, 200, None)]
    nvram = slotted(records[:1], base)
    nvram[base + 64 + 32] = records[1]      # a plain tuple, as older images hold
    nvram.update({100: "leaked", 200: "leaked"})
    log = scan_log(nvram, layout)
    assert [(part.region.base, part.records) for part in log] == [(base, records)]
    report = rollback(nvram, log)
    state = CrashedState(nvram=nvram, lost_lines=[], at_store=0)
    assert report == recover(state, layout)
    assert report.nvram[100] == "old" and 200 not in report.nvram
    assert (report.log_records, report.undone_stores) == (2, 2)
    assert nvram[100] == "leaked"           # rolled back on a copy
