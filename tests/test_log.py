"""The undo log: ordering, durability, scanning."""

import pytest

from repro.atlas.log import (
    KIND_COMMIT,
    KIND_UNDO,
    LOG_SLOT_BYTES,
    LogRecord,
    UndoLog,
)
from repro.atlas.region import RegionManager
from repro.cache.spec import technique_factory
from repro.nvram.machine import Machine, MachineConfig


@pytest.fixture
def setup():
    machine = Machine(MachineConfig(track_values=True))
    session = machine.session(technique_factory("LA")(0))
    region = RegionManager().find_or_create("log", 1 << 16)
    return machine, session, UndoLog(region, session)


def test_record_payload_roundtrip():
    rec = LogRecord(KIND_UNDO, 7, 1234, "old")
    assert LogRecord.from_payload(rec.as_payload()) == rec
    commit = LogRecord(KIND_COMMIT, 7)
    assert LogRecord.from_payload(commit.as_payload()) == commit


def test_from_payload_rejects_garbage():
    assert LogRecord.from_payload(None) is None
    assert LogRecord.from_payload(("weird", 1, 2, 3)) is None
    assert LogRecord.from_payload((KIND_UNDO, 1)) is None
    assert LogRecord.from_payload(42) is None


def test_log_entry_is_durable_immediately(setup):
    machine, session, log = setup
    log.log_store(fase_id=1, addr=999, old_value="before")
    records = list(UndoLog.scan(machine.memory.nvram, log.region.base, log.region.size))
    assert records == [LogRecord(KIND_UNDO, 1, 999, "before")]


def test_duplicate_addr_logged_once_per_fase(setup):
    machine, session, log = setup
    log.on_fase_begin()
    log.log_store(1, 100, "a")
    log.log_store(1, 100, "stale")     # second store to the same addr
    assert log.appended == 1
    log.commit(1)
    log.on_fase_begin()
    log.log_store(2, 100, "b")         # new FASE: logged again
    assert log.appended == 3           # undo + commit + undo


def test_commit_record_written(setup):
    machine, session, log = setup
    log.log_store(5, 100, None)
    log.commit(5)
    records = list(UndoLog.scan(machine.memory.nvram, log.region.base, log.region.size))
    assert records[-1] == LogRecord(KIND_COMMIT, 5, 0, None)
    assert log.commits == 1


def test_scan_stops_at_first_hole(setup):
    machine, session, log = setup
    log.log_store(1, 100, "x")
    log.log_store(1, 200, "y")
    # Corrupt the middle slot (as if it never became durable).
    nvram = dict(machine.memory.nvram)
    first_slot = log.region.base + 64
    del nvram[first_slot]
    assert list(UndoLog.scan(nvram, log.region.base, log.region.size)) == []


def test_log_slot_spacing(setup):
    machine, session, log = setup
    log.log_store(1, 100, "x")
    log.log_store(1, 200, "y")
    slots = sorted(
        a for a in machine.memory.nvram if log.region.contains(a)
    )
    assert slots[1] - slots[0] == LOG_SLOT_BYTES


def test_log_flushes_counted_separately(setup):
    machine, session, log = setup
    log.log_store(1, 100, "x")
    assert session.stats.log_flushes == 1
    assert session.stats.eviction_flushes == 0
