"""The undo log: ordering, durability, scanning."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    records = list(UndoLog.scan(machine.power_cut().nvram, log.region.base, log.region.size))
    assert records == [LogRecord(KIND_UNDO, 1, 999, "before")]


def test_duplicate_addr_logged_once_per_fase(setup):
    machine, session, log = setup
    log.log_store(1, 100, "a")
    log.log_store(1, 100, "stale")     # second store to the same addr
    assert log.appended == 1
    log.commit(1)
    log.log_store(2, 100, "b")         # new FASE (the commit reset the set): logged again
    assert log.appended == 3           # undo + commit + undo


def test_commit_record_written(setup):
    machine, session, log = setup
    log.log_store(5, 100, None)
    log.commit(5)
    records = list(UndoLog.scan(machine.power_cut().nvram, log.region.base, log.region.size))
    assert records[-1] == LogRecord(KIND_COMMIT, 5, 0, None)
    assert log.commits == 1


def test_scan_stops_at_first_hole(setup):
    machine, session, log = setup
    log.log_store(1, 100, "x")
    log.log_store(1, 200, "y")
    # Corrupt the middle slot (as if it never became durable).
    nvram = dict(machine.power_cut().nvram)
    first_slot = log.region.base + 64
    del nvram[first_slot]
    assert list(UndoLog.scan(nvram, log.region.base, log.region.size)) == []


def test_log_slot_spacing(setup):
    machine, session, log = setup
    log.log_store(1, 100, "x")
    log.log_store(1, 200, "y")
    slots = sorted(
        a for a in machine.power_cut().nvram if log.region.contains(a)
    )
    assert slots[1] - slots[0] == LOG_SLOT_BYTES


def test_log_flushes_counted_separately(setup):
    machine, session, log = setup
    log.log_store(1, 100, "x")
    assert session.stats.log_flushes == 1
    assert session.stats.eviction_flushes == 0


# ---------------------------------------------------------------------------
# The record is its own payload: hostile slots, pickling, tuple equality
# ---------------------------------------------------------------------------


def reference_from_payload(payload):
    """``from_payload`` as it was when records were decoded from plain
    tuples — the answer every payload must still get."""
    if (
        isinstance(payload, tuple)
        and len(payload) == 4
        and payload[0] in (KIND_UNDO, KIND_COMMIT)
    ):
        return LogRecord(payload[0], payload[1], payload[2], payload[3])
    return None


class TaggedRecord(LogRecord):
    """A subclass is not the stored type: it is parsed like any tuple."""


_kinds = st.sampled_from([KIND_UNDO, KIND_COMMIT, "weird", "", None, 0, b"undo"])
_atoms = st.one_of(st.none(), st.integers(-5, 5), st.text(max_size=3))
_fields = st.tuples(_kinds, _atoms, _atoms, _atoms)
hostile_payloads = st.one_of(
    _atoms,
    st.lists(_atoms, max_size=5),
    st.lists(_atoms, max_size=6).map(tuple),                # any arity
    st.tuples(_kinds, _atoms),                              # too short
    _fields,                                                # plain 4-tuples
    _fields.map(list),                                      # right shape, not a tuple
    _fields.map(lambda f: LogRecord(*f)),                   # incl. unknown kinds
    _fields.map(lambda f: TaggedRecord(*f)),
    _fields.map(lambda f: tuple.__new__(LogRecord, f[:2])),  # forged arity
)


@settings(max_examples=300, deadline=None)
@given(hostile_payloads)
def test_from_payload_answers_as_the_decoder_did(payload):
    got = LogRecord.from_payload(payload)
    want = reference_from_payload(payload)
    assert got == want
    assert (got is None) == (want is None)
    if got is not None:
        assert type(got) is LogRecord
        # Nothing is decoded: a stored record comes back as the object it is.
        assert (got is payload) == (type(payload) is LogRecord)


def test_record_of_unknown_kind_ends_the_log():
    base, size = 0x1000_0000, 1 << 12
    good = LogRecord(KIND_UNDO, 1, 100, "x")
    nvram = {
        base + 64: good,
        base + 64 + LOG_SLOT_BYTES: LogRecord("weird", 1, 200, "y"),
        base + 64 + 2 * LOG_SLOT_BYTES: LogRecord(KIND_COMMIT, 1),
    }
    assert LogRecord.from_payload(nvram[base + 64 + LOG_SLOT_BYTES]) is None
    assert UndoLog.scan(nvram, base, size) == [good]
    # A plain tuple in a slot (a hand-built image) is upgraded in place.
    nvram[base + 64 + LOG_SLOT_BYTES] = (KIND_UNDO, 1, 200, "y")
    records = UndoLog.scan(nvram, base, size)
    assert records == [good, (KIND_UNDO, 1, 200, "y"), (KIND_COMMIT, 1, 0, None)]
    assert all(type(r) is LogRecord for r in records)


def test_record_pickles_and_equals_the_tuple_it_replaced():
    for rec in (LogRecord(KIND_UNDO, 7, 1234, ("k", 3)), LogRecord(KIND_COMMIT, 7)):
        again = pickle.loads(pickle.dumps(rec))
        assert type(again) is LogRecord and again == rec
        assert rec.as_payload() is rec
        assert rec == (rec.kind, rec.fase_id, rec.addr, rec.old_value)
        assert hash(rec) == hash(tuple(rec))
    assert LogRecord(KIND_COMMIT, 7) == (KIND_COMMIT, 7, 0, None)   # the defaults
