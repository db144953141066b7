"""The Atlas undo log.

Failure atomicity ("upon a system failure, either all or none of the
updates in a FASE are visible in NVRAM", §II-A) needs more than flushing:
it needs the *old* value of every location a FASE modifies to be durable
before the new value can possibly reach NVRAM.  Atlas uses undo logging
with this write ordering:

1. first in-FASE store to a location → append ``(fase, addr, old)`` to
   the log and **flush the log entry** before the data store executes;
2. at the FASE end → flush all the FASE's data (the technique's drain),
   *then* append and flush a commit record.

Recovery (see :mod:`repro.atlas.recovery`) undoes every logged entry of
FASEs with no commit record, newest first.

Log records live in their own persistent region at fixed 32-byte slots,
so a post-crash scan can walk them in append order.  The simulated NVRAM
stores objects per address and a :class:`LogRecord` *is* a tuple, so the
record is its own payload: what ``_append`` stores is what ``scan`` finds
and nothing is encoded or decoded in between.  The structure — not the
byte encoding — is what the reproduction needs.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Iterable, List, NamedTuple, Optional

from repro.atlas.region import PersistentRegion

#: Spacing of log slots.  Two per cache line: log appends hit each line
#: twice, matching Atlas's packed log buffers.
LOG_SLOT_BYTES = 32

#: Record kinds.
KIND_UNDO = "undo"
KIND_COMMIT = "commit"
_KINDS = (KIND_UNDO, KIND_COMMIT)


class LogRecord(NamedTuple):
    """One undo-log record as written to (simulated) NVRAM.

    A 4-tuple with names: equal to the plain tuple of its fields, and
    stored in the slot as it is.
    """

    kind: str              # KIND_UNDO or KIND_COMMIT
    fase_id: int
    addr: int = 0          # undo records only
    old_value: object = None

    def as_payload(self) -> "LogRecord":
        """What is stored at the record's slot address: the record."""
        return self

    @staticmethod
    def from_payload(payload: object) -> Optional["LogRecord"]:
        """The record a slot holds, or None if it does not hold one.

        A stored record comes back as it is; a plain 4-tuple of a known
        kind (a hand-built image) is upgraded; anything else — a record
        of an unknown kind included — is not a record.
        """
        if isinstance(payload, tuple) and len(payload) == 4 and payload[0] in _KINDS:
            return payload if type(payload) is LogRecord else LogRecord(*payload)
        return None


#: ``LogRecord(*fields)`` without the Python frame of the generated
#: ``__new__``: a FASE appends a record per address it stores to.
_new_record = tuple.__new__


class UndoLog:
    """Append-only undo log in a persistent region.

    The log writes through a machine session like any other persistent
    data, but its entries are flushed eagerly (Atlas cannot defer them:
    an unflushed undo entry is a torn FASE waiting to happen).  The
    eager log flushes go through the session's technique-independent
    flush path and are counted separately from data flushes.
    """

    __slots__ = ("region", "session", "logged", "appended", "commits")

    def __init__(self, region: PersistentRegion, session) -> None:
        self.region = region
        self.session = session
        self.logged: set = set()       # addrs logged in the current FASE (commit clears)
        self.appended = 0
        self.commits = 0

    def _append(self, record: LogRecord, category: str = "log") -> None:
        slot = self.region.alloc(LOG_SLOT_BYTES, line_aligned=False)
        # Log stores bypass the data technique (Atlas's table tracks
        # program data, not the log) and are flushed eagerly: the entry
        # must be durable before the guarded store may reach NVRAM.
        self.session.store_flushed(slot, LOG_SLOT_BYTES, record, category)
        self.appended += 1

    def log_store(self, fase_id: int, addr: int, old_value: object) -> None:
        """Log the old value before the first in-FASE store to ``addr``
        (a later one to an address in :attr:`logged` appends nothing)."""
        if addr in self.logged:
            return
        self.logged.add(addr)
        self._append(_new_record(LogRecord, (KIND_UNDO, fase_id, addr, old_value)))

    def commit(self, fase_id: int) -> None:
        """Seal a FASE: its data is durable, write the commit record.

        The commit record flushes under its own category so crash-site
        enumeration can distinguish it from undo appends; the machine
        counts both into ``log_flushes``.
        """
        self._append(_new_record(LogRecord, (KIND_COMMIT, fase_id, 0, None)), "commit")
        self.commits += 1
        self.logged.clear()

    # -- post-crash scanning (class-level: no live log object exists) ----

    @staticmethod
    def slots(nvram: dict, region_base: int, region_size: int, start: int = 0) -> List[object]:
        """The payloads of a region's slots (after the root's line) from
        slot ``start`` up to the first empty one — no record is falsy —
        read at C speed."""
        first = region_base + 64 + start * LOG_SLOT_BYTES
        addrs = range(first, region_base + region_size, LOG_SLOT_BYTES)
        return list(takewhile(bool, map(nvram.get, addrs)))

    @staticmethod
    def parse(payloads: Iterable[object], records: List[LogRecord]) -> List[LogRecord]:
        """Append the records ``payloads`` hold to ``records``, up to the
        first payload that is not one; returns ``records``."""
        for record in payloads:
            # A stored record is taken as it is (``from_payload``'s answer
            # without the call); anything else is parsed.
            if type(record) is not LogRecord or record[0] not in _KINDS:
                record = LogRecord.from_payload(record)
                if record is None:
                    break  # append-only: a non-record is the log's end
            records.append(record)
        return records

    @staticmethod
    def scan(nvram: dict, region_base: int, region_size: int) -> List[LogRecord]:
        """The log records found in a post-crash NVRAM image, in append order."""
        return UndoLog.parse(UndoLog.slots(nvram, region_base, region_size), [])
