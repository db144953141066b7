"""Post-crash recovery: roll uncommitted FASEs back from the undo log.

After a failure, NVRAM holds (a) every value that was flushed or evicted
before the crash and (b) the undo log, whose entries were made durable
*before* the stores they guard.  Recovery restores the FASE guarantee —
all-or-nothing — by undoing, newest first, every logged store of a FASE
that has no commit record.

Soundness argument (tested by crash-injection in the suite):

- a committed FASE's data was drained *before* its commit record was
  flushed, so committed data is fully present — undoing nothing is
  correct;
- an uncommitted FASE's store can only be in NVRAM if *its undo entry
  is too* (log-before-data ordering), so every leaked value has its
  old value available to restore;
- undoing newest-first replays nested/overwritten locations correctly.

Recovery is two steps, so that whoever needs the log reads it once:
:func:`scan_log` reads every region forward — the log is append-only and
is the truth — before anything is rolled back, and :func:`rollback`
applies that parse's :func:`undo_records` to a copy of the image.
:func:`recover` composes them; the fault-injection oracle checks its
log-before-data invariant on the parse in between.  An undo record
aimed at a log slot could change what was just read, so it is refused
as a :class:`~repro.common.errors.RecoveryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Set

from repro.atlas.log import KIND_COMMIT, LogRecord, UndoLog
from repro.common.errors import RecoveryError
from repro.nvram.failure import ABSENT, CrashedState, overlaid


@dataclass
class RecoveryReport:
    """What recovery found and did."""

    committed_fases: Set[int] = field(default_factory=set)
    rolled_back_fases: Set[int] = field(default_factory=set)
    undone_stores: int = 0
    log_records: int = 0
    #: The consistent NVRAM image (addr -> value) after rollback.
    nvram: Dict[int, object] = field(default_factory=dict)

    def read(self, addr: int, default: object = None) -> object:
        """Read from the recovered image."""
        return self.nvram.get(addr, default)


class RegionLog:
    """One log region's records in append order, folded as they are
    appended into the FASEs it commits and each FASE's undo records, so
    a longer log with the same prefix extends the fold, not redoes it."""

    __slots__ = ("region", "records", "committed", "undo", "open")

    def __init__(self, region: object) -> None:
        self.region = region
        self.records: List[LogRecord] = []
        self.committed: Set[int] = set()
        self.undo: Dict[int, List[int]] = {}  # FASE -> its undo records' positions
        self.open: Set[int] = set()  # FASEs with undo records and no commit here

    def extend(self, payloads: List[object]) -> None:
        """Parse the payloads of the slots after ``records`` and fold them in."""
        start = len(self.records)
        for i, r in enumerate(UndoLog.parse(payloads, self.records)[start:], start):
            if r.kind == KIND_COMMIT:
                self.committed.add(r.fase_id)
                self.open.discard(r.fase_id)
            else:
                self.undo.setdefault(r.fase_id, []).append(i)
                if r.fase_id not in self.committed:
                    self.open.add(r.fase_id)

    def undone(self) -> List[LogRecord]:
        """The undo records of the FASEs not committed here, newest first."""
        positions = sorted(chain.from_iterable(map(self.undo.__getitem__, self.open)))
        return list(map(self.records.__getitem__, reversed(positions)))


#: A parsed log: one :class:`RegionLog` per log region.
ParsedLog = List[RegionLog]


def read_region(image: Dict[int, object], region) -> RegionLog:
    """Parse one log region of ``image`` forward, from its first slot."""
    part = RegionLog(region)
    part.extend(UndoLog.slots(image, region.base, region.size))
    return part


def scan_log(image: Dict[int, object], layout) -> ParsedLog:
    """Read every log region of ``image`` forward, once: the one parse
    of a whole image, which :func:`rollback` and the oracle's
    log-before-data check share.  (A crash sweep keeps its parse from
    image to image instead, and reads only what landed:
    :class:`~repro.faults.oracle.SweepJudge`.)"""
    return [read_region(image, region) for region in layout.log_regions]


def undo_records(log: ParsedLog) -> List[LogRecord]:
    """The undo records rolling back by ``log`` applies, in order: per
    region, its open FASEs' newest first, so a location modified by
    several uncommitted FASEs (nested retries) ends at its oldest
    durable value.

    Raises :class:`~repro.common.errors.RecoveryError` if the log is
    malformed (which the write ordering should make impossible): an
    uncommitted FASE's undo record aimed at a log slot — the log was
    read before any rollback, so a rollback must not rewrite it — or a
    FASE both committed and rolled back.
    """
    spans = [(part.region.base, part.region.base + part.region.size) for part in log]
    undone: List[LogRecord] = []
    for part in log:
        records = part.undone()
        for lo, hi in spans:
            for r in records:
                if lo <= r.addr < hi:
                    raise RecoveryError(
                        f"undo record of FASE {r.fase_id} targets log slot {r.addr:#x}"
                    )
        undone += records
    overlap = {uid for part in log for other in log for uid in part.open & other.committed}
    if overlap:
        raise RecoveryError(
            f"FASEs both committed and rolled back: {sorted(overlap)[:5]}"
        )
    return undone


def undo_overlay(undone: List[LogRecord]) -> Dict[int, object]:
    """``undone`` applied in order as one overlay: each address's last
    old value, :data:`~repro.nvram.failure.ABSENT` where the location did
    not exist before the FASE."""
    return {r.addr: ABSENT if r.old_value is None else r.old_value for r in undone}


def rollback(image: Dict[int, object], log: ParsedLog) -> RecoveryReport:
    """Roll a copy of ``image`` back by an already-parsed ``log``: the
    :func:`undo_records`, whose :class:`RecoveryError` propagates."""
    undone = undo_records(log)
    report = RecoveryReport(
        nvram=overlaid(image, undo_overlay(undone)), undone_stores=len(undone)
    )
    for part in log:
        report.log_records += len(part.records)
        report.committed_fases |= part.committed
        report.rolled_back_fases |= part.open
    return report


def recover(state: CrashedState, layout) -> RecoveryReport:
    """Recover a crashed machine's NVRAM image to a consistent state:
    :func:`rollback` over :func:`scan_log`, whose :class:`RecoveryError`
    propagates.  ``layout`` is an :class:`~repro.atlas.runtime.AtlasLayout`
    (or anything with ``log_regions`` carrying ``base`` and ``size``)."""
    return rollback(state.nvram, scan_log(state.nvram, layout))
