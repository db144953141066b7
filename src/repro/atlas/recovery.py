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
applies that parse to a copy of the image.  :func:`recover` composes
them; the fault-injection oracle checks its log-before-data invariant on
the parse in between and keeps it for the next image's :func:`scan_log`
to extend.  An undo record aimed at a log slot could change
what was just read, so it is refused as a
:class:`~repro.common.errors.RecoveryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import is_
from typing import Dict, List, Set

from repro.atlas.log import KIND_COMMIT, LogRecord, UndoLog
from repro.common.errors import RecoveryError
from repro.nvram.failure import CrashedState


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


def scan_log(image: Dict[int, object], layout, previous: ParsedLog = ()) -> ParsedLog:
    """Read every log region of ``image`` forward, once.

    The one parse of a crashed image: :func:`rollback` and the oracle's
    log-before-data check both read it, so neither rescans.  Every slot
    is read; given ``previous`` — an earlier image's parse, which this
    call takes over — a region whose slots begin with the very record
    objects parsed there (an identity test at C speed) parses only the
    slots after them, and any other region is parsed from its start.
    """
    earlier = {(part.region.base, part.region.size): part for part in previous}
    log = []
    for region in layout.log_regions:
        payloads = UndoLog.slots(image, region.base, region.size)
        part = earlier.get((region.base, region.size)) or RegionLog(region)
        kept = part.records
        if len(payloads) < len(kept) or not all(map(is_, kept, payloads)):
            part = RegionLog(region)
        part.extend(payloads[len(part.records):])
        log.append(part)
    return log


def rollback(image: Dict[int, object], log: ParsedLog) -> RecoveryReport:
    """Roll a copy of ``image`` back by an already-parsed ``log``.

    Raises :class:`~repro.common.errors.RecoveryError` if the log is
    malformed (which the write ordering should make impossible): a FASE
    both committed and rolled back, or an uncommitted FASE's undo record
    aimed at a log slot — the log was read before any rollback, so a
    rollback must not rewrite it.
    """
    report = RecoveryReport(nvram=dict(image))
    nvram = report.nvram
    spans = [(part.region.base, part.region.base + part.region.size) for part in log]
    for part in log:
        report.log_records += len(part.records)
        report.committed_fases |= part.committed
        # Undo newest-first so a location modified by several uncommitted
        # FASEs (nested retries) ends at its oldest durable value.
        undone = part.undone()
        for lo, hi in spans:
            for r in undone:
                if lo <= r.addr < hi:
                    raise RecoveryError(
                        f"undo record of FASE {r.fase_id} targets log slot {r.addr:#x}"
                    )
        for r in undone:
            if r.old_value is None:
                # The location did not exist before the FASE: remove it.
                nvram.pop(r.addr, None)
            else:
                nvram[r.addr] = r.old_value
        report.rolled_back_fases |= part.open
        report.undone_stores += len(undone)
    overlap = report.committed_fases & report.rolled_back_fases
    if overlap:
        raise RecoveryError(
            f"FASEs both committed and rolled back: {sorted(overlap)[:5]}"
        )
    return report


def recover(state: CrashedState, layout) -> RecoveryReport:
    """Recover a crashed machine's NVRAM image to a consistent state.

    Parameters
    ----------
    state:
        The durable image a crash left behind
        (:class:`~repro.nvram.failure.CrashedState`).
    layout:
        An :class:`~repro.atlas.runtime.AtlasLayout` (or anything with a
        ``log_regions`` list of objects carrying ``base`` and ``size``).

    Returns
    -------
    RecoveryReport
        Rollback statistics plus the repaired image: :func:`rollback`
        over :func:`scan_log`, whose :class:`RecoveryError` propagates.
    """
    return rollback(state.nvram, scan_log(state.nvram, layout))
