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
the parse in between.  An undo record aimed at a log slot could change
what was just read, so it is refused as a
:class:`~repro.common.errors.RecoveryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.atlas.log import KIND_COMMIT, KIND_UNDO, LogRecord, UndoLog
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


#: A parsed log: ``(region, records in append order)`` per log region.
ParsedLog = List[Tuple[object, List[LogRecord]]]


def scan_log(image: Dict[int, object], layout) -> ParsedLog:
    """Read every log region of ``image`` forward, once.

    The one parse of a crashed image: :func:`rollback` and the oracle's
    log-before-data check both read it, so neither rescans.
    """
    return [
        (region, UndoLog.scan(image, region.base, region.size))
        for region in layout.log_regions
    ]


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
    spans = [(region.base, region.base + region.size) for region, _records in log]
    for _region, records in log:
        report.log_records += len(records)
        committed = {r.fase_id for r in records if r.kind == KIND_COMMIT}
        report.committed_fases |= committed
        # Undo newest-first so a location modified by several uncommitted
        # FASEs (nested retries) ends at its oldest durable value.
        undone = [
            r
            for r in reversed(records)
            if r.kind == KIND_UNDO and r.fase_id not in committed
        ]
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
        report.rolled_back_fases.update(r.fase_id for r in undone)
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
