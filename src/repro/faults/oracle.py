"""The recovery oracle: judge a recovered image against golden truth.

For a crash at site *s*, the FASE contract (§II-A: "upon a system
failure, either all or none of the updates in a FASE are visible")
determines the recovered image exactly, up to unprotected data:

``committed-present``
    Every FASE whose commit record was durable by *s* must have **all**
    its writes present — committed data drained before the commit record
    was flushed, so nothing of it was lost with the volatile caches.
``uncommitted-absent``
    Every FASE not committed by *s* must be fully rolled back: each of
    its addresses reads the value the *last committed* writer left there
    (or nothing, if no committed FASE ever wrote it).
``log-before-data``
    Already in the **pre-recovery** image: a not-yet-committed FASE's
    value may appear in NVRAM only if its undo record does too —
    otherwise recovery had nothing to roll back with, which is precisely
    the unsound state the write ordering exists to prevent.

In the literature's terms the contract is *durable linearizability with
explicit per-operation durability points* (FliT; "Durable Queues: The
Second Amendment"): every persistent operation names the instant its
effect must survive a failure.  Here that instant is a crash *site* — a
``store`` site is a store's, a FASE's ``commit`` site is the durability
point of everything the FASE wrote — and a crash at site *s* must
recover to exactly the operations whose point is at or before *s*.

**A sweep judges what changed.**  :class:`SweepJudge` keeps what it
knows of the walk's clean image — the log's parse, where each invariant
fails, the rollback overlay — and updates it from what landed since the
last site, so a crashed image (the clean image plus its fault's
overlay) costs what changed, not what the image or the log holds.
Nothing is trusted unread: a log region is parsed again when something
lands on a slot already parsed, or for one image when its overlay
touches it.  :func:`check_crash` judges a state with no walk behind it
whole, its log read by :func:`~repro.atlas.recovery.scan_log`.

**Accept fast, explain slow.**  A walk's image passes when its overlay
overrides every protected address the clean image fails at and fails
none itself; a whole image, when the committed values are a subset of
the recovered image's items and no protected address that must read
``None`` holds a value — two C-level set operations.  Only an image
that fails is read whole, by the per-address loop that names each
violation.

A stored ``None`` payload and an absent address are deliberately
indistinguishable — the repo-wide convention (the undo log encodes "did
not exist before" as ``old_value None``) — to the loop and to both fast
tests alike.  ``recovery.py``'s module docstring carries the matching
soundness argument; DESIGN.md §10 ties the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.atlas.log import KIND_UNDO, LOG_SLOT_BYTES, UndoLog
from repro.atlas.recovery import ParsedLog, RegionLog, read_region, scan_log
from repro.atlas.recovery import undo_overlay, undo_records
from repro.common.errors import RecoveryError
from repro.faults.driver import GoldenRun
from repro.nvram.failure import ABSENT, CrashedState, overlaid

#: Violation kinds the oracle reports.
V_MISSING_COMMITTED = "missing_committed"
V_LEAKED_UNCOMMITTED = "leaked_uncommitted"
V_WRONG_VALUE = "wrong_value"
V_LOG_BEFORE_DATA = "log_before_data"
V_RECOVERY_ERROR = "recovery_error"


@dataclass(frozen=True)
class OracleViolation:
    """One broken invariant at one crash point."""

    kind: str
    site: int
    site_class: str
    fault_model: str
    addr: Optional[int] = None
    fase: Optional[int] = None
    expected: object = None
    actual: object = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "site": self.site,
            "site_class": self.site_class,
            "fault_model": self.fault_model,
            "addr": self.addr,
            "fase": self.fase,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
            "detail": self.detail,
        }


def expected_image_at(golden: GoldenRun, site: int) -> Dict[int, object]:
    """The FASE-protected portion of the image a crash at ``site`` must
    recover to: committed writes overlaid in commit order."""
    expected: Dict[int, object] = {}
    for uid in golden.committed_by(site):
        expected.update(golden.fases[uid].writes)
    return expected


def check_crash(
    golden: GoldenRun,
    site: int,
    state: CrashedState,
    layout=None,
) -> List[OracleViolation]:
    """Recover ``state`` and report every FASE-invariant violation,
    reading its whole image.

    ``layout`` defaults to the golden run's (replays of one configuration
    share the region layout by construction).  Sites may be asked for in
    any order; ascending (a sweep) is the cheap one.
    """
    log = scan_log(state.nvram, layout or golden.layout)
    return _judge(golden, site, state.fault_model, golden._truth_at(site), log, state.nvram)


class SweepJudge:
    """The oracle of one journal walk over its clean ``image`` (read
    only): :meth:`advance` to each target, then call once per model.
    It keeps the protected addresses the image has ``bad``, the
    ``(FASE, addr)`` of every undo record ``logged`` and each in-flight
    one leaked ``unlogged``, the value rollback leaves at each address it
    sets ``undo`` (``None`` where absent) and the bad addresses it leaves
    (``rest``); ``broken``: no image here passes."""

    def __init__(self, golden: GoldenRun, image: Dict[int, object]) -> None:
        self.golden, self.image, self.truth = golden, image, golden._new_cursor()
        self.log = [RegionLog(region) for region in golden.layout.log_regions]
        self.bad, self.rest, self.logged, self.unlogged = set(), set(), set(), set()
        self.undo, self.broken = {}, False

    def advance(self, site: int, landed: Set[int]) -> None:
        """Move to ``site``, where ``landed`` became durable since the last."""
        golden, truth, image = self.golden, self.truth, self.image
        begun, folded = truth.begun, truth.folded
        golden._advance(truth, site)
        if not landed and begun == truth.begun and folded == truth.folded:
            return  # nothing it keeps can have changed
        committed = [golden.fases[uid].writes for uid in golden.commit_order[folded : truth.folded]]
        fresh, reparsed = self._read(landed)
        changed = set(landed).union(*committed)
        expected, nones = truth.expected, truth.nones
        for addr in changed:
            if addr in expected or addr in nones:  # protected: _ok, inline
                ok = image.get(addr) == expected.get(addr)
                (self.bad.discard if ok else self.bad.add)(addr)
        # Invariant 3 at the pairs whose value, truth, log or FASE changed.
        in_flight = truth.in_flight
        if reparsed:
            self.unlogged.clear()
            begun = 0
        elif committed:
            self.unlogged = {pair for pair in self.unlogged if pair[0] in in_flight}
        pairs = [
            (rec.uid, addr)
            for rec in truth.records[begun : truth.begun]
            if rec.uid in in_flight
            for addr in rec.all_values
        ]
        pairs += [
            (uid, a) for uid, rec in in_flight.items() for a in rec.all_values.keys() & changed
        ]
        for pair in pairs:
            leaks = _leaks(golden, truth, self.logged, *pair, image.get(pair[1]))
            (self.unlogged.add if leaks else self.unlogged.discard)(pair)
        # The rollback overlay: the open FASEs' undo records, rebuilt
        # whenever a record was read or a FASE committed.
        if fresh or committed:
            try:
                self.undo = {r.addr: r.old_value for r in undo_records(self.log)}
                self.broken = self._wrong(self.undo)
            except RecoveryError:
                self.undo, self.broken = {}, True
        self.rest = self.bad.difference(self.undo)

    def _read(self, landed: Set[int]) -> tuple:
        """Bring the parse up to ``image`` where ``landed`` hit the log:
        the records newly read, and whether a region was parsed anew."""
        fresh, reparsed = [], False
        for i, part in enumerate(self.log):
            base, size = part.region.base, part.region.size
            hits = [addr for addr in landed if base <= addr < base + size]
            if not hits:
                continue
            start = len(part.records)
            if min(hits) < base + 64 + LOG_SLOT_BYTES * start:
                part = self.log[i] = RegionLog(part.region)
                start, reparsed = 0, True
            part.extend(UndoLog.slots(self.image, base, size, start))
            fresh += part.records[start:]
        if reparsed:  # every record is fresh
            self.logged, fresh = set(), [r for p in self.log for r in p.records]
        undone = [(r.fase_id, r.addr) for r in fresh if r.kind == KIND_UNDO]
        self.logged.update(undone)
        self.unlogged.difference_update(undone)
        return fresh, reparsed

    def _wrong(self, values: Dict[int, object]) -> bool:
        """Whether ``values`` (``None`` where absent) set a protected
        address wrong, read as the per-address loop reads it."""
        expected = self.truth.expected
        return any(values[a] is not None for a in values.keys() & self.truth.nones) or any(
            values[a] != expected[a] for a in values.keys() & expected.keys()
        )

    def __call__(
        self, site: int, fault_model: str, overlay: Dict[int, object]
    ) -> List[OracleViolation]:
        """The verdict on the image at ``site`` (the last :meth:`advance`)
        that ``fault_model`` made by writing ``overlay`` over ``image``."""
        if not self.broken and self._passes(overlay):
            return []
        image = overlaid(self.image, overlay)
        log = [read_region(image, p.region) if _touches(overlay, p.region) else p for p in self.log]
        return _judge(self.golden, site, fault_model, self.truth, log, image)

    def _passes(self, overlay: Dict[int, object]) -> bool:
        if not overlay:
            return not self.unlogged and not self.rest
        if (
            any(addr not in overlay for _uid, addr in self.unlogged)
            or not overlay.keys() >= self.rest
            or any(_touches(overlay, part.region) for part in self.log)
        ):
            return False
        kept = {a: None if v is ABSENT else v for a, v in overlay.items() if a not in self.undo}
        if self._wrong(kept):
            return False
        golden, truth = self.golden, self.truth
        return not any(
            _leaks(golden, truth, self.logged, uid, addr, value)
            for addr, value in overlay.items()
            for uid, rec in truth.in_flight.items()
            if addr in rec.all_values
        )


def _touches(overlay: Dict[int, object], region) -> bool:
    return any(region.base <= addr < region.base + region.size for addr in overlay)


def _leaks(golden: GoldenRun, truth, logged, uid: int, addr: int, leaked: object) -> bool:
    """Invariant 3: in-flight FASE ``uid``'s value ``leaked`` is durable
    at ``addr`` with no ``(uid, addr)`` undo record in ``logged`` (None
    or :data:`ABSENT` leaked nothing)."""
    return not (
        addr in golden.unprotected
        or leaked is None
        or leaked not in truth.in_flight[uid].all_values[addr]
        or leaked == truth.expected.get(addr)  # indistinguishable from the committed value
        or (uid, addr) in logged
    )


def _judge(
    golden: GoldenRun,
    site: int,
    fault_model: str,
    truth,
    log: ParsedLog,
    image: Dict[int, object],
) -> List[OracleViolation]:
    """The verdict on the whole ``image``, its ``log`` parsed, against
    the ``truth`` at ``site``."""
    violations: List[OracleViolation] = []

    def violation(kind: str, **what) -> None:
        violations.append(
            OracleViolation(
                kind=kind,
                site=site,
                site_class=golden.site_class(site),
                fault_model=fault_model,
                **what,
            )
        )

    expected, nones, in_flight = truth.expected, truth.nones, truth.in_flight

    # Invariant 3 first, on the untouched pre-recovery image: every
    # leaked in-flight value must have its undo record already durable.
    logged = {
        (uid, part.records[i].addr)
        for part in log
        for uid in in_flight
        for i in part.undo.get(uid, ())
    }
    for uid, record in in_flight.items():
        for addr in record.all_values:
            leaked = image.get(addr)
            if _leaks(golden, truth, logged, uid, addr, leaked):
                violation(
                    V_LOG_BEFORE_DATA,
                    addr=addr,
                    fase=uid,
                    actual=leaked,
                    detail="in-flight value durable without its undo record",
                )

    try:
        undone = undo_records(log)
    except RecoveryError as exc:
        violation(V_RECOVERY_ERROR, detail=str(exc))
        return violations
    recovered = overlaid(image, undo_overlay(undone))

    # Invariants 1 + 2, accepted at C speed: every committed value is
    # there and no value is where the truth reads None.  Unprotected
    # addresses carry no guarantee and are in neither collection.
    if expected.items() <= recovered.items() and all(
        recovered[addr] is None for addr in recovered.keys() & nones
    ):
        return violations
    # Explained in Python: name each protected address that differs.
    for addr in golden.checked:
        exp = expected.get(addr)
        act = recovered.get(addr)
        if exp == act:
            continue
        if exp is not None and act is None:
            kind = V_MISSING_COMMITTED
        elif exp is None and act is not None:
            kind = V_LEAKED_UNCOMMITTED
        else:
            kind = V_WRONG_VALUE
        violation(kind, addr=addr, expected=exp, actual=act)
    return violations
