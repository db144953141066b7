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

One crashed image costs one forward pass over what is durable: the log
regions are parsed once (:func:`~repro.atlas.recovery.scan_log`), the
third invariant reads the in-flight FASEs' undo entries off that parse,
and :func:`~repro.atlas.recovery.rollback` consumes the same parse.  The
golden side is not rebuilt per site either:
:class:`~repro.faults.driver.GoldenRun` advances it along the sweep and
restarts it when a site lies behind the last one asked for, so
:func:`check_crash` stays a function of ``(golden, site, state)``.  Nor
is the log: the cursor keeps the last image's parse for ``scan_log`` to
extend.  What is never trusted is the image: every log slot is read
again, and the parse is kept only where each slot still holds the very
record parsed from it, because a fault model may have rewritten it.

**Accept fast, explain slow.**  The first two invariants hold iff the
overlay's items are a subset of the recovered image's and no unwritten
protected address is in it — two C-level set operations.  Only an image
that fails them enters the per-address loop that names each
``missing_committed`` / ``leaked_uncommitted`` / ``wrong_value``.

A stored ``None`` payload and an absent address are deliberately
indistinguishable here — that is the repo-wide convention (the undo log
encodes "did not exist before" as ``old_value None``), so the loop
normalizes both to ``None`` before comparing.  The set operations cannot
(a key holding ``None`` is still a key), so such an image fails the fast
test and takes the slow road, which then finds nothing: slower, never
wrong.  ``recovery.py``'s module docstring carries the matching
soundness argument; DESIGN.md §10 ties the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.atlas.recovery import rollback, scan_log
from repro.common.errors import RecoveryError
from repro.faults.driver import GoldenRun
from repro.nvram.failure import CrashedState

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
    """Recover ``state`` and report every FASE-invariant violation.

    ``layout`` defaults to the golden run's (replays of one configuration
    share the region layout by construction).  Sites may be asked for in
    any order; ascending (a sweep) is the cheap one.
    """
    if layout is None:
        layout = golden.layout
    image = state.nvram
    violations: List[OracleViolation] = []

    def violation(kind: str, **what) -> None:
        violations.append(
            OracleViolation(
                kind=kind,
                site=site,
                site_class=golden.site_class(site),
                fault_model=state.fault_model,
                **what,
            )
        )

    truth = golden._truth_at(site)
    expected, unwritten, in_flight = truth.expected, truth.unwritten, truth.in_flight
    log = truth.log = scan_log(image, layout, truth.log)

    # Invariant 3 first, on the untouched pre-recovery image: every
    # leaked in-flight value must have its undo record already durable.
    undo_entries = {
        (uid, part.records[i].addr)
        for part in log
        for uid in in_flight
        for i in part.undo.get(uid, ())
    }
    for uid, record in in_flight.items():
        for addr, values in record.all_values.items():
            if addr in golden.unprotected:
                continue
            leaked = image.get(addr)
            if leaked is None or leaked not in values:
                continue
            if leaked == expected.get(addr):
                continue  # indistinguishable from the committed value
            if (uid, addr) not in undo_entries:
                violation(
                    V_LOG_BEFORE_DATA,
                    addr=addr,
                    fase=uid,
                    actual=leaked,
                    detail="in-flight value durable without its undo record",
                )

    try:
        recovered = rollback(image, log).nvram
    except RecoveryError as exc:
        violation(V_RECOVERY_ERROR, detail=str(exc))
        return violations

    # Invariants 1 + 2, accepted at C speed: every committed value is
    # there and nothing is where no committed FASE wrote.  Unprotected
    # addresses carry no guarantee and are in neither collection.
    if expected.items() <= recovered.items() and recovered.keys().isdisjoint(unwritten):
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
