"""The ledger's one query: did the last two records of a spec differ?

Every counter the ledger stores is a deterministic function of the
spec it was recorded under (:func:`~repro.obs.ledger.counters_from_result`),
so "did this spec's outcome change?" has an exact answer: compare the
**whole** ``counters`` dict of a timeline's last two records.  A key
that appeared, a key that vanished and a value that changed — of any
JSON type, compared by canonical JSON — all count; no threshold, fit or
metric-name heuristic stands between a one-cycle change and the flag.

Pure standard library, importable without the experiment stack; the
``history`` CLI artifact (``python -m repro.experiments history``)
renders the answer as text/markdown/JSON.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.ledger import RunLedger, RunRecord, canonical_json


def spec_label(record: RunRecord) -> str:
    """A short human label for one spec group.

    Prefers the conventional run-spec fields; falls back to the
    fingerprint prefix so every group is addressable.
    """
    spec = record.spec
    parts = [record.kind]
    for key in ("workload", "technique", "threads", "quick"):
        if key not in spec:
            continue
        value = spec[key]
        if isinstance(value, bool):
            if value:
                parts.append(key)
        elif key == "threads":
            parts.append(f"t{value}")
        elif str(value) != record.kind:
            parts.append(str(value))
    if len(parts) == 1:
        parts.append(record.spec_sha[:12])
    return "/".join(parts)


def _matches(record: RunRecord, spec_filter: Optional[str]) -> bool:
    if not spec_filter:
        return True
    if record.spec_sha.startswith(spec_filter):
        return True
    return spec_filter in spec_label(record) or spec_filter in json.dumps(
        record.spec, sort_keys=True
    )


def select_timelines(
    ledger: RunLedger,
    kind: Optional[str] = None,
    spec_filter: Optional[str] = None,
) -> Dict[str, List[RunRecord]]:
    """Spec-grouped timelines, filtered by kind and spec."""
    groups: Dict[str, List[RunRecord]] = {}
    for sha, records in ledger.timelines(kind=kind).items():
        records = [r for r in records if _matches(r, spec_filter)]
        if records:
            groups[sha] = records
    return groups


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def counter_deltas(prev: Dict, last: Dict) -> Dict[str, Dict]:
    """Every counter on which two ``counters`` dicts differ.

    Each entry holds ``prev`` and/or ``last`` — a side is absent where
    the key is (an added or vanished counter) — and ``ratio`` where both
    values are numbers and ``prev`` is not zero.
    """
    deltas: Dict[str, Dict] = {}
    for key in sorted(set(prev) | set(last)):
        entry = {side: c[key] for side, c in (("prev", prev), ("last", last)) if key in c}
        a, b = entry.get("prev"), entry.get("last")
        if len(entry) == 2 and canonical_json(a) == canonical_json(b):
            continue
        if _is_number(a) and _is_number(b) and a:
            entry["ratio"] = round(b / a, 6)
        deltas[key] = entry
    return deltas


def compare(
    ledger: RunLedger,
    kind: Optional[str] = None,
    spec_filter: Optional[str] = None,
) -> Dict:
    """The last two records of each timeline with >= 2, counters compared whole.

    ``ok`` is ``True`` exactly when every such timeline's last two
    records carry identical counters.
    """
    rows: List[Dict] = []
    for sha, records in sorted(select_timelines(ledger, kind, spec_filter).items()):
        if len(records) < 2:
            continue
        prev, last = records[-2], records[-1]
        deltas = counter_deltas(prev.counters, last.counters)
        rows.append(
            {
                "spec_sha": sha,
                "label": spec_label(last),
                "records": len(records),
                "prev_run_id": prev.run_id,
                "last_run_id": last.run_id,
                "identical": not deltas,
                "deltas": deltas,
            }
        )
    return {"rows": rows, "ok": all(r["identical"] for r in rows)}
