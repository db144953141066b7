"""Longitudinal queries over the run ledger: trend, compare, regress, flaky.

This module reads the whole :class:`~repro.obs.ledger.RunLedger` and
answers trajectory questions:

``trend``
    Per-spec timelines of one metric — every record of a spec in append
    order, with its EWMA fit and any detected changepoint.

``regress``
    The gate: for each spec timeline, fit an EWMA over all but the
    latest point and flag the latest when it falls on the wrong side of
    the fitted trend by more than a threshold.  Direction-aware
    (throughput regresses *down*, time/overhead regress *up*), and each
    finding carries the records linked to the flagged run through
    shared artifact paths (its trace profile, its crash matrix).

``compare``
    The last two records of each spec timeline, counter by counter —
    the ledger-native replacement for hand-picking two files.

``flaky``
    Campaign stability: campaigns are deterministic functions of their
    spec, so two records of one fingerprint whose stable outcomes
    (violations, verdict cells) differ expose nondeterminism — the
    longitudinal version of the crash oracle's verdict.

All analysis is pure arithmetic on the records (EWMA + a mean-shift
changepoint scan), deterministic given the ledger contents.  Pure
standard library, importable without the experiment stack; the
``history`` CLI artifact (``python -m repro.experiments history``)
wraps these queries with table/markdown/JSON/HTML rendering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.ledger import RunLedger, RunRecord, related_artifacts

#: Default EWMA smoothing weight for the fitted trend (weight of the
#: newest point; 0.3 tracks drift within ~3 records while damping one
#: noisy outlier).
DEFAULT_ALPHA = 0.3

#: Default regression threshold, percent deviation from the fitted trend.
DEFAULT_THRESHOLD_PCT = 10.0

#: Minimum timeline length for the changepoint scan (means on both
#: sides of a split need at least two points each).
MIN_CHANGEPOINT_POINTS = 4

#: Metric-name fragments implying "higher is worse".  Everything else
#: (throughput, speedups, events/sec) regresses downward.
_HIGHER_IS_WORSE = (
    "time",
    "_s",
    "overhead",
    "stall",
    "wall",
    "cycles",
    "violations",
    "violated",
    "ratio",
    "miss",
)


def metric_direction(metric: str) -> str:
    """``"up"`` when a rising metric is a regression, else ``"down"``.

    Inference is by name fragment (``time``, ``overhead``, ``stall``,
    ``…_s`` … are costs; everything else is treated as goodness).  The
    CLI's ``--direction`` overrides it when a name lies.
    """
    leaf = metric.rsplit(".", 1)[-1].lower()
    for fragment in _HIGHER_IS_WORSE:
        if fragment == "_s" and leaf.endswith("_s"):
            return "up"
        if fragment != "_s" and fragment in leaf:
            return "up"
    return "down"


def metric_value(record: RunRecord, metric: str) -> Optional[float]:
    """Resolve a dotted metric path against one record.

    ``"counters.time"`` reads ``record.counters["time"]``; a bare name
    is tried under ``counters`` first, then as a record attribute
    (``wall_s``).  Returns ``None`` when the path does not resolve to a
    number — records missing a metric simply drop out of that timeline.
    """
    data = record.to_dict()
    path = metric.split(".")
    if len(path) == 1:
        if metric in record.counters:
            path = ["counters", metric]
        elif metric not in data:
            return None
    node = data
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------


def ewma(values: Sequence[float], alpha: float = DEFAULT_ALPHA) -> List[float]:
    """The exponentially-weighted moving average of a series.

    ``out[i]`` is the fit after observing ``values[: i + 1]``; the
    first point seeds the fit.  Pure arithmetic, deterministic.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"ewma alpha must be in (0, 1], got {alpha}")
    out: List[float] = []
    fit: Optional[float] = None
    for v in values:
        fit = v if fit is None else fit + alpha * (v - fit)
        out.append(fit)
    return out


def detect_changepoint(
    values: Sequence[float], min_shift_pct: float = DEFAULT_THRESHOLD_PCT
) -> Optional[Dict]:
    """The strongest mean-shift split of a series, if any clears the bar.

    Scans every split index with at least two points on each side,
    scores it by the relative shift between the before/after means, and
    returns the strongest split when its shift exceeds
    ``min_shift_pct`` percent.  A step change (the typical landed-PR
    signature) scores far above noise; a gradual drift scores low and
    is the EWMA's job instead.  Returns ``None`` when nothing clears
    the bar or the series is too short.
    """
    n = len(values)
    if n < MIN_CHANGEPOINT_POINTS:
        return None
    best: Optional[Dict] = None
    for split in range(2, n - 1):
        before = sum(values[:split]) / split
        after = sum(values[split:]) / (n - split)
        if before == 0:
            continue
        shift_pct = (after / before - 1.0) * 100.0
        if best is None or abs(shift_pct) > abs(best["shift_pct"]):
            best = {
                "index": split,
                "before_mean": before,
                "after_mean": after,
                "shift_pct": shift_pct,
            }
    if best is None or abs(best["shift_pct"]) < min_shift_pct:
        return None
    best["before_mean"] = round(best["before_mean"], 6)
    best["after_mean"] = round(best["after_mean"], 6)
    best["shift_pct"] = round(best["shift_pct"], 3)
    return best


# ---------------------------------------------------------------------------
# Spec labelling + filtering
# ---------------------------------------------------------------------------


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
    limit: Optional[int] = None,
) -> Dict[str, List[RunRecord]]:
    """Spec-grouped timelines, filtered; each group capped to ``limit``."""
    groups: Dict[str, List[RunRecord]] = {}
    for sha, records in ledger.timelines(kind=kind).items():
        records = [r for r in records if _matches(r, spec_filter)]
        if not records:
            continue
        if limit is not None and limit > 0:
            records = records[-limit:]
        groups[sha] = records
    return groups


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass
class TrendLine:
    """One spec's timeline of one metric, with its fits."""

    spec_sha: str
    label: str
    metric: str
    values: List[float]
    ewma: List[float]
    timestamps: List[float]
    changepoint: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return {
            "spec_sha": self.spec_sha,
            "label": self.label,
            "metric": self.metric,
            "values": self.values,
            "ewma": [round(v, 6) for v in self.ewma],
            "timestamps": self.timestamps,
            "changepoint": self.changepoint,
        }


def trend(
    ledger: RunLedger,
    metric: str,
    kind: Optional[str] = None,
    spec_filter: Optional[str] = None,
    alpha: float = DEFAULT_ALPHA,
    limit: Optional[int] = None,
    min_shift_pct: float = DEFAULT_THRESHOLD_PCT,
) -> List[TrendLine]:
    """Per-spec timelines of ``metric`` with EWMA and changepoint."""
    lines: List[TrendLine] = []
    for sha, records in sorted(
        select_timelines(ledger, kind, spec_filter, limit).items()
    ):
        points = [
            (r, v)
            for r in records
            if (v := metric_value(r, metric)) is not None
        ]
        if not points:
            continue
        values = [v for _, v in points]
        lines.append(
            TrendLine(
                spec_sha=sha,
                label=spec_label(points[0][0]),
                metric=metric,
                values=values,
                ewma=ewma(values, alpha),
                timestamps=[r.ts for r, _ in points],
                changepoint=detect_changepoint(values, min_shift_pct),
            )
        )
    return lines


@dataclass
class RegressionFinding:
    """One flagged timeline: the latest point broke from its trend."""

    spec_sha: str
    label: str
    metric: str
    direction: str
    latest: float
    fitted: float
    deviation_pct: float
    threshold_pct: float
    points: int
    run_id: str
    artifacts: Dict[str, str] = field(default_factory=dict)
    linked: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "spec_sha": self.spec_sha,
            "label": self.label,
            "metric": self.metric,
            "direction": self.direction,
            "latest": self.latest,
            "fitted": round(self.fitted, 6),
            "deviation_pct": round(self.deviation_pct, 3),
            "threshold_pct": self.threshold_pct,
            "points": self.points,
            "run_id": self.run_id,
            "artifacts": dict(self.artifacts),
            "linked": list(self.linked),
        }


def regress(
    ledger: RunLedger,
    metric: str,
    kind: Optional[str] = None,
    spec_filter: Optional[str] = None,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    alpha: float = DEFAULT_ALPHA,
    direction: str = "auto",
    limit: Optional[int] = None,
) -> Dict:
    """Gate the latest record of each timeline against its fitted trend.

    The trend is the EWMA of every point *before* the latest, so one
    regressed point cannot drag its own baseline toward itself (the
    multi-baseline answer to gating against a single prior file).
    Timelines with fewer than two points are skipped (nothing to gate
    against) and reported as such.  The result's ``ok`` is ``False``
    when any timeline is flagged; each finding links the flagged run's
    artifacts and any profile/crashmatrix records sharing them.
    """
    if direction == "auto":
        direction = metric_direction(metric)
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be auto/up/down, got {direction!r}")
    all_records = ledger.scan()
    findings: List[RegressionFinding] = []
    skipped: List[Dict] = []
    checked = 0
    for sha, records in sorted(
        select_timelines(ledger, kind, spec_filter, limit).items()
    ):
        points = [
            (r, v)
            for r in records
            if (v := metric_value(r, metric)) is not None
        ]
        if len(points) < 2:
            skipped.append(
                {
                    "spec_sha": sha,
                    "label": spec_label(records[0]),
                    "points": len(points),
                    "reason": "need >= 2 points with the metric",
                }
            )
            continue
        checked += 1
        values = [v for _, v in points]
        fitted = ewma(values[:-1], alpha)[-1]
        latest_record, latest = points[-1]
        if fitted == 0:
            continue
        deviation_pct = (latest / fitted - 1.0) * 100.0
        regressed = (
            deviation_pct > threshold_pct
            if direction == "up"
            else deviation_pct < -threshold_pct
        )
        if regressed:
            findings.append(
                RegressionFinding(
                    spec_sha=sha,
                    label=spec_label(latest_record),
                    metric=metric,
                    direction=direction,
                    latest=latest,
                    fitted=fitted,
                    deviation_pct=deviation_pct,
                    threshold_pct=threshold_pct,
                    points=len(values),
                    run_id=latest_record.run_id,
                    artifacts=dict(latest_record.artifacts),
                    linked=related_artifacts(all_records, latest_record),
                )
            )
    return {
        "metric": metric,
        "direction": direction,
        "threshold_pct": threshold_pct,
        "alpha": alpha,
        "timelines_checked": checked,
        "skipped": skipped,
        "findings": [f.to_dict() for f in findings],
        "ok": not findings,
    }


def compare(
    ledger: RunLedger,
    kind: Optional[str] = None,
    spec_filter: Optional[str] = None,
) -> Dict:
    """Counter-by-counter deltas of the last two records per timeline."""
    rows: List[Dict] = []
    for sha, records in sorted(select_timelines(ledger, kind, spec_filter).items()):
        if len(records) < 2:
            continue
        prev, last = records[-2], records[-1]
        deltas = {}
        for key in sorted(set(prev.counters) | set(last.counters)):
            a, b = prev.counters.get(key), last.counters.get(key)
            if isinstance(a, bool) or isinstance(b, bool):
                if a != b:
                    deltas[key] = {"prev": a, "last": b}
                continue
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                if a != b:
                    entry = {"prev": a, "last": b}
                    if a:
                        entry["ratio"] = round(b / a, 6)
                    deltas[key] = entry
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


def flaky(
    ledger: RunLedger,
    kind: str = "campaign",
    spec_filter: Optional[str] = None,
) -> Dict:
    """Timelines whose deterministic outcomes disagree across records.

    Campaigns (and runs) are pure functions of their spec, so two
    records of one fingerprint with different stable outcomes mean the
    code changed under the same spec *or* the run is nondeterministic —
    either way, the timeline is not trustworthy and is listed here with
    the distinct outcomes observed.
    """
    rows: List[Dict] = []
    for sha, records in sorted(select_timelines(ledger, kind, spec_filter).items()):
        if len(records) < 2:
            continue
        outcomes: Dict[str, Dict] = {}
        for record in records:
            key = json.dumps(record.counters, sort_keys=True)
            entry = outcomes.setdefault(
                key, {"counters": record.counters, "count": 0, "run_ids": []}
            )
            entry["count"] += 1
            entry["run_ids"].append(record.run_id)
        if len(outcomes) > 1:
            rows.append(
                {
                    "spec_sha": sha,
                    "label": spec_label(records[-1]),
                    "records": len(records),
                    "outcomes": list(outcomes.values()),
                }
            )
    return {"kind": kind, "rows": rows, "ok": not rows}
