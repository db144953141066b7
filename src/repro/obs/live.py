"""Live telemetry: bounded streaming traces, incremental profiles, alerts.

Everything in :mod:`repro.obs.trace` / :mod:`repro.obs.analyze` is
post-mortem — the recorder retains every event in unbounded arrays and
the analyzer folds a complete trace after the run.  This module is the
*online* counterpart (DESIGN.md §12): one windowed recorder base, two
things to do with a closed window, and alerting over the result.

- :class:`WindowedRecorder` is a :class:`~repro.obs.trace.TraceRecorder`
  whose six columns hold only the *open* cycle window; it owns the
  window rule and hands each closed window to ``_close_window()``.
- :class:`StreamingRecorder` appends each closed window to a schema-3
  JSONL file through the offline export's own encoder, so the finished
  file is **byte-identical** to ``TraceRecorder.write_jsonl`` of the
  same run.
- :class:`StreamingProfile` feeds each closed window to the very
  :class:`~repro.obs.analyze.ProfileFold` the offline ``analyze()``
  runs, so ``finalize()`` equals the offline profile *by construction*,
  and emits a :class:`WindowSnapshot` per window.
- :class:`AlertEngine` evaluates declarative :class:`AlertRule`\\ s —
  threshold, rate-of-change, sustained-window — over those snapshots
  (and over analyzer diagnoses), emitting typed, severity-ranked
  :class:`Alert` records to a deterministic JSONL log.

The import direction rule of :mod:`repro.obs` holds: nothing here
imports :mod:`repro.experiments` (the ``monitor`` CLI lives on the
experiments side and imports us).
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter, deque
from dataclasses import asdict, dataclass
from typing import Callable, Deque, Dict, IO, Iterable, List, Optional, Union

from repro.common.errors import ConfigurationError
from repro.obs.analyze import (
    SEVERITIES,
    _SEVERITY_RANK,
    AnalyzerConfig,
    Diagnosis,
    ProfileFold,
    TraceProfile,
    max_severity,
)
from repro.obs.trace import TraceRecorder, encode_columns, encode_meta_line

#: Default streaming window length in model cycles.  Small enough that a
#: seed run closes many windows, large enough that per-window deltas are
#: statistically meaningful.
DEFAULT_WINDOW_CYCLES = 100_000


# ---------------------------------------------------------------------------
# the windowed recorder base
# ---------------------------------------------------------------------------


class WindowedRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that buffers one cycle window at a time.

    Drop-in at every machine recording site (``enabled`` / ``record`` /
    ``on_quantum``).  The inherited columns — and so the inherited
    readers (``len()``, ``events()``, ``to_jsonl()``) — hold the open
    window only: when it closes, the subclass's ``_close_window()``
    consumes ``columns()`` and clears them, which bounds memory by one
    window whatever the run length.

    **Window semantics.**  Per-thread cycle clocks interleave, so raw
    timestamps are not globally monotonic in recording order.  Windows
    are therefore driven by a *watermark* — the maximum timestamp
    observed so far (events and scheduler-quantum ticks both advance
    it).  Window ``w`` spans model cycles ``[w*W, (w+1)*W)`` and closes
    the first time the watermark reaches ``(w+1)*W``; every event is
    attributed to the window open at the moment it is recorded.  That
    makes windowing a pure function of the event/tick sequence —
    deterministic across runs — while a fold or a spill that only
    *chunks* at the boundaries never depends on where they fell.  The
    watermark itself is implicit: boundaries only move forward, so
    ``now >= boundary`` is exactly "the running maximum has reached it".
    """

    __slots__ = ("window_cycles", "windows_closed", "_boundary")

    def __init__(self, window_cycles: int = DEFAULT_WINDOW_CYCLES) -> None:
        if window_cycles < 1:
            raise ConfigurationError(f"window_cycles must be >= 1, got {window_cycles}")
        super().__init__()
        self.window_cycles = window_cycles
        self.windows_closed = 0
        #: End cycle of the open window.
        self._boundary = window_cycles

    def record(
        self, kind: str, thread_id: int, time: int, a: int = 0, b: int = 0, c: int = 0
    ) -> None:
        """Attribute one event to the open window; close windows if due."""
        # TraceRecorder.record, inlined: a super() call per event is a
        # measurable share of the streaming overhead.
        self._kinds.append(kind)
        self._tids.append(thread_id)
        self._times.append(time)
        self._a.append(a)
        self._b.append(b)
        self._c.append(c)
        if time >= self._boundary:
            self._advance(time)

    def on_quantum(self, thread_id: int, now: int) -> None:
        """Scheduler tick: lets an event-free stretch still close windows."""
        if now >= self._boundary:
            self._advance(now)

    def _advance(self, now: int) -> None:
        while now >= self._boundary:
            self._close_window()
            self._boundary += self.window_cycles
            self.windows_closed += 1

    def _close_window(self) -> None:
        """Consume the buffered rows of window ``windows_closed``, which
        ends at ``_boundary``; must leave the buffer empty."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# streaming recorder
# ---------------------------------------------------------------------------


class StreamingRecorder(WindowedRecorder):
    """Bounded-memory recorder: every closed window is appended to a file.

    ``target`` is the spill file — a path (opened here, closed by
    ``close()``) or an already-open text file (left open).  The
    ``trace_meta`` header is written at once; each window's rows are
    encoded, written and flushed when the window closes, and the
    remainder at ``close()`` — synchronously, in recording order, so a
    write error surfaces as itself at the boundary that hit it and the
    finished file is byte-identical to ``TraceRecorder.write_jsonl`` of
    the same run.  (A writer thread was measured and removed: under the
    GIL it was never faster than this — DESIGN.md §12.)

    ``len()`` and ``counts()`` still cover the whole stream.
    """

    __slots__ = ("_fh", "_owns_fh", "_spilled", "_spilled_counts", "closed")

    def __init__(
        self,
        target: Union[str, "os.PathLike[str]", IO[str]],
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
    ) -> None:
        super().__init__(window_cycles)
        self._owns_fh = isinstance(target, (str, os.PathLike))
        self._fh: IO[str] = (
            open(target, "w", encoding="utf-8") if self._owns_fh else target
        )
        self._spilled = 0
        self._spilled_counts: Counter = Counter()
        self.closed = False
        self._fh.write(encode_meta_line() + "\n")

    def flush(self) -> None:
        """Append every buffered row to the file; on return the file
        holds every event recorded so far."""
        kinds = self._kinds
        if not kinds:
            return
        self._fh.write(encode_columns(*self.columns()))
        self._fh.flush()
        self._spilled += len(kinds)
        self._spilled_counts.update(kinds)
        self.clear()

    def _close_window(self) -> None:
        self.flush()

    def close(self) -> None:
        """Spill the remainder and close an owned file — also when that
        last spill raises."""
        if self.closed:
            return
        self.closed = True
        try:
            self.flush()
        finally:
            if self._owns_fh:
                self._fh.close()

    def __enter__(self) -> "StreamingRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        """Total events observed (not the buffered rows)."""
        return self._spilled + len(self._kinds)

    def counts(self) -> Dict[str, int]:
        """Event count per kind over the whole stream (sorted by kind)."""
        return dict(sorted((self._spilled_counts + Counter(self._kinds)).items()))

    def __repr__(self) -> str:
        return f"StreamingRecorder(events={len(self)}, windows={self.windows_closed})"


# ---------------------------------------------------------------------------
# streaming profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowSnapshot:
    """One closed cycle-window: its deltas plus cumulative health metrics."""

    index: int
    start_cycle: int
    end_cycle: int
    #: Deltas — what happened inside this window.
    events: int
    evict_flushes: int
    resize_evictions: int
    fase_drains: int
    stall_cycles: int
    selections: int
    fases: int
    #: Cumulative derived metrics as of the window's close.
    total_events: int
    write_amplification: float
    stall_share: float
    distinct_lines: int

    def to_dict(self) -> Dict:
        doc = asdict(self)
        doc["write_amplification"] = round(self.write_amplification, 6)
        doc["stall_share"] = round(self.stall_share, 6)
        return doc


def _fold_totals(fold: ProfileFold) -> Dict[str, int]:
    """The cumulative counters whose per-window deltas a
    :class:`WindowSnapshot` reports, keyed by its field names."""
    p = fold.prov
    return {
        "events": fold.events,
        "evict_flushes": p.evict_flushes,
        "resize_evictions": p.resize_evictions,
        "fase_drains": p.fase_drains,
        "stall_cycles": p.fase_drain_stall_cycles
        + p.final_drain_stall_cycles
        + p.issue_stall_cycles
        + p.writeback_stall_cycles,
        "selections": fold.adapt.selections,
        "fases": fold.fase.count,
    }


class StreamingProfile(WindowedRecorder):
    """Fold a live event stream into the offline profile, window by window.

    A recorder in its own right — hand it to a ``Machine``, or let the
    monitor's ``TraceTailer`` drive ``record`` — whose closed windows
    feed the *same* :class:`~repro.obs.analyze.ProfileFold` that powers
    the offline :func:`~repro.obs.analyze.analyze`: a single fold
    implementation is what makes ``finalize()`` provably equal to the
    post-hoc analysis of the full trace, for any window size.

    Each closed window appends a :class:`WindowSnapshot` to ``snapshots``
    (a bounded ring) and invokes the optional ``on_window`` callback —
    the feed the :class:`AlertEngine` and the monitor dashboard consume.
    """

    __slots__ = ("on_window", "fold", "snapshots")

    def __init__(
        self,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        *,
        config: Optional[AnalyzerConfig] = None,
        on_window: Optional[Callable[[WindowSnapshot], None]] = None,
        keep_snapshots: int = 256,
    ) -> None:
        super().__init__(window_cycles)
        self.on_window = on_window
        #: The cumulative fold (read its counters mid-stream).
        self.fold = ProfileFold(config)
        self.snapshots: Deque[WindowSnapshot] = deque(maxlen=keep_snapshots)

    def _close_window(self) -> None:
        fold = self.fold
        before = _fold_totals(fold)
        fold.feed_columns(*self.columns())
        self.clear()
        snap = WindowSnapshot(
            index=self.windows_closed,
            start_cycle=self._boundary - self.window_cycles,
            end_cycle=self._boundary,
            **{k: v - before[k] for k, v in _fold_totals(fold).items()},
            total_events=fold.events,
            write_amplification=fold.prov.write_amplification,
            stall_share=fold.fase.stall_share,
            distinct_lines=fold.prov.distinct_lines,
        )
        self.snapshots.append(snap)
        if self.on_window is not None:
            self.on_window(snap)

    def finalize(self) -> TraceProfile:
        """Fold the open remainder and return the full offline profile.

        Equal — field for field — to ``analyze()`` of the complete
        trace, because both paths run the identical fold over the
        identical event sequence; only the chunking differs.
        """
        self.fold.feed_columns(*self.columns())
        self.clear()
        return self.fold.finalize()

    def __repr__(self) -> str:
        return (
            f"StreamingProfile(windows={self.windows_closed}, "
            f"events={self.fold.events + len(self)})"
        )


# ---------------------------------------------------------------------------
# alert rules and engine
# ---------------------------------------------------------------------------

#: Rule kinds: instantaneous threshold, window-over-window rate of
#: change, and a threshold sustained for N consecutive windows.
RULE_KINDS = ("threshold", "rate", "sustained")

_OPS = {
    ">": lambda x, y: x > y,
    "<": lambda x, y: x < y,
    ">=": lambda x, y: x >= y,
    "<=": lambda x, y: x <= y,
}

#: Grammar (one rule per string)::
#:
#:     name: metric OP value [@severity]
#:     name: rate(metric) OP value [@severity]
#:     name: sustained(metric, N) OP value [@severity]
#:
#: ``OP`` is one of ``>`` ``<`` ``>=`` ``<=``; severity defaults to
#: ``warning``.  ``metric`` is a key of the observed snapshot dict
#: (:meth:`WindowSnapshot.to_dict` keys, or whatever dict the monitor
#: feeds); rules over metrics absent from a snapshot simply do not fire.
_RULE_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][\w-]*)\s*:\s*"
    r"(?:(?P<fn>rate|sustained)\s*\(\s*(?P<fmetric>[\w.]+)\s*"
    r"(?:,\s*(?P<window>\d+)\s*)?\)|(?P<metric>[\w.]+))\s*"
    r"(?P<op>>=|<=|>|<)\s*(?P<value>-?\d+(?:\.\d+)?)\s*"
    r"(?:@(?P<severity>\w+))?\s*$"
)


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting rule over window-snapshot metrics."""

    name: str
    metric: str
    kind: str = "threshold"
    op: str = ">"
    value: float = 0.0
    #: ``sustained``: consecutive breaching windows required to fire.
    window: int = 1
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {RULE_KINDS})"
            )
        if self.op not in _OPS:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown operator {self.op!r}"
            )
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown severity {self.severity!r} "
                f"(expected one of {SEVERITIES})"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"rule {self.name!r}: window must be >= 1, got {self.window}"
            )

    def condition(self) -> str:
        """The rule's condition clause, e.g. ``rate(evict_flushes) > 3``."""
        if self.kind == "rate":
            lhs = f"rate({self.metric})"
        elif self.kind == "sustained":
            lhs = f"sustained({self.metric}, {self.window})"
        else:
            lhs = self.metric
        return f"{lhs} {self.op} {self.value:g}"

    def describe(self) -> str:
        return f"{self.name}: {self.condition()} @{self.severity}"


def parse_rule(text: str) -> AlertRule:
    """Parse one rule from the string grammar (see :data:`_RULE_RE`)."""
    m = _RULE_RE.match(text)
    if m is None:
        raise ConfigurationError(
            f"unparseable alert rule {text!r}; expected "
            f"'name: metric > value [@severity]', "
            f"'name: rate(metric) > value [@severity]' or "
            f"'name: sustained(metric, N) > value [@severity]'"
        )
    fn = m.group("fn")
    return AlertRule(
        name=m.group("name"),
        metric=m.group("fmetric") if fn else m.group("metric"),
        kind=fn or "threshold",
        op=m.group("op"),
        value=float(m.group("value")),
        window=int(m.group("window") or 1),
        severity=m.group("severity") or "warning",
    )


@dataclass(frozen=True)
class Alert:
    """One fired alert (typed; serialized to the JSONL alert log)."""

    rule: str
    metric: str
    severity: str
    window_index: int
    value: float
    threshold: float
    message: str
    source: str = ""

    def to_dict(self) -> Dict:
        return {
            "kind": "alert",
            "rule": self.rule,
            "metric": self.metric,
            "severity": self.severity,
            "window_index": self.window_index,
            "value": round(self.value, 6),
            "threshold": self.threshold,
            "message": self.message,
            "source": self.source,
        }


def default_rules() -> List[AlertRule]:
    """The stock rule set: the four failure shapes the paper cares about.

    Calibrated (like :class:`~repro.obs.analyze.AnalyzerConfig`) so the
    seed workloads run clean — each seed thread adapts at most once, and
    seed stall shares sit far below the SLO — which is what lets CI
    assert "zero error alerts" on the smoke grid.
    """
    return [
        # Flush-rate spike: this window evicted 3x the previous one.
        AlertRule(
            name="flush_rate_spike",
            metric="evict_flushes",
            kind="rate",
            op=">",
            value=3.0,
            severity="warning",
        ),
        # Resize storm: many controller resizes inside one window.
        AlertRule(
            name="resize_storm",
            metric="selections",
            kind="threshold",
            op=">",
            value=8,
            severity="warning",
        ),
        # Stall-share SLO: commit drains eat >75% of FASE cycles for
        # three consecutive windows.  Seed maxima sit well below (the
        # worst windowed share is queue/SC at ~0.65, the worst grid
        # cell an ER run at ~0.49).
        AlertRule(
            name="stall_share_slo",
            metric="stall_share",
            kind="sustained",
            op=">",
            value=0.75,
            window=3,
            severity="error",
        ),
        # Write-amplification runaway: every line re-flushed 8x on average.
        AlertRule(
            name="write_amplification",
            metric="write_amplification",
            kind="threshold",
            op=">",
            value=8.0,
            severity="warning",
        ),
    ]


#: Diagnosis codes forwarded to the alert log by ``observe_diagnoses``
#: (the analyzer's live-relevant findings; severities carry over).
DIAGNOSIS_ALERT_CODES = (
    "knee_oscillation",
    "resize_storm",
    "unmatched_selection",
    "unbalanced_fase",
)


class AlertEngine:
    """Evaluate alert rules over a stream of window snapshots.

    Rules are **edge-triggered**: a rule fires when its condition turns
    true and re-arms only after observing a window where it is false, so
    a sustained breach produces one alert, not one per window.  The
    ``sustained`` kind additionally requires ``window`` consecutive
    breaching windows before the edge counts.

    Alerts accumulate in emission order (deterministic for a
    deterministic stream).  With ``log_path`` each alert is also
    appended to a JSONL log as it fires — sorted keys, one object per
    line, same byte-determinism contract as the trace export.
    """

    def __init__(
        self,
        rules: Optional[Iterable[AlertRule]] = None,
        *,
        log_path: Optional[str] = None,
        source: str = "",
    ) -> None:
        self.rules: List[AlertRule] = list(default_rules() if rules is None else rules)
        names = [r.name for r in self.rules]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigurationError(f"duplicate alert rule names: {dupes}")
        self.alerts: List[Alert] = []
        self.source = source
        self._log_path = log_path
        self._log_fh: Optional[IO[str]] = (
            open(log_path, "w", encoding="utf-8") if log_path else None
        )
        self._streak: Dict[str, int] = {r.name: 0 for r in self.rules}
        self._active: Dict[str, bool] = {r.name: False for r in self.rules}
        self._last_value: Dict[str, Optional[float]] = {r.name: None for r in self.rules}
        self.windows_observed = 0

    # -- observation -----------------------------------------------------

    def observe_window(self, snapshot: object, source: str = "") -> List[Alert]:
        """Evaluate every rule against one snapshot; return new alerts.

        ``snapshot`` is a :class:`WindowSnapshot` or any dict with an
        optional ``index`` key; rules over metrics the snapshot lacks
        are skipped (their streak and edge state freeze).
        """
        doc = snapshot.to_dict() if hasattr(snapshot, "to_dict") else dict(snapshot)
        index = int(doc.get("index", self.windows_observed))
        self.windows_observed += 1
        fired: List[Alert] = []
        for rule in self.rules:
            if rule.metric not in doc:
                continue
            value = float(doc[rule.metric])
            if rule.kind == "rate":
                prev = self._last_value[rule.name]
                self._last_value[rule.name] = value
                if prev is None or prev == 0:
                    continue
                observed = value / prev
            else:
                observed = value
            breach = _OPS[rule.op](observed, rule.value)
            if rule.kind == "sustained":
                self._streak[rule.name] = self._streak[rule.name] + 1 if breach else 0
                breach = self._streak[rule.name] >= rule.window
            if breach and not self._active[rule.name]:
                fired.append(self._emit(rule, index, observed, source))
            self._active[rule.name] = breach
        return fired

    def observe_diagnoses(
        self, diagnoses: Iterable[Diagnosis], window_index: int = -1, source: str = ""
    ) -> List[Alert]:
        """Forward analyzer diagnoses (finalize-time findings) as alerts."""
        fired: List[Alert] = []
        for d in diagnoses:
            if d.code not in DIAGNOSIS_ALERT_CODES:
                continue
            alert = Alert(
                rule=f"diagnosis:{d.code}",
                metric="diagnosis",
                severity=d.severity,
                window_index=window_index,
                value=float(d.thread_id),
                threshold=0.0,
                message=d.message,
                source=source or self.source,
            )
            self._append(alert)
            fired.append(alert)
        return fired

    def _emit(self, rule: AlertRule, index: int, observed: float, source: str) -> Alert:
        alert = Alert(
            rule=rule.name,
            metric=rule.metric,
            severity=rule.severity,
            window_index=index,
            value=observed,
            threshold=rule.value,
            message=(
                f"{rule.condition()} — observed "
                f"{observed:g} at window {index}"
            ),
            source=source or self.source,
        )
        self._append(alert)
        return alert

    def _append(self, alert: Alert) -> None:
        self.alerts.append(alert)
        if self._log_fh is not None:
            self._log_fh.write(
                json.dumps(alert.to_dict(), sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            self._log_fh.flush()

    # -- results ---------------------------------------------------------

    def max_severity(self) -> Optional[str]:
        """Most severe alert level emitted so far (``None`` when clean)."""
        return max_severity(self.alerts)

    def by_severity(self) -> List[Alert]:
        """Alerts ranked most-severe first (stable within a severity)."""
        return sorted(
            self.alerts, key=lambda a: -_SEVERITY_RANK[a.severity]
        )

    def to_jsonl(self) -> str:
        """The whole alert log as deterministic JSONL (emission order)."""
        return "".join(
            json.dumps(a.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            for a in self.alerts
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def close(self) -> None:
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None

    def __enter__(self) -> "AlertEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"AlertEngine(rules={len(self.rules)}, alerts={len(self.alerts)}, "
            f"max={self.max_severity()!r})"
        )


# ---------------------------------------------------------------------------
# grid cells as snapshots (the monitor's grid feed)
# ---------------------------------------------------------------------------


def snapshot_from_result(cell: object, result: object) -> Dict:
    """Distill one finished grid cell into a flat metric snapshot dict.

    What the grid monitor feeds its alert rules per finished cell:
    everything the dashboard and the rules need, computed parent-side
    from the (already shipped) ``RunResult`` — no extra IPC.  Keys
    deliberately overlap :class:`WindowSnapshot`'s where the semantics
    match, so one rule grammar covers both feeds.

    ``cell`` is the harness's ``(workload, technique, threads)`` tuple
    (anything else is stringified into the ``cell`` key).
    """
    if isinstance(cell, tuple) and len(cell) == 3:
        workload, technique, _ = cell
        cell_name = f"{cell[0]}/{cell[1]}/t{cell[2]}"
    else:
        workload, technique = "", ""
        cell_name = str(cell)
    threads = getattr(result, "threads", ())
    total_cycles = max((t.cycles for t in threads), default=0)
    # Share is stall cycles over *aggregate* thread cycles, so it stays
    # a fraction for multi-thread cells too.
    cycle_sum = sum(t.cycles for t in threads)
    stall = sum(t.stall_cycles for t in threads)
    selections = sum(len(t.selected_sizes) for t in threads)
    return {
        "cell": cell_name,
        "workload": workload,
        "technique": technique,
        "threads": len(threads),
        "cycles": total_cycles,
        "time": getattr(result, "time", total_cycles),
        "stall_cycles": stall,
        "stall_share": (stall / cycle_sum) if cycle_sum else 0.0,
        "flush_ratio": getattr(result, "flush_ratio", 0.0),
        "l1_miss_ratio": getattr(result, "l1_miss_ratio", 0.0),
        "fases": getattr(result, "fase_count", 0),
        "selections": selections,
        "selected_sizes": [list(t.selected_sizes) for t in threads],
    }
