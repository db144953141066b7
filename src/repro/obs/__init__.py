"""Observability for the simulator: traces, metrics and analytics.

- :mod:`repro.obs.trace` — typed event recording with model-time
  timestamps, exportable as JSONL and Chrome ``trace_event`` (Perfetto).
- :mod:`repro.obs.metrics` — counters, gauges and interval-sampled time
  series (cache occupancy, flush-queue depth, rolling flush ratio).
- :mod:`repro.obs.analyze` — offline trace analytics: flush provenance,
  FASE latency profiles, adaptive-controller diagnostics, cross-run
  diffs (DESIGN.md §11).
- :mod:`repro.obs.report` — those profiles, diffs and history queries
  as text / markdown / self-contained HTML (import it explicitly: it
  pulls in the experiment harness's SVG renderer, which the simulator
  must not depend on, so this package does not).
- :mod:`repro.obs.live` — the streaming pipeline: bounded
  :class:`~repro.obs.live.StreamingRecorder` with incremental JSONL
  spill, window-folding :class:`~repro.obs.live.StreamingProfile`, and
  the rule-driven :class:`~repro.obs.live.AlertEngine` behind the
  ``monitor`` CLI artifact (DESIGN.md §12).
- :mod:`repro.obs.ledger` — the append-only run registry: every entry
  point records a crash-safe JSONL provenance line (spec sha, env,
  counters, artifacts) into ``.ledger/`` (DESIGN.md §15).
- :mod:`repro.obs.history` — longitudinal queries over the ledger:
  per-spec timelines, EWMA trend fitting, changepoint detection and
  regression gating behind the ``history`` CLI artifact.

Tracing is strictly opt-in: machines default to the shared
:data:`~repro.obs.trace.NULL_RECORDER`, which keeps the batched
simulator loop on its allocation-free fast path (DESIGN.md §9).
"""

from repro.obs.analyze import (
    AnalyzerConfig,
    Diagnosis,
    DiffTolerances,
    TraceProfile,
    analyze,
    diff_profiles,
    max_severity,
    reconcile,
)
from repro.obs.live import (
    DEFAULT_WINDOW_CYCLES,
    Alert,
    AlertEngine,
    AlertRule,
    StreamingProfile,
    StreamingRecorder,
    WindowSnapshot,
    default_rules,
    parse_rule,
    snapshot_from_result,
)
from repro.obs.history import (
    RegressionFinding,
    TrendLine,
    detect_changepoint,
    ewma,
)
from repro.obs.ledger import (
    LEDGER_ENV,
    RunLedger,
    RunRecord,
    default_ledger_path,
    record_run,
    resolve_ledger,
    spec_fingerprint,
)
from repro.obs.metrics import DEFAULT_INTERVAL, MetricsRegistry, nearest_rank
from repro.obs.trace import (
    ARG_NAMES,
    EV_BURST_START,
    EV_DRAIN,
    EV_EVICT_FLUSH,
    EV_FASE_BEGIN,
    EV_FASE_END,
    EV_KNEE_CANDIDATE,
    EV_MRC_COMPUTED,
    EV_SIZE_SELECTED,
    EV_STALL,
    EVENT_KINDS,
    NULL_RECORDER,
    TRACE_SCHEMA_VERSION,
    NullRecorder,
    TraceEvent,
    TraceRecorder,
    parse_jsonl,
    read_jsonl,
)

__all__ = [
    "ARG_NAMES",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "AnalyzerConfig",
    "DEFAULT_INTERVAL",
    "DEFAULT_WINDOW_CYCLES",
    "Diagnosis",
    "DiffTolerances",
    "EVENT_KINDS",
    "EV_BURST_START",
    "EV_DRAIN",
    "EV_EVICT_FLUSH",
    "EV_FASE_BEGIN",
    "EV_FASE_END",
    "EV_KNEE_CANDIDATE",
    "EV_MRC_COMPUTED",
    "EV_SIZE_SELECTED",
    "EV_STALL",
    "LEDGER_ENV",
    "MetricsRegistry",
    "RegressionFinding",
    "RunLedger",
    "RunRecord",
    "TrendLine",
    "NULL_RECORDER",
    "NullRecorder",
    "StreamingProfile",
    "StreamingRecorder",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "TraceProfile",
    "TraceRecorder",
    "WindowSnapshot",
    "analyze",
    "default_ledger_path",
    "default_rules",
    "detect_changepoint",
    "diff_profiles",
    "ewma",
    "max_severity",
    "nearest_rank",
    "record_run",
    "resolve_ledger",
    "spec_fingerprint",
    "parse_jsonl",
    "parse_rule",
    "read_jsonl",
    "reconcile",
    "snapshot_from_result",
]
