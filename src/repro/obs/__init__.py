"""Observability for the simulator: traces, metrics and analytics.

- :mod:`repro.obs.trace` — typed event recording with model-time
  timestamps, exportable as JSONL and Chrome ``trace_event`` (Perfetto).
- :mod:`repro.obs.metrics` — counters, gauges and interval-sampled time
  series (cache occupancy, flush-queue depth, rolling flush ratio).
- :mod:`repro.obs.analyze` — offline trace analytics: flush provenance,
  FASE latency profiles, adaptive-controller diagnostics, and the
  reconciliation of a trace against its run's counters (DESIGN.md §11).
- :mod:`repro.obs.render` — those profiles as markdown and
  self-contained HTML, and the history answer as text and markdown
  (import it explicitly: it pulls in the experiment harness's SVG
  renderer, which the simulator must not depend on, so this package
  does not).
- :mod:`repro.obs.live` — the bounded trace spill:
  :class:`~repro.obs.live.StreamingRecorder` appends each closed cycle
  window to a JSONL file, byte-identical to the offline export
  (DESIGN.md §12).
- :mod:`repro.obs.ledger` — the append-only run registry: every entry
  point records a crash-safe JSONL provenance line (spec sha, env,
  counters, artifacts) into ``.ledger/`` (DESIGN.md §15).
- :mod:`repro.obs.history` — the ledger's one query behind the
  ``history`` CLI artifact: whether each spec timeline's last two
  records carry identical counters.

Tracing is strictly opt-in: machines default to the shared
:data:`~repro.obs.trace.NULL_RECORDER`, which keeps the batched
simulator loop on its allocation-free fast path (DESIGN.md §9).
"""

from repro.obs.analyze import (
    Diagnosis,
    TraceProfile,
    analyze,
    max_severity,
    reconcile,
)
from repro.obs.live import DEFAULT_WINDOW_CYCLES, StreamingRecorder
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
    "DEFAULT_INTERVAL",
    "DEFAULT_WINDOW_CYCLES",
    "Diagnosis",
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
    "RunLedger",
    "RunRecord",
    "NULL_RECORDER",
    "NullRecorder",
    "StreamingRecorder",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "TraceProfile",
    "TraceRecorder",
    "analyze",
    "default_ledger_path",
    "max_severity",
    "nearest_rank",
    "record_run",
    "resolve_ledger",
    "spec_fingerprint",
    "parse_jsonl",
    "read_jsonl",
    "reconcile",
]
