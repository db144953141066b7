"""Offline trace analytics: turn recorded events into typed profiles.

PR 2's recorder captures *what happened*; this module answers *why it
cost what it cost* (DESIGN.md §11).  :func:`analyze` folds a trace's
parallel event arrays once — no per-event objects — into a
:class:`TraceProfile` holding:

- **flush provenance** — every ``evict_flush``/``drain`` attributed to
  its cause (capacity eviction, resize eviction, FASE-boundary drain,
  end-of-program drain, stall-forced hardware write-back), aggregated
  per line, per FASE and per thread, with a write-amplification figure
  (evict flushes ÷ distinct flushed lines) and a top-K hottest-lines
  ranking;
- **FASE latency** — spans reconstructed from ``fase_begin``/``fase_end``
  pairs, with nearest-rank p50/p95/p99/max durations and the share of
  span cycles spent in the commit drain;
- **adaptive-controller diagnostics** — the
  ``burst_start``/``mrc_computed``/``knee_candidate``/``size_selected``
  narrative replayed per thread, emitting typed :class:`Diagnosis`
  records (selections matching no knee candidate, knee fallbacks,
  unbalanced FASEs).  A thread selects a size at most once (its
  sampler hibernates after its one resize), so a size sequence has
  nothing more to diagnose.

:func:`reconcile` cross-checks a profile against the matching
:class:`~repro.nvram.stats.RunResult` — the provenance totals are exact
counters, not estimates, so any mismatch is a bug; the ``run`` command
exits 1 on one.

Everything here is a pure function of the trace, so profiles — and the
reports rendered from them — are byte-deterministic across repeated
runs of one configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.trace import (
    EV_BURST_START,
    EV_DRAIN,
    EV_EVICT_FLUSH,
    EV_FASE_BEGIN,
    EV_FASE_END,
    EV_KNEE_CANDIDATE,
    EV_MRC_COMPUTED,
    EV_SIZE_SELECTED,
    EV_STALL,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
)

#: Diagnosis severities, least to most severe.
SEVERITIES = ("info", "warning", "error")

_SEVERITY_RANK = {s: i for i, s in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnosis:
    """One typed finding from the controller/FASE narrative replay."""

    code: str
    severity: str
    thread_id: int
    message: str
    data: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "thread_id": self.thread_id,
            "message": self.message,
            "data": dict(sorted(self.data.items())),
        }


def max_severity(findings: Iterable[object]) -> Optional[str]:
    """The most severe level among ``findings`` — anything with a
    ``severity`` — or ``None`` for a clean bill."""
    return max(
        (f.severity for f in findings), key=_SEVERITY_RANK.__getitem__, default=None
    )


#: What ``--fail-on`` accepts: any severity, or ``never``.
FAIL_ON_CHOICES = SEVERITIES[::-1] + ("never",)


def severity_gate(worst: Optional[str], fail_on: str) -> int:
    """Exit code under ``profile``'s ``--fail-on`` policy.

    1 when ``worst`` — a :func:`max_severity` result, ``None`` = clean —
    is at or above ``fail_on``; ``"never"`` always passes.
    """
    if worst is None or fail_on == "never":
        return 0
    return int(_SEVERITY_RANK[worst] >= _SEVERITY_RANK[fail_on])


@dataclass
class FlushProvenance:
    """Where the flushes came from (exact counters, not estimates)."""

    capacity_evictions: int = 0
    resize_evictions: int = 0
    #: Victim-stage overflow flushes (cause 4; zero on base runs).
    victim_flushes: int = 0
    dirty_evict_flushes: int = 0
    fase_drains: int = 0
    fase_drain_stall_cycles: int = 0
    fase_drain_outstanding: int = 0
    final_drains: int = 0
    final_drain_stall_cycles: int = 0
    final_drain_outstanding: int = 0
    issue_stall_cycles: int = 0
    writeback_stall_cycles: int = 0
    #: Per-line evict-flush counts and the top-K ranking derived from it.
    line_flushes: Dict[int, int] = field(default_factory=dict)
    top_lines: List[Tuple[int, int]] = field(default_factory=list)
    #: thread id -> {capacity, resize, fase_drains, drain_stall}.
    per_thread: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: FASE uid -> commit-drain stall cycles.
    fase_drain_stall_by_fase: Dict[int, int] = field(default_factory=dict)

    @property
    def evict_flushes(self) -> int:
        """All software-cache eviction flushes, whatever forced them."""
        return self.capacity_evictions + self.resize_evictions

    @property
    def attributed_flushes(self) -> int:
        """Every cause-attributed software-cache flush: evictions plus
        victim-stage overflows.  Equal to :attr:`evict_flushes` on
        base-technique traces."""
        return self.evict_flushes + self.victim_flushes

    @property
    def distinct_lines(self) -> int:
        """How many distinct lines those attributed flushes touched."""
        return len(self.line_flushes)

    @property
    def write_amplification(self) -> float:
        """Attributed flushes per distinct flushed line (1.0 = no
        re-flush).  Identical to the historical eviction-only ratio on
        traces without policy stages."""
        n = self.distinct_lines
        return self.attributed_flushes / n if n else 0.0

    def to_dict(self) -> Dict:
        return {
            "capacity_evictions": self.capacity_evictions,
            "resize_evictions": self.resize_evictions,
            "evict_flushes": self.evict_flushes,
            "victim_flushes": self.victim_flushes,
            "dirty_evict_flushes": self.dirty_evict_flushes,
            "distinct_lines": self.distinct_lines,
            "write_amplification": round(self.write_amplification, 6),
            "fase_drains": self.fase_drains,
            "fase_drain_stall_cycles": self.fase_drain_stall_cycles,
            "fase_drain_outstanding": self.fase_drain_outstanding,
            "final_drains": self.final_drains,
            "final_drain_stall_cycles": self.final_drain_stall_cycles,
            "final_drain_outstanding": self.final_drain_outstanding,
            "issue_stall_cycles": self.issue_stall_cycles,
            "writeback_stall_cycles": self.writeback_stall_cycles,
            "top_lines": [list(t) for t in self.top_lines],
            "per_thread": {
                str(tid): dict(sorted(d.items()))
                for tid, d in sorted(self.per_thread.items())
            },
        }


@dataclass
class FaseLatencyProfile:
    """Reconstructed outermost-FASE spans and their latency shape."""

    count: int = 0
    p50: int = 0
    p95: int = 0
    p99: int = 0
    max: int = 0
    total_cycles: int = 0
    #: Commit-drain stall cycles attributed to a FASE via the drain's
    #: ``fase_id``.
    drain_stall_cycles: int = 0
    per_thread_count: Dict[int, int] = field(default_factory=dict)

    @property
    def stall_share(self) -> float:
        """Fraction of total span cycles spent in the commit drain."""
        return (
            self.drain_stall_cycles / self.total_cycles if self.total_cycles else 0.0
        )

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
            "total_cycles": self.total_cycles,
            "drain_stall_cycles": self.drain_stall_cycles,
            "stall_share": round(self.stall_share, 6),
            "per_thread_count": {
                str(tid): n for tid, n in sorted(self.per_thread_count.items())
            },
        }


@dataclass
class AdaptationProfile:
    """The adaptive controller's replayed decision narrative."""

    bursts: int = 0
    analyses: int = 0
    knee_candidates: int = 0
    selections: int = 0
    fallbacks: int = 0
    analysis_cost_cycles: int = 0
    #: thread id -> [(cycle, size), ...] in selection order.
    trajectories: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "bursts": self.bursts,
            "analyses": self.analyses,
            "knee_candidates": self.knee_candidates,
            "selections": self.selections,
            "fallbacks": self.fallbacks,
            "analysis_cost_cycles": self.analysis_cost_cycles,
            "trajectories": {
                str(tid): [list(p) for p in pts]
                for tid, pts in sorted(self.trajectories.items())
            },
        }


@dataclass
class TraceProfile:
    """Everything :func:`analyze` extracts from one trace."""

    schema: int
    events: int
    event_counts: Dict[str, int]
    threads: List[int]
    provenance: FlushProvenance
    fase: FaseLatencyProfile
    adaptation: AdaptationProfile
    diagnoses: List[Diagnosis]

    def to_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "events": self.events,
            "event_counts": dict(sorted(self.event_counts.items())),
            "threads": list(self.threads),
            "provenance": self.provenance.to_dict(),
            "fase": self.fase.to_dict(),
            "adaptation": self.adaptation.to_dict(),
            "diagnoses": [d.to_dict() for d in self.diagnoses],
            "max_severity": max_severity(self.diagnoses),
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"


# Nearest-rank percentile: one definition of p95 for every summary.
from repro.obs.metrics import nearest_rank as _percentile  # noqa: E402


def analyze(trace: TraceRecorder, top_k: int = 10) -> TraceProfile:
    """Fold a trace into a :class:`TraceProfile` in one pass, ranking
    the ``top_k`` hottest flushed lines.

    Walks the recorder's parallel arrays directly (no per-event tuple
    per event); cost is linear in the trace and independent of the
    model's size.  Per-thread state (the open FASE, the last MRC's knee
    candidates, the selections) lives in ``folds``; percentiles, the
    top-K ranking and the diagnoses are computed after the pass.
    """
    kinds, tids, times, a_col, b_col, c_col = trace.columns()
    prov = FlushProvenance()
    fase = FaseLatencyProfile()
    adapt = AdaptationProfile()
    counts: Dict[str, int] = {}
    durations: List[int] = []
    folds: Dict[int, SimpleNamespace] = {}
    line_flushes = prov.line_flushes
    per_thread = prov.per_thread

    for i in range(len(kinds)):
        kind = kinds[i]
        counts[kind] = counts.get(kind, 0) + 1
        tid = tids[i]
        f = folds.get(tid)
        if f is None:
            f = folds[tid] = SimpleNamespace(
                open_uid=-1,
                open_time=-1,
                cand=[],
                expected_cands=0,
                awaiting_selection=False,
                sizes=[],
                sel_times=[],
                unmatched=[],
                fallbacks=0,
                unbalanced_ends=0,
            )
            per_thread[tid] = {
                "capacity": 0,
                "resize": 0,
                "victim": 0,
                "fase_drains": 0,
                "drain_stall": 0,
            }
        if kind == EV_EVICT_FLUSH:
            line = a_col[i]
            line_flushes[line] = line_flushes.get(line, 0) + 1
            if b_col[i]:
                prov.dirty_evict_flushes += 1
            cause = c_col[i]
            if cause == 0:
                prov.capacity_evictions += 1
                per_thread[tid]["capacity"] += 1
            elif cause == 1:
                prov.resize_evictions += 1
                per_thread[tid]["resize"] += 1
            elif cause == 4:
                prov.victim_flushes += 1
                per_thread[tid]["victim"] += 1
            else:
                raise ConfigurationError(
                    f"evict_flush with unknown cause {cause!r} "
                    f"(tid {tid}, ts {times[i]}); expected 0, 1 or 4"
                )
        elif kind == EV_STALL:
            if b_col[i]:
                prov.writeback_stall_cycles += a_col[i]
            else:
                prov.issue_stall_cycles += a_col[i]
        elif kind == EV_DRAIN:
            stall = a_col[i]
            fase_id = c_col[i]
            if fase_id >= 0:
                prov.fase_drains += 1
                prov.fase_drain_stall_cycles += stall
                prov.fase_drain_outstanding += b_col[i]
                per_thread[tid]["fase_drains"] += 1
                per_thread[tid]["drain_stall"] += stall
                prov.fase_drain_stall_by_fase[fase_id] = (
                    prov.fase_drain_stall_by_fase.get(fase_id, 0) + stall
                )
                fase.drain_stall_cycles += stall
            else:
                prov.final_drains += 1
                prov.final_drain_stall_cycles += stall
                prov.final_drain_outstanding += b_col[i]
        elif kind == EV_FASE_BEGIN:
            f.open_uid = a_col[i]
            f.open_time = times[i]
        elif kind == EV_FASE_END:
            if f.open_time < 0 or f.open_uid != a_col[i]:
                f.unbalanced_ends += 1
            else:
                durations.append(times[i] - f.open_time)
                fase.count += 1
                fase.total_cycles += times[i] - f.open_time
                fase.per_thread_count[tid] = fase.per_thread_count.get(tid, 0) + 1
            f.open_uid = -1
            f.open_time = -1
        elif kind == EV_BURST_START:
            adapt.bursts += 1
        elif kind == EV_MRC_COMPUTED:
            adapt.analyses += 1
            adapt.analysis_cost_cycles += a_col[i]
            f.cand = []
            f.expected_cands = b_col[i]
            f.awaiting_selection = True
        elif kind == EV_KNEE_CANDIDATE:
            adapt.knee_candidates += 1
            f.cand.append(a_col[i])
        elif kind == EV_SIZE_SELECTED:
            size = a_col[i]
            adapt.selections += 1
            f.sizes.append(size)
            f.sel_times.append(times[i])
            if f.awaiting_selection:
                if f.expected_cands == 0:
                    f.fallbacks += 1
                    adapt.fallbacks += 1
                elif size not in f.cand:
                    f.unmatched.append((times[i], size))
                f.awaiting_selection = False

    durations.sort()
    fase.p50 = _percentile(durations, 0.50)
    fase.p95 = _percentile(durations, 0.95)
    fase.p99 = _percentile(durations, 0.99)
    fase.max = durations[-1] if durations else 0

    # Top-K hottest flushed lines: count desc, line asc for ties.
    prov.top_lines = sorted(
        prov.line_flushes.items(), key=lambda kv: (-kv[1], kv[0])
    )[:top_k]

    diagnoses: List[Diagnosis] = []
    for tid in sorted(folds):
        f = folds[tid]
        if f.sizes:
            adapt.trajectories[tid] = list(zip(f.sel_times, f.sizes))
        if f.open_time >= 0:
            diagnoses.append(
                Diagnosis(
                    code="unbalanced_fase",
                    severity="error",
                    thread_id=tid,
                    message=(
                        f"thread {tid}: fase_begin (uid {f.open_uid}) never "
                        f"closed — truncated trace or a crashed run"
                    ),
                    data={"open_uid": f.open_uid},
                )
            )
        if f.unbalanced_ends:
            diagnoses.append(
                Diagnosis(
                    code="unbalanced_fase",
                    severity="error",
                    thread_id=tid,
                    message=(
                        f"thread {tid}: {f.unbalanced_ends} fase_end event(s) "
                        f"with no matching fase_begin"
                    ),
                    data={"count": f.unbalanced_ends},
                )
            )
        if f.unmatched:
            cycle, size = f.unmatched[0]
            diagnoses.append(
                Diagnosis(
                    code="unmatched_selection",
                    severity="error",
                    thread_id=tid,
                    message=(
                        f"thread {tid}: {len(f.unmatched)} selection(s) match "
                        f"no knee candidate of the preceding MRC (first: size "
                        f"{size} at cycle {cycle})"
                    ),
                    data={
                        "count": len(f.unmatched),
                        "first_cycle": cycle,
                        "size": size,
                    },
                )
            )
        if f.fallbacks:
            diagnoses.append(
                Diagnosis(
                    code="knee_fallback",
                    severity="info",
                    thread_id=tid,
                    message=(
                        f"thread {tid}: {f.fallbacks} MRC(s) yielded no knee; "
                        f"the controller fell back to the maximum size"
                    ),
                    data={"count": f.fallbacks},
                )
            )

    diagnoses.sort(
        key=lambda d: (-_SEVERITY_RANK[d.severity], d.code, d.thread_id)
    )
    return TraceProfile(
        schema=TRACE_SCHEMA_VERSION,
        events=len(kinds),
        event_counts=counts,
        threads=sorted(folds),
        provenance=prov,
        fase=fase,
        adaptation=adapt,
        diagnoses=diagnoses,
    )


def reconcile(profile: TraceProfile, result: object) -> List[str]:
    """Cross-check a profile against its run's ``RunResult`` counters.

    Returns a list of mismatch descriptions (empty = exact agreement).
    The identities checked are definitional — the trace records the same
    increments the counters accumulate — so any entry is a bug in the
    recorder, the analyzer or the machine, never measurement noise.
    """
    problems: List[str] = []
    threads = result.threads

    def check(name: str, from_trace: int, from_result: int) -> None:
        if from_trace != from_result:
            problems.append(
                f"{name}: trace says {from_trace}, RunResult says {from_result}"
            )

    check(
        "eviction flushes",
        profile.provenance.evict_flushes,
        sum(t.eviction_flushes for t in threads),
    )
    check(
        "victim flushes",
        profile.provenance.victim_flushes,
        sum(t.victim_flushes for t in threads),
    )
    check("FASE count", profile.fase.count, sum(t.fase_count for t in threads))
    prov = profile.provenance
    check(
        "stall cycles",
        prov.fase_drain_stall_cycles
        + prov.final_drain_stall_cycles
        + prov.issue_stall_cycles
        + prov.writeback_stall_cycles,
        sum(t.stall_cycles for t in threads),
    )
    check(
        "size selections",
        profile.adaptation.selections,
        sum(len(t.selected_sizes) for t in threads),
    )
    for t in threads:
        traj = [s for _, s in profile.adaptation.trajectories.get(t.thread_id, [])]
        if traj != list(t.selected_sizes):
            problems.append(
                f"thread {t.thread_id} selected-size trajectory: trace says "
                f"{traj}, RunResult says {list(t.selected_sizes)}"
            )
    return problems
