"""The obs reports: trace profile and run history.

Each report is built **once**, as a :mod:`repro.common.document` block
list, by :func:`profile_blocks` or :func:`history_blocks`; the public
``render_*`` names are one-line compositions of a builder and one of the
three emitters (text, markdown, self-contained HTML).  Charts are inline
SVG from the figure pipeline's dependency-free renderer
(:mod:`repro.experiments.plots`); rendering is a pure function of the
profile / query result, so two runs of one configuration produce
byte-identical reports.  CI uploads the HTML as a workflow artifact next
to the raw trace.

Import direction: this module pulls from ``repro.experiments``, so
``repro.obs.__init__`` does not import it — importing the obs package
(as the machine does) must not drag the experiment harness in.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.document import Block, emit_html, emit_markdown, emit_text
from repro.experiments.plots import svg_bar_chart, svg_line_chart
from repro.obs.analyze import TraceProfile, max_severity

# ---------------------------------------------------------------------------
# Trace profile
# ---------------------------------------------------------------------------


def _profile_figures(profile: TraceProfile) -> List[Block]:
    """The profile's charts (only those with data)."""
    figures: List[Block] = []
    p = profile.provenance
    causes = {
        "capacity eviction": p.capacity_evictions,
        "resize eviction": p.resize_evictions,
        "FASE drain": p.fase_drains,
        "final drain": p.final_drains,
    }
    if any(causes.values()):
        svg = svg_bar_chart(
            list(causes),
            {"count": list(causes.values())},
            "Flush provenance by cause",
            ylabel="events",
        )
        figures.append(("figure", svg))
    if p.top_lines:
        svg = svg_bar_chart(
            [f"line {line}" for line, _ in p.top_lines],
            {"flushes": [n for _, n in p.top_lines]},
            f"Top {len(p.top_lines)} hottest flushed lines",
            ylabel="eviction flushes",
        )
        figures.append(("figure", svg))
    traj = profile.adaptation.trajectories
    if traj:
        series = {
            f"t{tid}": ([cycle for cycle, _ in pts], [size for _, size in pts])
            for tid, pts in sorted(traj.items())
        }
        svg = svg_line_chart(
            series,
            "Selected software-cache size over time",
            xlabel="model cycles",
            ylabel="lines",
        )
        figures.append(("figure", svg))
    return figures


def _metrics_figures(metrics_doc: Dict) -> List[Block]:
    """Charts from a metrics-registry JSON dump (only series with data)."""
    figures: List[Block] = []
    series = metrics_doc.get("series", {})
    for prefix, title, ylabel in (
        ("flush_queue_depth/", "Flush-queue depth", "entries"),
        ("flush_ratio/", "Rolling flush ratio", "flushes / store"),
        ("selected_size/", "Selected size (sampled)", "lines"),
    ):
        picked = {
            name[len(prefix):]: (doc["t"], doc["v"])
            for name, doc in sorted(series.items())
            if name.startswith(prefix) and doc["t"]
        }
        if picked:
            svg = svg_line_chart(picked, title, xlabel="model cycles", ylabel=ylabel)
            figures.append(("figure", svg))
    return figures


def profile_blocks(
    profile: TraceProfile,
    title: str = "Trace profile",
    metrics_doc: Optional[Dict] = None,
) -> List[Block]:
    """A trace profile (plus, optionally, a metrics dump's series)."""
    p, f, a = profile.provenance, profile.fase, profile.adaptation
    worst = max_severity(profile.diagnoses)
    blocks: List[Block] = [
        ("h1", title),
        ("p", f"Trace schema {profile.schema}, {profile.events} events, "
              f"threads {profile.threads}."),
        ("badge", worst or "clean", worst),
        ("h2", "Diagnoses"),
    ]
    if profile.diagnoses:
        rows = [[d.severity, d.code, d.thread_id, d.message] for d in profile.diagnoses]
        blocks.append(("table", ["severity", "code", "thread", "message"], rows))
    else:
        blocks.append(
            ("p", "No diagnoses — the controller narrative and FASE "
                  "nesting are clean.")
        )
    for section, rows in (
        ("Flush provenance", [
            ["capacity eviction flushes", p.capacity_evictions],
            ["resize eviction flushes", p.resize_evictions],
            ["dirty eviction flushes", p.dirty_evict_flushes],
            ["distinct flushed lines", p.distinct_lines],
            ["write amplification", f"{p.write_amplification:.3f}"],
            ["FASE-boundary drains", p.fase_drains],
            ["FASE drain stall cycles", p.fase_drain_stall_cycles],
            ["end-of-program drains", p.final_drains],
            ["final drain stall cycles", p.final_drain_stall_cycles],
            ["flush-issue stall cycles", p.issue_stall_cycles],
            ["hw write-back stall cycles", p.writeback_stall_cycles],
        ]),
        ("FASE latency", [
            ["FASEs completed", f.count],
            ["p50 cycles", f.p50],
            ["p95 cycles", f.p95],
            ["p99 cycles", f.p99],
            ["max cycles", f.max],
            ["commit-drain stall share", f"{f.stall_share:.4f}"],
        ]),
        ("Adaptive controller", [
            ["sampling bursts", a.bursts],
            ["MRC analyses", a.analyses],
            ["knee candidates", a.knee_candidates],
            ["size selections", a.selections],
            ["group-size adoptions", a.adoptions],
            ["no-knee fallbacks", a.fallbacks],
            ["analysis cost cycles", a.analysis_cost_cycles],
        ]),
    ):
        blocks += [("h2", section), ("table", ["metric", "value"], rows)]
    if p.top_lines:
        blocks += [
            ("h2", "Hottest flushed lines"),
            ("table", ["line", "eviction flushes"], [list(row) for row in p.top_lines]),
        ]
    blocks += _profile_figures(profile)
    metrics_figures = _metrics_figures(metrics_doc) if metrics_doc is not None else []
    if metrics_figures:
        blocks += [("h2", "Metrics series"), *metrics_figures]
    return blocks


# ---------------------------------------------------------------------------
# Run history (the ``history`` artifact)
# ---------------------------------------------------------------------------


def history_blocks(doc: Dict, title: Optional[str] = "Run history") -> List[Block]:
    """The :func:`repro.obs.history.compare` result, one section per timeline.

    Ledger lines the scan could not read (``doc["skipped_lines"]``) are
    named first: the answer left them out.
    """
    blocks: List[Block] = [("h1", title)] if title else []
    skipped = doc.get("skipped_lines", 0)
    if skipped:
        blocks.append(("p", f"warning: {skipped} unreadable ledger line(s) skipped."))
    rows = doc["rows"]
    blocks.append(("p", f"{len(rows)} timeline(s) with >= 2 records."))
    for row in rows:
        blocks.append(("h2", f"{row['label']} ({row['spec_sha'][:12]})"))
        if row["identical"]:
            blocks.append(("p", "Last two records are identical."))
        else:
            absent = "(absent)"
            deltas = [
                [k, d.get("prev", absent), d.get("last", absent), d.get("ratio", "-")]
                for k, d in sorted(row["deltas"].items())
            ]
            blocks.append(("table", ["counter", "prev", "last", "ratio"], deltas))
    ok = doc["ok"]
    blocks.append(("badge", "OK" if ok else "FLAGGED", None if ok else "error"))
    return blocks


# ---------------------------------------------------------------------------
# The public renderers: one builder, one emitter each
# ---------------------------------------------------------------------------


def render_markdown(profile: TraceProfile, title: str = "Trace profile") -> str:
    return emit_markdown(profile_blocks(profile, title))


def render_html(
    profile: TraceProfile,
    title: str = "Trace profile",
    metrics_doc: Optional[Dict] = None,
) -> str:
    return emit_html(profile_blocks(profile, title, metrics_doc))


def render_history_text(doc: Dict) -> str:
    return emit_text(history_blocks(doc, title=None))


def render_history_markdown(doc: Dict, title: str = "Run history") -> str:
    return emit_markdown(history_blocks(doc, title))


def write_text(path: str, text: str) -> None:
    """Write a rendered document with deterministic encoding."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
