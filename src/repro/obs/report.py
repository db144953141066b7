"""Render trace profiles as markdown, JSON and self-contained HTML.

The HTML report embeds its charts as inline SVG (reusing the figure
pipeline's dependency-free renderer in
:mod:`repro.experiments.plots`) and carries zero external assets — one
file, openable anywhere, byte-deterministic for a given profile.  CI
uploads it as a workflow artifact next to the raw trace.

Import direction: this module pulls from ``repro.experiments``, so
``repro.obs.__init__`` re-exports it lazily — importing the obs package
(as the machine does) must not drag the experiment harness in.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional

from repro.experiments.plots import svg_bar_chart, svg_line_chart
from repro.obs.analyze import Diagnosis, TraceProfile, max_severity

#: Badge colors per severity (also the report's legend).
_SEVERITY_COLOR = {"info": "#1f77b4", "warning": "#ff7f0e", "error": "#d62728"}


# ---------------------------------------------------------------------------
# Shared table shapes
# ---------------------------------------------------------------------------


def _provenance_rows(profile: TraceProfile) -> List[List[object]]:
    p = profile.provenance
    return [
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
    ]


def _fase_rows(profile: TraceProfile) -> List[List[object]]:
    f = profile.fase
    return [
        ["FASEs completed", f.count],
        ["p50 cycles", f.p50],
        ["p95 cycles", f.p95],
        ["p99 cycles", f.p99],
        ["max cycles", f.max],
        ["commit-drain stall share", f"{f.stall_share:.4f}"],
    ]


def _adaptation_rows(profile: TraceProfile) -> List[List[object]]:
    a = profile.adaptation
    return [
        ["sampling bursts", a.bursts],
        ["MRC analyses", a.analyses],
        ["knee candidates", a.knee_candidates],
        ["size selections", a.selections],
        ["group-size adoptions", a.adoptions],
        ["no-knee fallbacks", a.fallbacks],
        ["analysis cost cycles", a.analysis_cost_cycles],
    ]


def _charts(profile: TraceProfile) -> Dict[str, str]:
    """The report's inline SVG charts (only those with data)."""
    charts: Dict[str, str] = {}
    p = profile.provenance
    causes = {
        "capacity eviction": p.capacity_evictions,
        "resize eviction": p.resize_evictions,
        "FASE drain": p.fase_drains,
        "final drain": p.final_drains,
    }
    if any(causes.values()):
        charts["flush_causes"] = svg_bar_chart(
            list(causes),
            {"count": list(causes.values())},
            "Flush provenance by cause",
            ylabel="events",
        )
    if p.top_lines:
        charts["top_lines"] = svg_bar_chart(
            [f"line {line}" for line, _ in p.top_lines],
            {"flushes": [n for _, n in p.top_lines]},
            f"Top {len(p.top_lines)} hottest flushed lines",
            ylabel="eviction flushes",
        )
    traj = profile.adaptation.trajectories
    if traj:
        series = {
            f"t{tid}": (
                [cycle for cycle, _ in pts],
                [size for _, size in pts],
            )
            for tid, pts in sorted(traj.items())
        }
        charts["selected_sizes"] = svg_line_chart(
            series,
            "Selected software-cache size over time",
            xlabel="model cycles",
            ylabel="lines",
        )
    return charts


def _metrics_charts(metrics_doc: Dict) -> Dict[str, str]:
    """Optional charts from a metrics-registry JSON dump."""
    charts: Dict[str, str] = {}
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
            charts[prefix.rstrip("/")] = svg_line_chart(
                picked, title, xlabel="model cycles", ylabel=ylabel
            )
    return charts


# ---------------------------------------------------------------------------
# Markdown
# ---------------------------------------------------------------------------


def _md_table(headers: List[str], rows: List[List[object]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def _diagnosis_lines(diagnoses: List[Diagnosis]) -> List[str]:
    if not diagnoses:
        return ["No diagnoses — the controller narrative and FASE nesting are clean."]
    return [f"- **{d.severity}** `{d.code}`: {d.message}" for d in diagnoses]


def render_markdown(profile: TraceProfile, title: str = "Trace profile") -> str:
    """The profile as a markdown document."""
    parts = [
        f"# {title}",
        "",
        f"Trace schema {profile.schema}, {profile.events} events, "
        f"threads {profile.threads}.",
        "",
        "## Flush provenance",
        "",
        _md_table(["metric", "value"], _provenance_rows(profile)),
        "",
        "## FASE latency",
        "",
        _md_table(["metric", "value"], _fase_rows(profile)),
        "",
        "## Adaptive controller",
        "",
        _md_table(["metric", "value"], _adaptation_rows(profile)),
        "",
        "## Diagnoses",
        "",
    ]
    parts.extend(_diagnosis_lines(profile.diagnoses))
    if profile.provenance.top_lines:
        parts.extend(
            [
                "",
                "## Hottest flushed lines",
                "",
                _md_table(
                    ["line", "eviction flushes"],
                    [[line, n] for line, n in profile.provenance.top_lines],
                ),
            ]
        )
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# HTML
# ---------------------------------------------------------------------------

_CSS = """
body { font-family: sans-serif; margin: 2em auto; max-width: 64em;
       color: #222; }
h1 { border-bottom: 2px solid #222; padding-bottom: .2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #bbb; padding: .3em .8em; text-align: left; }
th { background: #eee; }
.badge { color: white; border-radius: .6em; padding: .1em .6em;
         font-size: .85em; }
figure { margin: 1.5em 0; }
"""


def _html_table(headers: List[str], rows: List[List[object]]) -> str:
    out = ["<table>", "<tr>"]
    out.extend(f"<th>{html.escape(str(h))}</th>" for h in headers)
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        out.extend(f"<td>{html.escape(str(c))}</td>" for c in row)
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def render_html(
    profile: TraceProfile,
    title: str = "Trace profile",
    metrics_doc: Optional[Dict] = None,
) -> str:
    """The profile as one self-contained HTML document.

    Charts are inline SVG; no script, no external asset, no timestamp —
    the bytes are a pure function of the profile (plus the optional
    metrics dump), which is what lets CI diff two reports directly.
    """
    sev = max_severity(profile.diagnoses)
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p>Trace schema {profile.schema} &middot; {profile.events} events "
        f"&middot; threads {profile.threads} &middot; verdict: "
        + (
            f'<span class="badge" style="background:{_SEVERITY_COLOR[sev]}">'
            f"{sev}</span>"
            if sev
            else '<span class="badge" style="background:#2ca02c">clean</span>'
        )
        + "</p>",
        "<h2>Diagnoses</h2>",
    ]
    if profile.diagnoses:
        parts.append(
            _html_table(
                ["severity", "code", "thread", "message"],
                [
                    [d.severity, d.code, d.thread_id, d.message]
                    for d in profile.diagnoses
                ],
            )
        )
    else:
        parts.append(
            "<p>None — the controller narrative and FASE nesting are clean.</p>"
        )
    parts.append("<h2>Flush provenance</h2>")
    parts.append(_html_table(["metric", "value"], _provenance_rows(profile)))
    parts.append("<h2>FASE latency</h2>")
    parts.append(_html_table(["metric", "value"], _fase_rows(profile)))
    parts.append("<h2>Adaptive controller</h2>")
    parts.append(_html_table(["metric", "value"], _adaptation_rows(profile)))
    for svg in _charts(profile).values():
        parts.append(f"<figure>{svg}</figure>")
    if metrics_doc is not None:
        charts = _metrics_charts(metrics_doc)
        if charts:
            parts.append("<h2>Metrics series</h2>")
            for svg in charts.values():
                parts.append(f"<figure>{svg}</figure>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Cross-run diff rendering
# ---------------------------------------------------------------------------


def render_diff_text(diff: Dict, label_a: str = "A", label_b: str = "B") -> str:
    """A plain-text cross-run diff report (the ``tracediff`` output)."""
    from repro.experiments.metrics import format_table

    lines = [f"trace diff: {label_a} vs {label_b} — verdict: {diff['verdict']}"]
    if diff["entries"]:
        rows = []
        for e in diff["entries"]:
            ratio = "-" if e["ratio"] is None else f"{e['ratio']:.4f}"
            rows.append(
                [
                    e["metric"],
                    e["a"],
                    e["b"],
                    e["delta"],
                    ratio,
                    "ok" if e["ok"] else "DIFFERENT",
                ]
            )
        lines.append(
            format_table(
                ["metric", label_a, label_b, "delta", "ratio", "status"], rows
            )
        )
    for note in diff["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_diff_html(diff: Dict, label_a: str = "A", label_b: str = "B") -> str:
    """The cross-run diff as a self-contained HTML document."""
    ok = diff["verdict"] == "ok"
    color = "#2ca02c" if ok else "#d62728"
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>Trace diff: {html.escape(label_a)} vs {html.escape(label_b)}"
        f"</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Trace diff: {html.escape(label_a)} vs {html.escape(label_b)}</h1>",
        f'<p>verdict: <span class="badge" style="background:{color}">'
        f"{diff['verdict']}</span></p>",
    ]
    if diff["entries"]:
        parts.append(
            _html_table(
                ["metric", label_a, label_b, "delta", "ratio", "status"],
                [
                    [
                        e["metric"],
                        e["a"],
                        e["b"],
                        e["delta"],
                        "-" if e["ratio"] is None else f"{e['ratio']:.4f}",
                        "ok" if e["ok"] else "DIFFERENT",
                    ]
                    for e in diff["entries"]
                ],
            )
        )
    for note in diff["notes"]:
        parts.append(f"<p>note: {html.escape(note)}</p>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Run-history rendering (the ``history`` CLI artifact)
# ---------------------------------------------------------------------------


def _history_trend_rows(doc: Dict) -> List[List[object]]:
    rows = []
    for line in doc.get("lines", []):
        values = line["values"]
        cp = line.get("changepoint")
        rows.append(
            [
                line["label"],
                line["spec_sha"][:12],
                len(values),
                f"{values[0]:g}",
                f"{values[-1]:g}",
                f"{line['ewma'][-1]:g}",
                (
                    f"@{cp['index']} ({cp['shift_pct']:+.1f}%)"
                    if cp
                    else "-"
                ),
            ]
        )
    return rows


def _history_regress_rows(doc: Dict) -> List[List[object]]:
    return [
        [
            f["label"],
            f["spec_sha"][:12],
            f["points"],
            f"{f['fitted']:g}",
            f"{f['latest']:g}",
            f"{f['deviation_pct']:+.1f}%",
            f["direction"],
        ]
        for f in doc.get("findings", [])
    ]


_HISTORY_TREND_HEADERS = [
    "timeline", "spec", "n", "first", "last", "ewma", "changepoint",
]
_HISTORY_REGRESS_HEADERS = [
    "timeline", "spec", "n", "fitted", "latest", "deviation", "direction",
]


def render_history_markdown(doc: Dict, title: str = "Run history") -> str:
    """One history query result as a markdown document.

    ``doc`` is the JSON-shaped result of a :mod:`repro.obs.history`
    query, tagged with ``doc["query"]`` by the CLI.  Unknown queries
    degrade to their JSON — the renderer never blocks a new query kind.
    """
    import json as _json

    query = doc.get("query", "trend")
    parts = [f"# {title}", ""]
    if query == "trend":
        parts += [
            f"Metric `{doc.get('metric')}` — {len(doc.get('lines', []))} "
            f"timeline(s).",
            "",
            _md_table(_HISTORY_TREND_HEADERS, _history_trend_rows(doc)),
        ]
    elif query == "regress":
        findings = doc.get("findings", [])
        parts += [
            f"Metric `{doc.get('metric')}` ({doc.get('direction')} is worse), "
            f"threshold {doc.get('threshold_pct')}% vs the EWMA-fitted trend "
            f"— {doc.get('timelines_checked', 0)} timeline(s) checked, "
            f"{len(findings)} flagged.",
            "",
        ]
        if findings:
            parts.append(
                _md_table(_HISTORY_REGRESS_HEADERS, _history_regress_rows(doc))
            )
            for f in findings:
                for link in f.get("linked", []):
                    parts.append(
                        f"- `{f['label']}` links to {link['kind']} "
                        f"artifacts: {link['artifacts']}"
                    )
        else:
            parts.append("No timeline broke from its fitted trend.")
    elif query == "compare":
        rows = doc.get("rows", [])
        parts.append(f"{len(rows)} timeline(s) with >= 2 records.")
        for row in rows:
            parts += ["", f"## {row['label']} (`{row['spec_sha'][:12]}`)", ""]
            if row["identical"]:
                parts.append("Last two records are identical.")
            else:
                parts.append(
                    _md_table(
                        ["counter", "prev", "last", "ratio"],
                        [
                            [k, d["prev"], d["last"], d.get("ratio", "-")]
                            for k, d in sorted(row["deltas"].items())
                        ],
                    )
                )
    elif query == "flaky":
        rows = doc.get("rows", [])
        if not rows:
            parts.append(
                f"No flaky `{doc.get('kind')}` timelines — every spec's "
                f"records agree."
            )
        for row in rows:
            parts += [
                f"## {row['label']} (`{row['spec_sha'][:12]}`): "
                f"{len(row['outcomes'])} distinct outcomes over "
                f"{row['records']} records",
                "",
            ]
            for outcome in row["outcomes"]:
                parts.append(
                    f"- ×{outcome['count']}: "
                    f"`{_json.dumps(outcome['counters'], sort_keys=True)}`"
                )
    else:
        parts.append("```json")
        parts.append(_json.dumps(doc, sort_keys=True, indent=1))
        parts.append("```")
    return "\n".join(parts) + "\n"


def render_history_html(doc: Dict, title: str = "Run history") -> str:
    """One history query result as a self-contained HTML document.

    Trend queries get one inline-SVG line chart per metric (all
    timelines overlaid, x = record index) in the figure idiom of the
    profile report; everything else renders as tables.  Deterministic
    for a given query result.
    """
    query = doc.get("query", "trend")
    ok = doc.get("ok", True)
    color = "#2ca02c" if ok else "#d62728"
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f'<p>query: {html.escape(query)} &middot; verdict: '
        f'<span class="badge" style="background:{color}">'
        f"{'ok' if ok else 'flagged'}</span></p>",
    ]
    if query == "trend":
        parts.append(
            _html_table(_HISTORY_TREND_HEADERS, _history_trend_rows(doc))
        )
        series = {
            line["label"]: (
                list(range(len(line["values"]))),
                line["values"],
            )
            for line in doc.get("lines", [])
            if line["values"]
        }
        if series:
            parts.append(
                "<figure>"
                + svg_line_chart(
                    series,
                    f"{doc.get('metric')} per record",
                    xlabel="record #",
                    ylabel=str(doc.get("metric")),
                )
                + "</figure>"
            )
    elif query == "regress":
        parts.append(
            _html_table(_HISTORY_REGRESS_HEADERS, _history_regress_rows(doc))
        )
    elif query == "compare":
        for row in doc.get("rows", []):
            parts.append(f"<h2>{html.escape(row['label'])}</h2>")
            if row["identical"]:
                parts.append("<p>Last two records are identical.</p>")
            else:
                parts.append(
                    _html_table(
                        ["counter", "prev", "last", "ratio"],
                        [
                            [k, d["prev"], d["last"], d.get("ratio", "-")]
                            for k, d in sorted(row["deltas"].items())
                        ],
                    )
                )
    elif query == "flaky":
        for row in doc.get("rows", []):
            parts.append(f"<h2>{html.escape(row['label'])}</h2>")
            parts.append(
                _html_table(
                    ["count", "counters"],
                    [
                        [o["count"], o["counters"]]
                        for o in row["outcomes"]
                    ],
                )
            )
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def render_history_text(doc: Dict) -> str:
    """The history query as an aligned plain-text report (CLI stdout)."""
    from repro.experiments.metrics import format_table

    query = doc.get("query", "trend")
    lines: List[str] = []
    if query == "trend":
        rows = _history_trend_rows(doc)
        lines.append(
            f"history trend — metric {doc.get('metric')}, "
            f"{len(rows)} timeline(s)"
        )
        if rows:
            lines.append(format_table(_HISTORY_TREND_HEADERS, rows))
    elif query == "regress":
        findings = doc.get("findings", [])
        lines.append(
            f"history regress — metric {doc.get('metric')} "
            f"({doc.get('direction')} is worse), threshold "
            f"{doc.get('threshold_pct')}%: {doc.get('timelines_checked', 0)} "
            f"checked, {len(findings)} flagged"
        )
        if findings:
            lines.append(
                format_table(_HISTORY_REGRESS_HEADERS, _history_regress_rows(doc))
            )
            for f in findings:
                for link in f.get("linked", []):
                    lines.append(
                        f"  {f['label']} -> {link['kind']} {link['artifacts']}"
                    )
        for skip in doc.get("skipped", []):
            lines.append(
                f"note: {skip['label']}: skipped ({skip['reason']})"
            )
    elif query == "compare":
        for row in doc.get("rows", []):
            lines.append(
                f"{row['label']} ({row['spec_sha'][:12]}): "
                + (
                    "identical"
                    if row["identical"]
                    else f"{len(row['deltas'])} counter(s) changed"
                )
            )
            if not row["identical"]:
                lines.append(
                    format_table(
                        ["counter", "prev", "last", "ratio"],
                        [
                            [k, d["prev"], d["last"], d.get("ratio", "-")]
                            for k, d in sorted(row["deltas"].items())
                        ],
                    )
                )
    elif query == "flaky":
        rows = doc.get("rows", [])
        lines.append(
            f"history flaky — kind {doc.get('kind')}: {len(rows)} unstable "
            f"timeline(s)"
        )
        for row in rows:
            lines.append(
                f"  {row['label']}: {len(row['outcomes'])} distinct outcomes "
                f"over {row['records']} records"
            )
    lines.append("OK" if doc.get("ok", True) else "FLAGGED")
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    """Write a rendered document with deterministic encoding."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
