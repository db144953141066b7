"""Rendered trace reports: shape, self-containment, byte determinism."""

import functools

from repro import api
from repro.obs import analyze
from repro.obs.report import (
    render_html,
    render_markdown,
    write_text,
)
from repro.obs.trace import EV_FASE_BEGIN, TraceRecorder

#: A spec in ``tiny_harness``'s configuration.
_tiny = functools.partial(api.RunSpec, scale=0.02, seed=7)


def _profile(tiny_harness):
    _, recorder, metrics = api.traced_run(
        _tiny("queue", "SC", 2), harness=tiny_harness, metrics_interval=5000
    )
    return analyze(recorder), metrics


def test_markdown_report_has_all_sections(tiny_harness):
    profile, _ = _profile(tiny_harness)
    md = render_markdown(profile, title="Queue SC")
    assert md.startswith("# Queue SC\n")
    for section in (
        "## Flush provenance",
        "## FASE latency",
        "## Adaptive controller",
        "## Diagnoses",
    ):
        assert section in md
    assert "write amplification" in md


def test_html_report_is_self_contained(tiny_harness):
    profile, metrics = _profile(tiny_harness)
    doc = render_html(profile, metrics_doc=metrics.to_dict())
    assert doc.startswith("<!DOCTYPE html>")
    assert doc.endswith("</html>\n")
    # Zero external assets: no scripts, stylesheets or remote fetches.
    # (The SVG xmlns is a namespace identifier, not a fetched URL.)
    assert "<script" not in doc
    urls = doc.count("http://") + doc.count("https://")
    assert urls == doc.count('xmlns="http://www.w3.org/2000/svg"')
    assert 'rel="stylesheet"' not in doc and "<link" not in doc
    # Charts are inline SVG, including the metrics series.
    assert "<svg" in doc
    assert "Flush provenance by cause" in doc
    assert "Flush-queue depth" in doc


def test_html_clean_run_gets_the_green_badge(tiny_harness):
    profile, _ = _profile(tiny_harness)
    assert not [d for d in profile.diagnoses if d.severity == "error"]
    doc = render_html(profile)
    assert "badge" in doc


def test_html_report_is_byte_deterministic(tiny_harness):
    docs = []
    for _ in range(2):
        _, recorder, _ = api.traced_run(_tiny("queue", "SC", 2), harness=tiny_harness)
        docs.append(render_html(analyze(recorder)))
    assert docs[0] == docs[1]


def test_reports_render_for_an_empty_trace():
    profile = analyze(TraceRecorder())
    assert "No diagnoses" in render_markdown(profile)
    assert "clean" in render_html(profile)


def test_reports_render_for_an_error_profile():
    rec = TraceRecorder()
    rec.record(EV_FASE_BEGIN, 0, 0, 1)       # never closed -> error
    profile = analyze(rec)
    doc = render_html(profile)
    assert "unbalanced_fase" in doc
    assert ">error<" in doc


def test_write_text_round_trips(tmp_path):
    profile = analyze(TraceRecorder())
    path = tmp_path / "report.html"
    doc = render_html(profile)
    write_text(str(path), doc)
    assert path.read_text(encoding="utf-8") == doc
