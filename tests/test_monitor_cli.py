"""The ``monitor`` artifact end to end: follow mode and its gate.

Everything runs headless (``--once``), the way the CI smoke invokes it;
the live dashboard path is exercised through the same renderer with a
plain stream.
"""

import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.monitor import TraceTailer
from repro.obs.analyze import severity_gate
from repro.obs.live import StreamingProfile
from repro.obs.trace import (
    EV_EVICT_FLUSH,
    EV_MRC_COMPUTED,
    EV_SIZE_SELECTED,
    TraceRecorder,
)


def _trace_file(tmp_path, name="t"):
    """One traced CLI run; returns the jsonl trace path."""
    path = tmp_path / f"{name}.jsonl"
    rc = main(
        [
            "run", "--workload", "queue", "--technique", "SC",
            "--threads", "2", "--scale", "0.02", "--seed", "7",
            "--trace", str(path),
        ]
    )
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# TraceTailer
# ---------------------------------------------------------------------------


def test_tailer_holds_back_partial_lines(tmp_path):
    rec = TraceRecorder()
    rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    rec.record(EV_EVICT_FLUSH, 1, 20, 9, 1, 0)
    text = rec.to_jsonl()
    cut = text.rindex("\n", 0, len(text) - 1) + 10   # mid final line
    path = tmp_path / "partial.jsonl"
    path.write_text(text[:cut])

    prof = StreamingProfile(1_000)
    tailer = TraceTailer(str(path), prof)
    assert tailer.poll() == 1                        # only the complete event
    with open(path, "a", encoding="utf-8") as fh:    # the writer catches up
        fh.write(text[cut:])
    assert tailer.poll() == 1
    tailer.close()
    assert tailer.events == 2
    assert tailer.schema == rec.schema
    assert prof.finalize().provenance.evict_flushes == 2


def test_tailer_survives_rotation_and_truncation(tmp_path):
    """Regression: a rotated or truncated file must not wedge the tail.

    The tailer used to keep reading a stale handle at a stale offset
    after the writer replaced (new inode) or truncated the file — every
    subsequent poll returned 0 forever.  It now stats the *path* and
    reopens from the top, dropping any held-back partial line (those
    bytes belonged to the old file).
    """
    rec = TraceRecorder()
    rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    rec.record(EV_EVICT_FLUSH, 1, 20, 9, 1, 0)
    path = tmp_path / "rotating.jsonl"
    path.write_text(rec.to_jsonl())

    prof = StreamingProfile(1_000)
    tailer = TraceTailer(str(path), prof)
    assert tailer.poll() == 2
    # Leave a partial line pending, then rotate: the buffer must reset.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind":"evict_fl')
    assert tailer.poll() == 0

    path.unlink()                       # mid-rotation: path briefly absent
    assert tailer.poll() == 0           # no raise, just quiet

    rec2 = TraceRecorder()
    rec2.record(EV_EVICT_FLUSH, 0, 30, 7, 1, 0)
    rec2.record(EV_EVICT_FLUSH, 0, 40, 8, 1, 0)
    rec2.record(EV_EVICT_FLUSH, 0, 50, 9, 1, 0)
    path.write_text(rec2.to_jsonl())    # new inode
    assert tailer.poll() == 3           # reread from offset 0, buffer dropped

    rec3 = TraceRecorder()
    rec3.record(EV_EVICT_FLUSH, 0, 60, 4, 1, 0)
    path.write_text(rec3.to_jsonl())    # same path, now *shorter*: truncation
    assert tailer.poll() == 1
    tailer.close()
    assert tailer.events == 6


def test_tailer_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind":"martian","tid":0,"ts":1}\n')
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        TraceTailer(str(path), StreamingProfile(100)).poll()
    path.write_text("not json\n")
    with pytest.raises(ConfigurationError):
        TraceTailer(str(path), StreamingProfile(100)).poll()
    # Valid JSON that is not a well-formed event: typed, with the line.
    for hostile in ("[1,2]", '{"kind":"stall"}', '{"kind":"stall","tid":"x","ts":null}'):
        path.write_text('{"kind":"trace_meta","schema":3}\n' + hostile + "\n")
        with pytest.raises(ConfigurationError, match=f"{path} line 2: "):
            TraceTailer(str(path), StreamingProfile(100)).poll()


# ---------------------------------------------------------------------------
# CLI: follow mode
# ---------------------------------------------------------------------------


def test_cli_monitor_follow_once(tmp_path, capsys):
    trace = _trace_file(tmp_path)
    json_out = tmp_path / "summary.json"
    log = tmp_path / "alerts.jsonl"
    rc = main(
        [
            "monitor", "--follow", str(trace), "--once",
            "--window", "50000", "--json", str(json_out),
            "--alert-log", str(log),
        ]
    )
    assert rc == 0                                   # seed run: no error alerts
    doc = json.loads(json_out.read_text())
    assert doc["mode"] == "follow"
    assert doc["events"] > 0
    assert doc["windows_closed"] > 1
    assert doc["profile"]["schema"] == 3
    assert log.exists()                              # created even when silent


def test_cli_monitor_follow_matches_offline_profile(tmp_path, capsys):
    from repro.obs.analyze import analyze
    from repro.obs.trace import read_jsonl

    trace = _trace_file(tmp_path)
    json_out = tmp_path / "summary.json"
    rc = main(["monitor", "--follow", str(trace), "--once", "--json", str(json_out)])
    assert rc == 0
    streamed = json.loads(json_out.read_text())["profile"]
    offline = analyze(read_jsonl(str(trace))).to_dict()
    assert streamed == offline


def test_cli_monitor_fail_on_gates_exit_code(tmp_path, capsys):
    # A trace cut before its last fase_end: the forwarded unbalanced_fase
    # diagnosis is an error alert.
    lines = _trace_file(tmp_path).read_text().splitlines(keepends=True)
    last_end = max(i for i, line in enumerate(lines) if '"fase_end"' in line)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:last_end]))
    args = ["monitor", "--follow", str(cut), "--once"]
    assert main(args) == 1
    assert "diagnosis:unbalanced_fase" in capsys.readouterr().out
    assert main(args + ["--fail-on", "never"]) == 0
    assert main(["monitor", "--once"]) == 2          # nothing to follow
    capsys.readouterr()


def test_fail_on_ranks_severities_below_error(tmp_path, capsys):
    """``--fail-on`` fails at or above its severity, on both gated
    commands: an info finding passes the default gate and ``warning``,
    and fails ``info``."""
    assert severity_gate(None, "info") == 0
    assert severity_gate("info", "error") == 0
    assert severity_gate("info", "warning") == 0
    assert severity_gate("info", "info") == 1
    assert severity_gate("warning", "error") == 0
    assert severity_gate("warning", "warning") == 1
    assert severity_gate("error", "info") == 1
    assert severity_gate("error", "never") == 0
    # A trace whose only diagnosis is info-level (a knee fallback).
    rec = TraceRecorder()
    rec.record(EV_MRC_COMPUTED, 1, 100, 500, 0)
    rec.record(EV_SIZE_SELECTED, 1, 101, 512)
    trace = tmp_path / "info.jsonl"
    trace.write_text(rec.to_jsonl())
    args = ["profile", "--trace", str(trace)]
    assert main(args) == 0
    assert main(args + ["--fail-on", "warning"]) == 0
    assert main(args + ["--fail-on", "info"]) == 1
    capsys.readouterr()


def test_cli_monitor_follow_rejects_foreign_schema(tmp_path, capsys):
    """A header of another schema fails typed instead of folding garbage;
    so does a headerless file (same decoder as ``parse_jsonl``)."""
    events = _trace_file(tmp_path).read_text().split("\n", 1)[1]
    future = tmp_path / "schema4.jsonl"
    future.write_text('{"kind":"trace_meta","schema":4}\n' + events)
    rc = main(["monitor", "--follow", str(future), "--once"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{future} line 1: unsupported trace schema 4" in err

    headerless = tmp_path / "schema1.jsonl"
    headerless.write_text(events)
    rc = main(["monitor", "--follow", str(headerless), "--once"])
    assert rc == 2
    assert "line 1: event before the trace_meta header" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# profile --top-k rides along
# ---------------------------------------------------------------------------


def test_cli_profile_top_k(tmp_path, capsys):
    trace = _trace_file(tmp_path)
    json_out = tmp_path / "p.json"
    rc = main(
        ["profile", "--trace", str(trace), "--top-k", "2",
         "--json", str(json_out)]
    )
    assert rc == 0
    doc = json.loads(json_out.read_text())
    assert len(doc["provenance"]["top_lines"]) <= 2
    assert main(["profile", "--trace", str(trace), "--top-k", "0"]) == 2
    capsys.readouterr()


def test_cli_profile_json_dash_writes_stdout(tmp_path, capsys):
    trace = _trace_file(tmp_path)
    capsys.readouterr()                     # drain the run artifact's output
    rc = main(["profile", "--trace", str(trace), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 3
