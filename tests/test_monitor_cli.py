"""The ``monitor`` artifact end to end: grid mode, follow mode, gating.

Everything runs headless (``--once``), the way the CI smoke invokes it;
the live dashboard path is exercised through the same renderer with a
plain stream.
"""

import io
import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.monitor import TraceTailer, build_rules
from repro.obs.live import StreamingProfile
from repro.obs.trace import TraceRecorder, EV_EVICT_FLUSH


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
# rule assembly
# ---------------------------------------------------------------------------


def test_build_rules_overrides_defaults_by_name():
    rules = {r.name: r for r in build_rules(["resize_storm: selections > 99"])}
    assert rules["resize_storm"].value == 99.0      # replaced, not duplicated
    assert "stall_share_slo" in rules               # other defaults intact
    extra = {r.name for r in build_rules(["mine: events > 1 @info"])}
    assert "mine" in extra


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
    trace = _trace_file(tmp_path)
    # A rule every window trivially breaches, promoted to error.
    args = [
        "monitor", "--follow", str(trace), "--once",
        "--rule", "everything: events >= 0 @error",
    ]
    assert main(args) == 1
    assert main(args + ["--fail-on", "never"]) == 0
    # Rules may carry @info, so the gate accepts it too (every severity
    # is a --fail-on choice); an info alert passes the default gate.
    args[-1] = "everything: events >= 0 @info"
    assert main(args) == 0
    assert main(args + ["--fail-on", "warning"]) == 0
    assert main(args + ["--fail-on", "info"]) == 1
    capsys.readouterr()


def test_cli_monitor_rejects_bad_rule(tmp_path, capsys):
    trace = _trace_file(tmp_path)
    rc = main(["monitor", "--follow", str(trace), "--rule", "not a rule"])
    assert rc == 2
    assert "unparseable" in capsys.readouterr().err


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
# CLI: grid mode
# ---------------------------------------------------------------------------


def test_cli_monitor_grid_once_json(tmp_path, capsys):
    json_out = tmp_path / "summary.json"
    log = tmp_path / "alerts.jsonl"
    rc = main(
        [
            "monitor", "--grid", "table1", "--scale", "0.02", "--seed", "7",
            "--jobs", "2", "--once", "--json", str(json_out),
            "--alert-log", str(log),
        ]
    )
    assert rc == 0
    doc = json.loads(json_out.read_text())
    assert doc["mode"] == "grid"
    assert doc["cells_done"] == doc["cells_total"] > 0
    assert len(doc["snapshots"]) == doc["cells_done"]
    assert {"cell", "stall_share", "selections"} <= set(doc["snapshots"][0])
    # Zero error alerts on the seed grid — the CI smoke contract.
    assert not [a for a in doc["alerts"] if a["severity"] == "error"]


def test_monitor_grid_renders_dashboard(capsys):
    from repro.experiments.harness import Harness, HarnessConfig
    from repro.experiments.monitor import monitor_grid
    from repro.obs.live import AlertEngine

    stream = io.StringIO()
    with AlertEngine() as engine:
        summary = monitor_grid(
            Harness(HarnessConfig(scale=0.02, seed=7)),
            "table1",
            engine=engine,
            refresh=0.0,
            once=False,                  # exercise the live renderer
            stream=stream,
        )
    out = stream.getvalue()
    assert "repro live monitor" in out
    assert "alerts:" in out
    assert summary["cells_done"] == summary["cells_total"]


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
