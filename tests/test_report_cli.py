"""The EXPERIMENTS.md generator and the command-line entry point."""


import json
import multiprocessing

import pytest

from repro.experiments.report import GENERATORS, generate
from repro.experiments.__main__ import main
from repro.faults import AtlasReplayDriver
from repro.obs.analyze import severity_gate
from repro.obs.trace import EV_MRC_COMPUTED, EV_SIZE_SELECTED, TraceRecorder


def test_generators_cover_every_artifact():
    assert set(GENERATORS) == {
        "table1", "table2", "table3", "table4", "adaptation", "policyzoo",
        "figure2", "figure4", "figure5", "figure6", "figure7", "figure8",
    }


def test_generate_subset(tiny_harness, tmp_path):
    path = tmp_path / "EXP.md"
    body = generate(tiny_harness, artifacts=["figure2"], write_path=str(path))
    assert "Figure 2" in body
    assert "scale = 0.02" in body
    assert path.read_text() == body


def test_cli_single_artifact(capsys):
    rc = main(["figure2", "--scale", "0.02", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "selected size" in out


def test_cli_rejects_unknown_artifact(capsys):
    for command in ("nonsense", "monitor"):
        with pytest.raises(SystemExit) as exit_:
            main([command])
        assert exit_.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_cli_all_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["all", "--scale", "0.02", "--seed", "7", "--write", "OUT.md"])
    assert rc == 0
    text = (tmp_path / "OUT.md").read_text()
    for title in ("Table I", "Table III", "Figure 7"):
        assert title in text


def _traced_cell(tmp_path, name, technique="SC"):
    """One traced CLI run; returns the jsonl trace path."""
    path = tmp_path / f"{name}.jsonl"
    rc = main(
        [
            "run", "--workload", "queue", "--technique", technique,
            "--threads", "2", "--scale", "0.02", "--seed", "7",
            "--trace", str(path),
        ]
    )
    assert rc == 0
    return path


def test_cli_profile_artifact(tmp_path, capsys):
    trace = _traced_cell(tmp_path, "a")
    json_out = tmp_path / "profile.json"
    html_out = tmp_path / "profile.html"
    rc = main(
        ["profile", "--trace", str(trace),
         "--json", str(json_out), "--html", str(html_out)]
    )
    assert rc == 0                      # seed run: no error diagnoses
    out = capsys.readouterr().out
    assert "Flush provenance" in out
    doc = json.loads(json_out.read_text())
    assert doc["schema"] == 3
    assert html_out.read_text().startswith("<!DOCTYPE html>")


def test_cli_profile_is_byte_deterministic(tmp_path, capsys):
    trace = _traced_cell(tmp_path, "a")
    outs = []
    for name in ("p1", "p2"):
        json_out = tmp_path / f"{name}.json"
        html_out = tmp_path / f"{name}.html"
        assert main(
            ["profile", "--trace", str(trace),
             "--json", str(json_out), "--html", str(html_out)]
        ) == 0
        outs.append((json_out.read_bytes(), html_out.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_profile_requires_exactly_one_trace(tmp_path, capsys):
    assert main(["profile"]) == 2
    trace = _traced_cell(tmp_path, "a")
    assert main(["profile", "--trace", str(trace), "--trace", str(trace)]) == 2


def test_cli_offline_readers_reject_an_unreadable_trace(tmp_path, capsys):
    """profile reports the decoder's typed error, exit 2."""
    good = _traced_cell(tmp_path, "a")
    old = tmp_path / "schema2.jsonl"
    old.write_text(
        '{"kind":"trace_meta","schema":2}\n' + good.read_text().split("\n", 1)[1]
    )
    capsys.readouterr()
    assert main(["profile", "--trace", str(old)]) == 2
    assert "trace line 1: unsupported trace schema 2" in capsys.readouterr().err
    # Valid JSON that is not a well-formed event gets the same treatment.
    hostile = tmp_path / "hostile.jsonl"
    for line, complaint in (
        ('{"kind":"stall"}', "trace line 2: stall event has no 'tid'"),
        ("[1,2]", "trace line 2: not a JSON object"),
        ('{"kind":"stall","tid":"x","ts":null}', "field 'tid' is not an integer"),
    ):
        hostile.write_text('{"kind":"trace_meta","schema":3}\n' + line + "\n")
        assert main(["profile", "--trace", str(hostile)]) == 2
        err = capsys.readouterr().err
        assert complaint in err and "Traceback" not in err


def test_cli_profile_rejects_foreign_schema(tmp_path, capsys):
    """A header of another schema fails typed instead of folding garbage;
    so does a headerless file."""
    events = _traced_cell(tmp_path, "a").read_text().split("\n", 1)[1]
    future = tmp_path / "schema4.jsonl"
    future.write_text('{"kind":"trace_meta","schema":4}\n' + events)
    capsys.readouterr()
    assert main(["profile", "--trace", str(future)]) == 2
    assert "trace line 1: unsupported trace schema 4" in capsys.readouterr().err

    headerless = tmp_path / "schema1.jsonl"
    headerless.write_text(events)
    assert main(["profile", "--trace", str(headerless)]) == 2
    err = capsys.readouterr().err
    assert "trace line 1: event before the trace_meta header" in err


def test_cli_profile_rejects_garbage_lines(tmp_path, capsys):
    """An unknown event kind and a line that is not JSON exit 2 with the
    decoder's typed error and the line it is on, not a traceback."""
    bad = tmp_path / "bad.jsonl"
    for text, complaint in (
        ('{"kind":"martian","tid":0,"ts":1}\n', "trace line 1: event before"),
        ('{"kind":"trace_meta","schema":3}\n{"kind":"martian","tid":0,"ts":1}\n',
         "trace line 2: unknown event kind 'martian'"),
        ("not json\n", "trace line 1: not JSON"),
    ):
        bad.write_text(text)
        assert main(["profile", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert complaint in err and "Traceback" not in err


def test_cli_profile_fail_on_gates_exit_code(tmp_path, capsys):
    """A trace cut before its last fase_end carries an unbalanced_fase
    error: it fails the default gate and passes ``--fail-on never``."""
    lines = _traced_cell(tmp_path, "t").read_text().splitlines(keepends=True)
    last_end = max(i for i, line in enumerate(lines) if '"fase_end"' in line)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:last_end]))
    args = ["profile", "--trace", str(cut)]
    capsys.readouterr()
    assert main(args) == 1
    assert "unbalanced_fase" in capsys.readouterr().out
    assert main(args + ["--fail-on", "never"]) == 0
    capsys.readouterr()


def test_fail_on_ranks_severities_below_error(tmp_path, capsys):
    """``--fail-on`` fails at or above its severity: an info finding
    passes the default gate and ``warning``, and fails ``info``."""
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


def test_cli_profile_top_k(tmp_path, capsys):
    trace = _traced_cell(tmp_path, "t")
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
    trace = _traced_cell(tmp_path, "t")
    capsys.readouterr()                     # drain the run artifact's output
    rc = main(["profile", "--trace", str(trace), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 3


def test_cli_run_exits_1_when_its_trace_misses_a_flush(monkeypatch, tmp_path, capsys):
    """``run`` reconciles the trace against the run's counters."""
    from repro.obs import trace

    class DroppingRecorder(trace.TraceRecorder):
        """Loses the run's first eviction flush."""

        dropped = False

        def record(self, kind, *args):
            if kind == trace.EV_EVICT_FLUSH and not self.dropped:
                self.dropped = True
                return
            super().record(kind, *args)

    argv = ["run", "--workload", "hash", "--scale", "0.02", "--seed", "7"]
    assert main(argv) == 0
    monkeypatch.setattr(trace, "TraceRecorder", DroppingRecorder)
    capsys.readouterr()
    assert main(argv) == 1
    assert "reconcile: eviction flushes: trace says" in capsys.readouterr().err


def test_cli_crashmatrix_observability(tmp_path, capsys):
    trace = tmp_path / "cm.jsonl"
    metrics = tmp_path / "cm.metrics.json"
    rc = main(
        [
            "crashmatrix", "--workloads", "linked-list", "--scale", "0.02",
            "--max-sites", "4", "--trace", str(trace), "--metrics", str(metrics),
        ]
    )
    assert rc == 0
    # The golden run, the one replay a campaign makes, recorded into
    # the trace (its sweep is cut from the journal and executes nothing).
    text = trace.read_text()
    assert '"kind":"trace_meta"' in text.splitlines()[0].replace(" ", "")
    doc = json.loads(metrics.read_text())
    assert doc["counters"]                  # final totals were dumped
    assert any(name.startswith("flush_queue_depth/") for name in doc["series"])


@pytest.mark.parametrize(
    "models, named",
    [(",", "no fault models"), ("clean,clean", "listed more than once")],
    ids=["none", "repeated"],
)
def test_cli_crashmatrix_refuses_a_campaign_that_checks_nothing(models, named, capsys):
    rc = main(["crashmatrix", "--workloads", "linked-list", "--fault-models", models])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_cli_crashmatrix_replays_once_per_campaign_at_any_job_count(
    tmp_path, monkeypatch, capsys
):
    """A campaign is one replay, its golden run, at any ``--jobs``: the
    workers walk its journal and replay nothing.  The three-model matrix
    is the same bytes at both job counts, and a repeated model is refused
    before anything runs."""
    replays = multiprocessing.get_context("fork").Value("i", 0)
    real = AtlasReplayDriver._replay

    def counting(self, *args, **kwargs):
        with replays.get_lock():
            replays.value += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(AtlasReplayDriver, "_replay", counting)
    smoke = [
        "crashmatrix", "--workloads", "linked-list,hash",
        "--techniques", "SC,SC+victim:4", "--threads", "2",
        "--fault-models", "clean,torn_line,reordered_flush",
        "--scale", "0.005", "--max-sites", "100000",
    ]
    matrices = []
    for jobs in (1, 2):
        replays.value = 0
        out = tmp_path / f"crashmatrix-j{jobs}.json"
        assert main(smoke + ["--jobs", str(jobs), "--out", str(out)]) == 0
        assert replays.value == 2 * 2, (jobs, replays.value)
        matrices.append(out.read_bytes())
    assert matrices[0] == matrices[1]
    replays.value = 0
    bad = smoke[: smoke.index("--fault-models") + 1] + ["clean,clean"]
    assert main(bad) == 2
    assert replays.value == 0


def test_cli_artifact_records_one_grid_at_any_job_count(monkeypatch, tmp_path, capsys):
    """Every artifact command computes its grid through ``run_grid``, so
    ``--jobs 1`` leaves the same ``grid`` ledger record ``--jobs 2`` does."""
    from repro.obs.ledger import RunLedger

    stable = {}
    for jobs in (1, 2):
        root = str(tmp_path / f"j{jobs}")
        monkeypatch.setenv("REPRO_LEDGER", root)
        assert main(["table1", "--scale", "0.02", "--seed", "7", "--jobs", str(jobs)]) == 0
        (record,) = RunLedger(root).records(kind="grid")
        stable[jobs] = record.stable_dict()
        assert stable[jobs]["extra"].pop("jobs") == jobs
    assert stable[1] == stable[2]



def test_cli_grid_names_the_corrupt_cache_entries_it_recomputed(tmp_path, capsys):
    """A torn ``<sha>.json`` is recomputed and counted on stderr at any
    ``--jobs`` (the count crosses the worker pool); the artifact does not
    change, and a missing entry stays a silent miss."""
    cache = tmp_path / "cache"
    table1 = ["table1", "--scale", "0.02", "--seed", "7", "--cache-dir", str(cache)]
    assert main(table1) == 0
    clean = capsys.readouterr()
    assert "corrupt" not in clean.err
    entries = sorted(cache.glob("*.json"))
    assert len(entries) == 14
    for jobs in (1, 2):
        for entry in entries[:3]:
            entry.write_text(entry.read_text()[:10])
        assert main(table1 + ["--jobs", str(jobs)]) == 0
        out, err = capsys.readouterr()
        assert out == clean.out
        assert f"cache: recomputed 3 corrupt entries under {cache}" in err, jobs
    entries[0].unlink()
    assert main(table1) == 0
    out, err = capsys.readouterr()
    assert out == clean.out and "corrupt" not in err

_HARNESS = {"--scale", "--seed", "--cache-dir"}
_GRID = _HARNESS | {"--jobs"}
_OBSERVE = {"--threads", "--trace", "--metrics", "--metrics-interval"}
#: Command -> the flags it reads, and so takes.
_FLAGS = {
    **{name: _GRID | ({"--svg"} if name.startswith("figure") else set())
       for name in GENERATORS},
    "all": _GRID | {"--svg", "--write"},
    "run": _HARNESS | _OBSERVE | {"--workload", "--technique"},
    "crashmatrix": _GRID | _OBSERVE | {
        "--workloads", "--techniques", "--fault-models", "--max-sites",
        "--sample-seed", "--out",
    },
    "profile": {"--trace", "--metrics", "--top-k", "--json", "--html", "--fail-on"},
    "history": {"--json", "--ledger", "--kind", "--spec", "--md"},
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_each_command_takes_only_its_own_flags(command, capsys):
    import re

    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    options = capsys.readouterr().out.split("options:", 1)[1]
    listed = set(re.findall(r"^\s+(?:-h, )?(--[a-z][\w-]*)", options, re.M))
    assert listed == _FLAGS[command] | {"--help"}
    for flag in sorted(set().union(*_FLAGS.values()) - _FLAGS[command]):
        with pytest.raises(SystemExit) as exit_:
            main([command, flag, "1"])
        assert exit_.value.code == 2, flag
        assert flag in capsys.readouterr().err
