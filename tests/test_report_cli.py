"""The EXPERIMENTS.md generator and the command-line entry point."""


import json

import pytest

from repro.experiments.report import GENERATORS, generate
from repro.experiments.__main__ import main


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
    with pytest.raises(SystemExit):
        main(["nonsense"])


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
    """profile/tracediff report the decoder's typed error, exit 2."""
    good = _traced_cell(tmp_path, "a")
    old = tmp_path / "schema2.jsonl"
    old.write_text(
        '{"kind":"trace_meta","schema":2}\n' + good.read_text().split("\n", 1)[1]
    )
    capsys.readouterr()
    assert main(["profile", "--trace", str(old)]) == 2
    assert "trace line 1: unsupported trace schema 2" in capsys.readouterr().err
    assert main(["tracediff", "--trace", str(good), "--trace", str(old)]) == 2
    assert "unsupported trace schema 2" in capsys.readouterr().err
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


def test_cli_tracediff_artifact(tmp_path, capsys):
    a = _traced_cell(tmp_path, "a")
    b = _traced_cell(tmp_path, "b")          # identical configuration
    c = _traced_cell(tmp_path, "c", technique="LA")
    assert main(["tracediff", "--trace", str(a), "--trace", str(b)]) == 0
    rc = main(
        ["tracediff", "--trace", str(a), "--trace", str(c),
         "--json", str(tmp_path / "d.json")]
    )
    assert rc == 1
    assert json.loads((tmp_path / "d.json").read_text())["verdict"] == "different"
    assert main(["tracediff", "--trace", str(a)]) == 2


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
    # The golden run plus the one crash sweep that captures every fault
    # model (not one replay per site or model) recorded into one trace.
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
