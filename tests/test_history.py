"""The ledger's one query: the last two records of each timeline, compared whole."""

import json
import os

import pytest

from repro.experiments.__main__ import main
from repro.obs.history import compare, spec_label
from repro.obs.ledger import RunLedger, RunRecord


def _seed(ledger, times, *, kind="run", spec=None, counters_key="time", **extra):
    """Append one record per value, all sharing one spec timeline."""
    spec = spec if spec is not None else {"workload": "queue", "technique": "ER"}
    out = []
    for i, t in enumerate(times):
        out.append(
            ledger.append(
                RunRecord(
                    kind=kind,
                    spec=spec,
                    counters={counters_key: t},
                    ts=float(i + 1),
                    **extra,
                )
            )
        )
    return out


def _pair(tmp_path, prev, last, kind="campaign"):
    """A ledger holding one timeline of two records with these counters."""
    ledger = RunLedger(str(tmp_path / "led"))
    for ts, counters in ((1.0, prev), (2.0, last)):
        ledger.append(RunRecord(kind=kind, spec={"workload": "queue"},
                                counters=counters, ts=ts))
    return ledger


# ---------------------------------------------------------------------------
# The query
# ---------------------------------------------------------------------------


def test_compare_reports_last_two_deltas(tmp_path):
    ledger = RunLedger(str(tmp_path))
    _seed(ledger, [100.0, 100.0])
    _seed(ledger, [50.0, 60.0], spec={"workload": "hash"})
    doc = compare(ledger)
    assert doc["ok"] is False
    rows = {row["label"]: row for row in doc["rows"]}
    assert rows["run/queue/ER"]["identical"] is True
    drifted = rows["run/hash"]
    assert drifted["deltas"]["time"] == {"prev": 50.0, "last": 60.0, "ratio": 1.2}


def test_compare_flags_a_vanished_counter(tmp_path):
    (row,) = compare(_pair(tmp_path, {"time": 5, "flushes": 2}, {"time": 5}))["rows"]
    assert row["identical"] is False
    assert row["deltas"] == {"flushes": {"prev": 2}}


def test_compare_flags_a_changed_string_counter(tmp_path):
    """A verdict that turned, with the counter it replaced gone and a
    new one added: every key of either side is compared."""
    cells = {"clean": "FAIL"}
    doc = compare(_pair(tmp_path, {"violated": 0, "verdict": "ok"},
                        {"verdict": "FAIL", "cells": cells}))
    assert doc["ok"] is False
    (row,) = doc["rows"]
    assert row["deltas"] == {
        "cells": {"last": cells},
        "verdict": {"prev": "ok", "last": "FAIL"},
        "violated": {"prev": 0},
    }


def test_compare_flags_a_changed_bool_counter(tmp_path):
    (row,) = compare(_pair(tmp_path, {"ok": True}, {"ok": False}))["rows"]
    assert row["deltas"] == {"ok": {"prev": True, "last": False}}
    # A bool is not the number it equals in Python: the JSON type changed.
    (row,) = compare(_pair(tmp_path / "typed", {"crashed": False}, {"crashed": 0}))["rows"]
    assert row["deltas"] == {"crashed": {"prev": False, "last": 0}}
    assert compare(_pair(tmp_path / "same", {"ok": True}, {"ok": True}))["ok"] is True


def test_compare_spots_disagreeing_outcomes(tmp_path):
    ledger = RunLedger(str(tmp_path))
    spec = {"workload": "queue", "fault_models": ["clean"]}
    for violated in (0, 0, 1):
        ledger.append(
            RunRecord(kind="campaign", spec=spec,
                      counters={"injected": 8, "violated": violated})
        )
    doc = compare(ledger, kind="campaign")
    assert doc["ok"] is False
    (row,) = doc["rows"]
    assert row["records"] == 3 and row["deltas"] == {
        "violated": {"prev": 0, "last": 1}
    }
    # Only the last two records are asked about: an outcome that came
    # back is no longer a difference.
    ledger.append(RunRecord(kind="campaign", spec=spec,
                            counters={"injected": 8, "violated": 1}))
    assert compare(ledger)["ok"] is True


def test_compare_skips_short_timelines(tmp_path):
    ledger = RunLedger(str(tmp_path))
    _seed(ledger, [100.0])
    assert compare(ledger) == {"rows": [], "ok": True}


def test_spec_label_falls_back_to_fingerprint(tmp_path):
    anon = RunRecord(kind="grid", spec={"config": {"scale": 1.0}})
    assert spec_label(anon) == f"grid/{anon.spec_sha[:12]}"
    quick = RunRecord(kind="bench", spec={"suite": "bench", "quick": True})
    assert spec_label(quick) == "bench/quick"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cli_ledger(tmp_path, times):
    root = str(tmp_path / "led")
    _seed(RunLedger(root), times)
    return root


def test_cli_flags_a_one_cycle_time_change(tmp_path, capsys):
    root = _cli_ledger(tmp_path, [1000, 1001])
    assert main(["history", "--ledger", root]) == 1
    out = capsys.readouterr().out
    assert "FLAGGED" in out and "run/queue/ER" in out and "1.001" in out


def test_cli_regress_exits_nonzero_on_regression(tmp_path, capsys):
    root = _cli_ledger(tmp_path, [100.0, 101.0, 99.0, 100.0, 120.0])
    rc = main(["history", "--ledger", root])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FLAGGED" in out and "run/queue/ER" in out


def test_cli_regress_exits_zero_when_clean(tmp_path, capsys):
    root = _cli_ledger(tmp_path, [100.0, 101.0, 101.0])
    assert main(["history", "--ledger", root]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag", ["--query", "--metric", "--threshold", "--direction", "--limit", "--html"]
)
def test_cli_history_rejects_the_removed_flags(tmp_path, flag, capsys):
    root = _cli_ledger(tmp_path, [100.0, 100.0])
    with pytest.raises(SystemExit) as exit_:
        main(["history", "--ledger", root, flag, "1"])
    assert exit_.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_writes_every_format(tmp_path, capsys):
    root = _cli_ledger(tmp_path, [100.0, 101.0])
    json_p, md_p = str(tmp_path / "h.json"), str(tmp_path / "h.md")
    rc = main(["history", "--ledger", root, "--json", json_p, "--md", md_p])
    assert rc == 1
    (row,) = json.loads(open(json_p).read())["rows"]
    assert row["deltas"]["time"] == {"prev": 100.0, "last": 101.0, "ratio": 1.01}
    md = open(md_p).read()
    assert md.startswith("# Run history") and "run/queue/ER" in md
    assert "| time | 100.0 | 101.0 | 1.01 |" in md
    assert "run/queue/ER" in capsys.readouterr().out


def test_cli_json_to_stdout_moves_tables_to_stderr(tmp_path, capsys):
    root = _cli_ledger(tmp_path, [100.0, 101.0])
    rc = main(["history", "--ledger", root, "--json", "-"])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert "counter" in captured.err


def test_cli_disabled_ledger_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_LEDGER", "off")
    assert main(["history"]) == 2
    assert "disabled" in capsys.readouterr().err


def test_cli_missing_ledger_is_exit_2(tmp_path, capsys):
    assert main(["history", "--ledger", str(tmp_path / "nowhere")]) == 2
    assert "no ledger" in capsys.readouterr().err


def test_cli_reads_preexisting_bench_records(tmp_path, capsys):
    """Ledgers seeded by the retired BENCH importer stay queryable: a
    ``kind="bench"`` record is an ordinary record with flat counters."""
    root = str(tmp_path / "led")
    ledger = RunLedger(root)
    spec = {"suite": "bench", "suite_version": 5, "bench_schema": 3,
            "quick": False, "reps": 3, "jobs": 2}
    for i in range(2):
        ledger.append(
            RunRecord(
                kind="bench",
                spec=spec,
                counters={"analyzer_eps": 9000.0 + i,
                          "batched_eps_geomean": 2000.0},
                ts=float(i + 1),
            )
        )
    rc = main(["history", "--ledger", root, "--kind", "bench"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "9001" in out and "bench/" in out
    assert "batched_eps_geomean" not in out
    assert len(RunLedger(root).records(kind="bench")) == 2


def test_cli_flags_a_changed_campaign_outcome(tmp_path, capsys):
    root = str(tmp_path / "led")
    ledger = RunLedger(root)
    for violated in (0, 1):
        ledger.append(
            RunRecord(kind="campaign", spec={"workload": "queue"},
                      counters={"violated": violated})
        )
    assert main(["history", "--ledger", root, "--kind", "campaign"]) == 1
    out = capsys.readouterr().out
    assert "campaign/queue" in out and "violated" in out


def test_cli_history_warns_about_skipped_ledger_lines(tmp_path, capsys):
    """A torn ledger line is named in every form, not only in the JSON:
    the answer below it was computed without that line."""
    root = _cli_ledger(tmp_path, [100.0, 100.0])
    args = ["history", "--ledger", root]
    assert main(args) == 0
    assert "warning" not in capsys.readouterr().out
    with open(RunLedger(root).path, "ab") as fh:
        fh.write(b'{"kind": "run", "torn\n')
    md_p, json_p = str(tmp_path / "h.md"), str(tmp_path / "h.json")
    assert main(args + ["--md", md_p, "--json", json_p]) == 0
    warning = "warning: 1 unreadable ledger line(s) skipped."
    out = capsys.readouterr().out
    assert warning in out and "Last two records are identical." in out
    assert warning in open(md_p).read()
    assert json.loads(open(json_p).read())["skipped_lines"] == 1


def test_a_record_with_the_retired_alerts_field_still_reads(tmp_path, capsys):
    """Ledgers written while records carried an ``alerts`` field load,
    and compare equal to a fresh record of the same spec."""
    from repro.obs.ledger import canonical_json

    root = str(tmp_path / "led")
    ledger = RunLedger(root)
    spec = {"workload": "queue", "technique": "ER"}
    old = RunRecord(kind="run", spec=spec, counters={"time": 100.0}, ts=1.0)
    os.makedirs(root)
    with open(ledger.path, "w") as fh:
        fh.write(canonical_json(dict(old.to_dict(), alerts={})) + "\n")
    (loaded,) = ledger.records()
    assert ledger.skipped_lines == 0 and loaded.counters == {"time": 100.0}
    ledger.append(RunRecord(kind="run", spec=spec, counters={"time": 100.0}, ts=2.0))
    json_p = str(tmp_path / "c.json")
    assert main(["history", "--ledger", root, "--json", json_p]) == 0
    (row,) = json.loads(open(json_p).read())["rows"]
    assert row["identical"] is True
    assert "identical" in capsys.readouterr().out
