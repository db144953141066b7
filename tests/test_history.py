"""Longitudinal ledger queries: trend, regress, compare, flaky, CLI."""

import json
import os

import pytest

from repro.experiments.__main__ import main
from repro.obs.history import (
    compare,
    detect_changepoint,
    ewma,
    flaky,
    metric_direction,
    metric_value,
    regress,
    spec_label,
    trend,
)
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


# ---------------------------------------------------------------------------
# Fits
# ---------------------------------------------------------------------------


def test_ewma_seeds_on_first_point_and_tracks():
    assert ewma([10.0]) == [10.0]
    out = ewma([10.0, 20.0], alpha=0.5)
    assert out == [10.0, 15.0]
    with pytest.raises(ValueError):
        ewma([1.0], alpha=0.0)
    assert ewma([]) == []


def test_metric_direction_heuristics():
    for metric in ("time", "wall_s", "stall_cycles", "flush_ratio",
                   "ledger_overhead", "l1_miss_ratio", "counters.time"):
        assert metric_direction(metric) == "up", metric
    for metric in ("batched_eps_geomean", "analyzer_eps", "speedup"):
        assert metric_direction(metric) == "down", metric


def test_metric_value_resolves_paths():
    record = RunRecord(kind="run", spec={}, counters={"time": 7},
                       extra={"trace_events": 3})
    assert metric_value(record, "time") == 7.0
    assert metric_value(record, "counters.time") == 7.0
    assert metric_value(record, "extra.trace_events") == 3.0
    assert metric_value(record, "wall_s") == 0.0
    assert metric_value(record, "counters.nope") is None
    assert metric_value(record, "kind") is None  # strings are not metrics


def test_changepoint_finds_a_step_not_noise():
    step = [100.0, 101.0, 99.0, 100.0, 130.0, 131.0, 129.0, 130.0]
    cp = detect_changepoint(step)
    assert cp is not None and cp["index"] == 4
    assert cp["shift_pct"] == pytest.approx(30.0, abs=1.0)
    assert detect_changepoint([100.0, 101.0, 99.0]) is None  # too short
    assert detect_changepoint([100.0, 101.0, 99.0, 100.0, 101.0]) is None


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def test_trend_groups_by_spec_and_fits(tmp_path):
    ledger = RunLedger(str(tmp_path))
    _seed(ledger, [100.0, 102.0, 98.0])
    _seed(ledger, [50.0, 51.0], spec={"workload": "hash", "technique": "SC"})
    lines = trend(ledger, "time")
    assert len(lines) == 2
    by_label = {line.label: line for line in lines}
    assert "run/queue/ER" in by_label and "run/hash/SC" in by_label
    line = by_label["run/queue/ER"]
    assert line.values == [100.0, 102.0, 98.0]
    assert line.ewma == ewma(line.values)
    assert line.changepoint is None
    # Filters narrow to one timeline.
    assert len(trend(ledger, "time", spec_filter="hash")) == 1
    assert trend(ledger, "time", limit=1)[0].values in ([98.0], [51.0])


def test_regress_flags_a_20pct_slowdown(tmp_path):
    ledger = RunLedger(str(tmp_path))
    records = _seed(ledger, [100.0, 101.0, 99.0, 100.0, 120.0])
    doc = regress(ledger, "time")
    assert doc["ok"] is False and doc["direction"] == "up"
    (finding,) = doc["findings"]
    assert finding["latest"] == 120.0
    assert finding["run_id"] == records[-1].run_id
    # Fitted from the points *before* the latest: ~100, so ~+20%.
    assert finding["deviation_pct"] == pytest.approx(20.0, abs=2.0)
    # A within-noise latest point does not flag.
    calm = RunLedger(str(tmp_path / "calm"))
    _seed(calm, [100.0, 101.0, 99.0, 100.0, 102.0])
    assert regress(calm, "time")["ok"] is True


def test_regress_direction_for_throughput_metrics(tmp_path):
    ledger = RunLedger(str(tmp_path))
    _seed(ledger, [1000.0, 1010.0, 790.0], counters_key="eps")
    doc = regress(ledger, "eps")
    assert doc["direction"] == "down" and doc["ok"] is False
    # The same drop viewed as "up regresses" passes.
    assert regress(ledger, "eps", direction="up")["ok"] is True
    with pytest.raises(ValueError):
        regress(ledger, "eps", direction="sideways")


def test_regress_skips_short_timelines(tmp_path):
    ledger = RunLedger(str(tmp_path))
    _seed(ledger, [100.0])
    doc = regress(ledger, "time")
    assert doc["ok"] is True and doc["timelines_checked"] == 0
    assert doc["skipped"][0]["points"] == 1


def test_regress_links_artifact_records(tmp_path):
    ledger = RunLedger(str(tmp_path))
    _seed(ledger, [100.0, 100.0])
    ledger.append(
        RunRecord(kind="run", spec={"workload": "queue", "technique": "ER"},
                  counters={"time": 130.0}, ts=3.0,
                  artifacts={"trace": str(tmp_path / "t.jsonl")})
    )
    ledger.append(
        RunRecord(kind="profile", spec={"artifact": "profile"},
                  artifacts={"trace": str(tmp_path / "t.jsonl")})
    )
    (finding,) = regress(ledger, "time")["findings"]
    assert [l["kind"] for l in finding["linked"]] == ["profile"]


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


def test_flaky_spots_disagreeing_outcomes(tmp_path):
    ledger = RunLedger(str(tmp_path))
    spec = {"workload": "queue", "fault_models": ["clean"]}
    for violated in (0, 0, 1):
        ledger.append(
            RunRecord(kind="campaign", spec=spec,
                      counters={"injected": 8, "violated": violated})
        )
    doc = flaky(ledger)
    assert doc["ok"] is False
    (row,) = doc["rows"]
    assert row["records"] == 3 and len(row["outcomes"]) == 2
    # A stable timeline is clean.
    stable = RunLedger(str(tmp_path / "stable"))
    _seed(stable, [1.0, 1.0], kind="campaign", counters_key="violated")
    assert flaky(stable)["ok"] is True


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


def test_cli_regress_exits_nonzero_on_regression(tmp_path, capsys):
    root = _cli_ledger(tmp_path, [100.0, 101.0, 99.0, 100.0, 120.0])
    rc = main(["history", "--ledger", root, "--query", "regress"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FLAGGED" in out and "run/queue/ER" in out


def test_cli_regress_exits_zero_when_clean(tmp_path, capsys):
    root = _cli_ledger(tmp_path, [100.0, 101.0, 99.0])
    assert main(["history", "--ledger", root, "--query", "regress"]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_trend_writes_every_format(tmp_path, capsys):
    root = _cli_ledger(tmp_path, [100.0, 101.0])
    json_p, md_p, html_p = (str(tmp_path / n) for n in ("h.json", "h.md", "h.html"))
    rc = main(["history", "--ledger", root, "--query", "trend",
               "--json", json_p, "--md", md_p, "--html", html_p])
    assert rc == 0
    doc = json.loads(open(json_p).read())
    assert doc["query"] == "trend" and doc["lines"][0]["values"] == [100.0, 101.0]
    md = open(md_p).read()
    assert md.startswith("# Run history: trend") and "run/queue/ER" in md
    html = open(html_p).read()
    assert html.startswith("<!DOCTYPE html>") and "svg" in html


def test_cli_json_to_stdout_moves_tables_to_stderr(tmp_path, capsys):
    root = _cli_ledger(tmp_path, [100.0, 101.0])
    rc = main(["history", "--ledger", root, "--query", "trend", "--json", "-"])
    assert rc == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["query"] == "trend"
    assert "timeline" in captured.err


def test_cli_disabled_ledger_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_LEDGER", "off")
    assert main(["history", "--query", "trend"]) == 2
    assert "disabled" in capsys.readouterr().err


def test_cli_trend_renders_preexisting_bench_records(tmp_path, capsys):
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
    rc = main(["history", "--ledger", root, "--query", "trend",
               "--kind", "bench", "--metric", "analyzer_eps"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "9001" in out and "bench/" in out
    assert len(RunLedger(root).records(kind="bench")) == 2


def test_cli_flaky_query(tmp_path, capsys):
    root = str(tmp_path / "led")
    ledger = RunLedger(root)
    for violated in (0, 1):
        ledger.append(
            RunRecord(kind="campaign", spec={"workload": "queue"},
                      counters={"violated": violated})
        )
    assert main(["history", "--ledger", root, "--query", "flaky"]) == 1
    assert "outcomes" in capsys.readouterr().out.lower()


def test_cli_history_warns_about_skipped_ledger_lines(tmp_path, capsys):
    """A torn ledger line is named in every human form, not only in the
    JSON: the answer below it was computed without that line."""
    root = _cli_ledger(tmp_path, [100.0, 100.0])
    args = ["history", "--ledger", root, "--query", "compare"]
    assert main(args) == 0
    assert "warning" not in capsys.readouterr().out
    with open(RunLedger(root).path, "ab") as fh:
        fh.write(b'{"kind": "run", "torn\n')
    md_p, html_p, json_p = (str(tmp_path / n) for n in ("h.md", "h.html", "h.json"))
    assert main(args + ["--md", md_p, "--html", html_p, "--json", json_p]) == 0
    warning = "warning: 1 unreadable ledger line(s) skipped."
    out = capsys.readouterr().out
    assert warning in out and "Last two records are identical." in out
    assert warning in open(md_p).read()
    assert warning in open(html_p).read()
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
    assert main(["history", "--ledger", root, "--query", "compare", "--json", json_p]) == 0
    (row,) = json.loads(open(json_p).read())["rows"]
    assert row["identical"] is True
    assert "identical" in capsys.readouterr().out
