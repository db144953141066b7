"""Smoke tests for the benchmark itself: ``pytest perfbench`` (< 60 s).

Not part of the tier-1 ``testpaths``; they check that the benchmark keeps
the contract ``BENCHMARK.json`` declares, at ``--quick`` scales.
"""

import re
import shutil

import pytest

from perfbench.run import bootstrap

bootstrap()

from perfbench import checks, cli  # noqa: E402

MANIFEST = cli.load_manifest()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_manifest_shape():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in MANIFEST["workloads"]] == list(cli.WORKLOADS)
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in MANIFEST[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 <= m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("workload", list(cli.WORKLOADS))
def test_quick_run_emits_every_declared_metric(workload, trace):
    doc = cli.run_one(workload, seed=7, seconds=0.2, trace=trace, quick=True)
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert doc["comparable"] is False
    assert doc["passes"] == len(doc["pass_raw_s"]) >= 3
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())
        return
    # Spans form a tree: every parent exists and contains its children.
    rows = {row["id"]: row for row in doc["spans"]}
    assert rows
    for row in rows.values():
        assert row["end"] >= row["start"]
        if row["parent"] is not None:
            parent = rows[row["parent"]]
            assert parent["start"] <= row["start"] and row["end"] <= parent["end"]
    assert doc["metrics"]["bench.span_coverage"]["value"] >= 0.9


def test_corrupted_golden_entry_fails_the_run(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(checks.GOLDEN_DIR, golden)
    path = golden / "crash_campaign.json"
    path.write_text(path.read_text().replace('"total_sites": ', '"total_sites": 1'))
    monkeypatch.setattr(checks, "GOLDEN_DIR", str(golden))
    code = cli.main(["run", "--workload", "crash_campaign", "--seconds", "0.2"])
    assert code == 1
    assert "golden mismatch" in capsys.readouterr().out


def test_regolden_refuses_to_overwrite(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "GOLDEN_DIR", str(tmp_path))
    checks.write_golden("x", {"a": 1}, force=False)
    with pytest.raises(FileExistsError):
        checks.write_golden("x", {"a": 2}, force=False)
    checks.write_golden("x", {"a": 2}, force=True)
    assert checks.golden_failures("x", {"a": 2}) == []
    assert checks.golden_failures("x", {"a": 3}) == ["golden mismatch: a"]
