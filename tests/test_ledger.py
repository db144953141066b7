"""The run ledger: append-only provenance, crash safety, determinism.

The durability model under test mirrors NVCache's append-only log at
JSONL scale: one record per line via a single ``O_APPEND`` write, a
torn-tolerant reader, and tail healing on the next append.  The log is
the only file; nothing is derived from it on disk.
"""

import json
import os

import pytest

from repro import api
from repro.obs.ledger import (
    ENV_FIELDS,
    LEDGER_SCHEMA,
    RunLedger,
    RunRecord,
    canonical_json,
    counters_from_result,
    default_ledger_path,
    git_sha,
    grid_cells_payload,
    record_run,
    resolve_ledger,
    spec_fingerprint,
)


def _ledger(tmp_path):
    return RunLedger(str(tmp_path / "ledger"))


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def test_spec_fingerprint_is_order_independent():
    assert spec_fingerprint({"a": 1, "b": 2}) == spec_fingerprint({"b": 2, "a": 1})
    assert spec_fingerprint({"a": 1}) != spec_fingerprint({"a": 2})


def test_record_round_trip_and_stable_dict():
    record = RunRecord(kind="run", spec={"workload": "queue"}, counters={"time": 9})
    data = record.to_dict()
    back = RunRecord.from_dict(data)
    assert back == record
    # Unknown keys from future writers are ignored, not fatal.
    assert RunRecord.from_dict({**data, "novel_field": 1}) == record
    stable = record.stable_dict()
    for key in ENV_FIELDS:
        assert key not in stable
    assert stable["spec_sha"] == spec_fingerprint({"workload": "queue"})


def test_append_fills_environment_fields(tmp_path):
    ledger = _ledger(tmp_path)
    record = ledger.append(RunRecord(kind="run", spec={"x": 1}))
    assert record.ts > 0 and record.run_id and record.host["python"]
    (back,) = ledger.scan()
    assert back.to_dict() == record.to_dict()
    assert ledger.skipped_lines == 0


def test_append_scan_order_and_filters(tmp_path):
    ledger = _ledger(tmp_path)
    for i in range(3):
        ledger.append(RunRecord(kind="run", spec={"i": i % 2}, counters={"n": i}))
    ledger.append(RunRecord(kind="bench", spec={"suite": "bench"}))
    assert [r.counters.get("n") for r in ledger.records(kind="run")] == [0, 1, 2]
    sha = spec_fingerprint({"i": 0})
    assert [r.counters["n"] for r in ledger.records(spec_sha=sha)] == [0, 2]
    assert set(ledger.timelines(kind="run")) == {sha, spec_fingerprint({"i": 1})}
    assert len(ledger) == 4


# ---------------------------------------------------------------------------
# Crash safety: torn tails
# ---------------------------------------------------------------------------


def test_reader_skips_truncated_final_line(tmp_path):
    ledger = _ledger(tmp_path)
    for i in range(3):
        ledger.append(RunRecord(kind="run", spec={"i": i}))
    with open(ledger.path, "rb") as fh:
        raw = fh.read()
    # Crash mid-append: the final line loses its tail (and newline).
    with open(ledger.path, "wb") as fh:
        fh.write(raw[:-20])
    records = ledger.scan()
    assert [r.spec["i"] for r in records] == [0, 1]
    assert ledger.skipped_lines == 1


def test_next_append_heals_a_torn_tail(tmp_path):
    ledger = _ledger(tmp_path)
    ledger.append(RunRecord(kind="run", spec={"i": 0}))
    with open(ledger.path, "ab") as fh:
        fh.write(b'{"kind": "run", "torn')  # writer died mid-line
    ledger.append(RunRecord(kind="run", spec={"i": 1}))
    records = ledger.scan()
    assert [r.spec["i"] for r in records] == [0, 1]
    assert ledger.skipped_lines == 1
    # The log itself stays line-parseable: exactly one bad line.
    with open(ledger.path, "rb") as fh:
        lines = [l for l in fh.read().split(b"\n") if l.strip()]
    assert len(lines) == 3


def test_reader_skips_foreign_schema_lines(tmp_path):
    ledger = _ledger(tmp_path)
    ledger.append(RunRecord(kind="run", spec={"i": 0}))
    with open(ledger.path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "run", "schema": LEDGER_SCHEMA + 1}) + "\n")
        fh.write("[1, 2, 3]\n")
    assert len(ledger.scan()) == 1
    assert ledger.skipped_lines == 2


def test_scan_of_missing_log_is_empty(tmp_path):
    ledger = _ledger(tmp_path)
    assert ledger.scan() == []
    assert ledger.skipped_lines == 0


# ---------------------------------------------------------------------------
# Resolution + recording entry point
# ---------------------------------------------------------------------------


def test_env_var_controls_default_path(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    assert default_ledger_path() == ".ledger"
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path))
    assert default_ledger_path() == str(tmp_path)
    assert resolve_ledger().root == str(tmp_path)
    for off in ("off", "none", "0", "disabled", "OFF", " off "):
        monkeypatch.setenv("REPRO_LEDGER", off)
        assert default_ledger_path() is None
        assert resolve_ledger() is None


def test_record_run_is_best_effort(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LEDGER", "off")
    assert record_run("run", {}, {}) is None
    # An unwritable root degrades to None instead of raising.
    blocked = tmp_path / "file"
    blocked.write_text("not a directory")
    assert record_run("run", {}, {}, ledger=str(blocked / "sub")) is None
    # And an explicit ledger records normally.
    record = record_run("run", {"x": 1}, {"time": 2}, ledger=str(tmp_path / "led"))
    assert record is not None and record.counters == {"time": 2}


def test_an_unwritable_ledger_says_so_once(tmp_path, capsys):
    blocked = tmp_path / "file"
    blocked.write_text("not a directory")
    for _ in range(2):
        assert record_run("run", {}, {}, ledger=str(blocked)) is None
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"ledger: not recording to {blocked}")


def test_git_sha_resolves_this_repo():
    sha = git_sha(os.path.dirname(os.path.abspath(__file__)))
    assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)
    assert git_sha("/") is None


# ---------------------------------------------------------------------------
# Determinism contract: identical spec -> identical stable record
# ---------------------------------------------------------------------------


def test_rerun_of_identical_spec_appends_identical_stable_record(
    monkeypatch, tmp_path
):
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "led"))
    spec = api.RunSpec(workload="queue", technique="ER", scale=0.02, seed=7)
    api.run(spec)
    api.run(api.RunSpec(workload="queue", technique="ER", scale=0.02, seed=7))
    ledger = RunLedger(str(tmp_path / "led"))
    first, second = ledger.records(kind="run")
    assert first.stable_dict() == second.stable_dict()
    assert first.run_id != second.run_id
    assert first.spec_sha == second.spec_sha
    assert first.counters["time"] > 0


def test_counters_from_result_distills_a_run(tiny_harness):
    result = tiny_harness.run("queue", "ER", 1)
    counters = canonical_json(counters_from_result(result))
    assert json.loads(counters)["time"] == int(result.time)
    assert json.loads(counters)["crashed"] is False


def test_grid_cells_payload_aggregates(tiny_harness):
    results = {
        cell: tiny_harness.run(*cell)
        for cell in [("queue", "ER", 1), ("queue", "SC", 1)]
    }
    rows, totals = grid_cells_payload(results)
    assert [r["technique"] for r in rows] == ["ER", "SC"]
    assert totals["cells"] == 2
    assert totals["time"] == sum(int(r.time) for r in results.values())


# ---------------------------------------------------------------------------
# Concurrency: two processes hammering one log
# ---------------------------------------------------------------------------


def _hammer_ledger(root, writer, rounds):
    ledger = RunLedger(root)
    for i in range(rounds):
        ledger.append(
            RunRecord(
                kind="hammer",
                spec={"writer": writer},
                counters={"i": i, "blob": "x" * 512},
            )
        )


def test_concurrent_appenders_never_tear_a_line(tmp_path):
    """Two processes appending concurrently must interleave only at line
    granularity: every complete line parses at every instant (single
    O_APPEND write per record), and the final scan sees every record."""
    import multiprocessing as mp

    root = str(tmp_path / "led")
    rounds = 150
    ctx = mp.get_context()
    writers = [
        ctx.Process(target=_hammer_ledger, args=(root, w, rounds))
        for w in (0, 1)
    ]
    for w in writers:
        w.start()
    path = os.path.join(root, "runs.jsonl")
    observed = set()
    try:
        while any(w.is_alive() for w in writers):
            try:
                with open(path, "rb") as fh:
                    raw = fh.read()
            except OSError:
                continue
            chunks = raw.split(b"\n")
            if chunks and not raw.endswith(b"\n"):
                chunks = chunks[:-1]  # a write may be mid-flight
            for chunk in chunks:
                if not chunk.strip():
                    continue
                data = json.loads(chunk)  # raises if torn/interleaved
                observed.add(data["spec"]["writer"])
    finally:
        for w in writers:
            w.join()
    assert all(w.exitcode == 0 for w in writers)
    assert observed == {0, 1}  # the reader actually raced both writers
    ledger = RunLedger(root)
    records = ledger.records(kind="hammer")
    assert len(records) == 2 * rounds
    assert ledger.skipped_lines == 0
    # Per-writer sequences arrived intact and in order.
    for writer in (0, 1):
        seq = [r.counters["i"] for r in records if r.spec["writer"] == writer]
        assert seq == list(range(rounds))
    assert len(ledger.scan()) == 2 * rounds
    assert os.listdir(root) == ["runs.jsonl"]   # the log is the only file


def test_record_run_never_raises_on_readonly_root(tmp_path):
    if hasattr(os, "geteuid") and os.geteuid() == 0:
        pytest.skip("read-only directories do not bind the superuser")
    root = tmp_path / "ro"
    root.mkdir()
    os.chmod(root, 0o500)
    try:
        assert record_run("run", {}, {}, ledger=str(root / "led")) is None
    finally:
        os.chmod(root, 0o700)
