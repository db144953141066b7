"""The offline trace analyzer: provenance, latency, diagnostics.

Two kinds of evidence: synthetic traces with hand-computable answers
(the fold's arithmetic is checked exactly), and real traced runs whose
profiles must reconcile — counter for counter — with the RunResult the
same run produced.
"""

import functools
import json

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.obs.analyze import (
    Diagnosis,
    analyze,
    max_severity,
    reconcile,
)
from repro.obs.trace import (
    EV_BURST_START,
    EV_DRAIN,
    EV_EVICT_FLUSH,
    EV_FASE_BEGIN,
    EV_FASE_END,
    EV_KNEE_CANDIDATE,
    EV_MRC_COMPUTED,
    EV_SIZE_SELECTED,
    EV_STALL,
    TraceRecorder,
    parse_jsonl,
)

#: A spec in ``tiny_harness``'s configuration.
_tiny = functools.partial(api.RunSpec, scale=0.02, seed=7)

# ---------------------------------------------------------------------------
# Synthetic traces
# ---------------------------------------------------------------------------


def test_flush_provenance_arithmetic():
    rec = TraceRecorder()
    # Three capacity evictions of line 5 (two dirty), one of line 9,
    # one resize-forced eviction of line 5 on thread 1.
    rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    rec.record(EV_EVICT_FLUSH, 0, 20, 5, 1, 0)
    rec.record(EV_EVICT_FLUSH, 0, 30, 5, 0, 0)
    rec.record(EV_EVICT_FLUSH, 0, 40, 9, 1, 0)
    rec.record(EV_EVICT_FLUSH, 1, 50, 5, 1, 1)
    # Stalls: issue (b=0) and write-back (b=1).
    rec.record(EV_STALL, 0, 60, 100, 0)
    rec.record(EV_STALL, 1, 70, 40, 1)
    # One FASE-end drain (fase_id 7) and one final drain.
    rec.record(EV_DRAIN, 0, 80, 25, 3, 7)
    rec.record(EV_DRAIN, 0, 90, 5, 1, -1)
    p = analyze(rec).provenance
    assert p.capacity_evictions == 4
    assert p.resize_evictions == 1
    assert p.evict_flushes == 5
    assert p.dirty_evict_flushes == 4
    assert p.line_flushes == {5: 4, 9: 1}
    assert p.distinct_lines == 2
    assert p.write_amplification == 2.5
    assert p.top_lines == [(5, 4), (9, 1)]
    assert p.issue_stall_cycles == 100
    assert p.writeback_stall_cycles == 40
    assert p.fase_drains == 1
    assert p.fase_drain_stall_cycles == 25
    assert p.fase_drain_outstanding == 3
    assert p.final_drains == 1
    assert p.final_drain_stall_cycles == 5
    assert p.fase_drain_stall_by_fase == {7: 25}
    assert p.per_thread[0] == {
        "capacity": 4,
        "resize": 0,
        "victim": 0,
        "fase_drains": 1,
        "drain_stall": 25,
    }
    assert p.per_thread[1] == {
        "capacity": 0,
        "resize": 1,
        "victim": 0,
        "fase_drains": 0,
        "drain_stall": 0,
    }


#: A schema-3 trace whose two ``evict_flush`` causes no technique writes.
UNKNOWN_CAUSES = (
    '{"kind":"trace_meta","schema":3}\n'
    '{"kind":"evict_flush","tid":0,"ts":5,"line":3,"dirty":0,"cause":7}\n'
    '{"kind":"evict_flush","tid":1,"ts":9,"line":4,"dirty":1,"cause":-2}\n'
)


def test_unknown_evict_cause_is_an_error_not_a_victim_flush():
    with pytest.raises(ConfigurationError, match=r"unknown cause 7 \(tid 0, ts 5\)"):
        analyze(parse_jsonl(UNKNOWN_CAUSES))
    # The retired stage causes 2 and 3 are unknown too.
    for cause in (2, 3):
        rec = TraceRecorder()
        rec.record(EV_EVICT_FLUSH, 1, 9, 4, 1, cause)
        with pytest.raises(ConfigurationError, match=f"unknown cause {cause} "):
            analyze(rec)


def test_cli_rejects_unknown_evict_cause(tmp_path, capsys):
    """``profile`` exits 2 on a spilled trace carrying an unknown cause."""
    from repro.experiments.__main__ import main

    path = tmp_path / "hostile.jsonl"
    path.write_text(UNKNOWN_CAUSES)
    assert main(["profile", "--trace", str(path)]) == 2
    assert "unknown cause 7 (tid 0, ts 5)" in capsys.readouterr().err


def test_top_lines_ranking_is_deterministic():
    rec = TraceRecorder()
    # Lines 1..5, line i flushed i times; ties broken by line number.
    for line in range(1, 6):
        for _ in range(line):
            rec.record(EV_EVICT_FLUSH, 0, 0, line, 1, 0)
    rec.record(EV_EVICT_FLUSH, 0, 0, 99, 1, 0)  # ties with line 1
    p = analyze(rec, top_k=3).provenance
    assert p.top_lines == [(5, 5), (4, 4), (3, 3)]


def test_fase_latency_percentiles():
    rec = TraceRecorder()
    # 100 spans with durations 1..100 on one thread.
    t = 0
    for uid in range(100):
        rec.record(EV_FASE_BEGIN, 0, t, uid)
        rec.record(EV_FASE_END, 0, t + uid + 1, uid)
        t += 1000
    f = analyze(rec).fase
    assert f.count == 100
    assert (f.p50, f.p95, f.p99, f.max) == (50, 95, 99, 100)
    assert f.total_cycles == sum(range(1, 101))
    assert f.per_thread_count == {0: 100}


def test_fase_stall_share_uses_attributed_drains():
    rec = TraceRecorder()
    rec.record(EV_FASE_BEGIN, 0, 0, 3)
    rec.record(EV_DRAIN, 0, 90, 40, 2, 3)
    rec.record(EV_FASE_END, 0, 100, 3)
    f = analyze(rec).fase
    assert f.total_cycles == 100
    assert f.drain_stall_cycles == 40
    assert f.stall_share == 0.4


def test_unbalanced_fase_is_an_error():
    rec = TraceRecorder()
    rec.record(EV_FASE_BEGIN, 0, 0, 1)          # never closed
    rec.record(EV_FASE_END, 1, 10, 9)           # never opened
    profile = analyze(rec)
    codes = sorted((d.code, d.thread_id) for d in profile.diagnoses)
    assert codes == [("unbalanced_fase", 0), ("unbalanced_fase", 1)]
    assert max_severity(profile.diagnoses) == "error"


# -- controller narrative ---------------------------------------------------


def _select(rec, tid, t, size, knees=None):
    """One full burst: MRC -> knee candidates -> selection."""
    knees = [size] if knees is None else knees
    rec.record(EV_BURST_START, tid, t, 512)
    rec.record(EV_MRC_COMPUTED, tid, t + 1, 1000, len(knees))
    for k in knees:
        rec.record(EV_KNEE_CANDIDATE, tid, t + 2, k, 0)
    rec.record(EV_SIZE_SELECTED, tid, t + 3, size)


def test_unmatched_selection_and_fallback():
    rec = TraceRecorder()
    # Selection matching no knee candidate -> error.
    _select(rec, 0, 0, 64, knees=[4, 8])
    # MRC with zero knees followed by a selection -> the max-size
    # fallback, an info-level note.
    rec.record(EV_MRC_COMPUTED, 1, 100, 500, 0)
    rec.record(EV_SIZE_SELECTED, 1, 101, 512)
    profile = analyze(rec)
    a = profile.adaptation
    assert (a.bursts, a.analyses, a.knee_candidates, a.selections, a.fallbacks) == (1, 2, 2, 2, 1)
    assert a.trajectories == {0: [(3, 64)], 1: [(101, 512)]}
    by_code = {d.code: d for d in profile.diagnoses}
    assert by_code["unmatched_selection"].severity == "error"
    assert by_code["unmatched_selection"].thread_id == 0
    assert by_code["knee_fallback"].severity == "info"
    assert by_code["knee_fallback"].thread_id == 1


def test_adoption_is_not_an_unmatched_selection():
    """A selection with no MRC before it on its thread (a size decided
    elsewhere) is counted as a selection, not flagged as an error."""
    rec = TraceRecorder()
    rec.record(EV_SIZE_SELECTED, 1, 50, 16)
    profile = analyze(rec)
    assert profile.adaptation.selections == 1
    assert all(d.code != "unmatched_selection" for d in profile.diagnoses)


def test_diagnoses_sorted_most_severe_first():
    rec = TraceRecorder()
    rec.record(EV_MRC_COMPUTED, 1, 100, 500, 0)
    rec.record(EV_SIZE_SELECTED, 1, 101, 512)     # info
    rec.record(EV_FASE_BEGIN, 0, 0, 1)            # error (never closed)
    diags = analyze(rec).diagnoses
    assert [d.severity for d in diags] == ["error", "info"]


# ---------------------------------------------------------------------------
# Real traced runs
# ---------------------------------------------------------------------------


def test_profile_reconciles_with_run_result(tiny_harness):
    """Among the cells, ER's write-through trains and AT's commit trains
    on a saturated queue: the trace's stall records are the run's stall
    cycles."""
    cells = (
        ("queue", "SC", 2), ("queue", "LA", 1), ("mdb", "SC", 1),
        ("barnes", "ER", 1), ("ocean", "AT", 1),
    )
    for cell in cells:
        result, recorder, _ = api.traced_run(_tiny(*cell), harness=tiny_harness)
        profile = analyze(recorder)
        assert reconcile(profile, result) == [], cell
        assert profile.provenance.issue_stall_cycles > 0 or cell[1] not in ("ER", "AT")


def test_seed_workloads_select_once_and_raise_no_error(tiny_harness):
    """Seed threads adapt at most once (their samplers hibernate), which
    is why the analyzer diagnoses no size sequence; and none of their
    diagnoses is an error."""
    for workload in ("queue", "linked-list"):
        _, recorder, _ = api.traced_run(_tiny(workload, "SC", 2), harness=tiny_harness)
        profile = analyze(recorder)
        assert all(len(t) <= 1 for t in profile.adaptation.trajectories.values()), workload
        assert all(d.severity != "error" for d in profile.diagnoses), workload


def test_profile_is_byte_deterministic(tiny_harness):
    docs = []
    for _ in range(2):
        _, recorder, _ = api.traced_run(_tiny("queue", "SC", 2), harness=tiny_harness)
        docs.append(analyze(recorder).to_json())
    assert docs[0] == docs[1]
    json.loads(docs[0])  # valid JSON with trailing newline
    assert docs[0].endswith("\n")


def test_profile_survives_jsonl_round_trip(tiny_harness):
    """Analyzing a parsed-back trace gives the identical profile —
    the on-disk document loses nothing the analyzer uses."""
    _, recorder, _ = api.traced_run(_tiny("queue", "SC", 2), harness=tiny_harness)
    direct = analyze(recorder).to_json()
    parsed = analyze(parse_jsonl(recorder.to_jsonl())).to_json()
    assert direct == parsed


def test_diagnosis_to_dict_and_max_severity():
    d = Diagnosis("x", "warning", 0, "msg", {"b": 2, "a": 1})
    assert list(d.to_dict()["data"]) == ["a", "b"]
    assert max_severity([]) is None
    assert max_severity([d]) == "warning"
