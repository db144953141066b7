"""The live telemetry pipeline: streaming recorder, profile, alerts.

The two load-bearing contracts are proven against the offline layer:
the incremental JSONL spill must be byte-identical to a post-hoc
``TraceRecorder.write_jsonl`` of the same run, and
``StreamingProfile.finalize()`` must equal ``analyze()`` of the full
trace — for any window size (the hypothesis property at the bottom).
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.experiments.harness import HarnessConfig
from repro.nvram.machine import Machine
from repro.obs.analyze import analyze
from repro.obs.live import (
    AlertEngine,
    AlertRule,
    StreamingProfile,
    StreamingRecorder,
    default_rules,
    parse_rule,
    snapshot_from_result,
)
from repro.obs.trace import (
    EV_EVICT_FLUSH,
    EV_SIZE_SELECTED,
    EV_STALL,
    EVENT_KINDS,
    TraceRecorder,
)
from repro.workloads.registry import get_workload


def _run_cell(recorder):
    """The deterministic cell every comparison below records."""
    config = HarnessConfig(scale=0.02, seed=7).machine_config()
    Machine(config, recorder=recorder).run(
        get_workload("queue", scale=0.02),
        technique_factory("SC"),
        num_threads=2,
        seed=7,
    )


def _traced_pair(window_cycles=5_000):
    """One cell recorded three ways, by running it three times: a
    streaming recorder spilling to a buffer, a full TraceRecorder, and a
    StreamingProfile driven by the machine itself."""
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=window_cycles)
    mirror = TraceRecorder()
    prof = StreamingProfile(window_cycles)
    for recorder in (rec, mirror, prof):
        _run_cell(recorder)
    rec.close()
    return rec, buf, mirror, prof


class _CountingRecorder(StreamingRecorder):
    """Notes how many rows stay buffered after each window close."""

    def __init__(self, target, window_cycles):
        super().__init__(target, window_cycles)
        self.buffered_after_close = []

    def _close_window(self):
        super()._close_window()
        self.buffered_after_close.append(len(self.columns()[0]))


# ---------------------------------------------------------------------------
# StreamingRecorder
# ---------------------------------------------------------------------------


def test_spill_is_byte_identical_to_offline_export():
    rec, buf, mirror, _ = _traced_pair()
    assert len(mirror) == len(rec) > 0
    assert rec.windows_closed > 0           # spilled incrementally, not once
    assert buf.getvalue() == mirror.to_jsonl()


@pytest.mark.parametrize("window_cycles", [1, 7, 10**12])
def test_spill_bytes_do_not_depend_on_the_window(window_cycles):
    """Every event its own window, an odd window, and a window longer
    than the run (close() writes everything) all spill write_jsonl's
    bytes."""
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=window_cycles)
    mirror = TraceRecorder()
    for recorder in (rec, mirror):
        _run_cell(recorder)
    assert (rec.windows_closed == 0) == (window_cycles == 10**12)
    rec.close()
    assert buf.getvalue() == mirror.to_jsonl()


def test_ring_is_bounded_and_counts_are_not():
    """The buffer holds at most the open window's rows — none right
    after a close — while ``len()`` and ``counts()`` cover the stream."""
    rec = _CountingRecorder(io.StringIO(), window_cycles=2_000)
    mirror = TraceRecorder()
    for recorder in (rec, mirror):
        _run_cell(recorder)
    assert len(rec.buffered_after_close) == rec.windows_closed > 1
    assert set(rec.buffered_after_close) == {0}
    assert len(rec.columns()[0]) < len(rec) == len(mirror)
    assert rec.counts() == mirror.counts()
    rec.close()
    assert len(rec) == len(mirror) and rec.counts() == mirror.counts()


def test_flush_happens_on_window_boundary_not_only_on_close():
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=100)
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    assert buf.getvalue().count("\n") == 1  # header only: window still open
    rec.record(EV_STALL, 0, 150, 5, 0)      # watermark crosses cycle 100
    assert rec.windows_closed == 1
    assert buf.getvalue().count("\n") == 3  # header + both events spilled
    rec.close()


def test_quantum_tick_flushes_event_free_window():
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=100)
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    rec.on_quantum(0, 250)
    assert rec.windows_closed == 2           # cycles 100 and 200 both passed
    assert buf.getvalue().count("\n") == 2
    rec.on_quantum(0, 1_050)                 # an event-free stretch: ticks alone
    assert rec.windows_closed == 10
    assert buf.getvalue().count("\n") == 2
    rec.close()


def test_flush_lands_all_events_mid_run():
    """On return from flush() the file holds every event recorded so
    far, even mid-window."""
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=1_000_000)
    for i in range(5):
        rec.record(EV_EVICT_FLUSH, 0, 10 + i, i, 1, 0)
    rec.flush()
    assert buf.getvalue().count("\n") == 6   # header + all five events
    rec.close()


def test_write_error_surfaces_at_the_boundary_and_close_still_closes(
    tmp_path, monkeypatch
):
    """A failing write is raised, as itself, by the record() that closed
    the window; close() raises it again but still closes the file it
    opened, and a second close is a no-op."""
    rec = StreamingRecorder(str(tmp_path / "spill.jsonl"), window_cycles=100)
    fh = rec._fh

    class _DiskFull:
        def write(self, text):
            raise OSError("disk full")

        def close(self):
            fh.close()

    monkeypatch.setattr(rec, "_fh", _DiskFull())
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    with pytest.raises(OSError, match="disk full"):
        rec.record(EV_EVICT_FLUSH, 0, 150, 2, 1, 0)
    with pytest.raises(OSError, match="disk full"):
        rec.close()
    assert rec.closed and fh.closed
    rec.close()


def test_constructor_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        StreamingRecorder(io.StringIO(), window_cycles=0)
    with pytest.raises(ConfigurationError):
        StreamingProfile(0)
    assert not list(tmp_path.iterdir())      # rejected before anything opens
    with pytest.raises(ConfigurationError):
        StreamingRecorder(str(tmp_path / "x.jsonl"), window_cycles=-1)
    assert not list(tmp_path.iterdir())


def test_owned_file_is_closed_and_complete(tmp_path):
    path = tmp_path / "spill.jsonl"
    with StreamingRecorder(str(path), window_cycles=1000) as rec:
        rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    mirror = TraceRecorder()
    mirror.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    assert path.read_text() == mirror.to_jsonl()
    assert rec.closed


# ---------------------------------------------------------------------------
# StreamingProfile
# ---------------------------------------------------------------------------


def test_window_snapshots_carry_deltas_and_cumulatives():
    snaps = []
    prof = StreamingProfile(100, on_window=snaps.append)
    prof.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    prof.record(EV_EVICT_FLUSH, 0, 20, 5, 1, 0)
    prof.record(EV_SIZE_SELECTED, 0, 120, 8)     # closes window 0
    prof.record(EV_EVICT_FLUSH, 1, 230, 9, 1, 1)  # closes window 1
    assert [s.index for s in snaps] == [0, 1]
    w0, w1 = snaps
    assert (w0.start_cycle, w0.end_cycle) == (0, 100)
    # The boundary-crossing event is attributed to the window open at
    # the moment it was recorded — i.e. the one it closes.
    assert (w0.events, w0.evict_flushes, w0.selections) == (3, 2, 1)
    assert (w1.events, w1.evict_flushes, w1.selections) == (1, 1, 0)
    assert w1.total_events == 4
    assert w0.to_dict()["index"] == 0
    assert list(prof.snapshots) == snaps


def test_quantum_ticks_close_event_free_windows():
    prof = StreamingProfile(5_000)
    prof.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    prof.on_quantum(0, 25_000)
    assert prof.windows_closed == 5
    # The event-free windows are genuinely empty deltas.
    assert [s.events for s in prof.snapshots] == [1, 0, 0, 0, 0]


def test_streaming_profile_equals_offline_analysis_on_a_real_run():
    _, _, mirror, prof = _traced_pair()
    assert prof.windows_closed > 1           # the property is non-vacuous
    assert prof.finalize().to_dict() == analyze(mirror).to_dict()


def test_mid_stream_counters_are_readable():
    prof = StreamingProfile(100)
    prof.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    prof.record(EV_EVICT_FLUSH, 0, 150, 5, 1, 0)
    assert prof.fold.prov.evict_flushes >= 1  # first window already folded
    prof.finalize()
    assert prof.fold.prov.evict_flushes == 2


# A compact strategy over well-formed events covering every fold branch.
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(sorted(EVENT_KINDS)),
        st.integers(0, 3),                     # thread id
        st.integers(0, 400),                   # timestamp
        st.integers(-1, 20),                   # a
        st.integers(0, 3),                     # b
        st.sampled_from([-1, 0, 1, 4, 5]),     # c
    # An evict_flush carries a cause a technique writes (others raise).
    ).filter(lambda e: e[0] != EV_EVICT_FLUSH or e[5] in (0, 1, 4)),
    max_size=60,
)


@pytest.mark.parametrize("window_cycles", [1, 7, 64])
@settings(max_examples=50, deadline=None)
@given(events=_EVENTS)
def test_finalize_equals_analyze_for_any_window(window_cycles, events):
    rec = TraceRecorder()
    prof = StreamingProfile(window_cycles)
    for kind, tid, ts, a, b, c in events:
        rec.record(kind, tid, ts, a, b, c)
        prof.record(kind, tid, ts, a, b, c)
    assert prof.finalize().to_dict() == analyze(rec).to_dict()


# ---------------------------------------------------------------------------
# Alert rules
# ---------------------------------------------------------------------------


def test_parse_rule_grammar():
    r = parse_rule("spike: rate(evict_flushes) > 3 @error")
    assert (r.kind, r.metric, r.op, r.value, r.severity) == (
        "rate", "evict_flushes", ">", 3.0, "error",
    )
    r = parse_rule("slo: sustained(stall_share, 4) >= 0.5")
    assert (r.kind, r.window, r.severity) == ("sustained", 4, "warning")
    r = parse_rule("floor: events < -2 @info")
    assert (r.kind, r.value, r.severity) == ("threshold", -2.0, "info")
    assert "rate(evict_flushes) > 3" in parse_rule(
        "spike: rate(evict_flushes) > 3"
    ).condition()


@pytest.mark.parametrize(
    "text",
    ["no-colon > 3", "x: metric >> 3", "x: metric > 3 @loud", "x: f(m) > 1"],
)
def test_parse_rule_rejects_bad_grammar(text):
    with pytest.raises(ConfigurationError):
        parse_rule(text)


def test_rule_validation():
    with pytest.raises(ConfigurationError):
        AlertRule(name="x", metric="m", kind="median")
    with pytest.raises(ConfigurationError):
        AlertRule(name="x", metric="m", severity="fatal")
    with pytest.raises(ConfigurationError):
        AlertRule(name="x", metric="m", kind="sustained", window=0)


# ---------------------------------------------------------------------------
# AlertEngine
# ---------------------------------------------------------------------------


def _windows(engine, values, metric="evict_flushes"):
    fired = []
    for i, v in enumerate(values):
        fired.extend(engine.observe_window({"index": i, metric: v}))
    return fired


def test_threshold_alert_is_edge_triggered():
    engine = AlertEngine([parse_rule("hot: evict_flushes > 10")])
    fired = _windows(engine, [5, 20, 30, 5, 40])
    # Two rising edges (20 and 40); the sustained 30 does not re-fire.
    assert [a.window_index for a in fired] == [1, 4]
    assert [a.value for a in fired] == [20.0, 40.0]
    assert fired[0].message == "evict_flushes > 10 — observed 20 at window 1"


def test_rate_rule_needs_a_usable_previous_window():
    engine = AlertEngine([parse_rule("spike: rate(evict_flushes) > 3")])
    fired = _windows(engine, [0, 100, 100, 500])
    # Window 1 has prev=0 (skipped); 100->500 is the only 3x jump.
    assert [a.window_index for a in fired] == [3]
    assert fired[0].value == 5.0


def test_sustained_rule_requires_consecutive_breaches():
    engine = AlertEngine(
        [parse_rule("slo: sustained(stall_share, 3) > 0.5 @error")]
    )
    fired = _windows(engine, [0.9, 0.9, 0.2, 0.9, 0.9, 0.9], metric="stall_share")
    assert [a.window_index for a in fired] == [5]  # streak reset at window 2
    assert fired[0].severity == "error"


def test_rules_over_absent_metrics_are_skipped():
    engine = AlertEngine([parse_rule("hot: no_such_metric > 0")])
    assert _windows(engine, [1, 2, 3]) == []


def test_duplicate_rule_names_are_rejected():
    with pytest.raises(ConfigurationError):
        AlertEngine([parse_rule("x: a > 1"), parse_rule("x: b > 2")])


def test_alert_log_is_deterministic_jsonl(tmp_path):
    log = tmp_path / "alerts.jsonl"
    engine = AlertEngine(
        [parse_rule("hot: evict_flushes > 10 @error")], log_path=str(log)
    )
    _windows(engine, [5, 20, 5, 30])
    engine.close()
    assert log.read_text() == engine.to_jsonl()
    docs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [d["kind"] for d in docs] == ["alert", "alert"]
    assert engine.max_severity() == "error"
    rewritten = tmp_path / "again.jsonl"
    engine.write_jsonl(str(rewritten))
    assert rewritten.read_text() == log.read_text()


def test_diagnosis_forwarding_and_severity_ranking():
    from repro.obs.analyze import Diagnosis

    engine = AlertEngine([parse_rule("hot: evict_flushes > 10 @info")])
    _windows(engine, [20])
    fired = engine.observe_diagnoses(
        [
            Diagnosis(
                code="knee_oscillation", severity="error",
                thread_id=1, message="oscillating",
            ),
            Diagnosis(
                code="clean_shutdown", severity="info",
                thread_id=0, message="not forwarded",
            ),
        ]
    )
    assert [a.rule for a in fired] == ["diagnosis:knee_oscillation"]
    assert engine.max_severity() == "error"
    assert [a.severity for a in engine.by_severity()] == ["error", "info"]


def test_default_rules_stay_silent_on_a_seed_run():
    _, _, _, prof = _traced_pair(window_cycles=50_000)
    engine = AlertEngine(default_rules())
    for snap in prof.snapshots:
        engine.observe_window(snap)
    final = prof.finalize()
    engine.observe_diagnoses(final.diagnoses)
    assert [a for a in engine.alerts if a.severity == "error"] == []


# ---------------------------------------------------------------------------
# grid cells as snapshots
# ---------------------------------------------------------------------------


def test_snapshot_from_result_on_a_real_cell(tiny_harness):
    cell = ("queue", "SC", 2)
    result = tiny_harness.run(*cell)
    snap = snapshot_from_result(cell, result)
    assert snap["cell"] == "queue/SC/t2"
    assert snap["workload"] == "queue"
    assert snap["threads"] == 2
    assert snap["cycles"] > 0
    assert 0.0 <= snap["stall_share"] < 1.0
    assert snap["selections"] == sum(
        len(t.selected_sizes) for t in result.threads
    )


def _grid_snapshots(harness, jobs):
    """The per-cell snapshots ``monitor --grid table1`` feeds its rules."""
    from repro.experiments.monitor import monitor_grid

    with AlertEngine([]) as engine:
        summary = monitor_grid(harness, "table1", jobs=jobs, engine=engine, once=True)
    return summary["snapshots"]


def test_run_grid_feeds_rich_progress(tiny_harness):
    """The three-argument grid callback is enough for the monitor: each
    cell's snapshot comes from the harness's memo, in grid order."""
    from repro.experiments.parallel import grid_for

    snapshots = _grid_snapshots(tiny_harness, jobs=1)
    cells = grid_for(tiny_harness, "table1")
    assert snapshots == [
        dict(snapshot_from_result(cell, tiny_harness.run(*cell)), index=i)
        for i, cell in enumerate(cells)
    ]


def test_parallel_grid_feeds_rich_progress(tiny_harness):
    """Cells computed by workers give the monitor the same snapshots."""
    from repro.experiments.harness import Harness

    by_cell = lambda snaps: {s["cell"]: {**s, "index": None} for s in snaps}
    parallel = _grid_snapshots(Harness(tiny_harness.config), jobs=2)
    assert sorted(s["index"] for s in parallel) == list(range(len(parallel)))
    assert by_cell(parallel) == by_cell(_grid_snapshots(tiny_harness, jobs=1))
