"""Tracing wired through the machine: equivalence, determinism, metrics.

The observability layer must *observe*, never perturb: a traced run's
statistics are bit-identical to the untraced run of the same cell, the
per-event and batched execution paths emit the same events, and repeated
traced runs of one configuration export byte-identical documents.
"""

import json

from repro.cache.spec import technique_factory
from repro.nvram.machine import Machine, MachineConfig
from repro.obs.runner import traced_run
from repro.obs.trace import (
    EV_DRAIN,
    EV_EVICT_FLUSH,
    EV_FASE_BEGIN,
    EV_FASE_END,
    EV_SIZE_SELECTED,
    NULL_RECORDER,
    TraceRecorder,
)
from repro.workloads.registry import get_workload

CELL = ("queue", "SC", 2)


def test_untraced_machine_holds_the_null_recorder():
    machine = Machine(MachineConfig())
    assert machine.recorder is NULL_RECORDER
    assert machine.metrics is None


def test_size_selected_events_match_run_result(tiny_harness):
    result, recorder, _ = traced_run(
        tiny_harness, CELL[0], CELL[1], threads=CELL[2]
    )
    got = {}
    for e in recorder.events_of(EV_SIZE_SELECTED):
        got.setdefault(e.thread_id, []).append(e.a)
    want = {t: s for t, s in result.selected_sizes.items() if s}
    assert got == want
    assert got   # the SC run did adapt


def test_tracing_does_not_perturb_the_run(tiny_harness):
    traced, recorder, _ = traced_run(
        tiny_harness, CELL[0], CELL[1], threads=CELL[2]
    )
    plain = tiny_harness.run(*CELL)
    assert traced.to_dict() == plain.to_dict()
    assert len(recorder) > 0


def test_fase_spans_are_balanced(tiny_harness):
    result, recorder, _ = traced_run(tiny_harness, "queue", "LA")
    begins = recorder.events_of(EV_FASE_BEGIN)
    ends = recorder.events_of(EV_FASE_END)
    assert len(begins) == len(ends) == result.fase_count
    # Same uids, and every end is at or after its begin.
    starts = {e.a: e.time for e in begins}
    for e in ends:
        assert e.time >= starts[e.a]


def test_trace_exports_are_deterministic(tiny_harness):
    runs = [
        traced_run(tiny_harness, "queue", "SC", threads=2, metrics_interval=5000)
        for _ in range(2)
    ]
    (_, rec1, met1), (_, rec2, met2) = runs
    assert rec1.to_jsonl() == rec2.to_jsonl()
    assert json.dumps(rec1.to_chrome(), sort_keys=True) == json.dumps(
        rec2.to_chrome(), sort_keys=True
    )
    assert met1.to_dict() == met2.to_dict()


def test_per_event_and_batched_traces_are_identical():
    def run(technique, use_batches):
        recorder = TraceRecorder()
        machine = Machine(MachineConfig(), recorder=recorder)
        machine.run(
            get_workload("water-spatial", scale=0.05),
            technique_factory(technique),
            num_threads=2,
            seed=7,
            use_batches=use_batches,
        )
        per_thread = {}
        for e in recorder.events():
            per_thread.setdefault(e.thread_id, []).append(e)
        return per_thread

    for technique in ("BEST", "SC"):
        assert run(technique, False) == run(technique, True), technique


def test_drain_events_carry_fase_ids(tiny_harness):
    """FASE-boundary drains are attributed to the committing FASE; the
    final drain is marked unattributed (-1)."""
    result, recorder, _ = traced_run(tiny_harness, "queue", "LA")
    drains = recorder.events_of(EV_DRAIN)
    assert drains, "LA drains at every FASE end"
    fase_uids = {e.a for e in recorder.events_of(EV_FASE_END)}
    attributed = [e for e in drains if e.c >= 0]
    unattributed = [e for e in drains if e.c == -1]
    assert attributed, "at least one FASE-end drain"
    assert all(e.c in fase_uids for e in attributed)
    # One final drain per thread, at most (threads with nothing queued
    # drain for free and may still record a zero-stall drain).
    assert len(unattributed) <= len(result.threads)
    assert len(drains) == len(attributed) + len(unattributed)


def test_evict_flush_resize_flags():
    """Capacity evictions carry resize_evict=0; an SC run that shrinks
    its cache marks resize-forced write-backs with resize_evict=1."""
    recorder = TraceRecorder()
    machine = Machine(MachineConfig(l1_capacity_lines=16), recorder=recorder)
    result = machine.run(
        get_workload("water-spatial", scale=0.05),
        technique_factory("SC"),
        num_threads=2,
        seed=7,
    )
    flushes = recorder.events_of(EV_EVICT_FLUSH)
    assert flushes
    assert all(e.c in (0, 1) for e in flushes)
    # Every evict_flush (capacity or resize) counts into the same
    # RunResult eviction_flushes aggregate — the trace adds provenance
    # without changing the statistics schema.
    assert len(flushes) == sum(t.eviction_flushes for t in result.threads)


def test_resize_eviction_carries_the_resize_flag():
    """A controller shrink that evicts resident lines flags the forced
    write-backs with resize_evict=1 and keeps counting them as eviction
    flushes in the RunResult."""
    from repro.nvram.memory import NVRAM_BASE

    recorder = TraceRecorder()
    machine = Machine(MachineConfig(), recorder=recorder)
    technique = technique_factory("SC-offline", sc_fixed_size=8)(0)
    session = machine.session(technique)
    for i in range(8):
        session.store(NVRAM_BASE + 64 * i)
    technique._resize(2)               # shrink below occupancy: 6 evictions
    session.finish()
    flushes = recorder.events_of(EV_EVICT_FLUSH)
    resize_forced = [e for e in flushes if e.c == 1]
    assert len(resize_forced) == 6
    assert session.stats.eviction_flushes == len(flushes)


def test_metrics_sampling_through_a_run(tiny_harness):
    result, _, metrics = traced_run(
        tiny_harness, "queue", "SC", threads=2, metrics_interval=2000
    )
    names = metrics.series_names()
    for tid in range(2):
        assert f"flush_queue_depth/t{tid}" in names
        assert f"cache_occupancy/t{tid}" in names
        assert f"flush_ratio/t{tid}" in names
        ts, vs = metrics.series(f"cache_occupancy/t{tid}")
        assert ts == sorted(ts)
        assert all(v >= 0 for v in vs)
        # End-of-run totals land as counters/gauges.
        stats = result.threads[tid]
        assert metrics.counters[f"flushes/t{tid}"] == stats.flushes
        assert metrics.counters[f"fase_count/t{tid}"] == stats.fase_count
        assert metrics.gauges[f"cycles/t{tid}"] == stats.cycles
