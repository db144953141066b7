"""The observability layer's overhead budget (DESIGN.md §9).

Two assertions keep ``repro.obs`` honest:

- **Disabled path**: a machine built without a recorder holds the shared
  ``NULL_RECORDER`` and runs the batched fast path at (noise-bounded)
  parity with the pre-obs loop — the only added work per quantum is one
  hoisted ``enabled`` attribute load.  Measured here as untraced-vs-
  traced throughput; the cross-PR number is perfbench's
  ``obs.trace.overhead_ratio`` (``perfbench/run.py run --layers``).
- **Enabled path**: recording every event of a flush-heavy run costs a
  bounded multiple, not an order of magnitude.
"""

import time

from repro.cache.spec import technique_factory
from repro.nvram.machine import Machine, MachineConfig
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.workloads.registry import get_workload

SCALE = 0.2
REPS = 3


def _timed_run(workload, technique, recorder=None):
    """Best-of-REPS wall time and the result of one batched run."""
    best = float("inf")
    result = None
    for _ in range(REPS):
        machine = Machine(MachineConfig(), recorder=recorder)
        start = time.perf_counter()
        result = machine.run(
            workload, technique_factory(technique), num_threads=2, seed=7
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def test_null_recorder_overhead_is_noise(once):
    workload = get_workload("water-spatial", scale=SCALE)
    _timed_run(workload, "SC")                       # warm-up (JIT-free, but caches)
    t_null, r_null = once(_timed_run, workload, "SC")
    t_traced, r_traced = _timed_run(workload, "SC", recorder=TraceRecorder())
    events = r_null.persistent_stores + r_null.instructions
    print(
        f"\nnull: {t_null * 1e3:.1f} ms, traced: {t_traced * 1e3:.1f} ms "
        f"({events / max(t_null, 1e-9) / 1e6:.2f} M events/s untraced)"
    )
    # Identical simulation either way — tracing only observes.
    assert r_null.to_dict() == r_traced.to_dict()
    # The disabled path must never be meaningfully slower than the
    # enabled one (generous noise bound for shared CI runners).
    assert t_null <= t_traced * 1.25


def test_default_machine_shares_the_null_recorder():
    a = Machine(MachineConfig())
    b = Machine(MachineConfig())
    assert a.recorder is NULL_RECORDER
    assert b.recorder is NULL_RECORDER      # module singleton, no per-run state


def test_enabled_path_overhead_is_bounded():
    workload = get_workload("queue", scale=SCALE)    # flush/FASE heavy
    t_null, _ = _timed_run(workload, "SC")
    recorder = TraceRecorder()
    t_traced, _ = _timed_run(workload, "SC", recorder=recorder)
    print(
        f"\nqueue SC: {t_null * 1e3:.1f} ms untraced, "
        f"{t_traced * 1e3:.1f} ms traced, {len(recorder)} events"
    )
    assert len(recorder) > 0
    # Recording is six list appends per (rare) event: stay within 3x
    # even on this adversarially event-dense workload.
    assert t_traced <= t_null * 3.0


def test_streaming_recorder_overhead_is_bounded(tmp_path):
    """The streaming recorder — one window of columns, encoded and
    appended to the JSONL spill at each window close — stays a bounded
    multiple of the untraced run (perfbench's
    ``obs.live.streaming_overhead_ratio`` prices a 238-event cell, i.e.
    open/close; this one spills 120,008 events)."""
    from repro.obs.live import StreamingRecorder

    workload = get_workload("queue", scale=SCALE)    # flush/FASE heavy
    t_null, r_null = _timed_run(workload, "SC")
    spill = tmp_path / "spill.jsonl"
    best = float("inf")
    events = 0
    result = None
    for _ in range(REPS):
        recorder = StreamingRecorder(str(spill))     # fresh file per rep
        machine = Machine(MachineConfig(), recorder=recorder)
        start = time.perf_counter()
        result = machine.run(
            workload, technique_factory("SC"), num_threads=2, seed=7
        )
        recorder.close()                             # spill priced in
        best = min(best, time.perf_counter() - start)
        events = len(recorder)
    print(
        f"\nqueue SC: {t_null * 1e3:.1f} ms untraced, "
        f"{best * 1e3:.1f} ms streaming, {events} events spilled"
    )
    assert events > 0
    # Streaming only observes — the simulation is unchanged.
    assert result.to_dict() == r_null.to_dict()
    # Measured 1.2-1.5x on the pinned case; 5x leaves room for CI noise.
    assert best <= t_null * 5.0
