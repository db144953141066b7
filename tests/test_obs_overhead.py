"""The observability layer's overhead budget (DESIGN.md §9).

Recording every event of a flush-heavy run costs a bounded multiple of
the untraced run, never an order of magnitude, and only observes: the
simulation's result is the same.  The cross-commit number is perfbench's
``obs.trace.overhead_ratio`` (``perfbench/run.py run --layers``).
"""

import time

import pytest

from repro.cache.spec import technique_factory
from repro.nvram.machine import Machine, MachineConfig
from repro.obs.live import StreamingRecorder
from repro.obs.trace import TraceRecorder
from repro.workloads.registry import get_workload

SCALE = 0.2
REPS = 2


def _timed_run(workload, recorder=lambda: None):
    """Best-of-REPS wall time (a streaming spill closed inside it), the
    last run's result and its recorder."""
    best = float("inf")
    for _ in range(REPS):
        rec = recorder()                                 # fresh per rep
        machine = Machine(MachineConfig(), recorder=rec)
        start = time.perf_counter()
        result = machine.run(workload, technique_factory("SC"), num_threads=2, seed=7)
        if isinstance(rec, StreamingRecorder):
            rec.close()
        best = min(best, time.perf_counter() - start)
    return best, result, rec


@pytest.fixture(scope="module")
def queue():
    """queue at SCALE: flush- and FASE-heavy, with its untraced baseline."""
    workload = get_workload("queue", scale=SCALE)
    return workload, _timed_run(workload)


def test_enabled_path_overhead_is_bounded(queue):
    workload, (t_null, r_null, _) = queue
    t_traced, r_traced, recorder = _timed_run(workload, TraceRecorder)
    assert len(recorder) > 0
    assert r_traced.to_dict() == r_null.to_dict()
    # Recording is a few list appends per event: within 3x even on this
    # event-dense workload.
    assert t_traced <= t_null * 3.0


def test_streaming_recorder_overhead_is_bounded(queue, tmp_path):
    """The streaming recorder encodes and appends one window of columns
    to its JSONL spill at each window close (here 120,008 events)."""
    workload, (t_null, r_null, _) = queue
    spill = str(tmp_path / "spill.jsonl")
    t_streaming, result, recorder = _timed_run(workload, lambda: StreamingRecorder(spill))
    assert len(recorder) > 0
    assert result.to_dict() == r_null.to_dict()
    # Measured 1.2-1.5x; 5x leaves room for noisy hosts.
    assert t_streaming <= t_null * 5.0
