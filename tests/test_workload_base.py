"""Workload base utilities: allocator, trace replay."""

import copy
import dataclasses
import pickle

import pytest

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.common.geometry import CACHE_LINE_SIZE
from repro.locality.trace import WriteTrace
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.base import BatchCachingWorkload, BumpAllocator, TraceWorkload
from repro.workloads.registry import get_workload


def test_bump_allocator_monotone_disjoint():
    a = BumpAllocator()
    x = a.alloc(24)
    y = a.alloc(24)
    assert y >= x + 24
    assert x >= NVRAM_BASE


def test_bump_allocator_line_aligned():
    a = BumpAllocator()
    a.alloc(10)
    addr = a.alloc(10, line_aligned=True)
    assert addr % CACHE_LINE_SIZE == 0


def test_bump_allocator_validation():
    with pytest.raises(ConfigurationError):
        BumpAllocator(base=0)
    with pytest.raises(ConfigurationError):
        BumpAllocator().alloc(0)


def test_trace_workload_replays_fases():
    t = WriteTrace([1, 2, 1, 3], [0, 0, 1, -1])
    w = TraceWorkload([t])
    machine = Machine(MachineConfig())
    res = machine.run(w, technique_factory("LA"), num_threads=1, seed=0)
    assert res.persistent_stores == 4
    assert res.fase_count == 2
    (batches,) = w.batch_streams(1, 0)
    replayed = WriteTrace.from_batches(batches, 0, NVRAM_BASE)
    # Line pattern preserved (modulo the NVRAM shift).
    assert (replayed.lines[0] == replayed.lines[2])
    assert (replayed.lines[0] != replayed.lines[1])
    assert list(replayed.fase_ids)[3] == -1


def test_trace_workload_shifts_small_lines_into_nvram():
    t = WriteTrace([0, 1, 2])
    events = list(TraceWorkload([t]).streams(1, 0)[0])
    stores = [e for e in events if e.kind == 0]
    assert all(s.addr >= NVRAM_BASE for s in stores)


def test_trace_workload_thread_count_enforced():
    w = TraceWorkload([WriteTrace([1])])
    with pytest.raises(ConfigurationError):
        w.streams(2, 0)
    assert w.supports_threads(1)
    assert not w.supports_threads(2)


def test_trace_workload_multi_thread():
    w = TraceWorkload([WriteTrace([1, 2]), WriteTrace([3])])
    machine = Machine(MachineConfig())
    res = machine.run(w, technique_factory("ER"), num_threads=2, seed=0)
    assert res.persistent_stores == 3
    assert res.threads[0].persistent_stores == 2
    assert res.threads[1].persistent_stores == 1


def test_wrapper_ships_its_recording_without_the_run_tables():
    """A run leaves each batch's line-touch runs cached on it; a wrapper
    sent to a worker carries the columns only and replays identically."""
    workload = BatchCachingWorkload(get_workload("hash", scale=0.02))
    factory = technique_factory("AT")

    def stats(w):
        result = Machine(MachineConfig()).run(w, factory, num_threads=1, seed=7)
        return dataclasses.asdict(result.threads[0])

    workload.batch_streams(1, 7)                     # record the stream
    bare = len(pickle.dumps(workload))
    want = stats(workload)
    batches = workload._materialized[(1, 7)][0]
    assert all(batch._runs is not None for batch in batches)
    assert len(pickle.dumps(workload)) == bare
    for clone in (copy.deepcopy(workload), pickle.loads(pickle.dumps(workload))):
        assert all(b._runs is None for b in clone._materialized[(1, 7)][0])
        assert stats(clone) == want
