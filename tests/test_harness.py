"""The experiment harness: caching, profiling, technique plumbing."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments import harness as harness_module
from repro.experiments.harness import Harness, HarnessConfig
from repro.locality.trace import WriteTrace
from repro.nvram.machine import Machine
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.registry import WORKLOAD_NAMES, get_workload
from tests.trace_reference import recorded_traces


def test_registry_covers_table3():
    assert len(WORKLOAD_NAMES) == 12
    for name in WORKLOAD_NAMES:
        assert get_workload(name, scale=0.02).name == name


def test_registry_rejects_unknown():
    with pytest.raises(ConfigurationError):
        get_workload("nope")
    with pytest.raises(ConfigurationError):
        get_workload("barnes", scale=0)


def test_run_caching(tiny_harness):
    a = tiny_harness.run("queue", "LA")
    b = tiny_harness.run("queue", "LA")
    assert a is b
    c = tiny_harness.run("queue", "LA", threads=2)
    assert c is not a


def test_unknown_technique_rejected(tiny_harness):
    with pytest.raises(ConfigurationError):
        tiny_harness.run("queue", "nope")


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_trace_from_columns_equals_the_best_run(name, seed):
    """Profiling reads the program's columns; a BEST run that records
    each line it stores (``tests/trace_reference.py``) is the oracle,
    thread for thread: every program at one thread, and at four those
    whose streams do not depend on the interleaving."""
    harness = Harness(HarnessConfig(scale=0.02, seed=seed))
    workload = harness.workload(name)
    for threads in (1, 4):
        if not workload.supports_threads(threads):
            continue
        streams = workload.batch_streams(threads, seed)
        if streams is None:
            assert threads > 1     # a shared allocator: no columns to read
            continue
        programs = [list(stream) for stream in streams]
        run, recorded = recorded_traces(workload, threads, seed)
        for thread, (batches, want) in enumerate(zip(programs, recorded)):
            got = WriteTrace.from_batches(batches, thread, NVRAM_BASE)
            assert got.lines.tolist() == want.lines.tolist()
            assert got.fase_ids.tolist() == want.fase_ids.tolist()
        stores = sum(b.count_stores(NVRAM_BASE) for p in programs for b in p)
        assert stores == run.persistent_stores
        if threads == 1:
            assert harness.trace(name).lines.tolist() == recorded[0].lines.tolist()
            assert harness.profile_summary(name).persistent_stores == stores


class CountingMachine(Machine):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


def test_no_simulation_behind_a_summary(monkeypatch):
    monkeypatch.setattr(harness_module, "Machine", CountingMachine)
    monkeypatch.setattr(CountingMachine, "built", 0)
    harness = Harness(HarnessConfig(scale=0.02, seed=7))
    for name in ("barnes", "mdb", "queue", "hash"):
        harness.profile_summary(name)
        harness.trace(name)
        harness.offline_mrc(name)
        harness.burst_length(name)
    assert CountingMachine.built == 0


def test_offline_size_persistent_array(tiny_harness):
    # The 26-line working set must be selected at any scale.
    assert tiny_harness.offline_size("persistent-array") == 26


def test_burst_length_proportional(tiny_harness):
    n = tiny_harness.profile_summary("persistent-array").persistent_stores
    burst = tiny_harness.burst_length("persistent-array")
    assert 512 <= burst <= 65536
    assert burst <= max(512, n)
    # Per-thread sampling: the burst shrinks with the thread count.
    assert tiny_harness.burst_length("persistent-array", threads=8) <= burst


def test_sc_offline_uses_profiled_size(tiny_harness):
    res = tiny_harness.run("persistent-array", "SC-offline")
    # 1 flag eviction + 26-line drain at any scale.
    assert res.flushes == 27


def test_workload_names_listing():
    assert Harness.all_workloads() == WORKLOAD_NAMES
    assert len(Harness.splash2_workloads()) == 7


def test_scale_changes_problem_size():
    small = get_workload("queue", scale=0.01)
    large = get_workload("queue", scale=0.1)
    assert large.operations > small.operations
