"""The experiment harness: caching, profiling, technique plumbing."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments import harness as harness_module
from repro.experiments.harness import Harness, HarnessConfig
from repro.nvram.machine import Machine
from repro.workloads.registry import WORKLOAD_NAMES, get_workload


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


def test_profile_records_traces(tiny_harness):
    prof = tiny_harness.profile("persistent-array")
    assert prof.traces is not None
    assert prof.traces[0].n == prof.persistent_stores


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_trace_from_columns_equals_the_best_run(name, seed):
    """Profiling reads the program's columns; ``profile`` — the BEST
    simulation it used to be — is the oracle, thread for thread."""
    harness = Harness(HarnessConfig(scale=0.02, seed=seed))
    for threads in (1, 4):
        if not harness.workload(name).supports_threads(threads):
            continue
        run = harness.profile(name, threads)
        for thread, want in enumerate(run.traces):
            got = harness.trace(name, thread, threads)
            assert got.lines.tolist() == want.lines.tolist()
            assert got.fase_ids.tolist() == want.fase_ids.tolist()
        assert harness._write_traces(name, threads)[1] == run.persistent_stores
    assert (
        harness.profile_summary(name).persistent_stores
        == harness.profile(name).persistent_stores
    )


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
    harness.trace("mdb", thread=3, threads=4)
    assert CountingMachine.built == 0
    # Shared-allocator streams above one thread have no columns to read:
    # there the BEST run is still the source.
    assert harness.trace("queue", thread=1, threads=4).n > 0
    assert CountingMachine.built == 1


def test_offline_size_persistent_array(tiny_harness):
    # The 26-line working set must be selected at any scale.
    assert tiny_harness.offline_size("persistent-array") == 26


def test_burst_length_proportional(tiny_harness):
    n = tiny_harness.profile("persistent-array").persistent_stores
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
