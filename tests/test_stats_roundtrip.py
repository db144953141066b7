"""RunResult/ThreadStats serialization and aggregate edge cases."""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.experiments.harness import Harness, HarnessConfig, ProfileSummary
from repro.nvram.stats import RunResult, ThreadStats


def sample_result(crashed=False):
    return RunResult(
        workload="queue",
        technique="SC",
        num_threads=2,
        threads=[
            ThreadStats(
                thread_id=0,
                cycles=100,
                instructions=50,
                persistent_stores=10,
                flushes=4,
                stall_cycles=3,
                fase_count=2,
                selected_sizes=[4, 8],
            ),
            ThreadStats(thread_id=1, cycles=90),
        ],
        l1_accesses=60,
        l1_misses=6,
        crashed=crashed,
    )


@pytest.mark.parametrize("crashed", (False, True))
def test_round_trip_preserves_every_counter(crashed):
    result = sample_result(crashed=crashed)
    back = RunResult.from_dict(result.to_dict())
    assert back.crashed is crashed
    assert [dataclasses.asdict(t) for t in back.threads] == [
        dataclasses.asdict(t) for t in result.threads
    ]
    assert back.to_dict() == result.to_dict()
    assert back.selected_sizes == {0: [4, 8], 1: []}


def test_from_dict_rejects_missing_and_unknown_keys():
    data = sample_result().to_dict()
    del data["crashed"]
    with pytest.raises(ConfigurationError, match="missing keys: \\['crashed'\\]"):
        RunResult.from_dict(data)

    data = sample_result().to_dict()
    data["bogus"] = 1
    with pytest.raises(ConfigurationError, match="unknown keys: \\['bogus'\\]"):
        RunResult.from_dict(data)


def test_from_dict_rejects_stale_thread_entries():
    data = sample_result().to_dict()
    del data["threads"][1]["cycles"]
    with pytest.raises(ConfigurationError, match="ThreadStats payload #1"):
        RunResult.from_dict(data)

    data = sample_result().to_dict()
    data["threads"][0]["old_counter"] = 7
    with pytest.raises(ConfigurationError, match="old_counter"):
        RunResult.from_dict(data)


def test_has_traces_flag_is_tolerated():
    data = sample_result().to_dict()
    assert data["has_traces"] is False
    RunResult.from_dict(data)   # must not raise


def test_stale_disk_cache_entry_is_recomputed(tmp_path):
    """A cache entry from an older schema is a miss, not a crash."""
    harness = Harness(HarnessConfig(scale=0.02, seed=7), cache_dir=str(tmp_path))
    cell = ("queue", "ER", 1)
    key = ResultCache.key(
        harness.config, "run", name=cell[0], technique=cell[1], threads=cell[2]
    )
    stale = sample_result().to_dict()
    del stale["crashed"]                       # an "older schema" payload
    harness._disk.put(key, stale)
    result = harness.run(*cell)
    assert harness.take_corrupt_entries() == 1
    assert result.technique == "ER"
    assert result.persistent_stores > 0
    # The recomputed (current-schema) entry replaced the stale one.
    assert RunResult.from_dict(harness._disk.get(key)).to_dict() == result.to_dict()


@pytest.mark.parametrize(
    "payload",
    [
        {"persistent_stores": 1},
        [1200, 8],
        # Accepted before ``from_dict``: SC-offline sized at -3, every SC
        # burst from a string.
        {"persistent_stores": "x", "offline_size": -3},
        {"persistent_stores": True, "offline_size": 8},
        {"persistent_stores": 1200, "offline_size": 8, "knee": 8},
    ],
    ids=["field-missing", "json-list", "wrong-types", "bool-count", "extra-field"],
)
def test_wrong_shape_profile_summary_entry_is_recomputed(tmp_path, payload):
    """A ``profile_summary`` cache entry of the wrong shape is a miss:
    never a bare ``TypeError``, never a summary built from it."""
    with pytest.raises(ConfigurationError, match="ProfileSummary"):
        ProfileSummary.from_dict(payload)
    config = HarnessConfig(scale=0.02, seed=7)
    harness = Harness(config, cache_dir=str(tmp_path))
    key = ResultCache.key(config, "profile_summary", name="queue")
    harness._disk.put(key, payload)
    summary = harness.profile_summary("queue")
    assert harness.take_corrupt_entries() == 1
    assert summary == Harness(config).profile_summary("queue")
    assert summary.persistent_stores > 0 and summary.offline_size > 0
    # The recomputed entry replaced the corrupt one and reads back.
    assert harness._disk.get(key) == dataclasses.asdict(summary)
    assert Harness(config, cache_dir=str(tmp_path)).profile_summary("queue") == summary


def test_zero_store_and_zero_access_aggregates():
    empty = RunResult("w", "BEST", 1, [ThreadStats()], 0, 0)
    assert empty.flush_ratio == 0.0
    assert empty.l1_miss_ratio == 0.0
    assert empty.time == 0
    assert ThreadStats().flush_ratio == 0.0
    no_threads = RunResult("w", "BEST", 0, [], 0, 0)
    assert no_threads.time == 0
    busy = RunResult("w", "BEST", 1, [ThreadStats(cycles=50)], 0, 0)
    assert busy.speedup_over(busy) == 1.0
    assert empty.speedup_over(busy) == float("inf")
