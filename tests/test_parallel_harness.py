"""Process-parallel grids and the on-disk result cache.

Determinism contract: a grid executed with ``jobs=N`` must equal the
sequential sweep bit for bit, because each cell is a pure function of
``(HarnessConfig, name, technique, threads, ProfileSummary)``.
"""

import functools
import json
import multiprocessing
import os
import signal
import warnings

import pytest

from repro.cache.spec import TechniqueSpec
from repro.common.errors import ConfigurationError, SimulationError
from repro.experiments import harness as harness_module
from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.harness import (
    Harness,
    HarnessConfig,
    ProfileSummary,
    execute_cell,
    sc_factory_kwargs,
)
from repro.experiments.parallel import grid_for, run_grid_parallel
from repro.experiments.report import GENERATORS
from tests.conftest import die_once_in_worker

CONFIG = HarnessConfig(scale=0.02, seed=7)

CELLS = [
    (name, technique, 1)
    for name in ("water-spatial", "barnes")
    for technique in ("ER", "SC", "SC-offline", "BEST")
]


def _dicts(results):
    return {cell: results[cell].to_dict() for cell in results}


def test_parallel_grid_equals_sequential():
    sequential = Harness(CONFIG).run_grid(CELLS, jobs=1)
    parallel = Harness(CONFIG).run_grid(CELLS, jobs=4)
    assert _dicts(parallel) == _dicts(sequential)


def test_full_artifact_grid_parallel_equals_sequential():
    """Every cell of every artifact — all workloads, techniques and
    thread counts — survives the worker round trip bit for bit.  Small scale keeps this affordable (~220 cells)."""
    tiny = HarnessConfig(scale=0.005, seed=7)
    cells = grid_for(Harness(tiny), "all")
    sequential = Harness(tiny).run_grid(cells, jobs=1)
    parallel = Harness(tiny).run_grid(cells, jobs=4)
    assert _dicts(parallel) == _dicts(sequential)


def test_parallel_grid_adopts_profiles_from_workers(monkeypatch):
    """Workers ship the two-integer summary and nothing else; the trace
    figure2/figure7-style analysis wants is a pass over the parent's own
    columns — equal to the sequential harness's, and no simulation."""
    harness = Harness(CONFIG)
    cells = [("water-spatial", "SC", 1), ("water-spatial", "SC-offline", 1)]
    run_grid_parallel(harness, cells, jobs=2)
    sequential = Harness(CONFIG)
    assert harness._summaries == {
        "water-spatial": sequential.profile_summary("water-spatial")
    }
    assert harness._profiles == {} and harness._traces == {}

    def no_machine(*args, **kwargs):
        raise AssertionError("a trace request simulated")

    monkeypatch.setattr("repro.experiments.harness.Machine", no_machine)
    got, want = harness.trace("water-spatial"), sequential.trace("water-spatial")
    assert got.lines.tolist() == want.lines.tolist()
    assert got.fase_ids.tolist() == want.fase_ids.tolist()
    assert (
        harness.offline_mrc("water-spatial").miss_ratios.tolist()
        == sequential.offline_mrc("water-spatial").miss_ratios.tolist()
    )
    # The oracle agrees with both.
    monkeypatch.undo()
    fresh = Harness(CONFIG).profile("water-spatial")
    assert [t.lines.tolist() for t in fresh.traces] == [got.lines.tolist()]


def test_parallel_results_land_in_harness_cache():
    harness = Harness(CONFIG)
    run_grid_parallel(harness, CELLS, jobs=2)
    # Re-requesting through the normal API must be pure cache hits:
    # identical objects, no recomputation.
    for cell in CELLS:
        assert harness.run(*cell) is harness._runs[cell]


def _state(harness):
    """Everything a sweep leaves in a harness, in comparable form."""
    return (
        {cell: run.to_dict() for cell, run in harness._runs.items()},
        dict(harness._summaries),
        {
            key: (run.to_dict(), [t.lines.tolist() for t in run.traces])
            for key, run in harness._profiles.items()
        },
    )


@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_sweep_leaves_the_sequential_harness_state(jobs):
    """Runs, summaries and (absent) profiling runs: jobs=N == jobs=1, and
    every worker is joined by the time run_grid returns."""
    sequential, fanned = Harness(CONFIG), Harness(CONFIG)
    want = sequential.run_grid(CELLS, jobs=1)
    got = fanned.run_grid(CELLS, jobs=jobs)
    assert multiprocessing.active_children() == []
    assert list(got) == list(want)              # request order, not finish order
    assert _state(fanned) == _state(sequential)


def test_grid_ledger_record_differs_only_in_jobs(monkeypatch, tmp_path):
    from repro.obs.ledger import RunLedger

    stable = {}
    for jobs in (1, 2):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / f"j{jobs}"))
        Harness(CONFIG).run_grid(CELLS, jobs=jobs)
        (record,) = RunLedger(str(tmp_path / f"j{jobs}")).records(kind="grid")
        stable[jobs] = record.stable_dict()
        assert stable[jobs]["extra"].pop("jobs") == jobs
    assert stable[1] == stable[2]


def test_jobs_must_be_positive():
    for jobs in (0, -3):
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            Harness(CONFIG).run_grid(CELLS, jobs=jobs)


@pytest.mark.parametrize("artifact", ["table1", "crashmatrix"])
def test_cli_rejects_nonpositive_jobs_before_simulating(artifact, capsys):
    from repro.experiments.__main__ import main

    for jobs in ("0", "-3"):
        assert main([artifact, "--scale", "0.02", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert "--jobs must be >= 1" in captured.err and captured.out == ""


def test_pool_is_no_larger_than_the_task_count(monkeypatch):
    sizes = []
    real = parallel.ProcessPoolExecutor

    def spy(max_workers, **kwargs):
        sizes.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", spy)
    # One (workload, threads) group, no summary needed: one task.
    Harness(CONFIG).run_grid([("barnes", "ER", 1), ("barnes", "BEST", 1)], jobs=4)
    assert sizes == [1]


# -- worker death and worker exceptions -------------------------------------

_REAL_CELLS_TASK = parallel._cells_task


def _cells_task_dying_once(flag, harness, summaries, cells):
    die_once_in_worker(flag)
    return _REAL_CELLS_TASK(harness, summaries, cells)


def _harness_dying_at_birth(config, cache_dir):
    os.kill(os.getpid(), signal.SIGKILL)


def _cells_task_raising(harness, summaries, cells):
    raise ValueError("boom")


def test_grid_survives_worker_killed_mid_flight(monkeypatch, tmp_path):
    """A worker SIGKILLed while holding a cell group costs time, not
    results: the parent finishes what the pool could not and says so."""
    monkeypatch.setattr(
        parallel,
        "_cells_task",
        functools.partial(_cells_task_dying_once, str(tmp_path / "victim")),
    )
    harness = Harness(CONFIG)
    with pytest.warns(RuntimeWarning, match=r"parent ran \d+ unfinished task"):
        results = harness.run_grid(CELLS, jobs=2)
    assert (tmp_path / "victim").exists()
    assert multiprocessing.active_children() == []
    sequential = Harness(CONFIG)
    assert _dicts(results) == _dicts(sequential.run_grid(CELLS))
    assert _state(harness) == _state(sequential)


def test_grid_completes_in_parent_when_every_worker_dies(monkeypatch):
    # What the pool's initializer builds each worker's state with.
    monkeypatch.setattr(parallel, "Harness", _harness_dying_at_birth)
    with pytest.warns(RuntimeWarning, match="parent ran 4 unfinished"):
        results = Harness(CONFIG).run_grid(CELLS, jobs=2)   # 2 summaries + 2 groups
    assert multiprocessing.active_children() == []
    assert _dicts(results) == _dicts(Harness(CONFIG).run_grid(CELLS))


def test_worker_exception_names_the_cell_group(monkeypatch):
    monkeypatch.setattr(parallel, "_cells_task", _cells_task_raising)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # an exception is not a death
        with pytest.raises(SimulationError, match=r"cell group \S+/t1") as info:
            Harness(CONFIG).run_grid(CELLS, jobs=2)
    cause = info.value.__cause__
    assert isinstance(cause, ValueError) and str(cause) == "boom"
    # concurrent.futures chains the worker-side traceback text.
    assert "_cells_task_raising" in str(cause.__cause__)
    assert multiprocessing.active_children() == []


_REAL_CELLS_TASK = parallel._cells_task


def _cells_task_garbling(how, harness, summaries, cells):
    pairs, corrupt = _REAL_CELLS_TASK(harness, summaries, cells)
    cell, result = pairs[-1]
    if how == "foreign cell":
        pairs[-1] = ((cell[0], "AT", cell[2]), result)
    elif how == "missing":
        pairs.pop()
    elif how == "repeated":
        pairs.append(pairs[0])
    elif how == "not a result":
        pairs[-1] = (cell, result.to_dict())
    elif how == "not a pair":
        pairs[-1] = (cell,)
    elif how == "negative count":
        corrupt = -1
    elif how == "count not an int":
        corrupt = True
    else:
        return pairs
    return pairs, corrupt


@pytest.mark.parametrize(
    "how",
    [
        "foreign cell", "missing", "repeated", "not a result", "not a pair",
        "negative count", "count not an int", "not a tuple",
    ],
)
def test_a_cell_group_that_replies_garbage_is_named(monkeypatch, how):
    """A cell group must reply exactly one ``(cell, RunResult)`` per cell
    it was sent, and a non-negative count; anything else stops the grid
    with an error naming the group, never a result folded from it."""
    monkeypatch.setattr(
        parallel, "_cells_task", functools.partial(_cells_task_garbling, how)
    )
    with pytest.raises(SimulationError, match=r"^cell group \S+/t1: the worker's reply"):
        Harness(CONFIG).run_grid(CELLS, jobs=2)
    assert multiprocessing.active_children() == []


def test_execute_cell_is_pure_and_matches_harness():
    harness = Harness(CONFIG)
    want = harness.run("water-spatial", "SC-offline", 1)
    summary = harness.profile_summary("water-spatial")
    direct = execute_cell(CONFIG, "water-spatial", "SC-offline", 1, summary)
    assert direct.to_dict() == want.to_dict()


def test_sc_factory_kwargs_requires_summary():
    harness = Harness(CONFIG)
    workload = harness.workload("water-spatial")
    from repro.common.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        sc_factory_kwargs(CONFIG, workload, "SC", 1, None)
    assert sc_factory_kwargs(CONFIG, workload, "ER", 1, None) == {}
    kwargs = sc_factory_kwargs(
        CONFIG, workload, "SC-offline", 1,
        ProfileSummary(persistent_stores=1000, offline_size=23),
    )
    assert kwargs == {"sc_fixed_size": 23}


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------


def test_disk_cache_round_trip(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = Harness(CONFIG, cache_dir=cache_dir).run("barnes", "SC", 1)
    # A fresh harness over the same directory serves the run from disk.
    reloaded = Harness(CONFIG, cache_dir=cache_dir)
    assert reloaded.run("barnes", "SC", 1).to_dict() == first.to_dict()
    assert ("barnes", "SC", 1) in reloaded._runs
    assert any(f.endswith(".json") for f in os.listdir(cache_dir))


def test_disk_cache_profile_summary_round_trip(tmp_path):
    cache_dir = str(tmp_path / "cache")
    summary = Harness(CONFIG, cache_dir=cache_dir).profile_summary("barnes")
    reloaded = Harness(CONFIG, cache_dir=cache_dir)
    assert reloaded.profile_summary("barnes") == summary
    # Served from disk: the new harness derived no trace, ran no profile.
    assert reloaded._profiles == {} and reloaded._traces == {}


def test_disk_cache_key_covers_the_whole_config(tmp_path):
    base = ResultCache.key(CONFIG, "run", name="barnes", technique="SC", threads=1)
    assert base == ResultCache.key(
        CONFIG, "run", name="barnes", technique="SC", threads=1
    )
    for other in (
        HarnessConfig(scale=0.02, seed=8),
        HarnessConfig(scale=0.03, seed=7),
        HarnessConfig(scale=0.02, seed=7, l1_ways=4),
    ):
        assert ResultCache.key(
            other, "run", name="barnes", technique="SC", threads=1
        ) != base
    assert ResultCache.key(
        CONFIG, "profile_summary", name="barnes", technique="SC", threads=1
    ) != base


def _hammer_cache(cache_dir, key, payload, rounds):
    cache = ResultCache(cache_dir)
    for _ in range(rounds):
        cache.put(key, payload)


def test_concurrent_writers_never_tear_an_entry(tmp_path):
    """Two processes hammering the same key must leave the entry valid
    at every instant: the temp-file + rename protocol means a reader can
    only ever observe one writer's complete payload."""
    import multiprocessing as mp

    cache_dir = str(tmp_path)
    key = "f" * 64
    path = os.path.join(cache_dir, f"{key}.json")
    payloads = [{"writer": w, "blob": "x" * 4096} for w in (0, 1)]
    ctx = mp.get_context()
    writers = [
        ctx.Process(target=_hammer_cache, args=(cache_dir, key, p, 200))
        for p in payloads
    ]
    for w in writers:
        w.start()
    observed = set()
    try:
        while any(w.is_alive() for w in writers):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    raw = fh.read()
            except FileNotFoundError:
                continue
            if raw:
                data = json.loads(raw)     # raises if torn
                assert data in payloads
                observed.add(data["writer"])
    finally:
        for w in writers:
            w.join()
    assert all(w.exitcode == 0 for w in writers)
    assert observed  # the reader actually raced the writers
    # No temp droppings left behind.
    assert [f for f in os.listdir(cache_dir) if f.startswith(".tmp-")] == []


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = "0" * 64
    cache.put(key, {"x": 1})
    assert cache.get(key) == {"x": 1}
    assert cache.get("1" * 64) is None and cache.corrupt == 0   # missing: silent
    with open(os.path.join(str(tmp_path), f"{key}.json"), "w") as fh:
        fh.write("{not json")
    assert cache.get(key) is None
    assert cache.corrupt == 1
    with open(os.path.join(str(tmp_path), f"{key}.json"), "wb") as fh:
        fh.write(b"\xff\xfe not utf-8")
    assert cache.get(key) is None
    assert cache.corrupt == 2


def test_run_result_serialization_drops_traces():
    harness = Harness(CONFIG)
    result = harness.profile("water-spatial")
    data = result.to_dict()
    assert data["has_traces"] is True
    assert json.loads(json.dumps(data)) == data
    from repro.nvram.stats import RunResult

    back = RunResult.from_dict(data)
    assert back.traces is None
    assert back.to_dict() == {**data, "has_traces": False}
    assert back.flush_ratio == result.flush_ratio
    assert back.time == result.time


# ---------------------------------------------------------------------------
# Artifact grids
# ---------------------------------------------------------------------------


def test_grid_for_matches_artifact_loops(monkeypatch):
    """``grid_for`` decides what a command's grid runs at any ``--jobs``:
    each generator asks :meth:`Harness.run` for exactly its cells, in its
    order (an extra cell costs time; a missing one would run later,
    outside the grid), and ``all`` is their union in generator order."""
    harness = Harness(HarnessConfig(scale=0.005, seed=7))
    canned = harness.run("barnes", "SC")
    asked = []

    def spy(self, name, technique, threads=1):
        asked.append((name, str(TechniqueSpec.parse(technique)), threads))
        return canned

    monkeypatch.setattr(Harness, "run", spy)
    every, sizes = [], {}
    for artifact, generator in GENERATORS.items():
        asked.clear()
        generator(harness)
        cells = list(dict.fromkeys(asked))
        assert grid_for(harness, artifact) == cells, artifact
        every += cells
        sizes[artifact] = len(cells)
    assert sizes == {
        "table1": 14, "table2": 5, "table3": 60, "table4": 18,
        "adaptation": 12, "policyzoo": 9, "figure2": 0, "figure4": 60,
        "figure5": 126, "figure6": 84, "figure7": 0, "figure8": 32,
    }
    assert grid_for(harness, "all") == list(dict.fromkeys(every))
    with pytest.raises(KeyError):
        grid_for(harness, "figure9")


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_grid_simulates_each_canonical_cell_once(jobs, monkeypatch, tmp_path):
    """Spellings of one cell are one cell: simulated once (in whichever
    process), memoized under :meth:`Harness.run`'s key, and returned
    under every spelling the caller used.  A bad spec fails before any
    pool starts."""
    log = tmp_path / "executed"
    real = harness_module.execute_cell

    def counting(config, name, technique, threads, *args, **kwargs):
        with open(log, "a") as fh:          # one O_APPEND line per simulation
            fh.write(f"{name}/{technique}/{threads}\n")
        return real(config, name, technique, threads, *args, **kwargs)

    monkeypatch.setattr(harness_module, "execute_cell", counting)
    harness = Harness(CONFIG)
    cells = [("queue", "SC+victim", 1), ("queue", "SC+victim:16", 1), ("queue", "BEST", 1)]
    results = harness.run_grid(cells, jobs=jobs)
    assert list(results) == cells
    assert results[cells[0]] is results[cells[1]]
    harness.run("queue", "SC+victim")
    harness.run("queue", "SC+victim:16")
    assert sorted(log.read_text().split()) == ["queue/BEST/1", "queue/SC+victim:16/1"]

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(parallel, "TaskPool", no_pool)
    with pytest.raises(ConfigurationError, match="nope"):
        Harness(CONFIG).run_grid(cells + [("queue", "SC+nope:2", 1)], jobs=jobs)
    assert len(log.read_text().split()) == 2


def test_run_grid_feeds_rich_progress(tiny_harness):
    """``progress(done, total, cell)`` fires once per cell, in grid order:
    the heartbeat every artifact command prints."""
    from repro.experiments.parallel import grid_for

    cells = grid_for(tiny_harness, "table1")
    seen = []
    tiny_harness.run_grid(cells, progress=lambda *args: seen.append(args))
    assert seen == [(i + 1, len(cells), cell) for i, cell in enumerate(cells)]


def test_parallel_grid_feeds_rich_progress(tiny_harness):
    """Cells computed by workers report too: every cell once, counting up."""
    from repro.experiments.harness import Harness
    from repro.experiments.parallel import grid_for

    cells = grid_for(tiny_harness, "table1")
    seen = []
    Harness(tiny_harness.config).run_grid(
        cells, jobs=2, progress=lambda *args: seen.append(args)
    )
    assert [done for done, _, _ in seen] == list(range(1, len(cells) + 1))
    assert {total for _, total, _ in seen} == {len(cells)}
    assert sorted(cell for _, _, cell in seen) == sorted(cells)
