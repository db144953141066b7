"""Process-parallel execution: one stdlib pool for grids and campaigns.

The harness's unit of work — one ``(workload, technique, threads)`` cell
under a frozen :class:`HarnessConfig` — is a pure, deterministic
function (``execute_cell``), and so is one chunk of a crash campaign, so
tasks can run in any order in any process and produce bit-identical
results.  :class:`TaskPool` fans them over one
``concurrent.futures.ProcessPoolExecutor``:

- **State built once per worker.**  The executor's ``initializer``
  builds the worker's state (a ``Harness`` for grids, its copy of the
  golden run for campaigns) a single time; every task the worker later pulls runs
  against it, so a workload's recorded batch columns amortize over
  *every* group that worker pulls, not just one.
- **No phase barrier.**  Profile-summary tasks are submitted first and
  *only the groups that need them* wait; everything else starts
  immediately, and a group blocked on a summary is submitted the moment
  that summary's future lands.
- **Everything crosses by pickle.**  Task arguments are small control
  tuples; results are ``RunResult`` objects and two-integer
  ``ProfileSummary`` objects, each with the count of corrupt cache
  entries the task recomputed.  No write trace crosses: a trace is a
  cheap pass over event columns, so trace-consuming artifacts
  (figure2/figure7) derive theirs in the parent on request.
- **A dead worker costs time, not results.**  A task whose worker died
  (``BrokenProcessPool``) is re-run by the parent against its own
  state; a task that *raised*, or replied out of shape, surfaces as a
  :class:`SimulationError` naming it (a raise chains the worker's traceback).
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Sequence, Tuple

from repro.cache.spec import TechniqueSpec
from repro.common.errors import SimulationError
from repro.experiments.harness import Cell, Harness, ProfileSummary
from repro.nvram.stats import RunResult

#: Base techniques whose cells require a profiling pass first.
_NEEDS_SUMMARY = ("SC", "SC-offline")


def _needs_summary(technique: str) -> bool:
    """Whether a technique spec's *base* needs a profiling pass."""
    return TechniqueSpec.parse(technique).base in _NEEDS_SUMMARY


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

#: The state a worker process built in its initializer; every task that
#: worker runs receives it as first argument.  Set only inside workers.
_worker_state: object = None


def _init_worker(build_state: Callable, state_args: Tuple) -> None:
    global _worker_state
    _worker_state = build_state(*state_args)


def _run_in_worker(fn: Callable, *args: object) -> object:
    return fn(_worker_state, *args)


#: One submitted task: (label, on_done, fn, args).
_Task = Tuple[str, Callable, Callable, Tuple]


class TaskPool:
    """A ``ProcessPoolExecutor`` plus this repo's death/exception contract.

    Tasks are module-level functions ``fn(state, *args)``.  In a worker,
    ``state`` is what ``build_state(*state_args)`` returned when that
    worker started; ``parent_state`` is the parent's own equivalent (the
    calling harness, the campaign's golden run), used when the parent has to
    finish tasks itself.  Results are handed to each task's ``on_done``
    callback in the parent, in completion order; a callback may submit
    further tasks.

    - A task that raises in a worker aborts :meth:`drain` with a
      :class:`SimulationError` naming the task's label, chained to the
      original exception (whose own ``__cause__`` is the remote
      traceback).
    - A worker that dies breaks the executor; every task it had not
      finished, and every task submitted afterwards, is run by the parent
      in-process — tasks are pure, so the results are the same — and one
      ``RuntimeWarning`` says how many tasks that was.
    """

    def __init__(
        self,
        workers: int,
        build_state: Callable,
        state_args: Tuple,
        parent_state: object,
    ) -> None:
        # Fork where available: the parent's imports and ``state_args``
        # arrive by copy-on-write page, not by pickle.
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp.get_context(method),
            initializer=_init_worker,
            initargs=(build_state, state_args),
        )
        self._parent_state = parent_state
        self._pending: Dict[Future, _Task] = {}
        #: Tasks left to the parent once the executor broke.
        self._orphans: List[_Task] = []

    def submit(self, label: str, on_done: Callable, fn: Callable, *args: object) -> None:
        """Queue ``fn(state, *args)``; ``on_done(result)`` runs in the parent."""
        task = (label, on_done, fn, args)
        try:
            self._pending[self._executor.submit(_run_in_worker, fn, *args)] = task
        except BrokenProcessPool:
            self._orphans.append(task)

    def drain(self) -> None:
        """Deliver results until no task — submitted before or during — is left."""
        taken_over = 0
        try:
            while self._pending or self._orphans:
                if self._orphans:
                    _label, on_done, fn, args = self._orphans.pop(0)
                    taken_over += 1
                    on_done(fn(self._parent_state, *args))
                    continue
                done, _ = wait(self._pending, return_when=FIRST_COMPLETED)
                for future in done:
                    task = self._pending.pop(future)
                    label, on_done, _fn, _args = task
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        self._orphans.append(task)
                        continue
                    except Exception as exc:
                        raise SimulationError(
                            f"worker failed on {label}: {exc!r}"
                        ) from exc
                    on_done(result)
        finally:
            if taken_over:
                warnings.warn(
                    f"a worker process died; the parent ran {taken_over} "
                    f"unfinished task(s) in-process",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc: object) -> None:
        # Joins every worker: no child outlives the sweep.
        self._executor.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# Grid tasks (run against a Harness: a worker's own, or the parent's)
# ---------------------------------------------------------------------------


def _summary_task(harness: Harness, name: str) -> Tuple[ProfileSummary, int]:
    """One workload's profile summary — the two integers — and the
    corrupt cache entries the task recomputed."""
    return harness.profile_summary(name), harness.take_corrupt_entries()


def _cells_task(
    harness: Harness, summaries: Dict[str, ProfileSummary], cells: List[Cell]
) -> Tuple[List[Tuple[Cell, RunResult]], int]:
    """One ``(workload, threads)`` group of cells, and the corrupt cache
    entries the task recomputed.

    The group shares one event stream, so the harness materializes the
    batch columns once and replays them for every technique — and,
    because a worker's harness persists across tasks, for every *later*
    group of the same workload too.
    """
    harness.preload_summaries(summaries)
    pairs = [(cell, harness.run(*cell)) for cell in cells]
    return pairs, harness.take_corrupt_entries()


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------


def run_grid_parallel(
    harness: Harness,
    cells: Sequence[Cell],
    jobs: int,
    progress=None,
) -> Dict[Cell, RunResult]:
    """Fan ``cells`` over up to ``jobs`` worker processes:
    :meth:`Harness.run_grid`'s pool path, for distinct cells already in
    canonical spelling.

    Cells already in the harness's memory cache are served from it;
    everything computed by workers is folded back in, so the calling
    harness ends up with the runs and profile summaries of a sequential
    sweep.

    ``progress``, if given, is called as ``progress(done, total, cell)``
    after every completed cell — the per-cell heartbeat long parallel
    sweeps print so a stalled worker is visible before the pool joins.
    """
    results: Dict[Cell, RunResult] = {}

    def landed(cell: Cell, result: RunResult) -> None:
        results[cell] = result
        if progress is not None:
            progress(len(results), len(cells), cell)

    pending: List[Cell] = []
    for cell in cells:
        cached = harness._runs.get(cell)
        if cached is not None:
            landed(cell, cached)
        else:
            pending.append(cell)

    # Group cells sharing a (workload, threads) pair: the worker that
    # pulls a group materializes that stream's batch columns once for
    # all of the group's techniques.
    groups: Dict[Tuple[str, int], List[Cell]] = {}
    for cell in pending:
        name, _technique, threads = cell
        groups.setdefault((name, threads), []).append(cell)
    need_summary = sorted(
        {
            name
            for (name, technique, _threads) in pending
            if _needs_summary(technique) and name not in harness._summaries
        }
    )
    # Largest groups first, so stragglers start early and small groups
    # backfill — the usual longest-processing-time heuristic.
    by_size = sorted(groups, key=lambda key: (-len(groups[key]) * key[1], key))

    wants_summary = {
        key: any(_needs_summary(t) for (_n, t, _th) in group)
        for key, group in groups.items()
    }
    blocked: Dict[str, List[Tuple[str, int]]] = {}

    def fold_corrupt(count: int) -> None:
        if count:
            harness._disk.corrupt += count

    def fold_cells(label: str, group: List[Cell], payload: object) -> None:
        # Exactly one (cell, RunResult) per cell sent, in order, and a count.
        pairs, corrupt = payload if type(payload) is tuple and len(payload) == 2 else (None, None)
        if not (
            type(pairs) is list
            and [p[0] if type(p) is tuple and len(p) == 2 else None for p in pairs] == group
            and all(isinstance(p[1], RunResult) for p in pairs)
            and type(corrupt) is int and corrupt >= 0
        ):
            raise SimulationError(f"{label}: the worker's reply is not one RunResult per cell")
        fold_corrupt(corrupt)
        for cell, result in pairs:
            harness._runs[cell] = result
            landed(cell, result)

    def submit_group(pool: TaskPool, key: Tuple[str, int]) -> None:
        name, threads = key
        label = f"cell group {name}/t{threads}"
        pool.submit(
            label,
            functools.partial(fold_cells, label, groups[key]),
            _cells_task,
            {name: harness._summaries[name]} if wants_summary[key] else {},
            groups[key],
        )

    def submit_summary(pool: TaskPool, name: str) -> None:
        def fold_summary(payload: Tuple[ProfileSummary, int]) -> None:
            summary, corrupt = payload
            fold_corrupt(corrupt)
            harness._summaries[name] = summary
            for key in blocked.pop(name, ()):
                submit_group(pool, key)

        pool.submit(f"profile summary of {name}", fold_summary, _summary_task, name)

    if groups:
        with TaskPool(
            min(jobs, len(need_summary) + len(groups)),
            Harness,
            (harness.config, harness.cache_dir),
            harness,
        ) as pool:
            for name in need_summary:
                submit_summary(pool, name)
            for key in by_size:
                if wants_summary[key] and key[0] in need_summary:
                    blocked.setdefault(key[0], []).append(key)
                else:
                    submit_group(pool, key)
            pool.drain()

    # Request order, whatever order the workers finished in.
    return {cell: results[cell] for cell in cells}


# ---------------------------------------------------------------------------
# Artifact grids
# ---------------------------------------------------------------------------


def grid_for(harness: Harness, artifact: str) -> List[Cell]:
    """The cells one artifact generator will request, in request order.

    Mirrors the loops in ``tables.py`` / ``figures.py``: an artifact
    command computes exactly these through :meth:`Harness.run_grid`, at
    any ``--jobs``, before the generator renders from the memo.
    Artifacts that only do MRC analysis (figure2, figure7) need profile
    traces, not runs, and contribute no cells.
    """
    splash2 = list(harness.splash2_workloads())
    everything = list(harness.all_workloads())
    cells: List[Cell] = []
    if artifact == "table1":
        for name in splash2:
            cells += [(name, "ER", 1), (name, "BEST", 1)]
    elif artifact == "table2":
        cells += [("mdb", t, 8) for t in ("ER", "AT", "SC", "SC-offline", "BEST")]
    elif artifact == "table3":
        for name in everything:
            cells += [(name, t, 1) for t in ("ER", "LA", "AT", "SC-offline", "SC")]
    elif artifact == "table4":
        for n in (1, 2, 4, 8, 16, 32):
            cells += [("water-spatial", t, n) for t in ("AT", "SC", "BEST")]
    elif artifact == "figure4":
        for name in everything:
            n = 8 if name == "mdb" else 1
            cells += [(name, t, n) for t in ("ER", "AT", "SC", "SC-offline", "BEST")]
    elif artifact == "figure5":
        for name in splash2:
            for n in (1, 2, 4, 8, 16, 32):
                cells += [(name, "AT", n), (name, "SC", n), (name, "SC-offline", n)]
    elif artifact == "figure6":
        for name in splash2:
            for n in (1, 2, 4, 8, 16, 32):
                cells += [(name, "SC", n), (name, "BEST", n)]
    elif artifact == "figure8":
        for name in splash2 + ["mdb"]:
            for n in (1, 8):
                cells += [(name, "SC", n), (name, "SC-offline", n)]
    elif artifact == "adaptation":
        cells += [(name, "SC", 1) for name in everything]
    elif artifact == "policyzoo":
        from repro.experiments.tables import POLICY_ZOO_SPECS, POLICY_ZOO_WORKLOADS

        for name in POLICY_ZOO_WORKLOADS:
            cells += [(name, spec, 1) for spec in POLICY_ZOO_SPECS]
    elif artifact in ("figure2", "figure7"):
        pass
    elif artifact == "all":
        seen = dict.fromkeys(
            cell
            for art in (
                "table1", "table2", "table3", "table4", "adaptation",
                "policyzoo", "figure4", "figure5", "figure6", "figure8",
            )
            for cell in grid_for(harness, art)
        )
        cells = list(seen)
    else:
        raise KeyError(f"no grid known for artifact {artifact!r}")
    return list(dict.fromkeys(cells))
