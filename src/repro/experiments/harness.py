"""Running workload × technique × threads, with profiling and caching.

One :class:`Harness` instance owns a result cache, so a table that needs
the same (workload, technique, threads) run as a figure pays for it
once.  Runs are deterministic given ``(scale, seed, timing)``.

Technique plumbing the paper's §IV-A implies:

- ``SC`` (online) gets a burst length proportional to the run, as the
  paper's 64 M-write burst is to its full-scale runs (~20 %), so the
  pre-adaptation phase and the analysis overhead stay visible at any
  scale;
- ``SC-offline`` needs the profiling pass: the program's persistent
  write trace, whole-trace MRC, knee selection — "the offline choice is
  the best single cache size for the whole execution".  The trace is a
  pure function of the program's event columns
  (:meth:`WriteTrace.from_batches`), so profiling simulates nothing;
  :meth:`Harness.profile`, the BEST run, is the tests' oracle for it.

Execution is factored so one grid cell is a *pure function* of
``(HarnessConfig, name, technique, threads, ProfileSummary)`` —
:func:`execute_cell` — which is what lets ``run_grid`` fan cells out to
worker processes (``repro.experiments.parallel``) and lets results be
memoized on disk (``repro.experiments.cache``) without any behavioural
difference from the sequential in-process path.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.adaptive import AdaptiveConfig
from repro.cache.spec import TechniqueSpec, technique_factory
from repro.common.errors import ConfigurationError, require_int, require_positive
from repro.experiments.cache import ResultCache
from repro.locality.knee import SelectionPolicy, select_cache_size
from repro.locality.mrc import MissRatioCurve, mrc_from_trace
from repro.locality.trace import WriteTrace
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.nvram.stats import RunResult
from repro.nvram.timing import DEFAULT_TIMING, TimingModel
from repro.workloads.base import BatchCachingWorkload, Workload
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

#: Fraction of a run's stores one online sampling burst covers (the
#: paper's burst is ~20% of its full-scale store counts; we use a bit
#: less so the pre-adaptation phase -- default size 8 before the knee is
#: known -- does not dominate scaled-down runs).
BURST_FRACTION = 0.06
MIN_BURST = 768
MAX_BURST = 16_384

#: One grid coordinate: (workload name, technique, thread count).
Cell = Tuple[str, str, int]


@dataclass(frozen=True)
class HarnessConfig:
    """Knobs shared by every run of one harness instance."""

    scale: float = 1.0          # workload problem-size multiplier
    seed: int = 0
    timing: TimingModel = DEFAULT_TIMING
    l1_capacity_lines: int = 512
    l1_ways: int = 8
    selection: SelectionPolicy = SelectionPolicy()

    def __post_init__(self) -> None:
        require_positive("scale", self.scale)
        require_int("seed", self.seed, 0)
        if not isinstance(self.timing, TimingModel):
            raise ConfigurationError(
                f"timing must be a TimingModel, got {self.timing!r}"
            )
        self.machine_config()  # MachineConfig's rule for the L1 geometry
        if not isinstance(self.selection, SelectionPolicy):
            raise ConfigurationError(
                f"selection must be a SelectionPolicy, got {self.selection!r}"
            )

    def machine_config(self) -> MachineConfig:
        """The machine configuration used for every run."""
        return MachineConfig(
            timing=self.timing,
            l1_capacity_lines=self.l1_capacity_lines,
            l1_ways=self.l1_ways,
        )


@dataclass(frozen=True)
class ProfileSummary:
    """What SC/SC-offline need from the profiling pass, and nothing more.

    Write traces are numpy arrays, large, not worth shipping between
    processes or to disk (any process derives them from its own columns
    on request); these two integers are the only facts technique
    configuration actually consumes, so they are what crosses process
    and cache boundaries.
    """

    #: Persistent ``STORE`` events of the single-thread program (one per
    #: store even across two lines, as ``RunResult.persistent_stores``).
    persistent_stores: int
    offline_size: int         # knee of the whole-trace MRC

    @classmethod
    def from_dict(cls, data: object) -> "ProfileSummary":
        """Rebuild a summary from a ``ResultCache`` entry, which must be
        exactly the two fields, each a non-negative ``int`` (not ``bool``)
        — anything else would size SC-offline, or every SC burst, from
        garbage, and raises :class:`ConfigurationError`."""
        if (
            not isinstance(data, dict)
            or set(data) != {f.name for f in dataclasses.fields(cls)}
            or any(type(v) is not int or v < 0 for v in data.values())
        ):
            raise ConfigurationError(
                f"not a ProfileSummary payload (persistent_stores and "
                f"offline_size, non-negative ints): {data!r}"
            )
        return cls(**data)


def make_workload(config: HarnessConfig, name: str) -> Workload:
    """Build the (batch-caching) workload object for one Table III name."""
    return BatchCachingWorkload(get_workload(name, scale=config.scale))


def sc_factory_kwargs(
    config: HarnessConfig,
    workload: Workload,
    technique: str,
    threads: int,
    summary: Optional[ProfileSummary],
) -> Dict[str, object]:
    """Technique-factory keyword arguments for one grid cell.

    ``technique`` may be any spec string; the *base* decides the
    plumbing.  ``SC`` and ``SC-offline`` bases are the only ones that
    need profile facts; for them ``summary`` is required.
    """
    base = TechniqueSpec.parse(technique).base
    if base not in ("SC", "SC-offline"):
        return {}
    if summary is None:
        raise ConfigurationError(
            f"{technique} needs a ProfileSummary (burst/offline sizing)"
        )
    if base == "SC-offline":
        return {"sc_fixed_size": summary.offline_size}
    # SC: online sampling burst, proportional to each thread's stores.
    # Sampling is per thread (each software cache adapts on its own MRC,
    # §III-C), so the burst shrinks with the thread count to stay a
    # fixed fraction of what one thread actually writes.
    writers = workload.store_threads(threads)
    per_thread = summary.persistent_stores / max(1, writers)
    burst = max(MIN_BURST, min(MAX_BURST, int(per_thread * BURST_FRACTION)))
    # Warm-up skip: sample past the start-up transient, but only when
    # the thread's stream is long enough to afford it.
    skip = burst if per_thread >= 8 * burst else 0
    return {
        "adaptive_config": AdaptiveConfig(
            burst_length=burst,
            initial_skip=skip,
            selection=config.selection,
        )
    }


def execute_cell(
    config: HarnessConfig,
    name: str,
    technique: str,
    threads: int,
    summary: Optional[ProfileSummary] = None,
    workload: Optional[Workload] = None,
    *,
    recorder: Optional[object] = None,
    metrics: Optional[object] = None,
) -> RunResult:
    """Execute one grid cell from scratch — no caches involved.

    A pure function of its arguments (every run seeds from
    ``config.seed``), so a worker process computing a cell produces the
    bit-identical result the sequential harness would.  ``workload`` may
    be passed to reuse an already-built (batch-caching) instance.
    ``recorder``/``metrics`` attach the observability layer to the
    machine; they only observe, so the result is the same with or
    without them (``tests/test_obs_machine.py``).
    """
    spec = TechniqueSpec.parse(technique)  # one parser, one error text
    if workload is None:
        workload = make_workload(config, name)
    factory_kwargs = sc_factory_kwargs(config, workload, technique, threads, summary)
    machine = Machine(config.machine_config(), recorder=recorder, metrics=metrics)
    return machine.run(
        workload,
        technique_factory(spec, **factory_kwargs),
        num_threads=threads,
        seed=config.seed,
    )


class Harness:
    """Cached experiment runner (see module docstring).

    ``cache_dir`` enables the on-disk result cache: completed cells and
    profile summaries are persisted as JSON keyed by the full
    configuration, so repeat invocations (and parallel workers) skip
    simulation entirely.
    """

    def __init__(
        self,
        config: Optional[HarnessConfig] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.config = config or HarnessConfig()
        self.cache_dir = cache_dir
        self._disk = ResultCache(cache_dir) if cache_dir else None
        self._runs: Dict[Cell, RunResult] = {}
        self._profiles: Dict[Tuple[str, int], RunResult] = {}
        self._traces: Dict[Tuple[str, int], Tuple[List[WriteTrace], int]] = {}
        self._summaries: Dict[str, ProfileSummary] = {}
        self._workloads: Dict[str, Workload] = {}

    # ------------------------------------------------------------------

    def workload(self, name: str) -> Workload:
        """The (cached, batch-caching) workload object for a name."""
        wl = self._workloads.get(name)
        if wl is None:
            wl = make_workload(self.config, name)
            self._workloads[name] = wl
        return wl

    def profile(self, name: str, threads: int = 1) -> RunResult:
        """The trace-recording BEST run: the simulated oracle of
        :meth:`trace`, and its source for a program without columns.

        Kept in memory only: recorded traces are large and the disk
        cache stores the distilled :class:`ProfileSummary` instead.
        """
        key = (name, threads)
        result = self._profiles.get(key)
        if result is None:
            machine = Machine(self.config.machine_config())
            result = machine.run(
                self.workload(name),
                technique_factory("BEST"),
                num_threads=threads,
                seed=self.config.seed,
                record_traces=True,
            )
            self._profiles[key] = result
        return result

    def _write_traces(self, name: str, threads: int) -> Tuple[List[WriteTrace], int]:
        """Per-thread write traces and the persistent-store count of one
        program, read off its event columns — or off the BEST run where
        it has none (``queue``/``linked-list`` above one thread)."""
        key = (name, threads)
        facts = self._traces.get(key)
        if facts is None:
            streams = self.workload(name).batch_streams(threads, self.config.seed)
            if streams is None:
                run = self.profile(name, threads)
                facts = run.traces, run.persistent_stores
            else:
                programs = [list(stream) for stream in streams]
                facts = (
                    [
                        WriteTrace.from_batches(batches, tid, NVRAM_BASE)
                        for tid, batches in enumerate(programs)
                    ],
                    sum(b.count_stores(NVRAM_BASE) for p in programs for b in p),
                )
            self._traces[key] = facts
        return facts

    def profile_summary(self, name: str) -> ProfileSummary:
        """The distilled profile facts driving SC/SC-offline sizing: a
        column pass plus the whole-trace MRC, no simulation."""
        summary = self._summaries.get(name)
        if summary is not None:
            return summary
        disk_key = None
        if self._disk is not None:
            disk_key = ResultCache.key(self.config, "profile_summary", name=name)
            summary = self._disk.get(disk_key, ProfileSummary.from_dict)
            if summary is not None:
                self._summaries[name] = summary
                return summary
        traces, persistent_stores = self._write_traces(name, 1)
        summary = ProfileSummary(
            persistent_stores=persistent_stores,
            offline_size=select_cache_size(
                mrc_from_trace(traces[0]), self.config.selection
            ),
        )
        self._summaries[name] = summary
        if self._disk is not None:
            self._disk.put(disk_key, dataclasses.asdict(summary))
        return summary

    def take_corrupt_entries(self) -> int:
        """How many corrupt disk-cache entries this harness recomputed
        since the last call (a torn file, or one its decoder rejected).

        Taking resets the count, so a pool task hands its worker's count
        to the parent with its result, and a task the parent runs itself
        hands back what it took.
        """
        if self._disk is None:
            return 0
        taken, self._disk.corrupt = self._disk.corrupt, 0
        return taken

    def preload_summaries(self, summaries: Dict[str, ProfileSummary]) -> None:
        """Adopt summaries computed elsewhere (parallel phase 1)."""
        self._summaries.update(summaries)

    def trace(self, name: str, thread: int = 0, threads: int = 1) -> WriteTrace:
        """One thread's persistent-write trace: what :meth:`profile`
        would record, derived from the program's columns."""
        return self._write_traces(name, threads)[0][thread]

    def offline_mrc(self, name: str) -> MissRatioCurve:
        """The whole-trace (offline) MRC of the single-thread run."""
        return mrc_from_trace(self.trace(name))

    def offline_size(self, name: str) -> int:
        """The profiled best cache size (drives SC-offline)."""
        return self.profile_summary(name).offline_size

    def burst_length(self, name: str, threads: int = 1) -> int:
        """Online sampling burst for one thread of ``name``: the one an
        SC cell is configured with (:func:`sc_factory_kwargs`)."""
        kwargs = sc_factory_kwargs(
            self.config, self.workload(name), "SC", threads, self.profile_summary(name)
        )
        return kwargs["adaptive_config"].burst_length

    # ------------------------------------------------------------------

    def run(self, name: str, technique: str, threads: int = 1) -> RunResult:
        """Execute (or fetch) one workload × technique × threads run.

        ``technique`` may be any spec string (``"SC"``,
        ``"SC-offline+victim:4"``, ...); it is canonicalized through the
        one parser, so e.g. ``"SC+victim"`` and ``"SC+victim:16"`` share a
        cache entry — and a bad spec fails here with the same error as
        every other entry point.
        """
        spec = TechniqueSpec.parse(technique)
        technique = str(spec)
        key = (name, technique, threads)
        result = self._runs.get(key)
        if result is not None:
            return result
        disk_key = None
        if self._disk is not None:
            disk_key = ResultCache.key(
                self.config, "run", name=name, technique=technique, threads=threads
            )
            result = self._disk.get(disk_key, RunResult.from_dict)
            if result is not None:
                self._runs[key] = result
                return result
        result = self.execute(name, technique, threads)
        self._runs[key] = result
        if self._disk is not None:
            self._disk.put(disk_key, result.to_dict())
        return result

    def execute(
        self,
        name: str,
        technique: str,
        threads: int = 1,
        *,
        recorder: Optional[object] = None,
        metrics: Optional[object] = None,
    ) -> RunResult:
        """Simulate one cell now, past the result caches.

        :func:`execute_cell` on this harness's (cached) workload object
        and profile summary — what :meth:`run` does on a miss, and what
        a traced run does with ``recorder``/``metrics`` attached.
        """
        needs_profile = TechniqueSpec.parse(technique).base in ("SC", "SC-offline")
        return execute_cell(
            self.config, name, technique, threads,
            summary=self.profile_summary(name) if needs_profile else None,
            workload=self.workload(name),
            recorder=recorder, metrics=metrics,
        )

    def run_grid(
        self, cells: Iterable[Cell], jobs: int = 1, progress=None
    ) -> Dict[Cell, RunResult]:
        """Execute a batch of cells, optionally across worker processes,
        and append one ``grid`` ledger record for it.

        Each cell's technique is canonicalized through the one parser
        first (a bad spec raises before anything runs), so spellings of
        one cell run once and land under :meth:`run`'s key.  With
        ``jobs > 1`` the distinct cells fan out over a process pool (see
        ``repro.experiments.parallel``); results are identical to the
        sequential path because every cell is a pure function of the
        configuration.  Either way, completed cells land in this
        harness's in-memory cache, so artifact generators that re-request
        them afterwards get hits.  The returned dict is keyed by the
        cells as given.

        ``progress(done, total, cell)``, if given, is invoked after each
        completed canonical cell on both paths.  The ``grid`` record is
        best-effort like every ledger write.
        """
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        canonical = {
            cell: (cell[0], str(TechniqueSpec.parse(cell[1])), cell[2])
            for cell in cells
        }
        unique = list(dict.fromkeys(canonical.values()))
        started = time.monotonic()
        if jobs > 1 and len(unique) > 1:
            from repro.experiments.parallel import run_grid_parallel

            results = run_grid_parallel(self, unique, jobs, progress=progress)
        else:
            results = {}
            for cell in unique:
                results[cell] = self.run(*cell)
                if progress is not None:
                    progress(len(results), len(unique), cell)
        if results:
            # The spec is the configuration plus the sorted cells, all the
            # outcome depends on; ``jobs`` cannot change it, so it is extra.
            from repro.obs.ledger import grid_cells_payload, record_run

            rows, totals = grid_cells_payload(results)
            record_run(
                "grid",
                {
                    "config": dataclasses.asdict(self.config),
                    "cells": [list(cell) for cell in sorted(results)],
                },
                totals,
                wall_s=time.monotonic() - started,
                extra={"cells": rows, "jobs": jobs},
            )
        return {cell: results[key] for cell, key in canonical.items()}

    # ------------------------------------------------------------------

    @staticmethod
    def all_workloads() -> Tuple[str, ...]:
        """Table III's 12 applications, in table order."""
        return WORKLOAD_NAMES

    @staticmethod
    def splash2_workloads() -> Tuple[str, ...]:
        """The seven SPLASH2 programs."""
        return (
            "barnes",
            "fmm",
            "ocean",
            "raytrace",
            "volrend",
            "water-nsquared",
            "water-spatial",
        )
