"""Fault-injection campaigns: sites × fault models → verified/violated.

One campaign = one ``(workload, technique, threads)`` configuration and
one replay.  The golden replay enumerates the injectable sites, records
FASE ground truth and journals every change to the durable state; the
:class:`~repro.faults.enumerator.CrashPointEnumerator` picks the
injection targets; a *sweep* then walks the journal, cutting the crashed
image of every fault model at every target, and each is recovered and
judged by the oracle before the walk moves on.  Results fold into a
:class:`CrashMatrix` — the (crash-site-class × fault-model →
verified/violated) table the ``crashmatrix`` CLI artifact emits.

Sweeps are pure functions of the golden run, so strided chunks of the
target sites fan out over the same
:class:`~repro.experiments.parallel.TaskPool` as experiment grid cells
(``--jobs``), one chunk — one walk, every model — per worker; a worker
takes the golden run and nothing else, and replays nothing.  A finished
campaign memoizes whole into the PR-1 on-disk
:class:`~repro.experiments.cache.ResultCache` when the workload is
registry-named (anonymous workload objects have no stable fingerprint,
so they always recompute).
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, require_int
from repro.experiments.cache import ResultCache
from repro.faults.driver import AtlasReplayDriver, GoldenRun
from repro.faults.enumerator import CrashPointEnumerator
from repro.faults.oracle import check_crash
from repro.nvram.failure import FAULT_CLEAN, FAULT_MODELS, SITE_CLASSES
from repro.nvram.timing import DEFAULT_TIMING, TimingModel

#: Matrix serialization schema (bump on shape changes).
MATRIX_SCHEMA = 1


@dataclass(frozen=True)
class FaultCampaignSpec:
    """What to inject: fault models, site filter, sampling bounds."""

    fault_models: Tuple[str, ...] = (FAULT_CLEAN,)
    site_classes: Optional[Tuple[str, ...]] = None
    max_sites: int = 256
    sample_seed: int = 0
    fault_seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.fault_models:
            raise ConfigurationError("no fault models: a campaign would inject nothing")
        repeated = sorted({m for m in self.fault_models if self.fault_models.count(m) > 1})
        if repeated:
            raise ConfigurationError(f"fault models {repeated} are listed more than once")
        unknown = set(self.fault_models) - set(FAULT_MODELS)
        if unknown:
            raise ConfigurationError(
                f"unknown fault models {sorted(unknown)}; "
                f"expected among {FAULT_MODELS}"
            )
        classes = self.site_classes
        if classes is not None and (not classes or len(set(classes)) < len(classes)):
            raise ConfigurationError(
                f"site classes {classes!r}: give distinct classes, or None for all"
            )
        require_int("max_sites", self.max_sites, 1)
        require_int("jobs", self.jobs, 1)


@dataclass(frozen=True)
class _CampaignConfig:
    """Cache-key fingerprint of everything a campaign's result depends on."""

    workload: str
    scale: float
    technique: str
    #: The technique factory's keywords (SC-offline's size, SC's config).
    technique_options: Dict[str, object]
    threads: int
    seed: int
    timing: TimingModel
    l1_capacity_lines: int
    l1_ways: int
    fault_models: Tuple[str, ...]
    site_classes: Optional[Tuple[str, ...]]
    max_sites: int
    sample_seed: int
    fault_seed: int
    commit_before_drain: bool


@dataclass
class CrashMatrix:
    """Campaign verdicts, foldable to JSON and markdown."""

    workload: str
    technique: str
    threads: int
    seed: int
    total_sites: int
    exhaustive: bool
    fault_models: Tuple[str, ...]
    #: (site_class, fault_model) -> {"injected": n, "violated": n}
    cells: Dict[Tuple[str, str], Dict[str, int]] = field(default_factory=dict)
    violations: List[dict] = field(default_factory=list)

    @property
    def injected(self) -> int:
        """Total crash points injected across all fault models."""
        return sum(c["injected"] for c in self.cells.values())

    @property
    def ok(self) -> bool:
        """True when every injected crash recovered cleanly."""
        return not self.violations

    def record(self, site_class: str, fault_model: str, violations: List[dict]) -> None:
        """Count one injected crash; ``violations`` are ``to_dict()`` forms."""
        cell = self.cells.setdefault(
            (site_class, fault_model), {"injected": 0, "violated": 0}
        )
        cell["injected"] += 1
        if violations:
            cell["violated"] += 1
            self.violations.extend(violations)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": MATRIX_SCHEMA,
            "workload": self.workload,
            "technique": self.technique,
            "threads": self.threads,
            "seed": self.seed,
            "total_sites": self.total_sites,
            "exhaustive": self.exhaustive,
            "fault_models": list(self.fault_models),
            "cells": {
                f"{cls}/{model}": dict(stats)
                for (cls, model), stats in sorted(self.cells.items())
            },
            "violations": list(self.violations),
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrashMatrix":
        if data.get("schema") != MATRIX_SCHEMA:
            raise ConfigurationError(
                f"crash matrix schema {data.get('schema')!r} != {MATRIX_SCHEMA}"
            )
        matrix = cls(
            workload=data["workload"],
            technique=data["technique"],
            threads=data["threads"],
            seed=data["seed"],
            total_sites=data["total_sites"],
            exhaustive=data["exhaustive"],
            fault_models=tuple(data["fault_models"]),
            violations=list(data["violations"]),
        )
        for key, stats in data["cells"].items():
            cls_name, model = key.split("/", 1)
            matrix.cells[(cls_name, model)] = dict(stats)
        return matrix

    def to_markdown(self) -> str:
        """A site-class × fault-model verdict table."""
        models = list(self.fault_models)
        lines = [
            f"### crashmatrix: {self.workload} × {self.technique} "
            f"({self.threads} thread{'s' if self.threads != 1 else ''}, "
            f"{'exhaustive' if self.exhaustive else 'sampled'}, "
            f"{self.total_sites} sites)",
            "",
            "| crash-site class | " + " | ".join(models) + " |",
            "|---" * (len(models) + 1) + "|",
        ]
        classes = [c for c in SITE_CLASSES if any(k[0] == c for k in self.cells)]
        for cls_name in classes:
            row = [cls_name]
            for model in models:
                stats = self.cells.get((cls_name, model))
                if stats is None:
                    row.append("—")
                elif stats["violated"]:
                    row.append(
                        f"**VIOLATED** {stats['violated']}/{stats['injected']}"
                    )
                else:
                    row.append(f"verified {stats['injected']}/{stats['injected']}")
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        lines.append(
            "zero violations" if self.ok else f"{len(self.violations)} violation(s)"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sweeps (in-process, or as pool tasks)
# ---------------------------------------------------------------------------


def _sweep(
    golden: GoldenRun,
    chunk: Tuple[Sequence[int], Tuple[str, ...]],
    fault_seed: int,
    report: Callable[[int, str, List[dict]], None],
) -> None:
    """Inject every fault model at every site of ``chunk`` — ``(sites
    ascending, fault models)`` — with one walk of ``golden``'s journal.

    ``report(site, model, violations)`` runs inside the walk, site by
    site and model by model, right after the oracle judged that crash,
    so no crashed image outlives its verdict; violations arrive as dicts.
    """
    sites, models = chunk

    def on_crash(state):
        verdict = check_crash(golden, state.at_site, state)
        report(state.at_site, state.fault_model, [v.to_dict() for v in verdict])

    golden.cut([(site, fault_seed + site) for site in sites], models, on_crash)


def _crash_chunk_task(
    golden: GoldenRun,
    chunk: Tuple[Sequence[int], Tuple[str, ...]],
    fault_seed: int,
) -> List[Tuple[int, str, List[dict]]]:
    """Inject one chunk of sites under every fault model: one walk."""
    out: List[Tuple[int, str, List[dict]]] = []
    _sweep(golden, chunk, fault_seed, lambda *reply: out.append(reply))
    return out


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


def run_campaign(
    workload: object,
    *,
    technique: str = "SC",
    threads: int = 1,
    seed: int = 0,
    scale: float = 1.0,
    spec: Optional[FaultCampaignSpec] = None,
    timing: TimingModel = DEFAULT_TIMING,
    l1_capacity_lines: int = 512,
    l1_ways: int = 8,
    technique_options: Optional[dict] = None,
    commit_before_drain: bool = False,
    cache_dir: Optional[str] = None,
    recorder: Optional[object] = None,
    metrics: Optional[object] = None,
    progress=None,
) -> CrashMatrix:
    """Run one fault-injection campaign; see the module docstring.

    ``workload`` is a registry name (resolved with ``scale``) or a
    :class:`~repro.workloads.base.Workload` instance.  A workload that
    cannot partition over ``threads`` runs single-threaded instead —
    the hash benchmark, for one, is single-threaded by construction.
    ``progress(done, total)`` is called after every injected crash, in
    each sweep site-major (at each site, every model in spec order).

    ``recorder``/``metrics`` attach the observability layer to the one
    replay a campaign performs, the golden run (the sweeps execute
    nothing).  A campaign served whole from the on-disk cache performs no
    replay at all, so both stay empty then.
    """
    spec = spec or FaultCampaignSpec()
    # One parser for every entry point: reject bad specs up front and
    # canonicalize (``SC+victim`` == ``SC+victim:16``) so the campaign
    # cache key and the reported matrix agree on the spec's spelling.  The
    # options too, before a cached matrix could answer for them.
    from repro.cache.spec import TechniqueSpec, technique_factory

    technique = str(TechniqueSpec.parse(technique))
    technique_factory(technique, **(technique_options or {}))
    if isinstance(workload, str):
        from repro.workloads.registry import get_workload

        name = workload
        workload = get_workload(name, scale=scale)
    else:
        name = getattr(workload, "name", type(workload).__name__)
    if threads > 1 and not workload.supports_threads(threads):
        threads = 1

    started = time.monotonic()
    config = _CampaignConfig(
        workload=name if isinstance(name, str) else str(name),
        scale=scale,
        technique=technique,
        technique_options=dict(sorted((technique_options or {}).items())),
        threads=threads,
        seed=seed,
        timing=timing,
        l1_capacity_lines=l1_capacity_lines,
        l1_ways=l1_ways,
        fault_models=tuple(spec.fault_models),
        site_classes=spec.site_classes,
        max_sites=spec.max_sites,
        sample_seed=spec.sample_seed,
        fault_seed=spec.fault_seed,
        commit_before_drain=commit_before_drain,
    )
    cache = None
    cache_key = None
    if cache_dir is not None and isinstance(name, str):
        cache = ResultCache(cache_dir)
        cache_key = ResultCache.key(config, "crashmatrix")
        # A stale or torn entry is a miss: recompute and overwrite.
        matrix = cache.get(cache_key, CrashMatrix.from_dict)
        if matrix is not None:
            _record_campaign(config, matrix, time.monotonic() - started, cached=True)
            return matrix

    golden = AtlasReplayDriver(
        workload,
        technique=technique,
        num_threads=threads,
        seed=seed,
        timing=timing,
        l1_capacity_lines=l1_capacity_lines,
        l1_ways=l1_ways,
        technique_options=technique_options,
        commit_before_drain=commit_before_drain,
        recorder=recorder,
        metrics=metrics,
    ).golden()
    enumerator = CrashPointEnumerator(
        golden.sites,
        max_sites=spec.max_sites,
        sample_seed=spec.sample_seed,
        site_classes=spec.site_classes,
    )
    sites = [site[0] for site in enumerator.select()]
    models = tuple(spec.fault_models)
    total = len(sites) * len(models)

    matrix = CrashMatrix(
        workload=name,
        technique=technique,
        threads=threads,
        seed=seed,
        total_sites=len(golden.sites),
        exhaustive=enumerator.exhaustive,
        fault_models=tuple(spec.fault_models),
    )

    replies: List[Tuple[int, str, List[dict]]] = []

    def landed(site: int, model: str, violations: List[dict]) -> None:
        replies.append((site, model, violations))
        if progress is not None:
            progress(len(replies), total)

    if spec.jobs > 1 and len(sites) > 1:
        from repro.experiments.parallel import TaskPool

        # A chunk of sites (every model) is one walk: one per worker, strided.
        chunks = [(sites[i :: spec.jobs], models) for i in range(min(spec.jobs, len(sites)))]

        def fold_chunk(chunk_replies: List[Tuple[int, str, List[dict]]]) -> None:
            for reply in chunk_replies:
                landed(*reply)

        # Each worker's own copy of the golden run, without the cursor.
        with TaskPool(len(chunks), copy.copy, (golden,), golden) as pool:
            for i, chunk in enumerate(chunks):
                pool.submit(
                    f"crash chunk {i} of {name} ({len(chunk[0]) * len(models)} injections)",
                    fold_chunk,
                    _crash_chunk_task,
                    chunk,
                    spec.fault_seed,
                )
            pool.drain()
    else:
        _sweep(golden, (sites, models), spec.fault_seed, landed)
    # Fold model-major as the spec lists them, sites ascending — whatever
    # order the walk or the chunks delivered in.
    rank = {model: i for i, model in enumerate(models)}
    for site, model, violations in sorted(replies, key=lambda r: (rank[r[1]], r[0])):
        matrix.record(golden.site_class(site), model, violations)

    if cache is not None and cache_key is not None:
        cache.put(cache_key, matrix.to_dict())
    _record_campaign(config, matrix, time.monotonic() - started, cached=False)
    return matrix


def _record_campaign(
    config: _CampaignConfig,
    matrix: CrashMatrix,
    wall_s: float,
    *,
    cached: bool,
) -> None:
    """One ``campaign`` ledger record per :func:`run_campaign` call.

    The spec is the campaign's cache-key fingerprint (everything the
    verdicts depend on), so ``history`` flags a spec whose last two
    recorded outcomes disagree.  A cache-served matrix records too — it
    is still a run that happened — flagged in ``extra`` so overhead
    analysis can tell replays from lookups.
    """
    from repro.obs.ledger import record_run

    spec_dict = dataclasses.asdict(config)
    spec_dict["fault_models"] = list(config.fault_models)
    spec_dict["site_classes"] = (
        list(config.site_classes) if config.site_classes is not None else None
    )
    record_run(
        "campaign",
        spec_dict,
        {
            "injected": int(matrix.injected),
            "violated": len(matrix.violations),
            "total_sites": int(matrix.total_sites),
            "exhaustive": bool(matrix.exhaustive),
            "ok": bool(matrix.ok),
        },
        wall_s=wall_s,
        extra={"cached": cached},
    )
