"""The typed public facade: one frozen spec in, one result out.

Everything the repo can do to one ``(workload, technique, threads)``
configuration — plain runs, traced runs, fault-injection campaigns — is
reachable from a single :class:`RunSpec`, so downstream code stops
hand-wiring ``Machine`` + ``technique_factory`` + ``AdaptiveController``::

    from repro import api

    spec = api.RunSpec(workload="linked-list", technique="SC", threads=2)
    result = api.run(spec)                  # -> RunResult
    matrix = api.campaign(spec, api.FaultSpec(max_sites=256))

``run`` delegates to the experiments harness, so a spec-driven run is
bit-identical to the legacy hand-wired path (enforced by an equivalence
test) and participates in the same profiling, memoization and on-disk
result cache.  ``campaign`` drives :func:`repro.faults.run_campaign`
with the spec's machine knobs, SC-offline's profiled size and SC's
selection policy, so a run and its crash campaign agree on those; SC's
sampling burst stays the controller default in a campaign, where a run
scales it to the workload.

The facade is re-exported lazily from the top-level package
(``from repro import RunSpec, run``) without importing the experiment
stack at ``import repro`` time.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple, Union

from repro.cache.adaptive import AdaptiveConfig
from repro.cache.spec import TechniqueSpec, list_techniques
from repro.common.errors import ConfigurationError
from repro.experiments.harness import Harness, HarnessConfig
from repro.faults.campaign import CrashMatrix, FaultCampaignSpec, run_campaign
from repro.locality.knee import SelectionPolicy
from repro.nvram.machine import MachineConfig
from repro.nvram.stats import RunResult
from repro.nvram.timing import DEFAULT_TIMING, TimingModel
from repro.workloads.registry import WORKLOAD_NAMES

#: The campaign spec, under the name the facade's users see.
FaultSpec = FaultCampaignSpec

__all__ = [
    "FaultSpec",
    "RunSpec",
    "TechniqueSpec",
    "campaign",
    "harness_for",
    "list_techniques",
    "run",
    "traced_run",
]


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified simulation: workload, technique, machine knobs.

    Frozen and hashable, so specs work as cache keys and ship cleanly to
    worker processes.  Every field has the repo-wide default; a bare
    ``RunSpec(workload="mdb")`` reproduces what the CLI would run.

    ``technique`` accepts a base name (``"SC"``), a composed spec string
    (``"SC+victim:16"``) or a
    :class:`~repro.cache.spec.TechniqueSpec`; it is normalized to the
    canonical spec string through the one parser
    (:meth:`TechniqueSpec.parse`), which is also where a bad spec fails,
    naming the offending stage or parameter.  ``list_techniques()``
    enumerates the grammar.
    """

    workload: str
    technique: Union[str, TechniqueSpec] = "SC"
    threads: int = 1
    scale: float = 1.0
    seed: int = 0
    timing: TimingModel = DEFAULT_TIMING
    l1_capacity_lines: int = 512
    l1_ways: int = 8
    selection: SelectionPolicy = SelectionPolicy()

    def __post_init__(self) -> None:
        # One parser for every entry point: accept a spec string or a
        # TechniqueSpec and store the canonical spec string, so equal
        # configurations hash equal ("SC+victim" == "SC+victim:16").
        object.__setattr__(
            self, "technique", str(TechniqueSpec.parse(self.technique))
        )
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        self.harness_config()  # scale, seed and the L1 geometry, checked there

    def harness_config(self) -> HarnessConfig:
        """The harness configuration this spec induces."""
        return HarnessConfig(
            scale=self.scale,
            seed=self.seed,
            timing=self.timing,
            l1_capacity_lines=self.l1_capacity_lines,
            l1_ways=self.l1_ways,
            selection=self.selection,
        )

    def machine_config(self) -> MachineConfig:
        """The machine configuration this spec induces."""
        return self.harness_config().machine_config()

    def ledger_dict(self) -> Dict[str, object]:
        """The canonical JSON form recorded in the run ledger.

        Pure function of the spec (``technique`` is already the
        canonical spec string), so identical specs fingerprint
        identically across processes and sessions (DESIGN.md §15).
        """
        return asdict(self)


def harness_for(spec: RunSpec, cache_dir: Optional[str] = None) -> Harness:
    """A harness configured exactly as ``spec`` requires."""
    return Harness(spec.harness_config(), cache_dir=cache_dir)


def _resolve_harness(
    spec: RunSpec, harness: Optional[Harness], cache_dir: Optional[str]
) -> Harness:
    if harness is None:
        return harness_for(spec, cache_dir=cache_dir)
    if harness.config != spec.harness_config():
        raise ConfigurationError(
            "harness configuration does not match the RunSpec; build one "
            "with api.harness_for(spec) to share it across runs"
        )
    return harness


def run(
    spec: RunSpec,
    *,
    harness: Optional[Harness] = None,
    cache_dir: Optional[str] = None,
) -> RunResult:
    """Execute one spec; bit-identical to the hand-wired harness path.

    Pass ``harness`` (from :func:`harness_for`) to share profile
    summaries and memoized cells across many runs; ``cache_dir``
    persists results on disk exactly like the CLI flag.
    """
    if spec.workload not in WORKLOAD_NAMES:
        raise ConfigurationError(
            f"unknown workload {spec.workload!r}; "
            f"expected one of {WORKLOAD_NAMES}"
        )
    harness = _resolve_harness(spec, harness, cache_dir)
    started = time.monotonic()
    result = harness.run(spec.workload, spec.technique, spec.threads)
    from repro.obs.ledger import counters_from_result, record_run

    record_run(
        "run",
        spec.ledger_dict(),
        counters_from_result(result),
        wall_s=time.monotonic() - started,
    )
    return result


def traced_run(
    spec: RunSpec,
    *,
    metrics_interval: Optional[int] = None,
    harness: Optional[Harness] = None,
    cache_dir: Optional[str] = None,
    ledger_artifacts: Optional[Dict[str, str]] = None,
) -> Tuple[RunResult, object, object]:
    """Execute one spec with the observability layer attached.

    Returns ``(result, recorder, metrics)``: a fresh
    :class:`~repro.obs.trace.TraceRecorder` and, when
    ``metrics_interval`` (model cycles between samples) is given, a
    :class:`~repro.obs.metrics.MetricsRegistry` (else ``None``), both
    passed to :meth:`Harness.execute`.  They only observe, so the run is
    bit-identical to :func:`run` for the same spec.  ``ledger_artifacts``
    maps artifact names to the paths the caller is about to write
    (trace, metrics, report), so the ledger record links to them.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceRecorder

    harness = _resolve_harness(spec, harness, cache_dir)
    started = time.monotonic()
    recorder = TraceRecorder()
    metrics = (
        MetricsRegistry(metrics_interval) if metrics_interval is not None else None
    )
    result = harness.execute(
        spec.workload, spec.technique, spec.threads, recorder=recorder, metrics=metrics
    )
    from repro.obs.ledger import counters_from_result, record_run

    record_run(
        "traced_run",
        spec.ledger_dict(),
        counters_from_result(result),
        wall_s=time.monotonic() - started,
        extra={"trace_events": len(recorder)},
        artifacts=ledger_artifacts,
    )
    return result, recorder, metrics


def campaign(
    spec: RunSpec,
    faults: Optional[FaultCampaignSpec] = None,
    *,
    commit_before_drain: bool = False,
    cache_dir: Optional[str] = None,
    recorder: Optional[object] = None,
    metrics: Optional[object] = None,
    progress=None,
) -> CrashMatrix:
    """Run a fault-injection campaign over ``spec``'s configuration.

    ``faults`` defaults to a clean-power-cut sweep
    (:class:`FaultSpec`); ``commit_before_drain`` is the deliberate
    ordering violation used as the oracle's negative control.
    ``recorder``/``metrics`` attach the observability layer to the
    campaign's one replay (see :func:`repro.faults.run_campaign`).
    Returns the :class:`~repro.faults.campaign.CrashMatrix` of verdicts.
    """
    base = TechniqueSpec.parse(spec.technique).base
    options: Dict[str, object] = {}
    if base == "SC-offline":
        options["sc_fixed_size"] = harness_for(spec, cache_dir).offline_size(
            spec.workload
        )
    elif base == "SC":
        options["adaptive_config"] = AdaptiveConfig(selection=spec.selection)
    return run_campaign(
        spec.workload,
        technique=spec.technique,
        threads=spec.threads,
        seed=spec.seed,
        scale=spec.scale,
        spec=faults,
        timing=spec.timing,
        l1_capacity_lines=spec.l1_capacity_lines,
        l1_ways=spec.l1_ways,
        technique_options=options,
        commit_before_drain=commit_before_drain,
        cache_dir=cache_dir,
        recorder=recorder,
        metrics=metrics,
        progress=progress,
    )
