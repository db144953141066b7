"""Deterministic fault-injection campaigns with a recovery oracle.

The package answers one question systematically: *does FASE atomicity
survive a power failure at every point the implementation could crash?*

- :mod:`repro.faults.driver` — Atlas-semantics replay of a workload,
  crashable at any enumerated site (golden run + one sweep capturing
  every target site's crashed image under every fault model);
- :mod:`repro.faults.enumerator` — exhaustive or seeded-strided
  selection of injection targets;
- :mod:`repro.faults.oracle` — judges each recovered image against the
  golden run's FASE ground truth (committed-present, uncommitted-absent,
  log-before-data);
- :mod:`repro.faults.campaign` — fans the sweep out over worker
  processes and folds verdicts into a :class:`CrashMatrix`.
"""

from repro.faults.campaign import (
    CrashMatrix,
    FaultCampaignSpec,
    run_campaign,
)
from repro.faults.driver import AtlasReplayDriver, FaseRecord, GoldenRun
from repro.faults.enumerator import CrashPointEnumerator
from repro.faults.oracle import OracleViolation, check_crash, expected_image_at

__all__ = [
    "AtlasReplayDriver",
    "CrashMatrix",
    "CrashPointEnumerator",
    "FaseRecord",
    "FaultCampaignSpec",
    "GoldenRun",
    "OracleViolation",
    "check_crash",
    "expected_image_at",
    "run_campaign",
]
