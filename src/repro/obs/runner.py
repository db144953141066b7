"""Execute one harness cell with live observability attached.

``traced_run`` is :meth:`repro.experiments.harness.Harness.execute` —
the one way a cell is executed — with a fresh
:class:`~repro.obs.trace.TraceRecorder` (and optionally a
:class:`~repro.obs.metrics.MetricsRegistry`) passed in, so the cell is
configured exactly like an untraced run — tracing never perturbs
simulation results, only records them (asserted by
``tests/test_obs_machine.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.experiments.harness import Harness
from repro.nvram.stats import RunResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder


def traced_run(
    harness: Harness,
    name: str,
    technique: str,
    threads: int = 1,
    metrics_interval: Optional[int] = None,
) -> Tuple[RunResult, TraceRecorder, Optional[MetricsRegistry]]:
    """Run one ``(workload, technique, threads)`` cell with tracing on.

    Returns ``(result, recorder, metrics)``; ``metrics`` is ``None``
    unless ``metrics_interval`` (model cycles between samples) is given.
    The run itself is bit-identical to ``harness.run(...)`` for the same
    cell — the recorder only observes.
    """
    recorder = TraceRecorder()
    metrics = (
        MetricsRegistry(metrics_interval) if metrics_interval is not None else None
    )
    result = harness.execute(
        name, technique, threads, recorder=recorder, metrics=metrics
    )
    return result, recorder, metrics
