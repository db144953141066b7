"""The experiment harness: every table and figure of the paper's §IV.

- :mod:`repro.experiments.harness` — runs workload × technique × thread
  count on a fresh machine, with profiling (offline MRC / size
  selection) and per-instance result caching.
- :mod:`repro.experiments.tables` — Tables I, II, III and IV.
- :mod:`repro.experiments.figures` — Figures 2, 4, 5, 6, 7 and 8.
- :mod:`repro.experiments.report` — EXPERIMENTS.md, judging ``claims``.
- ``python -m repro.experiments <artifact>`` — command-line entry point.
"""

from repro.experiments.harness import Harness, HarnessConfig

__all__ = ["Harness", "HarnessConfig"]
