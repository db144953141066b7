"""Reuse-based timescale locality theory (the paper's §III).

This package implements:

- :mod:`repro.locality.trace` — write traces at cache-line granularity,
  with FASE boundaries.
- :mod:`repro.locality.reuse` — the all-window timescale reuse ``reuse(k)``
  for every window length ``k`` in linear time (Eq. 2 / Fig. 3).
- :mod:`repro.locality.footprint` — Xiang et al.'s average footprint
  ``fp(k)`` (Eq. 4), used to validate the duality ``reuse(k) + fp(k) = k``
  (Eq. 5).
- :mod:`repro.locality.mrc` — conversion from timescale reuse to a cache
  miss-ratio curve (Eq. 3 / Eq. 6).
- :mod:`repro.locality.knee` — knee detection and cache-size selection
  (§III-C, "Cache Size Optimization").
- :mod:`repro.locality.fase_transform` — the FASE-semantics correction
  that renames addresses per FASE so cross-FASE reuses are not counted
  (§III-B, "Adaptation to FASE Semantics").
- :mod:`repro.locality.sampling` — bursty sampling for online MRC analysis
  (§III-C, "MRC Analysis").
- :mod:`repro.locality.stack_distance` — classical Mattson stack
  distance (the "access locality" of §III-A): the exact LRU MRC the
  linear-time timescale curve approximates.
- :mod:`repro.locality.shards` — SHARDS sampled stack distance, the
  third point on §III-A's cost/exactness spectrum.
- :mod:`repro.locality.reference` — brute-force O(n²) oracles used by the
  test suite, plus exact LRU simulation ("actual MRC" in Fig. 7).
"""

from repro.locality.trace import WriteTrace
from repro.locality.reuse import (
    reuse_counts,
    reuse_curve,
    reuse_curve_from_trace,
)
from repro.locality.footprint import footprint_curve, reuse_from_footprint
from repro.locality.mrc import MissRatioCurve, mrc_from_reuse, mrc_from_trace
from repro.locality.knee import Knee, find_knees, select_cache_size, SelectionPolicy
from repro.locality.fase_transform import rename_for_fases
from repro.locality.sampling import BurstSampler, sampled_mrc
from repro.locality.stack_distance import stack_distances, exact_mrc
from repro.locality.shards import shards_mrc, shards_filter

__all__ = [
    "WriteTrace",
    "reuse_counts",
    "reuse_curve",
    "reuse_curve_from_trace",
    "footprint_curve",
    "reuse_from_footprint",
    "MissRatioCurve",
    "mrc_from_reuse",
    "mrc_from_trace",
    "Knee",
    "find_knees",
    "select_cache_size",
    "SelectionPolicy",
    "rename_for_fases",
    "BurstSampler",
    "sampled_mrc",
    "stack_distances",
    "exact_mrc",
    "shards_mrc",
    "shards_filter",
]
