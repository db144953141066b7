"""SHARDS: spatially hashed sampling for MRC construction.

Waldspurger et al. (FAST'15) — cited by the paper among the efficient
reuse-distance techniques its related work surveys — showed that an
exact-but-expensive MRC can be approximated from a tiny spatially-hashed
sample: keep only the data whose hash falls under a threshold ``T`` (a
sampling rate ``R = T / M``), run exact stack-distance analysis on the
filtered trace, and *rescale* every measured distance by ``1/R``.

Included here as the third point on the paper's §III-A efficiency
spectrum:

=====================  ============  =======================
method                 cost          exactness
=====================  ============  =======================
stack distance          O(n log n)   exact
SHARDS                  O(nR log m)  unbiased approximation
timescale reuse (paper) O(n)         reuse-window hypothesis
=====================  ============  =======================

The test suite checks SHARDS against the exact curve and the benchmark
ablation compares all three on the evaluation traces.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.locality.mrc import MissRatioCurve
from repro.locality.stack_distance import COLD, stack_distances
from repro.locality.trace import WriteTrace

#: Hash-space modulus (SHARDS uses a fixed-point threshold over it).
_HASH_SPACE = 1 << 24


def _spatial_hash(lines: np.ndarray) -> np.ndarray:
    """A deterministic mixing hash over line ids (vectorised)."""
    x = lines.astype(np.uint64)
    x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    x = (x ^ (x >> np.uint64(33))) * np.uint64(0xC4CEB9FE1A85EC53)
    x = x ^ (x >> np.uint64(33))
    return (x % np.uint64(_HASH_SPACE)).astype(np.int64)


def shards_filter(trace: WriteTrace, rate: float) -> WriteTrace:
    """Keep only the accesses whose *line* is sampled at ``rate``.

    Spatial hashing keeps either all or none of a line's accesses, which
    is what makes the rescaled distances unbiased.
    """
    if not 0 < rate <= 1:
        raise ConfigurationError(f"sampling rate must be in (0, 1]: {rate}")
    threshold = int(rate * _HASH_SPACE)
    keep = _spatial_hash(trace.lines) < threshold
    return WriteTrace(trace.lines[keep], trace.fase_ids[keep])


def shards_mrc(
    trace: WriteTrace,
    rate: float = 0.1,
    honor_fases: bool = True,
    max_size: int = 4096,
) -> MissRatioCurve:
    """An approximate MRC from a spatially-hashed sample.

    Runs exact stack-distance analysis on the filtered trace and
    rescales each distance by ``1/rate`` (a sampled distance ``d`` stands
    for ``d/R`` distinct lines of the full trace).  Cold misses are
    assumed representative of the full trace's cold-miss ratio.
    """
    sample = shards_filter(trace, rate)
    if sample.n == 0:
        raise ConfigurationError(
            f"sampling rate {rate} left no accesses; raise it"
        )
    dists = stack_distances(sample, honor_fases=honor_fases)
    finite = dists[dists != COLD]
    cold = len(dists) - len(finite)
    scaled = np.floor(finite / rate).astype(np.int64)
    scaled = np.minimum(scaled, max_size)
    hist = np.bincount(scaled, minlength=max_size + 1)
    cum = np.cumsum(hist)
    n = len(dists)
    sizes = np.arange(0, max_size + 1, dtype=np.float64)
    hits = np.concatenate([[0], cum[:-1]])      # hits at capacity c: dist < c
    miss = np.clip(1.0 - hits / n, 0.0, 1.0)
    miss[0] = 1.0
    # cold misses never hit at any size
    miss = np.maximum(miss, cold / n)
    return MissRatioCurve(sizes, miss, n=trace.n)
