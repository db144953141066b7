"""Classical LRU stack distance (Mattson et al. [34]) — access locality.

The paper contrasts two locality theories (§III-A): *access locality*
(reuse/stack distance — exact, but "costly to measure, especially online")
and *timescale locality* (footprint/reuse — approximate via the
reuse-window hypothesis, but linear time).  This module supplies the
access-locality side: :func:`stack_distances` computes every access's LRU
stack distance — the number of distinct data touched since the previous
access to the same datum — in O(n log n) column passes (one sort for each
access's previous occurrence, then a bottom-up merge count over those),
and :func:`exact_mrc` turns the distance histogram into the *exact* LRU
miss ratio curve at every size in one pass.  Together they quantify the
paper's central conversion claim: the linear-time timescale MRC
approximates this exact curve wherever the reuse-window hypothesis holds.

The test suite pins ``exact_mrc`` to per-size LRU simulation
(:func:`repro.locality.reference.lru_mrc`).  The two agree *exactly* —
stack distance is not an approximation — on traces whose writes are all
inside FASEs, or outside one only before the first FASE and to lines it
does not write (as ``mdb``'s first write is): every trace a registered
program emits.  Once outside writes interleave with FASEs they are two
models: renaming gives the outside region addresses of its own, which a
FASE's write to the same line misses and a FASE's drain leaves cached;
the simulated cache is keyed by line alone and drains all it holds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.locality.fase_transform import rename_for_fases
from repro.locality.mrc import MissRatioCurve
from repro.locality.trace import WriteTrace

#: Distance assigned to cold (first-ever) accesses.
COLD = np.iinfo(np.int64).max


def _earlier_not_larger(values: np.ndarray) -> np.ndarray:
    """``count[t] = #{j < t : values[j] <= values[t]}`` for non-negative
    ``values``, by bottom-up merge counting: ``log2 n`` column levels.

    Each level holds the values sorted inside blocks of ``1 << shift``
    slots and merges neighbouring blocks with one stable sort on
    ``pair * big + value`` — two sorted runs per pair, which the
    run-merging sort behind ``kind="stable"`` only has to zip.  What
    started ``i`` slots into a right-hand block and lands ``p`` slots
    into the pair has passed ``p - i`` left-hand values not larger.
    """
    n = len(values)
    big = int(values.max(initial=0)) + 1
    slot = np.arange(n, dtype=np.int64)
    origin = slot                      # the access sitting in each slot
    counts = np.zeros(n, dtype=np.int64)
    shift = 0
    while (1 << shift) < n:
        merged = np.argsort((slot >> (shift + 1)) * big + values, kind="stable")
        counts = counts[merged]
        # merged >> shift is odd for what came from a right-hand block.
        counts += ((merged >> shift) & 1) * (slot - merged + (1 << shift))
        values, origin = values[merged], origin[merged]
        shift += 1
    out = np.empty(n, dtype=np.int64)
    out[origin] = counts
    return out


def stack_distances(trace: WriteTrace, honor_fases: bool = True) -> np.ndarray:
    """Per-access LRU stack distances (cold accesses get :data:`COLD`).

    The distance of access ``t`` to datum ``x`` is the number of
    *distinct* data accessed in the open interval since ``x``'s previous
    access — exactly the minimum LRU capacity at which access ``t`` hits.
    With ``honor_fases`` the §III-B renaming is applied first, so a
    FASE-drained write cache's behaviour is measured.

    With ``prev[t]`` the position of that previous access (-1 when cold;
    read off the reuse intervals), a datum is counted at its first access
    ``j`` inside ``(prev[t], t)``, i.e. where ``prev[j] < prev[t]``, and
    every ``j <= prev[t]`` satisfies that too, as ``prev[j] < j``.  Hence
    ``distance[t] = #{j < t : prev[j] <= prev[t]} - (prev[t] + 1)``.
    """
    if honor_fases:
        trace = rename_for_fases(trace)
    starts, ends = trace.reuse_intervals()
    after = np.zeros(trace.n, dtype=np.int64)      # prev + 1; 0 when cold
    after[ends - 1] = starts
    return np.where(after == 0, COLD, _earlier_not_larger(after) - after)


def distance_histogram(distances: np.ndarray) -> np.ndarray:
    """Histogram of finite stack distances (index = distance)."""
    return np.bincount(distances[distances != COLD], minlength=1)


def mrc_from_distances(
    distances: np.ndarray, max_size: Optional[int] = None
) -> MissRatioCurve:
    """The exact LRU miss ratio curve of the trace behind ``distances``:
    ``mr(c) = (#cold + #{distance >= c}) / n`` — a hit needs capacity
    strictly greater than the distance (the datum sits at stack depth
    ``distance + 1``); cold accesses miss at every size."""
    n = len(distances)
    if n == 0:
        raise ConfigurationError("cannot analyse an empty trace")
    hist = distance_histogram(distances)
    limit = max(1, max_size if max_size is not None else len(hist))
    # hits[c] = accesses with distance < c  (hit at capacity c).
    below = np.concatenate(([0], np.cumsum(hist)))
    hits = below[np.minimum(np.arange(limit + 1), len(hist))]
    sizes = np.arange(0, limit + 1, dtype=np.float64)
    return MissRatioCurve(sizes, 1.0 - hits / n, n=n)


def exact_mrc(
    trace: WriteTrace, honor_fases: bool = True, max_size: Optional[int] = None
) -> MissRatioCurve:
    """:func:`mrc_from_distances` of the trace's :func:`stack_distances`:
    with ``honor_fases`` the curve of the *renamed* trace, which is the
    drain-on-exit simulation's only where the module docstring says."""
    return mrc_from_distances(stack_distances(trace, honor_fases), max_size)


def mean_distance(distances: np.ndarray) -> float:
    """Mean finite stack distance; ``inf`` when every access is cold."""
    finite = distances[distances != COLD]
    return float(np.mean(finite)) if len(finite) else float("inf")

