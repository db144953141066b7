"""Brute-force oracles for the locality theory, plus exact LRU simulation.

These are deliberately simple O(n²)-ish implementations used to validate
the linear-time algorithms in the test suite, and to produce the "actual
MRC" series of Fig. 7 — the measured miss ratio of a real write-combining
LRU cache run over the trace with FASE drains, against which the
theory-predicted (full-trace) and sampled MRCs are compared.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.locality.trace import WriteTrace


def reuse_brute(trace: WriteTrace, k: int) -> float:
    """``reuse(k)`` by enumerating every window of length ``k``.

    Uses the identity "reuses in a window = accesses - distinct data"
    (the basis of Eq. 5).  O(n·k).
    """
    n = trace.n
    if not 1 <= k <= n:
        raise ConfigurationError(f"window length must be in 1..{n}: {k}")
    lines = trace.lines
    total = 0
    for w in range(n - k + 1):
        window = lines[w : w + k]
        total += k - len(np.unique(window))
    return total / (n - k + 1)


def reuse_curve_brute(trace: WriteTrace) -> np.ndarray:
    """``reuse(k)`` for all ``k = 0..n`` by brute force."""
    n = trace.n
    out = np.zeros(n + 1, dtype=np.float64)
    for k in range(1, n + 1):
        out[k] = reuse_brute(trace, k)
    return out


def footprint_brute(trace: WriteTrace, k: int) -> float:
    """``fp(k)`` by enumerating every window of length ``k``."""
    n = trace.n
    if not 1 <= k <= n:
        raise ConfigurationError(f"window length must be in 1..{n}: {k}")
    lines = trace.lines
    total = 0
    for w in range(n - k + 1):
        total += len(np.unique(lines[w : w + k]))
    return total / (n - k + 1)


def footprint_curve_brute(trace: WriteTrace) -> np.ndarray:
    """``fp(k)`` for all ``k = 0..n`` by brute force."""
    n = trace.n
    out = np.zeros(n + 1, dtype=np.float64)
    for k in range(1, n + 1):
        out[k] = footprint_brute(trace, k)
    return out


def lru_write_cache_misses(
    trace: WriteTrace,
    size: int,
    honor_fases: bool = True,
) -> int:
    """Misses of an exact size-``size`` write-combining LRU cache.

    A *miss* is a write whose line is not in the cache (the line is then
    inserted, evicting the LRU line if full) — each miss corresponds to
    one eventual flush.  With ``honor_fases``, the cache is drained on
    leaving a FASE, exactly like the runtime's software cache.  It is keyed
    by line alone and a drain empties it: these are ``exact_mrc``'s misses
    only while every write is inside a FASE, or outside one only before the
    first and to lines it does not write (``stack_distance``'s docstring).
    """
    if size < 1:
        raise ConfigurationError("cache size must be >= 1")
    cache: OrderedDict[int, None] = OrderedDict()
    misses = 0
    lines = trace.lines
    fids = trace.fase_ids
    current_fase: Optional[int] = None
    for i in range(len(lines)):
        fid = int(fids[i])
        if honor_fases and fid != current_fase:
            if current_fase is not None and current_fase != -1:
                cache.clear()          # drain at the FASE boundary
            current_fase = fid
        line = int(lines[i])
        if line in cache:
            cache.move_to_end(line)
        else:
            misses += 1
            if len(cache) >= size:
                cache.popitem(last=False)
            cache[line] = None
    return misses


def lru_mrc(
    trace: WriteTrace,
    sizes: Sequence[int],
    honor_fases: bool = True,
) -> np.ndarray:
    """Measured ("actual") miss ratios at each cache size (Fig. 7)."""
    n = trace.n
    if n == 0:
        raise ConfigurationError("cannot simulate an empty trace")
    return np.asarray(
        [lru_write_cache_misses(trace, s, honor_fases) / n for s in sizes],
        dtype=np.float64,
    )
