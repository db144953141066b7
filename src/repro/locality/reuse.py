"""All-window timescale reuse — the paper's core algorithm (§III-B).

Definitions (paper Def. 1 and Eq. 1):

- logical times are ``1..n``, one per write;
- a *window of length k* is ``k`` consecutive accesses; there are
  ``n - k + 1`` of them, starting at ``w = 1..n-k+1`` and covering times
  ``[w, w+k-1]``;
- a *reuse interval* ``[s, e]`` spans an access at time ``s`` and the next
  access to the same datum at time ``e``;
- ``reuse(k)`` is the average number of reuse intervals *enclosed* by a
  window, over all windows of length ``k``.

Instead of enumerating the Θ(n²) windows, we count for each reuse interval
the number of windows enclosing it (Eq. 1's exchange of summation order).
A window ``[w, w+k-1]`` encloses ``[s, e]`` iff ``w ≤ s`` and
``e ≤ w+k-1``, so the number of enclosing windows of length ``k`` is::

    count(k) = max(0, min(s, n-k+1) - max(e-k+1, 1) + 1)

Note on the paper's printed Eq. 2: its constants
(``min(n-k, s) - max(k, e) + k + 1`` with predicate ``e-s ≤ k``) are not
consistent with the paper's own worked examples — for the infinitely
repeating trace "abab…" it would give ``reuse(3) = 2`` instead of the
stated ``1``.  The form above reproduces both worked examples ("abb" gives
``reuse(2) = 1/2``; "abab…" gives ``reuse(2) = 0`` and ``reuse(3) = 1``)
and is validated against brute-force window enumeration in the test suite.
DESIGN.md records the discrepancy.

The linear-time trick: as a function of ``k``, ``count(k)`` is piecewise
linear with slopes ``0, +1, 0, -1``:

- zero for ``k ≤ d`` where ``d = e - s`` (a window needs ``d+1`` accesses);
- slope ``+1`` on ``[d+1, k1]`` with ``k1 = min(e, n-s+1)``;
- a plateau at ``min(s, n-e+1)`` on ``[k1, k2]`` with ``k2 = max(e, n-s+1)``;
- slope ``-1`` on ``[k2, n]`` (ending at 1: only the whole-trace window).

Summing the *second differences* of all intervals into one array and
integrating twice yields ``total(k)`` for every ``k`` in O(n + r) time,
where ``r`` is the number of reuse intervals.  This is the same
accumulation structure as the all-window liveness algorithm of Li, Ding
and Luo (ISMM'14) that the paper builds on.

Each interval adds ``+1`` at ``d+1`` and ``-1`` at ``k1+1`` and at
``k2+1``.  As a multiset ``{k1, k2}`` is just ``{e, n-s+1}``, so the
kernel (:func:`second_differences`) is three ``np.bincount`` passes —
``d2 = bincount(e-s+1) - bincount(e+1) - bincount(n-s+2)`` — with no
minimum, maximum or scatter.  ``total`` is any prefix of
``cumsum(cumsum(d2))``, which is how :mod:`repro.locality.mrc` evaluates
a curve only as far as it is read.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.locality.trace import WriteTrace


def second_differences(starts: np.ndarray, ends: np.ndarray, n: int) -> np.ndarray:
    """The second differences of ``total(k)``, ``k = 0..n+1``, summed over
    the (already validated, int64) reuse intervals: ``total`` is
    ``cumsum(cumsum(d2))[: n + 1]``, and its first ``K + 1`` entries need
    only ``d2[: K + 1]``."""
    d2 = np.bincount(ends - starts + 1, minlength=n + 2)   # +1 at d+1
    d2 -= np.bincount(ends + 1, minlength=n + 2)           # -1 at e+1
    d2 -= np.bincount(n - starts + 2, minlength=n + 2)     # -1 at n-s+2
    return d2


def reuse_counts(starts: np.ndarray, ends: np.ndarray, n: int) -> np.ndarray:
    """Total enclosing-window counts for every window length.

    Parameters
    ----------
    starts, ends:
        1-based start/end times of the reuse intervals (equal length).
    n:
        Trace length.

    Returns
    -------
    numpy.ndarray
        ``total`` of shape ``(n + 1,)`` where ``total[k]`` is the summed
        number of length-``k`` windows enclosing each interval
        (``total[0]`` is 0 by convention).
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape:
        raise ConfigurationError("starts and ends must have equal length")
    if n < 0:
        raise ConfigurationError(f"trace length must be non-negative: {n}")
    if len(starts) and (
        starts.min() < 1 or ends.max() > n or np.any(ends <= starts)
    ):
        raise ConfigurationError("reuse intervals must satisfy 1 <= s < e <= n")
    return np.cumsum(np.cumsum(second_differences(starts, ends, n)[: n + 1]))


def reuse_from_counts(total: np.ndarray, n: int, first: int = 0) -> np.ndarray:
    """``reuse(k)`` for ``k = first, first+1, ...`` of a length-``n``
    trace: each ``total[k]`` (a slice of :func:`reuse_counts`) divided by
    its window count ``n - k + 1`` (``reuse(0) = 0/(n+1) = 0``)."""
    return total / (n + 1 - np.arange(first, first + len(total)))


def reuse_curve(starts: np.ndarray, ends: np.ndarray, n: int) -> np.ndarray:
    """``reuse(k)`` for ``k = 0..n`` (Eq. 1 / Eq. 2), linear time.

    ``reuse[0]`` is defined as 0.  Each ``reuse[k]`` for ``k >= 1`` is the
    enclosing-window total divided by the window count ``n - k + 1``.
    """
    return reuse_from_counts(reuse_counts(starts, ends, n), n)


def reuse_curve_from_trace(trace: WriteTrace, honor_fases: bool = True) -> np.ndarray:
    """``reuse(k)`` for ``k = 0..n`` of a write trace.

    When ``honor_fases`` is true, the FASE-semantics correction of §III-B
    is applied first: writes in different FASEs are renamed to different
    addresses, so a cross-FASE reuse — which the runtime can never combine,
    because the software cache is drained at the FASE end — contributes no
    reuse interval.
    """
    from repro.locality.fase_transform import rename_for_fases

    if honor_fases:
        trace = rename_for_fases(trace)
    starts, ends = trace.reuse_intervals()
    return reuse_curve(starts, ends, trace.n)
