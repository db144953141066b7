"""Miss-ratio curves from timescale reuse (Eq. 3 / Eq. 6).

At any moment a fully associative LRU cache holds the distinct data of the
last ``k`` accesses, for some ``k``.  On average those ``k`` accesses
contain ``reuse(k)`` reuses, hence ``k - reuse(k)`` distinct data — so the
cache *size* reached at timescale ``k`` is ``c(k) = k - reuse(k)``.  The
chance that the next access is a reuse (a hit) is the discrete derivative
``reuse(k+1) - reuse(k)`` (Eq. 3)::

    hr(c) = reuse(k+1) - reuse(k)   at   c = k - reuse(k)

which by the duality ``reuse + fp = k`` is exactly Xiang et al.'s HOTL
conversion ``mr(c) = fp'(k)`` (Eq. 6).  The correctness condition is the
reuse-window hypothesis, inherited unchanged from HOTL (§III-B,
"Correctness").

:class:`MissRatioCurve` wraps the ``(c(k), mr(k))`` samples with monotone
clean-up and step interpolation, and is the object consumed by the knee
detector and the adaptive cache controller.

Every caller reads a curve at small sizes — the knee rule ranks sizes
``1..max_size`` (50, §III-C) — and ``c(k)`` reaches 50 early in ``k`` on
most traces.  So :func:`mrc_from_trace` stops at the reuse kernel's second
differences, and its curve evaluates the samples ``k < K`` from
``cumsum(cumsum(d2[:K+1]))``, doubling ``K`` until the last sample's size
exceeds the largest size queried (or ``K = n``); each doubling continues
the scans where the last one stopped.  Every step of Eq. 3 is elementwise
or a prefix scan, so a prefix equals the head of the whole curve bit for
bit; ``.sizes`` and ``.miss_ratios`` evaluate all of it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.locality.reuse import reuse_from_counts, second_differences
from repro.locality.trace import WriteTrace


class MissRatioCurve:
    """A cache miss-ratio curve sampled at non-uniform sizes.

    Parameters
    ----------
    sizes:
        Cache sizes ``c(k)``, non-decreasing, starting at 0.
    miss_ratios:
        Miss ratio at each size, in ``[0, 1]``.
    n:
        Length of the trace the curve was computed from (metadata).
    """

    __slots__ = ("_sizes", "_miss_ratios", "n", "_d2", "_carry")

    def __init__(
        self,
        sizes: np.ndarray,
        miss_ratios: np.ndarray,
        n: int = 0,
    ) -> None:
        self._sizes = np.asarray(sizes, dtype=np.float64)
        self._miss_ratios = np.asarray(miss_ratios, dtype=np.float64)
        if self._sizes.shape != self._miss_ratios.shape:
            raise ConfigurationError("sizes and miss_ratios must align")
        if len(self._sizes) == 0:
            raise ConfigurationError("an MRC needs at least one sample")
        if np.any(np.diff(self._sizes) < 0):
            raise ConfigurationError("sizes must be non-decreasing")
        self.n = int(n)
        self._d2: Optional[np.ndarray] = None

    @classmethod
    def _on_demand(cls, d2: np.ndarray, n: int) -> "MissRatioCurve":
        """The curve of a length-``n`` trace whose reuse kernel summed to
        ``d2``; samples are evaluated as far as queries read them."""
        curve = cls.__new__(cls)
        curve._sizes = curve._miss_ratios = np.zeros(0)
        curve.n = n
        curve._d2 = d2
        curve._carry = 0, 0, 0.0            # slope, total and reuse at k = 0
        return curve

    def _samples(self, size: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(sizes, miss_ratios)`` evaluated far enough to answer every
        query up to ``size`` as the whole curve would: until the last
        sample's size exceeds it (a size plateau at ``size`` may go on), or
        to the end of the curve.  Each step continues the prefix scans
        from the values carried at the last sample: integer sums and
        running extremes continue exactly, so the samples are the ones a
        whole-curve pass computes."""
        while self._d2 is not None and not (len(self._sizes) and self._sizes[-1] > size):
            # c(k) <= k, so ``size`` needs more than ``size + 1`` samples;
            # a step costs about as much as a thousand samples.
            k = len(self._sizes)
            stop = self.n if size >= self.n else min(self.n, max(2 * k, 16 * (int(size) + 1)))
            slope, total, reuse = self._carry
            slopes = np.cumsum(self._d2[k + 1 : stop + 1]) + slope
            totals = np.cumsum(slopes) + total
            reuses = np.concatenate(([reuse], reuse_from_counts(totals, self.n, first=k + 1)))
            last = (self._sizes[-1], self._miss_ratios[-1]) if k else (0.0, 1.0)
            sizes, miss = _eq3(reuses, first=k, last=last)
            self._sizes = np.concatenate((self._sizes, sizes))
            self._miss_ratios = np.concatenate((self._miss_ratios, miss))
            self._carry = slopes[-1], totals[-1], reuses[-1]
            if stop == self.n:
                self._d2 = None
        return self._sizes, self._miss_ratios

    @property
    def sizes(self) -> np.ndarray:
        return self._samples(np.inf)[0]

    @property
    def miss_ratios(self) -> np.ndarray:
        return self._samples(np.inf)[1]

    def miss_ratio(self, size: float) -> float:
        """Miss ratio of a cache of ``size`` blocks (step interpolation)."""
        return float(self.miss_ratios_at(size))

    def miss_ratios_at(self, sizes: float | Sequence[float] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`miss_ratio`, answered in the query's shape."""
        q = np.asarray(sizes, dtype=np.float64)
        if not np.all(q >= 0):
            raise ConfigurationError("cache sizes must be non-negative numbers")
        samples, miss = self._samples(float(q.max()) if q.size else 0.0)
        # Largest sample index whose size is <= query; below the first
        # sample every access misses (an empty cache).
        idx = np.searchsorted(samples, q, side="right") - 1
        out = np.ones(q.shape, dtype=np.float64)
        valid = idx >= 0
        out[valid] = miss[idx[valid]]
        return out

    def hit_ratio(self, size: float) -> float:
        """Hit ratio of a cache of ``size`` blocks."""
        return 1.0 - self.miss_ratio(size)

    def table(self, max_size: int) -> np.ndarray:
        """Miss ratios at integer sizes ``1..max_size`` (for figures)."""
        if max_size < 1:
            raise ConfigurationError("max_size must be >= 1")
        return self.miss_ratios_at(np.arange(1, max_size + 1))

    def __repr__(self) -> str:
        return (
            f"MissRatioCurve(samples={len(self.sizes)}, "
            f"max_size={self.sizes[-1]:.1f}, n={self.n})"
        )


def _eq3(
    reuse: np.ndarray,
    first: int = 0,
    last: Tuple[float, float] = (0.0, 1.0),
    monotone: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 3 on ``reuse(first..K)``: the sizes and miss ratios of the
    samples ``first <= k < K``, each an elementwise step or a prefix scan
    continued from ``last``, the size and miss ratio of sample
    ``first - 1``."""
    ks = np.arange(first, first + len(reuse) - 1, dtype=np.float64)
    sizes = ks - reuse[:-1]                 # c(k) = k - reuse(k)
    hit = np.diff(reuse)                    # hr = reuse(k+1) - reuse(k)
    # Guard against floating-point jitter: sizes are mathematically
    # non-decreasing (c(k+1) - c(k) = 1 - hr >= 0) and hit ratios lie in
    # [0, 1]; enforce both so downstream search stays well-defined.
    sizes = np.maximum(sizes, 0.0)
    sizes[0] = max(sizes[0], last[0])
    sizes = np.maximum.accumulate(sizes)
    miss = np.clip(1.0 - hit, 0.0, 1.0)
    if monotone:
        miss[0] = min(miss[0], last[1])
        miss = np.minimum.accumulate(miss)
    return sizes, miss


def mrc_from_reuse(
    reuse: np.ndarray, n: Optional[int] = None, monotone: bool = True
) -> MissRatioCurve:
    """Convert a ``reuse(k)`` curve (``k = 0..n``) into an MRC (Eq. 3).

    The tail of the reuse curve is dominated by boundary windows (only a
    handful of windows of near-trace length exist), which makes the
    discrete derivative noisy there.  Since a fully associative LRU cache
    satisfies the inclusion property — a larger cache never misses more —
    ``monotone=True`` (the default) clamps the curve to be non-increasing
    in size, which repairs the sparse tail without disturbing the densely
    sampled head.  Pass ``monotone=False`` for the raw Eq. 3 derivative.
    """
    reuse = np.asarray(reuse, dtype=np.float64)
    if reuse.ndim != 1 or len(reuse) < 2:
        raise ConfigurationError("reuse curve needs at least k = 0 and k = 1")
    if n is None:
        n = len(reuse) - 1
    sizes, miss = _eq3(reuse, monotone=monotone)
    return MissRatioCurve(sizes, miss, n=n)


def mrc_from_trace(trace: WriteTrace, honor_fases: bool = True) -> MissRatioCurve:
    """Compute the write-cache MRC of a trace (the paper's full pipeline).

    Applies the FASE-semantics renaming (unless ``honor_fases`` is false)
    and sums the all-window reuse kernel in linear time; the Eq. 3
    conversion runs as far as the curve is read (see the module notes).
    """
    from repro.locality.fase_transform import rename_for_fases

    if trace.n < 1:
        raise ConfigurationError("reuse curve needs at least k = 0 and k = 1")
    if honor_fases:
        trace = rename_for_fases(trace)
    starts, ends = trace.reuse_intervals()
    return MissRatioCurve._on_demand(second_differences(starts, ends, trace.n), trace.n)
