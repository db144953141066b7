"""Knee detection and cache-size selection (§III-C).

The paper's procedure: "we calculate the decrease in miss ratio for every
cache size increase (i.e. the gradient), rank the decreases, and pick the
top few as candidate knees.  We then choose the knee that has the largest
cache size."  The size is bounded — default 8, maximum 50 — because a
larger software cache lengthens the stall at the end of a FASE.  If the
MRC has no obvious inflection points, the maximal size is chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.common.errors import ConfigurationError, require_int
from repro.locality.mrc import MissRatioCurve


@dataclass(frozen=True)
class SelectionPolicy:
    """Tunable parameters of the §III-C selection procedure.

    Attributes
    ----------
    default_size:
        Cache size used before any MRC is available (paper: 8).
    max_size:
        Upper bound on the selected size (paper: 50) — bounds the
        end-of-FASE drain stall.
    top_candidates:
        How many of the largest miss-ratio drops become candidate knees
        (the paper's "top few").
    min_drop:
        Smallest miss-ratio decrease that counts as an inflection at all;
        if no size clears it the MRC is considered knee-less and
        ``max_size`` is chosen.
    min_drop_fraction:
        A candidate must also achieve at least this fraction of the
        curve's *range beyond size 1* (``mr(1) - mr(max_size)``) — this
        separates genuine inflection points from sampling noise in the
        tail (without it, any tiny late wiggle would win the "largest
        size" tie-break).  The range is measured beyond size 1 because
        the drop at size 1 — write combining of consecutive same-line
        stores — dwarfs every later knee in write traces.
    """

    default_size: int = 8
    max_size: int = 50
    top_candidates: int = 10
    min_drop: float = 1e-4
    min_drop_fraction: float = 0.06

    def __post_init__(self) -> None:
        require_int("default_size", self.default_size, 1)
        require_int("max_size", self.max_size, self.default_size)
        require_int("top_candidates", self.top_candidates, 1)
        if not 0 <= self.min_drop < math.inf:
            raise ConfigurationError(
                f"min_drop must be finite and >= 0, got {self.min_drop}"
            )
        if not 0 <= self.min_drop_fraction <= 1:
            raise ConfigurationError("min_drop_fraction must be in [0, 1]")


DEFAULT_POLICY = SelectionPolicy()


@dataclass(frozen=True)
class Knee:
    """A candidate inflection point of an MRC."""

    size: int          # cache size at which the drop lands
    miss_ratio: float  # miss ratio at that size
    drop: float        # decrease in miss ratio vs. size - 1

    def __repr__(self) -> str:
        return f"Knee(size={self.size}, mr={self.miss_ratio:.4f}, drop={self.drop:.4f})"


def find_knees(
    mrc: MissRatioCurve,
    policy: SelectionPolicy = DEFAULT_POLICY,
) -> List[Knee]:
    """Return candidate knees, largest miss-ratio drop first.

    The gradient at size ``c`` is ``mr(c-1) - mr(c)`` with ``mr(0) = 1``
    (an empty cache misses always).  Only sizes ``1..max_size`` are
    considered, and only drops of at least ``policy.min_drop`` qualify.
    """
    sizes = np.arange(0, policy.max_size + 1)
    mr = mrc.miss_ratios_at(sizes)
    mr[0] = 1.0
    drops = mr[:-1] - mr[1:]                  # drop achieved by size c = 1..max
    order = np.argsort(drops, kind="stable")[::-1]
    tail_range = float(mr[1] - mr[policy.max_size])
    threshold = max(policy.min_drop, policy.min_drop_fraction * tail_range)
    knees: List[Knee] = []
    for idx in order[: policy.top_candidates]:
        drop = float(drops[idx])
        if drop < threshold:
            break
        size = int(idx) + 1
        knees.append(Knee(size=size, miss_ratio=float(mr[size]), drop=drop))
    return knees


def select_cache_size(
    mrc: MissRatioCurve,
    policy: SelectionPolicy = DEFAULT_POLICY,
) -> int:
    """Pick the software-cache size for an MRC, per the paper's rule.

    Among the top-gradient candidate knees, the one with the *largest*
    cache size wins (it has the smallest miss ratio of the candidates and
    is still bounded by ``max_size``).  A knee-less MRC yields
    ``max_size``.
    """
    knees = find_knees(mrc, policy)
    if not knees:
        return policy.max_size
    return max(k.size for k in knees)
