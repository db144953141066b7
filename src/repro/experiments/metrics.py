"""Shared metric and formatting helpers for tables and figures."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.common.document import format_table
from repro.common.errors import ConfigurationError
from repro.nvram.stats import RunResult


def speedup(base: RunResult, other: RunResult) -> float:
    """How much faster ``other`` is than ``base`` (model time ratio)."""
    if other.time == 0:
        raise ConfigurationError("cannot compute a speedup over zero time")
    return base.time / other.time


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain average (what the paper's 'average' rows use)."""
    values = list(values)
    if not values:
        raise ConfigurationError("mean of no values")
    return float(np.mean(values))


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (robust for speedup summaries)."""
    values = np.asarray(list(values), dtype=np.float64)
    if len(values) == 0 or np.any(values <= 0):
        raise ConfigurationError("geometric mean needs positive values")
    return float(np.exp(np.mean(np.log(values))))


def ascii_series(
    series: Dict[str, Sequence[float]],
    xlabel: Sequence[object],
    width: int = 60,
    title: str = "",
) -> str:
    """A compact textual rendering of figure series (values per x)."""
    lines = []
    if title:
        lines.append(title)
    header = ["x"] + list(series.keys())
    rows: List[List[object]] = []
    for i, x in enumerate(xlabel):
        rows.append([x] + [f"{series[k][i]:.4g}" for k in series])
    lines.append(format_table(header, rows))
    return "\n".join(lines)
