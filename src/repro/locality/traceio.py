"""Write-trace persistence and import.

Makes the locality toolkit usable on traces from outside the simulator:
save/load the compact binary form (``.npz``), or import a plain-text
trace — one access per line, ``address [fase_id]``, addresses decimal or
``0x``-hex, ``#`` comments — as produced by e.g. a Pin tool or a
hand-instrumented run.

``python -m repro.locality <trace-file>`` runs the full analysis
pipeline (reuse, MRC, knee selection, stack-distance cross-check) on
any such file.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.geometry import line_of
from repro.locality.knee import SelectionPolicy, find_knees, select_cache_size
from repro.locality.mrc import mrc_from_trace
from repro.locality.stack_distance import mean_distance, mrc_from_distances, stack_distances
from repro.locality.trace import WriteTrace


def save_trace(trace: WriteTrace, path: str) -> None:
    """Store a trace as a compressed ``.npz`` file."""
    np.savez_compressed(path, lines=trace.lines, fase_ids=trace.fase_ids)


def load_trace(path: str) -> WriteTrace:
    """Load a trace saved by :func:`save_trace`."""
    if not os.path.exists(path):
        raise ConfigurationError(f"no trace file at {path!r}")
    with np.load(path) as data:
        if "lines" not in data:
            raise ConfigurationError(f"{path!r} is not a saved trace")
        return WriteTrace(data["lines"], data["fase_ids"])


def load_text_trace(path: str, addresses_are_lines: bool = False) -> WriteTrace:
    """Import a plain-text trace (``address [fase_id]`` per line).

    Byte addresses are mapped to cache lines unless
    ``addresses_are_lines`` says they already are line ids.  Missing
    fase ids default to one whole-trace FASE (id 0).
    """
    lines = []
    fids = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) > 2:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'address [fase_id]', got {raw!r}"
                )
            try:
                addr = int(parts[0], 0)
                fid = int(parts[1], 0) if len(parts) == 2 else 0
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
            lines.append(addr if addresses_are_lines else line_of(addr))
            fids.append(fid)
    if not lines:
        raise ConfigurationError(f"{path!r} contains no accesses")
    return WriteTrace(
        np.asarray(lines, dtype=np.int64), np.asarray(fids, dtype=np.int64)
    )


def analyze(
    trace: WriteTrace,
    policy: Optional[SelectionPolicy] = None,
    honor_fases: bool = True,
) -> Dict[str, object]:
    """The full paper pipeline on one trace, as a summary dict.

    Keys: basic statistics, the timescale-MRC selection (knee sizes,
    selected size, miss ratios at the selected size from both the
    linear-time theory and the exact stack-distance curve), and the mean
    stack distance.
    """
    if trace.n == 0:
        raise ConfigurationError("cannot analyse an empty trace")
    policy = policy or SelectionPolicy()
    mrc = mrc_from_trace(trace, honor_fases=honor_fases)
    distances = stack_distances(trace, honor_fases=honor_fases)
    exact = mrc_from_distances(distances)
    selected = select_cache_size(mrc, policy)
    return {
        "n": trace.n,
        "distinct_lines": trace.m,
        "fases": trace.num_fases,
        "selected_size": selected,
        "candidate_knees": [k.size for k in find_knees(mrc, policy)],
        "miss_ratio_at_selected": mrc.miss_ratio(selected),
        "exact_miss_ratio_at_selected": exact.miss_ratio(selected),
        "miss_ratio_at_default": mrc.miss_ratio(policy.default_size),
        "mean_stack_distance": mean_distance(distances),
    }


def format_analysis(summary: Dict[str, object]) -> str:
    """Human-readable rendering of an :func:`analyze` summary."""
    lines = [
        f"accesses            : {summary['n']}",
        f"distinct lines      : {summary['distinct_lines']}",
        f"FASEs               : {summary['fases']}",
        f"candidate knees     : {summary['candidate_knees']}",
        f"selected cache size : {summary['selected_size']}",
        f"miss ratio @selected: {summary['miss_ratio_at_selected']:.5f} "
        f"(exact LRU: {summary['exact_miss_ratio_at_selected']:.5f})",
        f"miss ratio @default : {summary['miss_ratio_at_default']:.5f}",
    ]
    msd = summary["mean_stack_distance"]
    lines.append(
        "mean stack distance : "
        + ("inf (no reuse)" if msd == float("inf") else f"{msd:.2f}")
    )
    return "\n".join(lines)
