"""Outside-in correctness checks: invariants and golden comparison.

An operation (a cell, a trace, a campaign) fails if it breaks an
invariant checked here from its public outputs or, at the development
seed, if its canonical counters differ from ``golden/<workload>.json``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from perfbench.core import canonical_json

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Per-thread flush categories that must add up to ``flushes`` (log
#: flushes are accounted separately).
FLUSH_CATEGORIES = (
    "eviction_flushes",
    "fase_end_flushes",
    "eager_flushes",
    "final_flushes",
    "clean_flushes",
    "bypass_flushes",
    "victim_flushes",
)


def flush_ratio(cell: Dict) -> float:
    stores = sum(t["persistent_stores"] for t in cell["threads"])
    flushes = sum(t["flushes"] for t in cell["threads"])
    return flushes / stores if stores else 0.0


def grid_failures(results: Dict[str, Dict]) -> Dict[str, List[str]]:
    """Invariant violations per cell key (``program/technique/threads``).

    ``results`` maps cell keys to ``RunResult.to_dict()`` payloads.
    """
    bad: Dict[str, List[str]] = {}

    def fail(key: str, why: str) -> None:
        bad.setdefault(key, []).append(why)

    lazy: Dict[tuple, float] = {}
    for key, cell in results.items():
        program, technique, threads = key.rsplit("/", 2)
        if cell["crashed"]:
            fail(key, "run crashed")
        if cell["l1_misses"] > cell["l1_accesses"]:
            fail(key, "l1_misses > l1_accesses")
        for t in cell["threads"]:
            if sum(t[c] for c in FLUSH_CATEGORIES) != t["flushes"]:
                fail(key, f"flush accounting broken on thread {t['thread_id']}")
        if technique == "ER" and flush_ratio(cell) != 1.0:
            fail(key, f"ER flush ratio {flush_ratio(cell)} != 1")
        if technique == "LA":
            lazy[(program, threads)] = flush_ratio(cell)
    for key, cell in results.items():
        program, technique, threads = key.rsplit("/", 2)
        bound = lazy.get((program, threads))
        # BEST never flushes, so it is not a technique LA can bound.
        if bound is None or technique in ("LA", "BEST"):
            continue
        if flush_ratio(cell) < bound:
            fail(key, f"flush ratio {flush_ratio(cell)} below LA's {bound}")
    return bad


def mrc_failures(name: str, miss_ratios: List[float]) -> List[str]:
    """A miss-ratio curve must lie in [0, 1] and never rise with size."""
    out = []
    if any(not 0.0 <= m <= 1.0 for m in miss_ratios):
        out.append(f"{name}: miss ratio outside [0, 1]")
    if any(b > a for a, b in zip(miss_ratios, miss_ratios[1:])):
        out.append(f"{name}: MRC not monotone")
    return out


def duality_failures(name: str, trace) -> List[str]:
    """``reuse(k) + fp(k) = k`` (Eq. 5) on one trace, both computed
    independently by the locality layer."""
    import numpy as np

    from repro.locality import footprint_curve, reuse_curve_from_trace

    reuse = reuse_curve_from_trace(trace, honor_fases=False)
    fp = footprint_curve(trace)
    ks = np.arange(len(fp), dtype=np.float64)
    if not np.allclose(reuse + fp, ks, atol=1e-6):
        return [f"{name}: reuse(k) + fp(k) != k"]
    return []


def matrix_failures(matrix: Dict, want_exhaustive: bool) -> List[str]:
    """A campaign must recover every injected crash and be exhaustive
    where that was promised.  ``matrix`` is ``CrashMatrix.to_dict()``."""
    out = []
    if not matrix["ok"]:
        out.append(f"{matrix['workload']}: {len(matrix['violations'])} violations")
    if want_exhaustive and not matrix["exhaustive"]:
        out.append(f"{matrix['workload']}: campaign not exhaustive")
    if not matrix["cells"]:
        out.append(f"{matrix['workload']}: nothing injected")
    return out


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def write_golden(workload: str, results: Dict, force: bool) -> str:
    path = golden_path(workload)
    if os.path.exists(path) and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def golden_failures(workload: str, results: Dict) -> List[str]:
    """Entries of ``results`` that differ from the committed golden."""
    path = golden_path(workload)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"golden {path} unreadable: {exc}"]
    out = [
        f"golden mismatch: {key}"
        for key in sorted(set(golden) | set(results))
        if canonical_json(golden.get(key)) != canonical_json(results.get(key))
    ]
    return out
