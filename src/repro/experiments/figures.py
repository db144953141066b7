"""Figures 2, 4, 5, 6, 7 and 8 of the paper's evaluation.

Each ``figureN`` function returns an :class:`~repro.experiments.tables.Artifact`
whose ``series`` dict holds the plotted data (series name → x → y) and
whose ``text`` is a monospace rendering.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.common.document import format_table
from repro.experiments.claims import FIG7_PROGRAMS, PAPER
from repro.experiments.harness import Harness
from repro.experiments.tables import Artifact, arithmetic_mean
from repro.locality.knee import find_knees, select_cache_size
from repro.locality.mrc import mrc_from_trace
from repro.locality.stack_distance import exact_mrc
from repro.locality.sampling import sampled_mrc

#: Cache sizes on Fig. 7's x axis.
FIG7_SIZES = (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 50)


def ascii_series(
    series: Dict[str, Sequence[float]], xs: Sequence[object], title: str
) -> str:
    """A title line, then a table of each series' value at every x."""
    rows = [[x] + [f"{series[k][i]:.4g}" for k in series] for i, x in enumerate(xs)]
    return title + "\n" + format_table(["x", *series], rows)


def figure2(harness: Harness, max_size: int = 50) -> Artifact:
    """Fig. 2: the MRC of water-spatial and the selected knee."""
    mrc = harness.offline_mrc("water-spatial")
    sizes = list(range(1, max_size + 1))
    ratios = mrc.miss_ratios_at(np.asarray(sizes, dtype=float))
    selected = select_cache_size(mrc, harness.config.selection)
    knees = find_knees(mrc, harness.config.selection)
    art = Artifact("figure2", "Figure 2: MRC of water-spatial")
    art.series["miss_ratio"] = {"x": sizes, "y": [float(v) for v in ratios]}
    published = PAPER["figure2", "water-spatial", "selected_size"]
    art.rows = [
        {
            "benchmark": "water-spatial",
            "selected_size": selected,
            "knees": [k.size for k in knees],
        }
    ]
    shown = [1, 2, 4, 8, 16, 20, 22, 23, 24, 26, 32, 40, 50]
    art.text = (
        format_table(
            ["size", "miss ratio"],
            [[s, f"{float(ratios[s - 1]):.5f}"] for s in shown],
        )
        + f"\nselected size = {selected} (paper: {published}); "
        f"candidate knees = {[k.size for k in knees]}"
    )
    return art


def figure4(harness: Harness) -> Artifact:
    """Fig. 4: single-thread speedups over ER (mdb uses 8 threads)."""
    techniques = ["AT", "SC", "SC-offline", "BEST"]
    workloads = [w for w in harness.all_workloads()]
    rows = []
    for name in workloads:
        threads = 8 if name == "mdb" else 1
        er = harness.run(name, "ER", threads)
        row: Dict[str, object] = {"benchmark": name}
        for t in techniques:
            row[t] = round(harness.run(name, t, threads).speedup_over(er), 2)
        rows.append(row)
    avg = {"benchmark": "average"}
    for t in techniques:
        avg[t] = round(arithmetic_mean(r[t] for r in rows), 2)
    rows.append(avg)
    art = Artifact("figure4", "Figure 4: speedups over ER")
    art.rows = rows
    for t in techniques:
        art.series[t] = {
            "x": [r["benchmark"] for r in rows],
            "y": [r[t] for r in rows],
        }
    art.text = format_table(
        ["benchmark"] + techniques,
        [[r["benchmark"]] + [f"{r[t]}x" for t in techniques] for r in rows],
    )
    return art


def figure5(
    harness: Harness, threads: Optional[Sequence[int]] = None
) -> Artifact:
    """Fig. 5: SC and SC-offline over AT across thread counts."""
    threads = list(threads or (1, 2, 4, 8, 16, 32))
    art = Artifact("figure5", "Figure 5: parallel speedup of SC over AT")
    rows = []
    for name in harness.splash2_workloads():
        for n in threads:
            at = harness.run(name, "AT", n)
            sc = harness.run(name, "SC", n)
            sco = harness.run(name, "SC-offline", n)
            rows.append(
                {
                    "benchmark": name,
                    "threads": n,
                    "sc_over_at": round(sc.speedup_over(at), 3),
                    "sco_over_at": round(sco.speedup_over(at), 3),
                }
            )
    art.rows = rows
    for name in harness.splash2_workloads():
        sub = [r for r in rows if r["benchmark"] == name]
        art.series[name] = {
            "x": [r["threads"] for r in sub],
            "sc_over_at": [r["sc_over_at"] for r in sub],
            "sco_over_at": [r["sco_over_at"] for r in sub],
        }
    art.text = format_table(
        ["benchmark", "threads", "SC/AT", "SC-offline/AT"],
        [
            [r["benchmark"], r["threads"], f"{r['sc_over_at']}x", f"{r['sco_over_at']}x"]
            for r in rows
        ],
    )
    return art


def figure6(
    harness: Harness, threads: Optional[Sequence[int]] = None
) -> Artifact:
    """Fig. 6: slowdown of SC relative to BEST across thread counts."""
    threads = list(threads or (1, 2, 4, 8, 16, 32))
    art = Artifact("figure6", "Figure 6: slowdown of SC over BEST")
    rows = []
    for name in harness.splash2_workloads():
        for n in threads:
            sc = harness.run(name, "SC", n)
            best = harness.run(name, "BEST", n)
            rows.append(
                {
                    "benchmark": name,
                    "threads": n,
                    "slowdown": round(sc.time / best.time, 3),
                }
            )
    art.rows = rows
    for name in harness.splash2_workloads():
        sub = [r for r in rows if r["benchmark"] == name]
        art.series[name] = {
            "x": [r["threads"] for r in sub],
            "slowdown": [r["slowdown"] for r in sub],
        }
    art.text = format_table(
        ["benchmark", "threads", "SC/BEST slowdown"],
        [[r["benchmark"], r["threads"], f"{r['slowdown']}x"] for r in rows],
    )
    return art


def figure7(
    harness: Harness,
    programs: Sequence[str] = FIG7_PROGRAMS,
    max_size: int = 50,
) -> Artifact:
    """Fig. 7: actual vs full-trace (offline) vs sampled (online) MRC.

    'Actual' is the exact miss ratio of a FASE-drained write-combining
    LRU cache, from classical stack distances (Mattson) — equal to the
    miss to per-size simulation on traces whose writes are all inside
    FASEs, or outside one only before the first and to lines it does
    not write (as every program's here are); 'full-trace' is the
    paper's linear-time theory over the whole trace; 'sampled' is the
    same theory over one online burst.  The claim under test: sampling
    preserves the inflection points that drive size selection.
    """
    art = Artifact("figure7", "Figure 7: MRC prediction accuracy")
    sizes = list(FIG7_SIZES)
    rows = []
    for name in programs:
        trace = harness.trace(name)
        full = mrc_from_trace(trace)
        sampled = sampled_mrc(trace, harness.burst_length(name))
        actual = exact_mrc(trace).miss_ratios_at(np.asarray(sizes, dtype=float))
        full_v = full.miss_ratios_at(np.asarray(sizes, dtype=float))
        samp_v = sampled.miss_ratios_at(np.asarray(sizes, dtype=float))
        art.series[name] = {
            "x": sizes,
            "actual": [float(v) for v in actual],
            "full_trace": [float(v) for v in full_v],
            "sampled": [float(v) for v in samp_v],
        }
        rows.append(
            {
                "benchmark": name,
                "selected_full": select_cache_size(full, harness.config.selection),
                "selected_sampled": select_cache_size(
                    sampled, harness.config.selection
                ),
            }
        )
    art.rows = rows
    blocks = []
    for name in programs:
        s = art.series[name]
        blocks.append(
            ascii_series(
                {
                    "actual": s["actual"],
                    "full": s["full_trace"],
                    "sampled": s["sampled"],
                },
                s["x"],
                title=f"-- {name} --",
            )
        )
    blocks.append(
        format_table(
            ["benchmark", "size(full)", "size(sampled)", "paper"],
            [
                [r["benchmark"], r["selected_full"], r["selected_sampled"],
                 PAPER.get(("figure7", r["benchmark"], "selected_sampled"))]
                for r in rows
            ],
        )
    )
    art.text = "\n\n".join(blocks)
    return art


def figure8(
    harness: Harness, thread_counts: Sequence[int] = (1, 8)
) -> Artifact:
    """Fig. 8: the time cost of online cache-size selection.

    The paper measures "the difference of the running time between using
    the preset size and finding the size online": here, SC (online)
    versus SC-offline (preset best size), as a percentage of SC's time.
    """
    art = Artifact("figure8", "Figure 8: online selection overhead")
    workloads = list(harness.splash2_workloads()) + ["mdb"]
    rows = []
    for name in workloads:
        for n in thread_counts:
            sc = harness.run(name, "SC", n)
            sco = harness.run(name, "SC-offline", n)
            overhead = max(0.0, (sc.time - sco.time) / sc.time * 100.0)
            rows.append(
                {"benchmark": name, "threads": n, "overhead_pct": round(overhead, 2)}
            )
    avg = arithmetic_mean(r["overhead_pct"] for r in rows)
    rows.append(
        {"benchmark": "average", "threads": "-", "overhead_pct": round(avg, 2)}
    )
    art.rows = rows
    art.series["overhead"] = {
        "x": [f"{r['benchmark']}/{r['threads']}" for r in rows],
        "y": [r["overhead_pct"] for r in rows],
    }
    art.text = format_table(
        ["benchmark", "threads",
         f"overhead %  (paper avg {PAPER['figure8', 'average/-', 'overhead_pct']}%)"],
        [[r["benchmark"], r["threads"], f"{r['overhead_pct']}%"] for r in rows],
    )
    return art
