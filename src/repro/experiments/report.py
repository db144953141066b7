"""Regenerate EXPERIMENTS.md: paper-vs-measured for every artifact."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.figures import (
    figure2,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
)
from repro.experiments.harness import Harness, HarnessConfig
from repro.experiments.tables import (
    Artifact,
    adaptation,
    policyzoo,
    table1,
    table2,
    table3,
    table4,
)

#: Artifact id -> generator.  Thread-sweep artifacts accept a reduced
#: thread list at small scales through their keyword arguments.
GENERATORS: Dict[str, Callable[[Harness], Artifact]] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "adaptation": adaptation,
    "policyzoo": policyzoo,
    "figure2": figure2,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
}

#: Narrative context written above each artifact in EXPERIMENTS.md.
_NOTES = {
    "table1": "Expected shape: order-of-magnitude slowdowns from eager "
              "flushing (paper average 22x).",
    "table2": "Expected shape: ER slowest; AT ~3x; SC between AT and "
              "SC-offline; BEST fastest.",
    "table3": "Expected shape: ER=1; LA is the floor; SC tracks LA far "
              "closer than AT; SC=LA where the paper says so "
              "(linked-list, queue, volrend, persistent-array).",
    "table4": "Expected shape: SC instructions ~8% above AT; SC flush "
              "ratio ~an order below AT, rising slightly with threads; "
              "L1 miss ratios rise with threads for all techniques.",
    "adaptation": "Expected shape: the online history converges after "
                  "one or two selections, and the final size lands on "
                  "(or within a couple of lines of) the offline knee.",
    "policyzoo": "Expected shape: the victim stage wins where evicted "
                 "lines are stored again (mdb's B+tree) and pays its "
                 "second drain and per-store bookkeeping where they are "
                 "not (queue, hash).",
    "figure2": "Expected shape: sharp drop at the knee near 23; flat "
               "beyond.",
    "figure4": "Expected shape: BEST > SC-offline >= SC > AT > ER = 1 "
               "for every benchmark.",
    "figure5": "Expected shape: SC above 1x versus AT almost everywhere; "
               "advantage narrows at high thread counts under cache "
               "contention.",
    "figure6": "Expected shape: modest slowdowns over BEST, roughly flat "
               "in thread count.",
    "figure7": "Expected shape: sampled and full-trace MRCs share "
               "inflection points with the measured (actual) curve, so "
               "selection agrees.",
    "figure8": "Expected shape: single-digit percentage overheads (paper "
               "average 6.78%).",
}

DEVIATIONS = """
## Known deviations from the paper (and why)

| Where | Paper | Measured here | Cause |
|---|---|---|---|
| Table I, ocean | 17x | ~8-10x | ocean's BEST run already suffers hardware-cache misses on our 512-line L1 (big streaming working set), inflating the baseline the slowdown divides by. |
| Table II, SC vs SC-offline | SC-offline 10% faster | roughly tied | Our whole-trace MRC of the scaled mdb store is smoother than the paper's, so offline knee selection is less decisive; the online burst happens to sample a crisper window. |
| Table III, mdb + hash rows | LA .052/.50, AT .30/.62 | LA ~.09/.57, AT ~.21/.65 | Page/bucket-granularity write amplification of the scaled stores differs from the C originals; orderings (LA < SC <= AT) and the SC knee position are preserved. |
| Fig. 4, SC-over-AT average | 2.1x | ~1.3x | Our flush engine still grants the Atlas table partial overlap of sparse flushes with computation; on the paper's platform each clflush cost closer to its full serialised latency. The ordering (SC uniformly >= AT single-threaded) is preserved. |
| Table IV, AT L1 miss ratios | rise 58% -> 76% with threads | flat ~7% | Our AT's L1 misses are invalidation-dominated (flush ratio x refill); the paper's also absorbed scheduling/contention effects we only model for capacity. BEST/SC rows do rise with threads as published. |
| Fig. 8 averages | 6.78% | ~10-20% at small scales | Our sampling burst is a much larger *fraction* of the scaled runs than 64M writes was of the paper's full-size runs; the absolute adaptation cost is linear in the burst either way. |
| fmm selected size | 10 | 11-16 depending on budget | fmm's MRC has two near-equal shelves; the largest-size tie-break is legitimately unstable between them, and both selections achieve the same flush ratio. |

Everything else in this file tracks the published numbers to within a
few percent (flush ratios, knee positions, slowdown magnitudes,
orderings, crossovers).
"""

HEADER = """# EXPERIMENTS — paper vs. measured

Regenerated by ``python -m repro.experiments all --write`` (see
DESIGN.md for the per-experiment index and the substitution notes).
Numbers in parentheses inside tables are the paper's published values.
Absolute times are *model cycles* from the simulator's cost model —
only the relative shapes are comparable with the paper's wall-clock
measurements.

- scale = {scale}
- seed = {seed}
- generated in {elapsed:.0f} s

"""


def generate(
    harness: Optional[Harness] = None,
    artifacts: Optional[Sequence[str]] = None,
    write_path: Optional[str] = None,
    svg_dir: Optional[str] = None,
) -> str:
    """Produce (and optionally write) the EXPERIMENTS.md content."""
    harness = harness or Harness(HarnessConfig())
    names = list(artifacts or GENERATORS)
    start = time.time()
    blocks: List[str] = []
    for name in names:
        art = GENERATORS[name](harness)
        note = _NOTES.get(name, "")
        blocks.append(f"## {art.title}\n\n{note}\n\n```\n{art.text}\n```\n")
        if svg_dir and name.startswith("figure"):
            from repro.experiments.plots import write_artifact_svgs

            write_artifact_svgs(art, svg_dir)
    body = (
        HEADER.format(
            scale=harness.config.scale,
            seed=harness.config.seed,
            elapsed=time.time() - start,
        )
        + "\n".join(blocks)
        + DEVIATIONS
    )
    if write_path:
        with open(write_path, "w") as fh:
            fh.write(body)
    return body
