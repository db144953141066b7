"""The paper's published numbers, each a claim on the artifact cell it is read against.

A claim is *fitted* when its value is a :class:`~repro.workloads.splash2.SplashProfile`
field, which the SPLASH2 stand-in was built to match, and *predicted* otherwise.
Claims describe scale 1.0, the scale of EXPERIMENTS.md."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.workloads.registry import WORKLOAD_NAMES
from repro.workloads.splash2 import SPLASH2_PROFILES

#: Tolerances, from the paper's wording: a value printed to two or more digits
#: holds to 10 %; an average, or a value given with "~" or one digit, to 25 %.
PRINTED, ABOUT = 0.1, 0.25
_SPLASH = tuple(SPLASH2_PROFILES)
_ROW_KEYS = ("program", "method", "benchmark", "threads")  # what names a row
FIG7_PROGRAMS = ("barnes", "fmm", "water-nsquared", "water-spatial")  # Fig. 7's panels


@dataclass(frozen=True)
class PaperClaim:
    """``check``: a relative tolerance around ``paper``, or ``">=ref"``/``"<=ref"``
    where ``ref`` is a cell ``row:column`` (an empty side is this claim's) or, if
    empty, ``paper``.  A claim carries a ``cause`` exactly when it fails its check."""

    artifact: str
    row: str  # the row's _ROW_KEYS values, joined by "/"
    column: str
    paper: Optional[float]
    check: Union[float, str]
    kind: str = "predicted"
    cause: str = ""


def _fitted(artifact, column, field, names=_SPLASH, causes=None):
    return [PaperClaim(artifact, n, column, getattr(SPLASH2_PROFILES[n], field), PRINTED,
                       "fitted", (causes or {}).get(n, "")) for n in names]


_OCEAN = "Unverified: ocean's BEST misses in the L1 on wide sweeps, shrinking ratios to it."
_ONLINE = "mdb's online SC sizes above the knee (Adaptation) and flushes less (Policy zoo)."
_STORES = "Python stores, not the C ones: unverified how their layouts amplify writes."
_FMM = "fmm's AT flushes least (Table III), leaving SC little to save; unverified beyond."
_AT_L1 = "AT's L1 misses are its clflush refills; unverified what raised the paper's."
_TILE = "The knee rule selects tile + 1 on six stand-ins; unverified why."
_TABLE3 = {"linked-list": (0.60001,) * 3, "persistent-array": (0.00003, 0.06250, 0.00003),
           "queue": (0.62500,) * 3, "hash": (0.50092, 0.62128, 0.59531),
           "mdb": (0.05163, 0.30140, 0.11289)}

#: Every published number, in artifact order.
CLAIMS = [
    *_fitted("table1", "slowdown", "eager_slowdown", causes={"ocean": _OCEAN}),
    PaperClaim("table1", "average", "slowdown", 22.0, ABOUT),
    *(PaperClaim("table2", m, "speedup", p, PRINTED, cause=c) for m, p, c in (
        ("ER", 1.0, ""), ("AT", 2.94, "AT's mdb flush ratio is below the paper's."),
        ("SC", 5.07, ""), ("SC-offline", 5.60, _ONLINE),
        ("BEST", 6.94, "Unverified: the flush cost is fitted to Table I, not mdb."))),
    *(PaperClaim("table3", name, col, p, ABOUT if p == 0.00003 else PRINTED,  # one digit
                 cause=_STORES if name == "mdb" or (name, col) == ("hash", "la") else "")
      for name, ratios in _TABLE3.items() for col, p in zip(("la", "at", "sc"), ratios)),
    *(c for col in ("la", "at", "sc") for c in _fitted("table3", col, "paper_" + col)),
    *(PaperClaim("table3", "average", col, p, ABOUT) for col, p in (
        ("la", 0.16256), ("at", 0.25066), ("sc", 0.18268), ("at_over_sc", 11.9))),
    *(PaperClaim("table4", n, "l1_mr_at", p, PRINTED, cause=_AT_L1)
      for n, p in (("1", 0.58), ("32", 0.76))),
    *(PaperClaim("table4", "32", col, None, ">=1:") for col in ("l1_mr_sc", "l1_mr_be")),
    *_fitted("figure2", "selected_size", "knee", ("water-spatial",)),
    *(PaperClaim("figure4", "average", t, p, ABOUT, cause=cause) for t, p, cause in (
        ("AT", 4.5, "Unverified: the engine overlaps AT's sparse flushes; serialised ones "
                    "cost more (Writes Hurt)."), ("SC", 9.6, ""), ("BEST", 16.1, ""))),
    *(PaperClaim("figure4", name, col, None, ">=:" + below,
                 cause=_ONLINE if (name, col) == ("mdb", "SC-offline") else "")
      for name in (*WORKLOAD_NAMES, "average")
      for col, below in (("BEST", "SC-offline"), ("SC-offline", "SC"), ("SC", "AT"))),
    *(PaperClaim("figure5", f"{name}/{n}", "sc_over_at", 1.0, ">=",
                 cause=_FMM if name == "fmm" and n > 1 else "")
      for name in _SPLASH for n in (1, 2, 4, 8)),
    *(PaperClaim("figure5", f"{n}/32", "sc_over_at", None, f"<={n}/1:") for n in _SPLASH),
    PaperClaim("figure6", "ocean/1", "slowdown", 11.0, ABOUT, cause=_OCEAN),
    PaperClaim("figure6", "ocean/32", "slowdown", None, "<=ocean/1:", cause=_OCEAN),
    *(PaperClaim("figure6", f"{name}/{n}", "slowdown", 2.0, "<=")
      for name in _SPLASH if name != "ocean" for n in (1, 32)),
    *_fitted("figure7", "selected_sampled", "knee", FIG7_PROGRAMS),
    PaperClaim("figure8", "average/-", "overhead_pct", 6.78, ABOUT, cause="mdb (its SC "
               "beats SC-offline) and three stand-ins read < 0.5 %; unverified why."),
    *(PaperClaim("figure8", f"{name}/{n}", "overhead_pct", 10.0, "<=")
      for name in (*_SPLASH, "mdb") for n in (1, 8)),
    # Section IV-G: the size the knee rule selects from the whole trace.
    *_fitted("adaptation", "offline", "knee", causes=dict(
        ocean=_TILE, raytrace=_TILE, volrend=_TILE,
        fmm="Its MRC drops again at 16 where the actual one is flat (Figure 7).")),
    PaperClaim("adaptation", "mdb", "offline", 20, PRINTED, cause="Unverified: mdb "
               "here is a Python store with its own knee."),
]
#: The published value beside each artifact cell that prints one.
PAPER = {(c.artifact, c.row, c.column): c.paper
         for c in CLAIMS if not isinstance(c.check, str)}


def measure(claim: PaperClaim, arts: Dict[str, object]) -> Tuple[float, bool]:
    """The claim's measured cell and whether it passes the check; a claim or
    check naming no artifact cell is a :class:`ConfigurationError`."""
    def cell(row: str, column: str) -> float:
        for r in getattr(arts.get(claim.artifact), "rows", ()):
            if "/".join(str(r[k]) for k in _ROW_KEYS if k in r) == row and column in r:
                return r[column]
        raise ConfigurationError(f"no {claim.artifact} cell {row!r} {column!r}")

    measured, check = cell(claim.row, claim.column), claim.check
    if not isinstance(check, str):
        return measured, abs(measured - claim.paper) <= check * abs(claim.paper)
    row, _, column = check[2:].partition(":")
    bound = cell(row or claim.row, column or claim.column) if check[2:] else claim.paper
    return measured, measured >= bound if check[:2] == ">=" else measured <= bound
