"""Tables and figures regenerate with the paper's qualitative shapes.

These run the real artifact generators on a tiny-scale harness: the
point is structure and orderings, not magnitudes (magnitudes are the
paper claims of ``repro.experiments.claims``, judged at scale 1.0 by the
report, and the calibration tests).
"""

import numpy as np
import pytest

from repro.experiments.claims import PAPER
from repro.experiments.figures import (
    figure2,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
)
from repro.experiments.tables import (
    AVERAGE_EXCLUDED,
    PAPER_TABLE3,
    table1,
    table2,
    table3,
    table4,
)

THREADS = (1, 2, 4)   # reduced sweep for the test suite


@pytest.fixture(scope="module")
def h(small_harness):
    return small_harness


def test_table1_shape(h):
    art = table1(h)
    rows = {r["program"]: r["slowdown"] for r in art.rows}
    assert set(rows) == set(h.splash2_workloads()) | {"average"}
    # Eager flushing is catastrophic everywhere.
    assert all(s > 3 for s in rows.values())
    assert rows["average"] > 10
    assert "slowdown" in art.text


def test_table2_shape(h):
    art = table2(h, threads=2)
    speedups = {r["method"]: r["speedup"] for r in art.rows}
    assert speedups["ER"] == 1.0
    assert speedups["AT"] > 1.2
    # At tiny scale the online burst is a large run fraction; the
    # offline software cache must still clearly beat the Atlas table.
    assert speedups["SC-offline"] > speedups["AT"]
    assert speedups["SC"] > speedups["AT"] * 0.9
    assert speedups["BEST"] >= speedups["SC-offline"] >= speedups["SC"] * 0.95


def test_table3_shape(h):
    art = table3(h)
    rows = {r["benchmark"]: r for r in art.rows}
    assert set(rows) == set(PAPER_TABLE3) | {"average"}
    for name, row in rows.items():
        if name == "average":
            continue
        assert row["er"] == 1.0
        # The floor and the orderings.
        assert row["la"] <= row["sc"] * 1.05
        assert row["sc"] <= row["at"] * 1.05
    # Where the paper says SC = LA exactly.
    for name in ("linked-list", "queue", "volrend", "persistent-array"):
        assert rows[name]["sc"] == pytest.approx(rows[name]["la"], rel=0.02)
    # The headline: SC beats AT by an order of magnitude on average.
    assert rows["average"]["at_over_sc"] > 3


def test_table3_average_excludes_artificial(h):
    art = table3(h)
    avg = art.rows[-1]
    assert avg["benchmark"] == "average"
    assert "persistent-array" in AVERAGE_EXCLUDED


def test_table4_shape(h):
    art = table4(h, threads=THREADS)
    assert len(art.rows) == len(THREADS)
    for row in art.rows:
        # SC runs more instructions than AT; BEST the fewest.
        assert row["inst_sc"] > row["inst_at"] > row["inst_be"]
        assert row["inst_sc"] < row["inst_at"] * 1.6          # paper: ~8 % more
        assert row["l1_mr_be"] <= row["l1_mr_sc"] + 0.02 <= row["l1_mr_at"] + 0.04
        # SC's flush ratio sits far below AT's; BEST never flushes.
        assert row["flush_ratio_sc"] < row["flush_ratio_at"] / 3
        assert row["flush_ratio_be"] == 0.0
    # L1 contention rises with the thread count for BEST; SC's flush ratio
    # rises only gently.
    first, last = art.rows[0], art.rows[-1]
    assert last["l1_mr_be"] >= first["l1_mr_be"]
    assert last["flush_ratio_sc"] <= max(
        first["flush_ratio_sc"] * 12, first["flush_ratio_sc"] + 0.02
    )


def test_figure2_shape(h):
    art = figure2(h)
    selected = art.rows[0]["selected_size"]
    assert abs(selected - PAPER["figure2", "water-spatial", "selected_size"]) <= 2
    mr = art.series["miss_ratio"]["y"]
    # Sharp knee: the ratio collapses by >10x across the knee; flat beyond.
    assert mr[selected + 1] < mr[max(0, selected - 3)] / 10
    assert mr[49] <= mr[selected] * 1.01 + 1e-9


def test_figure4_shape(h):
    art = figure4(h)
    rows = {r["benchmark"]: r for r in art.rows}
    avg = rows["average"]
    assert avg["BEST"] >= avg["SC-offline"] >= avg["SC"] * 0.95
    assert avg["SC"] > avg["AT"]
    assert avg["AT"] > 1.0
    programs = [r for r in art.rows if r is not avg]
    for row in programs:
        assert row["BEST"] >= row["SC-offline"] * 0.98, row
        assert row["SC-offline"] >= row["SC"] * 0.95, row
        assert row["AT"] >= 0.9, row
    # "SC is uniformly better than AT" single-threaded, within 3 %.
    assert sum(r["SC"] >= r["AT"] * 0.97 for r in programs) >= len(programs) - 1


def test_figure5_shape(h):
    art = figure5(h, threads=THREADS)
    assert len(art.rows) == 7 * len(THREADS)
    # "In 85% of tests, SC is better than AT" (90% for SC-offline);
    # tiny-scale runs lose some of the online margin, so the offline
    # series carries the strong form of the assertion here.
    better_offline = [r for r in art.rows if r["sco_over_at"] > 1.0]
    assert len(better_offline) >= 0.7 * len(art.rows)
    better_online = [r for r in art.rows if r["sc_over_at"] > 1.0]
    assert len(better_online) >= 0.5 * len(art.rows)
    assert len(better_offline) >= len(better_online) - 2
    # At low thread counts SC wins essentially everywhere.
    assert sum(r["sc_over_at"] > 0.98 for r in art.rows) >= 0.85 * len(art.rows)


def test_figure6_shape(h):
    art = figure6(h, threads=THREADS)
    for row in art.rows:
        assert row["slowdown"] >= 0.95     # BEST is a lower bound
        assert row["slowdown"] < 20
    # Most programs sit in the paper's 1x-3x band, flat-ish in threads.
    assert sum(r["slowdown"] <= 3.5 for r in art.rows) >= 0.6 * len(art.rows)
    for series in art.series.values():
        assert series["slowdown"][-1] <= series["slowdown"][0] * 4 + 1.5


def test_figure7_shape(h):
    art = figure7(h)
    for row in art.rows:
        # Sampled and full-trace selection agree (Fig. 7's claim).
        assert abs(row["selected_full"] - row["selected_sampled"]) <= 3
    for series in art.series.values():
        assert len(series["actual"]) == len(series["x"])
        # The theory tracks the measured curve, sampling stays close to
        # the full trace, and all three agree where the curve flattens.
        actual, full, sampled = (
            np.asarray(series[k]) for k in ("actual", "full_trace", "sampled")
        )
        spread = actual.max() - actual.min() + 1e-9
        assert np.mean(np.abs(full - actual)) < 0.35 * spread
        assert np.mean(np.abs(sampled - full)) < 0.35 * spread
        assert abs(full[-1] - actual[-1]) < 0.1


def test_figure8_shape(h):
    art = figure8(h, thread_counts=(1, 2))
    avg = art.rows[-1]
    assert avg["benchmark"] == "average"
    assert 0 <= avg["overhead_pct"] < 40
    rows = art.rows[:-1]
    assert all(0 <= r["overhead_pct"] < 60 for r in rows)
    # Most programs sit near the paper's 1-10 % band.
    assert sum(r["overhead_pct"] <= 18 for r in rows) >= 0.55 * len(rows)


def test_artifact_text_nonempty(h):
    for art in (table1(h), figure2(h)):
        assert art.text
        assert str(art).startswith(art.title)
