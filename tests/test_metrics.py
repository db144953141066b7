"""The artifacts' shared helpers: speedups, means and text rendering."""

import pytest

from repro.common.document import format_table
from repro.common.errors import ConfigurationError
from repro.experiments.figures import ascii_series
from repro.experiments.tables import arithmetic_mean
from repro.nvram.stats import RunResult, ThreadStats


def result_with_time(cycles):
    return RunResult("w", "T", 1, [ThreadStats(cycles=cycles)], 0, 0)


def test_speedup():
    assert result_with_time(25).speedup_over(result_with_time(100)) == 4.0
    # A zero-time cell renders as an infinite speedup, not an error.
    assert result_with_time(0).speedup_over(result_with_time(100)) == float("inf")


def test_means():
    assert arithmetic_mean([1, 2, 3]) == 2.0
    with pytest.raises(ConfigurationError):
        arithmetic_mean([])


def test_format_table_alignment():
    text = format_table(["name", "v"], [["a", 1], ["long-name", 22]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    # All rows align to the same width grid.
    assert lines[2].index("1") == lines[3].index("2")


def test_format_table_widths_follow_the_longest_cell():
    text = format_table(["h", "wide-header"], [["cell-longer-than-header", 1]])
    lines = text.splitlines()
    # The separator matches the widest cell of each column exactly.
    widths = [len(seg) for seg in lines[1].split("  ")]
    assert widths == [len("cell-longer-than-header"), len("wide-header")]
    # No trailing whitespace anywhere (byte-stable artifacts).
    assert all(line == line.rstrip() for line in lines)


def test_ascii_series():
    text = ascii_series({"s": [0.5, 0.25]}, [1, 2], title="t")
    assert text.startswith("t")
    assert "0.5" in text and "0.25" in text
