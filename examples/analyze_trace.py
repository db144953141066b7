"""Using the locality toolkit on an external write trace.

A program outside the simulator (a Pin tool, an instrumented run, a
production log) can dump its persistent writes as text — one
``address [fase_id]`` per line — and get the paper's full pipeline:
linear-time MRC, knee selection, and the exact stack-distance
cross-check.  The same analysis is available from the shell::

    python -m repro.locality mytrace.txt --text --mrc

This example fabricates such a trace (a blocked matrix-style kernel
with 18-line tiles inside small FASEs), writes it to a temp file, and
analyses it.
"""

import os
import tempfile

from repro.locality.traceio import analyze, format_analysis, load_text_trace


def fabricate_trace(path: str) -> None:
    """A blocked kernel: 18-line tiles swept 6 times, 4 FASEs."""
    base = 0x2000_0000
    with open(path, "w") as fh:
        fh.write("# synthetic blocked-kernel write trace\n")
        for fase in range(4):
            for tile in range(3):
                tile_base = base + (fase * 3 + tile) * 18 * 64
                for _sweep in range(6):
                    for line in range(18):
                        for word in range(4):      # 4 writes per line
                            addr = tile_base + line * 64 + word * 8
                            fh.write(f"{addr:#x} {fase}\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kernel.txt")
        fabricate_trace(path)
        print(f"trace written to a temp file, {os.path.basename(path)}\n")

        trace = load_text_trace(path)
        summary = analyze(trace)
        print(format_analysis(summary))

        print(
            "\nReading the result: the knee should sit at ~18 (the tile),"
            "\nthe theory and exact-LRU miss ratios at the selected size"
            "\nshould agree, and a cache of the default size 8 should be"
            "\nfar worse - which is exactly why the paper adapts the size."
        )
        assert abs(summary["selected_size"] - 18) <= 2
        assert summary["miss_ratio_at_selected"] < summary["miss_ratio_at_default"] / 3


if __name__ == "__main__":
    main()
