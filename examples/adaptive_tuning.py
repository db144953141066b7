"""Watching the adaptive cache tune itself — and why one size never fits.

Two workloads with very different write locality run under (a) the fixed
8-entry Atlas table, (b) the software cache pinned at the default size 8,
and (c) the full adaptive software cache.  The adaptive runs print the
size each thread's controller selected from its bursty-sampled MRC —
§IV-G's "no one-fits-for-all solution" in action.

Usage::

    python examples/adaptive_tuning.py
"""

from repro.cache.adaptive import AdaptiveConfig
from repro.cache.spec import technique_factory
from repro.nvram.machine import Machine, MachineConfig
from repro.workloads.generators import TilePatternConfig, TilePatternWorkload


def run(workload, technique, **kwargs):
    # These workloads are ad-hoc objects with hand-picked technique
    # knobs, so they use the low-level Machine API directly; registry
    # workloads go through repro.api.run (see examples/quickstart.py).
    machine = Machine(MachineConfig())
    return machine.run(
        workload, technique_factory(technique, **kwargs), num_threads=1, seed=0
    )


def main() -> None:
    # Two programs: one cycles tight 4-line tiles, one sweeps 30-line
    # tiles - their best cache sizes differ by nearly an order.
    workloads = {
        "tight-loops (4-line tiles)": TilePatternWorkload(
            "tight",
            TilePatternConfig(
                tile_lines=4, burst=4, passes=10, tiles_per_fase=8, num_fases=20
            ),
        ),
        "wide-sweeps (30-line tiles)": TilePatternWorkload(
            "wide",
            TilePatternConfig(
                tile_lines=30, burst=4, passes=10, tiles_per_fase=2, num_fases=20
            ),
        ),
    }

    adaptive = AdaptiveConfig(burst_length=8_192)
    for label, workload in workloads.items():
        print(f"== {label} ==")
        at = run(workload, "AT")
        fixed = run(workload, "SC-offline", sc_fixed_size=8)
        sc = run(workload, "SC", adaptive_config=adaptive)
        chosen = sc.selected_sizes[0]
        print(f"  Atlas 8-entry table : flush ratio {at.flush_ratio:.4f}")
        print(f"  SC pinned at 8      : flush ratio {fixed.flush_ratio:.4f}")
        print(
            f"  SC adaptive         : flush ratio {sc.flush_ratio:.4f}, "
            f"selected size {chosen}, "
            f"adaptation cost {sc.threads[0].adaptation_cycles} cycles"
        )
        improvement = at.flush_ratio / sc.flush_ratio if sc.flush_ratio else float("inf")
        print(f"  -> {improvement:.1f}x fewer flushes than the Atlas table\n")

    print(
        "The tight program is served by a small cache; the wide one needs"
        "\n~30 entries - the knee the controller finds from one sampled"
        "\nburst, without profiling runs."
    )


if __name__ == "__main__":
    main()
