"""Quickstart: write caching for NVRAM persistence in five minutes.

Runs one workload under the paper's six persistence techniques through
the typed :mod:`repro.api` facade and prints the two quantities
everything else derives from: the data flush ratio and the model
execution time.  A final step crash-tests the same configuration with
the fault-injection campaign and its recovery oracle.

Usage::

    python examples/quickstart.py
"""

from repro import api
from repro.cache.policies import TECHNIQUES
from repro.locality.knee import find_knees, select_cache_size
from repro.locality.mrc import mrc_from_trace


def main() -> None:
    # One spec describes the whole configuration: workload, technique,
    # machine knobs.  Everything below reuses it.
    spec = api.RunSpec(workload="water-spatial", technique="SC", scale=0.25)
    harness = api.harness_for(spec)

    # Step 1 - profile: the program's persistent-write trace, read off
    # its event columns (the paper's instrumentation pass; nothing is
    # simulated).
    trace = harness.trace(spec.workload)
    print(f"trace: {trace.n} persistent writes, {trace.m} distinct lines\n")

    # Step 2 - the paper's locality theory: a miss-ratio curve for every
    # cache size at once, in linear time, then knee selection.
    mrc = mrc_from_trace(trace)
    size = select_cache_size(mrc)
    print(f"candidate knees : {[k.size for k in find_knees(mrc)]}")
    print(f"selected size   : {size} (the paper picks 23 for this program)\n")

    # Step 3 - compare the six techniques of the evaluation.  api.run
    # resolves each spec through the shared harness, so SC's sampler and
    # SC-offline's fixed size are configured exactly as the paper's
    # experiments do.
    print(f"{'technique':12s} {'flush ratio':>12s} {'time (Mcycles)':>15s}")
    baseline = None
    for name in TECHNIQUES:
        result = api.run(
            api.RunSpec(workload=spec.workload, technique=name, scale=spec.scale),
            harness=harness,
        )
        if name == "ER":
            baseline = result.time
        speedup = f"({baseline / result.time:4.1f}x over ER)" if baseline else ""
        print(
            f"{name:12s} {result.flush_ratio:12.5f} "
            f"{result.time / 1e6:15.2f} {speedup}"
        )
    print(
        "\nThe software cache (SC) should sit near the lazy bound (LA) in"
        "\nflushes while approaching BEST in time - the paper's headline."
    )

    # Step 4 - crash the configuration at every injectable point (up to
    # the sampling cap) and let the recovery oracle verify FASE
    # atomicity held.
    matrix = api.campaign(
        api.RunSpec(workload="linked-list", technique="SC", scale=0.05),
        api.FaultSpec(max_sites=64),
    )
    print()
    print(matrix.to_markdown())


if __name__ == "__main__":
    main()
