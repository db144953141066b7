"""Command line: ``run``, ``repeat`` and ``regolden``.

``run`` is the one command that prints every metric by name with its
unit, checks the outputs and exits non-zero on a failed check.  Its last
stdout line is one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

from perfbench import checks
from perfbench.core import (
    DEV_SEED,
    Clock,
    ROOT,
    Spans,
    adopt_orphans,
    host_info,
    measure_passes,
    measure_setup,
    median,
    metric,
    peak_rss_mib,
    percentile,
    scratch_dir,
    stop_processes,
)
from perfbench.crash import CrashCampaign
from perfbench.grids import MdbKv, MicroPerEvent, SplashBatched
from perfbench.offline import LocalityOffline

WORKLOADS = {
    cls.name: cls
    for cls in (SplashBatched, MicroPerEvent, MdbKv, LocalityOffline, CrashCampaign)
}

#: Share of the measuring window a traced run spends on plain passes
#: (the baseline ``bench.layer_run_overhead_ratio`` divides by).
TRACED_PLAIN_SHARE = 0.3

CAVEATS = (
    "ref_host_* units (and setup_s) are host time scaled to reference host "
    "speed by the interleaved calibration kernel; host_* units are raw wall "
    "time on this machine; sim_* units are simulated (deterministic) and must "
    "repeat exactly",
    "simulated statistics start from empty modelled caches",
    "the SPLASH2 stand-ins are calibrated from the paper's ratios, so "
    "sim.flush_ratio_mae_vs_paper is in-sample on splash_batched and the "
    "held-back check on micro_per_event and mdb_kv",
    "a per-layer value of 0 means the workload does not exercise that layer",
)


def load_manifest() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_repro() -> float:
    """Import the program under test; return the host seconds it took."""
    start = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.experiments.tables  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.locality  # noqa: F401
    import repro.obs.live  # noqa: F401

    return time.perf_counter() - start


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict:
    """One run of one workload; returns the output document."""
    manifest = load_manifest()
    host = host_info()
    if host["loadavg_1m"] is not None and host["loadavg_1m"] > host["nproc"]:
        print(
            f"perfbench: warning: 1-minute load average {host['loadavg_1m']:.2f} "
            f"exceeds nproc {host['nproc']}; host times will be noisy",
            file=sys.stderr,
        )
    previous_ledger = os.environ.get("REPRO_LEDGER")
    with scratch_dir() as tmp:
        # Default-on ledger recording is what users pay, so it stays on,
        # pointed at a directory that goes away with the run.
        os.environ["REPRO_LEDGER"] = os.path.join(tmp, "ledger")
        try:
            return _run_one(manifest, host, name, seed, seconds, trace, quick)
        finally:
            if previous_ledger is None:
                del os.environ["REPRO_LEDGER"]
            else:
                os.environ["REPRO_LEDGER"] = previous_ledger


def _run_one(manifest, host, name, seed, seconds, trace, quick) -> Dict:
    import_s = import_repro()
    workload = WORKLOADS[name](seed, quick)
    state, setups = measure_setup(workload)
    window = seconds * TRACED_PLAIN_SHARE if trace else seconds
    passes, first, ops, mismatches = measure_passes(workload, state, window)
    pass_s = median(passes.ref_s)

    report = workload.check(state, first.results)
    failures = list(report.failures)
    if mismatches or len(set(map(len, ops))) != 1:
        failures.append("passes did not all produce the same results")
    golden_checked = seed == DEV_SEED and not quick
    if golden_checked:
        failures += checks.golden_failures(name, first.results)

    doc = {
        "benchmark": "perfbench",
        "workload": name,
        "work_unit": workload.work_unit,
        "seed": seed,
        "comparable": not quick,
        "trace": int(trace),
        "host": host,
        "import_s": import_s,
        "setup_raw_s": setups.raw_s,
        "setup_ref_s": setups.ref_s,
        "passes": len(passes.raw_s),
        "pass_raw_s": passes.raw_s,
        "pass_ref_s": passes.ref_s,
        "op_samples": sum(map(len, ops)),
        "golden_checked": golden_checked,
        "caveats": list(CAVEATS),
    }
    if trace:
        spans = Spans()
        measured = workload.simulated(state, first.results)
        measured.update(
            workload.layers(state, first.results, spans, median(passes.raw_s))
        )
        pooled = [1e3 * s for per_pass in ops for s in per_pass]
        measured["bench.op_ms_p50"] = metric(median(pooled), "ref_host_ms/op")
        measured["bench.op_ms_p99"] = metric(percentile(pooled, 0.99), "ref_host_ms/op")
        declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        undeclared = sorted(set(measured) - set(declared))
        if undeclared:
            raise KeyError(f"metrics not declared in BENCHMARK.json: {undeclared}")
        metrics = {
            key: measured.get(key, metric(0, unit)) for key, unit in declared.items()
        }
        doc["spans"] = spans.rows
    else:
        metrics = {
            "setup_s": metric(median(setups.ref_s), "s"),
            "pass_s": metric(pass_s, "ref_host_s"),
            "work_per_s": metric(first.work / pass_s, "1/ref_host_s"),
            # Every pass runs the same operations in the same order, so
            # each operation's latency is its median over the passes (a
            # burst of host noise hits different operations in different
            # passes); the tail is then taken across operations.
            "op_p99_ms": metric(
                1e3 * percentile([median(same_op) for same_op in zip(*ops)], 0.99),
                "ref_host_ms",
            ),
            "peak_rss_mb": metric(peak_rss_mib(), "MiB"),
        }
    attempted = max(1, report.attempted * len(passes.raw_s))
    doc.update(
        correct=not failures,
        attempted=attempted,
        failed=min(attempted, len(failures)),
        failures=failures[:50],
        metrics=metrics,
    )
    return doc


def print_doc(doc: Dict) -> None:
    host = doc["host"]
    print(
        f"# perfbench {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
        f"comparable={str(doc['comparable']).lower()} passes={doc['passes']} "
        f"op_samples={doc['op_samples']}"
    )
    print(
        f"# python {host['python']} on {host['platform']}; "
        f"cpus_available={host['cpus_available']} nproc={host['nproc']} "
        f"load_1m={host['loadavg_1m']}"
    )
    print(f"# work unit: {doc['work_unit']}; import_s={doc['import_s']:.3f}")
    for key in ("pass_raw_s", "pass_ref_s"):
        print(f"# {key}: " + " ".join(f"{t:.4f}" for t in doc[key]))
    for caveat in doc["caveats"]:
        print(f"# note: {caveat}")
    for failure in doc["failures"]:
        print(f"# FAILED: {failure}")
    width = max(len(k) for k in doc["metrics"])
    for key, m in doc["metrics"].items():
        print(f"{key:<{width}}  {m['value']:.6g}  {m['unit']}")
    print(
        json.dumps(
            {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )


def run_child(workload: str, args, trace: int) -> Optional[Dict]:
    """Run one workload in its own process (peak RSS and imports are
    per-process); echo its output and return its result line."""
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "run",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def cmd_run(args) -> int:
    if args.all:
        results = [
            run_child(name, args, trace) for name in WORKLOADS for trace in (0, 1)
        ]
        return 0 if all(r is not None and r["correct"] for r in results) else 1
    if args.workload is None:
        print("perfbench run: --workload or --all is required", file=sys.stderr)
        return 2
    doc = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print_doc(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if doc["correct"] else 1


def cmd_repeat(args) -> int:
    """The noise self-test: ``--sets`` runs of every workload in
    alternating order; fails when two sets of the same code disagree by
    more than a metric's own bound."""
    bounds = {m["name"]: m["bound"] for m in load_manifest()["end_to_end"]}
    values: Dict[tuple, List[float]] = {}
    ok = True
    for i in range(args.sets):
        order = list(WORKLOADS) if i % 2 == 0 else list(reversed(WORKLOADS))
        for name in order:
            result = run_child(name, args, trace=0)
            if result is None or not result["correct"]:
                ok = False
                continue
            for key, m in result["metrics"].items():
                values.setdefault((name, key), []).append(m["value"])
    print(f"\n{'workload':<18}{'metric':<14}" + "values".ljust(14 * args.sets) + "gap     bound")
    for (name, key), vals in values.items():
        gap = (max(vals) - min(vals)) / vals[0]
        verdict = "" if gap <= bounds[key] else "  EXCEEDED"
        ok = ok and not verdict
        print(
            f"{name:<18}{key:<14}"
            + "".join(f"{v:<14.6g}" for v in vals)
            + f"{gap:<8.4f}{bounds[key]:<6}{verdict}"
        )
    return 0 if ok else 1


def cmd_regolden(args) -> int:
    os.environ["REPRO_LEDGER"] = "off"
    for name in [args.workload] if args.workload else list(WORKLOADS):
        workload = WORKLOADS[name](DEV_SEED, quick=False)
        results = workload.run_pass(workload.setup(), Clock()).results
        try:
            print("wrote", checks.write_golden(name, results, args.force))
        except FileExistsError as exc:
            print(f"perfbench regolden: {exc}", file=sys.stderr)
            return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p) -> None:
        p.add_argument("--seed", type=int, default=DEV_SEED)
        p.add_argument(
            "--seconds", type=float, default=None,
            help="measuring window (default: run_seconds of BENCHMARK.json)",
        )
        p.add_argument(
            "--quick", action="store_true",
            help="shrunken scales for smoke tests; output is not comparable",
        )

    run = sub.add_parser("run", help="run one workload (or --all)")
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--all", action="store_true", help="every workload, both modes")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--layers", dest="trace", action="store_const", const=1)
    run.add_argument("--out", help="write the full output document here")
    common(run)
    run.set_defaults(func=cmd_run)

    repeat = sub.add_parser("repeat", help="noise self-test over every workload")
    repeat.add_argument("--sets", type=int, default=2)
    common(repeat)
    repeat.set_defaults(func=cmd_repeat)

    regolden = sub.add_parser("regolden", help="rewrite golden/<workload>.json")
    regolden.add_argument("--workload", choices=sorted(WORKLOADS))
    regolden.add_argument("--force", action="store_true")
    regolden.set_defaults(func=cmd_regolden)

    args = parser.parse_args(argv)
    if getattr(args, "seconds", 0) is None:
        args.seconds = 1.0 if args.quick else float(load_manifest()["run_seconds"])
    # Whatever path leads out of here, no process this run started is left.
    adopt_orphans()
    try:
        return args.func(args)
    finally:
        stop_processes()
