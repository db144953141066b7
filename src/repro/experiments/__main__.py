"""Command-line entry point: regenerate any table or figure, or trace a run.

Examples::

    python -m repro.experiments table3
    python -m repro.experiments figure5 --scale 0.3
    python -m repro.experiments all --write EXPERIMENTS.md
    python -m repro.experiments all --jobs 4        # parallel sweep
    python -m repro.experiments run --workload mdb --technique SC \\
        --threads 8 --trace mdb-sc.chrome.json --metrics mdb-sc.metrics.json

``--jobs N`` pre-computes the artifact's run grid on N worker processes
(results are bit-identical to the sequential sweep) with a per-cell
heartbeat on stderr; ``--cache-dir`` persists completed runs as JSON so
repeat invocations skip simulation.

The ``run`` pseudo-artifact executes one ``(workload, technique,
threads)`` cell with the observability layer attached: ``--trace PATH``
writes the structured event trace (a ``.jsonl`` suffix selects JSON
lines, anything else the Chrome ``trace_event`` format — load it in
Perfetto or ``chrome://tracing``; repeatable for both), and
``--metrics PATH`` dumps the sampled metrics registry
(``--metrics-interval`` model cycles between samples).

The ``crashmatrix`` pseudo-artifact runs fault-injection campaigns
(:mod:`repro.faults`) over every ``workload × technique × fault-model``
combination requested, prints the markdown verdict matrix, optionally
writes the JSON matrix with ``--out``, and exits non-zero if any
injected crash violated FASE atomicity — so CI can gate on it::

    python -m repro.experiments crashmatrix --workloads linked-list \\
        --fault-models clean,torn_line --max-sites 128 --out matrix.json

Crash replays are profilable too: ``--trace``/``--metrics`` attach the
observability layer to the in-process replays (a campaign served whole
from ``--cache-dir`` performs none, leaving both empty).

The ``profile`` pseudo-artifact analyzes a recorded JSONL trace offline
(flush provenance, FASE latency, controller diagnostics — DESIGN.md
§11), prints the markdown profile (``--top-k`` sizes the hottest-lines
table), and optionally writes ``--json`` / ``--html`` reports;
``tracediff`` aligns two traces and reports their deltas under
``--tolerance``::

    python -m repro.experiments profile --trace run.jsonl --html report.html
    python -m repro.experiments tracediff --trace a.jsonl --trace b.jsonl

The ``monitor`` pseudo-artifact watches work live (DESIGN.md §12):
by default it runs an artifact's grid (``--grid``) under a refreshing
terminal dashboard fed by per-cell metric snapshots, with declarative
alert rules (``--rule``, see the grammar in ``repro.obs.live``) writing
a deterministic JSONL alert log; ``--follow PATH`` instead tails a
JSONL trace file as it is written, folding it into a streaming profile
window by window.  ``--once --json`` is the headless/CI form::

    python -m repro.experiments monitor --grid table1 --scale 0.05 --jobs 2 \\
        --once --json --alert-log alerts.jsonl
    python -m repro.experiments monitor --follow run.jsonl --once

The ``history`` pseudo-artifact queries the run ledger — the append-only
provenance store every entry point records into (DESIGN.md §15) —
longitudinally: per-spec ``trend`` timelines with EWMA fits and
changepoints, a ``regress`` gate against the fitted trend (non-zero exit
on a flagged timeline, the CI hook), last-two ``compare`` deltas, and
``flaky`` campaign tracking::

    python -m repro.experiments history --query regress --metric time \\
        --kind run --threshold 15
    python -m repro.experiments history --query trend --kind grid \\
        --metric time --json trend.json --html trend.html
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.cache.spec import TechniqueSpec
from repro.common.errors import ConfigurationError
from repro.experiments.harness import Harness, HarnessConfig
from repro.experiments.report import GENERATORS, generate
from repro.obs.analyze import FAIL_ON_CHOICES


def _heartbeat(done: int, total: int, cell) -> None:
    """The per-cell progress line parallel sweeps print to stderr."""
    name, technique, threads = cell
    print(f"[{done}/{total}] {name}/{technique}/{threads}", file=sys.stderr)


def _write_traces(recorder, paths: Optional[List[str]]) -> None:
    """Export one recorder to every ``--trace`` path: a ``.jsonl``
    suffix selects JSON lines, anything else Chrome ``trace_event``."""
    for path in paths or []:
        if path.endswith(".jsonl"):
            recorder.write_jsonl(path)
        else:
            recorder.write_chrome(path)
        print(f"wrote {path}", file=sys.stderr)


def _run_traced(harness: Harness, args: argparse.Namespace) -> int:
    """The ``run`` pseudo-artifact: one cell with tracing/metrics on."""
    from repro import api

    ledger_artifacts = {}
    for path in args.trace or []:
        ledger_artifacts.setdefault("trace", path)
    if args.metrics:
        ledger_artifacts["metrics"] = args.metrics
    result, recorder, metrics = api.traced_run(
        api.RunSpec(
            workload=args.workload,
            technique=args.technique,
            threads=args.threads,
            scale=args.scale,
            seed=args.seed,
        ),
        harness=harness,
        metrics_interval=args.metrics_interval if args.metrics else None,
        ledger_artifacts=ledger_artifacts or None,
    )
    print(repr(result))
    counts = recorder.counts()
    if counts:
        print("trace events: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    else:
        print("trace events: none")
    sizes = result.selected_sizes
    if any(sizes.values()):
        print(f"selected sizes: {sizes}")
    _write_traces(recorder, args.trace)
    if args.metrics:
        metrics.write_json(args.metrics)
        print(f"wrote {args.metrics}", file=sys.stderr)
    return 0


def _write_report(path: str, text: str) -> None:
    """Deliver one rendered report where its flag points: ``-`` is
    stdout, anything else a file (announced on stderr)."""
    if path == "-":
        sys.stdout.write(text)
        return
    from repro.obs.report import write_text

    write_text(path, text)
    print(f"wrote {path}", file=sys.stderr)


def _run_profile(args: argparse.Namespace) -> int:
    """The ``profile`` pseudo-artifact: offline trace analytics."""
    import json

    from repro.obs import analyze, read_jsonl
    from repro.obs import report as obs_report

    from repro.obs.analyze import AnalyzerConfig, max_severity, severity_gate

    if not args.trace or len(args.trace) != 1:
        print("profile needs exactly one --trace PATH (a .jsonl trace)",
              file=sys.stderr)
        return 2
    if args.top_k < 1:
        print("--top-k must be >= 1", file=sys.stderr)
        return 2
    path = args.trace[0]
    profile = analyze(read_jsonl(path), AnalyzerConfig(top_k=args.top_k))
    metrics_doc = None
    if args.metrics:
        with open(args.metrics, "r", encoding="utf-8") as fh:
            metrics_doc = json.load(fh)
    # With ``--json -`` stdout carries the machine-readable document, so
    # the human-readable report moves to stderr to keep stdout parseable.
    report_stream = sys.stderr if args.json_out == "-" else sys.stdout
    print(
        obs_report.render_markdown(profile, title=f"Trace profile: {path}"),
        file=report_stream,
    )
    if args.json_out:
        _write_report(args.json_out, profile.to_json())
    if args.html:
        _write_report(
            args.html,
            obs_report.render_html(
                profile, title=f"Trace profile: {path}", metrics_doc=metrics_doc
            ),
        )

    # Register the analysis in the run ledger, keyed by the trace it
    # read: `history regress` joins a flagged run to this record through
    # the shared trace path, pointing straight at the profile reports.
    from repro.obs.ledger import record_run

    artifacts = {"trace": path}
    if args.json_out and args.json_out != "-":
        artifacts["profile_json"] = args.json_out
    if args.html:
        artifacts["profile_html"] = args.html
    record_run(
        "profile",
        {"artifact": "profile", "trace": path, "top_k": args.top_k},
        {"diagnoses": len(profile.diagnoses)},
        profile={"max_severity": max_severity(profile.diagnoses)},
        artifacts=artifacts,
    )
    return severity_gate(max_severity(profile.diagnoses), args.fail_on)


def _run_tracediff(args: argparse.Namespace) -> int:
    """The ``tracediff`` pseudo-artifact: cross-run profile deltas."""
    import json

    from repro.obs import DiffTolerances, analyze, diff_profiles, read_jsonl
    from repro.obs import report as obs_report

    if not args.trace or len(args.trace) != 2:
        print("tracediff needs exactly two --trace PATH arguments",
              file=sys.stderr)
        return 2
    path_a, path_b = args.trace
    diff = diff_profiles(
        analyze(read_jsonl(path_a)),
        analyze(read_jsonl(path_b)),
        DiffTolerances(ratio_pct=args.tolerance),
    )
    print(
        obs_report.render_diff_text(diff, label_a=path_a, label_b=path_b),
        file=sys.stderr if args.json_out == "-" else sys.stdout,
    )
    if args.json_out:
        _write_report(args.json_out, json.dumps(diff, sort_keys=True, indent=1) + "\n")
    if args.html:
        _write_report(
            args.html, obs_report.render_diff_html(diff, label_a=path_a, label_b=path_b)
        )
    if diff["verdict"] == "incomparable":
        return 2
    return 0 if diff["verdict"] == "ok" else 1


def _run_crashmatrix(args: argparse.Namespace) -> int:
    """The ``crashmatrix`` pseudo-artifact: fault-injection campaigns."""
    import json

    from repro import api

    workloads = [w for w in args.workloads.split(",") if w]
    techniques = [t for t in args.techniques.split(",") if t]
    models = tuple(m for m in args.fault_models.split(",") if m)
    faults = api.FaultSpec(
        fault_models=models,
        max_sites=args.max_sites,
        sample_seed=args.sample_seed,
        jobs=args.jobs,
    )
    recorder = None
    if args.trace:
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder()
    metrics = None
    if args.metrics:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry(interval=args.metrics_interval)

    matrices = []
    for workload in workloads:
        for technique in techniques:
            spec = api.RunSpec(
                workload=workload,
                technique=technique,
                threads=args.threads,
                scale=args.scale,
                seed=args.seed,
            )
            matrix = api.campaign(
                spec,
                faults,
                cache_dir=args.cache_dir,
                recorder=recorder,
                metrics=metrics,
                progress=lambda done, total: print(
                    f"[{done}/{total}] {workload}/{technique}", file=sys.stderr
                ),
            )
            matrices.append(matrix)
            print(matrix.to_markdown())
            print()

    if args.out:
        payload = [m.to_dict() for m in matrices]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload[0] if len(payload) == 1 else payload, fh, indent=2)
        print(f"wrote {args.out}", file=sys.stderr)
    _write_traces(recorder, args.trace)
    if metrics is not None:
        metrics.write_json(args.metrics)
        print(f"wrote {args.metrics}", file=sys.stderr)

    violated = sum(len(m.violations) for m in matrices)
    total = sum(m.injected for m in matrices)

    # One ledger record for the whole invocation, linking the files it
    # wrote (the per-campaign records land via run_campaign): the
    # artifact-level summary `history` joins regressions against.
    from repro.obs.ledger import record_run

    artifacts = {}
    if args.out:
        artifacts["matrix"] = args.out
    for path in args.trace or []:
        artifacts.setdefault("trace", path)
    if args.metrics:
        artifacts["metrics"] = args.metrics
    record_run(
        "crashmatrix",
        {
            "artifact": "crashmatrix",
            "workloads": workloads,
            "techniques": [str(TechniqueSpec.parse(t)) for t in techniques],
            "fault_models": list(models),
            "max_sites": args.max_sites,
            "sample_seed": args.sample_seed,
            "threads": args.threads,
            "scale": args.scale,
            "seed": args.seed,
        },
        {"injected": total, "violated": violated, "ok": not violated},
        artifacts=artifacts,
    )
    if violated:
        print(
            f"FAILED: {violated} violation(s) across {total} injected crashes",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {total} injected crashes, zero violations", file=sys.stderr)
    return 0


def _run_history(args: argparse.Namespace) -> int:
    """The ``history`` pseudo-artifact: longitudinal ledger queries.

    Exit codes: 0 clean, 1 when the query flagged something (a
    regression finding, a changepoint, a drifted compare, a flaky
    campaign), 2 when there is nothing to query.
    """
    import json

    from repro.obs import history as hist
    from repro.obs import report as obs_report
    from repro.obs.ledger import RunLedger, default_ledger_path

    root = args.ledger or default_ledger_path()
    if root is None:
        print(
            "history: recording is disabled (REPRO_LEDGER=off); "
            "pass --ledger DIR",
            file=sys.stderr,
        )
        return 2
    ledger = RunLedger(root)

    if args.query == "trend":
        lines = hist.trend(
            ledger,
            args.metric,
            kind=args.kind,
            spec_filter=args.spec,
            limit=args.limit,
            min_shift_pct=args.threshold,
        )
        doc = {
            "query": "trend",
            "metric": args.metric,
            "lines": [line.to_dict() for line in lines],
            "ok": not any(line.changepoint for line in lines),
        }
    elif args.query == "regress":
        doc = hist.regress(
            ledger,
            args.metric,
            kind=args.kind,
            spec_filter=args.spec,
            threshold_pct=args.threshold,
            direction=args.direction,
            limit=args.limit,
        )
        doc["query"] = "regress"
    elif args.query == "compare":
        doc = hist.compare(ledger, kind=args.kind, spec_filter=args.spec)
        doc["query"] = "compare"
    else:
        doc = hist.flaky(
            ledger, kind=args.kind or "campaign", spec_filter=args.spec
        )
        doc["query"] = "flaky"
    if ledger.skipped_lines:
        doc["skipped_lines"] = ledger.skipped_lines

    report_stream = sys.stderr if args.json_out == "-" else sys.stdout
    print(obs_report.render_history_text(doc), file=report_stream, end="")
    title = f"Run history: {args.query}"
    if args.json_out:
        _write_report(args.json_out, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    if args.md:
        _write_report(args.md, obs_report.render_history_markdown(doc, title=title))
    if args.html:
        _write_report(args.html, obs_report.render_history_html(doc, title=title))
    return 0 if doc.get("ok", True) else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (see module docstring); returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the simulator.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(GENERATORS)
        + [
            "all",
            "crashmatrix",
            "history",
            "monitor",
            "profile",
            "run",
            "tracediff",
        ],
        help="which table/figure to regenerate, 'run' for one traced "
        "cell, 'crashmatrix' for fault-injection campaigns, 'profile' "
        "to analyze a recorded trace, 'tracediff' to compare two, "
        "'monitor' to watch a grid or trace live, or 'history' to "
        "query the run ledger's longitudinal record",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload problem-size multiplier (default 1.0)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the run grid (default 1 = in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist run results as JSON under DIR (e.g. .cache)",
    )
    parser.add_argument(
        "--write",
        nargs="?",
        const="EXPERIMENTS.md",
        default=None,
        metavar="PATH",
        help="with 'all': also write the EXPERIMENTS.md report",
    )
    parser.add_argument(
        "--svg",
        default=None,
        metavar="DIR",
        help="also render the figure's chart(s) as SVG into DIR",
    )
    tracing = parser.add_argument_group("'run' (traced single cell)")
    tracing.add_argument(
        "--workload", default="mdb", help="workload name (default mdb)"
    )
    tracing.add_argument(
        "--technique",
        default="SC",
        help="technique spec: a base (ER, LA, AT, SC, SC-offline, BEST) "
        "optionally composed with the victim stage, e.g. "
        "SC+victim:16 (default SC)",
    )
    tracing.add_argument(
        "--threads", type=int, default=1, help="simulated threads (default 1)"
    )
    tracing.add_argument(
        "--trace",
        action="append",
        metavar="PATH",
        help="write the structured trace; '.jsonl' suffix selects JSON "
        "lines, anything else Chrome trace_event (Perfetto); repeatable",
    )
    tracing.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="'run'/'crashmatrix': dump the sampled metrics registry as "
        "JSON; 'profile': read such a dump and chart it in the report",
    )
    tracing.add_argument(
        "--metrics-interval",
        type=int,
        default=10_000,
        metavar="N",
        help="model cycles between metric samples (default 10000)",
    )
    analytics = parser.add_argument_group("'profile' / 'tracediff' (analytics)")
    analytics.add_argument(
        "--json",
        dest="json_out",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write the profile/diff/monitor summary as deterministic "
        "JSON; bare --json (or PATH '-') means stdout",
    )
    analytics.add_argument(
        "--top-k",
        type=int,
        default=10,
        metavar="K",
        help="'profile': hottest-flushed-lines table length (default 10)",
    )
    analytics.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="write the self-contained HTML report",
    )
    analytics.add_argument(
        "--fail-on",
        choices=FAIL_ON_CHOICES,
        default="error",
        help="'profile'/'monitor': exit non-zero on a diagnosis or alert "
        "at or above this severity (default error)",
    )
    analytics.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        metavar="PCT",
        help="'tracediff': allowed relative drift in percent (default 0.5)",
    )
    crash = parser.add_argument_group("'crashmatrix' (fault injection)")
    crash.add_argument(
        "--workloads",
        default="linked-list,hash",
        metavar="A,B",
        help="comma-separated workload names (default linked-list,hash)",
    )
    crash.add_argument(
        "--techniques",
        default="SC",
        metavar="A,B",
        help="comma-separated technique specs, composed stages allowed, "
        "e.g. SC,SC+victim:4 (default SC)",
    )
    crash.add_argument(
        "--fault-models",
        default="clean",
        metavar="A,B",
        help="comma-separated fault models: clean, torn_line, "
        "reordered_flush (default clean)",
    )
    crash.add_argument(
        "--max-sites",
        type=int,
        default=256,
        metavar="N",
        help="sample above N injectable sites per campaign (default 256)",
    )
    crash.add_argument(
        "--sample-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the strided site sampler (default 0)",
    )
    crash.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the crash matrix (or list of matrices) as JSON",
    )
    ledger = parser.add_argument_group("'history' (run-ledger queries)")
    ledger.add_argument(
        "--query",
        choices=["trend", "compare", "regress", "flaky"],
        default="trend",
        help="which longitudinal question to answer (default trend)",
    )
    ledger.add_argument(
        "--ledger",
        default=None,
        metavar="DIR",
        help="ledger root (default: $REPRO_LEDGER, else .ledger)",
    )
    ledger.add_argument(
        "--metric",
        default="time",
        metavar="NAME",
        help="dotted metric path for trend/regress; bare names resolve "
        "under counters first (default time)",
    )
    ledger.add_argument(
        "--kind",
        default=None,
        metavar="KIND",
        help="restrict to one record kind (run, traced_run, grid, "
        "campaign, ...)",
    )
    ledger.add_argument(
        "--spec",
        default=None,
        metavar="FILTER",
        help="restrict to timelines matching a spec-sha prefix, label "
        "substring, or spec-JSON substring",
    )
    ledger.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="regress/trend: deviation (changepoint shift) percent that "
        "flags a timeline (default 10)",
    )
    ledger.add_argument(
        "--direction",
        choices=["auto", "up", "down"],
        default="auto",
        help="regress: which way the metric regresses (default auto: "
        "inferred from the metric name)",
    )
    ledger.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="use only the newest N records of each timeline",
    )
    ledger.add_argument(
        "--md",
        default=None,
        metavar="PATH",
        help="write the query result as a markdown report",
    )
    mon = parser.add_argument_group("'monitor' (live telemetry)")
    mon.add_argument(
        "--grid",
        default="table1",
        metavar="ARTIFACT",
        help="grid mode: which artifact's run grid to execute and watch "
        "(default table1)",
    )
    mon.add_argument(
        "--follow",
        default=None,
        metavar="PATH",
        help="follow mode: tail a JSONL trace file being written "
        "instead of running a grid",
    )
    mon.add_argument(
        "--once",
        action="store_true",
        help="headless: process what is available, render once, exit",
    )
    mon.add_argument(
        "--refresh",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between dashboard redraws (default 1.0)",
    )
    mon.add_argument(
        "--rule",
        action="append",
        metavar="RULE",
        help="alert rule 'name: metric > value [@severity]' (also "
        "rate(metric) / sustained(metric, N)); repeatable; a name "
        "matching a default rule overrides it",
    )
    mon.add_argument(
        "--alert-log",
        default=None,
        metavar="PATH",
        help="append fired alerts to PATH as deterministic JSONL",
    )
    mon.add_argument(
        "--window",
        type=int,
        default=100_000,
        metavar="CYCLES",
        help="follow mode: streaming-profile window length in model "
        "cycles (default 100000)",
    )
    mon.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="follow mode: stop after this long with no new trace bytes "
        "(default: follow until interrupted)",
    )
    args = parser.parse_args(argv)

    # Validate technique specs and the worker count up front, before any
    # simulation starts, so a typo in a composed spec fails in
    # milliseconds with the parser's precise message (naming the bad
    # stage or parameter) rather than deep inside a worker process.
    try:
        if args.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
        TechniqueSpec.parse(args.technique)
        for entry in args.techniques.split(","):
            if entry:
                TechniqueSpec.parse(entry)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    start = time.time()
    if args.artifact == "monitor":
        from repro.experiments.monitor import run_monitor

        return run_monitor(
            args,
            lambda: Harness(
                HarnessConfig(scale=args.scale, seed=args.seed),
                cache_dir=args.cache_dir,
            ),
        )
    if args.artifact == "history":
        return _run_history(args)
    if args.artifact in ("profile", "tracediff"):
        offline = _run_profile if args.artifact == "profile" else _run_tracediff
        try:
            return offline(args)
        except ConfigurationError as exc:
            # A trace this build cannot read (other schema, headerless,
            # malformed line): the decoder's message names the line.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.artifact == "crashmatrix":
        try:
            rc = _run_crashmatrix(args)
        except ConfigurationError as exc:
            # No, repeated or unknown fault models; a payload-free stream.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"\n[{time.time() - start:.1f}s]", file=sys.stderr)
        return rc
    harness = Harness(
        HarnessConfig(scale=args.scale, seed=args.seed),
        cache_dir=args.cache_dir,
    )
    if args.artifact == "run":
        rc = _run_traced(harness, args)
        print(f"\n[{time.time() - start:.1f}s]", file=sys.stderr)
        return rc
    if args.jobs > 1:
        from repro.experiments.parallel import grid_for

        cells = grid_for(harness, args.artifact)
        if cells:
            grid_start = time.time()
            harness.run_grid(cells, jobs=args.jobs, progress=_heartbeat)
            print(
                f"[grid: {len(cells)} cells on {args.jobs} workers in "
                f"{time.time() - grid_start:.1f}s]",
                file=sys.stderr,
            )
    if args.artifact == "all":
        body = generate(harness, write_path=args.write, svg_dir=args.svg)
        print(body)
    else:
        art = GENERATORS[args.artifact](harness)
        print(art.title)
        print()
        print(art.text)
        if args.svg and args.artifact.startswith("figure"):
            from repro.experiments.plots import write_artifact_svgs

            for path in write_artifact_svgs(art, args.svg):
                print(f"wrote {path}", file=sys.stderr)
    print(f"\n[{time.time() - start:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
