"""Command-line entry point: ``python -m repro.experiments <command>``.

Every command is a subparser that owns its flags; ``<command> --help``
describes the command and lists them.
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
    """The per-cell progress line a grid prints to stderr."""
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


def _harness(args: argparse.Namespace) -> Harness:
    """The harness the ``--scale/--seed/--cache-dir`` flags configure."""
    return Harness(
        HarnessConfig(scale=args.scale, seed=args.seed), cache_dir=args.cache_dir
    )


def _run_artifact(args: argparse.Namespace) -> int:
    """A table or figure command, or ``all``: its run grid, then the render."""
    from repro.experiments.parallel import grid_for

    start = time.time()
    harness = _harness(args)
    harness.run_grid(grid_for(harness, args.command), jobs=args.jobs, progress=_heartbeat)
    svg_dir = getattr(args, "svg", None)
    if args.command == "all":
        print(generate(harness, write_path=args.write, svg_dir=svg_dir, started=start))
    else:
        art = GENERATORS[args.command](harness)
        print(art.title)
        print()
        print(art.text)
        if svg_dir:
            from repro.experiments.plots import write_artifact_svgs

            for path in write_artifact_svgs(art, svg_dir):
                print(f"wrote {path}", file=sys.stderr)
    corrupt = harness.take_corrupt_entries()
    if corrupt:
        print(f"cache: recomputed {corrupt} corrupt entr{'y' if corrupt == 1 else 'ies'} "
              f"under {args.cache_dir}", file=sys.stderr)
    print(f"\n[{time.time() - start:.1f}s]", file=sys.stderr)
    return 0


def _run_traced(args: argparse.Namespace) -> int:
    """The ``run`` command: one cell with tracing/metrics on."""
    from repro import api

    start = time.time()
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
        cache_dir=args.cache_dir,
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
    # The trace must count what the run counted: any mismatch is a bug
    # in the recorder, the analyzer or the machine.
    from repro.obs.analyze import analyze, reconcile

    problems = reconcile(analyze(recorder), result)
    for problem in problems:
        print(f"reconcile: {problem}", file=sys.stderr)
    print(f"\n[{time.time() - start:.1f}s]", file=sys.stderr)
    return 1 if problems else 0


def _write_report(path: str, text: str) -> None:
    """Deliver one rendered report where its flag points: ``-`` is
    stdout, anything else a file (announced on stderr)."""
    if path == "-":
        sys.stdout.write(text)
        return
    from repro.obs.render import write_text

    write_text(path, text)
    print(f"wrote {path}", file=sys.stderr)


def _run_profile(args: argparse.Namespace) -> int:
    """The ``profile`` command: offline trace analytics."""
    import json

    from repro.obs import analyze, read_jsonl, render

    from repro.obs.analyze import max_severity, severity_gate

    if not args.trace or len(args.trace) != 1:
        print("profile needs exactly one --trace PATH (a .jsonl trace)",
              file=sys.stderr)
        return 2
    if args.top_k < 1:
        print("--top-k must be >= 1", file=sys.stderr)
        return 2
    path = args.trace[0]
    profile = analyze(read_jsonl(path), args.top_k)
    metrics_doc = None
    if args.metrics:
        with open(args.metrics, "r", encoding="utf-8") as fh:
            metrics_doc = json.load(fh)
    # With ``--json -`` stdout carries the machine-readable document, so
    # the human-readable report moves to stderr to keep stdout parseable.
    report_stream = sys.stderr if args.json_out == "-" else sys.stdout
    print(
        render.render_markdown(profile, title=f"Trace profile: {path}"),
        file=report_stream,
    )
    if args.json_out:
        _write_report(args.json_out, profile.to_json())
    if args.html:
        _write_report(
            args.html,
            render.render_html(
                profile, title=f"Trace profile: {path}", metrics_doc=metrics_doc
            ),
        )

    # Register the analysis in the run ledger, keyed by the trace it
    # read, with the paths of the reports it wrote.
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


def _run_crashmatrix(args: argparse.Namespace) -> int:
    """The ``crashmatrix`` command: fault-injection campaigns."""
    import json

    from repro import api

    start = time.time()
    workloads = [w for w in args.workloads.split(",") if w]
    techniques = [t for t in args.techniques.split(",") if t]
    # Every spec parses before the first campaign runs.
    canonical = [str(TechniqueSpec.parse(t)) for t in techniques]
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
    # wrote (the per-campaign records land via run_campaign).
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
            "techniques": canonical,
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
    else:
        print(f"OK: {total} injected crashes, zero violations", file=sys.stderr)
    print(f"\n[{time.time() - start:.1f}s]", file=sys.stderr)
    return 1 if violated else 0


def _run_history(args: argparse.Namespace) -> int:
    """The ``history`` command: the last two records of every timeline.

    Exit codes: 0 when every timeline's last two records carry identical
    counters, 1 when any differ, 2 when there is no ledger to query.
    """
    import json
    import os

    from repro.obs import render
    from repro.obs.history import compare
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
    if not os.path.isfile(ledger.path):
        print(f"history: no ledger at {ledger.path}", file=sys.stderr)
        return 2

    doc = compare(ledger, kind=args.kind, spec_filter=args.spec)
    if ledger.skipped_lines:
        doc["skipped_lines"] = ledger.skipped_lines

    report_stream = sys.stderr if args.json_out == "-" else sys.stdout
    print(render.render_history_text(doc), file=report_stream, end="")
    if args.json_out:
        _write_report(args.json_out, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    if args.md:
        _write_report(args.md, render.render_history_markdown(doc))
    return 0 if doc["ok"] else 1


def _parent(*flags) -> argparse.ArgumentParser:
    """A parent parser holding flags several commands share."""
    parent = argparse.ArgumentParser(add_help=False)
    for names, kwargs in flags:
        parent.add_argument(*names, **kwargs)
    return parent


_HARNESS = _parent(
    (["--scale"], dict(type=float, default=1.0,
                       help="workload problem-size multiplier (default 1.0)")),
    (["--seed"], dict(type=int, default=0, help="base RNG seed")),
    (["--cache-dir"], dict(default=None, metavar="DIR",
                           help="persist run results as JSON under DIR (e.g. .cache)")),
)
_JOBS = _parent(
    (["--jobs"], dict(type=int, default=1, metavar="N",
                      help="worker processes for the run grid (default 1 = in-process)")),
)
_SVG = _parent(
    (["--svg"], dict(default=None, metavar="DIR",
                     help="also render the figure's chart(s) as SVG into DIR")),
)
#: What a command that simulates records: ``run`` and ``crashmatrix``.
_OBSERVE = _parent(
    (["--threads"], dict(type=int, default=1, help="simulated threads (default 1)")),
    (["--trace"], dict(action="append", metavar="PATH",
                       help="write the structured trace; '.jsonl' suffix selects JSON "
                       "lines, anything else Chrome trace_event (Perfetto); repeatable")),
    (["--metrics"], dict(default=None, metavar="PATH",
                         help="dump the sampled metrics registry as JSON")),
    (["--metrics-interval"], dict(type=int, default=10_000, metavar="N",
                                  help="model cycles between metric samples (default 10000)")),
)
_JSON = _parent(
    (["--json"], dict(dest="json_out", nargs="?", const="-", default=None, metavar="PATH",
                      help="write the result as deterministic JSON; bare --json "
                      "(or PATH '-') means stdout")),
)
_FAIL_ON = _parent(
    (["--fail-on"], dict(choices=FAIL_ON_CHOICES, default="error",
                         help="exit non-zero on a diagnosis at or above this "
                         "severity (default error)")),
)

_GRID_TEXT = """\
--jobs N computes the run grid on N worker processes (the output is
bit-identical at any N); every cell prints a heartbeat on stderr and the
grid appends one record to the run ledger.  --cache-dir persists
completed runs as JSON so repeat invocations skip simulation."""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the simulator; "
        "trace, profile and crash-test runs; query the run ledger.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, parents, help, description):
        # No abbreviations: ``--technique`` must not pass for ``--techniques``.
        sub = commands.add_parser(
            name, parents=parents, help=help, description=description,
            formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False,
        )
        sub.set_defaults(handler=handler)
        return sub

    for name, generator in GENERATORS.items():
        title = generator.__doc__.split("\n")[0]
        svg = [_SVG] if name.startswith("figure") else []
        command(name, _run_artifact, [_HARNESS, _JOBS] + svg, title,
                f"Regenerate {title}\n\n{_GRID_TEXT}")
    every = command(
        "all", _run_artifact, [_HARNESS, _JOBS, _SVG], "every table and figure",
        f"Regenerate every table and figure, one grid for all.\n\n{_GRID_TEXT}\n\n"
        "    python -m repro.experiments all --write EXPERIMENTS.md --jobs 4",
    )
    every.add_argument("--write", nargs="?", const="EXPERIMENTS.md", default=None,
                       metavar="PATH", help="also write the EXPERIMENTS.md report")

    run = command(
        "run", _run_traced, [_HARNESS, _OBSERVE], "one traced cell",
        """\
Execute one (workload, technique, threads) cell with the observability
layer attached.  --trace PATH writes the structured event trace (a .jsonl
suffix selects JSON lines, anything else the Chrome trace_event format:
load it in Perfetto or chrome://tracing; repeatable for both), and
--metrics PATH dumps the sampled metrics registry (--metrics-interval
model cycles between samples).  The trace is reconciled against the run's
counters: any mismatch is printed and exits 1.

    python -m repro.experiments run --workload mdb --technique SC \\
        --threads 8 --trace mdb-sc.chrome.json --metrics mdb-sc.metrics.json""",
    )
    run.add_argument("--workload", default="mdb", help="workload name (default mdb)")
    run.add_argument(
        "--technique", default="SC",
        help="technique spec: a base (ER, LA, AT, SC, SC-offline, BEST) "
        "optionally composed with the victim stage, e.g. SC+victim:16 (default SC)",
    )

    crash = command(
        "crashmatrix", _run_crashmatrix, [_HARNESS, _JOBS, _OBSERVE],
        "fault-injection campaigns",
        """\
Run fault-injection campaigns (repro.faults) over every workload x
technique x fault-model combination requested, print the markdown verdict
matrix, optionally write the JSON matrix with --out, and exit non-zero if
any injected crash violated FASE atomicity, so CI can gate on it.
--trace/--metrics attach the observability layer to each campaign's one
replay, the golden run (a campaign served whole from --cache-dir performs
none, leaving both empty).

    python -m repro.experiments crashmatrix --workloads linked-list \\
        --fault-models clean,torn_line --max-sites 128 --out matrix.json""",
    )
    crash.add_argument("--workloads", default="linked-list,hash", metavar="A,B",
                       help="comma-separated workload names (default linked-list,hash)")
    crash.add_argument("--techniques", default="SC", metavar="A,B",
                       help="comma-separated technique specs, composed stages "
                       "allowed, e.g. SC,SC+victim:4 (default SC)")
    crash.add_argument("--fault-models", default="clean", metavar="A,B",
                       help="comma-separated fault models: clean, torn_line, "
                       "reordered_flush (default clean)")
    crash.add_argument("--max-sites", type=int, default=256, metavar="N",
                       help="sample above N injectable sites per campaign (default 256)")
    crash.add_argument("--sample-seed", type=int, default=0, metavar="N",
                       help="seed for the strided site sampler (default 0)")
    crash.add_argument("--out", default=None, metavar="PATH",
                       help="write the crash matrix (or list of matrices) as JSON")

    profile = command(
        "profile", _run_profile, [_JSON, _FAIL_ON], "analyze a recorded trace",
        """\
Analyze a recorded JSONL trace offline (flush provenance, FASE latency,
controller diagnostics: DESIGN.md section 11), print the markdown profile
(--top-k sizes the hottest-lines table), and optionally write --json /
--html reports.

    python -m repro.experiments profile --trace run.jsonl --html report.html""",
    )
    profile.add_argument("--trace", action="append", metavar="PATH",
                         help="the JSONL trace to analyze (exactly one)")
    profile.add_argument("--html", default=None, metavar="PATH",
                         help="write the self-contained HTML report")
    profile.add_argument("--metrics", default=None, metavar="PATH",
                         help="read a 'run --metrics' dump and chart it in the report")
    profile.add_argument("--top-k", type=int, default=10, metavar="K",
                         help="hottest-flushed-lines table length (default 10)")

    hist = command(
        "history", _run_history, [_JSON], "compare the last two runs of every spec",
        """\
Compare the last two records of every spec timeline in the run ledger,
the append-only provenance store every entry point records into
(DESIGN.md section 15).  Their whole counters are compared: a counter
that appeared, vanished or changed, of any type, flags the timeline.
Exit 0 when every timeline's last two records are identical, 1 when any
differ, 2 when there is no ledger to query.

    python -m repro.experiments history --kind traced_run \\
        --json compare.json --md compare.md""",
    )
    hist.add_argument("--ledger", default=None, metavar="DIR",
                      help="ledger root (default: $REPRO_LEDGER, else .ledger)")
    hist.add_argument("--kind", default=None, metavar="KIND",
                      help="restrict to one record kind (run, traced_run, grid, "
                      "campaign, ...)")
    hist.add_argument("--spec", default=None, metavar="FILTER",
                      help="restrict to timelines matching a spec-sha prefix, "
                      "label substring, or spec-JSON substring")
    hist.add_argument("--md", default=None, metavar="PATH",
                      help="write the answer as a markdown report")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns an exit code."""
    args = _parser().parse_args(argv)
    try:
        if "jobs" in args and args.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
        return args.handler(args)
    except ConfigurationError as exc:
        # A bad spec, worker count or fault-model list, or a trace this
        # build cannot read: the message names it, with no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
