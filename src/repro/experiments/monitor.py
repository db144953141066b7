"""The ``monitor`` CLI artifact: watch a grid, a fleet, or a trace live.

Modes, one pipeline (DESIGN.md §12 and §15):

- **grid mode** (default) attaches to a harness grid via the rich
  progress hook — each finished cell's metric snapshot
  (:func:`repro.obs.live.snapshot_from_result`) flows into the
  :class:`~repro.obs.live.AlertEngine` and onto a periodically
  refreshing terminal dashboard, including cells computed by ``--jobs``
  worker processes (snapshots are derived parent-side from the shipped
  results, so nothing extra crosses the process boundary);
- **follow mode** (``--follow PATH``) tails a schema-3 JSONL trace file
  as it is being written — e.g. a :class:`~repro.obs.live.StreamingRecorder`
  spill from another process — feeding every event into a
  :class:`~repro.obs.live.StreamingProfile` whose closed cycle-windows
  drive the same alert rules and dashboard;
- **fleet mode** (``--fleet``, DESIGN.md §15) watches the *worker pool*
  instead of the simulated machine: a ``--jobs N`` grid (or, with
  ``--campaign``, a crash campaign) runs with the
  :mod:`repro.obs.fleet` telemetry bus attached, and the dashboard
  shows per-worker rows — current task, throughput, RSS/CPU — with
  fleet alert rules (dead worker, straggler ratio, RSS ceiling).
  ``--fleet --follow PATH`` tails a fleet JSONL *spill* from another
  process through the identical aggregator fold; ``--span-export``
  writes the deterministic Perfetto scheduler timeline.

``--once`` runs headless: process everything available, render one
final dashboard (or ``--json`` the machine-readable summary) and exit —
the CI smoke path.  ``--fail-on`` gates the exit code on the worst
alert severity, mirroring the ``profile`` artifact's diagnosis gate.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, IO, List, Optional

from repro.common.errors import ConfigurationError
from repro.obs.analyze import SEVERITIES
from repro.obs.live import (
    DEFAULT_WINDOW_CYCLES,
    AlertEngine,
    AlertRule,
    StreamingProfile,
    default_rules,
    parse_rule,
)
from repro.obs.trace import TRACE_SCHEMA_VERSION, decode_trace_line

#: How many recent rows (cells or windows) the dashboard shows.
DASHBOARD_ROWS = 10

#: Seconds between file polls in follow mode.
FOLLOW_POLL_SECONDS = 0.2


def build_rules(
    rule_strings: Optional[List[str]],
    base: Optional[List[AlertRule]] = None,
) -> List[AlertRule]:
    """The effective rule set: defaults, overridden by name.

    Each ``--rule`` string is parsed with the grammar in
    :func:`repro.obs.live.parse_rule`; a parsed rule whose name matches
    a default replaces it, anything else is added.  ``base`` swaps the
    single-run defaults for another stock set — fleet mode passes
    :func:`repro.obs.fleet.fleet_rules`.
    """
    rules = {r.name: r for r in (default_rules() if base is None else base)}
    for text in rule_strings or []:
        rule = parse_rule(text)
        rules[rule.name] = rule
    return list(rules.values())


def _alert_gate(engine: AlertEngine, fail_on: str) -> int:
    """Exit code under the ``--fail-on`` policy (mirrors `profile`)."""
    if fail_on == "never":
        return 0
    worst = engine.max_severity()
    if worst is None:
        return 0
    return 1 if SEVERITIES.index(worst) >= SEVERITIES.index(fail_on) else 0


def _alert_lines(engine: AlertEngine) -> List[str]:
    counts = {s: 0 for s in SEVERITIES}
    for a in engine.alerts:
        counts[a.severity] += 1
    summary = ", ".join(f"{counts[s]} {s}" for s in reversed(SEVERITIES))
    lines = [f"alerts: {summary}" if engine.alerts else "alerts: none"]
    for a in engine.by_severity()[:5]:
        lines.append(f"  [{a.severity}] {a.rule}: {a.message}")
    return lines


class _Dashboard:
    """Rate-limited terminal renderer shared by both modes."""

    def __init__(self, stream: IO[str], refresh: float, live: bool) -> None:
        self.stream = stream
        self.refresh = refresh
        self.live = live
        self._last_draw = 0.0

    def draw(self, lines: List[str], force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_draw < self.refresh:
            return
        self._last_draw = now
        out = self.stream
        if self.live and out.isatty():
            out.write("\x1b[2J\x1b[H")
        out.write("\n".join(lines) + "\n")
        out.flush()


# ---------------------------------------------------------------------------
# grid mode
# ---------------------------------------------------------------------------


def monitor_grid(
    harness: object,
    artifact: str,
    *,
    jobs: int = 1,
    engine: AlertEngine,
    refresh: float = 1.0,
    once: bool = False,
    stream: Optional[IO[str]] = None,
) -> Dict:
    """Run one artifact's grid under live monitoring; return the summary."""
    from repro.experiments.parallel import grid_for

    cells = grid_for(harness, artifact)
    if not cells:
        raise ConfigurationError(
            f"artifact {artifact!r} has no precomputable run grid to monitor"
        )
    stream = stream if stream is not None else sys.stderr
    board = _Dashboard(stream, refresh, live=not once)
    snapshots: List[Dict] = []
    started = time.monotonic()

    def render(force: bool = False) -> None:
        lines = [
            f"repro live monitor — grid {artifact} "
            f"({len(snapshots)}/{len(cells)} cells, jobs={jobs}, "
            f"{time.monotonic() - started:.1f}s)",
        ]
        lines.extend(_alert_lines(engine))
        if snapshots:
            lines.append("")
            lines.append(
                f"{'cell':32} {'cycles':>12} {'stall%':>7} "
                f"{'flush':>7} {'sel':>4} {'fases':>6}"
            )
            for s in snapshots[-DASHBOARD_ROWS:]:
                lines.append(
                    f"{s['cell']:32} {s['cycles']:>12} "
                    f"{100.0 * s['stall_share']:>6.2f}% "
                    f"{s['flush_ratio']:>7.4f} {s['selections']:>4} "
                    f"{s['fases']:>6}"
                )
        board.draw(lines, force=force)

    def on_cell(done: int, total: int, cell, snapshot: Dict) -> None:
        snapshot = dict(snapshot)
        snapshot["index"] = done - 1
        snapshots.append(snapshot)
        engine.observe_window(snapshot, source=snapshot["cell"])
        if not once:
            render()

    harness.run_grid(cells, jobs=jobs, progress=on_cell)
    if not once:
        render(force=True)
    return {
        "mode": "grid",
        "artifact": artifact,
        "cells_total": len(cells),
        "cells_done": len(snapshots),
        "snapshots": snapshots,
        "alerts": [a.to_dict() for a in engine.alerts],
        "max_severity": engine.max_severity(),
    }


# ---------------------------------------------------------------------------
# follow mode
# ---------------------------------------------------------------------------


class _LineTailer:
    """Buffered line-at-a-time tail of a JSONL file being written.

    Holds back a trailing partial line until its newline arrives, and —
    unlike a plain open file handle — survives the file being truncated,
    rotated (replaced by a new inode) or briefly absent mid-follow: the
    tailer notices via ``os.stat`` on the *path*, reopens from offset 0,
    and drops its partial-line buffer (the old file's bytes).  Subclasses
    implement ``_ingest(line) -> bool`` (True when the line counted as an
    event).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.events = 0
        self.lines = 0
        self._buf = ""
        self._fh: Optional[IO[str]] = open(path, "r", encoding="utf-8")
        self._ino = os.fstat(self._fh.fileno()).st_ino

    def _reopen_if_rotated(self) -> None:
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            # Mid-rotation: the writer unlinked but has not recreated
            # yet.  Drop the handle; the next poll retries the open.
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            return
        if self._fh is None:
            self._fh = open(self.path, "r", encoding="utf-8")
            self._ino = st.st_ino
            self._buf = ""
            return
        if st.st_ino != self._ino or st.st_size < self._fh.tell():
            # Rotated to a new inode, or truncated in place: restart
            # from the top of whatever the path names now.
            self._fh.close()
            self._fh = open(self.path, "r", encoding="utf-8")
            self._ino = os.fstat(self._fh.fileno()).st_ino
            self._buf = ""

    def poll(self) -> int:
        """Consume everything newly readable; return events ingested."""
        self._reopen_if_rotated()
        if self._fh is None:
            return 0
        chunk = self._fh.read()
        if not chunk:
            return 0
        self._buf += chunk
        ingested = 0
        while True:
            nl = self._buf.find("\n")
            if nl < 0:
                break
            line = self._buf[:nl].strip()
            self._buf = self._buf[nl + 1 :]
            if not line:
                continue
            self.lines += 1
            if self._ingest(line):
                ingested += 1
        return ingested

    def _ingest(self, line: str) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class TraceTailer(_LineTailer):
    """Incrementally parse a JSONL trace file that may still be written.

    Feeds complete lines into the profile as they appear, holding back
    a trailing partial line until its newline arrives.  Lines decode
    through :func:`repro.obs.trace.decode_trace_line`, so the contract is
    :func:`~repro.obs.trace.parse_jsonl`'s: a header of another schema,
    an event before the header and an unknown event kind are hard errors.
    """

    def __init__(self, path: str, profile: StreamingProfile) -> None:
        super().__init__(path)
        self.profile = profile
        #: The followed file's schema; ``None`` until its header arrives.
        self.schema: Optional[int] = None

    def _ingest(self, line: str) -> bool:
        try:
            event = decode_trace_line(line, self.schema is not None)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"{self.path} line {self.lines}: {exc}"
            ) from None
        if event is None:
            self.schema = TRACE_SCHEMA_VERSION
            return False
        self.profile.record(*event)
        self.events += 1
        return True


class FleetTailer(_LineTailer):
    """Tail a fleet JSONL spill, folding events into an aggregator.

    The offline twin of the attached fleet monitor: the aggregator's
    fold is identical whether events arrive over the bus or from the
    spill (:class:`repro.obs.fleet.FleetAggregator.observe` accepts
    both), so a ``--fleet --follow`` dashboard shows the same state the
    producing process saw.
    """

    def __init__(self, path: str, aggregator) -> None:
        super().__init__(path)
        self.aggregator = aggregator

    def _ingest(self, line: str) -> bool:
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise ConfigurationError(
                f"{self.path} line {self.lines}: not JSON ({exc})"
            ) from None
        from repro.obs.fleet import FLEET_META_KIND

        self.aggregator.observe(doc)
        if doc.get("ev") == FLEET_META_KIND:
            return False
        self.events += 1
        return True


def monitor_follow(
    path: str,
    *,
    engine: AlertEngine,
    window_cycles: int = DEFAULT_WINDOW_CYCLES,
    refresh: float = 1.0,
    once: bool = False,
    stream: Optional[IO[str]] = None,
    max_idle_seconds: Optional[float] = None,
) -> Dict:
    """Tail a JSONL trace, folding it live; return the summary.

    With ``once`` the file is drained to its current end and finalized
    (remaining partial window folded, analyzer diagnoses forwarded to
    the alert engine).  Otherwise the tail keeps polling until
    interrupted or until no new bytes arrive for ``max_idle_seconds``.
    """
    stream = stream if stream is not None else sys.stderr
    board = _Dashboard(stream, refresh, live=not once)

    profile = StreamingProfile(window_cycles)
    profile.on_window = lambda snap: engine.observe_window(snap, source=path)
    tailer = TraceTailer(path, profile)

    def render(force: bool = False) -> None:
        fold = profile.fold
        lines = [
            f"repro live monitor — following {path} "
            f"(window {window_cycles} cycles)",
            f"events: {tailer.events}  windows closed: {profile.windows_closed}  "
            f"write-amp: {fold.prov.write_amplification:.3f}  "
            f"stall share: {fold.fase.stall_share:.3f}",
        ]
        lines.extend(_alert_lines(engine))
        snaps = list(profile.snapshots)[-DASHBOARD_ROWS:]
        if snaps:
            lines.append("")
            lines.append(
                f"{'window':>6} {'events':>8} {'evflush':>8} {'drains':>7} "
                f"{'stallcy':>9} {'sel':>4} {'wamp':>7} {'stall%':>7}"
            )
            for s in snaps:
                lines.append(
                    f"{s.index:>6} {s.events:>8} {s.evict_flushes:>8} "
                    f"{s.fase_drains:>7} {s.stall_cycles:>9} {s.selections:>4} "
                    f"{s.write_amplification:>7.3f} "
                    f"{100.0 * s.stall_share:>6.2f}%"
                )
        board.draw(lines, force=force)

    idle_since: Optional[float] = None
    try:
        while True:
            got = tailer.poll()
            if got:
                idle_since = None
                if not once:
                    render()
            elif once:
                break
            else:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (
                    max_idle_seconds is not None
                    and now - idle_since >= max_idle_seconds
                ):
                    break
                render()
                time.sleep(FOLLOW_POLL_SECONDS)
    except KeyboardInterrupt:
        pass
    finally:
        tailer.close()

    final = profile.finalize()
    engine.observe_diagnoses(final.diagnoses, source=path)
    if not once:
        render(force=True)
    return {
        "mode": "follow",
        "path": path,
        "events": tailer.events,
        "windows_closed": profile.windows_closed,
        "profile": final.to_dict(),
        "alerts": [a.to_dict() for a in engine.alerts],
        "max_severity": engine.max_severity(),
    }


# ---------------------------------------------------------------------------
# fleet mode
# ---------------------------------------------------------------------------


def _fleet_summary(mode: str, aggregator, engine: AlertEngine, **extra) -> Dict:
    summary = {
        "mode": mode,
        "fleet": aggregator.snapshot(),
        "workers": [
            aggregator.workers[i].to_dict() for i in sorted(aggregator.workers)
        ],
        "site_classes": {
            cls: dict(stats)
            for cls, stats in sorted(aggregator.site_classes.items())
        },
        "alerts": [a.to_dict() for a in engine.alerts],
        "max_severity": engine.max_severity(),
    }
    summary.update(extra)
    return summary


def _fleet_board(
    title: str,
    engine: AlertEngine,
    board: _Dashboard,
    once: bool,
    started: float,
):
    """A render closure over one fleet dashboard (shared by the modes)."""
    from repro.obs.report import render_fleet_lines

    def render(aggregator, force: bool = False) -> None:
        lines = [f"{title} ({time.monotonic() - started:.1f}s)"]
        lines.extend(_alert_lines(engine))
        lines.append("")
        lines.extend(render_fleet_lines(aggregator))
        board.draw(lines, force=force)

    def on_pump(aggregator) -> None:
        engine.observe_window(aggregator.snapshot(), source=title)
        if not once:
            render(aggregator)

    return render, on_pump


def monitor_fleet_grid(
    harness: object,
    artifact: str,
    *,
    jobs: int,
    engine: AlertEngine,
    refresh: float = 1.0,
    once: bool = False,
    stream: Optional[IO[str]] = None,
    span_path: Optional[str] = None,
    fleet_log: Optional[str] = None,
    sample_interval: Optional[float] = None,
) -> Dict:
    """Run one artifact's grid with the fleet bus attached; watch the pool.

    Unlike plain grid mode — which watches the *cells* — this watches
    the *workers*: the dashboard re-renders on every bus pump with one
    row per worker, and the alert engine sees fleet snapshots (dead
    workers, straggler ratio, RSS) instead of cell metrics.
    """
    from repro.experiments.parallel import grid_for
    from repro.obs.fleet import FleetTelemetry

    if jobs < 2:
        raise ConfigurationError(
            "fleet mode monitors a worker pool; use --jobs >= 2"
        )
    cells = grid_for(harness, artifact)
    if not cells:
        raise ConfigurationError(
            f"artifact {artifact!r} has no precomputable run grid to monitor"
        )
    stream = stream if stream is not None else sys.stderr
    board = _Dashboard(stream, refresh, live=not once)
    render, on_pump = _fleet_board(
        f"repro fleet monitor — grid {artifact}, jobs={jobs}",
        engine,
        board,
        once,
        time.monotonic(),
    )
    telemetry = FleetTelemetry(
        spill_path=fleet_log,
        sample_interval=sample_interval,
        span_path=span_path,
        on_pump=on_pump,
    )
    with telemetry:
        harness.run_grid(cells, jobs=jobs, telemetry=telemetry)
    aggregator = telemetry.aggregator
    engine.observe_window(aggregator.snapshot(), source=f"fleet:{artifact}")
    if not once:
        render(aggregator, force=True)
    return _fleet_summary(
        "fleet-grid",
        aggregator,
        engine,
        artifact=artifact,
        jobs=jobs,
        cells_total=len(cells),
        span_path=span_path,
        fleet_log=fleet_log,
    )


def monitor_fleet_campaign(
    workload: str,
    technique: str,
    *,
    jobs: int,
    engine: AlertEngine,
    threads: int = 1,
    scale: float = 1.0,
    seed: int = 0,
    fault_models=("clean",),
    max_sites: int = 256,
    sample_seed: int = 0,
    refresh: float = 1.0,
    once: bool = False,
    stream: Optional[IO[str]] = None,
    span_path: Optional[str] = None,
    fleet_log: Optional[str] = None,
    sample_interval: Optional[float] = None,
) -> Dict:
    """Run one crash campaign with the fleet bus attached; watch the pool.

    Per-crash ``task_progress`` events from the workers fold into the
    aggregator's per-site-class table and per-worker violation counts —
    visible live, not just in the final matrix.  The campaign always
    recomputes (no result cache): the point of this mode is watching
    the work happen.
    """
    from repro.faults.campaign import FaultCampaignSpec, run_campaign
    from repro.obs.fleet import FleetTelemetry

    if jobs < 2:
        raise ConfigurationError(
            "fleet mode monitors a worker pool; use --jobs >= 2"
        )
    stream = stream if stream is not None else sys.stderr
    board = _Dashboard(stream, refresh, live=not once)
    render, on_pump = _fleet_board(
        f"repro fleet monitor — campaign {workload}/{technique}, jobs={jobs}",
        engine,
        board,
        once,
        time.monotonic(),
    )
    telemetry = FleetTelemetry(
        spill_path=fleet_log,
        sample_interval=sample_interval,
        span_path=span_path,
        on_pump=on_pump,
    )
    spec = FaultCampaignSpec(
        fault_models=tuple(fault_models),
        max_sites=max_sites,
        sample_seed=sample_seed,
        jobs=jobs,
    )
    with telemetry:
        matrix = run_campaign(
            workload,
            technique=technique,
            threads=threads,
            seed=seed,
            scale=scale,
            spec=spec,
            telemetry=telemetry,
        )
    aggregator = telemetry.aggregator
    engine.observe_window(
        aggregator.snapshot(), source=f"fleet:{workload}/{technique}"
    )
    if not once:
        render(aggregator, force=True)
    return _fleet_summary(
        "fleet-campaign",
        aggregator,
        engine,
        workload=matrix.workload,
        technique=matrix.technique,
        jobs=jobs,
        injected=matrix.injected,
        matrix_ok=matrix.ok,
        span_path=span_path,
        fleet_log=fleet_log,
    )


def monitor_fleet_follow(
    path: str,
    *,
    engine: AlertEngine,
    refresh: float = 1.0,
    once: bool = False,
    stream: Optional[IO[str]] = None,
    max_idle_seconds: Optional[float] = None,
) -> Dict:
    """Tail a fleet JSONL spill from another process; same fold, no bus.

    The producing run passes ``--fleet-log PATH`` (or
    ``FleetTelemetry(spill_path=...)``); this side replays the spill
    through an identical :class:`~repro.obs.fleet.FleetAggregator`, so
    the remote dashboard matches the attached one event for event.
    """
    from repro.obs.fleet import FleetAggregator

    stream = stream if stream is not None else sys.stderr
    board = _Dashboard(stream, refresh, live=not once)
    aggregator = FleetAggregator()
    tailer = FleetTailer(path, aggregator)
    render, _on_pump = _fleet_board(
        f"repro fleet monitor — following {path}",
        engine,
        board,
        once,
        time.monotonic(),
    )

    idle_since: Optional[float] = None
    try:
        while True:
            got = tailer.poll()
            if got:
                idle_since = None
                engine.observe_window(aggregator.snapshot(), source=path)
                if not once:
                    render(aggregator)
            elif once:
                break
            else:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (
                    max_idle_seconds is not None
                    and now - idle_since >= max_idle_seconds
                ):
                    break
                render(aggregator)
                time.sleep(FOLLOW_POLL_SECONDS)
    except KeyboardInterrupt:
        pass
    finally:
        tailer.close()

    if not once:
        render(aggregator, force=True)
    return _fleet_summary(
        "fleet-follow",
        aggregator,
        engine,
        path=path,
        events=tailer.events,
    )


# ---------------------------------------------------------------------------
# CLI glue
# ---------------------------------------------------------------------------


def run_monitor(args, harness_factory) -> int:
    """Drive the ``monitor`` artifact from parsed CLI args.

    ``harness_factory`` defers harness construction to grid mode, so
    ``--follow`` never builds workloads it will not run.
    """
    fleet = bool(getattr(args, "fleet", False))
    try:
        if fleet:
            from repro.obs.fleet import fleet_rules

            rules = build_rules(args.rule, base=fleet_rules())
        else:
            rules = build_rules(args.rule)
    except ConfigurationError as exc:
        print(f"monitor: {exc}", file=sys.stderr)
        return 2
    sample_interval = getattr(args, "sample_interval", None) or None
    with AlertEngine(rules, log_path=args.alert_log) as engine:
        try:
            if fleet and args.follow:
                summary = monitor_fleet_follow(
                    args.follow,
                    engine=engine,
                    refresh=args.refresh,
                    once=args.once,
                    max_idle_seconds=args.max_idle,
                )
            elif fleet and getattr(args, "campaign", False):
                workloads = [w for w in args.workloads.split(",") if w]
                techniques = [t for t in args.techniques.split(",") if t]
                summary = monitor_fleet_campaign(
                    workloads[0],
                    techniques[0],
                    jobs=args.jobs,
                    engine=engine,
                    threads=args.threads,
                    scale=args.scale,
                    seed=args.seed,
                    fault_models=tuple(
                        m for m in args.fault_models.split(",") if m
                    ),
                    max_sites=args.max_sites,
                    sample_seed=args.sample_seed,
                    refresh=args.refresh,
                    once=args.once,
                    span_path=getattr(args, "span_export", None),
                    fleet_log=getattr(args, "fleet_log", None),
                    sample_interval=sample_interval,
                )
            elif fleet:
                summary = monitor_fleet_grid(
                    harness_factory(),
                    args.grid,
                    jobs=args.jobs,
                    engine=engine,
                    refresh=args.refresh,
                    once=args.once,
                    span_path=getattr(args, "span_export", None),
                    fleet_log=getattr(args, "fleet_log", None),
                    sample_interval=sample_interval,
                )
            elif args.follow:
                summary = monitor_follow(
                    args.follow,
                    engine=engine,
                    window_cycles=args.window,
                    refresh=args.refresh,
                    once=args.once,
                    max_idle_seconds=args.max_idle,
                )
            else:
                summary = monitor_grid(
                    harness_factory(),
                    args.grid,
                    jobs=args.jobs,
                    engine=engine,
                    refresh=args.refresh,
                    once=args.once,
                )
        except (ConfigurationError, OSError) as exc:
            print(f"monitor: {exc}", file=sys.stderr)
            return 2
        if args.json_out:
            payload = json.dumps(summary, sort_keys=True, indent=1) + "\n"
            if args.json_out == "-":
                sys.stdout.write(payload)
            else:
                with open(args.json_out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
                print(f"wrote {args.json_out}", file=sys.stderr)
        elif args.once:
            for line in _alert_lines(engine):
                print(line)
            mode = summary["mode"]
            if mode == "grid":
                print(
                    f"monitored {summary['cells_done']}/"
                    f"{summary['cells_total']} cells of {summary['artifact']}"
                )
            elif mode == "follow":
                print(
                    f"followed {summary['path']}: {summary['events']} events, "
                    f"{summary['windows_closed']} windows"
                )
            else:
                snap = summary["fleet"]
                print(
                    f"fleet {mode}: {snap['tasks_done']} tasks over "
                    f"{snap['workers']} workers "
                    f"({snap['dead_workers']} dead, "
                    f"{snap['errors']} errors)"
                )
                for worker in summary["workers"]:
                    current = worker["current"]
                    label = current["label"] if current else "-"
                    print(
                        f"  w{worker['worker']} {worker['status']}: "
                        f"{worker['done']} tasks, "
                        f"{worker['busy_wall_s']:.2f}s busy, "
                        f"rss {worker['rss_peak_kb'] / 1024:.1f}MB peak, "
                        f"last task {label}"
                    )
        if args.alert_log:
            print(f"alert log: {args.alert_log}", file=sys.stderr)
        return _alert_gate(engine, args.fail_on)
