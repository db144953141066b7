"""The ``monitor`` CLI artifact: watch a trace live (DESIGN.md §12).

``monitor --follow PATH`` tails a schema-3 JSONL trace file as it is
being written — e.g. a :class:`~repro.obs.live.StreamingRecorder` spill
from another process — recording every event into a
:class:`~repro.obs.live.StreamingProfile` whose closed cycle-windows
drive the stock alert rules (:func:`~repro.obs.live.default_rules`) and
a periodically refreshing terminal dashboard.

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
from repro.obs.analyze import SEVERITIES, severity_gate
from repro.obs.live import DEFAULT_WINDOW_CYCLES, AlertEngine, StreamingProfile
from repro.obs.trace import TRACE_SCHEMA_VERSION, decode_trace_line

#: How many recent windows the dashboard shows.
DASHBOARD_ROWS = 10

#: Seconds between file polls.
FOLLOW_POLL_SECONDS = 0.2


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
    """Rate-limited terminal renderer."""

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


class TraceTailer:
    """Incrementally parse a JSONL trace file that may still be written.

    Feeds complete lines into the profile as they appear, holding back a
    trailing partial line until its newline arrives, and — unlike a
    plain open file handle — survives the file being truncated, rotated
    (replaced by a new inode) or briefly absent mid-follow: the tailer
    notices via ``os.stat`` on the *path*, reopens from offset 0, and
    drops its partial-line buffer (the old file's bytes).  Lines decode
    through :func:`repro.obs.trace.decode_trace_line`, so the contract is
    :func:`~repro.obs.trace.parse_jsonl`'s: a header of another schema,
    an event before the header, an unknown event kind and a malformed
    event are hard errors naming the line.
    """

    def __init__(self, path: str, profile: StreamingProfile) -> None:
        self.path = path
        self.profile = profile
        #: The followed file's schema; ``None`` until its header arrives.
        self.schema: Optional[int] = None
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
        # One split per poll: a poll may read the whole file, and peeling
        # lines off the front of the buffer one at a time is quadratic.
        *lines, self._buf = (self._buf + chunk).split("\n")
        ingested = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            self.lines += 1
            if self._ingest(line):
                ingested += 1
        return ingested

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

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


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

    profile = StreamingProfile(
        window_cycles,
        on_window=lambda snap: engine.observe_window(snap, source=path),
    )
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
# CLI glue
# ---------------------------------------------------------------------------


def run_monitor(args) -> int:
    """Drive the ``monitor`` artifact from parsed CLI args."""
    if not args.follow:
        print("monitor needs --follow PATH (a JSONL trace)", file=sys.stderr)
        return 2
    with AlertEngine(log_path=args.alert_log) as engine:
        try:
            summary = monitor_follow(
                args.follow,
                engine=engine,
                window_cycles=args.window,
                refresh=args.refresh,
                once=args.once,
                max_idle_seconds=args.max_idle,
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
            print(
                f"followed {summary['path']}: {summary['events']} events, "
                f"{summary['windows_closed']} windows"
            )
        if args.alert_log:
            print(f"alert log: {args.alert_log}", file=sys.stderr)
        return severity_gate(engine.max_severity(), args.fail_on)
