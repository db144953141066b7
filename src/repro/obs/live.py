"""Live telemetry: bounded streaming traces, incremental profiles, alerts.

Everything in :mod:`repro.obs.trace` / :mod:`repro.obs.analyze` is
post-mortem — the recorder retains every event in unbounded arrays and
the analyzer folds a complete trace after the run.  This module is the
*online* counterpart (DESIGN.md §12), three pieces that compose into a
streaming pipeline:

- :class:`StreamingRecorder` shares :class:`TraceRecorder`'s recording
  interface but holds only a bounded ring of recent events, incrementally
  spills schema-2 JSONL to disk and fans every event into subscribers.
  The spill is append-only in recording order through the same
  :func:`~repro.obs.trace.encode_event_line` encoder the offline export
  uses, so the finished file is **byte-identical** to a post-hoc
  ``TraceRecorder.write_jsonl`` of the same run — when a flush happens
  never changes what the bytes are.
- :class:`StreamingProfile` folds events online, one fixed cycle-window
  at a time, into the very same :class:`~repro.obs.analyze.ProfileFold`
  the offline :func:`~repro.obs.analyze.analyze` runs — one fold
  implementation, so ``finalize()`` over any stream equals the offline
  profile *by construction* (and by the hypothesis property in
  ``tests/test_obs_live.py``).  Each closed window emits a
  :class:`WindowSnapshot` carrying the window's deltas and the
  cumulative derived metrics (write amplification, stall share).
- :class:`AlertEngine` evaluates declarative :class:`AlertRule`\\ s —
  threshold, rate-of-change, sustained-window — over those snapshots
  (and over analyzer diagnoses), emitting typed, severity-ranked
  :class:`Alert` records to a deterministic JSONL log.

**Window semantics.**  Per-thread cycle clocks interleave, so raw
timestamps are not globally monotonic in recording order.  Windows are
therefore driven by a *watermark* — the maximum timestamp observed so
far (events and scheduler-quantum ticks both advance it).  Window ``w``
spans model cycles ``[w*W, (w+1)*W)`` and closes the first time the
watermark reaches ``(w+1)*W``; every event is attributed to the window
open at the moment it is recorded.  That makes windowing a pure function
of the event/tick sequence — deterministic across runs — while the
*final* profile provably never depends on where the window boundaries
fell.

The import direction rule of :mod:`repro.obs` holds: nothing here
imports :mod:`repro.experiments` (the ``monitor`` CLI lives on the
experiments side and imports us).
"""

from __future__ import annotations

import json
import queue
import re
import threading
from collections import Counter, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Deque, Dict, IO, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.analyze import (
    SEVERITIES,
    _SEVERITY_RANK,
    AnalyzerConfig,
    Diagnosis,
    ProfileFold,
    TraceProfile,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    encode_event_chunk,
    encode_meta_line,
)

#: Default streaming window length in model cycles.  Small enough that a
#: seed run closes many windows, large enough that per-window deltas are
#: statistically meaningful.
DEFAULT_WINDOW_CYCLES = 100_000

#: Default bounded-ring capacity of :class:`StreamingRecorder`.
DEFAULT_RING_CAPACITY = 4096

#: Default bound of the spill writer's handoff queue, in pending chunks.
#: A full queue blocks the recording thread (backpressure) rather than
#: dropping events — the spill guarantee is completeness, not liveness.
DEFAULT_SPILL_QUEUE_CHUNKS = 8

#: Sentinel telling the spill writer thread to exit.
_SPILL_STOP = object()


# ---------------------------------------------------------------------------
# streaming recorder
# ---------------------------------------------------------------------------


class StreamingRecorder:
    """Bounded-memory recorder: ring buffer + incremental JSONL spill.

    Drop-in for :class:`~repro.obs.trace.TraceRecorder` at every machine
    recording site (``enabled``/``record``/``on_quantum``), but instead
    of unbounded parallel arrays it keeps:

    - a ring of the most recent ``ring_capacity`` events (``tail()``),
    - per-kind counts (``counts()``) and a total (``len()``),
    - optionally, a JSONL spill file: the ``trace_meta`` header is
      written on open and buffered event lines are flushed whenever a
      cycle window closes (and on ``close()``), preserving recording
      order — so the finished file is byte-identical to what a
      ``TraceRecorder.write_jsonl`` of the same run would have written.

    With ``spill_thread=True`` (the default) the spill runs on a
    dedicated writer thread: window closings hand the pending buffer to
    a bounded queue and return immediately, and encoding + file I/O
    happen off the simulation thread.  A full queue *blocks* the
    recording thread until the writer catches up — backpressure, never
    drops — so completeness is unconditional.  ``flush()`` still means
    "the file now holds every event recorded so far" (it drains the
    queue before returning), a writer error re-raises at the next
    ``flush()``/``close()``, and the single-consumer FIFO preserves
    recording order, so the byte-identity guarantee is untouched.

    Subscribers receive every event as it is recorded: either a callable
    ``fn(kind, thread_id, time, a, b, c)`` or an object with a matching
    ``record`` method (a :class:`StreamingProfile`, or even another
    recorder).  Subscribers with an ``on_quantum`` method also receive
    the scheduler's window ticks, which is how a subscribed profile
    closes windows during event-free stretches.
    """

    __slots__ = (
        "schema",
        "window_cycles",
        "ring",
        "total",
        "_counts",
        "_pending",
        "_fh",
        "_owns_fh",
        "_watermark",
        "_boundary",
        "windows_flushed",
        "_subs",
        "_tick_subs",
        "closed",
        "_spill_queue",
        "_spill_thread",
        "_spill_error",
    )

    enabled = True

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        fileobj: Optional[IO[str]] = None,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        subscribers: Iterable[object] = (),
        spill_thread: bool = True,
        spill_queue_chunks: int = DEFAULT_SPILL_QUEUE_CHUNKS,
    ) -> None:
        if window_cycles < 1:
            raise ConfigurationError(f"window_cycles must be >= 1, got {window_cycles}")
        if ring_capacity < 1:
            raise ConfigurationError(f"ring_capacity must be >= 1, got {ring_capacity}")
        if path is not None and fileobj is not None:
            raise ConfigurationError("pass either path or fileobj, not both")
        self.schema = TRACE_SCHEMA_VERSION
        self.window_cycles = window_cycles
        self.ring: Deque[Tuple[str, int, int, int, int, int]] = deque(
            maxlen=ring_capacity
        )
        self.total = 0
        self._counts: Dict[str, int] = {}
        self._pending: List[Tuple[str, int, int, int, int, int]] = []
        self._owns_fh = path is not None
        self._fh = open(path, "w", encoding="utf-8") if path is not None else fileobj
        self._watermark = -1
        self._boundary = window_cycles
        self.windows_flushed = 0
        self._subs: List[Callable[[str, int, int, int, int, int], None]] = []
        self._tick_subs: List[object] = []
        self.closed = False
        self._spill_queue: Optional[queue.Queue] = None
        self._spill_thread: Optional[threading.Thread] = None
        self._spill_error: Optional[BaseException] = None
        if self._fh is not None:
            if spill_queue_chunks < 1:
                raise ConfigurationError(
                    f"spill_queue_chunks must be >= 1, got {spill_queue_chunks}"
                )
            # Header before the writer starts: from here on the writer
            # thread is the file's only writer.
            self._fh.write(encode_meta_line() + "\n")
            if spill_thread:
                self._spill_queue = queue.Queue(maxsize=spill_queue_chunks)
                self._spill_thread = threading.Thread(
                    target=self._spill_writer,
                    name="streaming-spill",
                    daemon=True,
                )
                self._spill_thread.start()
        for sub in subscribers:
            self.subscribe(sub)

    # -- subscribers -----------------------------------------------------

    def subscribe(self, subscriber: object) -> None:
        """Fan events (and quantum ticks) into ``subscriber``."""
        record = getattr(subscriber, "record", None)
        self._subs.append(record if callable(record) else subscriber)  # type: ignore[arg-type]
        if callable(getattr(subscriber, "on_quantum", None)):
            self._tick_subs.append(subscriber)

    # -- recording (the TraceRecorder interface) -------------------------

    def record(
        self, kind: str, thread_id: int, time: int, a: int = 0, b: int = 0, c: int = 0
    ) -> None:
        """Append one event: ring + counts + spill buffer + fan-out.

        The ring stores the plain tuple (shared with the spill buffer —
        one allocation per event); ``tail()`` decodes to
        :class:`TraceEvent` lazily, ``dropped`` derives from ``total``
        and the ring occupancy, and with a spill file the per-kind
        counts fold in bulk when a chunk is consumed (``counts()``
        merges the not-yet-spilled tail).
        """
        self.total += 1
        event = (kind, thread_id, time, a, b, c)
        self.ring.append(event)
        if self._fh is not None:
            self._pending.append(event)
        else:
            self._counts[kind] = self._counts.get(kind, 0) + 1
        if self._subs:
            for sub in self._subs:
                sub(kind, thread_id, time, a, b, c)
        if time > self._watermark:
            self._watermark = time
            if time >= self._boundary:
                self._cross_boundary()

    def on_quantum(self, thread_id: int, now: int) -> None:
        """Scheduler window tick: advance the watermark, spill if due."""
        if now > self._watermark:
            self._watermark = now
            if now >= self._boundary:
                self._cross_boundary()
        for sub in self._tick_subs:
            sub.on_quantum(thread_id, now)

    def _cross_boundary(self) -> None:
        w = self.window_cycles
        while self._watermark >= self._boundary:
            self._boundary += w
            self.windows_flushed += 1
        if self._spill_queue is not None:
            # Hand the pending chunk to the writer and keep simulating;
            # a full queue blocks here (backpressure, never drops).
            self._handoff()
            self._check_spill_error()
        else:
            self.flush()

    # -- spill -----------------------------------------------------------

    def _fold_counts(self, chunk: List[Tuple[str, int, int, int, int, int]]) -> None:
        """Fold a consumed chunk's kinds into the running counts (one
        C-level Counter pass per chunk, nothing per event)."""
        counts = self._counts
        for kind, n in Counter(map(itemgetter(0), chunk)).items():
            counts[kind] = counts.get(kind, 0) + n

    def _handoff(self) -> None:
        if self._pending:
            self._fold_counts(self._pending)
            self._spill_queue.put(self._pending)
            self._pending = []

    def _check_spill_error(self) -> None:
        if self._spill_error is not None:
            raise RuntimeError(
                "streaming spill writer failed"
            ) from self._spill_error

    def _spill_writer(self) -> None:
        """Writer-thread loop: encode and write chunks, FIFO, one at a
        time.  After an error, chunks are drained and discarded (with
        ``task_done``) so the recording thread can never deadlock on a
        full queue; the error re-raises at the next flush/close."""
        spill_queue = self._spill_queue
        fh = self._fh
        while True:
            chunk = spill_queue.get()
            try:
                if chunk is _SPILL_STOP:
                    return
                if self._spill_error is None:
                    try:
                        fh.write(encode_event_chunk(chunk))
                        # Flush only at idle: the recording thread is the
                        # sole producer, so when it blocks in flush()'s
                        # Queue.join the final chunk sees an empty queue
                        # and lands a flush before task_done — the drain
                        # guarantee holds without a syscall per chunk.
                        if spill_queue.empty():
                            fh.flush()
                    except BaseException as exc:
                        self._spill_error = exc
            finally:
                spill_queue.task_done()

    def flush(self) -> None:
        """Write buffered event lines to the spill file, in order.

        On return the file holds every event recorded so far — with a
        writer thread this drains the handoff queue (``Queue.join``)
        before returning, so the synchronous meaning is preserved.
        """
        if self._fh is None:
            return
        if self._spill_queue is not None:
            self._handoff()
            self._spill_queue.join()
            self._check_spill_error()
            return
        if not self._pending:
            return
        fh = self._fh
        self._fold_counts(self._pending)
        fh.write(encode_event_chunk(self._pending))
        self._pending.clear()
        fh.flush()

    def close(self) -> None:
        """Flush the remaining buffer and close an owned spill file."""
        if self.closed:
            return
        error: Optional[BaseException] = None
        try:
            self.flush()
        except BaseException as exc:
            error = exc
        if self._spill_thread is not None:
            self._spill_queue.put(_SPILL_STOP)
            self._spill_thread.join()
            self._spill_thread = None
        if self._fh is not None and self._owns_fh:
            self._fh.close()
        self.closed = True
        if error is not None:
            raise error

    def __enter__(self) -> "StreamingRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- reading ---------------------------------------------------------

    def __len__(self) -> int:
        """Total events observed (not the ring occupancy)."""
        return self.total

    @property
    def dropped(self) -> int:
        """Events no longer in the ring (derived, not tracked per event)."""
        return max(0, self.total - (self.ring.maxlen or 0))

    def tail(self, n: Optional[int] = None) -> List[TraceEvent]:
        """The most recent events still in the ring (oldest first)."""
        events = [TraceEvent(*event) for event in self.ring]
        return events if n is None else events[-n:]

    def counts(self) -> Dict[str, int]:
        """Event count per kind over the whole stream (sorted by kind).

        With a spill file, events buffered since the last chunk handoff
        are merged in on the fly (they fold into ``_counts`` when their
        chunk is consumed).
        """
        if not self._pending:
            return dict(sorted(self._counts.items()))
        merged = dict(self._counts)
        for kind, n in Counter(map(itemgetter(0), self._pending)).items():
            merged[kind] = merged.get(kind, 0) + n
        return dict(sorted(merged.items()))

    def __repr__(self) -> str:
        return (
            f"StreamingRecorder(total={self.total}, ring={len(self.ring)}, "
            f"windows={self.windows_flushed})"
        )


# ---------------------------------------------------------------------------
# streaming profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowSnapshot:
    """One closed cycle-window: its deltas plus cumulative health metrics."""

    index: int
    start_cycle: int
    end_cycle: int
    #: Deltas — what happened inside this window.
    events: int
    evict_flushes: int
    resize_evictions: int
    fase_drains: int
    stall_cycles: int
    selections: int
    fases: int
    #: Cumulative derived metrics as of the window's close.
    total_events: int
    write_amplification: float
    stall_share: float
    distinct_lines: int

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "events": self.events,
            "evict_flushes": self.evict_flushes,
            "resize_evictions": self.resize_evictions,
            "fase_drains": self.fase_drains,
            "stall_cycles": self.stall_cycles,
            "selections": self.selections,
            "fases": self.fases,
            "total_events": self.total_events,
            "write_amplification": round(self.write_amplification, 6),
            "stall_share": round(self.stall_share, 6),
            "distinct_lines": self.distinct_lines,
        }


def _fold_stalls(fold: ProfileFold) -> int:
    p = fold.prov
    return (
        p.fase_drain_stall_cycles
        + p.final_drain_stall_cycles
        + p.issue_stall_cycles
        + p.writeback_stall_cycles
    )


class StreamingProfile:
    """Fold a live event stream into the offline profile, window by window.

    Buffers the open window's events as parallel columns and, when the
    watermark closes the window, feeds them through the *same*
    :class:`~repro.obs.analyze.ProfileFold` that powers the offline
    :func:`~repro.obs.analyze.analyze` — a single fold implementation is
    what makes ``finalize()`` provably equal to the post-hoc analysis of
    the full trace, for any window size.

    Usable standalone (call ``record`` / ``on_quantum`` yourself) or as
    a :class:`StreamingRecorder` subscriber.  Each closed window appends
    a :class:`WindowSnapshot` to ``snapshots`` (a bounded ring) and
    invokes the optional ``on_window`` callback — the feed the
    :class:`AlertEngine` and the monitor dashboard consume.
    """

    def __init__(
        self,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        *,
        config: Optional[AnalyzerConfig] = None,
        on_window: Optional[Callable[[WindowSnapshot], None]] = None,
        keep_snapshots: int = 256,
    ) -> None:
        if window_cycles < 1:
            raise ConfigurationError(f"window_cycles must be >= 1, got {window_cycles}")
        self.window_cycles = window_cycles
        self.on_window = on_window
        self._fold = ProfileFold(config)
        self._watermark = -1
        self._boundary = window_cycles
        self.window_index = 0
        self.snapshots: Deque[WindowSnapshot] = deque(maxlen=keep_snapshots)
        self.windows_closed = 0
        self._kinds: List[str] = []
        self._tids: List[int] = []
        self._times: List[int] = []
        self._a: List[int] = []
        self._b: List[int] = []
        self._c: List[int] = []

    # -- live-readable cumulative state ----------------------------------

    @property
    def fold(self) -> ProfileFold:
        """The underlying cumulative fold (read its counters mid-stream)."""
        return self._fold

    # -- recording -------------------------------------------------------

    def record(
        self, kind: str, thread_id: int, time: int, a: int = 0, b: int = 0, c: int = 0
    ) -> None:
        """Attribute one event to the open window; close windows if due."""
        self._kinds.append(kind)
        self._tids.append(thread_id)
        self._times.append(time)
        self._a.append(a)
        self._b.append(b)
        self._c.append(c)
        if time > self._watermark:
            self._watermark = time
            while self._watermark >= self._boundary:
                self._close_window()

    def on_quantum(self, thread_id: int, now: int) -> None:
        """Advance the watermark from a scheduler tick (no event)."""
        if now > self._watermark:
            self._watermark = now
            while self._watermark >= self._boundary:
                self._close_window()

    def _close_window(self) -> None:
        fold = self._fold
        before_events = fold.events
        before_evict = fold.prov.evict_flushes
        before_resize = fold.prov.resize_evictions
        before_drains = fold.prov.fase_drains
        before_stalls = _fold_stalls(fold)
        before_sel = fold.adapt.selections
        before_fases = fold.fase.count

        fold.feed_columns(self._kinds, self._tids, self._times, self._a, self._b, self._c)
        self._kinds = []
        self._tids = []
        self._times = []
        self._a = []
        self._b = []
        self._c = []

        snap = WindowSnapshot(
            index=self.window_index,
            start_cycle=self.window_index * self.window_cycles,
            end_cycle=self._boundary,
            events=fold.events - before_events,
            evict_flushes=fold.prov.evict_flushes - before_evict,
            resize_evictions=fold.prov.resize_evictions - before_resize,
            fase_drains=fold.prov.fase_drains - before_drains,
            stall_cycles=_fold_stalls(fold) - before_stalls,
            selections=fold.adapt.selections - before_sel,
            fases=fold.fase.count - before_fases,
            total_events=fold.events,
            write_amplification=fold.prov.write_amplification,
            stall_share=fold.fase.stall_share,
            distinct_lines=fold.prov.distinct_lines,
        )
        self.window_index += 1
        self._boundary += self.window_cycles
        self.windows_closed += 1
        self.snapshots.append(snap)
        if self.on_window is not None:
            self.on_window(snap)

    # -- finalization ----------------------------------------------------

    def finalize(self) -> TraceProfile:
        """Fold the open remainder and return the full offline profile.

        Equal — field for field — to ``analyze()`` of the complete
        trace, because both paths run the identical fold over the
        identical event sequence; only the chunking differs.
        """
        if self._kinds:
            self._fold.feed_columns(
                self._kinds, self._tids, self._times, self._a, self._b, self._c
            )
            self._kinds = []
            self._tids = []
            self._times = []
            self._a = []
            self._b = []
            self._c = []
        return self._fold.finalize()

    def __repr__(self) -> str:
        return (
            f"StreamingProfile(windows={self.windows_closed}, "
            f"events={self._fold.events + len(self._kinds)})"
        )


# ---------------------------------------------------------------------------
# alert rules and engine
# ---------------------------------------------------------------------------

#: Rule kinds: instantaneous threshold, window-over-window rate of
#: change, and a threshold sustained for N consecutive windows.
RULE_KINDS = ("threshold", "rate", "sustained")

_OPS = {
    ">": lambda x, y: x > y,
    "<": lambda x, y: x < y,
    ">=": lambda x, y: x >= y,
    "<=": lambda x, y: x <= y,
}

#: Grammar (one rule per string)::
#:
#:     name: metric OP value [@severity]
#:     name: rate(metric) OP value [@severity]
#:     name: sustained(metric, N) OP value [@severity]
#:
#: ``OP`` is one of ``>`` ``<`` ``>=`` ``<=``; severity defaults to
#: ``warning``.  ``metric`` is a key of the observed snapshot dict
#: (:meth:`WindowSnapshot.to_dict` keys, or whatever dict the monitor
#: feeds); rules over metrics absent from a snapshot simply do not fire.
_RULE_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][\w-]*)\s*:\s*"
    r"(?:(?P<fn>rate|sustained)\s*\(\s*(?P<fmetric>[\w.]+)\s*"
    r"(?:,\s*(?P<window>\d+)\s*)?\)|(?P<metric>[\w.]+))\s*"
    r"(?P<op>>=|<=|>|<)\s*(?P<value>-?\d+(?:\.\d+)?)\s*"
    r"(?:@(?P<severity>\w+))?\s*$"
)


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting rule over window-snapshot metrics."""

    name: str
    metric: str
    kind: str = "threshold"
    op: str = ">"
    value: float = 0.0
    #: ``sustained``: consecutive breaching windows required to fire.
    window: int = 1
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {RULE_KINDS})"
            )
        if self.op not in _OPS:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown operator {self.op!r}"
            )
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown severity {self.severity!r} "
                f"(expected one of {SEVERITIES})"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"rule {self.name!r}: window must be >= 1, got {self.window}"
            )

    def condition(self) -> str:
        """The rule's condition clause, e.g. ``rate(evict_flushes) > 3``."""
        if self.kind == "rate":
            lhs = f"rate({self.metric})"
        elif self.kind == "sustained":
            lhs = f"sustained({self.metric}, {self.window})"
        else:
            lhs = self.metric
        return f"{lhs} {self.op} {self.value:g}"

    def describe(self) -> str:
        return f"{self.name}: {self.condition()} @{self.severity}"


def parse_rule(text: str) -> AlertRule:
    """Parse one rule from the string grammar (see :data:`_RULE_RE`)."""
    m = _RULE_RE.match(text)
    if m is None:
        raise ConfigurationError(
            f"unparseable alert rule {text!r}; expected "
            f"'name: metric > value [@severity]', "
            f"'name: rate(metric) > value [@severity]' or "
            f"'name: sustained(metric, N) > value [@severity]'"
        )
    fn = m.group("fn")
    return AlertRule(
        name=m.group("name"),
        metric=m.group("fmetric") if fn else m.group("metric"),
        kind=fn or "threshold",
        op=m.group("op"),
        value=float(m.group("value")),
        window=int(m.group("window") or 1),
        severity=m.group("severity") or "warning",
    )


@dataclass(frozen=True)
class Alert:
    """One fired alert (typed; serialized to the JSONL alert log)."""

    rule: str
    metric: str
    severity: str
    window_index: int
    value: float
    threshold: float
    message: str
    source: str = ""

    def to_dict(self) -> Dict:
        return {
            "kind": "alert",
            "rule": self.rule,
            "metric": self.metric,
            "severity": self.severity,
            "window_index": self.window_index,
            "value": round(self.value, 6),
            "threshold": self.threshold,
            "message": self.message,
            "source": self.source,
        }


def default_rules() -> List[AlertRule]:
    """The stock rule set: the four failure shapes the paper cares about.

    Calibrated (like :class:`~repro.obs.analyze.AnalyzerConfig`) so the
    seed workloads run clean — each seed thread adapts at most once, and
    seed stall shares sit far below the SLO — which is what lets CI
    assert "zero error alerts" on the smoke grid.
    """
    return [
        # Flush-rate spike: this window evicted 3x the previous one.
        AlertRule(
            name="flush_rate_spike",
            metric="evict_flushes",
            kind="rate",
            op=">",
            value=3.0,
            severity="warning",
        ),
        # Resize storm: many controller resizes inside one window.
        AlertRule(
            name="resize_storm",
            metric="selections",
            kind="threshold",
            op=">",
            value=8,
            severity="warning",
        ),
        # Stall-share SLO: commit drains eat >75% of FASE cycles for
        # three consecutive windows.  Seed maxima sit well below (the
        # worst windowed share is queue/SC at ~0.65, the worst grid
        # cell an ER run at ~0.49).
        AlertRule(
            name="stall_share_slo",
            metric="stall_share",
            kind="sustained",
            op=">",
            value=0.75,
            window=3,
            severity="error",
        ),
        # Write-amplification runaway: every line re-flushed 8x on average.
        AlertRule(
            name="write_amplification",
            metric="write_amplification",
            kind="threshold",
            op=">",
            value=8.0,
            severity="warning",
        ),
    ]


#: Diagnosis codes forwarded to the alert log by ``observe_diagnoses``
#: (the analyzer's live-relevant findings; severities carry over).
DIAGNOSIS_ALERT_CODES = (
    "knee_oscillation",
    "resize_storm",
    "unmatched_selection",
    "unbalanced_fase",
)


class AlertEngine:
    """Evaluate alert rules over a stream of window snapshots.

    Rules are **edge-triggered**: a rule fires when its condition turns
    true and re-arms only after observing a window where it is false, so
    a sustained breach produces one alert, not one per window.  The
    ``sustained`` kind additionally requires ``window`` consecutive
    breaching windows before the edge counts.

    Alerts accumulate in emission order (deterministic for a
    deterministic stream).  With ``log_path`` each alert is also
    appended to a JSONL log as it fires — sorted keys, one object per
    line, same byte-determinism contract as the trace export.
    """

    def __init__(
        self,
        rules: Optional[Iterable[AlertRule]] = None,
        *,
        log_path: Optional[str] = None,
        source: str = "",
    ) -> None:
        self.rules: List[AlertRule] = list(default_rules() if rules is None else rules)
        names = [r.name for r in self.rules]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigurationError(f"duplicate alert rule names: {dupes}")
        self.alerts: List[Alert] = []
        self.source = source
        self._log_path = log_path
        self._log_fh: Optional[IO[str]] = (
            open(log_path, "w", encoding="utf-8") if log_path else None
        )
        self._streak: Dict[str, int] = {r.name: 0 for r in self.rules}
        self._active: Dict[str, bool] = {r.name: False for r in self.rules}
        self._last_value: Dict[str, Optional[float]] = {r.name: None for r in self.rules}
        self.windows_observed = 0

    # -- observation -----------------------------------------------------

    def observe_window(self, snapshot: object, source: str = "") -> List[Alert]:
        """Evaluate every rule against one snapshot; return new alerts.

        ``snapshot`` is a :class:`WindowSnapshot` or any dict with an
        optional ``index`` key; rules over metrics the snapshot lacks
        are skipped (their streak and edge state freeze).
        """
        doc = snapshot.to_dict() if hasattr(snapshot, "to_dict") else dict(snapshot)
        index = int(doc.get("index", self.windows_observed))
        self.windows_observed += 1
        fired: List[Alert] = []
        for rule in self.rules:
            if rule.metric not in doc:
                continue
            value = float(doc[rule.metric])
            if rule.kind == "rate":
                prev = self._last_value[rule.name]
                self._last_value[rule.name] = value
                if prev is None or prev == 0:
                    continue
                observed = value / prev
            else:
                observed = value
            breach = _OPS[rule.op](observed, rule.value)
            if rule.kind == "sustained":
                self._streak[rule.name] = self._streak[rule.name] + 1 if breach else 0
                breach = self._streak[rule.name] >= rule.window
            if breach and not self._active[rule.name]:
                fired.append(self._emit(rule, index, observed, source))
            self._active[rule.name] = breach
        return fired

    def observe_diagnoses(
        self, diagnoses: Iterable[Diagnosis], window_index: int = -1, source: str = ""
    ) -> List[Alert]:
        """Forward analyzer diagnoses (finalize-time findings) as alerts."""
        fired: List[Alert] = []
        for d in diagnoses:
            if d.code not in DIAGNOSIS_ALERT_CODES:
                continue
            alert = Alert(
                rule=f"diagnosis:{d.code}",
                metric="diagnosis",
                severity=d.severity,
                window_index=window_index,
                value=float(d.thread_id),
                threshold=0.0,
                message=d.message,
                source=source or self.source,
            )
            self._append(alert)
            fired.append(alert)
        return fired

    def _emit(self, rule: AlertRule, index: int, observed: float, source: str) -> Alert:
        alert = Alert(
            rule=rule.name,
            metric=rule.metric,
            severity=rule.severity,
            window_index=index,
            value=observed,
            threshold=rule.value,
            message=(
                f"{rule.condition()} — observed "
                f"{observed:g} at window {index}"
            ),
            source=source or self.source,
        )
        self._append(alert)
        return alert

    def _append(self, alert: Alert) -> None:
        self.alerts.append(alert)
        if self._log_fh is not None:
            self._log_fh.write(
                json.dumps(alert.to_dict(), sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            self._log_fh.flush()

    # -- results ---------------------------------------------------------

    def max_severity(self) -> Optional[str]:
        """Most severe alert level emitted so far (``None`` when clean)."""
        if not self.alerts:
            return None
        return max((a.severity for a in self.alerts), key=_SEVERITY_RANK.__getitem__)

    def by_severity(self) -> List[Alert]:
        """Alerts ranked most-severe first (stable within a severity)."""
        return sorted(
            self.alerts, key=lambda a: -_SEVERITY_RANK[a.severity]
        )

    def to_jsonl(self) -> str:
        """The whole alert log as deterministic JSONL (emission order)."""
        return "".join(
            json.dumps(a.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            for a in self.alerts
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def close(self) -> None:
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None

    def __enter__(self) -> "AlertEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"AlertEngine(rules={len(self.rules)}, alerts={len(self.alerts)}, "
            f"max={self.max_severity()!r})"
        )


# ---------------------------------------------------------------------------
# rich progress plumbing (shared by harness, parallel grids and campaigns)
# ---------------------------------------------------------------------------


def progress_arity(progress: Callable) -> int:
    """How many positional arguments a progress callback accepts.

    The grid runners historically call ``progress(done, total, cell)``
    and the fault campaigns ``progress(done, total)``; the live monitor
    wants a richer payload.  Callers use this to stay compatible with
    both: callbacks keep their old arity, richer callbacks opt in by
    declaring one more parameter.  Unintrospectable callables (C
    builtins) are treated as legacy-arity (-1 = unknown).
    """
    import inspect

    try:
        sig = inspect.signature(progress)
    except (TypeError, ValueError):
        return -1
    n = 0
    for p in sig.parameters.values():
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
            n += 1
        elif p.kind == p.VAR_POSITIONAL:
            return 99
    return n


def snapshot_from_result(cell: object, result: object) -> Dict:
    """Distill one finished grid cell into a flat metric snapshot dict.

    The per-cell payload the richer progress hook carries out of worker
    processes: everything the dashboard and the alert rules need,
    computed parent-side from the (already shipped) ``RunResult`` — no
    extra IPC.  Keys deliberately overlap :class:`WindowSnapshot`'s
    where the semantics match, so one rule grammar covers both feeds.

    ``cell`` is the harness's ``(workload, technique, threads)`` tuple
    (anything else is stringified into the ``cell`` key).
    """
    if isinstance(cell, tuple) and len(cell) == 3:
        workload, technique, _ = cell
        cell_name = f"{cell[0]}/{cell[1]}/t{cell[2]}"
    else:
        workload, technique = "", ""
        cell_name = str(cell)
    threads = getattr(result, "threads", ())
    total_cycles = max((t.cycles for t in threads), default=0)
    # Share is stall cycles over *aggregate* thread cycles, so it stays
    # a fraction for multi-thread cells too.
    cycle_sum = sum(t.cycles for t in threads)
    stall = sum(t.stall_cycles for t in threads)
    selections = sum(len(t.selected_sizes) for t in threads)
    return {
        "cell": cell_name,
        "workload": workload,
        "technique": technique,
        "threads": len(threads),
        "cycles": total_cycles,
        "time": getattr(result, "time", total_cycles),
        "stall_cycles": stall,
        "stall_share": (stall / cycle_sum) if cycle_sum else 0.0,
        "flush_ratio": getattr(result, "flush_ratio", 0.0),
        "l1_miss_ratio": getattr(result, "l1_miss_ratio", 0.0),
        "fases": getattr(result, "fase_count", 0),
        "selections": selections,
        "selected_sizes": [list(t.selected_sizes) for t in threads],
    }


def resolve_grid_progress(progress: Optional[Callable]) -> Optional[Callable]:
    """Normalize a grid progress callback to ``fn(done, total, cell, result)``.

    Legacy three-argument callbacks keep their ``(done, total, cell)``
    contract; callbacks declaring a fourth parameter additionally
    receive the finished cell's :func:`snapshot_from_result` — how the
    live monitor gets per-cell metrics out of a grid without changing
    any existing caller.
    """
    if progress is None:
        return None
    arity = progress_arity(progress)
    if arity >= 4 or arity == 99:
        return lambda done, total, cell, result: progress(
            done, total, cell, snapshot_from_result(cell, result)
        )
    return lambda done, total, cell, result: progress(done, total, cell)
