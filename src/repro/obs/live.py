"""The bounded trace spill: a recorder that streams JSONL as it runs.

Everything in :mod:`repro.obs.trace` is post-mortem: the recorder keeps
every event in unbounded columns until the run ends.
:class:`StreamingRecorder` is the bounded counterpart (DESIGN.md §12).
Its columns hold one cycle window; each closed window is appended to a
schema-3 JSONL file through the offline export's own encoder, so the
finished file is **byte-identical** to ``TraceRecorder.write_jsonl`` of
the same run, and ``profile`` reads it like any other trace.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Dict, IO, Union

from repro.common.errors import ConfigurationError
from repro.obs.trace import TraceRecorder, encode_columns, encode_meta_line

#: Default streaming window length in model cycles: small enough that a
#: seed run closes many windows, so memory stays bounded by one of them.
DEFAULT_WINDOW_CYCLES = 100_000


class StreamingRecorder(TraceRecorder):
    """Bounded-memory recorder: every closed window is appended to a file.

    Drop-in at every machine recording site (``enabled`` / ``record`` /
    ``on_quantum``).  ``target`` is the spill file — a path (opened here,
    closed by ``close()``) or an already-open text file (left open).  The
    ``trace_meta`` header is written at once; each window's rows are
    encoded, written and flushed when the window closes, and the
    remainder at ``close()`` — synchronously, in recording order, so a
    write error surfaces as itself at the boundary that hit it and the
    finished file is byte-identical to ``TraceRecorder.write_jsonl`` of
    the same run.  (A writer thread was measured and removed: under the
    GIL it was never faster than this — DESIGN.md §12.)

    The inherited columns — and so ``columns()`` and ``events()`` — hold
    the open window only, which bounds memory by one window whatever the
    run length; ``len()`` and ``counts()`` cover the whole stream.

    **Window rule.**  Per-thread cycle clocks interleave, so raw
    timestamps are not globally monotonic in recording order.  Windows
    are therefore driven by a *watermark* — the maximum timestamp
    observed so far (events and scheduler-quantum ticks both advance
    it).  Window ``w`` spans model cycles ``[w*W, (w+1)*W)`` and closes
    the first time the watermark reaches ``(w+1)*W``; every event is
    attributed to the window open at the moment it is recorded.  That
    makes windowing a pure function of the event/tick sequence, while
    the spill only *chunks* at the boundaries, so its bytes never depend
    on where they fell.  The watermark itself is implicit: boundaries
    only move forward, so ``now >= boundary`` is exactly "the running
    maximum has reached it".
    """

    __slots__ = (
        "window_cycles", "windows_closed", "_boundary",
        "_fh", "_owns_fh", "_spilled", "_spilled_counts", "closed",
    )

    def __init__(
        self,
        target: Union[str, "os.PathLike[str]", IO[str]],
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
    ) -> None:
        if window_cycles < 1:
            raise ConfigurationError(f"window_cycles must be >= 1, got {window_cycles}")
        super().__init__()
        self.window_cycles = window_cycles
        self.windows_closed = 0
        #: End cycle of the open window.
        self._boundary = window_cycles
        self._owns_fh = isinstance(target, (str, os.PathLike))
        self._fh: IO[str] = (
            open(target, "w", encoding="utf-8") if self._owns_fh else target
        )
        self._spilled = 0
        self._spilled_counts: Counter = Counter()
        self.closed = False
        self._fh.write(encode_meta_line() + "\n")

    def record(
        self, kind: str, thread_id: int, time: int, a: int = 0, b: int = 0, c: int = 0
    ) -> None:
        """Attribute one event to the open window; close windows if due."""
        # TraceRecorder.record, inlined: a super() call per event is a
        # measurable share of the streaming overhead.
        self._kinds.append(kind)
        self._tids.append(thread_id)
        self._times.append(time)
        self._a.append(a)
        self._b.append(b)
        self._c.append(c)
        if time >= self._boundary:
            self._advance(time)

    def on_quantum(self, thread_id: int, now: int) -> None:
        """Scheduler tick: lets an event-free stretch still close windows."""
        if now >= self._boundary:
            self._advance(now)

    def _advance(self, now: int) -> None:
        while now >= self._boundary:
            self._close_window()
            self._boundary += self.window_cycles
            self.windows_closed += 1

    def _close_window(self) -> None:
        """Spill window ``windows_closed``, which ends at ``_boundary``."""
        self.flush()

    def flush(self) -> None:
        """Append every buffered row to the file; on return the file
        holds every event recorded so far."""
        kinds = self._kinds
        if not kinds:
            return
        self._fh.write(encode_columns(*self.columns()))
        self._fh.flush()
        self._spilled += len(kinds)
        self._spilled_counts.update(kinds)
        self.clear()

    def close(self) -> None:
        """Spill the remainder and close an owned file — also when that
        last spill raises."""
        if self.closed:
            return
        self.closed = True
        try:
            self.flush()
        finally:
            if self._owns_fh:
                self._fh.close()

    def __enter__(self) -> "StreamingRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        """Total events observed (not the buffered rows)."""
        return self._spilled + len(self._kinds)

    def counts(self) -> Dict[str, int]:
        """Event count per kind over the whole stream (sorted by kind)."""
        return dict(sorted((self._spilled_counts + Counter(self._kinds)).items()))

    def __repr__(self) -> str:
        return f"StreamingRecorder(events={len(self)}, windows={self.windows_closed})"
