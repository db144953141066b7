"""Structured tracing of simulator runs (the `repro.obs` trace layer).

The simulator's end-of-run aggregates (:class:`~repro.nvram.stats.RunResult`)
say *how much* happened; the trace recorder says *when*.  Every event
carries a **model-time timestamp** (the issuing thread's cycle clock), a
thread id and up to two integer arguments, appended to parallel arrays —
no per-event object allocation, no dictionaries on the hot path.

Event taxonomy (see DESIGN.md §9, §11):

==============  ========================================================
``fase_begin``  an outermost FASE opened (``a`` = fase uid)
``fase_end``    it committed — recorded *after* the technique's
                end-of-FASE drain, so B/E spans include the drain stall
``evict_flush`` the software cache flushed a line off its own accord
                (``a`` = line, ``b`` = 1 if the hardware line was
                dirty, ``c`` = cause: 0 capacity eviction, 1 resize
                eviction, 4 victim-cache overflow — schema 3, written
                only by the victim stage; 2 and 3 are retired, and any
                other cause is an error)
``drain``       a synchronous flush-queue drain (``a`` = stall cycles,
                ``b`` = entries outstanding before the drain, ``c`` =
                the committing FASE's uid for a FASE-boundary drain,
                -1 for an end-of-program drain)
``burst_start`` an adaptive sampling burst opened (``a`` = burst length)
``mrc_computed``a burst closed and its MRC was analyzed (``a`` =
                analysis cost in cycles, ``b`` = number of knee
                candidates)
``knee_candidate``
                one candidate knee of that MRC (``a`` = size, ``b`` =
                miss ratio in parts-per-million)
``size_selected``
                the controller resized the software cache (``a`` = new
                size) — matches ``RunResult.selected_sizes`` exactly
``stall``       the CPU blocked on the flush engine outside a drain
                (``a`` = stall cycles, ``b`` = 0 for a flush issue,
                1 for a hardware eviction write-back)
==============  ========================================================

Schema 3 is the only schema read back: :func:`decode_trace_line` — the
per-line decoder behind :func:`parse_jsonl` — rejects a ``trace_meta``
header carrying any other version, and an event that precedes the
header, with a :class:`ConfigurationError` naming the line.

Exports: JSON-lines (a ``trace_meta`` header line carrying the schema
version, then one event per line, sorted keys — byte-identical across
repeated runs of the same configuration) and the Chrome ``trace_event``
format, loadable in Perfetto / ``chrome://tracing`` with one track per
simulated thread (model cycles are mapped to microseconds).

When tracing is off the machine holds the module-level
:data:`NULL_RECORDER`, whose ``enabled`` flag gates every recording site;
``tests/test_obs_overhead.py`` bounds what tracing costs.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError

#: Version of the event taxonomy written — and the only one read — by
#: this module.
TRACE_SCHEMA_VERSION = 3

#: The ``kind`` of the JSONL header line (not a simulator event).
TRACE_META_KIND = "trace_meta"

#: Rows per chunk of :meth:`TraceRecorder.iter_jsonl` (bounds the text
#: an export holds at once; the bytes do not depend on it).
EXPORT_CHUNK_ROWS = 8192

#: Event kinds (string constants; used as ``name`` in Chrome traces).
EV_FASE_BEGIN = "fase_begin"
EV_FASE_END = "fase_end"
EV_EVICT_FLUSH = "evict_flush"
EV_DRAIN = "drain"
EV_BURST_START = "burst_start"
EV_MRC_COMPUTED = "mrc_computed"
EV_KNEE_CANDIDATE = "knee_candidate"
EV_SIZE_SELECTED = "size_selected"
EV_STALL = "stall"

EVENT_KINDS = (
    EV_FASE_BEGIN,
    EV_FASE_END,
    EV_EVICT_FLUSH,
    EV_DRAIN,
    EV_BURST_START,
    EV_MRC_COMPUTED,
    EV_KNEE_CANDIDATE,
    EV_SIZE_SELECTED,
    EV_STALL,
)

#: Decoded names of the ``a``/``b``/``c`` payload per kind
#: (``None`` = unused).
ARG_NAMES: Dict[str, Tuple[Optional[str], Optional[str], Optional[str]]] = {
    EV_FASE_BEGIN: ("fase_id", None, None),
    EV_FASE_END: ("fase_id", None, None),
    EV_EVICT_FLUSH: ("line", "dirty", "cause"),
    EV_DRAIN: ("stall_cycles", "outstanding", "fase_id"),
    EV_BURST_START: ("burst_length", None, None),
    EV_MRC_COMPUTED: ("analysis_cost", "num_candidates", None),
    EV_KNEE_CANDIDATE: ("size", "miss_ratio_ppm", None),
    EV_SIZE_SELECTED: ("size", None, None),
    EV_STALL: ("stall_cycles", "source", None),
}


def encode_meta_line() -> str:
    """The ``trace_meta`` header line (no trailing newline)."""
    return json.dumps(
        {"kind": TRACE_META_KIND, "schema": TRACE_SCHEMA_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )


def _named_args(kind: str, a: int, b: int, c: int) -> Dict[str, int]:
    """The ``a``/``b``/``c`` payload under its decoded names for ``kind``."""
    names = ARG_NAMES.get(kind, ("a", "b", "c"))
    return {name: v for name, v in zip(names, (a, b, c)) if name is not None}


def encode_event_line_json(
    kind: str, tid: int, ts: int, a: int, b: int, c: int
) -> str:
    """The reference encoding: build the doc dict, ``json.dumps`` it.

    :func:`encode_columns` must stay byte-identical to this (plus the
    newline) for every known kind (checked by ``tests/test_obs_trace.py``);
    it remains the path for kinds without a precompiled template.
    """
    doc = {"kind": kind, "tid": tid, "ts": ts, **_named_args(kind, a, b, c)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _build_encoders() -> Dict[str, object]:
    """Precompile one ``%``-template line encoder per known event kind.

    ``json.dumps`` per event costs ~3 us (2,976 ns/event measured on a
    120,008-event queue trace, more than the run that produced it); for
    a known kind the line's shape is fully determined (fixed keys in
    sorted order, integer values), so it collapses to one format-string
    substitution (538 ns/event).  ``%d`` renders Python ints exactly as
    ``json.dumps`` does (including negatives), which keeps the templates
    byte-identical to :func:`encode_event_line_json` — recording sites
    pass ints only.  Each template ends in the line's newline.
    """
    encoders: Dict[str, object] = {}
    for kind, names in ARG_NAMES.items():
        sources = {"tid": "tid", "ts": "ts"}
        for name, source in zip(names, ("a", "b", "c")):
            if name is not None:
                sources[name] = source
        parts: List[str] = []
        order: List[str] = []
        for key in sorted(sources.keys() | {"kind"}):
            if key == "kind":
                parts.append('"kind":"%s"' % kind)
            else:
                parts.append('"%s":%%d' % key)
                order.append(sources[key])
        template = "{" + ",".join(parts) + "}\n"
        encoders[kind] = eval(  # one closure per kind, built once
            "lambda tid, ts, a, b, c: %r %% (%s,)" % (template, ",".join(order))
        )
    return encoders


_ENCODERS = _build_encoders()


def encode_columns(
    kinds: Sequence[str],
    tids: Sequence[int],
    times: Sequence[int],
    aa: Sequence[int],
    bb: Sequence[int],
    cc: Sequence[int],
) -> str:
    """Encode parallel event columns as newline-terminated JSONL lines.

    The single source of the byte format: the offline export
    (:meth:`TraceRecorder.iter_jsonl`) and the
    :class:`repro.obs.live.StreamingRecorder` spill both call this on
    slices of the same column store, which is what makes the incremental
    spill byte-identical to a post-hoc export.  Known kinds use their
    precompiled template; anything else falls back to the reference
    ``json.dumps`` encoding.
    """
    get = _ENCODERS.get
    lines = []
    append = lines.append
    for kind, tid, ts, a, b, c in zip(kinds, tids, times, aa, bb, cc):
        encoder = get(kind)
        if encoder is not None:
            append(encoder(tid, ts, a, b, c))
        else:
            append(encode_event_line_json(kind, tid, ts, a, b, c) + "\n")
    return "".join(lines)


class TraceEvent(NamedTuple):
    """One decoded trace event (the recorder stores parallel arrays)."""

    kind: str
    thread_id: int
    time: int
    a: int
    b: int
    c: int = 0


class TraceRecorder:
    """Buffers typed events in parallel arrays; exports JSONL / Chrome.

    ``record`` is the only hot call: six list appends.  All decoding,
    aggregation and serialization happens at export time.
    """

    __slots__ = ("_kinds", "_tids", "_times", "_a", "_b", "_c", "schema")

    #: Class-level so the machine's ``recorder.enabled`` gate costs one
    #: attribute load whether the recorder is real or the null one.
    enabled = True

    def __init__(self) -> None:
        self._kinds: List[str] = []
        self._tids: List[int] = []
        self._times: List[int] = []
        self._a: List[int] = []
        self._b: List[int] = []
        self._c: List[int] = []
        #: Schema of the taxonomy these events use.
        self.schema = TRACE_SCHEMA_VERSION

    # -- recording -------------------------------------------------------

    def record(
        self, kind: str, thread_id: int, time: int, a: int = 0, b: int = 0, c: int = 0
    ) -> None:
        """Append one event (model-time ``time`` on thread ``thread_id``)."""
        self._kinds.append(kind)
        self._tids.append(thread_id)
        self._times.append(time)
        self._a.append(a)
        self._b.append(b)
        self._c.append(c)

    def on_quantum(self, thread_id: int, now: int) -> None:
        """Scheduler quantum edge; the plain recorder ignores it.

        The machine calls this once per scheduler quantum (both the
        per-event and batched paths).  The
        :class:`~repro.obs.live.StreamingRecorder` uses it to close
        cycle windows and spill; the buffering recorder has nothing to
        do.
        """

    def clear(self) -> None:
        """Drop every buffered event."""
        for column in self.columns():
            column.clear()

    # -- reading ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kinds)

    def columns(self) -> Tuple[List[str], List[int], List[int], List[int], List[int], List[int]]:
        """The parallel ``(kinds, tids, times, a, b, c)`` arrays.

        The analyzer's one-pass folds index these directly instead of
        materializing a :class:`TraceEvent` per event; callers must not
        mutate them.
        """
        return (self._kinds, self._tids, self._times, self._a, self._b, self._c)

    def events(self) -> Iterator[TraceEvent]:
        """Iterate events in recording order."""
        return map(TraceEvent, *self.columns())

    def events_of(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in recording order."""
        return [e for e in self.events() if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event count per kind (only kinds that occurred)."""
        return dict(sorted(Counter(self._kinds).items()))

    # -- export ----------------------------------------------------------

    def iter_jsonl(self) -> Iterator[str]:
        """Yield the JSONL export in newline-terminated chunks.

        The first chunk is always the ``trace_meta`` header declaring
        the schema version, even for an empty trace; each further chunk
        is :func:`encode_columns` of up to :data:`EXPORT_CHUNK_ROWS`
        rows, so an export never holds more than one chunk of text.
        """
        yield encode_meta_line() + "\n"
        columns = self.columns()
        for start in range(0, len(self._kinds), EXPORT_CHUNK_ROWS):
            stop = start + EXPORT_CHUNK_ROWS
            yield encode_columns(*(col[start:stop] for col in columns))

    def to_jsonl(self) -> str:
        """One JSON object per line, sorted keys — deterministic bytes."""
        return "".join(self.iter_jsonl())

    def to_chrome(self) -> Dict:
        """The Chrome ``trace_event`` document (open in Perfetto).

        Model cycles map to trace microseconds; outermost FASEs become
        duration (B/E) spans named ``FASE``, everything else an instant
        event on the issuing thread's track.
        """
        events: List[Dict] = []
        for tid in sorted(set(self._tids)):
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": f"sim thread {tid}"},
                }
            )
        for e in self.events():
            if e.kind == EV_FASE_BEGIN or e.kind == EV_FASE_END:
                events.append(
                    {
                        "ph": "B" if e.kind == EV_FASE_BEGIN else "E",
                        "name": "FASE",
                        "cat": "fase",
                        "pid": 0,
                        "tid": e.thread_id,
                        "ts": e.time,
                        "args": {"fase_id": e.a},
                    }
                )
            else:
                events.append(
                    {
                        "ph": "i",
                        "s": "t",
                        "name": e.kind,
                        "cat": "obs",
                        "pid": 0,
                        "tid": e.thread_id,
                        "ts": e.time,
                        "args": _named_args(e.kind, e.a, e.b, e.c),
                    }
                )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "time_unit": "model cycles rendered as microseconds",
                "trace_schema": TRACE_SCHEMA_VERSION,
            },
        }

    def write_jsonl(self, path: str) -> None:
        """Write the JSONL export to ``path``, one chunk at a time.

        Never materializes the whole document; the bytes are identical
        to ``to_jsonl()``.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for chunk in self.iter_jsonl():
                fh.write(chunk)

    def write_chrome(self, path: str) -> None:
        """Write the Chrome trace_event export to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_chrome(), sort_keys=True, indent=1) + "\n")

    def __repr__(self) -> str:
        return f"TraceRecorder(events={len(self)}, kinds={list(self.counts())})"


def decode_trace_line(
    line: str, header_seen: bool
) -> Optional[Tuple[str, int, int, int, int, int]]:
    """Decode one non-blank JSONL trace line.

    Returns ``None`` for the ``trace_meta`` header and ``(kind, tid, ts,
    a, b, c)`` for an event.  Malformed JSON, a line that is not a JSON
    object, a header whose schema is not :data:`TRACE_SCHEMA_VERSION`,
    an event before any header (``header_seen`` false), an unknown event
    kind, a missing ``tid``/``ts`` and a field that is not an integer
    each raise :class:`ConfigurationError`; the caller knows which line
    this is and prefixes the location.
    """
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ConfigurationError(f"not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"not a JSON object (got {type(doc).__name__})"
        )
    kind = doc.get("kind")
    if kind == TRACE_META_KIND:
        schema = doc.get("schema")
        if schema != TRACE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported trace schema {schema!r} "
                f"(this build reads schema {TRACE_SCHEMA_VERSION} only)"
            )
        return None
    if not header_seen:
        raise ConfigurationError(
            f"event before the trace_meta header (headerless traces are "
            f"not supported; this build reads schema "
            f"{TRACE_SCHEMA_VERSION} only)"
        )
    arg_names = ARG_NAMES.get(kind) if isinstance(kind, str) else None
    if arg_names is None:
        raise ConfigurationError(f"unknown event kind {kind!r}")
    values = [doc.get("tid"), doc.get("ts")]
    values += [0 if name is None else doc.get(name, 0) for name in arg_names]
    for name, value in zip(("tid", "ts") + arg_names, values):
        # bool is an int subclass; a recorder never writes one.
        if type(value) is not int:
            raise ConfigurationError(
                f"{kind} event has no {name!r}"
                if name not in doc
                else f"{kind} event field {name!r} is not an integer "
                f"(got {value!r})"
            )
    return (kind, *values)


def parse_jsonl(text: str) -> TraceRecorder:
    """Rebuild a :class:`TraceRecorder` from its JSONL export."""
    rec = TraceRecorder()
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = decode_trace_line(line, header_seen)
        except ConfigurationError as exc:
            raise ConfigurationError(f"trace line {lineno}: {exc}") from None
        if event is None:
            header_seen = True
        else:
            rec.record(*event)
    return rec


def read_jsonl(path: str) -> TraceRecorder:
    """Load a JSONL trace file written by :meth:`TraceRecorder.write_jsonl`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_jsonl(fh.read())


class NullRecorder:
    """The disabled path: ``enabled`` is False and ``record`` is a no-op.

    The machine checks ``recorder.enabled`` (a class attribute load)
    before touching any recording site, so a run with the null recorder
    does the same work as one with no observability layer at all.
    """

    __slots__ = ()

    enabled = False

    def record(
        self, kind: str, thread_id: int, time: int, a: int = 0, b: int = 0, c: int = 0
    ) -> None:
        """Deliberately empty."""

    def on_quantum(self, thread_id: int, now: int) -> None:
        """Deliberately empty."""

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullRecorder()"


#: The module-level shared null recorder every untraced machine holds.
NULL_RECORDER = NullRecorder()
