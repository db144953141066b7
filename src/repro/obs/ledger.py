"""The run ledger: an append-only, crash-safe provenance store.

Every entry point that executes simulation — ``repro.api.run`` /
``traced_run``, ``Harness.run_grid``, ``run_grid_parallel``,
``repro.faults.run_campaign`` and the ``profile``/``crashmatrix`` CLI
artifacts — appends one :class:`RunRecord` here, so the repository keeps
a durable, queryable history of *everything that was ever run*: the
canonical spec (and its SHA-256), the result counters, the host
environment, wall time and the artifact paths the run produced.  The
``history`` CLI (:mod:`repro.obs.history`) compares the last two
records of every spec timeline, counter for counter.

Durability model (NVCache's append-only log, scaled to a JSONL file):

- One record is one JSON line, written with a **single** ``os.write``
  on an ``O_APPEND`` descriptor — concurrent appenders from different
  processes never interleave bytes within each other's lines.
- A crash mid-append can leave a torn final line; the reader treats any
  unparseable line as absent (a torn tail is skipped, counted, never
  fatal), and the next append **heals** the tail by prefixing a newline
  when the file does not end in one, so the log keeps growing past the
  scar.
- The log is the only file and ``scan`` the only reader: there is no
  derived state to go stale.

Determinism contract: two appends of the same configuration produce
records identical *modulo the environment fields* (timestamp, host,
git sha, wall time, run id, artifact paths) — asserted by
``tests/test_ledger.py`` and what makes per-spec timelines comparable.

The ledger is on by default, rooted at ``.ledger/`` under the working
directory.  The ``REPRO_LEDGER`` environment variable moves it
(``REPRO_LEDGER=/path/to/dir``) or disables it entirely
(``REPRO_LEDGER=off``); recording is always best-effort — an unwritable
ledger never fails the run it would have described.

Import direction: like the rest of :mod:`repro.obs`, this module must
not import the experiment stack; it depends only on the standard
library and duck-types the result objects it distills.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import socket
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

#: Record shape version (bump on breaking field changes; readers skip
#: records from other schemas rather than misread them).
LEDGER_SCHEMA = 1

#: Environment variable controlling the default ledger location.
LEDGER_ENV = "REPRO_LEDGER"
#: Values of :data:`LEDGER_ENV` that disable recording entirely.
LEDGER_OFF_VALUES = frozenset({"off", "none", "0", "disabled"})
#: Default ledger root when the env var is unset.
DEFAULT_LEDGER_DIR = ".ledger"

#: The log's file name under the ledger root.
LOG_NAME = "runs.jsonl"

#: Fields that describe the *environment* of a run rather than the run
#: itself: excluded from :meth:`RunRecord.stable_dict`, so re-running an
#: identical spec yields an identical stable form.
ENV_FIELDS = ("ts", "host", "git_sha", "wall_s", "run_id", "artifacts")


# ---------------------------------------------------------------------------
# Environment capture
# ---------------------------------------------------------------------------


def host_info() -> Dict[str, object]:
    """The recording host, compactly (cached per process)."""
    global _HOST_INFO
    if _HOST_INFO is None:
        _HOST_INFO = {
            "hostname": socket.gethostname(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        }
    return dict(_HOST_INFO)


_HOST_INFO: Optional[Dict[str, object]] = None
#: Ledger paths this process has reported as unwritable (``record_run``).
_UNWRITABLE: set = set()


def git_sha(start: Optional[str] = None) -> Optional[str]:
    """The checked-out commit, read straight from ``.git`` (no subprocess).

    Walks up from ``start`` (default: the working directory) to the
    nearest ``.git/HEAD``; resolves a symbolic ref through the loose ref
    file or ``packed-refs``.  Returns ``None`` outside a repository or
    on any read error — provenance capture must never fail a run.
    """
    try:
        here = os.path.abspath(start or os.getcwd())
        while True:
            head = os.path.join(here, ".git", "HEAD")
            if os.path.isfile(head):
                break
            parent = os.path.dirname(here)
            if parent == here:
                return None
            here = parent
        with open(head, "r", encoding="utf-8") as fh:
            line = fh.read().strip()
        if not line.startswith("ref:"):
            return line or None
        ref = line.split(None, 1)[1]
        loose = os.path.join(here, ".git", *ref.split("/"))
        if os.path.isfile(loose):
            with open(loose, "r", encoding="utf-8") as fh:
                return fh.read().strip() or None
        packed = os.path.join(here, ".git", "packed-refs")
        if os.path.isfile(packed):
            with open(packed, "r", encoding="utf-8") as fh:
                for entry in fh:
                    entry = entry.strip()
                    if entry.endswith(" " + ref):
                        return entry.split(" ", 1)[0]
        return None
    except OSError:
        return None


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Deterministic single-line JSON (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_fingerprint(spec: Dict) -> str:
    """SHA-256 of the canonical-JSON spec dict — the timeline key.

    The same derivation idiom as the on-disk result cache: every knob
    that can change the outcome belongs in ``spec``, so equal
    fingerprints mean comparable records.
    """
    return hashlib.sha256(canonical_json(spec).encode()).hexdigest()


def counters_from_result(result) -> Dict[str, object]:
    """Distill a :class:`~repro.nvram.stats.RunResult` into ledger counters.

    Duck-typed (obs must not import the simulator): any object exposing
    the aggregate properties works, including worker-shipped results.
    All values are deterministic functions of the configuration.
    """
    return {
        "persistent_stores": int(result.persistent_stores),
        "flushes": int(result.flushes),
        "flush_ratio": round(float(result.flush_ratio), 6),
        "instructions": int(result.instructions),
        "time": int(result.time),
        "stall_cycles": int(result.stall_cycles),
        "fase_count": int(result.fase_count),
        "l1_miss_ratio": round(float(result.l1_miss_ratio), 6),
        "crashed": bool(result.crashed),
    }


@dataclass
class RunRecord:
    """One ledger line: what ran, what it produced, where, and when.

    ``spec`` is the canonical configuration dict (technique spec dict,
    workload knobs, machine geometry — whatever the entry point's
    outcome depends on) and ``spec_sha`` its SHA-256: records sharing a
    fingerprint form one timeline.  ``counters`` hold the deterministic
    result numbers; ``profile`` an optional trace-profile digest;
    ``extra`` any other deterministic payload.  The :data:`ENV_FIELDS`
    describe the recording environment and are the only fields allowed
    to differ between re-runs of one spec.
    """

    kind: str
    spec: Dict = field(default_factory=dict)
    spec_sha: str = ""
    counters: Dict = field(default_factory=dict)
    profile: Dict = field(default_factory=dict)
    extra: Dict = field(default_factory=dict)
    schema: int = LEDGER_SCHEMA
    # -- environment (excluded from the stable form) --------------------
    ts: float = 0.0
    host: Dict = field(default_factory=dict)
    git_sha: Optional[str] = None
    wall_s: float = 0.0
    run_id: str = ""
    artifacts: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.spec_sha:
            self.spec_sha = spec_fingerprint(self.spec)

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "RunRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def stable_dict(self) -> Dict:
        """The record minus its environment fields.

        Two runs of one configuration must produce equal stable dicts —
        the determinism contract per-spec timelines rest on.
        """
        data = self.to_dict()
        for key in ENV_FIELDS:
            data.pop(key, None)
        return data


def _fresh_run_id(ts: float) -> str:
    """A unique-enough id: microsecond timestamp, pid, random tail."""
    return (
        f"{int(ts * 1e6):x}-{os.getpid():x}-{os.urandom(4).hex()}"
    )


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------


class RunLedger:
    """An append-only JSONL run registry rooted at one directory.

    See the module docstring for the durability model.  Instances are
    cheap (no open handles are retained between operations), so entry
    points resolve one per recording rather than holding global state.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.path = os.path.join(root, LOG_NAME)
        #: Lines the last scan skipped as torn/corrupt (observability
        #: for the reader's tolerance, asserted by tests).
        self.skipped_lines = 0

    def __len__(self) -> int:
        return len(self.records())

    # -- writing --------------------------------------------------------

    def append(self, record: RunRecord) -> RunRecord:
        """Durably append one record; fills unset environment fields.

        One ``os.write`` on an ``O_APPEND`` descriptor per record: the
        kernel serializes concurrent appenders, so lines from different
        processes never interleave.  If a previous writer crashed
        mid-line (file not ending in a newline), the append heals the
        tail by prefixing its own newline — the torn line stays torn
        (and is skipped on read) but the log remains parseable.
        """
        if not record.ts:
            record.ts = time.time()
        if not record.host:
            record.host = host_info()
        if record.git_sha is None:
            record.git_sha = git_sha(self.root)
        if not record.run_id:
            record.run_id = _fresh_run_id(record.ts)
        os.makedirs(self.root, exist_ok=True)
        line = canonical_json(record.to_dict()).encode("utf-8")
        payload = line + b"\n"
        if self._tail_is_torn():
            payload = b"\n" + payload
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        return record

    def _tail_is_torn(self) -> bool:
        """True when the log exists, is non-empty and lacks a final newline."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                if size == 0:
                    return False
                fh.seek(size - 1)
                return fh.read(1) != b"\n"
        except OSError:
            return False

    # -- reading --------------------------------------------------------

    def scan(self) -> List[RunRecord]:
        """Every parseable record, in append order; torn lines skipped.

        A line that fails to parse — the torn tail of a crashed writer,
        or bytes from a foreign schema — is counted in
        :attr:`skipped_lines` and otherwise ignored: the reader's job is
        to surface history, not to die on one scar.
        """
        records: List[RunRecord] = []
        skipped = 0
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except OSError:
            self.skipped_lines = 0
            return records
        for chunk in raw.split(b"\n"):
            if not chunk.strip():
                continue
            try:
                data = json.loads(chunk.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                skipped += 1
                continue
            if not isinstance(data, dict) or data.get("schema") != LEDGER_SCHEMA:
                skipped += 1
                continue
            try:
                records.append(RunRecord.from_dict(data))
            except TypeError:
                skipped += 1
        self.skipped_lines = skipped
        return records

    def records(
        self,
        kind: Optional[str] = None,
        spec_sha: Optional[str] = None,
    ) -> List[RunRecord]:
        """Records filtered by kind and/or spec fingerprint, in order."""
        out = self.scan()
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if spec_sha is not None:
            out = [r for r in out if r.spec_sha == spec_sha]
        return out

    def timelines(
        self, kind: Optional[str] = None
    ) -> Dict[str, List[RunRecord]]:
        """Records grouped by spec fingerprint, each group in append order."""
        groups: Dict[str, List[RunRecord]] = {}
        for record in self.records(kind=kind):
            groups.setdefault(record.spec_sha, []).append(record)
        return groups


# ---------------------------------------------------------------------------
# Resolution + the one recording entry point
# ---------------------------------------------------------------------------


def default_ledger_path() -> Optional[str]:
    """The ledger root the environment selects; ``None`` when disabled."""
    raw = os.environ.get(LEDGER_ENV)
    if raw is None:
        return DEFAULT_LEDGER_DIR
    if raw.strip().lower() in LEDGER_OFF_VALUES or not raw.strip():
        return None
    return raw


def resolve_ledger(
    ledger: Union[None, str, RunLedger] = None
) -> Optional[RunLedger]:
    """The ledger to record into: explicit object/path, or the default.

    ``None`` defers to :func:`default_ledger_path` (the ``REPRO_LEDGER``
    environment variable, else ``.ledger/``), which may disable
    recording entirely.
    """
    if isinstance(ledger, RunLedger):
        return ledger
    if isinstance(ledger, str):
        return RunLedger(ledger)
    path = default_ledger_path()
    return RunLedger(path) if path is not None else None


def record_run(
    kind: str,
    spec: Dict,
    counters: Dict,
    *,
    wall_s: float = 0.0,
    profile: Optional[Dict] = None,
    artifacts: Optional[Dict[str, str]] = None,
    extra: Optional[Dict] = None,
    ledger: Union[None, str, RunLedger] = None,
) -> Optional[RunRecord]:
    """Append one provenance record; best-effort, never raises.

    The single recording entry point every layer calls: resolves the
    ledger (env default unless overridden), builds the record, appends.
    Returns the appended record (environment fields filled) or ``None``
    when recording is disabled or the ledger is unwritable — a run must
    never fail because its provenance could not be written, but the first
    failed append per ledger path says so on stderr, once per process.
    """
    led = resolve_ledger(ledger)
    if led is None:
        return None
    record = RunRecord(
        kind=kind,
        spec=spec,
        counters=counters,
        profile=profile or {},
        extra=extra or {},
        wall_s=round(wall_s, 6),
        artifacts=dict(artifacts or {}),
    )
    try:
        return led.append(record)
    except OSError as err:
        if led.path not in _UNWRITABLE:
            _UNWRITABLE.add(led.path)
            print(f"ledger: not recording to {led.path}: {err}", file=sys.stderr)
        return None


def grid_cells_payload(results: Dict) -> Tuple[List, Dict]:
    """Distill a grid's ``{cell: RunResult}`` map for one grid record.

    Returns ``(per-cell rows, aggregate counters)``: the rows (one
    compact dict per cell, in deterministic cell order) go under
    ``extra["cells"]``; the aggregates are the record's ``counters``.
    """
    rows = []
    totals = {
        "cells": len(results),
        "persistent_stores": 0,
        "flushes": 0,
        "instructions": 0,
        "time": 0,
        "fase_count": 0,
    }
    for cell in sorted(results):
        name, technique, threads = cell
        result = results[cell]
        rows.append(
            {
                "workload": name,
                "technique": technique,
                "threads": threads,
                "time": int(result.time),
                "persistent_stores": int(result.persistent_stores),
                "flushes": int(result.flushes),
                "flush_ratio": round(float(result.flush_ratio), 6),
            }
        )
        totals["persistent_stores"] += int(result.persistent_stores)
        totals["flushes"] += int(result.flushes)
        totals["instructions"] += int(result.instructions)
        totals["time"] += int(result.time)
        totals["fase_count"] += int(result.fase_count)
    return rows, totals
