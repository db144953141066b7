"""Timing protocol, spans and host facts shared by every workload.

A *run* of a workload is: untimed-by-the-pass set-up (itself timed and
repeated, so ``setup_s`` is a median), then identical *cold passes* for
the measuring window, ``gc.collect()`` between passes, one process, one
thread, closed loop.  Host-time metrics are medians over passes — never
a single pass, never best-of.

Host time is reported at *reference host speed*: the shared 2-vCPU hosts
this runs on slow a process down by up to 1.6x for seconds to minutes at
a time (the sibling hardware thread getting busy), which no median over
one run's passes can remove.  A fixed pure-Python kernel is therefore
interleaved with the measured operations (see :class:`Clock`) and every
host time is scaled by ``REF_KERNEL_S / measured kernel time``.  Raw
wall times are kept in the output document beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The seed goldens are pinned at.  Seed 11 is held out: later claims
#: must also hold on it, and it is never used while developing a change.
DEV_SEED = 7

MIN_PASSES = 3
#: Set-up is repeated until it has run this often or used this long.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_BUDGET_S = 1.0

#: Host seconds one ``calibration_kernel()`` call takes on the reference
#: host (2-vCPU Xeon @ 2.1 GHz, CPython 3.11) with its sibling thread idle.
REF_KERNEL_S = 0.0047
#: Share of measured time spent re-running the kernel.
CALIBRATION_DUTY = 0.1


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted samples."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: object) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = self.b = 0

    def bump(self, k: int) -> None:
        self.a += k
        self.b ^= k


def calibration_kernel(n: int = 10_000) -> int:
    """A fixed mix of what the simulator spends its time on: dict and
    ``OrderedDict`` traffic, method calls, attribute updates, small-int
    arithmetic.  Never change it: every committed number is scaled by it.
    """
    counts: Dict[int, int] = {}
    lru: "OrderedDict[int, bool]" = OrderedDict()
    cell = _Cell()
    get = counts.get
    acc = 0
    for i in range(n):
        k = (i * 7919) & 1023
        counts[k] = get(k, 0) + i
        if k in lru:
            lru.move_to_end(k)
        else:
            lru[k] = True
            if len(lru) > 256:
                lru.popitem(last=False)
        cell.bump(k)
        acc += k >> 3
    return acc


class Clock:
    """Times closed-loop operations and samples host speed between them.

    A workload calls :meth:`op_done` after every operation.  The time
    since the previous call is that operation's latency; the kernel is
    then re-run until calibration has had ``CALIBRATION_DUTY`` of the
    measured time, so host speed is sampled evenly through the pass and
    kernel time is never counted as measured time.
    """

    def __init__(self) -> None:
        self.start()

    def start(self) -> None:
        self.op_s: List[float] = []
        self.measured_s = 0.0
        self.kernel_s = 0.0
        self.kernel_runs = 0
        self._last = time.perf_counter()

    def op_done(self, is_op: bool = True) -> None:
        """An operation just finished (``is_op=False``: measured work that
        is not itself an operation, such as a campaign's golden run)."""
        now = time.perf_counter()
        if is_op:
            self.op_s.append(now - self._last)
        self.measured_s += now - self._last
        while (
            self.kernel_runs == 0
            or self.kernel_s < CALIBRATION_DUTY * self.measured_s
        ):
            began = time.perf_counter()
            calibration_kernel()
            self.kernel_s += time.perf_counter() - began
            self.kernel_runs += 1
        self._last = time.perf_counter()

    def stop(self) -> None:
        """End of the pass: whatever ran since the last operation counts
        as measured time."""
        self.op_done(is_op=False)

    @property
    def speed_factor(self) -> float:
        """Multiply a raw host time by this to get reference-speed time."""
        return REF_KERNEL_S * self.kernel_runs / self.kernel_s


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span log: ``{id, name, start, end, parent, cell}`` rows.

    Spans nest by call structure (a stack), so every child interval lies
    inside its parent's and self time is the span minus its children.
    """

    def __init__(self) -> None:
        self.rows: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[Dict]:
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "cell": cell,
            "start": time.perf_counter(),
            "end": None,
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def duration(row: Dict) -> float:
        return row["end"] - row["start"]

    def durations(self, name: str) -> List[float]:
        return [self.duration(r) for r in self.rows if r["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        child_time: Dict[int, float] = {}
        for row in self.rows:
            if row["parent"] is not None:
                child_time[row["parent"]] = (
                    child_time.get(row["parent"], 0.0) + self.duration(row)
                )
        return sum(
            self.duration(r) - child_time.get(r["id"], 0.0)
            for r in self.rows
            if r["name"] == name
        )

    def children_total(self, parent: Dict) -> float:
        return sum(
            self.duration(r) for r in self.rows if r["parent"] == parent["id"]
        )


# ---------------------------------------------------------------------------
# Workload protocol and the measuring loops
# ---------------------------------------------------------------------------


@dataclass
class PassOutput:
    """What one cold pass produced."""

    work: int                 # units of work (events / trace writes / sites)
    results: Dict             # canonical JSON-able outputs (golden material)


class BenchWorkload:
    """One pinned workload.  Subclasses fill in the five hooks."""

    name = "abstract"
    #: What ``work_per_s`` counts on this workload.
    work_unit = "operations"

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick

    def setup(self) -> object:
        """Build the pass inputs from the seed; repeatable."""
        raise NotImplementedError

    def run_pass(self, state: object, clock: Clock) -> PassOutput:
        """One cold pass (fresh harness/driver objects every time);
        calls ``clock.op_done()`` after each closed-loop operation."""
        raise NotImplementedError

    def check(self, state: object, results: Dict) -> "CheckReport":
        """Outside-in invariants over one pass's results."""
        raise NotImplementedError

    def simulated(self, state: object, results: Dict) -> Dict[str, Dict]:
        """Deterministic simulated / accuracy metrics (per-layer names)."""
        return {}

    def layers(
        self, state: object, results: Dict, spans: Spans, plain_pass_s: float
    ) -> Dict[str, Dict]:
        """The spanned layer pass plus isolated layer drives.  Spans and
        per-layer host times are raw wall time; ``plain_pass_s`` is the
        raw median plain pass to take shares of."""
        raise NotImplementedError


@dataclass
class CheckReport:
    attempted: int
    failures: List[str] = field(default_factory=list)   # one line per failed op


@dataclass
class Measured:
    """Repeated timings of one thing: raw wall seconds and the same
    scaled to reference host speed."""

    raw_s: List[float] = field(default_factory=list)
    ref_s: List[float] = field(default_factory=list)

    def add(self, clock: Clock) -> None:
        self.raw_s.append(clock.measured_s)
        self.ref_s.append(clock.measured_s * clock.speed_factor)


def measure_setup(workload: BenchWorkload):
    """Run set-up repeatedly; return ``(last state, timings)``.

    Fast set-ups get more repetitions so that their median is steady.
    """
    timings = Measured()
    clock = Clock()
    state = None
    budget = 0.0 if workload.quick else SETUP_BUDGET_S
    while len(timings.raw_s) < SETUP_MIN_REPS or (
        len(timings.raw_s) < SETUP_MAX_REPS and sum(timings.raw_s) < budget
    ):
        state = None
        gc.collect()
        clock.start()
        state = workload.setup()
        clock.stop()
        timings.add(clock)
    return state, timings


def measure_passes(workload: BenchWorkload, state: object, seconds: float):
    """Cold passes until ``seconds`` have gone by (at least three).

    Returns ``(pass timings, first pass output, per-pass reference-speed
    op latencies, mismatches)`` where ``mismatches`` counts later passes
    whose results differ from the first — simulated statistics must
    repeat exactly.
    """
    timings = Measured()
    clock = Clock()
    ops: List[List[float]] = []
    first: Optional[PassOutput] = None
    first_digest = ""
    mismatches = 0
    began = time.perf_counter()
    while len(timings.raw_s) < MIN_PASSES or time.perf_counter() - began < seconds:
        gc.collect()
        clock.start()
        out = workload.run_pass(state, clock)
        clock.stop()
        timings.add(clock)
        ops.append([s * clock.speed_factor for s in clock.op_s])
        if first is None:
            first, first_digest = out, digest(out.results)
        elif digest(out.results) != first_digest:
            mismatches += 1
    return timings, first, ops, mismatches


# ---------------------------------------------------------------------------
# Host facts and scratch space
# ---------------------------------------------------------------------------


def cpus_available() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def host_info() -> Dict[str, object]:
    try:
        load_1m = os.getloadavg()[0]
    except OSError:
        load_1m = None
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpus_available": cpus_available(),
        "nproc": os.cpu_count() or 1,
        "loadavg_1m": load_1m,
    }


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so :func:`stop_processes` can wait for
    grandchildren too — a pool worker's ``multiprocessing`` resource
    tracker outlives the worker.  False where the host cannot do it; the
    multi-process measurement is then skipped."""
    try:
        import ctypes

        return ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> List[int]:
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            with contextlib.suppress(OSError):
                with open(f"/proc/{entry}/stat", "r", encoding="ascii") as fh:
                    if fh.read().rsplit(")", 1)[1].split()[1] == me:
                        found.append(int(entry))
    return found


def stop_processes(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``multiprocessing`` leaves its resource tracker running until some
    time *after* the interpreter exits (3.11 never stops it), so it is
    stopped by hand; whatever else is left is given ``grace_s`` to end on
    its own (trackers of dead workers do), then killed, and waited for.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is not None:
        for child in mp.active_children():
            child.terminate()
            child.join()
        tracker = sys.modules.get("multiprocessing.resource_tracker")
        stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
        if stop is not None:
            stop()  # closes the tracker's pipe and waits for it
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child, adopted or own, is left
        if pid == 0:
            if time.monotonic() > deadline:
                for child in _children():
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(child, 9)
            time.sleep(0.002)


@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A fresh directory *inside the checkout*, removed on exit.

    The benchmark may only write inside its checkout, so the system temp
    directory is not used; ``.perfbench_tmp/`` is git-ignored.
    """
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base, prefix="run-")
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)   # only succeeds when no other run is using it
