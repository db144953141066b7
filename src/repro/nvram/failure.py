"""Crash injection: plans, sites, fault models, and what survives.

A simulated power failure stops execution instantly: whatever has been
written back (flushed or evicted dirty) is durable in NVRAM; everything
still dirty in the hardware cache is lost.  This is precisely the failure
model that makes cache-line flushing necessary in the first place (§I).

There is one trigger: a failure is scheduled at an *injectable site* —
a point where the durable state just changed or a persistence-critical
operation just completed; every retired persistent store is one, so
"after the k-th store" is the k-th ``store`` site.  The machine numbers
sites globally in execution order (see :data:`SITE_CLASSES`); the
fault-injection campaign (:mod:`repro.faults`) enumerates them in a
golden run that also keeps a :class:`CrashJournal`, and cuts the crashed
image of every fault model at every target site from that journal
without running anything again; a :class:`CrashPlan` crashes one live
run at one site, under one model.

Fault models sharpen the failure beyond a clean power cut:

``clean``
    The baseline: dirty hardware-cache lines are lost whole, everything
    written back is durable.  (8-byte atomicity within a line, as on
    real hardware with ADR.)
``torn_line``
    A dirty cache line *tears* at the crash: a strict, seeded subset of
    its pending values reaches NVRAM even though the line was never
    flushed — the partial-line write-back window real controllers have.
    Sound recovery must roll the leaked values back via the undo log.
``reordered_flush``
    Hardware-initiated eviction write-backs still in the flush queue at
    the crash did not all complete: a seeded suffix of the in-flight
    write-backs is dropped (reverted to the previous durable values).
    Explicit ``clflush``/``clwb`` flushes and drained queues are not
    affected — a drain is the technique's ordering point, and dropping
    past it would fault *every* implementation, correct or not.

:class:`CrashedState` is what recovery code gets to look at afterwards —
the (possibly fault-mutated) NVRAM image and nothing else.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError, ReproError

#: Classes of injectable crash sites, in the vocabulary the campaign
#: matrix reports.  A site fires when the named operation *completes*;
#: site index k means "crash immediately after the k-th site".
SITE_STORE = "store"              # a persistent store retired
SITE_EVICT_FLUSH = "evict_flush"  # a software-cache eviction flush issued
SITE_LOG_APPEND = "log_append"    # an undo-log entry made durable
SITE_COMMIT = "commit"            # a FASE commit record made durable
SITE_DRAIN = "drain"              # a synchronous flush-queue drain completed

SITE_CLASSES = (
    SITE_STORE,
    SITE_EVICT_FLUSH,
    SITE_LOG_APPEND,
    SITE_COMMIT,
    SITE_DRAIN,
)

#: Fault models a :class:`CrashPlan` can apply at the crash instant.
FAULT_CLEAN = "clean"
FAULT_TORN_LINE = "torn_line"
FAULT_REORDERED_FLUSH = "reordered_flush"

FAULT_MODELS = (FAULT_CLEAN, FAULT_TORN_LINE, FAULT_REORDERED_FLUSH)

#: Sentinel distinguishing "address absent from NVRAM" from a stored
#: ``None`` value in pre-write-back bookkeeping.
_ABSENT = object()


class PowerFailure(ReproError):
    """Raised when the last scheduled crash site fires.

    The machine snapshots the durable state *before* raising, so the
    handler finds ``machine.crashed_state`` populated.  Code pushing
    operations through a session sees it escape the operation that
    completed the site; the machine's scheduler
    (:meth:`~repro.nvram.machine.Machine.run`, ``Machine.drive``) takes
    it as its one stop signal and returns.
    """


@dataclass(frozen=True)
class CrashPlan:
    """Schedule a crash at one injectable site.

    The power fails immediately after the site with global index
    ``at_site`` completes (see :data:`SITE_CLASSES`); the indexing
    matches a site-recording run (``Machine.record_sites``) of the same
    configuration.  ``fault_model`` selects how the durable image is
    mutilated at the crash (see the module docstring); ``fault_seed``
    makes the mutation deterministic.
    """

    at_site: int
    fault_model: str = FAULT_CLEAN
    fault_seed: int = 0

    def __post_init__(self) -> None:
        if self.at_site < 0:
            raise ConfigurationError("at_site must be non-negative")
        if self.fault_model not in FAULT_MODELS:
            raise ConfigurationError(
                f"unknown fault model {self.fault_model!r}; "
                f"expected one of {FAULT_MODELS}"
            )


@dataclass
class CrashedState:
    """What survives the failure: the durable NVRAM image.

    ``lost_lines`` lists, sorted, the cache lines that were dirty in the
    hardware cache at the crash — useful in tests to confirm that data was
    genuinely at risk (i.e. the crash was not trivially recoverable).  ``at_site``,
    ``fault_model``, ``torn_lines`` and ``dropped_writebacks`` record how
    the failure was injected, for campaign reporting.
    """

    nvram: Dict[int, object]
    lost_lines: List[int]
    at_store: int
    at_site: Optional[int] = None
    site_class: Optional[str] = None
    fault_model: str = FAULT_CLEAN
    torn_lines: List[int] = field(default_factory=list)
    dropped_writebacks: int = 0

    def read(self, addr: int, default: object = None) -> object:
        """Read a durable value from the post-crash NVRAM image."""
        return self.nvram.get(addr, default)


# ---------------------------------------------------------------------------
# What a power cut leaves: captured live (``Machine._crash``) or cut from
# a golden run's journal (:meth:`CrashJournal.cut`), by the same rules
# ---------------------------------------------------------------------------


class InFlight:
    """Hardware eviction write-backs a ``reordered_flush`` crash may drop:
    ``(thread, line, {addr: old durable value})`` in issue order, the old
    values read from ``durable`` — the image write-backs land in — just
    before one lands (:data:`_ABSENT` where nothing was durable).

    A thread keeps at most ``depth`` (its flush queue's: older ones have
    completed), an explicit flush of a line retires that line's
    (same-line ordering), and a drain retires all of its thread's.
    """

    __slots__ = ("records", "depth", "durable")

    def __init__(self, depth: int, durable: Dict[int, object]) -> None:
        self.records: List[Tuple[int, int, Dict[int, object]]] = []
        self.depth = depth
        self.durable = durable

    def evicted(self, tid: int, line: int, values: Dict[int, object]) -> None:
        get, records = self.durable.get, self.records
        records.append((tid, line, {addr: get(addr, _ABSENT) for addr in values}))
        mine = [i for i, record in enumerate(records) if record[0] == tid]
        if len(mine) > self.depth:
            del records[mine[0]]

    def flushed(self, line: int) -> None:
        if self.records:
            self.records = [r for r in self.records if r[1] != line]

    def drained(self, tid: int) -> None:
        if self.records:
            self.records = [r for r in self.records if r[0] != tid]


def crash_state(
    nvram: Dict[int, object],
    lost_lines: List[int],
    pending: Dict[int, Dict[int, object]],
    inflight: Optional[InFlight],
    model: str,
    seed: int,
    at_store: int,
    at_site: Optional[int],
    site_class: Optional[str],
) -> CrashedState:
    """What a power cut at ``at_site`` leaves under fault ``model``,
    seeded with ``seed``: a copy of the durable ``nvram`` the model has
    mutated.  ``lost_lines`` are the dirty lines, sorted, and ``pending``
    their ``{line: {addr: value}}``; ``torn_line`` makes a strict,
    non-empty subset of a seeded selection of their values durable (a
    line with fewer than two cannot tear: 8-byte stores are atomic), and
    ``reordered_flush`` drops a seeded suffix of the ``inflight``
    write-backs (a dropped one implies every later one from its FIFO
    queue dropped too)."""
    image = dict(nvram)
    torn: List[int] = []
    dropped = 0
    if model == FAULT_TORN_LINE:
        rng = random.Random(seed)
        for line in lost_lines:
            values = pending.get(line)
            if not values or len(values) < 2 or rng.random() < 0.5:
                continue
            addrs = sorted(values)
            for addr in addrs[: rng.randrange(1, len(addrs))]:
                image[addr] = values[addr]
            torn.append(line)
    elif model == FAULT_REORDERED_FLUSH and inflight is not None and inflight.records:
        records = inflight.records
        dropped = random.Random(seed).randrange(0, len(records) + 1)
        for _tid, _line, olds in reversed(records[len(records) - dropped :]):
            for addr, old in olds.items():
                if old is _ABSENT:
                    image.pop(addr, None)
                else:
                    image[addr] = old
    return CrashedState(
        image, lost_lines, at_store, at_site, site_class, model, torn, dropped
    )


#: Journal entry kinds, the low three bits of a code.  The bits above hold
#: the thread, or for a store how many lines past its address's it falls.
_J_STORE, _J_DIRTY, _J_FLUSH, _J_EVICT, _J_DRAIN = range(5)


class CrashJournal:
    """Every change a run makes to what a crash capture reads — durable
    memory, the hardware cache's pending values and dirty lines, the
    in-flight write-backs — so that the crashed state at any site is cut
    by walking it (:meth:`cut`) rather than by replaying the run.

    A value-tracking machine records into the journal handed to
    ``Machine.record_sites``, whose site log notes its length at every
    site.  One entry per change, in columns: ``codes``, ``args`` (an
    address or a line) and, per store, a reference to its value in
    ``payloads`` — nothing is copied.  The entries are a persistent
    store's pending value, which dirties its line; a dirty bit set with no
    value (a volatile store's line); a write-back of a line, an explicit
    flush or a hardware eviction, with its thread; and a thread's drain.
    """

    __slots__ = ("codes", "args", "payloads", "depth")

    def __init__(self, depth: int) -> None:
        self.codes = array("I")
        self.args = array("q")
        self.payloads: List[object] = []
        self.depth = depth  # the flush queues', which bounds what is in flight

    def _add(self, code: int, arg: int) -> None:
        self.codes.append(code)
        self.args.append(arg)

    def stored(self, line: int, addr: int, value: object) -> None:
        self._add(_J_STORE | (line - (addr >> 6)) << 3, addr)
        self.payloads.append(value)

    def dirtied(self, line: int) -> None:
        self._add(_J_DIRTY, line)

    def written_back(self, tid: int, line: int, evicted: bool) -> None:
        self._add((_J_EVICT if evicted else _J_FLUSH) | tid << 3, line)

    def drained(self, tid: int) -> None:
        self._add(_J_DRAIN | tid << 3, 0)

    def cut(
        self,
        targets: Iterable[Tuple[tuple, int]],
        fault_models: Tuple[str, ...],
        on_crash: Callable[[CrashedState], None],
    ) -> None:
        """Walk to each of ``targets`` — ``(site-log entry, fault seed)``,
        ascending — and hand ``on_crash`` the state a power cut there
        leaves under each of ``fault_models`` in turn, as the machine
        captures it live; only the image being judged is a copy."""
        image: Dict[int, object] = {}
        pending: Dict[int, Dict[int, object]] = {}
        dirty: Set[int] = set()
        inflight = None
        if FAULT_REORDERED_FLUSH in fault_models:
            inflight = InFlight(self.depth, image)
        codes, args, payloads = self.codes, self.args, iter(self.payloads)
        pos = 0
        for (site, site_class, _tid, _cycles, end, at_store), seed in targets:
            for code, arg in zip(codes[pos:end], args[pos:end]):
                kind = code & 7
                if kind == _J_STORE:
                    line = (arg >> 6) + (code >> 3)
                    pending.setdefault(line, {})[arg] = next(payloads)
                    dirty.add(line)
                elif kind == _J_DIRTY:
                    dirty.add(arg)
                elif kind == _J_DRAIN:
                    if inflight is not None:
                        inflight.drained(code >> 3)
                else:
                    dirty.discard(arg)
                    values = pending.pop(arg, None)
                    if inflight is not None:
                        if kind == _J_FLUSH:
                            inflight.flushed(arg)
                        elif values:
                            inflight.evicted(code >> 3, arg, values)
                    if values:
                        image.update(values)
            pos = end
            lost = sorted(dirty)
            for model in fault_models:
                on_crash(crash_state(
                    image, lost, pending, inflight, model, seed, at_store, site, site_class
                ))
