"""Crash injection: sites, fault models, and what survives.

A simulated power failure stops execution instantly: whatever has been
written back (flushed or evicted dirty) is durable in NVRAM; everything
still dirty in the hardware cache is lost.  This is precisely the failure
model that makes cache-line flushing necessary in the first place (§I).

A failure happens at an *injectable site* — a point where the durable
state just changed or a persistence-critical operation just completed;
every retired persistent store is one, so "after the k-th store" is the
k-th ``store`` site.  The machine numbers sites globally in execution
order (see :data:`SITE_CLASSES`); the fault-injection campaign
(:mod:`repro.faults`) enumerates them in a golden run and cuts the
crashed image of every fault model at every target site from its
machine's :class:`CrashJournal` (``Machine.power_cut`` walks it to its
end) without running anything again.

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
    Explicit ``clflush`` flushes and drained queues are not
    affected — a drain is the technique's ordering point, and dropping
    past it would fault *every* implementation, correct or not.

:class:`CrashedState` is what recovery code gets to look at afterwards —
the (possibly fault-mutated) NVRAM image and nothing else.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


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

#: Fault models: what a crash does beyond losing the dirty lines.
FAULT_CLEAN = "clean"
FAULT_TORN_LINE = "torn_line"
FAULT_REORDERED_FLUSH = "reordered_flush"

FAULT_MODELS = (FAULT_CLEAN, FAULT_TORN_LINE, FAULT_REORDERED_FLUSH)

#: Sentinel distinguishing "address absent from NVRAM" from a stored
#: ``None`` value: in pre-write-back bookkeeping, and in an overlay,
#: where it removes the address from the image beneath.
ABSENT = object()


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
# What a power cut leaves, cut from a golden run's journal
# (:meth:`CrashJournal.walk`)
# ---------------------------------------------------------------------------


class InFlight:
    """Hardware eviction write-backs a ``reordered_flush`` crash may drop:
    ``(thread, line, {addr: old durable value})`` in issue order, the old
    values read from ``durable`` — the image write-backs land in — just
    before one lands (:data:`ABSENT` where nothing was durable).

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
        records.append((tid, line, {addr: get(addr, ABSENT) for addr in values}))
        mine = [i for i, record in enumerate(records) if record[0] == tid]
        if len(mine) > self.depth:
            del records[mine[0]]

    def flushed(self, line: int) -> None:
        if self.records:
            self.records = [r for r in self.records if r[1] != line]

    def drained(self, tid: int) -> None:
        if self.records:
            self.records = [r for r in self.records if r[0] != tid]


def crash_overlay(
    nvram: Dict[int, object],
    lost_lines: List[int],
    pending: Dict[int, Dict[int, object]],
    inflight: Optional[InFlight],
    model: str,
    seed: int,
) -> Tuple[Dict[int, object], List[int], int]:
    """What fault ``model``, seeded with ``seed``, does to the durable
    ``nvram`` at a power cut: ``(overlay, torn lines, dropped
    write-backs)``, the overlay ``{addr: value}`` (:data:`ABSENT`:
    removed).  ``lost_lines`` are the dirty lines, sorted, and ``pending``
    their ``{line: {addr: value}}``; ``torn_line`` makes a strict,
    non-empty subset of a seeded selection of their values durable (a
    line with fewer than two cannot tear: 8-byte stores are atomic), and
    ``reordered_flush`` drops a seeded suffix of the ``inflight``
    write-backs (a dropped one implies every later one from its FIFO
    queue dropped too)."""
    overlay: Dict[int, object] = {}
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
                overlay[addr] = values[addr]
            torn.append(line)
    elif model == FAULT_REORDERED_FLUSH and inflight is not None and inflight.records:
        records = inflight.records
        dropped = random.Random(seed).randrange(0, len(records) + 1)
        for _tid, _line, olds in reversed(records[len(records) - dropped :]):
            overlay.update(olds)
    return overlay, torn, dropped


def overlaid(nvram: Dict[int, object], overlay: Dict[int, object]) -> Dict[int, object]:
    """A copy of ``nvram`` with ``overlay`` written over it."""
    image = dict(nvram)
    for addr, value in overlay.items():
        if value is ABSENT:
            image.pop(addr, None)
        else:
            image[addr] = value
    return image


#: Journal entry kinds, the low three bits of a code.  The bits above hold
#: a write-back's or a drain's thread.
J_STORE, J_DIRTY, J_FLUSH, J_EVICT, J_DRAIN = range(5)


class CrashJournal:
    """Every change a run makes to what a crash capture reads — durable
    memory, the hardware cache's pending values and dirty lines, the
    in-flight write-backs — so that the crashed state at any site is cut
    by walking it (:meth:`walk`) rather than by replaying the run.

    Every value-tracking machine owns one (``Machine.journal``): the only
    record of its persistent values a crash reads.  ``Machine.record_sites``
    notes its length at every site.  One entry per change, in columns:
    ``codes``, ``args`` (an address or a line) and, per store, a reference
    to its value in ``payloads`` — nothing is copied.  The machine appends
    them where it makes the changes: a persistent store's value
    (``J_STORE``, arg its address: the value belongs to, and dirties, the
    line of the store's first byte); a dirty bit with no value
    (``J_DIRTY``: a volatile store's lines, a persistent one's past its
    first); a write-back, an explicit flush (``J_FLUSH``) or a hardware
    eviction (``J_EVICT``), with its thread; a thread's drain (``J_DRAIN``).
    """

    __slots__ = ("codes", "args", "payloads", "depth")

    def __init__(self, depth: int) -> None:
        self.codes = array("I")
        self.args = array("q")
        self.payloads: List[object] = []
        self.depth = depth  # the flush queues', which bounds what is in flight

    def walk(
        self, targets: Iterable[Tuple[tuple, int]], fault_models: Tuple[str, ...]
    ) -> Iterator[Tuple[tuple, Dict[int, object], Set[int], List[int], list]]:
        """Walk to each of ``targets`` — ``(site-log entry, fault seed)``,
        ascending — and yield ``(entry, image, landed, lost, faults)``:
        the durable ``image`` the walk keeps (read it, never write it),
        the addresses ``landed`` in it since the last target, the dirty
        ``lost`` lines, sorted, and per model of ``fault_models``
        ``(model, overlay, torn, dropped)`` from :func:`crash_overlay`."""
        image: Dict[int, object] = {}
        pending: Dict[int, Dict[int, object]] = {}
        dirty: Set[int] = set()
        inflight = None
        if FAULT_REORDERED_FLUSH in fault_models:
            inflight = InFlight(self.depth, image)
        codes, args, payloads = self.codes, self.args, iter(self.payloads)
        pos = 0
        for entry, seed in targets:
            end = entry[4]
            landed: Set[int] = set()
            for code, arg in zip(codes[pos:end], args[pos:end]):
                kind = code & 7
                if kind == J_STORE:
                    line = arg >> 6
                    pending.setdefault(line, {})[arg] = next(payloads)
                    dirty.add(line)
                elif kind == J_DIRTY:
                    dirty.add(arg)
                elif kind == J_DRAIN:
                    if inflight is not None:
                        inflight.drained(code >> 3)
                else:
                    dirty.discard(arg)
                    values = pending.pop(arg, None)
                    if inflight is not None:
                        if kind == J_FLUSH:
                            inflight.flushed(arg)
                        elif values:
                            inflight.evicted(code >> 3, arg, values)
                    if values:
                        image.update(values)
                        landed.update(values)
            pos = end
            lost = sorted(dirty)
            yield entry, image, landed, lost, [
                (model, *crash_overlay(image, lost, pending, inflight, model, seed))
                for model in fault_models
            ]


def crashed_states(walk: Iterator[tuple]) -> Iterator[CrashedState]:
    """Each target and model a :meth:`CrashJournal.walk` yields as a
    :class:`CrashedState`: the walk's image, copied, under the overlay."""
    for entry, image, _landed, lost, faults in walk:
        site, site_class, _tid, _cycles, _end, at_store = entry
        for model, overlay, torn, dropped in faults:
            yield CrashedState(
                overlaid(image, overlay), lost, at_store, site, site_class,
                model, torn, dropped,
            )
