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
golden run and then replays once, capturing the crashed image of every
fault model at every target site on the way
(``Machine.arm_crash_sweep``; a :class:`CrashPlan` is its one-target,
one-model case).

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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

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

    ``lost_lines`` lists cache lines that were dirty in the hardware cache
    at the crash — useful in tests to confirm that data was genuinely at
    risk (i.e. the crash was not trivially recoverable).  ``at_site``,
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
# Fault-model application (called by Machine._crash at the crash instant)
# ---------------------------------------------------------------------------


def apply_torn_lines(
    image: Dict[int, object],
    dirty_lines: Iterable[int],
    pending_values: Dict[int, Dict[int, object]],
    seed: int,
) -> List[int]:
    """Tear a seeded selection of dirty lines into ``image``.

    For each torn line a strict, non-empty subset of its pending
    ``{addr: value}`` payload becomes durable.  Lines with fewer than two
    pending values cannot tear (8-byte stores are atomic).  Returns the
    lines torn, for :class:`CrashedState` bookkeeping.
    """
    rng = random.Random(seed)
    torn: List[int] = []
    for line in sorted(dirty_lines):
        values = pending_values.get(line)
        if not values or len(values) < 2:
            continue
        if rng.random() < 0.5:
            continue
        addrs = sorted(values)
        keep = rng.randrange(1, len(addrs))
        for addr in addrs[:keep]:
            image[addr] = values[addr]
        torn.append(line)
    return torn


def apply_reordered_flushes(
    image: Dict[int, object],
    inflight: List[Tuple[object, int, Dict[int, object]]],
    seed: int,
) -> int:
    """Drop a seeded suffix of in-flight eviction write-backs.

    ``inflight`` holds ``(ctx, line, {addr: old_durable_value})`` records
    in issue order, where old values use :data:`_ABSENT` for addresses
    that had never been durable.  Dropping newest-first keeps the result
    consistent with a per-thread FIFO write-back queue: a dropped
    write-back implies every later one from the same queue also dropped.
    Returns how many write-backs were dropped.
    """
    if not inflight:
        return 0
    rng = random.Random(seed)
    drop = rng.randrange(0, len(inflight) + 1)
    for _ctx, _line, olds in reversed(inflight[len(inflight) - drop:]):
        for addr, old in olds.items():
            if old is _ABSENT:
                image.pop(addr, None)
            else:
                image[addr] = old
    return drop
