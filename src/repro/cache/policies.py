"""The six persistence techniques of the evaluation (§IV-A).

========  =============================================================
ER        eager: ``clflush`` after every persistent store.
LA        lazy: record dirty lines, flush them all at the FASE end.
AT        Atlas: fixed 8-entry direct-mapped table (state of the art).
SC        the adaptive software cache (online bursty-sampled MRC).
SC-o      SC-offline: the software cache with a size chosen from a
          whole-trace MRC computed in a profiling run.
BEST      no flushes at all — not a correct technique, but the upper
          bound on what perfect flush scheduling could achieve.
========  =============================================================

A technique instance is strictly per-thread (the machine builds one per
thread through a factory).  Every technique is the paper's one model
(§II-A, §II-B/Fig. 1), a buffer: a store ``insert``s its line and may get
back one line to flush, of the class's ``flush_category``, and a commit
flushes what ``drain`` returns, ``levels`` times, every flush a
``clflush``.  ER and LA are the buffer's two ends — ER's ``insert`` hands
back the line it was given (``"eager"``), LA's keeps every line — and
BEST an empty buffer that never flushes (category ``None``: its
``insert`` is never called).  Besides those two the machine calls only
``absorb_repeats``, for the repeats of a line-touch run, and charges
``cost_per_store`` cycles per persistent store.  SC-offline's ``insert``
is its cache's ``access``; an adaptive SC's counts its warm-up, records
its burst and, on the burst's last write, resizes and *settles* into the
same ``access`` — ``settling`` tells the machine to re-read ``insert``
until then.  ``SC+victim:V`` is :class:`VictimCacheTechnique`, SC with a
victim cache behind it: a buffer of two levels that never settles.
``on_store``, ``on_fase_begin``, ``on_fase_end`` and
``finish`` are those calls spelled as port flushes, for a caller that
drives a technique without a machine.
The per-store costs are read off the paper's Table IV instruction counts
(per store: AT ~16-19, SC ~24 on top of the program's own ~62):
BEST < ER < LA < AT < SC, with SC running ~8% more instructions than AT.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Optional

from repro.common.errors import ConfigurationError, require_int
from repro.cache.adaptive import AdaptiveConfig, AdaptiveController
from repro.cache.table import ATLAS_TABLE_SIZE, AtlasTable
from repro.cache.write_cache import WriteCombiningCache


class PersistenceTechnique:
    """Base class: the paper's buffer model, with an empty buffer."""

    name = "abstract"
    #: Bookkeeping cycles charged per persistent store.
    cost_per_store = 0
    #: The category of the flush of a line ``insert`` returns; ``None``
    #: for a buffer that never returns one, whose ``insert`` the machine
    #: then never calls.  ``"eager"`` vouches that ``insert`` returns the
    #: line it was given and keeps no state, so the machine may flush a
    #: run of such stores as one train without calling it.
    flush_category: Optional[str] = "eviction"
    #: How many ``drain`` calls a commit makes, each non-empty result one
    #: flush train.
    levels = 1
    #: True while ``insert`` may rebind itself, call the port or charge
    #: cycles, or ``absorb_repeats`` may decline a run — an adapting SC
    #: until its burst closes, the victim cache always: the machine's
    #: batched loop then re-reads ``insert`` (and this flag) and hands it
    #: the thread's clock before each call, and asks ``absorb_repeats``
    #: run by run.  False promises the opposite: ``insert`` calls no port
    #: method and reads no clock, and ``absorb_repeats`` answers every run
    #: alike, keeping only a count whatever the line — so once it has
    #: taken one run, the loop sums a quantum's repeats into one call.
    settling = False

    def __init__(self) -> None:
        self.port = None

    def bind(self, port) -> None:
        """Attach the machine's per-thread flush port."""
        self.port = port

    def insert(self, line: int) -> Optional[int]:
        """Buffer ``line``; return a line it evicted, to be flushed."""
        return None

    def drain(self) -> Collection[int]:
        """Empty the buffer; return its lines, to be flushed."""
        return ()

    def on_store(self, line: int) -> None:
        """A persistent store touched ``line``."""
        evicted = self.insert(line)
        if evicted is not None:
            self.port.flush_async(evicted, self.flush_category)

    def absorb_repeats(self, line: int, n: int) -> bool:
        """Take the ``n`` stores that repeat ``insert(line)`` in one step.

        Called right after ``insert(line)`` when the thread's next ``n``
        stores hit the same line with nothing but computation between
        them, and only if that store left ``line`` dirty in L1 (the
        machine checks; a flushed line's repeat is a miss).  Return True
        after accounting all ``n`` as the hits they are, and the machine
        skips their ``insert`` calls; return False — the default — and
        the run arrives store by store.  True is only legal when a repeat
        is a pure hit: no flush, no port call, no state but a counter.
        """
        return False

    def on_fase_begin(self) -> None:
        """An outermost FASE began."""

    def on_fase_end(self) -> None:
        """An outermost FASE ended — persistence point."""
        self._commit("fase_end")

    def finish(self) -> None:
        """The thread's stream ended; make remaining data durable."""
        self._commit("final")

    def _commit(self, category: str) -> None:
        for _ in range(self.levels):
            lines = self.drain()
            if lines:
                self.port.flush_sync(lines, category)


class EagerTechnique(PersistenceTechnique):
    """ER — flush every store immediately (§I).

    Maximally overlaps transfer with computation but issues one flush per
    store (flush ratio exactly 1.0, Table III) and saturates the flush
    queue, throttling the CPU to the write-back service rate.
    """

    name = "ER"
    cost_per_store = 4
    flush_category = "eager"

    def insert(self, line: int) -> int:
        return line


class LazyTechnique(PersistenceTechnique):
    """LA — record lines, flush everything at the FASE end (§I).

    Achieves the minimum possible flush count (each distinct line once
    per FASE) but pays the whole transfer as an unoverlapped stall at the
    end of the FASE.
    """

    name = "LA"
    cost_per_store = 8

    def __init__(self) -> None:
        super().__init__()
        self._pending: Dict[int, None] = {}

    def insert(self, line: int) -> None:
        self._pending[line] = None

    def drain(self) -> Dict[int, None]:
        lines, self._pending = self._pending, {}
        return lines

    def absorb_repeats(self, line: int, n: int) -> bool:
        return True  # the line is already pending


class AtlasTechnique(PersistenceTechnique):
    """AT — the Atlas 8-entry direct-mapped table (§II-A)."""

    name = "AT"
    cost_per_store = 16

    def __init__(self) -> None:
        super().__init__()
        self.table = AtlasTable(ATLAS_TABLE_SIZE)
        self.insert = self.table.access
        self.drain = self.table.drain

    def absorb_repeats(self, line: int, n: int) -> bool:
        self.table.hits += n  # the line now owns its slot
        return True


class SoftwareCacheTechnique(PersistenceTechnique):
    """SC / SC-offline — the paper's contribution (§II-B, §III).

    A fully associative LRU write-combining cache of line addresses.
    Evictions flush asynchronously; the FASE end drains synchronously
    (bounded by the size cap).  With a controller attached the size
    adapts online from a bursty-sampled MRC; without one the size is
    fixed (SC-offline, size from a profiling run).
    """

    name = "SC"
    cost_per_store = 24

    def __init__(
        self,
        initial_size: int = 8,
        controller: Optional[AdaptiveController] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.cache = WriteCombiningCache(initial_size)
        self.controller = controller
        if name is not None:
            self.name = name
        self.drain = self.cache.drain
        if controller is None:
            # Fixed-size operation (SC-offline): nothing adapts, so it
            # starts settled.
            self._settle()
        else:
            self.settling = True
            self.sampler = controller.sampler

    def bind(self, port) -> None:
        super().bind(port)
        if self.controller is not None:
            # The controller emits its burst/MRC/knee trace events
            # through the thread's flush port.
            self.controller.port = port

    def _resize(self, new_size: int) -> None:
        port = self.port
        port.record_selected_size(new_size)
        for evicted in self.cache.resize(new_size):
            # Distinct category so the trace can attribute these to the
            # resize rather than to capacity pressure; the machine still
            # counts them as eviction flushes (same site class, same
            # RunResult totals).
            port.flush_async(evicted, "resize_eviction")

    def _settle(self) -> None:
        """Nothing adapts any more: a store is the cache's own access."""
        self.insert = self.cache.access
        self.settling = False

    def insert(self, line: int) -> Optional[int]:
        # An adapting SC's store until its burst closes.  Strictly inside
        # the warm-up it is counted, strictly inside the burst recorded and
        # charged a sample; an edge — the last skipped write, the burst's
        # first or its last — goes through the controller.  The last one
        # resizes the cache and settles it: from then on ``insert`` is the
        # cache's own ``access``, as for SC-offline.
        sampler = self.sampler
        lines = sampler.lines
        if sampler.skipping > 1:
            sampler.skipping -= 1
        elif 0 < len(lines) < sampler.burst_length - 1:
            port = self.port
            lines.append(line)
            sampler.fids.append(port.current_fase_id)
            port.add_adaptation_cost(self.controller.config.sample_cost)
        elif self.settling:
            controller = self.controller
            port = self.port
            new_size = controller.observe(line, port.current_fase_id)
            if new_size is not None:
                port.add_adaptation_cost(
                    controller.config.sample_cost + controller.analysis_cost()
                )
                self._resize(new_size)
                self._settle()
            elif not sampler.skipping:
                port.add_adaptation_cost(controller.config.sample_cost)
        return self.cache.access(line)

    def absorb_repeats(self, line: int, n: int) -> bool:
        if self.settling:
            # Repeats inside one phase are one slice, counted or recorded;
            # with a phase edge among them they arrive store by store.
            sampler = self.sampler
            if n < sampler.skipping:
                sampler.skipping -= n
            elif 0 < len(sampler.lines) < sampler.burst_length - n:
                port = self.port
                sampler.lines.extend([line] * n)
                sampler.fids.extend([port.current_fase_id] * n)
                port.add_adaptation_cost(n * self.controller.config.sample_cost)
            else:
                return False
        # The line is the cache's newest entry — even when ``insert``
        # resized it out first, which the machine sees as a line no
        # longer dirty in L1.
        self.cache.hits += n
        return True


class VictimCacheTechnique(SoftwareCacheTechnique):
    """SC with a victim cache behind it: ``SC+victim:V`` (DESIGN.md §14).

    Lines the cache evicts, by capacity or by its resize, park in a small
    LRU buffer of ``victim`` lines instead of flushing; a re-store rescues
    its line back into the cache (no flush at all), and overflow flushes
    the oldest victim (category ``victim``).  By flush count the pair is
    one LRU of ``c + V`` lines; it differs from SC at that size only in
    timing.  A commit is two trains: the cache's lines, then the victims.
    """

    flush_category = "victim"
    levels = 2
    # One victim lookup per store, in the spirit of the paper's Table IV
    # instruction accounting.
    cost_per_store = SoftwareCacheTechnique.cost_per_store + 3
    #: Never settled: ``insert`` may flush a victim the resize displaced,
    #: and ``absorb_repeats`` declines a parked line.  Whether SC itself
    #: still samples is ``adapting``.
    settling = True
    adapting = True

    def __init__(
        self,
        victim: int,
        name: str,
        initial_size: int = 8,
        controller: Optional[AdaptiveController] = None,
    ) -> None:
        super().__init__(initial_size, controller, name)
        del self.drain  # SC's is its cache's; a commit here drains the victims too
        self.victim_capacity = victim
        self._victim: Dict[int, None] = {}

    def _settle(self) -> None:
        self.adapting = False

    def _resize(self, new_size: int) -> None:
        port = self.port
        port.record_selected_size(new_size)
        for evicted in self.cache.resize(new_size):
            oldest = self._park(evicted)
            if oldest is not None:
                port.flush_async(oldest, "victim")

    def insert(self, line: int) -> Optional[int]:
        victim = self._victim
        if line in victim:
            # The line earned a second life: back into the cache, no
            # flush issued at all for its eviction.
            del victim[line]
        evicted = super().insert(line) if self.adapting else self.cache.access(line)
        return None if evicted is None else self._park(evicted)

    def drain(self) -> Collection[int]:
        # The cache first; once it is empty, the victims.
        lines = self.cache.drain()
        if not lines:
            lines, self._victim = self._victim, {}
        return lines

    def absorb_repeats(self, line: int, n: int) -> bool:
        if line in self._victim:
            return False  # the resize parked it: a repeat rescues it
        if self.adapting:
            return super().absorb_repeats(line, n)
        self.cache.hits += n
        return True

    def _park(self, line: int) -> Optional[int]:
        """Park an evicted ``line``; return the oldest victim it displaces."""
        victim = self._victim
        if line in victim:
            del victim[line]  # refresh recency
        victim[line] = None
        if len(victim) > self.victim_capacity:
            oldest = next(iter(victim))
            del victim[oldest]
            return oldest
        return None


class BestTechnique(PersistenceTechnique):
    """BEST — never flush (§IV-A).

    "BEST is not a valid solution but approximates the effect of optimal
    caching": zero direct flush cost, zero invalidation-induced misses.
    The upper bound every real technique is compared against.
    """

    name = "BEST"
    cost_per_store = 0
    flush_category = None

    def absorb_repeats(self, line: int, n: int) -> bool:
        return True


#: Base technique names accepted by the spec parser
#: (:class:`repro.cache.spec.TechniqueSpec`) and the experiment harness.
TECHNIQUES = ("ER", "LA", "AT", "SC", "SC-offline", "BEST")


def _base_factory(
    technique: str,
    *,
    victim: Optional[int] = None,
    name: Optional[str] = None,
    sc_fixed_size: Optional[int] = None,
    adaptive_config: Optional[AdaptiveConfig] = None,
) -> Callable[[int], PersistenceTechnique]:
    """Build a per-thread factory for one *base* technique.

    Internal: callers go through
    :func:`repro.cache.spec.technique_factory`, which parses a spec and
    builds it here.

    Parameters
    ----------
    technique:
        One of :data:`TECHNIQUES`.
    victim:
        For ``SC`` and ``SC-offline``: the victim-cache entries behind
        the cache (``None`` or 0: none), under the spec's ``name``.
    sc_fixed_size:
        For ``SC-offline``: the profiled best size.
    adaptive_config:
        For ``SC``: sampling/selection parameters.
    """
    if technique == "ER":
        return lambda tid: EagerTechnique()
    if technique == "LA":
        return lambda tid: LazyTechnique()
    if technique == "AT":
        return lambda tid: AtlasTechnique()
    if technique == "SC":
        cfg = adaptive_config or AdaptiveConfig()
        if victim:
            return lambda tid: VictimCacheTechnique(
                victim, name, controller=AdaptiveController(config=cfg)
            )
        return lambda tid: SoftwareCacheTechnique(controller=AdaptiveController(config=cfg))
    if technique == "SC-offline":
        if sc_fixed_size is None:
            raise ConfigurationError("SC-offline requires sc_fixed_size")
        require_int("sc_fixed_size", sc_fixed_size, 1)
        if victim:
            return lambda tid: VictimCacheTechnique(victim, name, sc_fixed_size)
        return lambda tid: SoftwareCacheTechnique(sc_fixed_size, name="SC-offline")
    if technique == "BEST":
        return lambda tid: BestTechnique()
    raise ConfigurationError(
        f"unknown technique {technique!r}; expected one of {TECHNIQUES}"
    )
