"""The crash references: the live crash plan every journal cut is held
to, and the event-by-event golden replay the driver's is held to.

A campaign cuts each crashed image from its golden run's journal
(``CrashJournal.walk``).  This is the mechanism the walk replaced, kept
only to check it: a :class:`LiveCrashMachine` armed with a
:class:`CrashPlan` runs until the planned site completes, captures there
what a power cut leaves under the plan's fault model and stops the run
with :class:`PowerFailure`.  It keeps, hook by hook, its own record of
what a crash reads — each dirty line's pending values (a store's under
the line of its first byte), the durable image write-backs land them
in, and the in-flight eviction write-backs — so it reads nothing of the
machine's journal.  It shares with the walk only ``InFlight`` and
``crash_overlay``, whose rules ``test_failure_misc.py`` checks on their
own.

:func:`reference_golden` is the golden replay as the driver ran it
before it walked its program's columns: every thread's decoded
``Event`` list, one ``Event`` at a time, each FASE's commit site taken
as the last site its end produced.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ConfigurationError, ReproError
from repro.common.events import EventKind
from repro.faults.driver import FaseRecord, GoldenRun
from repro.nvram.failure import (
    FAULT_CLEAN,
    FAULT_MODELS,
    FAULT_REORDERED_FLUSH,
    CrashedState,
    InFlight,
    crash_overlay,
    overlaid,
)
from repro.nvram.memory import NVRAM_BASE
from repro.nvram.machine import Machine
from tests.conftest import l1_dirty


class PowerFailure(ReproError):
    """Raised out of the operation that completed the planned site, after
    the machine captured ``crashed_state``.  ``run`` and ``drive`` take it
    as their stop signal and return."""


@dataclass(frozen=True)
class CrashPlan:
    """Crash right after the site with global index ``at_site`` completes
    (the index a site-recording run of the same configuration logs),
    under ``fault_model``, seeded with ``fault_seed``."""

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


class LiveCrashMachine(Machine):
    """A machine that crashes live where its armed :class:`CrashPlan` says.

    Under value tracking it keeps ``pending`` (``{line: {addr: value}}``,
    the values not yet written back) and ``durable`` (the image write-backs
    landed them in) itself; :meth:`live_cut` reads them."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.start_live_record()
        self.arm_crash_plan(None)

    def start_live_record(self) -> None:
        """An empty record: nothing crashed, pending or durable yet."""
        self.crashed_state: Optional[CrashedState] = None
        self.pending: Dict[int, Dict[int, object]] = {}
        self.durable: Dict[int, object] = {}

    def live_cut(self) -> CrashedState:
        """What a clean power cut now leaves, read off the live record."""
        lost = sorted(l1_dirty(self.hwcache))
        return CrashedState(dict(self.durable), lost, self._stores_seen)

    def arm_crash_plan(self, plan: Optional[CrashPlan]) -> None:
        """Schedule the crash ``plan`` names (``None`` disarms).  Crash
        sites become active, so a run goes event by event."""
        self._plan = plan
        self._target = -1 if plan is None else plan.at_site
        self._inflight = None
        if plan is not None:
            self._sites_active = True
            if plan.fault_model == FAULT_REORDERED_FLUSH:
                depth = self.config.timing.flush_queue_depth
                self._inflight = InFlight(depth, self.durable)

    def run(self, workload, technique_factory, *, crash_plan=None, **kwargs):
        """``Machine.run`` armed with ``crash_plan``; the result reads
        ``crashed`` when it fired."""
        self.arm_crash_plan(crash_plan)
        result = super().run(workload, technique_factory, **kwargs)
        return dataclasses.replace(result, crashed=self.crashed_state is not None)

    def _note_site(self, ctx, site_class: str) -> None:
        idx = self.sites_seen
        super()._note_site(ctx, site_class)
        if idx == self._target:
            plan = self._plan
            nvram, lost = self.durable, sorted(l1_dirty(self.hwcache))
            overlay, torn, dropped = crash_overlay(
                nvram, lost, self.pending, self._inflight,
                plan.fault_model, plan.fault_seed,
            )
            self.crashed_state = CrashedState(
                overlaid(nvram, overlay), lost, self._stores_seen, idx, site_class,
                plan.fault_model, torn, dropped,
            )
            raise PowerFailure(f"scheduled power failure at site {idx} ({site_class})")

    def _schedule(self, contexts, runner) -> None:
        try:
            super()._schedule(contexts, runner)
        except PowerFailure:
            # Nothing runs after the cut; final counters land for every thread.
            if self.metrics is not None:
                for ctx in contexts:
                    self._final_metrics(ctx)

    # The live record: pending values, their write-backs, and the
    # in-flight write-backs a reordered_flush crash may drop.  Each hook
    # updates it before the machine's own step, whose site (if any) is
    # noted last.

    def _store_lines(self, ctx, addr, size, value=None, managed=True) -> None:
        # The first line's access evicts only other lines, so the value
        # may be pending before the machine touches any line.  A zero-byte
        # store at a line's first byte touches none and stores nothing.
        if self.config.track_values and addr >= NVRAM_BASE and (size > 0 or addr & 63):
            self.pending.setdefault(addr >> 6, {})[addr] = value
        super()._store_lines(ctx, addr, size, value, managed)

    def _do_flush(self, ctx, line: int, category: str) -> None:
        if self._inflight is not None:
            self._inflight.flushed(line)
        self.durable.update(self.pending.pop(line, {}))
        super()._do_flush(ctx, line, category)

    def _do_drain(self, ctx, category: str = "final") -> None:
        if self._inflight is not None:
            self._inflight.drained(ctx.thread_id)
        super()._do_drain(ctx, category)

    def _evict_writeback(self, ctx, line: int) -> None:
        values = self.pending.pop(line, {})
        if self._inflight is not None and values:
            self._inflight.evicted(ctx.thread_id, line, values)
        self.durable.update(values)
        super()._evict_writeback(ctx, line)


def live_build(driver, plan: Optional[CrashPlan] = None):
    """``driver._build()``, its machine a :class:`LiveCrashMachine` with
    an empty live record, armed with ``plan``."""
    machine, runtimes, shift = driver._build()
    # The driver builds a plain Machine; it becomes the subclass (which
    # adds methods and no slots) before it is armed.
    machine.__class__ = LiveCrashMachine
    machine.start_live_record()
    machine.arm_crash_plan(plan)
    return machine, runtimes, shift


def replayed_state(driver, site, fault_model="clean", fault_seed=0):
    """One fresh replay of ``driver``'s configuration on a live-crashing
    machine armed at ``site``, stopped by the power failure there: its
    crashed state (``None`` if the site never fires)."""
    machine, runtimes, shift = live_build(driver, CrashPlan(site, fault_model, fault_seed))
    scratch = GoldenRun(
        sites=[], fases={}, commit_order=[], unprotected=set(),
        layout=runtimes[0].layout(),
    )
    driver._replay(machine, runtimes, shift, scratch)
    return machine.crashed_state


def reference_golden(driver) -> GoldenRun:
    """The golden run of ``driver``'s configuration, replayed event by
    event over the workload's ``streams()`` (module docstring)."""
    machine, runtimes, shift = driver._build()
    golden = GoldenRun(
        sites=machine.record_sites(), fases={}, commit_order=[],
        unprotected=set(), layout=runtimes[0].layout(), journal=machine.journal,
    )
    streams = driver.workload.streams(driver.num_threads, driver.seed)
    events = [list(stream) for stream in streams]
    positions = [0] * driver.num_threads
    open_fases = [None] * driver.num_threads

    def step(tid: int, budget: int) -> bool:
        rt = runtimes[tid]
        session = rt.session
        stream = events[tid]
        end = min(positions[tid] + budget, len(stream))
        for index in range(positions[tid], end):
            ev = stream[index]
            kind = ev.kind
            if kind == EventKind.STORE:
                addr = ev.addr
                token = (tid << 40) | index
                if addr >= NVRAM_BASE:
                    addr += shift
                    rt.store(addr, ev.size, token)
                    record = open_fases[tid]
                    if record is not None:
                        record.writes[addr] = token
                        record.all_values.setdefault(addr, set()).add(token)
                    else:
                        golden.unprotected.add(addr)
                else:
                    session.store(addr, ev.size, token)
            elif kind == EventKind.WORK:
                rt.work(ev.amount)
            elif kind == EventKind.LOAD:
                addr = ev.addr
                rt.load(addr + shift if addr >= NVRAM_BASE else addr, ev.size)
            elif kind == EventKind.FASE_BEGIN:
                rt.fase_begin()
                if session.fase_depth == 1:
                    record = FaseRecord(
                        uid=session.current_fase_id, thread_id=tid,
                        begin_site=machine.sites_seen,
                    )
                    golden.fases[record.uid] = record
                    open_fases[tid] = record
            else:  # FASE_END
                uid = session.current_fase_id
                if driver.commit_before_drain and session.fase_depth == 1:
                    rt.log.commit(uid)
                    commit_site = machine.sites_seen - 1
                    session.fase_end()
                else:
                    rt.fase_end()
                    commit_site = machine.sites_seen - 1
                if session.fase_depth == 0:
                    golden.fases[uid].commit_site = commit_site
                    golden.commit_order.append(uid)
                    open_fases[tid] = None
        positions[tid] = end
        return end < len(stream)

    machine.drive([rt.session for rt in runtimes], step)
    golden.seal()
    return golden
