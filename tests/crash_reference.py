"""The live crash plan: the reference every journal cut is held to.

A campaign cuts each crashed image from its golden run's journal
(``CrashJournal.walk``).  This is the mechanism the walk replaced, kept
only to check it: a :class:`LiveCrashMachine` armed with a
:class:`CrashPlan` runs until the planned site completes, captures there
what a power cut leaves under the plan's fault model — tracking the
in-flight eviction write-backs itself, hook by hook — and stops the run
with :class:`PowerFailure`.  It shares with the walk only ``InFlight``
and ``crash_overlay``, whose rules ``test_failure_misc.py`` checks on
their own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError, ReproError
from repro.faults.driver import GoldenRun
from repro.nvram.failure import (
    FAULT_CLEAN,
    FAULT_MODELS,
    FAULT_REORDERED_FLUSH,
    CrashedState,
    InFlight,
    crash_overlay,
    overlaid,
)
from repro.nvram.machine import Machine


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
    """A machine that crashes live where its armed :class:`CrashPlan` says."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.crashed_state: Optional[CrashedState] = None
        self.arm_crash_plan(None)

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
                self._inflight = InFlight(depth, self.memory.nvram)

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
            nvram, lost = self.memory.nvram, sorted(self.hwcache.dirty_lines())
            overlay, torn, dropped = crash_overlay(
                nvram, lost, self.hwcache.values, self._inflight,
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

    # The in-flight write-backs a reordered_flush crash may drop.

    def _do_flush(self, ctx, line: int, category: str) -> None:
        if self._inflight is not None:
            self._inflight.flushed(line)
        super()._do_flush(ctx, line, category)

    def _do_drain(self, ctx, category: str = "final") -> None:
        if self._inflight is not None:
            self._inflight.drained(ctx.thread_id)
        super()._do_drain(ctx, category)

    def _evict_writeback(self, ctx, line: int) -> None:
        values = self.hwcache.values.get(line)
        if self._inflight is not None and values:
            self._inflight.evicted(ctx.thread_id, line, values)
        super()._evict_writeback(ctx, line)


def replayed_state(driver, site, fault_model="clean", fault_seed=0):
    """One fresh replay of ``driver``'s configuration on a live-crashing
    machine armed at ``site``, stopped by the power failure there: its
    crashed state (``None`` if the site never fires)."""
    machine, runtimes, shift = driver._build()
    # The driver builds a plain Machine; it becomes the subclass (which
    # adds methods and no slots) before it is armed.
    machine.__class__ = LiveCrashMachine
    machine.crashed_state = None
    machine.arm_crash_plan(CrashPlan(site, fault_model, fault_seed))
    scratch = GoldenRun(
        sites=[], fases={}, commit_order=[], unprotected=set(), final_nvram={},
        layout=runtimes[0].layout(),
    )
    driver._replay(machine, runtimes, shift, scratch)
    return machine.crashed_state
