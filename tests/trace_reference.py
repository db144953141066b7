"""The write-trace reference: what a machine stores, line by line.

A program's write trace is read off its columns
(:meth:`WriteTrace.from_batches`); the machine records none.  This is
the recorder that check holds it to: a :class:`TraceRecordingMachine`
notes ``(line, FASE uid)`` for every line of every managed persistent
store its per-line path takes — the uid of the thread's outermost FASE,
or -1 outside one — so run on the per-event engine
(``use_batches=False``) it sees every store of the run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cache.spec import technique_factory
from repro.common.geometry import lines_spanned
from repro.locality.trace import WriteTrace
from repro.nvram.machine import Machine
from repro.nvram.memory import NVRAM_BASE


class TraceRecordingMachine(Machine):
    """A machine that records each thread's persistent-write trace."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recorded: Dict[int, Tuple[List[int], List[int]]] = {}

    def _store_lines(self, ctx, addr, size, value=None, managed=True) -> None:
        super()._store_lines(ctx, addr, size, value, managed)
        if not managed or addr < NVRAM_BASE:
            return
        first = addr >> 6
        # The machine's line rule: inside one line, zero bytes too, is that line.
        if first == (addr + size - 1) >> 6 and size >= 0:
            touched = (first,)
        else:
            touched = lines_spanned(addr, size)
        lines, fids = self.recorded.setdefault(ctx.thread_id, ([], []))
        for line in touched:
            lines.append(line)
            fids.append(ctx.fase_uid if ctx.fase_depth > 0 else -1)

    def traces(self, num_threads: int) -> List[WriteTrace]:
        """Each thread's recorded trace, in thread order."""
        return [
            WriteTrace(*self.recorded.get(tid, ([], []))) for tid in range(num_threads)
        ]


def recorded_traces(workload, num_threads: int, seed: int):
    """Run ``workload`` under BEST event by event and return the run and
    its per-thread recorded traces."""
    machine = TraceRecordingMachine()
    result = machine.run(
        workload,
        technique_factory("BEST"),
        num_threads=num_threads,
        seed=seed,
        use_batches=False,
    )
    return result, machine.traces(num_threads)
