"""The theory predicts the engine: flush counts from the write trace alone.

A technique in the paper's buffer model flushes each line it takes in
exactly once — evicted, drained at a FASE exit or at the end — so its
flush count is the miss count of its buffer over the thread's write
trace, with no machine in the loop: an LRU of the fixed size for
SC-offline (``reference.lru_write_cache_misses``), the same at unbounded
size for LA, an 8-slot direct-mapped table for AT.  ER flushes every
write, BEST none.  The trace is the program's, read off its columns
(``WriteTrace.from_batches``), so the engine's counts check that pass
too.  SC-offline at size ``c`` behind a ``victim:V`` stage
is, by flush count, an LRU of ``c + V``: the cache keeps the ``c`` most
recent lines, the victim buffer the next ``V``, a rescue swaps the two
ends, and only the line both let go is flushed.  Both engines are held
to it, on every registered program at one thread; the batched engine
also per thread at four, on the programs whose streams do not depend on
the schedule, where the quanta of the threads interleave.
"""

from functools import cached_property

import pytest

from repro.cache.spec import technique_factory
from repro.common.events import events_from_batches
from repro.experiments.harness import Harness
from repro.locality.reference import lru_write_cache_misses
from repro.locality.trace import WriteTrace
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.base import BatchCachingWorkload, Workload
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

SC_SIZES = (1, 2, 8, 50)
#: (cache size ``c``, victim entries ``V``) for the staged SC-offline.
VICTIM_SIZES = ((1, 1), (1, 16), (8, 1), (8, 16))
#: The programs a four-thread recording exists for (``mdb``: one writer,
#: three readers with empty traces).
SCHEDULE_INDEPENDENT = Harness.splash2_workloads() + ("mdb",)


class Recorded(Workload):
    """A program's threads, recorded once, replayed to either engine."""

    def __init__(self, name, seed, threads=1):
        self.name = name
        program = BatchCachingWorkload(get_workload(name, scale=0.02))
        streams = program.batch_streams(threads, seed)
        assert streams is not None, (name, threads)
        self.batches = [list(stream) for stream in streams]

    @cached_property
    def traces(self):
        return [
            WriteTrace.from_batches(batches, tid, NVRAM_BASE)
            for tid, batches in enumerate(self.batches)
        ]

    @cached_property
    def events(self):
        return [list(events_from_batches(batches)) for batches in self.batches]

    def streams(self, num_threads, seed):
        return [iter(events) for events in self.events]

    def batch_streams(self, num_threads, seed):
        return [iter(batches) for batches in self.batches]


def atlas_table_misses(trace, size=8):
    """Misses of a ``size``-slot direct-mapped table emptied at FASE exits."""
    slots, misses, current = [None] * size, 0, None
    for line, fid in zip(trace.lines.tolist(), trace.fase_ids.tolist()):
        if fid != current:
            if current is not None and current != -1:
                slots = [None] * size
            current = fid
        if slots[line % size] != line:
            slots[line % size] = line
            misses += 1
    return misses


def flushes(workload, technique, use_batches, threads=1, **kwargs):
    result = Machine(MachineConfig()).run(
        workload, technique_factory(technique, **kwargs), seed=0,
        num_threads=threads, use_batches=use_batches,
    )
    if threads == 1:
        return result.flushes
    return [t.flushes for t in result.threads]


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_flushes_are_the_buffer_misses_of_the_trace(name, seed):
    workload = Recorded(name, seed)
    (trace,) = workload.traces
    predicted = {
        "BEST": 0,
        "ER": trace.n,
        "LA": lru_write_cache_misses(trace, trace.n + 1),
        "AT": atlas_table_misses(trace),
        **{size: lru_write_cache_misses(trace, size) for size in SC_SIZES},
        **{(c, v): lru_write_cache_misses(trace, c + v) for c, v in VICTIM_SIZES},
    }
    for use_batches in (True, False):
        engine = {
            technique: flushes(workload, technique, use_batches)
            for technique in ("BEST", "ER", "LA", "AT")
        }
        for size in SC_SIZES:
            engine[size] = flushes(
                workload, "SC-offline", use_batches, sc_fixed_size=size
            )
        for c, v in VICTIM_SIZES:
            engine[c, v] = flushes(
                workload, f"SC-offline+victim:{v}", use_batches, sc_fixed_size=c
            )
        assert engine == predicted, (name, seed, use_batches)


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", SCHEDULE_INDEPENDENT)
def test_flushes_per_thread_at_four_threads(name, seed):
    """Each thread's buffer sees only its own trace, whatever the other
    threads do to the shared L1 between its quanta."""
    workload = Recorded(name, seed, threads=4)
    traces = workload.traces
    predicted = {
        "BEST": [0] * 4,
        "ER": [trace.n for trace in traces],
        "LA": [lru_write_cache_misses(trace, trace.n + 1) for trace in traces],
        "AT": [atlas_table_misses(trace) for trace in traces],
        **{
            size: [lru_write_cache_misses(trace, size) for trace in traces]
            for size in SC_SIZES
        },
    }
    engine = {
        technique: flushes(workload, technique, True, threads=4)
        for technique in ("BEST", "ER", "LA", "AT")
    }
    for size in SC_SIZES:
        engine[size] = flushes(
            workload, "SC-offline", True, threads=4, sc_fixed_size=size
        )
    assert sum(trace.n for trace in traces) > 0
    assert engine == predicted, (name, seed)
