"""The theory predicts the engine: flush counts from the write trace alone.

A technique in the paper's buffer model flushes each line it takes in
exactly once — evicted, drained at a FASE exit or at the end — so its
flush count is the miss count of its buffer over the thread's write
trace, with no machine in the loop: an LRU of the fixed size for
SC-offline (``reference.lru_write_cache_misses``), the same at unbounded
size for LA, an 8-slot direct-mapped table for AT.  ER flushes every
write, BEST none.  SC-offline at size ``c`` behind a ``victim:V`` stage
is, by flush count, an LRU of ``c + V``: the cache keeps the ``c`` most
recent lines, the victim buffer the next ``V``, a rescue swaps the two
ends, and only the line both let go is flushed.  Both engines are held
to it, on every registered program at one thread.
"""

import pytest

from repro.cache.spec import technique_factory
from repro.common.events import events_from_batches
from repro.locality.reference import lru_write_cache_misses
from repro.nvram.machine import Machine, MachineConfig
from repro.workloads.base import BatchCachingWorkload, Workload
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

SC_SIZES = (1, 2, 8, 50)
#: (cache size ``c``, victim entries ``V``) for the staged SC-offline.
VICTIM_SIZES = ((1, 1), (1, 16), (8, 1), (8, 16))


class Recorded(Workload):
    """One thread of a program, recorded once, replayed to either engine."""

    def __init__(self, name, seed):
        self.name = name
        program = BatchCachingWorkload(get_workload(name, scale=0.02))
        self.batches = list(program.batch_streams(1, seed)[0])
        self.events = list(events_from_batches(self.batches))

    def streams(self, num_threads, seed):
        return [iter(self.events)]

    def batch_streams(self, num_threads, seed):
        return [iter(self.batches)]


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


def flushes(workload, technique, use_batches, **kwargs):
    result = Machine(MachineConfig()).run(
        workload, technique_factory(technique, **kwargs), seed=0,
        use_batches=use_batches, record_traces=technique == "BEST",
    )
    return result.flushes, result.traces


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_flushes_are_the_buffer_misses_of_the_trace(name, seed):
    workload = Recorded(name, seed)
    predicted = None
    for use_batches in (True, False):
        best, (trace,) = flushes(workload, "BEST", use_batches)
        if predicted is None:
            predicted = {
                "ER": trace.n,
                "LA": lru_write_cache_misses(trace, trace.n + 1),
                "AT": atlas_table_misses(trace),
                **{
                    size: lru_write_cache_misses(trace, size) for size in SC_SIZES
                },
                **{
                    (c, v): lru_write_cache_misses(trace, c + v)
                    for c, v in VICTIM_SIZES
                },
            }
        engine = {
            technique: flushes(workload, technique, use_batches)[0]
            for technique in ("ER", "LA", "AT")
        }
        for size in SC_SIZES:
            engine[size] = flushes(
                workload, "SC-offline", use_batches, sc_fixed_size=size
            )[0]
        for c, v in VICTIM_SIZES:
            engine[c, v] = flushes(
                workload, f"SC-offline+victim:{v}", use_batches, sc_fixed_size=c
            )[0]
        assert best == 0
        assert engine == predicted, (name, seed, use_batches)
