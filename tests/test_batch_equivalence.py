"""The batched execution path must be bit-identical to the per-event path.

The machine's ``_run_batches`` loop is an optimisation, never a semantic
fork: for any workload exposing ``batch_streams``, a run with
``use_batches=True`` must produce exactly the statistics of the same run
with ``use_batches=False`` — every per-thread counter, every flush
category, the shared hardware-cache counters, and the recorded traces.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.spec import technique_factory
from repro.common.events import batches_from_events, events_from_batches
from repro.nvram.machine import Machine, MachineConfig
from repro.workloads.base import BatchCachingWorkload
from repro.workloads.registry import get_workload

WORKLOADS = ("water-spatial", "barnes")
TECHNIQUES = ("BEST", "SC")
THREADS = (1, 4)


def _full_stats(result):
    """Everything a run produces, as one comparable structure."""
    return {
        "threads": [dataclasses.asdict(t) for t in result.threads],
        "l1_accesses": result.l1_accesses,
        "l1_misses": result.l1_misses,
        "crashed": result.crashed,
    }


def _run(workload, technique, threads, use_batches):
    machine = Machine(MachineConfig())
    result = machine.run(
        workload,
        technique_factory(technique),
        num_threads=threads,
        seed=7,
        record_traces=True,
        use_batches=use_batches,
    )
    return machine, result


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("threads", THREADS)
def test_batched_run_is_bit_identical(name, technique, threads):
    workload = get_workload(name, scale=0.05)
    m_ev, r_ev = _run(workload, technique, threads, use_batches=False)
    m_b, r_b = _run(workload, technique, threads, use_batches=True)

    assert _full_stats(r_b) == _full_stats(r_ev)
    # The shared hardware cache's full counter set, not just the two
    # aggregates RunResult carries.
    for attr in ("loads", "stores", "load_misses", "store_misses",
                 "evict_writebacks"):
        assert getattr(m_b.hwcache, attr) == getattr(m_ev.hwcache, attr), attr
    # Recorded traces: same lines, same FASE ids, per thread.
    assert len(r_b.traces) == len(r_ev.traces)
    for got, want in zip(r_b.traces, r_ev.traces):
        assert np.array_equal(got.lines, want.lines)
        assert np.array_equal(got.fase_ids, want.fase_ids)


@pytest.mark.parametrize("name", WORKLOADS)
def test_native_batches_encode_the_stream(name):
    """``batch_streams`` must emit exactly the events of ``streams``."""
    workload = get_workload(name, scale=0.05)
    for threads in THREADS:
        streams = workload.streams(threads, seed=7)
        batch_streams = workload.batch_streams(threads, seed=7)
        for stream, batches in zip(streams, batch_streams):
            want = [repr(ev) for ev in stream]
            got = [repr(ev) for ev in events_from_batches(batches)]
            assert got == want


def test_batch_caching_workload_replays_identically():
    """Materialized batches must replay the same sequence every call."""
    inner = get_workload("water-spatial", scale=0.05)
    caching = BatchCachingWorkload(inner)
    first = [
        [repr(ev) for ev in events_from_batches(s)]
        for s in caching.batch_streams(2, seed=7)
    ]
    again = [
        [repr(ev) for ev in events_from_batches(s)]
        for s in caching.batch_streams(2, seed=7)
    ]
    assert first == again
    # And they match the uncached emission.
    native = [
        [repr(ev) for ev in events_from_batches(s)]
        for s in inner.batch_streams(2, seed=7)
    ]
    assert first == native


def test_generic_chunking_adapter_round_trips():
    """batches_from_events/events_from_batches are exact inverses."""
    workload = get_workload("barnes", scale=0.05)
    want = [repr(ev) for ev in workload.streams(1, seed=7)[0]]
    batches = batches_from_events(workload.streams(1, seed=7)[0], chunk=100)
    got = [repr(ev) for ev in events_from_batches(batches)]
    assert got == want


def test_auto_batching_matches_explicit():
    """use_batches=None (the default) must pick the batched path and
    still produce per-event-identical results."""
    workload = get_workload("water-spatial", scale=0.05)
    _, r_auto = _run(workload, "BEST", 1, use_batches=None)
    _, r_ev = _run(workload, "BEST", 1, use_batches=False)
    assert _full_stats(r_auto) == _full_stats(r_ev)
