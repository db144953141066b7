"""Isolated layer drives: one layer at a time, on inputs recorded from a
real cell, called through that layer's public functions only.

Every drive takes plain recorded data (a ``(line, fase_id)`` write trace,
materialised event batches, a flush count) so the layer under test sees
exactly the traffic the cell gave it, with nothing else running.
Per-call times include the drive loop (~50 ns/iteration); compare them
between commits, not against a hardware clock.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.common.events import (
    EventBatch,
    batches_from_events,
    events_from_batches,
)
from repro.workloads.base import Workload

from perfbench.core import Spans, metric


class CountingPort:
    """A stub flush port: counts what a technique asks of the machine.

    Implements the whole ``FlushPort`` surface a technique may touch, so
    any technique (staged ones included) can be driven without a machine.
    """

    thread_id = 0
    outstanding = 0

    def __init__(self) -> None:
        self.current_fase_id = -1
        self.flushes = 0

    def flush_async(self, line, category="eviction", invalidate=True) -> None:
        self.flushes += 1

    def flush_sync(self, lines: Iterable[int], category="fase_end", invalidate=True) -> None:
        self.flushes += len(list(lines))

    # Simulated-time bookkeeping and trace events have nowhere to go.
    def add_overhead(self, cycles: int, instructions: int = 0) -> None:
        pass

    def add_adaptation_cost(self, cycles: int) -> None:
        pass

    def record_selected_size(self, size: int) -> None:
        pass

    def record_event(self, kind, a=0, b=0, c=0) -> None:
        pass


def drive_technique(technique, lines: Sequence[int], fids: Sequence[int]):
    """Feed one recorded write trace to ``technique``; return ``(host
    seconds, flushes it asked for)``.  FASE callbacks fire where the
    fase id changes, as the machine fires them for outermost FASEs."""
    port = CountingPort()
    technique.bind(port)
    on_store = technique.on_store
    current = -1
    start = time.perf_counter()
    for line, fid in zip(lines, fids):
        if fid != current:
            if current != -1:
                technique.on_fase_end()
            if fid != -1:
                technique.on_fase_begin()
            current = port.current_fase_id = fid
        on_store(line)
    if current != -1:
        technique.on_fase_end()
    technique.finish()
    return time.perf_counter() - start, port.flushes


def drive_hwcache(capacity_lines: int, ways: int, lines: Sequence[int]) -> float:
    """Host seconds for one store access per recorded line."""
    from repro.nvram.hwcache import HardwareCache

    access = HardwareCache(capacity_lines, ways).access
    start = time.perf_counter()
    for line in lines:
        access(line, True)
    return time.perf_counter() - start


def drive_flushqueue(timing, flushes: int, per_drain: int = 16) -> float:
    """Host seconds to issue ``flushes`` write-backs (a drain every
    ``per_drain``), the clock advancing by the issue cost as in the
    machine."""
    from repro.nvram.flushqueue import FlushQueue

    queue = FlushQueue(timing.flush_queue_depth, timing.writeback_service)
    now = 0
    start = time.perf_counter()
    for i in range(flushes):
        now, _stall = queue.issue(now + timing.flush_issue)
        if i % per_drain == per_drain - 1:
            now, _stall = queue.drain(now)
    queue.drain(now)
    return time.perf_counter() - start


class MaterializedWorkload(Workload):
    """One thread's events held as plain lists in both encodings, so the
    machine's two engines can be timed with generation and decoding
    already paid."""

    def __init__(self, name: str, batches: List[EventBatch]) -> None:
        self.name = name
        self.batches = batches
        self.events = list(events_from_batches(iter(batches)))

    def batch_streams(self, num_threads: int, seed: int):
        return [iter(self.batches)]

    def streams(self, num_threads: int, seed: int):
        return [iter(self.events)]


def materialize(workload: Workload, threads: int, seed: int) -> List[List[EventBatch]]:
    """Exhaust a workload's streams once into per-thread batch lists."""
    streams = workload.batch_streams(threads, seed)
    if streams is None:
        streams = [batches_from_events(s) for s in workload.streams(threads, seed)]
    return [list(s) for s in streams]


def count_events(per_thread: List[List[EventBatch]]) -> int:
    return sum(len(batch) for batches in per_thread for batch in batches)


def machine_engine_metrics(
    spans: Spans, machine_config, seed: int, programs: Dict[str, List[EventBatch]]
) -> Dict[str, Dict]:
    """``Machine.run`` under BEST on materialised single-thread streams,
    batched and per-event, plus the cost of decoding batches."""
    from repro.cache.spec import technique_factory
    from repro.nvram.machine import Machine

    events = batched_s = per_event_s = decode_s = 0.0
    for name, batches in programs.items():
        with spans.span("common.events.decode", cell=name):
            start = time.perf_counter()
            workload = MaterializedWorkload(name, batches)
            decode_s += time.perf_counter() - start
        events += len(workload.events)
        for use_batches in (True, False):
            with spans.span("nvram.machine.run", cell=f"{name}/batched={use_batches}"):
                start = time.perf_counter()
                Machine(machine_config).run(
                    workload,
                    technique_factory("BEST"),
                    num_threads=1,
                    seed=seed,
                    use_batches=use_batches,
                )
                took = time.perf_counter() - start
            if use_batches:
                batched_s += took
            else:
                per_event_s += took
    return {
        "common.events.decode_events_per_s": metric(events / decode_s, "events/host_s"),
        "nvram.machine.batched_ns_per_event": metric(
            1e9 * batched_s / events, "host_ns/event"
        ),
        "nvram.machine.per_event_ns_per_event": metric(
            1e9 * per_event_s / events, "host_ns/event"
        ),
        "nvram.machine.batched_over_per_event": metric(per_event_s / batched_s, "ratio"),
    }


def adaptive_metrics(spans: Spans, traces: Dict[str, object], bursts: Dict[str, int]):
    """``AdaptiveController.observe`` over one burst of each trace."""
    from repro.cache.adaptive import AdaptiveConfig, AdaptiveController

    observe_s = analysis_s = 0.0
    observed = 0
    for name, trace in traces.items():
        burst = min(bursts[name], trace.n)
        lines = trace.lines[:burst].tolist()
        fids = trace.fase_ids[:burst].tolist()
        controller = AdaptiveController(config=AdaptiveConfig(burst_length=burst))
        observe = controller.observe
        with spans.span("cache.adaptive.observe", cell=name):
            start = time.perf_counter()
            for i in range(burst - 1):
                observe(lines[i], fids[i])
            mid = time.perf_counter()
            observe(lines[-1], fids[-1])     # closes the burst: MRC + knee
            end = time.perf_counter()
        observe_s += mid - start
        analysis_s += end - mid
        observed += burst - 1
    return {
        "cache.adaptive.observe_ns": metric(1e9 * observe_s / observed, "host_ns/call"),
        "cache.adaptive.analysis_ms": metric(
            1e3 * analysis_s / len(traces), "host_ms/burst"
        ),
    }


def locality_stage_metrics(spans: Spans, traces: Dict[str, object]):
    """One span per stage of ``fase_transform → reuse → mrc → knee``,
    summed over the traces."""
    from repro.locality import (
        mrc_from_reuse,
        mrc_from_trace,
        rename_for_fases,
        reuse_curve,
        select_cache_size,
    )

    writes = intervals = 0
    for name, trace in traces.items():
        writes += trace.n
        with spans.span("locality.mrc_from_trace", cell=name):
            mrc_from_trace(trace)
        with spans.span("locality.rename", cell=name):
            renamed = rename_for_fases(trace)
        with spans.span("locality.reuse", cell=name):
            starts, ends = renamed.reuse_intervals()
            reuse = reuse_curve(starts, ends, trace.n)
        intervals += len(starts)
        with spans.span("locality.mrc_from_reuse", cell=name):
            mrc = mrc_from_reuse(reuse, n=trace.n)
        with spans.span("locality.knee", cell=name):
            select_cache_size(mrc)
    return {
        "locality.rename_writes_per_s": metric(
            writes / spans.total("locality.rename"), "writes/host_s"
        ),
        "locality.reuse_intervals_per_s": metric(
            intervals / spans.total("locality.reuse"), "1/host_s"
        ),
        "locality.intervals": metric(intervals, "count"),
        "locality.mrc_writes_per_s": metric(
            writes / spans.total("locality.mrc_from_trace"), "writes/host_s"
        ),
        "locality.knee_us": metric(
            1e6 * spans.total("locality.knee") / len(traces), "host_us/call"
        ),
    }


def sampling_stage_metrics(spans: Spans, traces: Dict[str, object], bursts: Dict[str, int]):
    """The online side: ``sampled_mrc`` and ``BurstSampler.record`` over
    one burst of each trace."""
    from repro.locality import BurstSampler, sampled_mrc

    recorded = 0
    for name, trace in traces.items():
        burst = min(bursts[name], trace.n)
        with spans.span("locality.sampled_mrc", cell=name):
            sampled_mrc(trace, burst)
        with spans.span("bench.prepare", cell=name):
            lines = trace.lines[:burst].tolist()
            fids = trace.fase_ids[:burst].tolist()
        record = BurstSampler(burst).record
        with spans.span("locality.burst_record", cell=name):
            for i in range(burst):
                record(lines[i], fids[i])
        recorded += burst
    return {
        "locality.sampled_mrc_ms": metric(
            1e3 * spans.total("locality.sampled_mrc") / len(traces), "host_ms/call"
        ),
        "locality.burst_record_ns": metric(
            1e9 * spans.total("locality.burst_record") / recorded, "host_ns/call"
        ),
    }


class SpanningWorkload(Workload):
    """Delegating proxy that spans and counts stream construction.

    Passed to ``execute_cell`` in place of the harness's workload: every
    ``streams``/``batch_streams`` call becomes a ``workloads.streams``
    span, and ``regenerated`` counts the calls that re-executed the
    generator — every ``streams`` call, and the first ``batch_streams``
    call per ``(threads, seed)`` (the harness's ``BatchCachingWorkload``
    serves repeats from memory).
    """

    def __init__(self, inner: Workload, spans: Spans) -> None:
        self._inner = inner
        self._spans = spans
        self._seen_batches = set()
        self.regenerated = 0

    @property
    def name(self) -> str:
        return self._inner.name

    def supports_threads(self, num_threads: int) -> bool:
        return self._inner.supports_threads(num_threads)

    def store_threads(self, num_threads: int) -> int:
        return self._inner.store_threads(num_threads)

    def batch_streams(self, num_threads: int, seed: int) -> Optional[List[Iterator]]:
        with self._spans.span("workloads.streams", cell=self.name):
            streams = self._inner.batch_streams(num_threads, seed)
        if streams is not None and (num_threads, seed) not in self._seen_batches:
            self._seen_batches.add((num_threads, seed))
            self.regenerated += 1
        return streams

    def streams(self, num_threads: int, seed: int) -> List[Iterator]:
        with self._spans.span("workloads.streams", cell=self.name):
            streams = self._inner.streams(num_threads, seed)
        self.regenerated += 1
        return streams
