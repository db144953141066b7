"""The three grid workloads: one cold ``Harness.run_grid`` per pass.

They share every layer below the harness and differ in how they use it:
``splash_batched`` runs the batched engine on SPLASH2 stand-ins whose
generators run once per program, ``micro_per_event`` and ``mdb_kv`` have
no ``batch_streams`` and so run the per-event engine with the generator
re-executed per technique.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

from perfbench import checks, layers
from perfbench.core import (
    BenchWorkload,
    CheckReport,
    Clock,
    PassOutput,
    Spans,
    adopt_orphans,
    cpus_available,
    median,
    metric,
    scratch_dir,
    stop_processes,
)

T6 = ("ER", "LA", "AT", "SC", "SC-offline", "BEST")
SPLASH2 = (
    "barnes", "fmm", "ocean", "raytrace", "volrend",
    "water-nsquared", "water-spatial",
)
Cell = Tuple[str, str, int]


def cell_key(cell: Cell) -> str:
    return "{}/{}/{}".format(*cell)


def needs_profile(technique: str) -> bool:
    from repro.cache.spec import TechniqueSpec

    return TechniqueSpec.parse(technique).base in ("SC", "SC-offline")


@dataclass
class GridState:
    config: object                       # HarnessConfig
    events: Dict[Tuple[str, int], int]   # (program, threads) -> events
    events_per_pass: int


class GridWorkload(BenchWorkload):
    work_unit = "simulated events"
    scale = 1.0
    quick_scale = 0.01
    cells: Tuple[Cell, ...] = ()
    #: The composed spec reported as ``cache.on_store_ns.staged``.
    staged = None
    #: Whether the layer run also measures ResultCache, parallel and obs.
    harness_extras = False

    def programs(self) -> List[str]:
        return list(dict.fromkeys(p for p, _t, _n in self.cells))

    def setup(self) -> GridState:
        from repro.experiments.harness import HarnessConfig, make_workload

        config = HarnessConfig(
            scale=self.quick_scale if self.quick else self.scale, seed=self.seed
        )
        workloads = {p: make_workload(config, p) for p in self.programs()}
        events = {
            (p, n): layers.count_events(layers.materialize(workloads[p], n, self.seed))
            for p, n in sorted({(p, n) for p, _t, n in self.cells})
        }
        per_pass = sum(events[(p, n)] for p, _t, n in self.cells)
        # SC and SC-offline cells cost one profiling run per program.
        per_pass += sum(
            events[(p, 1)]
            for p in self.programs()
            if any(needs_profile(t) for q, t, _n in self.cells if q == p)
        )
        return GridState(config, events, per_pass)

    def run_pass(self, state: GridState, clock: Clock) -> PassOutput:
        from repro.experiments.harness import Harness

        results = Harness(state.config).run_grid(
            self.cells, jobs=1, progress=lambda done, total, cell: clock.op_done()
        )
        return PassOutput(
            work=state.events_per_pass,
            results={cell_key(c): r.to_dict() for c, r in results.items()},
        )

    def check(self, state: GridState, results: Dict) -> CheckReport:
        report = CheckReport(attempted=len(self.cells))
        missing = [cell_key(c) for c in self.cells if cell_key(c) not in results]
        report.failures += [f"{key}: no result" for key in missing]
        report.failures += [
            f"{key}: {'; '.join(why)}"
            for key, why in sorted(checks.grid_failures(results).items())
        ]
        return report

    # -- simulated statistics ------------------------------------------

    def simulated(self, state: GridState, results: Dict) -> Dict[str, Dict]:
        from repro.experiments.tables import PAPER_TABLE3

        def sim_time(cell: Dict) -> int:
            return max(t["cycles"] for t in cell["threads"])

        speedups, sc_ratios, errors = [], [], []
        for p in self.programs():
            one = {t: results.get(f"{p}/{t}/1") for t in ("LA", "AT", "SC")}
            if one["AT"] and one["SC"]:
                speedups.append(sim_time(one["AT"]) / sim_time(one["SC"]))
            if one["SC"]:
                sc_ratios.append(checks.flush_ratio(one["SC"]))
            errors += [
                abs(checks.flush_ratio(cell) - PAPER_TABLE3[p][t.lower()])
                for t, cell in one.items()
                if cell
            ]
        stalls = sum(t["stall_cycles"] for c in results.values() for t in c["threads"])
        cycles = sum(t["cycles"] for c in results.values() for t in c["threads"])
        accesses = sum(c["l1_accesses"] for c in results.values())
        misses = sum(c["l1_misses"] for c in results.values())
        return {
            "sim.sc_speedup_over_at": metric(
                math.exp(sum(map(math.log, speedups)) / len(speedups)), "sim_ratio"
            ),
            "sim.sc_flush_ratio": metric(sum(sc_ratios) / len(sc_ratios), "sim_ratio"),
            "sim.flush_ratio_mae_vs_paper": metric(
                sum(errors) / len(errors), "sim_ratio"
            ),
            "nvram.hwcache.accesses": metric(accesses, "count"),
            "nvram.hwcache.misses": metric(misses, "count"),
            "nvram.hwcache.miss_ratio": metric(misses / accesses, "sim_ratio"),
            "nvram.flushqueue.issues": metric(
                sum(t["flushes"] for c in results.values() for t in c["threads"]),
                "count",
            ),
            "nvram.flushqueue.stall_cycles": metric(stalls, "sim_cycles"),
            "nvram.flushqueue.stall_share": metric(stalls / cycles, "sim_ratio"),
            "cache.adaptive.selections": metric(
                sum(
                    len(t["selected_sizes"])
                    for c in results.values()
                    for t in c["threads"]
                ),
                "count",
            ),
        }

    # -- the layer run -------------------------------------------------

    def layers(
        self, state: GridState, results: Dict, spans: Spans, plain_pass_s: float
    ) -> Dict[str, Dict]:
        from repro.experiments.harness import Harness, execute_cell

        config = state.config
        harness = Harness(config)
        proxies: Dict[str, layers.SpanningWorkload] = {}
        summaries = {}
        layer_results = {}
        with spans.span("bench.layer_pass") as root:
            for p in self.programs():
                with spans.span("workloads.make", cell=p):
                    proxies[p] = layers.SpanningWorkload(harness.workload(p), spans)
                if any(needs_profile(t) for q, t, _n in self.cells if q == p):
                    with spans.span("experiments.profile_summary", cell=p):
                        summaries[p] = harness.profile_summary(p)
            for cell in self.cells:
                p, technique, threads = cell
                with spans.span("experiments.execute_cell", cell=cell_key(cell)):
                    layer_results[cell_key(cell)] = execute_cell(
                        config, p, technique, threads,
                        summary=summaries.get(p), workload=proxies[p],
                    ).to_dict()
        if layer_results != results:
            raise AssertionError("layer pass results differ from the plain pass")

        layer_pass_s = spans.duration(root)
        profile_s = spans.total("experiments.profile_summary")
        cell_s = spans.total("experiments.execute_cell")
        streams = len(state.events)
        out = {
            "bench.layer_run_overhead_ratio": metric(layer_pass_s / plain_pass_s, "ratio"),
            "bench.span_coverage": metric(
                spans.children_total(root) / layer_pass_s, "ratio"
            ),
            "experiments.profile_s": metric(profile_s, "host_s"),
            "experiments.cell_s_sum": metric(cell_s, "host_s"),
            "experiments.overhead_share": metric(
                (plain_pass_s - profile_s - cell_s) / plain_pass_s, "ratio"
            ),
            "nvram.machine.run_s_share": metric(
                spans.self_time("experiments.execute_cell") / layer_pass_s, "ratio"
            ),
            "workloads.regen_count": metric(
                sum(proxy.regenerated for proxy in proxies.values()) / streams,
                "1/stream",
            ),
        }
        out.update(self._isolated(state, results, spans, harness, summaries))
        if self.harness_extras:
            out.update(self._harness_extras(state, results, spans, plain_pass_s))
        return out

    def _isolated(self, state, results, spans, harness, summaries) -> Dict[str, Dict]:
        from repro.cache.spec import technique_factory
        from repro.experiments.harness import sc_factory_kwargs
        from repro.workloads.registry import get_workload

        config, seed = state.config, self.seed
        out: Dict[str, Dict] = {}

        # workloads: exhaust every program's single-thread stream once,
        # on a fresh workload object so nothing is served from memory.
        batches = {}
        for p in self.programs():
            with spans.span("workloads.materialize", cell=p):
                batches[p] = layers.materialize(
                    get_workload(p, scale=config.scale), 1, seed
                )[0]
        events = sum(len(b) for bs in batches.values() for b in bs)
        materialize_s = spans.total("workloads.materialize")
        out["workloads.materialize_s"] = metric(materialize_s, "host_s")
        out["workloads.events"] = metric(events, "count")
        out["workloads.gen_events_per_s"] = metric(
            events / materialize_s, "events/host_s"
        )

        out.update(
            layers.machine_engine_metrics(spans, config.machine_config(), seed, batches)
        )

        # cache / hwcache / flushqueue: the BEST run's recorded writes,
        # replayed through one layer at a time.  A technique driven alone
        # must ask for exactly the flushes its cell counted.
        traces = {p: harness.trace(p) for p in self.programs()}
        on_store_s: Dict[str, float] = {}
        calls = hits = accesses = evictions = resizes = 0
        hwcache_s = 0.0
        hw_calls = 0
        for p, trace in traces.items():
            lines = trace.lines.tolist()
            fids = trace.fase_ids.tolist()
            with spans.span("nvram.hwcache.access", cell=p):
                hwcache_s += layers.drive_hwcache(
                    config.l1_capacity_lines, config.l1_ways, lines
                )
            hw_calls += len(lines)
            for technique in dict.fromkeys(
                t for q, t, n in self.cells if q == p and n == 1 and t != "BEST"
            ):
                kwargs = sc_factory_kwargs(
                    config, harness.workload(p), technique, 1, summaries.get(p)
                )
                instance = technique_factory(technique, **kwargs)(0)
                label = "staged" if technique == self.staged else technique
                with spans.span("cache.on_store", cell=f"{p}/{technique}"):
                    took, flushes = layers.drive_technique(instance, lines, fids)
                cell = results[cell_key((p, technique, 1))]
                if flushes != sum(t["flushes"] for t in cell["threads"]):
                    raise AssertionError(
                        f"isolated {p}/{technique} issued {flushes} flushes, "
                        "not what its cell counted"
                    )
                on_store_s[label] = on_store_s.get(label, 0.0) + took
                calls += len(lines)
                cache = getattr(instance, "cache", None)
                if cache is not None:
                    snap = cache.snapshot()
                    hits += snap["hits"]
                    accesses += snap["accesses"]
                    evictions += snap["evictions"]
                    resizes += snap["resizes"]
        per_label = sum(t.n for t in traces.values())
        for label, took in on_store_s.items():
            out[f"cache.on_store_ns.{label}"] = metric(
                1e9 * took / per_label, "host_ns/call"
            )
        out["cache.on_store_calls"] = metric(calls, "count")
        out["cache.hit_ratio"] = metric(hits / accesses, "ratio")
        out["cache.evictions"] = metric(evictions, "count")
        out["cache.resizes"] = metric(resizes, "count")
        out["nvram.hwcache.access_ns"] = metric(1e9 * hwcache_s / hw_calls, "host_ns/call")

        flushes = min(
            200_000, sum(t["flushes"] for c in results.values() for t in c["threads"])
        )
        with spans.span("nvram.flushqueue.issue"):
            took = layers.drive_flushqueue(config.timing, flushes)
        out["nvram.flushqueue.issue_ns"] = metric(1e9 * took / flushes, "host_ns/call")

        bursts = {p: harness.burst_length(p) for p in traces}
        out.update(layers.adaptive_metrics(spans, traces, bursts))
        out.update(layers.locality_stage_metrics(spans, traces))
        return out

    def _harness_extras(self, state, results, spans, plain_pass_s) -> Dict[str, Dict]:
        """ResultCache, the parallel grid and the observability stack."""
        from repro import api
        from repro.cache.spec import technique_factory
        from repro.experiments.cache import ResultCache
        from repro.experiments.harness import Harness, sc_factory_kwargs
        from repro.nvram.machine import Machine
        from repro.obs.ledger import record_run
        from repro.obs.live import StreamingRecorder

        config = state.config
        out: Dict[str, Dict] = {}
        with scratch_dir() as tmp:
            cache_dir = os.path.join(tmp, "cache")
            cache = ResultCache(cache_dir)
            keys = {
                cell: ResultCache.key(
                    config, "run", name=cell[0], technique=cell[1], threads=cell[2]
                )
                for cell in self.cells
            }
            with spans.span("experiments.cache.put"):
                for cell, key in keys.items():
                    cache.put(key, results[cell_key(cell)])
            with spans.span("experiments.cache.get"):
                for key in keys.values():
                    cache.get(key)
            with spans.span("experiments.cache.warm_pass"):
                warm = Harness(config, cache_dir=cache_dir).run_grid(self.cells, jobs=1)
            if {cell_key(c): r.to_dict() for c, r in warm.items()} != results:
                raise AssertionError("warm ResultCache pass differs from the plain pass")
            n = len(keys)
            out["experiments.cache.put_us"] = metric(
                1e6 * spans.total("experiments.cache.put") / n, "host_us/call"
            )
            out["experiments.cache.get_us"] = metric(
                1e6 * spans.total("experiments.cache.get") / n, "host_us/call"
            )
            out["experiments.cache.warm_pass_s"] = metric(
                spans.total("experiments.cache.warm_pass"), "host_s"
            )

            # The one multi-process measurement: only where the workers and
            # their resource trackers can be waited for afterwards.
            if adopt_orphans():
                jobs = min(cpus_available(), 4)
                try:
                    with spans.span("experiments.parallel.run_grid"):
                        Harness(config).run_grid(self.cells, jobs=jobs)
                finally:
                    stop_processes()
                out["experiments.parallel.jobs_speedup"] = metric(
                    plain_pass_s / spans.total("experiments.parallel.run_grid"), "ratio"
                )
            out["experiments.parallel.cpus_available"] = metric(cpus_available(), "count")

            # obs: the same cell untraced, traced and streaming to disk.
            spec = api.RunSpec(
                workload="water-spatial", technique="SC",
                scale=config.scale, seed=self.seed,
            )
            base = api.harness_for(spec)
            summary = base.profile_summary(spec.workload)
            kwargs = sc_factory_kwargs(
                config, base.workload(spec.workload), spec.technique, 1, summary
            )

            def hand_wired(recorder=None) -> None:
                machine = Machine(config.machine_config(), recorder=recorder)
                machine.run(
                    base.workload(spec.workload),
                    technique_factory(spec.technique, **kwargs),
                    num_threads=1,
                    seed=self.seed,
                )

            def fresh_harness():
                harness = api.harness_for(spec)
                harness.preload_summaries({spec.workload: summary})
                harness.workload(spec.workload).batch_streams(1, self.seed)
                return harness

            plain_s, traced_s, null_s, streaming_s = [], [], [], []
            for rep in range(3):
                harness = fresh_harness()
                with spans.span("obs.api.run") as row:
                    api.run(spec, harness=harness)
                plain_s.append(spans.duration(row))
                harness = fresh_harness()
                with spans.span("obs.api.traced_run") as row:
                    api.traced_run(spec, harness=harness)
                traced_s.append(spans.duration(row))
                with spans.span("obs.machine.null") as row:
                    hand_wired()
                null_s.append(spans.duration(row))
                with spans.span("obs.machine.streaming") as row:
                    with StreamingRecorder(os.path.join(tmp, f"spill{rep}.jsonl")) as rec:
                        hand_wired(rec)
                streaming_s.append(spans.duration(row))
            out["obs.trace.overhead_ratio"] = metric(
                median(traced_s) / median(plain_s), "ratio"
            )
            out["obs.live.streaming_overhead_ratio"] = metric(
                median(streaming_s) / median(null_s), "ratio"
            )

            ledger = os.path.join(tmp, "ledger")
            records = 50
            with spans.span("obs.ledger.record"):
                for i in range(records):
                    record_run("perfbench", {"i": i}, {"n": i}, ledger=ledger)
            out["obs.ledger.record_us"] = metric(
                1e6 * spans.total("obs.ledger.record") / records, "host_us/call"
            )
        return out


def _grid(programs, techniques, threads=1) -> Tuple[Cell, ...]:
    return tuple((p, t, threads) for p in programs for t in techniques)


class SplashBatched(GridWorkload):
    name = "splash_batched"
    scale = 0.1
    quick_scale = 0.02
    cells = _grid(SPLASH2, T6) + _grid(
        ("ocean", "water-spatial"), ("AT", "SC", "BEST"), threads=8
    )
    harness_extras = True


class MicroPerEvent(GridWorkload):
    name = "micro_per_event"
    scale = 0.05
    quick_scale = 0.01
    cells = _grid(("queue", "persistent-array", "linked-list", "hash"), T6) + _grid(
        ("queue", "linked-list"), ("AT", "SC"), threads=4
    )


class MdbKv(GridWorkload):
    name = "mdb_kv"
    scale = 0.03
    quick_scale = 0.01
    staged = "SC+victim:16"
    cells = _grid(("mdb",), T6 + (staged,)) + _grid(("mdb",), ("AT", "SC"), threads=4)

    def _isolated(self, state, results, spans, harness, summaries) -> Dict[str, Dict]:
        out = super()._isolated(state, results, spans, harness, summaries)
        out.update(mdb_store_metrics(spans, self.seed, 2_000 if not self.quick else 300))
        return out


def mdb_store_metrics(spans: Spans, seed: int, pairs: int) -> Dict[str, Dict]:
    """``MdbStore`` put / get / delete over a recording backend: the
    store's own cost per operation and the events each operation emits."""
    import numpy as np

    from repro.mdb.kvstore import MdbStore
    from repro.mdb.ops import RecordingOps

    keys = np.random.default_rng(seed).permutation(pairs * 4)[:pairs].tolist()
    ops = RecordingOps()
    store = MdbStore(ops, page_size=512)
    with spans.span("mdb.store_ops"):
        for start in range(0, pairs, 24):
            with store.write_txn() as txn:
                for key in keys[start:start + 24]:
                    txn.put(key, key * 3 + 1)
        for key in keys:
            store.get(key)
        for start in range(0, pairs // 10, 24):
            with store.write_txn() as txn:
                for key in keys[start:min(start + 24, pairs // 10)]:
                    txn.delete(key)
    txn_ops = 2 * pairs + pairs // 10
    return {
        "mdb.txn_ops": metric(txn_ops, "count"),
        "mdb.ops_per_s": metric(txn_ops / spans.total("mdb.store_ops"), "ops/host_s"),
        "mdb.events_per_op": metric(len(ops.events) / txn_ops, "events/op"),
    }
