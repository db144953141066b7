"""``locality_offline``: the paper's linear-time locality theory with the
simulator out of the loop.

Set-up records five write traces through ``Harness.trace``; a pass runs
``fase_transform → reuse → mrc → knee → sampling`` on each.  Only this
workload moves when ``repro.locality`` gets faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from perfbench import checks, layers
from perfbench.core import (
    BenchWorkload, CheckReport, Clock, PassOutput, Spans, metric,
)

#: (program, scale): three SPLASH2 stand-ins with distinct knees, the
#: FASE-per-operation queue and the long-FASE B+tree store.
TRACES = (
    ("barnes", 1.0),
    ("ocean", 1.0),
    ("water-spatial", 1.0),
    ("queue", 0.5),
    ("mdb", 0.1),
)
QUICK_FACTOR = 0.05
MRC_SIZES = range(1, 51)
#: Prefix lengths for the (slow) reference estimators.
EXACT_PREFIX = 100_000
REFERENCE_PREFIX = 20_000


@dataclass
class OfflineState:
    traces: Dict[str, object]     # program -> WriteTrace
    bursts: Dict[str, int]        # program -> sampling burst length


class LocalityOffline(BenchWorkload):
    name = "locality_offline"
    work_unit = "trace writes analysed"

    def setup(self) -> OfflineState:
        from repro.experiments.harness import Harness, HarnessConfig

        factor = QUICK_FACTOR if self.quick else 1.0
        traces, bursts = {}, {}
        for name, scale in TRACES:
            harness = Harness(HarnessConfig(scale=scale * factor, seed=self.seed))
            traces[name] = harness.trace(name)
            # The burst the online sampler would use on this run.
            bursts[name] = min(traces[name].n, harness.burst_length(name))
        return OfflineState(traces, bursts)

    def run_pass(self, state: OfflineState, clock: Clock) -> PassOutput:
        from repro.locality import (
            BurstSampler, mrc_from_trace, sampled_mrc, select_cache_size,
        )

        results, work = {}, 0
        for name, trace in state.traces.items():
            burst = state.bursts[name]
            mrc = mrc_from_trace(trace)
            full_size = select_cache_size(mrc)
            sampled_size = select_cache_size(sampled_mrc(trace, burst))
            sampler = BurstSampler(burst)
            lines = trace.lines[:burst].tolist()
            fids = trace.fase_ids[:burst].tolist()
            for i in range(burst):
                sampler.record(lines[i], fids[i])
            online_size = select_cache_size(sampler.analyze())
            clock.op_done()
            work += trace.n + 2 * burst
            results[name] = {
                "writes": trace.n,
                "lines": trace.m,
                "fases": trace.num_fases,
                "burst": burst,
                "full_size": full_size,
                "sampled_size": sampled_size,
                "online_size": online_size,
                "mrc": [round(float(mrc.miss_ratio(s)), 9) for s in MRC_SIZES],
            }
        return PassOutput(work=work, results=results)

    def check(self, state: OfflineState, results: Dict) -> CheckReport:
        report = CheckReport(attempted=len(TRACES))
        for name, _scale in TRACES:
            entry = results.get(name)
            if entry is None:
                report.failures.append(f"{name}: no result")
                continue
            why = checks.mrc_failures(name, entry["mrc"])
            if entry["sampled_size"] != entry["online_size"]:
                why.append(f"{name}: BurstSampler and sampled_mrc disagree")
            if name == TRACES[0][0]:
                why += checks.duality_failures(
                    name, state.traces[name].head(REFERENCE_PREFIX)
                )
            if why:
                report.failures.append("; ".join(why))
        return report

    def simulated(self, state: OfflineState, results: Dict) -> Dict[str, Dict]:
        agree = sum(r["sampled_size"] == r["full_size"] for r in results.values())
        return {
            "locality.knee_agreement_ratio": metric(agree / len(results), "ratio"),
        }

    def layers(
        self, state: OfflineState, results: Dict, spans: Spans, plain_pass_s: float
    ) -> Dict[str, Dict]:
        import numpy as np

        from repro.locality import (
            exact_mrc, footprint_curve, mrc_from_trace, shards_mrc,
        )
        from repro.locality.reference import lru_mrc

        with spans.span("bench.layer_pass") as root:
            out = layers.locality_stage_metrics(spans, state.traces)
            out.update(layers.sampling_stage_metrics(spans, state.traces, state.bursts))
        layer_pass_s = spans.duration(root)
        out["bench.layer_run_overhead_ratio"] = metric(
            layer_pass_s / plain_pass_s, "ratio"
        )
        out["bench.span_coverage"] = metric(
            spans.children_total(root) / layer_pass_s, "ratio"
        )
        out.update(layers.adaptive_metrics(spans, state.traces, state.bursts))

        # Accuracy against Mattson's exact LRU curve, and what the exact
        # and alternative estimators cost (context for Fig. 7).
        errors = []
        exact_writes = 0
        for name, _scale in TRACES[:3]:
            prefix = state.traces[name].head(EXACT_PREFIX)
            with spans.span("locality.exact_mrc", cell=name):
                exact = exact_mrc(prefix, max_size=MRC_SIZES[-1])
            exact_writes += prefix.n
            linear = mrc_from_trace(prefix)
            sizes = np.asarray(MRC_SIZES, dtype=np.float64)
            errors.append(
                float(np.mean(np.abs(
                    linear.miss_ratios_at(sizes) - exact.miss_ratios_at(sizes)
                )))
            )
        out["locality.mrc_mae_vs_exact"] = metric(sum(errors) / len(errors), "ratio")
        out["locality.exact_mrc_writes_per_s"] = metric(
            exact_writes / spans.total("locality.exact_mrc"), "writes/host_s"
        )
        short = state.traces[TRACES[0][0]].head(REFERENCE_PREFIX)
        with spans.span("locality.lru_mrc"):
            lru_mrc(short, [8])
        with spans.span("locality.footprint"):
            footprint_curve(short)
        with spans.span("locality.shards_mrc"):
            shards_mrc(short, rate=0.1)
        for key, span_name in (
            ("lru_mrc", "locality.lru_mrc"),
            ("footprint", "locality.footprint"),
            ("shards_mrc", "locality.shards_mrc"),
        ):
            out[f"locality.{key}_writes_per_s"] = metric(
                short.n / spans.total(span_name), "writes/host_s"
            )
        return out
