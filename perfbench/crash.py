"""``crash_campaign``: fault-injection campaigns through ``api.campaign``.

The third distinct use of the machine layer: per-event replay with value
tracking and site hooks, one replay from event 0 per injected site —
quadratic in the site count today, which is what this workload exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from perfbench import checks, layers
from perfbench.core import (
    BenchWorkload,
    CheckReport,
    Clock,
    PassOutput,
    Spans,
    median,
    metric,
    percentile,
)

EXHAUSTIVE = 10**9


@dataclass(frozen=True)
class Campaign:
    workload: str
    threads: int
    scale: float
    quick_scale: float
    max_sites: int
    fault_models: Tuple[str, ...]

    @property
    def exhaustive(self) -> bool:
        return self.max_sites == EXHAUSTIVE


CAMPAIGNS = (
    Campaign("linked-list", 2, 0.003, 0.0016, EXHAUSTIVE, ("clean",)),
    Campaign("hash", 1, 0.02, 0.016, 48, ("clean", "torn_line")),
)


@dataclass
class CrashState:
    specs: List[Tuple[Campaign, object, object]]   # (campaign, RunSpec, FaultSpec)
    events: int                                    # events of one golden replay each


class CrashCampaign(BenchWorkload):
    name = "crash_campaign"
    work_unit = "injected (site, fault-model) pairs"

    def setup(self) -> CrashState:
        from repro import api
        from repro.workloads.registry import get_workload

        specs, events = [], 0
        for c in CAMPAIGNS:
            scale = c.quick_scale if self.quick else c.scale
            spec = api.RunSpec(
                workload=c.workload, technique="SC", threads=c.threads,
                scale=scale, seed=self.seed,
            )
            faults = api.FaultSpec(max_sites=c.max_sites, fault_models=c.fault_models)
            specs.append((c, spec, faults))
            # What a replay consumes: the workload's decoded event stream.
            events += layers.count_events(
                layers.materialize(get_workload(c.workload, scale=scale), c.threads, self.seed)
            )
        return CrashState(specs, events)

    def run_pass(self, state: CrashState, clock: Clock) -> PassOutput:
        from repro import api

        results, work = {}, 0
        for campaign, spec, faults in state.specs:
            # The interval before the first site also holds the golden
            # run, so it is measured but is not a site latency.
            matrix = api.campaign(
                spec, faults, progress=lambda done, total: clock.op_done(done > 1)
            )
            work += matrix.injected
            results[campaign.workload] = matrix.to_dict()
        return PassOutput(work=work, results=results)

    def check(self, state: CrashState, results: Dict) -> CheckReport:
        report = CheckReport(attempted=0)
        for campaign, _spec, _faults in state.specs:
            matrix = results.get(campaign.workload)
            if matrix is None:
                report.attempted += 1
                report.failures.append(f"{campaign.workload}: no matrix")
                continue
            injected = sum(c["injected"] for c in matrix["cells"].values())
            report.attempted += injected
            violated = sum(c["violated"] for c in matrix["cells"].values())
            report.failures += [f"{campaign.workload}: violated site"] * violated
            if not violated:
                report.failures += checks.matrix_failures(matrix, campaign.exhaustive)
        return report

    def layers(
        self, state: CrashState, results: Dict, spans: Spans, plain_pass_s: float
    ) -> Dict[str, Dict]:
        """The sequential campaign loop, driven here so every call into
        ``faults`` and ``atlas`` gets its own span."""
        from repro.atlas.recovery import recover
        from repro.faults import AtlasReplayDriver, CrashPointEnumerator, check_crash
        from repro.workloads.registry import get_workload

        sites_total = injected = log_appends = 0
        replayed_sites = 0.0
        with spans.span("bench.layer_pass") as root:
            for campaign, spec, faults in state.specs:
                label = campaign.workload
                with spans.span("workloads.make", cell=label):
                    workload = get_workload(spec.workload, scale=spec.scale)
                driver = AtlasReplayDriver(
                    workload, technique=spec.technique, num_threads=spec.threads,
                    seed=spec.seed, timing=spec.timing,
                    l1_capacity_lines=spec.l1_capacity_lines, l1_ways=spec.l1_ways,
                )
                with spans.span("faults.golden", cell=label):
                    golden = driver.golden()
                sites_total += len(golden.sites)
                log_appends += sum(1 for s in golden.sites if s[1] == "log_append")
                targets = CrashPointEnumerator(
                    golden.sites, max_sites=faults.max_sites,
                    sample_seed=faults.sample_seed, site_classes=faults.site_classes,
                ).select()
                violations = 0
                for model in faults.fault_models:
                    for site in targets:
                        cell = f"{label}/{site[0]}/{model}"
                        with spans.span("faults.site", cell=cell):
                            with spans.span("faults.crash_at", cell=cell):
                                crashed, layout = driver.crash_at(
                                    site[0], fault_model=model,
                                    fault_seed=faults.fault_seed + site[0],
                                )
                            with spans.span("faults.check_crash", cell=cell):
                                violations += len(
                                    check_crash(golden, site[0], crashed, layout)
                                )
                            with spans.span("atlas.recover", cell=cell):
                                recover(crashed, layout)
                        injected += 1
                        replayed_sites += (site[0] + 1) / len(golden.sites)
                if violations:
                    raise AssertionError(f"layer pass: {label} has oracle violations")
        expected = sum(
            c["injected"] for m in results.values() for c in m["cells"].values()
        )
        if injected != expected:
            raise AssertionError("layer pass injected a different site set")

        layer_pass_s = spans.duration(root)
        ms = lambda name: [1e3 * d for d in spans.durations(name)]
        crash_at, oracle, rec = ms("faults.crash_at"), ms("faults.check_crash"), ms("atlas.recover")
        out = {
            "bench.layer_run_overhead_ratio": metric(layer_pass_s / plain_pass_s, "ratio"),
            "bench.span_coverage": metric(
                spans.children_total(root) / layer_pass_s, "ratio"
            ),
            "atlas.log_appends": metric(log_appends, "count"),
            "atlas.recover_ms_p50": metric(median(rec), "host_ms/site"),
            "faults.golden_s": metric(spans.total("faults.golden"), "host_s"),
            "faults.sites_total": metric(sites_total, "count"),
            "faults.injected": metric(injected, "count"),
            "faults.crash_at_ms_p50": metric(median(crash_at), "host_ms/site"),
            "faults.crash_at_ms_p99": metric(percentile(crash_at, 0.99), "host_ms/site"),
            "faults.oracle_ms_p50": metric(median(oracle), "host_ms/site"),
            # Golden-run-equivalents replayed: each injection replays the
            # sites up to its own, so exhaustive sweeps cost ~sites/2.
            "faults.replay_amplification": metric(replayed_sites, "ratio"),
        }

        # The event stream every replay decodes from, and the per-event
        # engine (the one site hooks force) on those same events.
        batches = {
            spec.workload: layers.materialize(
                get_workload(spec.workload, scale=spec.scale), 1, spec.seed
            )[0]
            for _c, spec, _f in state.specs
        }
        engine = layers.machine_engine_metrics(
            spans, state.specs[0][1].machine_config(), self.seed, batches
        )
        for key in (
            "common.events.decode_events_per_s",
            "nvram.machine.per_event_ns_per_event",
        ):
            out[key] = engine[key]
        return out
