"""The typed facade.

The one property that matters: a ``RunSpec``-driven run is bit-identical
to the legacy hand-wired path — the facade changes spelling, never
results.
"""

import dataclasses
import functools

import pytest

from repro import api
from repro.cache.spec import TechniqueSpec, technique_factory
from repro.common.errors import ConfigurationError
from repro.experiments.harness import Harness, HarnessConfig
from repro.faults.campaign import run_campaign
from repro.locality.knee import SelectionPolicy
from repro.nvram.machine import Machine
from repro.workloads.registry import get_workload

# ---------------------------------------------------------------------------
# RunSpec: validation and equivalence with the legacy path
# ---------------------------------------------------------------------------


def test_runspec_is_frozen_and_hashable():
    spec = api.RunSpec(workload="linked-list")
    assert hash(spec) == hash(api.RunSpec(workload="linked-list"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.threads = 2


def test_runspec_validation():
    with pytest.raises(ConfigurationError):
        api.RunSpec(workload="linked-list", threads=0)
    with pytest.raises(ConfigurationError):
        api.RunSpec(workload="linked-list", scale=0)
    with pytest.raises(ConfigurationError):
        api.run(api.RunSpec(workload="no-such-workload"))


@pytest.mark.parametrize(
    "build", [HarnessConfig, functools.partial(api.RunSpec, workload="queue")]
)
@pytest.mark.parametrize("capacity", [12, 4])
def test_an_l1_geometry_the_machine_rejects_is_rejected_up_front(build, capacity):
    # Not only when the first Machine is built, which at --jobs > 1 is in
    # a worker, whose error reaches the parent as a SimulationError.
    with pytest.raises(ConfigurationError, match="l1_capacity_lines"):
        build(l1_capacity_lines=capacity, l1_ways=8)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), "0.1", True, 0, -0.5])
def test_a_hostile_scale_is_a_typed_error_naming_it(scale):
    """``nan`` used to escape as a ValueError, ``inf`` as an
    OverflowError and ``"0.1"`` as a TypeError, from all three entries."""
    for build in (
        lambda: get_workload("barnes", scale=scale),
        lambda: api.RunSpec(workload="barnes", scale=scale),
        lambda: HarnessConfig(scale=scale),
    ):
        with pytest.raises(ConfigurationError, match="scale"):
            build()


def test_hostile_machine_fields_are_typed_errors_naming_them():
    """``MachineConfig(l1_ways=0)`` used to construct and fail later
    inside ``HardwareCache``; ``HarnessConfig`` checked nothing."""
    from repro.nvram.machine import MachineConfig

    with pytest.raises(ConfigurationError, match="l1_ways"):
        MachineConfig(l1_ways=0)
    for kwargs, field in [
        ({"l1_ways": 0}, "l1_ways"),
        ({"l1_capacity_lines": 2.5}, "l1_capacity_lines"),
        ({"seed": "7"}, "seed"),
        ({"timing": None}, "timing"),
        ({"selection": "knee"}, "selection"),
    ]:
        with pytest.raises(ConfigurationError, match=field):
            HarnessConfig(**kwargs)


def test_hostile_technique_params_are_typed_errors_naming_them():
    """``sc_fixed_size=2.5`` used to run as capacity 2 and ``True`` as a
    capacity of ``True``; ``AtlasTable(2.0)`` escaped as a TypeError; a
    fractional burst ran to a result."""
    from repro.cache.adaptive import AdaptiveConfig
    from repro.cache.spec import technique_factory
    from repro.cache.table import AtlasTable

    for build, field in [
        (lambda: technique_factory("SC-offline", sc_fixed_size=2.5)(0), "sc_fixed_size"),
        (lambda: technique_factory("SC-offline", sc_fixed_size=True)(0), "sc_fixed_size"),
        (lambda: AtlasTable(2.0), "table_size"),
        (lambda: AdaptiveConfig(burst_length=2.5), "burst_length"),
    ]:
        with pytest.raises(ConfigurationError, match=field):
            build()


@pytest.mark.parametrize("size", [0, -3, True, 2.5])
def test_an_sc_offline_size_is_checked_when_the_factory_is_built(size):
    """Not at the first technique built — in a parallel grid, inside a
    worker — but where the size is given."""
    from repro.cache.spec import technique_factory

    with pytest.raises(ConfigurationError, match="sc_fixed_size"):
        technique_factory("SC-offline", sc_fixed_size=size)


def test_run_is_bit_identical_to_hand_wired_machine():
    """api.run vs the raw Machine + technique_factory spelling, LA technique
    (no profile-derived kwargs, so the legacy path is fully explicit)."""
    spec = api.RunSpec(workload="linked-list", technique="LA", scale=0.02, seed=3)
    via_api = api.run(spec)

    workload = get_workload("linked-list", scale=0.02)
    machine = Machine(spec.machine_config())
    legacy = machine.run(
        workload, technique_factory("LA"), num_threads=1, seed=3
    )
    assert dataclasses.asdict(via_api) == dataclasses.asdict(legacy)


def test_run_is_bit_identical_to_harness_path():
    """api.run vs the harness spelling for SC (profile-derived sizing)."""
    spec = api.RunSpec(workload="linked-list", technique="SC", threads=2, scale=0.02)
    via_api = api.run(spec)
    legacy = Harness(HarnessConfig(scale=0.02)).run("linked-list", "SC", 2)
    assert dataclasses.asdict(via_api) == dataclasses.asdict(legacy)


def test_shared_harness_rejects_mismatched_spec():
    spec = api.RunSpec(workload="linked-list", scale=0.02)
    harness = api.harness_for(spec)
    other = api.RunSpec(workload="linked-list", scale=0.05)
    with pytest.raises(ConfigurationError):
        api.run(other, harness=harness)
    # The matching spec reuses the harness's memoized cells.
    assert api.run(spec, harness=harness) is api.run(spec, harness=harness)


def test_traced_run_matches_plain_run():
    spec = api.RunSpec(workload="linked-list", technique="SC", scale=0.02)
    plain = api.run(spec)
    traced, recorder, metrics = api.traced_run(spec)
    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)
    assert recorder.counts()  # the trace actually recorded events
    assert metrics is None    # no sampling interval requested


def test_campaign_facade_smoke():
    spec = api.RunSpec(workload="linked-list", technique="SC", scale=0.02)
    matrix = api.campaign(spec, api.FaultSpec(max_sites=12))
    assert matrix.injected > 0
    assert matrix.ok
    broken = api.campaign(
        spec, api.FaultSpec(max_sites=24), commit_before_drain=True
    )
    assert not broken.ok


def test_a_campaign_sizes_sc_offline_as_a_run_does():
    spec = api.RunSpec(workload="hash", technique="SC-offline", scale=0.01)
    faults = api.FaultSpec(max_sites=4)
    size = api.harness_for(spec).offline_size("hash")
    expected = run_campaign(
        "hash", technique="SC-offline", scale=0.01, spec=faults,
        technique_options={"sc_fixed_size": size},
    )
    assert api.campaign(spec, faults).to_dict() == expected.to_dict()


def test_a_campaign_hands_sc_the_specs_selection_policy(monkeypatch):
    from repro.atlas import runtime

    built = []

    def spying_factory(technique, **options):
        factory = technique_factory(technique, **options)
        return lambda tid: built.append(factory(tid)) or built[-1]

    monkeypatch.setattr(runtime, "technique_factory", spying_factory)
    selection = SelectionPolicy(default_size=4, max_size=12)
    spec = api.RunSpec(
        workload="linked-list", technique="SC", threads=2, scale=0.01,
        selection=selection,
    )
    api.campaign(spec, api.FaultSpec(max_sites=2))
    assert len(built) == 2
    assert all(t.controller.config.selection == selection for t in built)


def test_top_level_lazy_exports():
    import repro

    assert repro.RunSpec is api.RunSpec
    assert repro.run is api.run
    assert repro.campaign is api.campaign
    assert repro.FaultSpec is api.FaultSpec
    with pytest.raises(AttributeError):
        repro.no_such_name


def test_runspec_canonicalizes_spec_strings():
    spec = api.RunSpec(workload="queue", technique="SC+victim", scale=0.05)
    assert spec.technique == "SC+victim:16"
    spec = api.RunSpec(
        workload="queue",
        technique=TechniqueSpec.parse("SC+victim:8"),
        scale=0.05,
    )
    assert spec.technique == "SC+victim:8"


def test_runspec_rejects_bad_specs_at_construction():
    with pytest.raises(ConfigurationError, match="unknown policy stage"):
        api.RunSpec(workload="queue", technique="SC+bogus")
