"""The TechniqueSpec grammar: parse/format round-trip and validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policies import TECHNIQUES, SoftwareCacheTechnique, VictimCacheTechnique
from repro.atlas.runtime import AtlasRuntime
from repro.cache.spec import (
    REMOVED_OPTIONS,
    TechniqueSpec,
    list_techniques,
    technique_factory,
)
from repro.common.errors import ConfigurationError
from repro.faults.campaign import run_campaign

def spec_strategy():
    """Strategy over valid TechniqueSpec values: a base, and a victim
    cache where the base takes one."""

    def build(base):
        victims = st.none()
        if base in ("SC", "SC-offline"):
            victims = st.none() | st.integers(0, 64)
        return victims.map(lambda victim: TechniqueSpec(base, victim))

    return st.sampled_from(TECHNIQUES).flatmap(build)


@settings(max_examples=200, deadline=None)
@given(spec_strategy())
def test_parse_format_round_trip(spec):
    """parse(format(x)) == x for every valid spec."""
    assert TechniqueSpec.parse(spec.format()) == spec
    assert TechniqueSpec.parse(str(spec)) == spec


@settings(max_examples=100, deadline=None)
@given(spec_strategy())
def test_canonical_form_is_stable(spec):
    """Formatting twice through a parse changes nothing."""
    once = str(TechniqueSpec.parse(str(spec)))
    assert str(TechniqueSpec.parse(once)) == once


def test_default_parameters_become_explicit():
    assert str(TechniqueSpec.parse("SC+victim")) == "SC+victim:16"
    assert str(TechniqueSpec.parse("SC-offline+victim")) == "SC-offline+victim:16"


def test_passthrough_and_stage_param():
    spec = TechniqueSpec.parse("SC+victim:3")
    assert TechniqueSpec.parse(spec) is spec
    assert spec == TechniqueSpec("SC", victim=3)
    assert TechniqueSpec.parse("SC").victim is None


def test_unknown_base_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown technique 'XX'"):
        TechniqueSpec.parse("XX")


def test_unknown_stage_is_named():
    with pytest.raises(ConfigurationError, match="unknown policy stage 'warm'"):
        TechniqueSpec.parse("SC+warm")


def test_duplicate_stage_is_rejected():
    with pytest.raises(ConfigurationError, match="duplicate policy stage 'victim'"):
        TechniqueSpec.parse("SC+victim:2+victim:3")


def test_non_integer_parameter_is_named():
    with pytest.raises(ConfigurationError, match="integer parameter"):
        TechniqueSpec.parse("SC+victim:big")


def test_negative_parameter_is_rejected():
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        TechniqueSpec(base="SC", victim=-1)


@pytest.mark.parametrize("param", [2.5, True, "16", 2.9])
def test_non_int_parameter_is_rejected_not_truncated(param):
    """A direct construction never rounds a parameter into a different
    spec."""
    with pytest.raises(ConfigurationError, match="must be an int"):
        TechniqueSpec("SC", victim=param)


def test_base_incompatible_stage_is_rejected():
    with pytest.raises(ConfigurationError, match="requires a base technique"):
        TechniqueSpec.parse("ER+victim")
    with pytest.raises(ConfigurationError, match="requires a base technique"):
        TechniqueSpec.parse("AT+victim:8")
    with pytest.raises(ConfigurationError, match="requires a base technique"):
        TechniqueSpec("LA", victim=4)


def test_effective_stages_drop_noops():
    """``victim:0`` stays in the spec and its string, and builds no
    victim cache; ``victim:1`` builds one."""
    spec = TechniqueSpec.parse("SC+victim:0")
    assert spec.victim == 0 and str(spec) == "SC+victim:0"
    assert type(technique_factory(spec)(0)) is SoftwareCacheTechnique
    assert type(technique_factory("SC+victim:1")(0)) is VictimCacheTechnique


def test_degenerate_spec_builds_bare_base_technique():
    """SC+victim:0 must build the *same* class as plain SC."""
    t = technique_factory("SC+victim:0")(0)
    assert type(t) is SoftwareCacheTechnique
    assert type(t) is type(technique_factory("SC")(0))


def test_list_techniques_catalogue():
    cat = list_techniques()
    assert cat["bases"] == list(TECHNIQUES)
    assert list(cat["stages"]) == ["victim"]
    entry = cat["stages"]["victim"]
    assert list(entry) == ["default", "noop_below", "bases", "param", "doc"]
    assert (entry["default"], entry["noop_below"]) == (16, 1)
    assert entry["bases"] == ["SC", "SC-offline"]
    assert str(TechniqueSpec.parse("SC+victim")) == f"SC+victim:{entry['default']}"
    assert "grammar" in cat


#: Entry point -> how it takes technique options (raises on a bad one).
_OPTION_ENTRY_POINTS = {
    "technique_factory": lambda options: technique_factory("SC", **options),
    "run_campaign": lambda options: run_campaign(
        "queue", technique="SC", technique_options=options
    ),
    "AtlasRuntime": lambda options: AtlasRuntime("SC", **options),
}


@pytest.mark.parametrize("entry", sorted(_OPTION_ENTRY_POINTS))
@pytest.mark.parametrize("name", REMOVED_OPTIONS + ("bogus",))
def test_a_removed_or_unknown_option_is_named_at_every_entry_point(name, entry):
    """A removed option says so; any other unknown one is named with the
    valid ones — never a bare ``TypeError`` from inside the factory."""
    with pytest.raises(ConfigurationError) as info:
        _OPTION_ENTRY_POINTS[entry]({name: 1})
    message = str(info.value)
    assert f"technique option {name!r}" in message
    assert ("was removed (DESIGN.md §6)" in message) == (name != "bogus")
    assert "('sc_fixed_size', 'adaptive_config')" in message
