"""The claims table is wired to the artifacts it judges.

Verdicts are statements about scale 1.0 and are gated there (the report's
closing count, checked in CI); this suite checks at a tiny scale what
does not depend on it: every claim and every ordering names a cell an
artifact has, fitted claims are exactly the SPLASH2 stand-ins' inputs,
and the paper values the artifacts print come from the table.
"""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.claims import CLAIMS, PAPER, PaperClaim, measure
from repro.experiments.report import GENERATORS, generate
from repro.experiments.tables import PAPER_TABLE3
from repro.workloads.registry import WORKLOAD_NAMES
from repro.workloads.splash2 import SPLASH2_PROFILES


@pytest.fixture(scope="module")
def arts(tiny_harness):
    return {name: generator(tiny_harness) for name, generator in GENERATORS.items()}


def test_every_claim_names_an_artifact_cell(arts):
    for claim in CLAIMS:
        assert claim.artifact in GENERATORS, claim
        measured, ok = measure(claim, arts)     # raises on a missing cell
        assert isinstance(ok, bool), claim


@pytest.mark.parametrize("wrong", [
    dict(artifact="table9"), dict(row="no-such-program"), dict(column="nope"),
    dict(check=">=:nope"), dict(check="<=nowhere:"),
])
def test_a_claim_naming_no_cell_is_an_error(arts, wrong):
    claim = dataclasses.replace(CLAIMS[0], **wrong)
    with pytest.raises(ConfigurationError):
        measure(claim, arts)


def test_fitted_claims_are_exactly_the_stand_ins_inputs():
    for claim in CLAIMS:
        profile = SPLASH2_PROFILES.get(claim.row)
        inputs = () if profile is None else (
            profile.paper_la, profile.paper_at, profile.paper_sc,
            profile.knee, profile.eager_slowdown,
        )
        tolerance = not isinstance(claim.check, str)
        assert (claim.kind == "fitted") == (tolerance and claim.paper in inputs), claim
        assert claim.kind in ("fitted", "predicted"), claim


def test_claims_are_unique_and_tolerances_carry_a_value():
    keys = [(c.artifact, c.row, c.column, c.check) for c in CLAIMS]
    assert len(keys) == len(set(keys))
    for claim in CLAIMS:
        if not isinstance(claim.check, str):
            assert claim.paper and 0 < claim.check < 1, claim
        else:
            assert claim.check[:2] in (">=", "<="), claim
            assert claim.check[2:] or claim.paper is not None, claim


def test_table3s_paper_values_come_from_the_table():
    assert list(PAPER_TABLE3) == [
        *(n for n in WORKLOAD_NAMES if n not in SPLASH2_PROFILES), *SPLASH2_PROFILES
    ]
    for name, profile in SPLASH2_PROFILES.items():
        assert PAPER_TABLE3[name] == dict(
            la=profile.paper_la, at=profile.paper_at, sc=profile.paper_sc
        )
    for name, ratios in PAPER_TABLE3.items():
        assert ratios == {c: PAPER["table3", name, c] for c in ("la", "at", "sc")}


def test_the_report_judges_every_claim_under_its_artifact(tiny_harness):
    artifacts = generate(tiny_harness).split("## Deviations")[0]
    verdicts = [line.split(" | ")[4] for line in artifacts.splitlines()
                if line.startswith("| ") and not line.startswith("| claim")]
    assert len(verdicts) == len(CLAIMS) + sum(v.startswith("---") for v in verdicts)


def test_a_stale_cause_and_a_missing_one_both_fail(tiny_harness, arts, monkeypatch):
    import repro.experiments.report as report

    measured = arts["table1"].rows[-1]["slowdown"]
    monkeypatch.setattr(report, "CLAIMS", [
        PaperClaim("table1", "average", "slowdown", measured, 0.1, cause="stale"),
        PaperClaim("table1", "average", "slowdown", 10 * measured, 0.25),
        PaperClaim("table1", "average", "slowdown", measured / 2, "<=", cause="kept"),
    ])
    body = generate(tiny_harness, artifacts=["table1"])
    assert body.count("FAILING") == 2 + 1      # the deviations table lists one
    assert body.rstrip().endswith("Failing claims: 2.")
