"""The golden run walks its program's columns; the event-by-event replay
(``tests/crash_reference.py``'s ``reference_golden``) is its reference.

Field for field — the site log, every ``FaseRecord``, the commit order,
the unprotected and checked addresses, and the journal's columns — over
step, batch and recorded programs, one and two threads, four techniques
and a composed spec, with and without the negative control.
"""

import pytest

from repro.faults import AtlasReplayDriver
from repro.workloads.registry import get_workload
from tests.crash_reference import reference_golden

CONFIGS = [
    ("linked-list", "SC", 2, 0.003),
    ("hash", "SC", 1, 0.02),
    ("hash", "SC+victim:4", 1, 0.02),
    ("queue", "AT", 2, 0.003),
    ("mdb", "SC", 2, 0.002),
    ("barnes", "ER", 2, 0.01),
    ("persistent-array", "LA", 1, 0.01),
    ("ocean", "SC", 2, 0.01),
]


@pytest.mark.parametrize("commit_before_drain", [False, True], ids=["atlas", "broken"])
@pytest.mark.parametrize(
    "name,technique,threads,scale", CONFIGS,
    ids=[f"{n}-{t}@{k}" for n, t, k, _ in CONFIGS],
)
def test_the_golden_run_equals_the_event_by_event_replay(
    name, technique, threads, scale, commit_before_drain
):
    def driver():
        return AtlasReplayDriver(
            get_workload(name, scale=scale), technique=technique,
            num_threads=threads, seed=7, commit_before_drain=commit_before_drain,
        )

    golden, reference = driver().golden(), reference_golden(driver())
    assert golden.sites == reference.sites
    assert list(golden.fases.items()) == list(reference.fases.items())
    assert golden.commit_order == reference.commit_order
    assert golden.unprotected == reference.unprotected
    assert golden.checked == reference.checked
    ours, theirs = golden.journal, reference.journal
    assert (ours.codes, ours.args) == (theirs.codes, theirs.args)
    assert ours.payloads == theirs.payloads
    assert golden.fases and golden.journal.codes
