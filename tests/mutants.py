"""The mutant catalog: edits to ``src/`` that a named test must catch.

Each entry is one small, deliberate bug: the file (under ``src/``), the
exact old text (it must occur once), the new text, the tests that must
fail with it in place, and what the bug breaks.  ``tests/run_mutants.py``
applies each to a copy of ``src/`` and runs its tests; tier-1 does not.

``InFlight`` and ``crash_overlay`` are shared by the journal walk and the
live reference (``tests/crash_reference.py``), so a bug in them moves both
sides of a journal-vs-live test alike: their killers are tests with
expectations of their own, worked out by hand.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killers: Tuple[str, ...]
    breaks: str


_FAILURE = "repro/nvram/failure.py"
_ORACLE = "repro/faults/oracle.py"
_DRIVER = "repro/faults/driver.py"

#: The journal walk against the live reference, across fault models.
_CUT = (
    "tests/test_faults_campaign.py::test_a_journal_cut_equals_a_replay",
    "tests/test_faults_campaign.py::test_one_sweep_captures_every_model_as_crash_at_does",
    "tests/test_faults_campaign.py::test_sweep_states_equal_crash_at_for_every_site",
)
#: Hand-worked expectations of the shared crash rules.
_RULES = (
    "tests/test_failure_misc.py::test_in_flight_keeps_what_a_fifo_queue_of_its_depth_can_still_drop",
    "tests/test_failure_misc.py::test_crash_overlay_tears_strict_subsets_and_drops_a_suffix",
)
#: The whole-image judge: the stateless reference oracle's verdicts, and
#: no per-address loop on a sound run's images.
_JUDGE = (
    "tests/test_oracle_differential.py::test_mutilated_images_get_the_reference_verdict",
    "tests/test_oracle_differential.py::test_broken_ordering_is_named_exactly_as_the_reference_names_it",
    "tests/test_oracle_differential.py::test_a_stored_none_takes_the_fast_accept_and_names_nothing",
    "tests/test_oracle_differential.py::test_a_committed_none_takes_the_fast_accept",
)

MUTANTS = (
    # -- CrashJournal.walk -------------------------------------------------
    Mutant(
        "walk-store-first-line", _FAILURE,
        "line = (arg >> 6) + (code >> 3)", "line = arg >> 6",
        _CUT, "a store spanning two lines files its second line's value under the first",
    ),
    Mutant(
        "walk-store-leaves-line-clean", _FAILURE,
        "pending.setdefault(line, {})[arg] = next(payloads)\n                    dirty.add(line)",
        "pending.setdefault(line, {})[arg] = next(payloads)",
        _CUT, "a persistent store's line is missing from the lost lines",
    ),
    Mutant(
        "walk-dirty-ignored", _FAILURE,
        "elif kind == _J_DIRTY:\n                    dirty.add(arg)",
        "elif kind == _J_DIRTY:\n                    pass",
        _CUT, "a volatile store's dirty line is missing from the lost lines",
    ),
    Mutant(
        "walk-writeback-stays-dirty", _FAILURE,
        "dirty.discard(arg)", "pass",
        _CUT, "a written-back line is still reported lost",
    ),
    Mutant(
        "walk-writeback-keeps-pending", _FAILURE,
        "values = pending.pop(arg, None)", "values = pending.get(arg)",
        _CUT, "a torn line can leak values that were already written back",
    ),
    Mutant(
        "walk-flush-stays-in-flight", _FAILURE,
        "inflight.flushed(arg)", "pass",
        _CUT, "an explicit flush does not retire its line's eviction from the flight",
    ),
    Mutant(
        "walk-drain-stays-in-flight", _FAILURE,
        "inflight.drained(code >> 3)", "pass",
        _CUT, "a drain does not retire its thread's evictions from the flight",
    ),
    Mutant(
        "walk-eviction-not-in-flight", _FAILURE,
        "inflight.evicted(code >> 3, arg, values)", "pass",
        _CUT, "reordered_flush never has an eviction to drop",
    ),
    Mutant(
        "walk-landed-unreported", _FAILURE,
        "landed.update(values)", "pass",
        (
            "tests/test_oracle_differential.py::test_incremental_oracle_equals_the_reference_inside_one_sweep",
        ),
        "the sweep judge never learns what became durable",
    ),
    # -- InFlight and crash_overlay (shared: independent killers) -----------
    Mutant(
        "inflight-one-too-deep", _FAILURE,
        "if len(mine) > self.depth:", "if len(mine) > self.depth + 1:",
        _RULES, "a thread keeps one completed write-back more than its queue holds",
    ),
    Mutant(
        "inflight-new-values", _FAILURE,
        "{addr: get(addr, ABSENT) for addr in values}", "dict(values)",
        _RULES, "a dropped write-back restores the values it wrote, not the old ones",
    ),
    Mutant(
        "inflight-drain-retires-all", _FAILURE,
        "self.records = [r for r in self.records if r[0] != tid]", "self.records = []",
        _RULES, "one thread's drain retires every thread's write-backs",
    ),
    Mutant(
        "overlay-tears-whole-line", _FAILURE,
        "for addr in addrs[: rng.randrange(1, len(addrs))]:", "for addr in addrs:",
        _RULES, "a torn line leaks every pending value: a flush, not a tear",
    ),
    Mutant(
        "overlay-drops-oldest", _FAILURE,
        "records[len(records) - dropped :]", "records[:dropped]",
        _RULES, "reordered_flush drops the oldest write-backs, not a FIFO suffix",
    ),
    Mutant(
        "overlay-newest-old-wins", _FAILURE,
        "in reversed(records[len(records) - dropped :])", "in records[len(records) - dropped :]",
        _RULES, "a line dropped twice restores its newer old value, not the oldest",
    ),
    # -- The accept predicate and the truth it reads -------------------------
    Mutant(
        "accept-ignores-nones", _ORACLE,
        "recovered[addr] is None for addr in recovered.keys() & nones",
        "True for addr in ()",
        _JUDGE, "a value leaked where the truth reads None is accepted",
    ),
    Mutant(
        "accept-ignores-values", _ORACLE,
        "if expected.items() <= recovered.items() and all(", "if all(",
        _JUDGE, "a committed value missing or wrong is accepted",
    ),
    Mutant(
        "accept-stored-none-is-a-value", _ORACLE,
        "recovered[addr] is None for addr in recovered.keys() & nones",
        "addr not in recovered for addr in nones",
        _JUDGE, "a stored None where the truth reads None is sent down the loop",
    ),
    Mutant(
        "truth-committed-none-expected", _DRIVER,
        "if value is None:\n                    cur.expected.pop(addr, None)",
        "if False:\n                    cur.expected.pop(addr, None)",
        _JUDGE, "a committed None must be present as a key: the loop runs on sound images",
    ),
    Mutant(
        "truth-none-keeps-older-value", _DRIVER,
        "cur.expected.pop(addr, None)", "pass",
        _JUDGE, "a committed None over an older committed value still expects that value",
    ),
    Mutant(
        "truth-value-stays-none", _DRIVER,
        "cur.nones.discard(addr)", "pass",
        _JUDGE, "an address a committed FASE set must still read None",
    ),
)
