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
_RUNTIME = "repro/atlas/runtime.py"
_FASE = "repro/atlas/fase.py"
_LOGFILE = "repro/atlas/log.py"
_MACHINE = "repro/nvram/machine.py"
_TRACE = "repro/locality/trace.py"
_REUSE = "repro/locality/reuse.py"
_MRC = "repro/locality/mrc.py"
_POLICIES = "repro/cache/policies.py"

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
#: What a crash replay's stores write and its golden truth records.
_TOKENS = (
    "tests/test_faults_campaign.py::test_every_in_fase_store_writes_its_own_token",
    "tests/test_faults_campaign.py::test_expected_image_overlays_in_commit_order",
)
#: The whole-image judge: the stateless reference oracle's verdicts, and
#: no per-address loop on a sound run's images.
_JUDGE = (
    "tests/test_oracle_differential.py::test_mutilated_images_get_the_reference_verdict",
    "tests/test_oracle_differential.py::test_broken_ordering_is_named_exactly_as_the_reference_names_it",
    "tests/test_oracle_differential.py::test_a_stored_none_takes_the_fast_accept_and_names_nothing",
    "tests/test_oracle_differential.py::test_a_committed_none_takes_the_fast_accept",
)

#: The runtime's one FASE bracket, entered by lock and by ``fase()``.
_BRACKET = (
    "tests/test_fase.py::test_two_lock_fases_on_one_address_both_commit",
    "tests/test_fase.py::test_a_crash_between_the_drain_and_the_commit_restores_the_first_value",
    "tests/test_fase.py::test_a_fase_nested_in_a_lock_commits_once",
)
#: Sound crash campaigns: zero violations at every site.  The golden run
#: reads each FASE's commit site off its commit record's own site, so a
#: runtime that commits before the drain fails them.
_SOUND = (
    "tests/test_faults_campaign.py::test_correct_ordering_has_no_commit_window",
    "tests/test_faults_campaign.py::test_linkedlist_two_threads_exhaustive_zero_violations",
)
#: The golden run against the event-by-event replay, field for field.
_GOLDEN = (
    "tests/test_golden_identity.py::test_the_golden_run_equals_the_event_by_event_replay",
)
#: A value-tracking machine's one record: the journal ``power_cut`` walks
#: and the last stored values ``read_current`` reads, against the live
#: reference's own record and hand-worked spanning stores.
_VALUES = (
    "tests/test_power_cut.py::test_a_spanning_stores_value_belongs_to_its_first_line",
    "tests/test_power_cut.py::test_a_spanning_store_dirties_every_line_it_spans",
    "tests/test_power_cut.py::test_an_eager_spanning_store_is_durable_once_both_lines_flush",
    "tests/test_power_cut.py::test_an_evicted_lines_value_lands",
    "tests/test_power_cut.py::test_read_current_is_the_last_stored_value",
    "tests/test_power_cut.py::test_a_golden_runs_power_cut_is_the_live_capture",
)
#: The undo log's records: one per address and FASE, each durable at once.
_LOG = (
    "tests/test_log.py::test_log_entry_is_durable_immediately",
    "tests/test_log.py::test_duplicate_addr_logged_once_per_fase",
    "tests/test_log.py::test_log_flushes_counted_separately",
    "tests/test_runtime_recovery.py::test_a_fase_reads_and_logs_each_address_once",
)
#: The one write-trace path, ``WriteTrace.from_batches``, against the
#: reference recorder (``tests/trace_reference.py``) and hand-worked rows.
_COLUMNS = (
    "tests/test_machine.py::test_trace_recording",
    "tests/test_harness.py::test_trace_from_columns_equals_the_best_run",
    "tests/test_machine_invariants.py::test_trace_from_columns_is_the_trace_the_machine_records",
)

#: The on-demand MRC against the eager Eq. 3 conversion of the whole
#: reuse curve, read whole, at every size and past a size plateau.
_ON_DEMAND = (
    "tests/test_locality_kernels.py::test_the_on_demand_mrc_is_the_eager_curve",
    "tests/test_locality_kernels.py::test_a_curve_that_never_reaches_the_query_is_read_whole",
)

MUTANTS = (
    # -- CrashJournal.walk -------------------------------------------------
    Mutant(
        "walk-store-under-a-later-line", _FAILURE,
        "line = arg >> 6", "line = (arg + 7) >> 6",
        _VALUES, "a value stored in a line's last bytes is pending, and dirty, on the next line",
    ),
    Mutant(
        "walk-store-leaves-line-clean", _FAILURE,
        "pending.setdefault(line, {})[arg] = next(payloads)\n                    dirty.add(line)",
        "pending.setdefault(line, {})[arg] = next(payloads)",
        _CUT, "a persistent store's line is missing from the lost lines",
    ),
    Mutant(
        "walk-dirty-ignored", _FAILURE,
        "elif kind == J_DIRTY:\n                    dirty.add(arg)",
        "elif kind == J_DIRTY:\n                    pass",
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
        "truth-value-stays-none", _DRIVER,
        "cur.nones.discard(addr)", "pass",
        _JUDGE, "an address a committed FASE set must still read None",
    ),
    # -- The replay's store tokens --------------------------------------------
    Mutant(
        "token-none", _DRIVER,
        "token = thread_bits | index", "token = None",
        _TOKENS, "every store writes None, which the oracle reads as absent",
    ),
    Mutant(
        "token-without-thread-bits", _DRIVER,
        "thread_bits = tid << 40", "thread_bits = 0",
        _TOKENS, "threads storing at the same index write the same token",
    ),
    Mutant(
        "truth-records-payload", _DRIVER,
        "record.writes[addr] = token\n"
        "                            record.all_values.setdefault(addr, set()).add(token)",
        "record.writes[addr] = None\n"
        "                            record.all_values.setdefault(addr, set()).add(None)",
        _TOKENS, "the golden truth records the payload a program carries (none), not what was stored",
    ),
    Mutant(
        "commit-site-read-as-drain", _DRIVER,
        "if entry[1] == SITE_COMMIT and entry[2] == tid:",
        "if entry[1] != SITE_COMMIT and entry[2] == tid:",
        _SOUND + _GOLDEN, "a FASE counts as committed from its drain, before its commit record is durable",
    ),
    # -- The machine's journal and the runtime's records ----------------------
    Mutant(
        "store-skips-current-value", _MACHINE,
        "                    self._current[addr] = value\n", "",
        _VALUES, "read_current never sees a stored value: the undo log records None",
    ),
    Mutant(
        "spanning-value-under-last-line", _MACHINE,
        "if durable and line == first:", "if durable and line == lines[-1]:",
        _VALUES, "a spanning store's value is journaled after its first line's flush, so it stays pending",
    ),
    Mutant(
        "eviction-not-journaled", _MACHINE,
        "journal.codes.append(J_EVICT | ctx.thread_id << 3)\n            journal.args.append(line)",
        "pass",
        _VALUES, "a line the L1 evicts stays dirty in the journal and its values never land",
    ),
    Mutant(
        "power-cut-one-entry-short", _MACHINE,
        "len(journal.codes), self._stores_seen)", "len(journal.codes) - 1, self._stores_seen)",
        _VALUES, "a power cut misses the journal's last change",
    ),
    Mutant(
        "record-stored-without-flush", _MACHINE,
        "        machine._do_flush(ctx, addr >> 6, category)\n",
        "",
        _LOG, "an undo or commit record sits in the L1, not durable, when the guarded store runs",
    ),
    Mutant(
        "runtime-skips-logged-check", _RUNTIME,
        "if session.fase_depth and addr not in self.log.logged:",
        "if session.fase_depth:",
        _LOG, "every in-FASE store reads the value it overwrites, logged or not",
    ),
    Mutant(
        "log-skips-logged-check", _LOGFILE,
        "        if addr in self.logged:\n            return\n",
        "",
        _LOG, "an address stored to twice in a FASE is logged twice",
    ),
    # -- The FASE bracket ----------------------------------------------------
    Mutant(
        "fase-end-without-commit", _RUNTIME,
        "            self.log.commit(fase_id)", "            pass",
        _BRACKET, "no FASE writes a commit record: recovery rolls every one back",
    ),
    Mutant(
        "fase-end-commits-before-drain", _RUNTIME,
        "        self.session.fase_end()\n"
        "        if self.session.fase_depth == 0:\n"
        "            self.log.commit(fase_id)",
        "        if self.session.fase_depth == 1:\n"
        "            self.log.commit(fase_id)\n"
        "        self.session.fase_end()",
        _BRACKET + _SOUND, "the commit record is durable while the FASE's data is still volatile",
    ),
    Mutant(
        "lock-bypasses-runtime", _FASE,
        "self.runtime.fase_end()", "self.runtime.session.fase_end()",
        _BRACKET, "a lock-entered FASE leaves without a commit record",
    ),
    Mutant(
        "replay-end-bypasses-bracket", _DRIVER,
        "                        rt.fase_end()", "                        session.fase_end()",
        _SOUND, "the crash replay's FASEs end without a commit record",
    ),
    # -- The write trace, read off the columns -------------------------------
    Mutant(
        "columns-spanning-store-once", _TRACE,
        "spans = np.maximum(((args[rows] + sizes[rows] - 1) >> 6) - first + 1, 0)",
        "spans = np.minimum(np.maximum(((args[rows] + sizes[rows] - 1) >> 6) - first + 1, 0), 1)",
        _COLUMNS, "a store spanning two lines writes only its first",
    ),
    Mutant(
        "columns-uid-without-thread-bits", _TRACE,
        "uid = (thread_id << 40) - 1 + np.cumsum(begin & (depth == 1))",
        "uid = -1 + np.cumsum(begin & (depth == 1))",
        _COLUMNS, "threads' FASE uids collide: every thread numbers its FASEs from 0",
    ),
    Mutant(
        "columns-outside-fase-tagged", _TRACE,
        "np.where(depth[rows] > 0, uid[rows], -1)", "uid[rows]",
        _COLUMNS, "a store outside any FASE carries the last FASE's uid, not -1",
    ),
    # -- The reuse kernel and the on-demand MRC -------------------------------
    Mutant(
        "kernel-without-late-fall", _REUSE,
        "    d2 -= np.bincount(n - starts + 2, minlength=n + 2)     # -1 at n-s+2\n", "",
        (
            "tests/test_reuse.py::test_reuse_counts_with_repeated_ends",
            "tests/test_reuse.py::test_linear_time_matches_brute_force",
        ),
        "an interval's enclosing-window count never stops rising at k = n-s+1",
    ),
    Mutant(
        "prefix-one-total-short", _MRC,
        "np.cumsum(self._d2[k + 1 : stop + 1])", "np.cumsum(self._d2[k + 1 : stop])",
        _ON_DEMAND, "each extension integrates one second difference short: samples go missing",
    ),
    Mutant(
        "prefix-stops-at-sample-count", _MRC,
        "not (len(self._sizes) and self._sizes[-1] > size)",
        "not (len(self._sizes) and len(self._sizes) > size)",
        _ON_DEMAND, "a prefix of more samples than the query is taken to reach it, though c(k) <= k",
    ),
    Mutant(
        "extension-keeps-old-slope", _MRC,
        "self._carry = slopes[-1], totals[-1], reuses[-1]",
        "self._carry = slope, totals[-1], reuses[-1]",
        _ON_DEMAND, "a later extension integrates from the first prefix's slope",
    ),
    Mutant(
        "nan-size-answered", _MRC,
        "if not np.all(q >= 0):", "if np.any(q < 0):",
        ("tests/test_mrc.py::test_a_nan_size_is_rejected",),
        "a NaN cache size gets an answer (or a bare ValueError), not a ConfigurationError",
    ),
    Mutant(
        "empty-trace-curve-made", _MRC,
        "    if trace.n < 1:\n", "    if False:\n",
        ("tests/test_mrc.py::test_an_empty_trace_is_rejected_when_its_curve_is_made",),
        "an empty trace makes a curve that answers 1.0 everywhere",
    ),
    # -- The victim cache behind SC ------------------------------------------
    Mutant(
        "victim-restore-not-rescued", _POLICIES,
        "            # flush issued at all for its eviction.\n            del victim[line]\n",
        "            # flush issued at all for its eviction.\n            pass\n",
        (
            "tests/test_stages.py::test_victim_catches_evictions_and_rescues_restores",
            "tests/test_stages.py::test_a_restore_rescues_its_line",
        ),
        "a re-stored line stays parked as well as cached: it is flushed twice",
    ),
    Mutant(
        "victim-resize-flushes", _POLICIES,
        "            oldest = self._park(evicted)\n"
        "            if oldest is not None:\n"
        "                port.flush_async(oldest, \"victim\")\n",
        "            port.flush_async(evicted, \"resize_eviction\")\n",
        ("tests/test_stages.py::test_a_resize_eviction_parks",),
        "a resize's evictions are flushed, not parked: the pair is no LRU of c + V",
    ),
    Mutant(
        "victim-drains-first", _POLICIES,
        "        lines = self.cache.drain()\n"
        "        if not lines:\n"
        "            lines, self._victim = self._victim, {}\n",
        "        lines, self._victim = self._victim, {}\n"
        "        if not lines:\n"
        "            lines = self.cache.drain()\n",
        (
            "tests/test_stages.py::test_a_commit_drains_the_base_then_the_victims",
        ),
        "a commit's first train is the victims, not the cache's lines",
    ),
    Mutant(
        "victim-cost-dropped", _POLICIES,
        "cost_per_store = SoftwareCacheTechnique.cost_per_store + 3",
        "cost_per_store = SoftwareCacheTechnique.cost_per_store",
        ("tests/test_stages.py::test_cost_per_store_adds_stage_bookkeeping",),
        "the victim lookup costs no cycles",
    ),
    Mutant(
        "victim-absorbs-parked-line", _POLICIES,
        "        if line in self._victim:\n            return False",
        "        if False:\n            return False",
        (
            "tests/test_machine_invariants.py::test_a_parked_lines_repeat_is_declined_and_rescued",
        ),
        "a repeat of the line the resize parked is taken as a hit: it is never rescued",
    ),
    Mutant(
        "victim-samples-while-settled", _POLICIES,
        "        if self.adapting:\n            return super().absorb_repeats(line, n)",
        "        if self.settling:\n            return super().absorb_repeats(line, n)",
        ("tests/test_theory_predicts_engine.py::test_flushes_are_the_buffer_misses_of_the_trace",),
        "the victim cache's own settling flag is read as SC's: SC-offline+victim samples (no sampler)",
    ),
)
