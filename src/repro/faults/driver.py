"""Deterministic Atlas replay of workload event streams, crashable anywhere.

The fault-injection campaign needs to execute a workload *with full Atlas
semantics* — undo logging, data-drain-before-commit ordering, per-thread
software caches — once, crash-free, recording every injectable site, the
ground-truth FASE bookkeeping and a
:class:`~repro.nvram.failure.CrashJournal` of every change to what a
crash capture reads (the **golden run**).  The crashed image of any
fault model at any site is then cut from that journal (a **sweep**)
without executing anything again.  :class:`AtlasReplayDriver` is that
executor.

What it shares with ``Machine.run`` is the scheduler, what it does not
is the dispatch: the stream path routes stores through the persistence
technique only, while fault injection needs each in-FASE store to pass
through :class:`~repro.atlas.runtime.AtlasRuntime` so old values are
undo-logged first.  The driver therefore owns one runtime per thread
over a shared value-tracking machine and a ``step`` that pushes a
thread's next events through its runtime, and hands the interleaving to
``Machine.drive`` — the machine's own smallest-clock-first loop, with its
quantum hooks and sampling.  A replay is therefore bit-deterministic and
visits the same global site sequence as any other of its configuration,
which is what makes a crash target's site index meaningful.

Address plumbing: workload allocators hand out addresses from
``NVRAM_BASE`` up — the same space the Atlas region manager carves log
regions from.  The driver reserves a ``__replay_data`` region *after*
the per-thread log regions and shifts every persistent workload address
into it (a constant, line-aligned offset), so data and log never
collide.  All golden bookkeeping and oracle checks speak shifted
addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.atlas.region import RegionManager
from repro.atlas.runtime import AtlasLayout, AtlasRuntime
from repro.common.errors import ConfigurationError, SimulationError, require_int
from repro.common.events import EventKind
from repro.common.geometry import CACHE_LINE_SIZE
from repro.nvram.failure import FAULT_MODELS, CrashedState, CrashJournal, crashed_states
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.nvram.timing import DEFAULT_TIMING, TimingModel

#: Address space reserved for shifted workload data.  Simulated NVRAM is
#: a dict, so the reservation costs nothing; it only has to exceed any
#: workload's address span.
DATA_REGION_SIZE = 256 * 1024 * 1024


@dataclass
class FaseRecord:
    """Ground truth about one outermost FASE from the golden run."""

    uid: int
    thread_id: int
    begin_site: int                 # sites completed before the FASE began
    commit_site: Optional[int] = None   # site index of the commit flush
    #: Last value written per (shifted) address inside the FASE.
    writes: Dict[int, object] = field(default_factory=dict)
    #: Every value written per address (torn crashes can leak any of them).
    all_values: Dict[int, Set[object]] = field(default_factory=dict)


@dataclass
class _Cursor:
    """The golden truth at one site; :meth:`GoldenRun._truth_at` moves it."""

    records: List[FaseRecord]       # every FASE, in begin order
    nones: Set[int]                 # protected addrs that must read None
    site: int = -1                  # the last site asked for
    begun: int = 0                  # records[:begun] began by ``site``
    folded: int = 0                 # commit_order[:folded] are folded in
    expected: Dict[int, object] = field(default_factory=dict)
    in_flight: Dict[int, FaseRecord] = field(default_factory=dict)


@dataclass
class GoldenRun:
    """Everything the oracle needs from one crash-free replay, and the
    journal every crashed state is cut from."""

    #: Injectable sites: (index, site_class, thread_id, cycles, journal
    #: length, stores seen).
    sites: List[tuple]
    fases: Dict[int, FaseRecord]
    commit_order: List[int]         # FASE uids in commit completion order
    #: Persistent (shifted) addresses ever stored *outside* any FASE —
    #: unprotected by atomicity, so the oracle must not judge them.
    unprotected: Set[int]
    final_nvram: Dict[int, object]
    layout: AtlasLayout
    #: Sorted FASE-protected addresses — what the oracle judges.  Derived
    #: by :meth:`seal` when the replay is over.
    checked: Optional[List[int]] = None
    journal: Optional[CrashJournal] = field(default=None, repr=False, compare=False)
    #: The truth at the last site asked for (see :meth:`_truth_at`).
    _cursor: Optional[_Cursor] = field(
        default=None, init=False, repr=False, compare=False
    )

    def seal(self) -> None:
        """Derive what every site's verdict shares, and check the order
        :meth:`_truth_at` walks in: FASEs begin in ``fases`` order and
        commit in ``commit_order`` (so :meth:`committed_by` is a prefix)."""
        begins = [record.begin_site for record in self.fases.values()]
        commits = [self.fases[uid].commit_site for uid in self.commit_order]
        if begins != sorted(begins) or commits != sorted(commits):
            raise SimulationError("golden run: FASE begin/commit sites do not ascend")
        protected: Set[int] = set()
        for record in self.fases.values():
            protected.update(record.writes)
        self.checked = sorted(protected - self.unprotected)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_cursor": None}   # workers start their own

    def committed_by(self, site: int) -> List[int]:
        """Uids of FASEs whose commit record was durable by ``site``,
        in commit order (crash-at-``site`` means site ``site`` completed)."""
        return [
            uid
            for uid in self.commit_order
            if self.fases[uid].commit_site <= site
        ]

    def site_class(self, site: int) -> str:
        return self.sites[site][1]

    def walk(
        self, targets: Sequence[Tuple[int, int]], fault_models: Tuple[str, ...]
    ) -> Iterator[tuple]:
        """:meth:`CrashJournal.walk <repro.nvram.failure.CrashJournal.walk>`
        to each ``(site, fault seed)`` of ``targets`` (ascending).  Bad
        targets or models are a :class:`ConfigurationError` before anything
        is yielded; a site past the run's last, a :class:`SimulationError`."""
        models = fault_models
        if isinstance(models, str) or not models or not set(models) <= set(FAULT_MODELS):
            raise ConfigurationError(
                f"fault models must be a tuple of one or more of {FAULT_MODELS}, got {models!r}"
            )
        sites = [site for site, _seed in targets]
        for before, site in zip([-1] + sites, sites):
            require_int("crash site", site, 0)
            if site <= before:
                raise ConfigurationError(
                    f"crash targets must ascend; site {site} follows {before}"
                )
        fired = [(self.sites[s], seed) for s, seed in targets if s < len(self.sites)]
        yield from self.journal.walk(fired, tuple(fault_models))
        if len(fired) < len(sites):
            raise SimulationError(
                f"crash site {sites[len(fired)]} never fired (run has fewer sites)"
            )

    def _truth_at(self, site: int) -> _Cursor:
        """What a crash at ``site`` must recover to, for the oracle only.

        The cursor, moved to ``site`` by :meth:`_advance`, or rebuilt
        from FASE 0 when ``site`` lies behind the last one asked for.
        Its objects are its own — read them, do not keep them.
        """
        cur = self._cursor
        if cur is None or site < cur.site:
            cur = self._cursor = self._new_cursor()
        self._advance(cur, site)
        return cur

    def _new_cursor(self) -> _Cursor:
        """The truth before site 0: nothing begun, nothing committed."""
        return _Cursor(list(self.fases.values()), set(self.checked))

    def _advance(self, cur: _Cursor, site: int) -> None:
        """Move ``cur`` forward to ``site``: the committed overlay over the
        protected addresses is ``expected`` where it holds a value and
        ``nones`` where it reads ``None`` (no committed FASE wrote there,
        or the last one stored ``None``), and ``in_flight`` the FASEs
        begun and not committed, in begin order; the FASEs committed
        since are ``commit_order[old folded:folded]``."""
        cur.site = site
        records, in_flight = cur.records, cur.in_flight
        while cur.begun < len(records) and records[cur.begun].begin_site <= site:
            in_flight[records[cur.begun].uid] = records[cur.begun]
            cur.begun += 1
        order, unprotected = self.commit_order, self.unprotected
        while (
            cur.folded < len(order)
            and self.fases[order[cur.folded]].commit_site <= site
        ):
            for addr, value in in_flight.pop(order[cur.folded]).writes.items():
                if addr in unprotected:
                    continue
                if value is None:
                    cur.expected.pop(addr, None)
                    cur.nones.add(addr)
                else:
                    cur.expected[addr] = value
                    cur.nones.discard(addr)
            cur.folded += 1


class AtlasReplayDriver:
    """Replays one workload configuration; see the module docstring.

    ``commit_before_drain`` deliberately breaks the Atlas write ordering
    (commit record flushed *before* the FASE's data drains) — the
    negative-control knob the campaign's self-test uses to prove the
    oracle actually detects ordering violations.
    """

    def __init__(
        self,
        workload: object,
        *,
        technique: str = "SC",
        num_threads: int = 1,
        seed: int = 0,
        timing: TimingModel = DEFAULT_TIMING,
        l1_capacity_lines: int = 512,
        l1_ways: int = 8,
        technique_options: Optional[Dict[str, object]] = None,
        commit_before_drain: bool = False,
        recorder: Optional[object] = None,
        metrics: Optional[object] = None,
    ) -> None:
        if num_threads < 1:
            raise ConfigurationError("num_threads must be >= 1")
        self.workload = workload
        self.technique = technique
        self.num_threads = num_threads
        self.seed = seed
        self.timing = timing
        self.l1_capacity_lines = l1_capacity_lines
        self.l1_ways = l1_ways
        self.technique_options = dict(technique_options or {})
        self.commit_before_drain = commit_before_drain
        self.recorder = recorder
        self.metrics = metrics
        self._events: Optional[List[List[object]]] = None
        self._golden: Optional[GoldenRun] = None

    # ------------------------------------------------------------------

    def _materialized_events(self) -> List[List[object]]:
        """Per-thread event lists, materialized once and replayed many
        times (generators cannot be rewound; lists can)."""
        if self._events is None:
            streams = self.workload.streams(self.num_threads, self.seed)
            if len(streams) != self.num_threads:
                raise SimulationError(
                    f"workload produced {len(streams)} streams for "
                    f"{self.num_threads} threads"
                )
            self._events = [list(s) for s in streams]
        return self._events

    def _build(self) -> Tuple[Machine, List[AtlasRuntime], int]:
        """A fresh machine + per-thread runtimes + the data-address shift.

        Every replay rebuilds from scratch so state never leaks between
        replays; construction is deterministic, so the region layout
        — and with it the shift — is identical across replays.
        """
        machine = Machine(
            MachineConfig(
                timing=self.timing,
                l1_capacity_lines=self.l1_capacity_lines,
                l1_ways=self.l1_ways,
                track_values=True,
            ),
            recorder=self.recorder,
            metrics=self.metrics,
        )
        regions = RegionManager()
        runtimes = [
            AtlasRuntime.for_machine(
                machine, regions, self.technique, tid, **self.technique_options
            )
            for tid in range(self.num_threads)
        ]
        data_region = regions.find_or_create("__replay_data", DATA_REGION_SIZE)
        # First line of a region holds the root slot; region bases are
        # line-aligned, so the shift preserves line geometry exactly.
        shift = data_region.base + CACHE_LINE_SIZE - NVRAM_BASE
        return machine, runtimes, shift

    # ------------------------------------------------------------------

    def _replay(
        self,
        machine: Machine,
        runtimes: List[AtlasRuntime],
        shift: int,
        golden: GoldenRun,
    ) -> None:
        """Drive all threads to completion, recording FASE ground truth
        into ``golden`` as it executes."""
        events = self._materialized_events()
        positions = [0] * self.num_threads
        open_fases: List[Optional[FaseRecord]] = [None] * self.num_threads
        kind_store = EventKind.STORE
        kind_load = EventKind.LOAD
        kind_work = EventKind.WORK
        kind_begin = EventKind.FASE_BEGIN
        nvram_base = NVRAM_BASE

        def step(tid: int, budget: int) -> bool:
            rt = runtimes[tid]
            stream = events[tid]
            pos = positions[tid]
            end = min(pos + budget, len(stream))
            while pos < end:
                ev = stream[pos]
                pos += 1
                kind = ev.kind
                if kind == kind_store:
                    addr = ev.addr
                    if addr >= nvram_base:
                        addr += shift
                        rt.store(addr, ev.size, ev.value)
                        record = open_fases[tid]
                        if record is not None:
                            record.writes[addr] = ev.value
                            record.all_values.setdefault(addr, set()).add(ev.value)
                        else:
                            golden.unprotected.add(addr)
                    else:
                        rt.session.store(addr, ev.size, ev.value)
                elif kind == kind_work:
                    rt.work(ev.amount)
                elif kind == kind_load:
                    addr = ev.addr
                    rt.load(addr + shift if addr >= nvram_base else addr, ev.size)
                elif kind == kind_begin:
                    rt.fases.begin()
                    if rt.fases.depth == 1:
                        rt.log.on_fase_begin()
                        record = FaseRecord(
                            uid=rt.fases.current_id,
                            thread_id=tid,
                            begin_site=machine.sites_seen,
                        )
                        golden.fases[record.uid] = record
                        open_fases[tid] = record
                else:  # FASE_END
                    if rt.fases.depth == 1:
                        uid = rt.fases.current_id
                        if self.commit_before_drain:
                            # Broken ordering (negative control): the
                            # commit record becomes durable while the
                            # FASE's data still sits in volatile caches.
                            rt.log.commit(uid)
                            commit_site = machine.sites_seen - 1
                            rt.fases.end()
                        else:
                            # Atlas ordering: drain data, then commit.
                            rt.fases.end()
                            rt.log.commit(uid)
                            commit_site = machine.sites_seen - 1
                        golden.fases[uid].commit_site = commit_site
                        golden.commit_order.append(uid)
                        open_fases[tid] = None
                    else:
                        rt.fases.end()
            positions[tid] = pos
            return pos < len(stream)

        machine.drive([rt.session for rt in runtimes], step)

    # ------------------------------------------------------------------

    def golden(self) -> GoldenRun:
        """One crash-free replay recording sites, FASE ground truth and
        the crash journal; :meth:`crash_sweep` and :meth:`crash_at` cut
        from the last one.

        Refuses a stream whose persistent stores carry no payload: the
        oracle reads ``None`` as "absent", so no campaign over it could fail.
        """
        payloads = [
            ev.value
            for stream in self._materialized_events()
            for ev in stream
            if ev.kind == EventKind.STORE and ev.addr >= NVRAM_BASE
        ]
        if payloads and all(value is None for value in payloads):
            raise ConfigurationError(
                f"workload {getattr(self.workload, 'name', self.workload)!r} "
                f"stores no payloads ({len(payloads)} persistent stores, all "
                "None): a crash campaign over it would check nothing"
            )
        machine, runtimes, shift = self._build()
        journal = CrashJournal(self.timing.flush_queue_depth)
        golden = GoldenRun(
            sites=machine.record_sites(journal),
            fases={},
            commit_order=[],
            unprotected=set(),
            final_nvram={},
            layout=runtimes[0].layout(),
            journal=journal,
        )
        self._replay(machine, runtimes, shift, golden)
        golden.final_nvram = machine.memory.nvram_snapshot()
        golden.seal()
        self._golden = golden
        return golden

    def crash_sweep(
        self,
        sites: Sequence[int],
        fault_models: Tuple[str, ...],
        fault_seed: int,
        on_crash: Callable[[CrashedState], None],
    ) -> AtlasLayout:
        """Crash at every site of ``sites`` (ascending), cut from the
        last :meth:`golden` run's journal (one is run first if there is
        none): ``on_crash`` receives, once per model in ``fault_models``
        order, the durable image a power cut there leaves, seeded
        ``fault_seed + site``.  Only the image being judged is alive at
        any time; an exception from ``on_crash`` propagates.  Returns the
        layout recovery needs; raises as :meth:`GoldenRun.walk` does.
        """
        golden = self._golden or self.golden()
        targets = [(site, fault_seed + site) for site in sites]
        for state in crashed_states(golden.walk(targets, fault_models)):
            on_crash(state)
        return golden.layout

    def crash_at(
        self,
        site: int,
        fault_model: str = "clean",
        fault_seed: int = 0,
    ) -> Tuple[CrashedState, AtlasLayout]:
        """The crashed state at site ``site`` under ``fault_model``.

        The one-target, one-model :meth:`crash_sweep`, with
        ``fault_seed`` used as given.  Returns the (fault-mutated)
        durable image and the layout recovery needs.
        """
        golden = self._golden or self.golden()
        walk = golden.walk([(site, fault_seed)], (fault_model,))
        return next(crashed_states(walk)), golden.layout
