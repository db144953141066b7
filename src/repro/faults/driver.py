"""Deterministic Atlas replay of workload event streams, crashable anywhere.

The fault-injection campaign needs to execute a workload *with full Atlas
semantics* — undo logging, data-drain-before-commit ordering, per-thread
software caches — once, crash-free, recording every injectable site, the
ground-truth FASE bookkeeping and the value-tracking machine's
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
over a shared value-tracking machine and a ``step`` that walks a
thread's next events through its runtime, and hands the interleaving to
``Machine.drive`` — the machine's own smallest-clock-first loop, with its
quantum hooks and sampling.  A replay is therefore bit-deterministic and
visits the same global site sequence as any other of its configuration,
which is what makes a crash target's site index meaningful.

A thread's program is kept as its ``(kinds, args, sizes)`` columns — the
workload's steps concatenated, else its batches', else its per-object
stream encoded once — and ``step`` walks them by index: no event object
is built.  Each operation is one call: a persistent ``store``, ``work``
and the ``fase_begin``/``fase_end`` bracket on the runtime, a ``load``
(whose value nothing reads) and a volatile store on the session, through
which the runtime reaches the machine too.  A FASE's commit site is
read off the site log: its commit record's own ``commit`` entry.

Address plumbing: workload allocators hand out addresses from
``NVRAM_BASE`` up — the same space the Atlas region manager carves log
regions from.  The driver reserves a ``__replay_data`` region *after*
the per-thread log regions and shifts every persistent workload address
into it (a constant, line-aligned offset), so data and log never
collide.  All golden bookkeeping and oracle checks speak shifted
addresses.

What a store writes is the replay's, not the workload's: store ``i`` of
thread ``t``'s stream writes the token ``(t << 40) | i``, and the golden
truth records that token.  Tokens are distinct and never ``None``, so
every persistent store is one the oracle can tell apart from what its
address held before (a workload payload could be ``None``, repeat the
value already there, or be absent from a stream that records none), and
a program's payloads are never read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.atlas.region import RegionManager
from repro.atlas.runtime import AtlasLayout, AtlasRuntime
from repro.common.errors import ConfigurationError, SimulationError, require_int
from repro.common.events import columns_from_events, columns_from_steps
from repro.common.geometry import CACHE_LINE_SIZE, negative_size
from repro.nvram.failure import (
    FAULT_MODELS,
    SITE_COMMIT,
    CrashedState,
    CrashJournal,
    crashed_states,
)
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
    #: Last token written per (shifted) address inside the FASE.
    writes: Dict[int, object] = field(default_factory=dict)
    #: Every token written per address (torn crashes can leak any of them).
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
        if None in commits:
            raise SimulationError("golden run: a FASE ended with no commit record")
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
        protected addresses is ``expected`` where a committed FASE wrote
        (a token, never ``None``) and ``nones`` where none did, and
        ``in_flight`` the FASEs begun and not committed, in begin order;
        the FASEs committed since are ``commit_order[old folded:folded]``."""
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
                if addr not in unprotected:
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
        self._program: Optional[List[Tuple[list, list, list]]] = None
        self._golden: Optional[GoldenRun] = None

    # ------------------------------------------------------------------

    def _columns(self) -> List[Tuple[list, list, list]]:
        """Each thread's program as its ``(kinds, args, sizes)`` columns,
        materialized once and replayed many times: its ``steps()``
        concatenated, else its ``batch_streams()``'s, else its
        ``streams()`` encoded.  A ragged step, a stream element that is
        not an event and a negative size are refused, as on every engine."""
        if self._program is None:
            workload, threads, seed = self.workload, self.num_threads, self.seed
            absent = lambda threads, seed: None    # an encoding it does not emit
            streams = getattr(workload, "steps", absent)(threads, seed)
            if streams is None:
                batches = getattr(workload, "batch_streams", absent)(threads, seed)
                if batches is not None:
                    streams = [
                        ((b.kinds, b.args, b.sizes) for b in thread) for thread in batches
                    ]
            encode = columns_from_steps
            if streams is None:
                streams, encode = workload.streams(threads, seed), columns_from_events
            if len(streams) != threads:
                raise SimulationError(
                    f"workload produced {len(streams)} streams for {threads} threads"
                )
            program = [encode(stream, tid) for tid, stream in enumerate(streams)]
            for _kinds, _args, sizes in program:
                if sizes and min(sizes) < 0:
                    raise negative_size(min(sizes))
            self._program = program
        return self._program

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
            AtlasRuntime(
                self.technique, machine, regions, tid, **self.technique_options
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
        """Drive all threads to completion, each store writing its token
        (module docstring), recording FASE ground truth into ``golden``
        as it executes."""
        program = self._columns()
        sites = golden.sites
        positions = [0] * self.num_threads
        open_fases: List[Optional[FaseRecord]] = [None] * self.num_threads
        nvram_base = NVRAM_BASE

        def committed_at(tid: int, mark: int) -> Optional[int]:
            """The site of ``tid``'s commit record among the sites logged
            from ``mark`` on (``None`` on a machine keeping no site log)."""
            for entry in reversed(sites[mark:]):
                if entry[1] == SITE_COMMIT and entry[2] == tid:
                    return entry[0]
            return None

        def step(tid: int, budget: int) -> bool:
            rt = runtimes[tid]
            session = rt.session
            kinds, args, sizes = program[tid]
            start = positions[tid]
            end = min(start + budget, len(kinds))
            thread_bits = tid << 40
            for index in range(start, end):
                kind = kinds[index]
                if kind == 0:    # STORE
                    addr = args[index]
                    token = thread_bits | index
                    if addr >= nvram_base:
                        addr += shift
                        rt.store(addr, sizes[index], token)
                        record = open_fases[tid]
                        if record is not None:
                            record.writes[addr] = token
                            record.all_values.setdefault(addr, set()).add(token)
                        else:
                            golden.unprotected.add(addr)
                    else:
                        session.store(addr, sizes[index], token)
                elif kind == 2:  # WORK
                    rt.work(args[index])
                elif kind == 1:  # LOAD
                    addr = args[index]
                    session.load(addr + shift if addr >= nvram_base else addr, sizes[index])
                elif kind == 3:  # FASE_BEGIN
                    rt.fase_begin()
                    if session.fase_depth == 1:
                        record = FaseRecord(
                            uid=session.current_fase_id,
                            thread_id=tid,
                            begin_site=machine.sites_seen,
                        )
                        golden.fases[record.uid] = record
                        open_fases[tid] = record
                else:            # FASE_END
                    uid = session.current_fase_id
                    mark = len(sites)
                    if self.commit_before_drain and session.fase_depth == 1:
                        # Broken ordering (negative control): the commit
                        # record becomes durable while the FASE's data
                        # still sits in volatile caches.
                        rt.log.commit(uid)
                        session.fase_end()
                    else:
                        rt.fase_end()
                    if session.fase_depth == 0:
                        golden.fases[uid].commit_site = committed_at(tid, mark)
                        golden.commit_order.append(uid)
                        open_fases[tid] = None
            positions[tid] = end
            return end < len(kinds)

        machine.drive([rt.session for rt in runtimes], step)

    # ------------------------------------------------------------------

    def golden(self) -> GoldenRun:
        """One crash-free replay recording sites, FASE ground truth (in
        tokens, module docstring) and the crash journal; :meth:`crash_sweep`
        and :meth:`crash_at` cut from the last one.  Any stream is judged:
        its payloads, if it has any, are not read."""
        machine, runtimes, shift = self._build()
        golden = GoldenRun(
            sites=machine.record_sites(),
            fases={},
            commit_order=[],
            unprotected=set(),
            layout=runtimes[0].layout(),
            journal=machine.journal,
        )
        self._replay(machine, runtimes, shift, golden)
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
