"""The calibrated tile/burst/wide-loop trace generator.

SPLASH2 binaries cannot run here, but the persistence techniques only see
the *persistent-write event stream*; a generator that reproduces a
program's write-locality structure induces the same technique behaviour.
The structure has four ingredients, each mapping to a measurable
published statistic (see :mod:`repro.workloads.splash2` for the per-
program calibration):

``burst``
    Consecutive writes to the same cache line (spatial locality within a
    line plus repeated updates).  Every technique combines these, so the
    Atlas table's flush ratio ≈ ``1/burst``.
``tile_lines`` (K)
    Lines in the inner working set that is swept repeatedly — the
    intended MRC knee.  A software cache of ≥ K lines combines the
    cross-pass reuses; the Atlas table cannot: tiles are laid out at the
    table-aliasing stride (the classic conflict-miss pattern of strided
    writes through a direct-mapped structure), so every cross-line
    alternation evicts the table entry first.
``passes``
    Sweeps over a tile before moving on; the lazy bound is ≈
    ``1/(burst × passes)`` of the stores.
``wide loops``
    Occasional repeated sweeps over a region larger than any permitted
    cache size (> the 50-line cap of §III-C).  The lazy technique still
    combines the repeats — the software cache cannot, whatever size it
    picks.  This reproduces the SC/LA gap of Table III.  Two delivery
    modes (see :class:`WideMode`): blocks inside ordinary FASEs, or
    dedicated wide FASEs (the heterogeneous-FASE structure of programs
    whose average FASE is far smaller than their biggest ones).

``burst`` and ``passes`` may be fractional; deterministic dithering
realises the averages.

Multi-threading follows the strong-scaling model the paper describes
(§IV-F): the per-FASE work — the list of (tile, pass) units — is split
into contiguous blocks, one per thread, each bracketed by the thread's
own FASE, so total stores stay constant while total FASEs grow with the
thread count.  When a FASE has fewer units than threads, whole FASEs are
dealt round-robin instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, require_int
from repro.common.events import BATCH_CHUNK, EventBatch, EventKind
from repro.common.geometry import CACHE_LINE_SIZE
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.base import Workload

#: Stride (in lines) that aliases all tile lines onto one slot of the
#: 8-entry Atlas table.
ALIAS_STRIDE_LINES = 8


class WideMode:
    """How wide-loop work is delivered.

    ``NONE``
        No wide loops (programs whose SC ratio equals the lazy bound).
    ``UNITS``
        Wide sweeps appear as blocks inside ordinary FASEs.  Used when
        the SC−LA gap is small: the theory MRC places such a block's
        reuse at an *averaged* cache size (a mild violation of the
        reuse-window hypothesis, §III-B "Correctness"), but the
        resulting phantom drop is below the knee detector's
        significance threshold, so it is harmless.
    ``FASES``
        Dedicated wide FASEs interleaved among the narrow ones — the
        heterogeneous-FASE structure.  Used when the gap is large enough
        to be visible in the MRC; the region is then sized so that even
        the averaged placement of its reuse lands beyond the 50-line
        size cap and cannot perturb size selection.
    """

    NONE = "none"
    UNITS = "units"
    FASES = "fases"


@dataclass(frozen=True)
class TilePatternConfig:
    """Parameters of one synthetic write-locality pattern."""

    tile_lines: int             # K: lines per narrow tile = intended MRC knee
    burst: float                # consecutive writes per line visit (>= 1)
    passes: float               # sweeps per narrow tile (>= 1)
    tiles_per_fase: int         # narrow tiles swept in each FASE
    num_fases: int              # narrow FASEs
    wide_mode: str = WideMode.NONE
    wide_lines: int = 64        # lines per wide region (> the 50-line cap)
    wide_passes: float = 2.0    # sweeps of the wide region per wide unit/FASE
    wide_units_per_fase: float = 0.0   # UNITS mode: avg wide blocks per FASE
    wide_fase_every: float = 0.0       # FASES mode: wide FASEs per narrow FASE
    alias_tiles: bool = True    # stride tile lines to alias the Atlas table
    work_per_store: int = 3     # computation instructions per store

    def __post_init__(self) -> None:
        for name in ("tile_lines", "tiles_per_fase", "num_fases", "wide_lines"):
            require_int(name, getattr(self, name), 1)
        require_int("work_per_store", self.work_per_store, 0)
        if self.burst < 1 or self.passes < 1:
            raise ConfigurationError("burst and passes must be >= 1")
        if self.wide_mode not in (WideMode.NONE, WideMode.UNITS, WideMode.FASES):
            raise ConfigurationError(f"unknown wide_mode {self.wide_mode!r}")
        if self.wide_mode != WideMode.NONE and self.wide_passes < 1:
            raise ConfigurationError("wide_passes must be >= 1 when wide loops are on")
        if self.wide_units_per_fase < 0 or self.wide_fase_every < 0:
            raise ConfigurationError("wide-loop rates must be non-negative")

    @property
    def working_set_lines(self) -> int:
        """Distinct narrow-tiled lines per FASE (W)."""
        return self.tile_lines * self.tiles_per_fase

    @property
    def wide_unit_stores(self) -> float:
        """Average stores in one wide sweep block."""
        return self.wide_lines * self.burst * self.wide_passes

    @property
    def approx_stores_per_fase(self) -> float:
        """Average persistent stores per narrow FASE (incl. wide share)."""
        narrow = self.working_set_lines * self.burst * self.passes
        wide = 0.0
        if self.wide_mode == WideMode.UNITS:
            wide = self.wide_units_per_fase * self.wide_unit_stores
        elif self.wide_mode == WideMode.FASES:
            wide = self.wide_fase_every * self.wide_unit_stores
        return narrow + wide

    @property
    def approx_total_stores(self) -> int:
        """Rough total persistent stores over the whole run."""
        return int(self.approx_stores_per_fase * self.num_fases)


class _Dither:
    """Turn a fractional rate into a deterministic integer sequence."""

    __slots__ = ("rate", "acc")

    def __init__(self, rate: float) -> None:
        # Starting at the half-step unbiases runs with only a few draws.
        self.rate = rate
        self.acc = 0.5

    def next_count(self) -> int:
        self.acc += self.rate
        n = int(self.acc)
        self.acc -= n
        return n


class TilePatternWorkload(Workload):
    """A workload emitting the tile/burst/wide-loop pattern."""

    def __init__(self, name: str, config: TilePatternConfig) -> None:
        self.name = name
        self.config = config
        # Region layout (in lines): narrow tiles, then wide regions.
        stride = ALIAS_STRIDE_LINES if config.alias_tiles else 1
        self._stride = stride
        self._tile_span = config.tile_lines * stride
        self._base_line = NVRAM_BASE // CACHE_LINE_SIZE
        self._num_wide_instances = 8

    def supports_threads(self, num_threads: int) -> bool:
        return num_threads >= 1

    def tile_line(self, tile: int, i: int) -> int:
        """Line id of element ``i`` of narrow tile ``tile`` (layout helper)."""
        return self._base_line + tile * self._tile_span + i * self._stride

    def batch_streams(
        self, num_threads: int, seed: int
    ) -> List[Iterator[EventBatch]]:
        """Per-thread batches; the pattern is deterministic (dithered,
        not drawn), so ``seed`` does not enter it."""
        if num_threads < 1:
            raise ConfigurationError("num_threads must be >= 1")
        plan = self._plan()
        return [self._batches(t, num_threads, plan) for t in range(num_threads)]

    def _plan(self) -> Tuple[np.ndarray, List[int]]:
        """The per-FASE work every thread splits: each tile's sweep count
        (a ``num_fases × tiles_per_fase`` array) and the wide units
        (``UNITS``) or dedicated wide FASEs (``FASES``) after each FASE."""
        cfg = self.config
        pass_dither = _Dither(cfg.passes)
        draws = [max(1, pass_dither.next_count())
                 for _ in range(cfg.num_fases * cfg.tiles_per_fase)]
        passes = np.array(draws, dtype=np.int64).reshape(cfg.num_fases, -1)
        units_mode = cfg.wide_mode == WideMode.UNITS
        wide_dither = _Dither(cfg.wide_units_per_fase if units_mode else cfg.wide_fase_every)
        return passes, [wide_dither.next_count() for _ in range(cfg.num_fases)]

    def _batches(
        self, tid: int, nthreads: int, plan: Tuple[np.ndarray, List[int]]
    ) -> Iterator[EventBatch]:
        """One thread's share of the pattern — the program's one spelling.

        The shared :meth:`_plan` fixes each FASE's units (tile sweeps,
        then wide blocks); the thread lays out the byte addresses of its
        contiguous block of them in program order with numpy, then draws
        one burst per line in one loop on its own accumulator.  That loop
        is ``_Dither.next_count``'s float arithmetic in the same order
        (``acc += rate`` rounds, so it is not vectorised): the columns
        are the per-line dithered pattern's, bit for bit.  The control
        flow notes three parallel lists of groups: the head event's kind,
        the count of same-line stores after it, the line's byte address.
        A line visit is ``WORK(work·b)`` then ``b`` stores walking the
        line's eight words; a FASE mark is a head with no stores.
        :func:`_layout` turns the pending groups into columns with one
        numpy pass per batch; ``streams`` is the inherited decoding.
        """
        cfg = self.config
        passes, wide_counts = plan
        units_mode = cfg.wide_mode == WideMode.UNITS
        burst, acc = cfg.burst, 0.5     # the burst dither, inline
        wide_pass_dither = _Dither(max(cfg.wide_passes, 1.0))
        wide_seen = 0
        heads, counts, lines = [], [], []   # List[int] each
        pending = 0     # events the groups noted so far expand to

        # Each thread works on a private partition of the domain (the
        # SPLASH2 strong-scaling decomposition): its tiles and wide
        # regions are replicas at a per-thread offset.  The extra +tid
        # lines rotate the hardware-cache set mapping so replicas spread
        # across sets — which is what makes L1 capacity contention grow
        # with the thread count (Table IV's rising miss ratios) without
        # changing any per-thread flush arithmetic.
        region_span = (
            cfg.tiles_per_fase * self._tile_span
            + self._num_wide_instances * cfg.wide_lines
        )
        thread_base = self._base_line + tid * (region_span + 1)
        wide_base = thread_base + cfg.tiles_per_fase * self._tile_span
        # Row i: narrow tile i's (wide instance i's) line addresses, swept in order.
        tile_ids = np.arange(cfg.tiles_per_fase)
        tile_rows = CACHE_LINE_SIZE * (
            thread_base + tile_ids[:, None] * self._tile_span
            + np.arange(cfg.tile_lines) * self._stride
        )
        wide_rows = (CACHE_LINE_SIZE * (
            wide_base + np.arange(self._num_wide_instances)[:, None] * cfg.wide_lines
            + np.arange(cfg.wide_lines)
        )).tolist()

        def wide_block() -> List[int]:
            nonlocal wide_seen
            instance = wide_seen % self._num_wide_instances
            wide_seen += 1
            return wide_rows[instance] * max(1, wide_pass_dither.next_count())

        for fase, (fase_passes, n_wide) in enumerate(zip(passes, wide_counts)):
            # The per-FASE unit list, tile sweeps then wide blocks, split
            # into contiguous blocks — or dealt whole, round-robin, when
            # it has fewer units than threads.
            n_narrow = int(fase_passes.sum())
            n_units = n_narrow + n_wide if units_mode else n_narrow
            if n_units >= nthreads:
                lo = tid * n_units // nthreads
                hi = (tid + 1) * n_units // nthreads
            elif fase % nthreads == tid:
                lo, hi = 0, n_units
            else:
                lo = hi = 0
            blocks: List[List[int]] = []    # this thread's FASEs' line addresses
            if lo < hi:
                sweeps = np.repeat(tile_ids, fase_passes)[lo:hi]
                block = tile_rows[sweeps].ravel().tolist()
                for _ in range(max(lo, n_narrow), hi):
                    block += wide_block()
                blocks.append(block)
            # Dedicated wide FASEs, dealt round-robin across threads.
            if cfg.wide_mode == WideMode.FASES:
                for _ in range(n_wide):
                    if wide_seen % nthreads == tid:
                        blocks.append(wide_block())
                    else:
                        wide_seen += 1  # keep instance rotation in sync
            for block in blocks:
                heads += [EventKind.FASE_BEGIN, *[EventKind.WORK] * len(block)]
                heads.append(EventKind.FASE_END)
                lines += [0, *block, 0]
                counts.append(0)
                first, append = len(counts), counts.append
                for _ in block:
                    acc += burst
                    n = int(acc)
                    acc -= n
                    append(n if n > 1 else 1)
                pending += len(block) + 2 + sum(counts[first:])
                counts.append(0)
            # FASE state carries across batches: yield between FASEs once
            # the chunk threshold is passed (batches may overshoot it).
            if pending >= BATCH_CHUNK:
                yield _layout(heads, counts, lines, cfg.work_per_store)
                for column in (heads, counts, lines):
                    column.clear()
                pending = 0
        if pending:
            yield _layout(heads, counts, lines, cfg.work_per_store)


def _layout(heads: List[int], counts: List[int], lines: List[int], work: int) -> EventBatch:
    """Expand line groups into event columns: each head, then its
    stores at words 0..7 of the line, round and round."""
    stores = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(stores + 1)
    starts = ends - (stores + 1)
    # j: position within the group (0 = head, 1.. = stores).
    j = np.arange(ends[-1]) - np.repeat(starts, stores + 1)
    args = np.repeat(np.asarray(lines, dtype=np.int64), stores + 1)
    args += ((j - 1) & 7) * 8
    args[starts] = work * stores          # WORK(work·b); 0 on a FASE mark
    kinds = np.full(len(j), EventKind.STORE, dtype=np.int8)
    kinds[starts] = heads
    sizes = np.full(len(j), 8, dtype=np.int64)
    sizes[starts] = 0
    batch = EventBatch()
    batch.kinds.frombytes(kinds.tobytes())
    batch.args.frombytes(args.tobytes())
    batch.sizes.frombytes(sizes.tobytes())
    return batch
