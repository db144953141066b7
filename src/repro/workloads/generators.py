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

from repro.common.errors import ConfigurationError
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
        if self.tile_lines < 1:
            raise ConfigurationError("tile_lines must be >= 1")
        if self.burst < 1 or self.passes < 1:
            raise ConfigurationError("burst and passes must be >= 1")
        if self.tiles_per_fase < 1 or self.num_fases < 1:
            raise ConfigurationError("tiles_per_fase and num_fases must be >= 1")
        if self.wide_mode not in (WideMode.NONE, WideMode.UNITS, WideMode.FASES):
            raise ConfigurationError(f"unknown wide_mode {self.wide_mode!r}")
        if self.wide_mode != WideMode.NONE and self.wide_passes < 1:
            raise ConfigurationError("wide_passes must be >= 1 when wide loops are on")
        if self.wide_lines < 1:
            raise ConfigurationError("wide_lines must be >= 1")
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

    def __init__(self, rate: float, start: float = 0.5) -> None:
        # Starting at the half-step unbiases runs with only a few draws.
        self.rate = rate
        self.acc = start

    def next_count(self) -> int:
        self.acc += self.rate
        n = int(self.acc)
        self.acc -= n
        return n


# Unit kinds in the per-FASE work list.
_NARROW = 0
_WIDE = 1


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
        return [self._batches(t, num_threads) for t in range(num_threads)]

    def _batches(self, tid: int, nthreads: int) -> Iterator[EventBatch]:
        """One thread's share of the pattern — the program's one spelling.

        The control flow (FASEs, units, sweeps, every dither draw in
        program order — the float accumulators round, so they are not
        vectorised) only notes per-*line* facts, three parallel lists
        of groups: the head event's kind, the count of same-line stores
        after it, the line's byte address.  A line visit is
        ``WORK(work·b)`` then ``b`` stores walking the line's eight
        words; a FASE mark is a head with no stores.  :func:`_layout`
        turns the pending groups into columns with one numpy pass per
        batch; ``streams`` is the inherited decoding of these batches.
        """
        cfg = self.config
        pass_dither = _Dither(cfg.passes)
        burst_dither = _Dither(cfg.burst)
        wide_unit_dither = _Dither(cfg.wide_units_per_fase)
        wide_fase_dither = _Dither(cfg.wide_fase_every)
        wide_pass_dither = _Dither(max(cfg.wide_passes, 1.0))
        wide_counter = [0]
        line_size = CACHE_LINE_SIZE
        heads: List[int] = []
        counts: List[int] = []
        lines: List[int] = []
        pending = 0     # events the groups noted so far expand to

        def sweep(base_line: int, nlines: int, stride: int) -> None:
            nonlocal pending
            bursts = [max(1, burst_dither.next_count()) for _ in range(nlines)]
            heads.extend([EventKind.WORK] * nlines)
            counts.extend(bursts)
            first, step = base_line * line_size, stride * line_size
            lines.extend(range(first, first + nlines * step, step))
            pending += nlines + sum(bursts)

        def mark(kind: int) -> None:
            nonlocal pending
            heads.append(kind)
            counts.append(0)
            lines.append(0)
            pending += 1

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

        def wide_block() -> None:
            instance = wide_counter[0] % self._num_wide_instances
            wide_counter[0] += 1
            base = wide_base + instance * cfg.wide_lines
            for _ in range(max(1, wide_pass_dither.next_count())):
                sweep(base, cfg.wide_lines, 1)

        for fase in range(cfg.num_fases):
            # The per-FASE unit list; rebuilt by every thread with the
            # same dither sequence so the contiguous-block split is
            # consistent across threads.
            units: List[Tuple[int, int]] = []
            for tile in range(cfg.tiles_per_fase):
                units.extend(
                    [(_NARROW, tile)] * max(1, pass_dither.next_count())
                )
            if cfg.wide_mode == WideMode.UNITS:
                for _ in range(wide_unit_dither.next_count()):
                    units.append((_WIDE, 0))
            n_units = len(units)
            if n_units >= nthreads:
                lo = tid * n_units // nthreads
                hi = (tid + 1) * n_units // nthreads
                my_units = units[lo:hi]
            elif fase % nthreads == tid:
                my_units = units
            else:
                my_units = []
            if my_units:
                mark(EventKind.FASE_BEGIN)
                for kind, tile in my_units:
                    if kind == _NARROW:
                        sweep(
                            thread_base + tile * self._tile_span,
                            cfg.tile_lines,
                            self._stride,
                        )
                    else:
                        wide_block()
                mark(EventKind.FASE_END)
            # Dedicated wide FASEs, dealt round-robin across threads.
            if cfg.wide_mode == WideMode.FASES:
                for _ in range(wide_fase_dither.next_count()):
                    owner = wide_counter[0] % nthreads
                    if owner == tid:
                        mark(EventKind.FASE_BEGIN)
                        wide_block()
                        mark(EventKind.FASE_END)
                    else:
                        wide_counter[0] += 1  # keep instance rotation in sync
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
