"""Composable policy stages over a base persistence technique.

:class:`StagedTechnique` wraps any base
:class:`~repro.cache.policies.PersistenceTechnique` with up to four
orthogonal policies (see DESIGN.md §14 and the grammar in
:mod:`repro.cache.spec`):

``nhit:N``
    Promotion filter ("Writes Hurt"-style admission): a line reaches
    the base technique only once it has been stored N times; colder
    stores flush straight through (category ``bypass``).
``cutoff:L``
    Sequential cutoff (NVCache-style write-bypass): a run of L
    consecutive-line stores is streaming — bypass the base technique
    so the stream does not wash its working set out.
``clean:B``
    Background cleaning (Open-CAS ALRU/ACP): at scheduler quantum
    boundaries where the thread's flush queue is idle, flush up to B
    LRU-tail lines out of the software cache (category ``clean``) via
    the new ``on_quantum`` technique hook — turning idle write-back
    bandwidth into shorter FASE-end drains.
``victim:V``
    Victim cache behind SC: lines the base cache evicts park in a small
    LRU buffer instead of flushing; a re-store rescues them back into
    the base cache (no flush at all), overflow flushes the oldest entry
    (category ``victim``).

Filter semantics are deliberately order-invariant: *every* filter
observes *every* store (state updates never short-circuit), and the
admit decision is the conjunction of the verdicts — so ``SC+nhit+cutoff``
and ``SC+cutoff+nhit`` behave identically.  A victim-cache hit overrides
the filters: the line already proved itself hot enough to be cached.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cache.policies import PersistenceTechnique


class _VictimPort:
    """Flush port wrapper that diverts the base technique's evictions.

    Eviction flushes (categories ``eviction`` / ``resize_eviction``)
    park the line in the stage's victim cache instead of flushing;
    everything else — drains, logging, bookkeeping, context — delegates
    untouched to the real :class:`~repro.nvram.machine.FlushPort`.
    """

    __slots__ = ("_port", "_stage")

    def __init__(self, port, stage: "StagedTechnique") -> None:
        self._port = port
        self._stage = stage

    def flush_async(
        self, line: int, category: str = "eviction", invalidate: bool = True
    ) -> None:
        if category == "eviction" or category == "resize_eviction":
            self._stage._victim_insert(line, invalidate)
        else:
            self._port.flush_async(line, category, invalidate)

    def __getattr__(self, name):
        return getattr(self._port, name)


class StagedTechnique(PersistenceTechnique):
    """A base technique wrapped by the composed policy stack.

    Built by :func:`repro.cache.spec.technique_factory` — never with
    zero effective stages (degenerate specs return the bare base
    instead, keeping their results bit-identical to the plain base).
    """

    def __init__(
        self,
        inner: PersistenceTechnique,
        name: str,
        stages: Tuple[Tuple[str, int], ...],
        use_clwb: bool = False,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.name = name
        self.use_clwb = use_clwb
        params = dict(stages)
        self.nhit = params.get("nhit", 0)
        self.cutoff = params.get("cutoff", 0)
        self.clean_budget = params.get("clean", 0)
        self.victim_capacity = params.get("victim", 0)
        # Per-store bookkeeping cost on top of the base technique,
        # in the spirit of the paper's Table IV instruction accounting:
        # one counter update (nhit), one run-length compare (cutoff),
        # one victim lookup (victim).  Cleaning costs nothing per store.
        self.cost_per_store = (
            inner.cost_per_store
            + (3 if self.nhit else 0)
            + (2 if self.cutoff else 0)
            + (3 if self.victim_capacity else 0)
        )
        self._touches: Optional[Dict[int, int]] = {} if self.nhit else None
        self._last_line: Optional[int] = None
        self._run_len = 0
        self._victim: Optional[Dict[int, None]] = (
            {} if self.victim_capacity else None
        )

    # -- machine metrics sampling hooks ---------------------------------
    # ``Machine._sample_metrics`` reads occupancy off ``technique.cache``
    # or ``technique.table``; delegate so staged runs keep their gauges.

    @property
    def cache(self):
        return getattr(self.inner, "cache", None)

    @property
    def table(self):
        return getattr(self.inner, "table", None)

    # -- protocol --------------------------------------------------------

    def bind(self, port) -> None:
        super().bind(port)
        if self._victim is not None:
            self.inner.bind(_VictimPort(port, self))
        else:
            self.inner.bind(port)

    def on_store(self, line: int) -> None:
        victim = self._victim
        rescued = victim is not None and line in victim
        if rescued:
            # The line earned a second life: back into the base cache,
            # no flush issued at all for the original eviction.
            del victim[line]
        admit = True
        touches = self._touches
        if touches is not None:
            n = touches.get(line, 0) + 1
            touches[line] = n
            if n < self.nhit:
                admit = False
        if self.cutoff:
            last = self._last_line
            self._run_len = (
                self._run_len + 1 if last is not None and line == last + 1 else 1
            )
            self._last_line = line
            if self._run_len >= self.cutoff:
                admit = False
        if admit or rescued:
            self.inner.on_store(line)
        else:
            self.port.flush_async(line, "bypass", invalidate=not self.use_clwb)

    def absorb_repeats(self, line: int, n: int) -> bool:
        # nhit/cutoff count or bypass every store.  Without them a
        # repeat is the base technique's own — unless the base's resize
        # just parked ``line`` itself, and a repeat would rescue it.
        if self.nhit or self.cutoff:
            return False
        victim = self._victim
        if victim is not None and line in victim:
            return False
        return self.inner.absorb_repeats(line, n)

    def on_quantum(self) -> None:
        """Scheduler quantum boundary: opportunistic background cleaning.

        Only acts when the thread's flush queue is idle — cleaning uses
        write-back bandwidth the program is not, never bandwidth it is.
        Lines leave the software cache LRU-tail first (the ones a future
        eviction or drain would flush anyway) with category ``clean``.
        """
        budget = self.clean_budget
        if not budget:
            return
        port = self.port
        if port is None or port.outstanding:
            return
        cache = getattr(self.inner, "cache", None)
        if cache is None or not len(cache):
            return
        invalidate = not self.use_clwb
        clean = cache.clean_lru
        flush = port.flush_async
        for _ in range(budget):
            line = clean()
            if line is None:
                break
            flush(line, "clean", invalidate=invalidate)

    def on_fase_begin(self) -> None:
        self.inner.on_fase_begin()

    def on_fase_end(self) -> None:
        self.inner.on_fase_end()
        self._drain_victim("fase_end")

    def finish(self) -> None:
        self.inner.finish()
        self._drain_victim("final")

    # -- victim cache ----------------------------------------------------

    def _victim_insert(self, line: int, invalidate: bool) -> None:
        victim = self._victim
        if line in victim:
            del victim[line]  # refresh recency
        victim[line] = None
        if len(victim) > self.victim_capacity:
            oldest = next(iter(victim))
            del victim[oldest]
            self.port.flush_async(oldest, "victim", invalidate=invalidate)

    def _drain_victim(self, category: str) -> None:
        victim = self._victim
        if victim:
            lines = list(victim)
            victim.clear()
            self.port.flush_sync(lines, category, invalidate=not self.use_clwb)

    def __repr__(self) -> str:
        return f"StagedTechnique({self.name!r})"
