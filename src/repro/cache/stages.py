"""The composable policy stage over a base persistence technique.

:class:`StagedTechnique` wraps a software-cache base
(:class:`~repro.cache.policies.SoftwareCacheTechnique`) with the one
stage of the grammar in :mod:`repro.cache.spec` (see DESIGN.md §14):

``victim:V``
    Victim cache behind SC: lines the base cache evicts park in a small
    LRU buffer instead of flushing; a re-store rescues them back into
    the base cache (no flush at all), overflow flushes the oldest entry
    (category ``victim``).  By flush count the pair is one LRU of
    ``c + V`` lines; it differs from SC at that size only in timing.

The staged technique is a buffer like any other
(:mod:`repro.cache.policies`), of two levels: ``insert`` returns the
oldest victim a store displaces, and a commit drains the base cache,
then the victims — one flush train each.
"""

from __future__ import annotations

from typing import Collection, Dict, Optional, Tuple

from repro.cache.policies import PersistenceTechnique


class _VictimPort:
    """Flush port wrapper that parks the base technique's resize evictions.

    A ``resize_eviction`` flush parks the line in the stage's victim
    cache instead of flushing it, and flushes the victim it displaces;
    everything else — logging, bookkeeping, context — delegates untouched
    to the real :class:`~repro.nvram.machine.FlushPort`.
    """

    __slots__ = ("_port", "_stage")

    def __init__(self, port, stage: "StagedTechnique") -> None:
        self._port = port
        self._stage = stage

    def flush_async(self, line: int, category: str = "eviction") -> None:
        if category == "resize_eviction":
            oldest = self._stage._park(line)
            if oldest is not None:
                self._port.flush_async(oldest, "victim")
        else:
            self._port.flush_async(line, category)

    def __getattr__(self, name):
        return getattr(self._port, name)


class StagedTechnique(PersistenceTechnique):
    """A base technique wrapped by the victim stage.

    Built by :func:`repro.cache.spec.technique_factory` — never with
    zero effective stages (degenerate specs return the bare base
    instead, keeping their results bit-identical to the plain base).
    """

    flush_category = "victim"
    levels = 2
    #: Never settled, whatever the base: ``insert`` flushes resize
    #: evictions through :class:`_VictimPort`, the base may still charge
    #: samples, and ``absorb_repeats`` declines a parked line.
    settling = True

    def __init__(
        self,
        inner: PersistenceTechnique,
        name: str,
        stages: Tuple[Tuple[str, int], ...],
    ) -> None:
        super().__init__()
        self.inner = inner
        self.name = name
        self.victim_capacity = dict(stages)["victim"]
        # One victim lookup per store, in the spirit of the paper's
        # Table IV instruction accounting.
        self.cost_per_store = inner.cost_per_store + 3
        self._victim: Dict[int, None] = {}

    @property
    def cache(self):
        """The base's software cache: ``Machine._sample_metrics`` reads
        occupancy off ``technique.cache``, so staged runs keep their gauges."""
        return self.inner.cache

    # -- the buffer ------------------------------------------------------

    def bind(self, port) -> None:
        super().bind(port)
        self.inner.bind(_VictimPort(port, self))

    def insert(self, line: int) -> Optional[int]:
        victim = self._victim
        if line in victim:
            # The line earned a second life: back into the base cache,
            # no flush issued at all for the original eviction.
            del victim[line]
        evicted = self.inner.insert(line)
        return None if evicted is None else self._park(evicted)

    def drain(self) -> Collection[int]:
        # The base level first; once it is empty, the victims.
        lines = self.inner.drain()
        if not lines:
            lines, self._victim = self._victim, {}
        return lines

    def absorb_repeats(self, line: int, n: int) -> bool:
        # A repeat is the base technique's own — unless the base's
        # resize just parked ``line`` itself, and a repeat would rescue it.
        if line in self._victim:
            return False
        return self.inner.absorb_repeats(line, n)

    def _park(self, line: int) -> Optional[int]:
        """Park an evicted ``line``; return the oldest victim it displaces."""
        victim = self._victim
        if line in victim:
            del victim[line]  # refresh recency
        victim[line] = None
        if len(victim) > self.victim_capacity:
            oldest = next(iter(victim))
            del victim[oldest]
            return oldest
        return None

    def __repr__(self) -> str:
        return f"StagedTechnique({self.name!r})"
