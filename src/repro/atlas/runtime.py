"""The user-facing Atlas runtime.

:class:`AtlasRuntime` is the library's programmable front door — what a
downstream user writes persistent programs against::

    rt = AtlasRuntime(technique="SC")
    region = rt.find_or_create_region("mydata")
    node = rt.alloc(64)
    with rt.fase():
        rt.store(node, value=42)
        rt.set_root(region, node)
    ...
    state = rt.crash()                 # simulated power failure
    report = recover(state, rt.layout())   # -> consistent NVRAM image

Every persistent store inside a FASE is undo-logged first (old value made
durable before the new value can reach NVRAM), data flushes are managed
by the chosen technique (ER/LA/AT/SC/SC-offline — the object of the
paper), and the FASE end orders *data drain before commit record*.

:meth:`AtlasRuntime.fase_begin` / :meth:`AtlasRuntime.fase_end` is the one
FASE bracket: ``fase()`` and the locks ``lock()`` hands out (Atlas derives
its FASEs from critical sections) enter and leave through it, and so does
the crash replay's driver.

Multi-threaded programs create one runtime per simulated thread over a
shared :class:`~repro.nvram.machine.Machine` and
:class:`~repro.atlas.region.RegionManager` (software caches, logs and
FASEs are all per-thread, exactly as in the paper's design).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.atlas.fase import FaseLock
from repro.atlas.log import UndoLog
from repro.atlas.region import DEFAULT_REGION_SIZE, PersistentRegion, RegionManager
from repro.cache.spec import technique_factory
from repro.common.errors import SimulationError
from repro.nvram.failure import CrashedState
from repro.nvram.machine import Machine, MachineConfig, MachineSession


#: Size of each thread's undo-log region.
LOG_REGION_SIZE = 4 * 1024 * 1024


class AtlasLayout:
    """Address-layout facts recovery needs (regions, per-thread logs)."""

    __slots__ = ("regions", "log_regions")

    def __init__(self, regions: RegionManager, log_regions: list) -> None:
        self.regions = regions
        self.log_regions = list(log_regions)


class AtlasRuntime:
    """One simulated thread's FASE runtime (see module docstring)."""

    def __init__(
        self,
        technique: str = "SC",
        machine: Optional[Machine] = None,
        regions: Optional[RegionManager] = None,
        thread_id: int = 0,
        **technique_options,
    ) -> None:
        if machine is None:
            machine = Machine(MachineConfig(track_values=True))
        if not machine.config.track_values:
            raise SimulationError(
                "AtlasRuntime needs a machine with track_values=True "
                "(undo logging reads old values)"
            )
        self.machine = machine
        self.regions = regions if regions is not None else RegionManager()
        factory = technique_factory(technique, **technique_options)
        self.technique = factory(thread_id)
        self.session: MachineSession = machine.session(self.technique, thread_id)
        log_region = self.regions.find_or_create(
            f"__atlas_log_{thread_id}", LOG_REGION_SIZE
        )
        self.log = UndoLog(log_region, self.session)

    # -- regions & allocation --------------------------------------------

    def find_or_create_region(
        self, name: str, size: int = DEFAULT_REGION_SIZE
    ) -> PersistentRegion:
        """Open (or create) a named persistent region."""
        return self.regions.find_or_create(name, size)

    def alloc(self, nbytes: int, region: Optional[PersistentRegion] = None) -> int:
        """Allocate persistent memory (defaults to the 'heap' region)."""
        if region is None:
            region = self.regions.find_or_create("heap")
        return region.alloc(nbytes)

    def set_root(self, region: PersistentRegion, addr: int) -> None:
        """Durably point the region's root slot at ``addr``."""
        self.store(region.root_addr, value=addr)

    def get_root(self, region: PersistentRegion) -> object:
        """Read the region's root pointer."""
        return self.load(region.root_addr)

    # -- FASEs -------------------------------------------------------------

    def fase_begin(self) -> None:
        """Enter a failure-atomic section (sections nest; only the
        outermost one is atomic)."""
        self.session.fase_begin()

    def fase_end(self) -> None:
        """Leave the innermost open section.

        Leaving the *outermost* one drains the technique's buffered lines
        (data durable), then logs and flushes the commit record — the
        Atlas ordering that makes recovery sound.  An end outside any
        section is a :class:`SimulationError`.
        """
        fase_id = self.session.current_fase_id
        self.session.fase_end()
        if self.session.fase_depth == 0:
            self.log.commit(fase_id)

    @contextmanager
    def fase(self) -> Iterator[None]:
        """``with rt.fase(): ...`` — a failure-atomic section."""
        self.fase_begin()
        try:
            yield
        finally:
            self.fase_end()

    def lock(self, name: str) -> FaseLock:
        """A lock whose critical section is a FASE (Atlas's model)."""
        return FaseLock(name, self)

    # -- data access ---------------------------------------------------------

    def store(self, addr: int, size: int = 8, value: object = None) -> None:
        """A persistent store; inside a FASE, the first one to ``addr``
        undo-logs the value it overwrites (the only one that reads it)."""
        session = self.session
        if session.fase_depth and addr not in self.log.logged:
            old = self.machine.read_current(addr)
            self.log.log_store(session.current_fase_id, addr, old)
        session.store(addr, size, value)

    def load(self, addr: int, size: int = 8) -> object:
        """A persistent load; returns the currently visible value."""
        self.session.load(addr, size)
        return self.machine.read_current(addr)

    def work(self, amount: int) -> None:
        """Computation not touching persistent state."""
        self.session.work(amount)

    # -- lifecycle ---------------------------------------------------------------

    def layout(self) -> AtlasLayout:
        """The layout facts recovery needs."""
        log_regions = [
            r for r in self.regions if r.name.startswith("__atlas_log_")
        ]
        return AtlasLayout(self.regions, log_regions)

    def crash(self) -> CrashedState:
        """Simulate a power failure *now*; return the durable image.

        Everything dirty in the hardware cache is lost; flushed data and
        log entries survive.  The runtime is unusable afterwards.
        """
        return self.machine.power_cut()

    def finish(self) -> None:
        """Orderly shutdown: drain remaining buffered lines."""
        self.session.finish()

    @property
    def stats(self):
        """Live counters of this runtime's simulated thread."""
        return self.session.stats
