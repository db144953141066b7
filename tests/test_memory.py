"""The NVRAM backing store and the persistence domain boundary."""

from repro.cache.spec import technique_factory
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE, MainMemory


def test_persistence_domain_boundary():
    """A store at ``NVRAM_BASE`` is persistent and lands in NVRAM when
    flushed; one byte below it is volatile and never does."""
    machine = Machine(MachineConfig(track_values=True))
    s = machine.session(technique_factory("ER")(0))
    s.store(NVRAM_BASE, 8, value="durable")
    s.store(NVRAM_BASE - 8, 8, value="volatile")
    s.finish()
    assert s.stats.persistent_stores == 1
    assert machine.memory.nvram == {NVRAM_BASE: "durable"}
    assert machine.memory.read(NVRAM_BASE - 8, default="missing") == "missing"


def test_read_with_default():
    mem = MainMemory()
    assert mem.read(NVRAM_BASE, default="missing") == "missing"
    mem.nvram[NVRAM_BASE] = 42
    assert mem.read(NVRAM_BASE) == 42
