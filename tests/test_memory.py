"""The persistence domain boundary and the durable read path."""

import pytest

from repro.cache.spec import technique_factory
from repro.common.errors import SimulationError
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE


def test_persistence_domain_boundary():
    """A store at ``NVRAM_BASE`` is persistent and lands in NVRAM when
    flushed; one byte below it is volatile and never does."""
    machine = Machine(MachineConfig(track_values=True))
    s = machine.session(technique_factory("ER")(0))
    s.store(NVRAM_BASE, 8, value="durable")
    s.store(NVRAM_BASE - 8, 8, value="volatile")
    s.finish()
    assert s.stats.persistent_stores == 1
    state = machine.power_cut()
    assert state.nvram == {NVRAM_BASE: "durable"}
    assert state.read(NVRAM_BASE - 8, default="missing") == "missing"
    assert machine.read_current(NVRAM_BASE - 8, default="missing") == "missing"


def test_read_with_default():
    machine = Machine(MachineConfig(track_values=True))
    assert machine.power_cut().read(NVRAM_BASE, default="missing") == "missing"
    machine.session(technique_factory("ER")(0)).store(NVRAM_BASE, 8, value=42)
    assert machine.power_cut().read(NVRAM_BASE) == 42


def test_a_power_cut_needs_value_tracking():
    """A machine that keeps no values has no image to cut: asking for one
    is an error naming the flag, not an empty image."""
    machine = Machine()
    machine.session(technique_factory("ER")(0)).store(NVRAM_BASE, 8, value=42)
    with pytest.raises(SimulationError, match="track_values"):
        machine.power_cut()
