"""The NVRAM/DRAM backing store and the persistence domain boundary."""

import pytest

from repro.common.errors import SimulationError
from repro.nvram.memory import NVRAM_BASE, MainMemory


def test_persistence_domain_boundary():
    assert MainMemory.is_persistent(NVRAM_BASE)
    assert MainMemory.is_persistent(NVRAM_BASE + 1)
    assert not MainMemory.is_persistent(NVRAM_BASE - 1)
    assert not MainMemory.is_persistent(0)


def test_write_back_routes_by_region():
    mem = MainMemory()
    mem.write_back([(NVRAM_BASE + 8, "durable"), (64, "volatile")])
    assert mem.nvram == {NVRAM_BASE + 8: "durable"}
    assert mem.dram == {64: "volatile"}
    assert mem.writebacks == 1


def test_read_with_default():
    mem = MainMemory()
    assert mem.read(NVRAM_BASE, default="missing") == "missing"
    mem.write_back([(NVRAM_BASE, 42)])
    assert mem.read(NVRAM_BASE) == 42


def test_require_persistent():
    mem = MainMemory()
    mem.require_persistent(NVRAM_BASE)
    with pytest.raises(SimulationError):
        mem.require_persistent(100)
