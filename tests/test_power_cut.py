"""A value-tracking machine's one record of persistent values: its crash
journal, which ``power_cut`` walks to its end, and the flat record of
last stored values ``read_current`` reads.

``tests/crash_reference.py``'s :class:`LiveCrashMachine` keeps its own
pending values and durable image, hook by hook; a power cut must read
what it reads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.spec import technique_factory
from repro.faults import AtlasReplayDriver
from repro.faults.driver import GoldenRun
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.registry import get_workload
from tests.crash_reference import LiveCrashMachine, live_build

PA = NVRAM_BASE


def test_a_spanning_stores_value_belongs_to_its_first_line():
    """A store spanning two lines, then a narrower one to its address:
    written back in either line order, the durable value is the newer."""
    machine = Machine(MachineConfig(track_values=True))
    session = machine.session(technique_factory("BEST")(0))
    addr = PA + 60
    session.store(addr, 8, "v1")         # lines L and L+1
    session.store(addr, 4, "v2")         # line L only
    port = session._ctx.port
    port.flush_async(addr >> 6)
    port.flush_async((addr >> 6) + 1)
    assert machine.read_current(addr) == "v2"
    assert machine.power_cut().read(addr) == "v2"
    assert machine.power_cut().lost_lines == []


def test_a_spanning_store_dirties_every_line_it_spans():
    machine = Machine(MachineConfig(track_values=True))
    session = machine.session(technique_factory("BEST")(0))
    session.store(PA + 60, 8, "v")
    session._ctx.port.flush_async(PA >> 6)
    state = machine.power_cut()
    assert state.read(PA + 60) == "v"
    assert state.lost_lines == [(PA >> 6) + 1]


def test_an_eager_spanning_store_is_durable_once_both_lines_flush():
    """ER flushes each line a store writes as it writes it: the value is
    pending on its first line before that line's flush lands it."""
    machine = Machine(MachineConfig(track_values=True))
    machine.session(technique_factory("ER")(0)).store(PA + 60, 8, "v")
    state = machine.power_cut()
    assert state.read(PA + 60) == "v"
    assert state.lost_lines == []


def test_an_evicted_lines_value_lands():
    """A dirty line the L1 displaces is written back: its value is durable
    and only the lines still cached are lost."""
    machine = Machine(MachineConfig(l1_capacity_lines=8, l1_ways=8, track_values=True))
    session = machine.session(technique_factory("BEST")(0))
    for k in range(9):
        session.store(PA + 64 * k, 8, k)
    state = machine.power_cut()
    assert state.nvram == {PA: 0}
    assert state.lost_lines == [(PA >> 6) + k for k in range(1, 9)]


# One operation of a session program: (thread, kind, line, offset, size).
# Lines 0..5 are persistent, 6..9 volatile; the L1 holds four lines.
_OPS = st.tuples(
    st.integers(0, 2),
    st.sampled_from(["store", "store", "store", "load", "flush", "flush_sync"]),
    st.integers(0, 9),
    st.integers(0, 63),
    st.integers(1, 16),
)


def _address(line: int, offset: int) -> int:
    base = PA if line < 6 else PA - 64 * 16
    return base + 64 * (line % 6) + offset


@settings(max_examples=60, deadline=None)
@given(
    threads=st.integers(1, 3),
    technique=st.sampled_from(["BEST", "ER", "LA", "AT"]),
    program=st.lists(_OPS, min_size=1, max_size=40),
)
def test_read_current_is_the_last_stored_value(threads, technique, program):
    """On session programs with evictions (a four-line L1), volatile and
    spanning stores and flushes, ``read_current`` is the last value stored
    at an address, and a power cut reads what the live record holds."""
    machine = LiveCrashMachine(
        MachineConfig(l1_capacity_lines=4, l1_ways=2, track_values=True)
    )
    sessions = [
        machine.session(technique_factory(technique)(tid), tid) for tid in range(threads)
    ]
    last = {}
    for index, (tid, kind, line, offset, size) in enumerate(program):
        session = sessions[tid % threads]
        addr = _address(line, offset)
        if kind == "store":
            session.store(addr, size, index)
            if addr >= NVRAM_BASE:
                last[addr] = index
        elif kind == "load":
            session.load(addr, size)
        elif kind == "flush":
            session._ctx.port.flush_async(addr >> 6)
        else:
            session._ctx.port.flush_sync([addr >> 6])
        for stored in {addr, *last}:
            assert machine.read_current(stored) == last.get(stored)
        assert machine.power_cut() == machine.live_cut()
    for session in sessions:
        session.finish()
    assert machine.power_cut() == machine.live_cut()


@pytest.mark.parametrize(
    "name,threads,scale",
    [("linked-list", 2, 0.003), ("hash", 1, 0.02), ("mdb", 2, 0.002)],
    ids=["linked-list@2", "hash@1", "mdb@2"],
)
def test_a_golden_runs_power_cut_is_the_live_capture(name, threads, scale):
    """At the end of a golden run, the journal walked to its end is the
    image and lost lines the live record captures at the same point."""
    driver = AtlasReplayDriver(
        get_workload(name, scale=scale), technique="SC", num_threads=threads, seed=7
    )
    machine, runtimes, shift = live_build(driver)
    golden = GoldenRun(
        sites=machine.record_sites(), fases={}, commit_order=[], unprotected=set(),
        layout=runtimes[0].layout(), journal=machine.journal,
    )
    driver._replay(machine, runtimes, shift, golden)
    cut = machine.power_cut()
    assert cut == machine.live_cut()
    assert cut.nvram and cut.at_store == machine._stores_seen > 0
