"""Machine-level invariants over random event streams (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.spec import technique_factory
from repro.common.events import FaseBegin, FaseEnd, Load, Store, Work
from repro.nvram.machine import Machine, MachineConfig
from repro.nvram.memory import NVRAM_BASE
from repro.workloads.base import Workload


class ListWorkload(Workload):
    name = "rand"

    def __init__(self, *streams):
        self._streams = [list(s) for s in streams]

    def streams(self, num_threads, seed):
        return [iter(s) for s in self._streams]


@st.composite
def event_streams(draw):
    """A well-bracketed random event stream over a small line pool."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["store", "load", "work", "fase"]),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=120,
        )
    )
    events = []
    depth = 0
    for op, arg in ops:
        if op == "store":
            events.append(Store(NVRAM_BASE + arg * 64, 8))
        elif op == "load":
            events.append(Load(NVRAM_BASE + arg * 64, 8))
        elif op == "work":
            events.append(Work(arg + 1))
        elif op == "fase":
            if depth and arg % 2:
                events.append(FaseEnd())
                depth -= 1
            else:
                events.append(FaseBegin())
                depth += 1
    events.extend(FaseEnd() for _ in range(depth))
    return events


TECHNIQUES = ["ER", "LA", "AT", "SC-offline", "BEST"]


def run(events, technique):
    machine = Machine(MachineConfig())
    kwargs = {"sc_fixed_size": 4} if technique == "SC-offline" else {}
    result = machine.run(
        ListWorkload(events), technique_factory(technique, **kwargs), num_threads=1, seed=0
    )
    return machine, result


@settings(max_examples=30, deadline=None)
@given(event_streams(), st.sampled_from(TECHNIQUES))
def test_flush_category_conservation(events, technique):
    _m, res = run(events, technique)
    t = res.threads[0]
    assert t.flushes == (
        t.eviction_flushes
        + t.fase_end_flushes
        + t.eager_flushes
        + t.log_flushes
        + t.final_flushes
    )


@settings(max_examples=30, deadline=None)
@given(event_streams(), st.sampled_from(TECHNIQUES))
def test_determinism(events, technique):
    _m1, a = run(events, technique)
    _m2, b = run(events, technique)
    assert a.flushes == b.flushes
    assert a.time == b.time
    assert a.l1_misses == b.l1_misses


@settings(max_examples=30, deadline=None)
@given(event_streams())
def test_technique_flush_bounds(events):
    """ER flushes per store; BEST never; LA/AT/SC in between; LA is the
    floor among the correct techniques."""
    results = {t: run(events, t)[1] for t in TECHNIQUES}
    stores = results["ER"].persistent_stores
    assert results["ER"].flushes == stores
    assert results["BEST"].flushes == 0
    for t in ("LA", "AT", "SC-offline"):
        assert results[t].flushes <= stores
    assert results["LA"].flushes <= results["AT"].flushes
    assert results["LA"].flushes <= results["SC-offline"].flushes


@settings(max_examples=25, deadline=None)
@given(event_streams())
def test_la_flushes_equal_distinct_lines_per_drain(events):
    """LA's flush count is exactly the number of distinct (line, drain
    epoch) pairs — the analytical lower bound of Table III."""
    _m, res = run(events, "LA")
    # Reconstruct the bound from the event stream.
    distinct = 0
    pending = set()
    depth = 0
    for ev in events:
        if ev.kind == 0 and ev.addr >= NVRAM_BASE:      # store
            pending.add(ev.addr >> 6)
        elif ev.kind == 3:
            depth += 1
        elif ev.kind == 4:
            depth -= 1
            if depth == 0:
                distinct += len(pending)
                pending.clear()
    distinct += len(pending)        # final drain
    assert res.flushes == distinct


@settings(max_examples=25, deadline=None)
@given(event_streams())
def test_hw_accesses_match_issued_operations(events):
    machine, res = run(events, "BEST")
    issued = sum(1 for ev in events if ev.kind in (0, 1))
    assert machine.hwcache.accesses == issued


@settings(max_examples=20, deadline=None)
@given(event_streams(), st.sampled_from(["LA", "AT", "SC-offline"]))
def test_nothing_left_dirty_after_finish(events, technique):
    """After the final drain only BEST may leave dirty persistent lines."""
    machine, _res = run(events, technique)
    assert machine.hwcache.dirty_lines() == []
