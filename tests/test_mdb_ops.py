"""The MDB persistence backends (recording and Atlas-backed)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas import AtlasRuntime
from repro.common.errors import ConfigurationError
from repro.common.events import EventKind
from repro.mdb import mtest
from repro.mdb.mtest import ChannelRecordingOps, MtestWorkload
from repro.mdb.ops import AtlasOps, PersistenceOps, RecordingOps
from repro.mdb.pages import SLOT_BYTES, Page, PageAllocator
from repro.nvram.memory import NVRAM_BASE


def test_recording_ops_shadow_roundtrip():
    ops = RecordingOps()
    a = ops.alloc(64)
    assert a >= NVRAM_BASE and a % 64 == 0
    ops.store(a, "v")
    assert ops.load(a) == "v"
    assert ops.load(a + 8) is None


def test_recording_ops_allocations_disjoint():
    ops = RecordingOps()
    a = ops.alloc(100)
    b = ops.alloc(10)
    assert b >= a + 100


def test_recording_ops_event_kinds():
    ops = RecordingOps(load_sample=1)
    with ops.fase():
        a = ops.alloc(8)
        ops.store(a, 1)
        ops.load(a)
        ops.work(5)
    kinds = list(ops.events.kinds)
    assert kinds == [
        EventKind.FASE_BEGIN,
        EventKind.STORE,
        EventKind.LOAD,
        EventKind.WORK,
        EventKind.FASE_END,
    ]


def test_recording_ops_load_sampling():
    ops = RecordingOps(load_sample=4)
    a = ops.alloc(8)
    for _ in range(8):
        ops.load(a)
    loads = [e for e in ops.events.events() if e.kind == EventKind.LOAD]
    assert len(loads) == 2      # one in four recorded


def test_recording_ops_loads_can_be_disabled():
    ops = RecordingOps(record_loads=False)
    a = ops.alloc(8)
    ops.store(a, 3)
    assert ops.load(a) == 3
    assert all(e.kind != EventKind.LOAD for e in ops.events.events())


class PerSlotRecordingOps(RecordingOps):
    """The recorder with the protocol's per-slot defaults — every slot a
    ``store`` or ``load`` of its own: the reference the page-granular
    runs must equal."""

    store_run = PersistenceOps.store_run
    load_run = PersistenceOps.load_run
    load_page = PersistenceOps.load_page


def _recorded(ops):
    batch = ops.events
    return (
        list(batch.kinds), list(batch.args), list(batch.sizes),
        ops.shadow, ops._load_counter,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=4),
)
def test_page_runs_equal_per_slot_calls(start, load_sample, record_loads, sizes):
    """``store_run``/``load_page`` leave the columns, shadow and
    load-sampling phase the per-slot calls leave — for any phase
    the counter is in when a page image arrives, any sampling period,
    any image from empty to full, a fresh page."""
    got, want = (
        cls(record_loads=record_loads, load_sample=load_sample)
        for cls in (RecordingOps, PerSlotRecordingOps)
    )
    loaded = []
    for ops in (got, want):
        alloc = PageAllocator(ops, 256)
        assert alloc.capacity_per_page == 15
        for _ in range(start):
            ops.load(NVRAM_BASE)
        pages = []
        for n in sizes:
            page = alloc.new_page()
            page.write_entries(Page.LEAF, [(k, ("v", n, k)) for k in range(n)])
            pages.append(page)
        fresh = alloc.new_page()
        loaded.append(
            [ops.load_run(page.slot_addr(0), n, SLOT_BYTES) for page, n in zip(pages, sizes)]
            + [ops.load_run(pages[0].slot_addr(0), -1, SLOT_BYTES)]
            + [ops.load_page(page.addr, SLOT_BYTES) for page in pages + [fresh]]
        )
        assert loaded[-1][-1] == (("?", 0), [])
    assert loaded[0] == loaded[1]
    assert _recorded(got) == _recorded(want)


def test_page_runs_keep_the_capacity_checks():
    """An over-capacity image or header is refused before anything is
    recorded, so a header ``load_page`` trusts never overstates."""
    ops = RecordingOps(load_sample=1)
    page = PageAllocator(ops, 256).new_page()
    over = page.capacity + 1
    for refused in (
        lambda: page.write_entries(Page.LEAF, [0] * over),
        lambda: page.write_header(Page.LEAF, over),
        lambda: page.write_header(Page.LEAF, -1),
    ):
        with pytest.raises(ConfigurationError, match="entries"):
            refused()
        assert len(ops.events) == 0 and not ops.shadow
    page.write_entries(Page.LEAF, list(range(page.capacity)))
    assert ops.load_page(page.addr, SLOT_BYTES)[1] == list(range(page.capacity))


class PerSlotChannelOps(PerSlotRecordingOps, ChannelRecordingOps):
    """Per-thread channels, every slot recorded on its own."""


@pytest.mark.parametrize("page_size", [256, 1024])
@pytest.mark.parametrize("threads", [1, 3])
def test_mtest_runs_equal_the_per_slot_recording(monkeypatch, page_size, threads):
    """The whole program, at the page sizes the report runs besides the
    pinned 512: the run recorder's channels, batch boundaries, decoded
    events, shadow and sampling phase equal per-slot recording's."""
    workload = MtestWorkload(pairs=500, page_size=page_size, traversals=3)
    got = []
    for cls in (ChannelRecordingOps, PerSlotChannelOps):
        monkeypatch.setattr(mtest, "ChannelRecordingOps", cls)
        ops = workload._record(threads, 5)
        got.append((
            [(b.kinds, b.args, b.sizes) for b in ops.channels],
            [[(b.kinds, b.args, b.sizes) for b in s]
             for s in workload.batch_streams(threads, 5)],
            [[repr(ev) for ev in s] for s in workload.streams(threads, 5)],
            ops.shadow, ops._load_counter,
        ))
    assert got[0] == got[1]
    assert len(got[0][1][0]) > 1    # the writer's channel spans batches


def test_recording_ops_validation():
    with pytest.raises(ConfigurationError):
        RecordingOps(load_sample=0)
    with pytest.raises(ConfigurationError):
        RecordingOps().alloc(0)


def test_atlas_ops_is_durable():
    rt = AtlasRuntime(technique="LA")
    ops = AtlasOps(rt)
    a = ops.alloc(8)
    with ops.fase():
        ops.store(a, "durable")
        ops.work(3)
    assert ops.load(a) == "durable"
    rt.finish()
    assert rt.machine.power_cut().read(a) == "durable"
