"""The bounded trace spill: :class:`~repro.obs.live.StreamingRecorder`.

The load-bearing contract is proven against the offline layer: the
incremental JSONL spill must be byte-identical to a post-hoc
``TraceRecorder.write_jsonl`` of the same run, for any window size.
"""

import io

import pytest

from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.experiments.harness import HarnessConfig
from repro.nvram.machine import Machine
from repro.obs.live import StreamingRecorder
from repro.obs.trace import EV_EVICT_FLUSH, EV_SIZE_SELECTED, EV_STALL, TraceRecorder
from repro.workloads.registry import get_workload


def _run_cell(recorder):
    """The deterministic cell every comparison below records."""
    config = HarnessConfig(scale=0.02, seed=7).machine_config()
    Machine(config, recorder=recorder).run(
        get_workload("queue", scale=0.02),
        technique_factory("SC"),
        num_threads=2,
        seed=7,
    )


def _traced_pair(window_cycles=5_000):
    """One cell recorded two ways, by running it twice: a streaming
    recorder spilling to a buffer and a full TraceRecorder."""
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=window_cycles)
    mirror = TraceRecorder()
    for recorder in (rec, mirror):
        _run_cell(recorder)
    rec.close()
    return rec, buf, mirror


class _CountingRecorder(StreamingRecorder):
    """Notes how many rows stay buffered after each window close."""

    def __init__(self, target, window_cycles):
        super().__init__(target, window_cycles)
        self.buffered_after_close = []

    def _close_window(self):
        super()._close_window()
        self.buffered_after_close.append(len(self.columns()[0]))


def test_spill_is_byte_identical_to_offline_export():
    rec, buf, mirror = _traced_pair()
    assert len(mirror) == len(rec) > 0
    assert rec.windows_closed > 0           # spilled incrementally, not once
    assert buf.getvalue() == mirror.to_jsonl()


@pytest.mark.parametrize("window_cycles", [1, 7, 10**12])
def test_spill_bytes_do_not_depend_on_the_window(window_cycles):
    """Every event its own window, an odd window, and a window longer
    than the run (close() writes everything) all spill write_jsonl's
    bytes."""
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=window_cycles)
    mirror = TraceRecorder()
    for recorder in (rec, mirror):
        _run_cell(recorder)
    assert (rec.windows_closed == 0) == (window_cycles == 10**12)
    rec.close()
    assert buf.getvalue() == mirror.to_jsonl()


def test_ring_is_bounded_and_counts_are_not():
    """The buffer holds at most the open window's rows — none right
    after a close — while ``len()`` and ``counts()`` cover the stream."""
    rec = _CountingRecorder(io.StringIO(), window_cycles=2_000)
    mirror = TraceRecorder()
    for recorder in (rec, mirror):
        _run_cell(recorder)
    assert len(rec.buffered_after_close) == rec.windows_closed > 1
    assert set(rec.buffered_after_close) == {0}
    assert len(rec.columns()[0]) < len(rec) == len(mirror)
    assert rec.counts() == mirror.counts()
    rec.close()
    assert len(rec) == len(mirror) and rec.counts() == mirror.counts()


def test_flush_happens_on_window_boundary_not_only_on_close():
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=100)
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    assert buf.getvalue().count("\n") == 1  # header only: window still open
    rec.record(EV_STALL, 0, 150, 5, 0)      # watermark crosses cycle 100
    assert rec.windows_closed == 1
    assert buf.getvalue().count("\n") == 3  # header + both events spilled
    rec.close()


def test_quantum_tick_flushes_event_free_window():
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=100)
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    rec.on_quantum(0, 250)
    assert rec.windows_closed == 2           # cycles 100 and 200 both passed
    assert buf.getvalue().count("\n") == 2
    rec.on_quantum(0, 1_050)                 # an event-free stretch: ticks alone
    assert rec.windows_closed == 10
    assert buf.getvalue().count("\n") == 2
    rec.close()


def test_quantum_ticks_close_event_free_windows():
    """One tick that passes several boundaries closes each window it
    passes; the event-free ones spill nothing."""
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=5_000)
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    rec.on_quantum(0, 25_000)
    assert rec.windows_closed == 5
    assert buf.getvalue().count("\n") == 2   # header + the one event
    rec.close()


def test_window_snapshots_carry_deltas_and_cumulatives():
    """Each window close spills that window's rows (the delta); ``len()``
    and ``counts()`` keep the whole stream (the cumulatives).  The
    boundary-crossing event lands in the window it closes."""
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=100)
    rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    rec.record(EV_EVICT_FLUSH, 0, 20, 5, 1, 0)
    rec.record(EV_SIZE_SELECTED, 0, 120, 8)      # closes window 0
    assert rec.windows_closed == 1
    assert buf.getvalue().count("\n") == 4       # header + 3 events
    rec.record(EV_EVICT_FLUSH, 1, 230, 9, 1, 1)  # closes window 1
    assert rec.windows_closed == 2
    assert buf.getvalue().count("\n") == 5       # + 1 event
    assert len(rec) == 4
    assert rec.counts() == {EV_EVICT_FLUSH: 3, EV_SIZE_SELECTED: 1}
    rec.close()


def test_mid_stream_counters_are_readable():
    rec = StreamingRecorder(io.StringIO(), window_cycles=100)
    rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    rec.record(EV_EVICT_FLUSH, 0, 150, 5, 1, 0)
    assert rec.windows_closed == 1            # first window already spilled
    assert rec.counts()[EV_EVICT_FLUSH] == 2 and len(rec) == 2
    rec.close()
    assert rec.counts()[EV_EVICT_FLUSH] == 2 and len(rec) == 2


def test_flush_lands_all_events_mid_run():
    """On return from flush() the file holds every event recorded so
    far, even mid-window."""
    buf = io.StringIO()
    rec = StreamingRecorder(buf, window_cycles=1_000_000)
    for i in range(5):
        rec.record(EV_EVICT_FLUSH, 0, 10 + i, i, 1, 0)
    rec.flush()
    assert buf.getvalue().count("\n") == 6   # header + all five events
    rec.close()


def test_write_error_surfaces_at_the_boundary_and_close_still_closes(
    tmp_path, monkeypatch
):
    """A failing write is raised, as itself, by the record() that closed
    the window; close() raises it again but still closes the file it
    opened, and a second close is a no-op."""
    rec = StreamingRecorder(str(tmp_path / "spill.jsonl"), window_cycles=100)
    fh = rec._fh

    class _DiskFull:
        def write(self, text):
            raise OSError("disk full")

        def close(self):
            fh.close()

    monkeypatch.setattr(rec, "_fh", _DiskFull())
    rec.record(EV_EVICT_FLUSH, 0, 10, 1, 1, 0)
    with pytest.raises(OSError, match="disk full"):
        rec.record(EV_EVICT_FLUSH, 0, 150, 2, 1, 0)
    with pytest.raises(OSError, match="disk full"):
        rec.close()
    assert rec.closed and fh.closed
    rec.close()


def test_constructor_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        StreamingRecorder(io.StringIO(), window_cycles=0)
    assert not list(tmp_path.iterdir())      # rejected before anything opens
    with pytest.raises(ConfigurationError):
        StreamingRecorder(str(tmp_path / "x.jsonl"), window_cycles=-1)
    assert not list(tmp_path.iterdir())


def test_owned_file_is_closed_and_complete(tmp_path):
    path = tmp_path / "spill.jsonl"
    with StreamingRecorder(str(path), window_cycles=1000) as rec:
        rec.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    mirror = TraceRecorder()
    mirror.record(EV_EVICT_FLUSH, 0, 10, 5, 1, 0)
    assert path.read_text() == mirror.to_jsonl()
    assert rec.closed
