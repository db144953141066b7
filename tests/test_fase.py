"""The runtime's one FASE bracket: nesting, ids, commits and the lock
front end."""

import pytest

from repro.atlas import AtlasRuntime, recover
from repro.atlas.log import UndoLog
from repro.common.errors import SimulationError


@pytest.fixture
def rt():
    return AtlasRuntime(technique="LA")


def test_depth_tracking(rt):
    assert rt.session.fase_depth == 0
    rt.fase_begin()
    assert rt.session.fase_depth == 1
    rt.fase_begin()
    assert rt.session.fase_depth == 2
    rt.fase_end()
    assert rt.log.commits == 0          # an inner end commits nothing
    rt.fase_end()
    assert rt.session.fase_depth == 0
    assert rt.log.commits == 1


def test_end_without_begin_raises(rt):
    with pytest.raises(SimulationError):
        rt.fase_end()
    assert rt.log.commits == 0


def test_context_manager(rt):
    with rt.fase():
        assert rt.session.fase_depth == 1
        with rt.fase():
            assert rt.session.fase_depth == 2
    assert rt.session.fase_depth == 0
    assert rt.log.commits == 1


def test_current_id_changes_per_outermost(rt):
    with rt.fase():
        first = rt.session.current_fase_id
    with rt.fase():
        second = rt.session.current_fase_id
    assert first != second
    assert rt.session.current_fase_id == -1


def test_nested_fase_keeps_outer_id(rt):
    with rt.fase():
        outer = rt.session.current_fase_id
        with rt.fase():
            assert rt.session.current_fase_id == outer


def test_lock_brackets_fase(rt):
    lock = rt.lock("l")
    with lock:
        assert lock.held
        assert rt.session.fase_depth == 1
    assert not lock.held
    assert rt.session.fase_depth == 0
    assert rt.log.commits == 1


def test_lock_release_unheld_raises(rt):
    lock = rt.lock("l")
    with pytest.raises(SimulationError):
        lock.release()


def test_nested_locks(rt):
    a, b = rt.lock("a"), rt.lock("b")
    with a:
        with b:
            assert rt.session.fase_depth == 2
    assert rt.log.commits == 1


# ---------------------------------------------------------------------------
# A lock-entered FASE is logged and committed as a fase() one
# ---------------------------------------------------------------------------


def test_two_lock_fases_on_one_address_both_commit():
    rt = AtlasRuntime(technique="SC")
    x, y = rt.alloc(8), rt.alloc(8)
    with rt.fase():
        rt.store(x, value="x")
    for value in ("first", "second"):
        with rt.lock("l"):
            rt.store(y, value=value)
    report = recover(rt.crash(), rt.layout())
    assert report.committed_fases == {0, 1, 2}
    assert not report.rolled_back_fases
    assert (report.read(x), report.read(y)) == ("x", "second")


class _PowerCut(Exception):
    pass


def test_a_crash_between_the_drain_and_the_commit_restores_the_first_value(monkeypatch):
    """Power fails as the second lock FASE's commit record is about to be
    written: its data has drained to NVRAM, so only its undo record can
    bring back the first FASE's value."""
    rt = AtlasRuntime(technique="SC")
    y = rt.alloc(8)
    with rt.lock("l"):
        rt.store(y, value="first")
    crashed = []

    def power_cut(log, fase_id):
        crashed.append(rt.crash())
        raise _PowerCut

    monkeypatch.setattr(UndoLog, "commit", power_cut)
    with pytest.raises(_PowerCut):
        with rt.lock("l"):
            rt.store(y, value="second")
    (state,) = crashed
    assert state.nvram[y] == "second"   # the data landed before the commit
    report = recover(state, rt.layout())
    assert report.committed_fases == {0}
    assert report.rolled_back_fases == {1}
    assert report.read(y) == "first"


def test_a_fase_nested_in_a_lock_commits_once():
    rt = AtlasRuntime(technique="SC")
    y = rt.alloc(8)
    with rt.lock("l"):
        with rt.fase():
            rt.store(y, value="inner")
        assert rt.log.commits == 0
        rt.store(y, value="outer")
    assert rt.log.commits == 1
    report = recover(rt.crash(), rt.layout())
    assert report.committed_fases == {0}
    assert report.read(y) == "outer"
