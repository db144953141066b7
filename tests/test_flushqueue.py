"""The asynchronous flush engine: overlap, back-pressure, drain stalls."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.nvram.flushqueue import FlushQueue


def test_validation():
    with pytest.raises(ConfigurationError):
        FlushQueue(depth=0)
    with pytest.raises(ConfigurationError):
        FlushQueue(service=-1)


def test_async_issue_is_free_with_room():
    q = FlushQueue(depth=4, service=100)
    now, stall = q.issue(1000)
    assert now == 1000 and stall == 0


def test_queue_full_backpressure():
    q = FlushQueue(depth=2, service=100)
    q.issue(0)      # completes at 100
    q.issue(0)      # completes at 200
    now, stall = q.issue(0)   # must wait for the first completion
    assert stall == 100
    assert now == 100


def test_channel_serialises_writebacks():
    q = FlushQueue(depth=8, service=100)
    q.issue(0)
    q.issue(0)
    q.issue(0)
    # Three write-backs queue on one channel: last completes at 300.
    now, stall = q.drain(0)
    assert now == 300 and stall == 300


def test_drain_when_idle_is_free():
    q = FlushQueue(depth=4, service=100)
    now, stall = q.drain(500)
    assert now == 500 and stall == 0


def test_drain_after_completion_is_free():
    q = FlushQueue(depth=4, service=100)
    q.issue(0)
    now, stall = q.drain(1000)   # long past completion at 100
    assert now == 1000 and stall == 0


def test_overlap_with_computation():
    """Flushes spaced wider than the service time never stall."""
    q = FlushQueue(depth=2, service=100)
    t = 0
    for _ in range(50):
        t += 150           # computation between flushes
        t, stall = q.issue(t)
        assert stall == 0


def test_saturation_throttles_to_service_rate():
    """Back-to-back flushes (the eager technique) run at one per
    service period once the queue fills."""
    q = FlushQueue(depth=4, service=100)
    t = 0
    for _ in range(100):
        t, _ = q.issue(t)
    # 100 flushes at ~100 cycles each, minus the initial buffered slack.
    assert t >= 100 * 96


def test_completions_are_reaped():
    q = FlushQueue(depth=2, service=10)
    q.issue(0)
    q.issue(0)
    q.issue(100)          # both prior completions have passed
    assert q.outstanding == 1


def test_issue_counter():
    q = FlushQueue()
    q.issue(0)
    q.issue(0)
    assert q.issued == 2


def test_fractional_and_bool_parameters_are_rejected():
    """A fractional depth would index nothing any more: it would just
    yield a wrong stall, so it is refused up front, by name."""
    for kwargs, field in [
        ({"depth": 2.5}, "depth"),
        ({"depth": True}, "depth"),
        ({"service": 10.5}, "service"),
        ({"service": "10"}, "service"),
        ({"depth": 2.5, "service": 10.5}, "depth"),
    ]:
        with pytest.raises(ConfigurationError, match=field):
            FlushQueue(**kwargs)


# -- the explicit FIFO, kept as the reference model -------------------------


class DequeFlushQueue:
    """``FlushQueue`` as it was written before it became arithmetic: the
    completion time of every pending write-back, oldest first, reaped
    lazily at each ``issue``."""

    def __init__(self, depth, service):
        self.depth = depth
        self.service = service
        self.pending = deque()
        self.last_completion = 0
        self.issued = 0

    def issue(self, now):
        pending = self.pending
        while pending and pending[0] <= now:
            pending.popleft()
        stall = 0
        if len(pending) >= self.depth:
            free_at = pending[len(pending) - self.depth]
            stall = free_at - now
            now = free_at
            while pending and pending[0] <= now:
                pending.popleft()
        done = max(self.last_completion, now) + self.service
        pending.append(done)
        self.last_completion = done
        self.issued += 1
        return now, stall

    def drain(self, now):
        stall = 0
        if self.pending:
            last = self.pending[-1]
            if last > now:
                stall = last - now
                now = last
            self.pending.clear()
        return now, stall

    @property
    def outstanding(self):
        return len(self.pending)


def state(q):
    return q.outstanding, q.issued, q.last_completion


SERVICES = [0, 1, 3, 100, 1900]
#: CPU cycles between two queue operations, on both sides of every
#: service time above.
GAPS = st.sampled_from([0, 1, 2, 3, 4, 50, 99, 100, 101, 800, 1899, 1900, 1901, 20000])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.sampled_from(SERVICES),
    st.lists(st.tuples(st.sampled_from(["issue", "issue", "issue", "drain"]), GAPS)),
)
def test_arithmetic_queue_equals_the_deque(depth, service, ops):
    """On a clock that never runs backwards the two integers are the
    whole FIFO: every return value and every public reading agree with
    the explicit queue after every step."""
    q, ref = FlushQueue(depth, service), DequeFlushQueue(depth, service)
    now = 0
    for op, gap in ops:
        now += gap
        got = getattr(q, op)(now)
        assert got == getattr(ref, op)(now)
        assert state(q) == state(ref)
        now = got[0]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.sampled_from(SERVICES),
    st.lists(GAPS, max_size=6),
    st.lists(GAPS, max_size=40),
)
def test_a_train_is_that_many_issues(depth, service, warmup, gaps):
    """``issue_train`` over ``n`` gaps is ``n`` ``issue`` calls with the
    clock advanced by each gap first, whatever the queue held before; the
    stalls it lists are those calls' stalled ``(now, stall)`` returns."""
    q, ref = FlushQueue(depth, service), DequeFlushQueue(depth, service)
    now = 0
    for gap in warmup:
        ref.issue(now + gap)
        now, _ = q.issue(now + gap)
    expected, stalled, issues = now, 0, []
    for gap in gaps:
        expected, stall = ref.issue(expected + gap)
        stalled += stall
        issues.append((expected, stall))
    stalls = []
    assert q.issue_train(now, gaps, stalls) == (expected, stalled)
    assert stalls == [issue for issue in issues if issue[1]]
    assert state(q) == state(ref)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.sampled_from(SERVICES),
    st.lists(st.tuples(st.sampled_from(["issue", "issue", "drain"]), GAPS), max_size=8),
    GAPS,
    st.integers(min_value=0, max_value=40),
)
def test_equal_gaps_in_closed_form(depth, service, history, gap, n):
    """``issue_every(now, g, n)`` is ``issue_train(now, [g] * n)`` and
    ``n`` issues of the deque, for gaps on both sides of the service
    time, whatever earlier issues and drains left — on a clock that never
    runs backwards, the queue's contract."""
    closed, train = FlushQueue(depth, service), FlushQueue(depth, service)
    ref = DequeFlushQueue(depth, service)
    now = 0
    for op, step in history:
        now += step
        getattr(closed, op)(now)
        getattr(train, op)(now)
        now = getattr(ref, op)(now)[0]
    expected, stalled = now, 0
    for _ in range(n):
        expected, stall = ref.issue(expected + gap)
        stalled += stall
    assert closed.issue_every(now, gap, n) == (expected, stalled)
    assert train.issue_train(now, [gap] * n) == (expected, stalled)
    assert state(closed) == state(train) == state(ref)
