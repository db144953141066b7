"""The asynchronous flush engine.

Cache-line write-backs to NVRAM travel through a bounded queue over a
serialised memory channel.  The model captures the two behaviours the
paper's techniques trade off:

- *Overlap*: a flush issued while the queue has room costs the CPU only
  the issue overhead; the write-back proceeds in the background.  This is
  how eager flushing "hides memory transfer cost via asynchronous cache
  line flushes" — until the queue saturates, at which point the CPU is
  throttled to the write-back service rate (Table I's slowdowns).
- *Drain stall*: at the end of a FASE all buffered dirty lines must be
  durable before the FASE can commit, so the CPU waits for the queue to
  empty.  The lazy technique pays this for its entire working set; the
  software cache bounds it by capping its size (§III-C).

``Machine`` builds one queue per simulated thread: ``clflush`` ordering
is a per-core constraint, and the emulated NVRAM behind it is DRAM with
bandwidth to spare, so one thread's flushing does not delay another's.

All times are absolute model cycles supplied by the caller's clock,
which must never run backwards — a thread's ``stats.cycles`` does not.

*Why two integers carry the whole FIFO.*  A write-back completes at
``max(last_completion, now) + service``.  Take any entry still pending
at ``now`` other than the oldest one: had it been issued onto an idle
channel, everything before it would have completed by its issue time,
hence by ``now`` (the clock is monotone), and it would be the oldest.
So it was issued onto a busy channel and completes exactly ``service``
after its predecessor: the pending completion times are
``last_completion - k * service`` for ``k = 0, 1, …`` as long as that
exceeds ``now``.  The queue is therefore full at ``now`` iff
``last_completion - (depth - 1) * service > now``, and that value is
when the slot frees.  ``last_completion`` and the clock of the last
issue are the whole state; ``tests/test_flushqueue.py`` keeps the
explicit FIFO as the reference model.

A run of issues the caller can describe up front is one call:
:meth:`FlushQueue.issue_train` walks a list of gaps with ``issue``'s own
three lines (and can list each stall for a trace), and
:meth:`FlushQueue.issue_every` answers equal gaps in closed form; only
ER's write-through runs in ``Machine._batch_loop`` take them.

That loop also keeps inline copies of ``issue``'s lines, on ``service``
and ``lead = (depth - 1) * service`` hoisted per thread, writing
``last_completion``, ``_seen`` and ``issued`` back after each: a head
store's returned line (a victim, or ER's own store), and each
written-back line of a FASE commit, drained in the same loop.  Each copy
must equal this class: the per-event engine issues every flush through
``issue`` and drains each commit with ``drain``, and
``tests/test_machine_invariants.py::test_a_commit_is_one_flush_train``
compares the two engines and the value-tracking run down to every
thread's final ``(last_completion, issued, outstanding)``, while
``tests/test_flushqueue.py`` holds this class to the explicit FIFO.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.common.errors import require_int


class FlushQueue:
    """A depth-bounded FIFO over a serialised write-back channel, held
    as the channel's last completion time (see the module docstring)."""

    __slots__ = ("depth", "service", "last_completion", "issued", "_seen")

    def __init__(self, depth: int = 8, service: int = 250) -> None:
        require_int("FlushQueue depth", depth, 1)
        require_int("FlushQueue service", service, 0)
        self.depth = depth
        self.service = service
        self.last_completion = 0                 # channel serialisation point
        self.issued = 0
        # Clock after the last issue; None once a drain emptied the queue.
        self._seen: Optional[int] = None

    def issue(self, now: int) -> Tuple[int, int]:
        """Issue one write-back at cycle ``now``.

        Returns ``(new_now, stall)``: if the queue was full the CPU waited
        ``stall`` cycles for a slot.  The write-back completes in the
        background.
        """
        service = self.service
        done = self.last_completion
        stall = 0
        free_at = done - (self.depth - 1) * service
        if free_at > now:
            stall = free_at - now
            now = free_at
        self.last_completion = (done if done > now else now) + service
        self._seen = now
        self.issued += 1
        return now, stall

    def issue_train(
        self, now: int, gaps: Sequence[int], stalls: Optional[list] = None
    ) -> Tuple[int, int]:
        """Issue one write-back after each of ``gaps``, back to back.

        ``gaps[k]`` is the cycles the CPU spends between the previous
        issue returning (``now``, for the first) and issuing the next.
        Returns ``(new_now, total_stall)`` — what the same number of
        :meth:`issue` calls would, with the clock advanced by the gaps.
        Given a ``stalls`` list, each issue that stalled appends the
        ``(now, stall)`` its :meth:`issue` call would have returned.
        """
        service = self.service
        lead = (self.depth - 1) * service
        done = self.last_completion
        stalled = 0
        for gap in gaps:
            now += gap
            free_at = done - lead
            if free_at > now:
                stalled += free_at - now
                if stalls is not None:
                    stalls.append((free_at, free_at - now))
                now = free_at
            done = (done if done > now else now) + service
        if gaps:
            self.last_completion = done
            self._seen = now
            self.issued += len(gaps)
        return now, stalled

    def issue_every(self, now: int, gap: int, n: int) -> Tuple[int, int]:
        """:meth:`issue_train` over ``n`` equal gaps, in closed form.

        With ``s = service``, ``lead = (depth - 1) * s`` and ``done`` the
        last completion, a gap ``gap >= s`` never stalls (each issue
        finds the channel at most ``lead + s`` ahead of a clock that has
        since moved ``gap``), so the clock ends at ``now + n * gap`` and
        the channel at ``max(done + n * s, that + s)``.  A shorter gap
        keeps the channel busy from ``D = max(done, now + gap)`` on: it
        completes ``D + n * s``, and the clock ends where the last slot
        frees, ``D + (n - 1) * s - lead``, unless the gaps alone take it
        further.  Both rest on the clock never running backwards.
        """
        if n <= 0:
            return now, 0
        service = self.service
        done = self.last_completion
        free = now + n * gap
        if gap >= service:
            end = free
            done = max(done + n * service, end + service)
        else:
            start = max(done, now + gap)
            done = start + n * service
            # The last slot frees at start + (n - 1) * s - lead.
            end = max(free, start + (n - self.depth) * service)
        self.last_completion = done
        self._seen = end
        self.issued += n
        return end, end - free

    def drain(self, now: int) -> Tuple[int, int]:
        """Wait at cycle ``now`` until every issued write-back is durable.

        Returns ``(new_now, stall)``.
        """
        self._seen = None
        stall = self.last_completion - now
        if stall > 0:
            return now + stall, stall
        return now, 0

    @property
    def outstanding(self) -> int:
        """Entries not complete at the clock of the last ``issue``.

        Zero after a ``drain``.  Completions are counted against the
        clock the queue last saw, not the caller's current one: an idle
        stretch since the last issue does not lower the reading.
        """
        seen = self._seen
        if seen is None:
            return 0
        # ceil((last_completion - seen) / service); the entry just
        # issued counts even when it completes at once (service 0).
        return -((seen - self.last_completion) // self.service) if self.service else 1
