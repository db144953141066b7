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

All times are absolute model cycles supplied by the caller's clock.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.common.errors import ConfigurationError


class FlushQueue:
    """A depth-bounded FIFO over a serialised write-back channel."""

    __slots__ = ("depth", "service", "pending", "last_completion", "issued")

    def __init__(self, depth: int = 8, service: int = 250) -> None:
        if depth < 1:
            raise ConfigurationError("queue depth must be >= 1")
        if service < 0:
            raise ConfigurationError("service time must be non-negative")
        self.depth = depth
        self.service = service
        self.pending: Deque[int] = deque()       # completion times, ascending
        self.last_completion = 0                 # channel serialisation point
        self.issued = 0

    def issue(self, now: int) -> Tuple[int, int]:
        """Issue one write-back at cycle ``now``.

        Returns ``(new_now, stall)``: if the queue was full the CPU waited
        ``stall`` cycles for a slot.  The write-back completes in the
        background.
        """
        # Completed write-backs are reaped inline, here and after a
        # stall: this is the per-flush path of every technique.
        pending = self.pending
        while pending and pending[0] <= now:
            pending.popleft()
        stall = 0
        if len(pending) >= self.depth:
            # Wait until the oldest of the last `depth` entries completes.
            free_at = pending[len(pending) - self.depth]
            stall = free_at - now
            now = free_at
            while pending and pending[0] <= now:
                pending.popleft()
        done = self.last_completion
        if done < now:
            done = now
        done += self.service
        pending.append(done)
        self.last_completion = done
        self.issued += 1
        return now, stall

    def drain(self, now: int) -> Tuple[int, int]:
        """Wait at cycle ``now`` until every issued write-back is durable.

        Returns ``(new_now, stall)``.
        """
        stall = 0
        if self.pending:
            last = self.pending[-1]
            if last > now:
                stall = last - now
                now = last
            self.pending.clear()
        return now, stall

    @property
    def outstanding(self) -> int:
        """Entries not yet known to have completed (approximate)."""
        return len(self.pending)
