"""Bursty sampling for online MRC analysis (§III-C, "MRC Analysis").

Online analysis "partitions a program execution into bursts and
hibernation periods.  At a burst, we monitor the sequence of persistent
writes.  At the end of a burst period, we calculate MRC and then adjust
the cache capacity."  The paper uses one burst of 64 M writes and an
infinite hibernation ("we found it is sufficient to analyze MRC just
once"), and so does this sampler: it closes for good after its one
analysis.  The burst length is configurable — the default is scaled down
in proportion to the scaled-down workloads.

:class:`BurstSampler` is the per-thread recorder embedded in the SC
technique; :func:`sampled_mrc` is the offline convenience used by the
Fig. 7 accuracy study (sampled vs. full-trace vs. actual MRC).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.errors import ConfigurationError
from repro.locality.mrc import MissRatioCurve, mrc_from_trace
from repro.locality.trace import WriteTrace

#: Default burst length.  The paper's 64 M writes sample roughly the first
#: fifth of its smallest SPLASH2 run; our workloads are scaled down by
#: ~1000x, so the default burst scales with them.
DEFAULT_BURST_LENGTH = 65536


class BurstSampler:
    """Record the first ``burst_length`` persistent writes of a thread.

    The sampler is deliberately cheap on the hot path: recording is two
    list appends; all analysis cost is paid once, when the burst closes.
    Its phase state is public — ``skipping``, ``lines``/``fids``,
    ``done`` — so an owner may take writes strictly inside a phase
    without a call, as the SC technique does; :meth:`record` is the
    general step, edges included.

    Parameters
    ----------
    burst_length:
        Number of writes in the burst.
    initial_skip:
        Writes to skip before the burst opens — a warm-up window,
        so programs whose write locality is still forming at start-up
        (growing data structures) are sampled in their steady phase.
    """

    __slots__ = ("burst_length", "lines", "fids", "skipping", "done")

    def __init__(
        self, burst_length: int = DEFAULT_BURST_LENGTH, initial_skip: int = 0
    ) -> None:
        if burst_length < 2:
            raise ConfigurationError("burst_length must be >= 2")
        if initial_skip < 0:
            raise ConfigurationError("initial_skip must be non-negative")
        self.burst_length = burst_length
        #: The open burst's writes and their FASE ids.
        self.lines: List[int] = []
        self.fids: List[int] = []
        #: Writes still to pass unrecorded before the burst opens.
        self.skipping = initial_skip
        #: True once the sampler has permanently shut down.
        self.done = False

    @property
    def burst_complete(self) -> bool:
        """True once a full burst has been recorded and awaits analysis."""
        return len(self.lines) >= self.burst_length

    @property
    def recording(self) -> bool:
        """True while the sampler is accepting writes."""
        return not self.done and self.skipping == 0 and not self.burst_complete

    def record(self, line: int, fase_id: int) -> bool:
        """Feed one persistent write; return True when the burst just filled."""
        if self.done:
            return False
        if self.skipping > 0:
            self.skipping -= 1
            return False
        if len(self.lines) >= self.burst_length:
            return False
        self.lines.append(line)
        self.fids.append(fase_id)
        return len(self.lines) >= self.burst_length

    def trace(self) -> WriteTrace:
        """The recorded burst as a :class:`WriteTrace`."""
        return WriteTrace(
            np.asarray(self.lines, dtype=np.int64),
            np.asarray(self.fids, dtype=np.int64),
        )

    def analyze(self) -> MissRatioCurve:
        """Close the burst: compute the MRC and shut the sampler down."""
        mrc = mrc_from_trace(self.trace())
        self.lines.clear()
        self.fids.clear()
        self.done = True      # the paper's infinite hibernation
        return mrc

    @property
    def recorded(self) -> int:
        """Number of writes currently recorded in the open burst."""
        return len(self.lines)


def sampled_mrc(
    trace: WriteTrace, burst_length: int = DEFAULT_BURST_LENGTH
) -> MissRatioCurve:
    """The MRC an online sampler would compute for ``trace``.

    Takes the first ``burst_length`` writes (or the whole trace, if
    shorter) and runs the standard pipeline — this is the "sampled
    (online) MRC" series of Fig. 7.
    """
    k = min(burst_length, trace.n)
    return mrc_from_trace(trace.head(k))
