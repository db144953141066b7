"""The FASE-semantics correction (§III-B, "Adaptation to FASE Semantics").

FASE semantics invalidate all data reuses across a FASE boundary: the
software cache is drained when a FASE ends, so a write in the next FASE to
the same line cannot be combined, no matter how large the cache is.  The
paper's example: under ``ab|ab|ab…`` every write is a miss, although the
un-annotated trace ``ababab…`` has a perfect hit ratio at size 2.

The fix is applied to the *trace*, not the cache: "We modify a write trace
so the writes from different FASEs use completely different addresses" —
``ab|ab|ab`` becomes ``abcdef`` before locality analysis.  Renaming (rather
than clearing a simulated cache) is required because the MRC must be known
for *all* cache sizes at once.
"""

from __future__ import annotations

import numpy as np

from repro.locality.trace import WriteTrace


def rename_for_fases(trace: WriteTrace) -> WriteTrace:
    """Return a trace where each (line, FASE) pair is a fresh address.

    Writes outside any FASE (fase id ``-1``) form their own shared region:
    they are never drained by a FASE end, so reuses among them remain
    combinable and they keep a single renamed id per line.

    The renaming is arithmetic: ``(fase - fase_min) * span + (line -
    line_min)`` with ``span`` the width of the line range — injective,
    deterministic and ordered like ``(fase, line)``, not dense (the reuse
    intervals only compare ids).  Only when that product would leave 62
    bits — two threads' FASE uids (``thread_id << 40``) over a line span
    of 2**30 — are both columns first replaced by their ``np.unique`` ranks.
    """
    lines, fids = trace.lines, trace.fase_ids
    if len(lines) == 0:
        return WriteTrace(lines.copy(), fids.copy())

    def width(column: np.ndarray) -> int:
        return int(column.max()) - int(column.min()) + 1

    if width(fids) * width(lines) >= 2**62:
        lines, fids = (np.unique(c, return_inverse=True)[1] for c in (lines, fids))
    renamed = (fids - fids.min()) * width(lines) + (lines - lines.min())
    return WriteTrace(renamed, trace.fase_ids.copy())
