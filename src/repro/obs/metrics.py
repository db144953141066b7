"""The metrics registry: counters, gauges, model-time series.

Where the trace recorder captures discrete events, the registry captures
*levels*: cache occupancy, flush-queue depth, the rolling flush ratio —
sampled at a configurable model-cycle interval, per thread, by the
machine's scheduler loop (off the hot event loop, so the cost is one
``is not None`` check per 64-event quantum when metrics are off).

Time series are parallel ``(times, values)`` arrays keyed by name; the
machine uses ``<metric>/t<thread>`` names so one registry holds every
thread's series.  All timestamps are model cycles, so a registry dump is
byte-identical across repeated runs of the same configuration.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError

#: Default sampling interval in model cycles.
DEFAULT_INTERVAL = 10_000


def nearest_rank(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list (0 when empty).

    The percentile behind the trace analyzer's FASE latency summary.
    ``q`` is a fraction in ``[0, 1]``; the result is always an element
    of the input (never interpolated), which keeps integer series
    integral.
    """
    n = len(sorted_values)
    if n == 0:
        return 0
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"percentile fraction must be in [0, 1], got {q}")
    rank = int(q * n + 0.999999) if q * n != int(q * n) else int(q * n)
    idx = max(0, min(n - 1, rank - 1))
    return sorted_values[idx]


class MetricsRegistry:
    """Counters, gauges and interval-sampled time series.

    ``max_points`` (optional) bounds every series' memory for always-on
    sampling: when a series would exceed it, the series is decimated by
    deterministically dropping every other point (keeping the even
    indices, i.e. the oldest point and every second one after it) — the
    series keeps its full time extent at half the resolution, and
    repeated runs of one configuration still dump byte-identical JSON.
    The default (``None``) keeps every point, unchanged from before.
    """

    __slots__ = ("interval", "max_points", "counters", "gauges", "_series", "_next_due")

    def __init__(
        self, interval: int = DEFAULT_INTERVAL, max_points: Optional[int] = None
    ) -> None:
        if interval < 1:
            raise ConfigurationError("metrics interval must be >= 1 cycle")
        if max_points is not None and max_points < 2:
            raise ConfigurationError("metrics max_points must be >= 2")
        self.interval = interval
        self.max_points = max_points
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._series: Dict[str, Tuple[List[int], List[float]]] = {}
        self._next_due: Dict[object, int] = {}

    # -- counters / gauges ----------------------------------------------

    def inc(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to the counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest value."""
        self.gauges[name] = value

    # -- time series -----------------------------------------------------

    def due(self, key: object, now: int, start: int = 0) -> bool:
        """True when ``key``'s next sample interval has been reached.

        Advances the key's schedule as a side effect, so each sampling
        site pays one dict lookup per quantum and records at most one
        point per ``interval`` cycles.

        ``start`` anchors an *unseen* key's schedule: a series that
        begins mid-run (e.g. a post-adaptation gauge) passes the cycle
        it came into existence, so its first sample falls at or after
        that cycle instead of backfilling a phantom point scheduled
        from cycle 0.  Ignored once the key has a schedule.
        """
        nxt = self._next_due.get(key)
        if nxt is None:
            nxt = start
        if now < nxt:
            return False
        self._next_due[key] = now + self.interval
        return True

    def sample(self, name: str, now: int, value: float) -> None:
        """Append one ``(now, value)`` point to the series ``name``."""
        series = self._series.get(name)
        if series is None:
            series = ([], [])
            self._series[name] = series
        series[0].append(now)
        series[1].append(value)
        cap = self.max_points
        if cap is not None and len(series[0]) > cap:
            series[0][:] = series[0][0::2]
            series[1][:] = series[1][0::2]

    def series(self, name: str) -> Tuple[List[int], List[float]]:
        """The ``(times, values)`` arrays of one series."""
        if name not in self._series:
            raise ConfigurationError(f"no series named {name!r}")
        return self._series[name]

    def series_names(self) -> List[str]:
        """All series names, sorted."""
        return sorted(self._series)

    # -- export ----------------------------------------------------------

    def to_dict(self) -> Dict:
        """A JSON-serializable snapshot of everything recorded."""
        return {
            "interval": self.interval,
            "max_points": self.max_points,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "series": {
                name: {"t": list(ts), "v": list(vs)}
                for name, (ts, vs) in sorted(self._series.items())
            },
        }

    def write_json(self, path: str) -> None:
        """Write the snapshot as deterministic JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n")

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(interval={self.interval}, "
            f"counters={len(self.counters)}, series={len(self._series)})"
        )
