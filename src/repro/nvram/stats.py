"""Run statistics: per-thread counters and aggregate results.

The counters mirror what the paper measures: persistent stores, cache
line flushes (software accounting), instructions (Table IV), hardware L1
miss ratios (perf counters in the paper, direct model counters here) and
cycle times with the stall breakdown.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List

from repro.common.errors import ConfigurationError


@dataclass
class ThreadStats:
    """Counters for one simulated thread."""

    thread_id: int = 0
    cycles: int = 0
    instructions: int = 0
    persistent_stores: int = 0
    persistent_loads: int = 0
    flushes: int = 0                 # persistence flushes issued (clflush)
    eviction_flushes: int = 0        # issued on software-cache eviction
    fase_end_flushes: int = 0        # issued at FASE-end drains
    eager_flushes: int = 0           # issued immediately per store (ER)
    log_flushes: int = 0             # undo-log entries made durable
    final_flushes: int = 0           # issued at end of program
    clean_flushes: int = 0           # always 0: the clean stage was removed
    bypass_flushes: int = 0          # always 0: nhit/cutoff were removed
    victim_flushes: int = 0          # victim-cache overflow (victim stage)
    stall_cycles: int = 0            # cycles blocked on the flush engine
    fase_count: int = 0              # outermost FASEs completed
    technique_overhead_cycles: int = 0  # always 0: no port charges bookkeeping
    adaptation_cycles: int = 0       # MRC analysis + size selection cost
    selected_sizes: List[int] = field(default_factory=list)

    @property
    def flush_ratio(self) -> float:
        """Flushes per persistent store — the paper's data flush ratio."""
        if self.persistent_stores == 0:
            return 0.0
        return self.flushes / self.persistent_stores


@dataclass
class RunResult:
    """The outcome of one ``Machine.run`` invocation."""

    workload: str
    technique: str
    num_threads: int
    threads: List[ThreadStats]
    l1_accesses: int
    l1_misses: int
    #: Always False from ``Machine.run``; kept in the schema that stored
    #: results and the benchmark's goldens read, as is ``to_dict``'s
    #: constant ``has_traces``.
    crashed: bool = False

    # ---- aggregates ---------------------------------------------------

    @property
    def persistent_stores(self) -> int:
        """Total persistent stores across threads."""
        return sum(t.persistent_stores for t in self.threads)

    @property
    def flushes(self) -> int:
        """Total persistence flushes across threads."""
        return sum(t.flushes for t in self.threads)

    @property
    def flush_ratio(self) -> float:
        """Aggregate flushes per persistent store (Table III's metric)."""
        stores = self.persistent_stores
        return self.flushes / stores if stores else 0.0

    @property
    def instructions(self) -> int:
        """Total instructions across threads (Table IV's metric)."""
        return sum(t.instructions for t in self.threads)

    @property
    def time(self) -> int:
        """Wall-clock model time: the slowest thread's cycle count."""
        return max((t.cycles for t in self.threads), default=0)

    @property
    def stall_cycles(self) -> int:
        """Total cycles spent blocked on the flush engine."""
        return sum(t.stall_cycles for t in self.threads)

    @property
    def l1_miss_ratio(self) -> float:
        """Hardware cache miss ratio over all accesses (Table IV)."""
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def fase_count(self) -> int:
        """Total outermost FASEs completed."""
        return sum(t.fase_count for t in self.threads)

    @property
    def selected_sizes(self) -> Dict[int, List[int]]:
        """Per-thread history of adaptively selected cache sizes."""
        return {t.thread_id: list(t.selected_sizes) for t in self.threads}

    def speedup_over(self, other: "RunResult") -> float:
        """``other.time / self.time`` — how much faster this run is."""
        return other.time / self.time if self.time else float("inf")

    # ---- serialization ------------------------------------------------

    def to_dict(self) -> Dict:
        """A JSON-serializable form of every counter."""
        return {
            "workload": self.workload,
            "technique": self.technique,
            "num_threads": self.num_threads,
            "threads": [asdict(t) for t in self.threads],
            "l1_accesses": self.l1_accesses,
            "l1_misses": self.l1_misses,
            "crashed": self.crashed,
            "has_traces": False,
        }

    #: Exact key sets :meth:`from_dict` accepts.  An on-disk cache entry
    #: written by an older (or newer) schema fails loudly here instead of
    #: surfacing as a ``TypeError`` from ``ThreadStats(**t)``.
    _REQUIRED_KEYS = frozenset(
        {
            "workload",
            "technique",
            "num_threads",
            "threads",
            "l1_accesses",
            "l1_misses",
            "crashed",
        }
    )
    _OPTIONAL_KEYS = frozenset({"has_traces"})

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        """Rebuild a result serialized by :meth:`to_dict`.

        Raises
        ------
        ConfigurationError
            If the payload's keys do not match this schema exactly —
            the symptom of loading a stale cache entry written by a
            different version of the counters.
        """
        keys = set(data)
        missing = sorted(cls._REQUIRED_KEYS - keys)
        unknown = sorted(keys - cls._REQUIRED_KEYS - cls._OPTIONAL_KEYS)
        if missing or unknown:
            raise ConfigurationError(
                f"RunResult payload does not match the current schema "
                f"(missing keys: {missing}, unknown keys: {unknown}); "
                f"a stale cache entry from another version?"
            )
        thread_fields = {f.name for f in fields(ThreadStats)}
        threads = []
        for i, t in enumerate(data["threads"]):
            tkeys = set(t)
            tmissing = sorted(thread_fields - tkeys)
            tunknown = sorted(tkeys - thread_fields)
            if tmissing or tunknown:
                raise ConfigurationError(
                    f"ThreadStats payload #{i} does not match the current "
                    f"schema (missing keys: {tmissing}, unknown keys: "
                    f"{tunknown}); a stale cache entry from another version?"
                )
            threads.append(ThreadStats(**t))
        return cls(
            workload=data["workload"],
            technique=data["technique"],
            num_threads=data["num_threads"],
            threads=threads,
            l1_accesses=data["l1_accesses"],
            l1_misses=data["l1_misses"],
            crashed=data["crashed"],
        )

    def __repr__(self) -> str:
        return (
            f"RunResult({self.workload}/{self.technique}, threads={self.num_threads}, "
            f"stores={self.persistent_stores}, flush_ratio={self.flush_ratio:.5f}, "
            f"time={self.time})"
        )
