"""The lock-based FASE entry point.

Atlas derives FASEs from critical sections: "the programming model
requires that all the codes that violate a program invariant be grouped
into a failure-atomic section", and in practice the LLVM pass instruments
lock acquire/release (§III-C, "Compiler Support").  A FASE "is more
general than transactions because of nesting" (§V): persistence is only
guaranteed when the *outermost* section closes.

:class:`FaseLock` is the lock-shaped front end — acquiring enters a FASE,
releasing leaves it — so ported lock-based code reads naturally.  Both go
through the runtime's one bracket (``AtlasRuntime.fase_begin`` /
``fase_end``), so a lock-entered FASE is logged and committed exactly as
a ``with rt.fase():`` one.
"""

from __future__ import annotations

from repro.common.errors import SimulationError


class FaseLock:
    """A lock whose critical section is a FASE (Atlas's model).

    The simulation is cooperative (one OS thread drives all simulated
    threads), so no real mutual exclusion is needed; the lock checks
    usage discipline and brackets the FASE through its runtime.  Locks
    may nest — Atlas builds its FASEs from the program's full outermost
    critical sections.
    """

    __slots__ = ("name", "runtime", "_held")

    def __init__(self, name: str, runtime) -> None:
        self.name = name
        self.runtime = runtime
        self._held = 0

    def acquire(self) -> None:
        """Take the lock, entering a failure-atomic section."""
        self._held += 1
        self.runtime.fase_begin()

    def release(self) -> None:
        """Release the lock, leaving the section."""
        if self._held == 0:
            raise SimulationError(f"lock {self.name!r} released but not held")
        self._held -= 1
        self.runtime.fase_end()

    @property
    def held(self) -> bool:
        """True while this lock is held."""
        return self._held > 0

    def __enter__(self) -> "FaseLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()
