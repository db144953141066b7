"""Shared fixtures: small deterministic machines, harnesses and traces."""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile

# Keep the suite hermetic: the run ledger is on by default, and tests
# exercise every recording entry point — always point it at a throwaway
# directory, even when the invoking environment (e.g. CI's job-level
# REPRO_LEDGER) chose one, so test runs never pollute a real ledger.
# Tests that need a specific ledger monkeypatch the variable themselves.
os.environ["REPRO_LEDGER"] = tempfile.mkdtemp(prefix="repro-test-ledger-")

import numpy as np
import pytest

from repro.experiments.harness import Harness, HarnessConfig
from repro.locality.trace import WriteTrace
from repro.nvram.machine import Machine, MachineConfig


def l1_lines(hw) -> dict:
    """The L1's cached lines in set order, each mapped to its dirty bit:
    ``line in l1_lines(hw)`` is "cached", ``.get(line)`` True dirty,
    False clean, None absent."""
    return {line: dirty for cache_set in hw.sets for line, dirty in cache_set.items()}


def l1_dirty(hw) -> list:
    """The L1's dirty lines in set order (what a power cut loses)."""
    return [line for line, dirty in l1_lines(hw).items() if dirty]


def token(thread: int, index: int) -> int:
    """What a crash replay's store ``index`` of thread ``thread``'s
    stream writes, and its golden truth records."""
    return (thread << 40) | index


def die_once_in_worker(flag: str) -> None:
    """SIGKILL the calling pool worker — the first one to get here only.

    ``flag`` is a path no file exists at yet; creating it elects the one
    victim.  A no-op in the parent, so the parent can finish the tasks
    the victim left behind.
    """
    if multiprocessing.parent_process() is None:
        return
    try:
        os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def machine() -> Machine:
    """A fresh default machine."""
    return Machine(MachineConfig())


@pytest.fixture
def value_machine() -> Machine:
    """A machine with value tracking (for crash/recovery tests)."""
    return Machine(MachineConfig(track_values=True))


@pytest.fixture(scope="session")
def tiny_harness() -> Harness:
    """A heavily scaled-down harness shared across harness-level tests.

    Session-scoped: the harness caches runs, so tests touching the same
    (workload, technique) pay once.
    """
    return Harness(HarnessConfig(scale=0.02, seed=7))


@pytest.fixture(scope="session")
def small_harness() -> Harness:
    """A moderately scaled harness for shape assertions."""
    return Harness(HarnessConfig(scale=0.1, seed=7))


def random_trace(seed: int, n: int, m: int, fases: int = 1) -> WriteTrace:
    """A random trace helper used across locality tests."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, m, size=n)
    if fases <= 1:
        return WriteTrace(lines)
    bounds = np.sort(rng.choice(np.arange(1, n), size=fases - 1, replace=False))
    fids = np.zeros(n, dtype=np.int64)
    for b in bounds:
        fids[b:] += 1
    return WriteTrace(lines, fids)
