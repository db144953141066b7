"""On-disk memoization of experiment runs.

Every harness cell — one ``(workload, technique, threads)`` run under a
fixed :class:`~repro.experiments.harness.HarnessConfig` — is
deterministic, so its result can be cached on disk and shared across
processes and invocations.  Entries are keyed by the SHA-256 of a
canonical-JSON description of the cell *and* the full configuration
(timing model, L1 geometry, selection policy, scale, seed, plus a schema
version), so any knob change silently misses instead of serving stale
results.

The cache stores plain JSON (``RunResult.to_dict``); recorded traces are
never cached — profile runs store a compact :class:`ProfileSummary`
instead (see ``harness.py``).  Writes are atomic (temp file + rename) so
parallel workers racing on the same key at worst both compute and one
wins the rename; both outcomes are identical by determinism.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Callable, Dict, Optional

from repro.common.errors import ConfigurationError

#: Bump whenever serialized content or key derivation changes shape.
#: 2: ThreadStats gained the policy-stage flush counters
#: (clean/bypass/victim) and technique cells are canonical spec strings.
SCHEMA_VERSION = 2


def _canonical(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_fingerprint(config) -> Dict:
    """A plain-dict description of a HarnessConfig for key derivation.

    ``dataclasses.asdict`` recurses into the frozen ``TimingModel`` and
    ``SelectionPolicy`` members, so every timing/selection knob lands in
    the key.
    """
    return dataclasses.asdict(config)


class ResultCache:
    """A directory of content-addressed JSON entries.

    One file per entry, named ``<sha256>.json``.  The cache never
    invalidates: keys embed everything the value depends on.
    """

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        #: Entries :meth:`get` found corrupt and so reported as misses.
        self.corrupt = 0

    # -- keys -----------------------------------------------------------

    @staticmethod
    def key(config, kind: str, **cell) -> str:
        """The cache key for one cell under one configuration.

        ``kind`` namespaces entry types ("run" vs "profile_summary");
        ``cell`` holds the cell coordinates (name/technique/threads).
        """
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "config": config_fingerprint(config),
            "cell": cell,
        }
        return hashlib.sha256(_canonical(payload).encode()).hexdigest()

    # -- I/O ------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def get(self, key: str, decode: Optional[Callable] = None):
        """The stored dict for ``key`` — passed through ``decode`` when
        given — or ``None`` on a miss.

        A missing file is a plain miss.  A torn or unreadable file, or an
        entry ``decode`` rejects with a :class:`ConfigurationError`, is a
        miss too, counted in :attr:`corrupt`: the caller recomputes and
        overwrites it, and the grid commands report the count.
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                data = json.load(fh)
            return data if decode is None else decode(data)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, ConfigurationError):
            self.corrupt += 1
            return None

    def put(self, key: str, value: Dict) -> None:
        """Atomically store ``value`` (a JSON-serializable dict)."""
        os.makedirs(self.cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(value, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
