"""Run the mutant catalog (``tests/mutants.py``): every mutant must be killed.

    python tests/run_mutants.py              # the whole catalog
    python tests/run_mutants.py NAME ...     # only these mutants
    python tests/run_mutants.py --list       # names, files, what each breaks

The named tests are first run once on the unmutated tree and must pass.
Then, per mutant, ``src/`` is copied to a temporary directory, the
mutant's one edit is applied there (its old text must occur exactly once
in its file: a catalog that no longer matches the code is an error, not a
survivor), and its named tests are run with ``-x -q`` against the copy.
The mutant is killed when they fail (pytest exit code 1); a pass is a
survivor, and any other exit code (a collection error, an unknown test
id) an error.  Exits 0 only when every mutant is killed.  Uses only the
standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from tests.mutants import MUTANTS  # noqa: E402


def pytest(src: str, tests):
    """Run ``tests`` against the package tree ``src``: pytest's exit code
    and the first test that failed ("" if none)."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode, failed[0] if failed else ""


def mutated_copy(mutant, into: str) -> str:
    """A copy of ``src/`` under ``into`` with ``mutant`` applied."""
    src = os.path.join(into, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(src, mutant.file)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: old text found {found} times in {mutant.file}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(mutant.old, mutant.new))
    return src


def main(argv) -> int:
    if "--list" in argv:
        for m in MUTANTS:
            print(f"{m.name:32} {m.file:24} {m.breaks}")
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown or not chosen:
        raise SystemExit(f"no such mutant: {sorted(unknown)}")
    killers = sorted({test for m in chosen for test in m.killers})
    if pytest(os.path.join(ROOT, "src"), killers)[0] != 0:
        raise SystemExit("the named tests fail on the unmutated tree")
    survivors = errors = 0
    for m in chosen:
        started = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            code, killer = pytest(mutated_copy(m, tmp), m.killers)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        survivors += code == 0
        errors += code not in (0, 1)
        elapsed = time.monotonic() - started
        print(f"{verdict:8} {m.name:30} {elapsed:4.1f} s  {killer}", flush=True)
    print(f"{len(chosen)} mutants: {len(chosen) - survivors - errors} killed, "
          f"{survivors} survived, {errors} errors")
    return 1 if survivors or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
