"""Script entry point: ``python3 perfbench/run.py run --workload <name> ...``.

Puts the checkout root (for ``perfbench``) and ``src`` (for ``repro``, the
program under test) on ``sys.path``, so the command works from a bare
checkout without ``PYTHONPATH``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bootstrap() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: the program under test is missing ({src}/repro)")
    # This file's directory must not shadow top-level modules.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[:0] = [ROOT, src]


if __name__ == "__main__":
    bootstrap()
    from perfbench.cli import main

    sys.exit(main())
