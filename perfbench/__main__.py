"""``python -m perfbench`` — the same program as ``perfbench/run.py``."""

import sys

from perfbench.run import bootstrap

if __name__ == "__main__":
    bootstrap()
    from perfbench.cli import main

    sys.exit(main())
