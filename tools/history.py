#!/usr/bin/env python
"""Query the run ledger (wrapper for ``repro.experiments history``).

Usable without installing the package::

    python tools/history.py --query trend --kind grid --metric time
    python tools/history.py --query regress --metric time --threshold 15

Exit codes: 0 clean, 1 the query flagged something (regression,
changepoint, drift, flaky campaign), 2 nothing to query.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.experiments.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["history"] + sys.argv[1:]))
