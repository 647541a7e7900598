#!/usr/bin/env python3
"""Hot-path benchmark runner (wrapper around ``python -m repro bench``).

Measures the membership-change hot path — end-to-end transactions/sec on
growth-heavy workloads plus ring-op and assignment-lookup microbenchmarks —
comparing the incremental overlay/invalidation path against the seed's
legacy full-rewire/blanket-invalidation behaviour, and writes
``BENCH_hotpath.json``.

Run from the repo root::

    python benchmarks/bench_hotpath.py            # full sizes, ~30 s
    python benchmarks/bench_hotpath.py --quick    # CI smoke sizes, ~5 s

Accepts the same flags as ``python -m repro bench`` (``--out``,
``--transactions``, ``--seed``, ``--quick``).
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow running straight from a checkout without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["bench", *sys.argv[1:]]))
