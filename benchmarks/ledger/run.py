"""The benchmark driver's entry point.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` runs one workload and prints, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with tracing
off, its per-layer metrics with ``--trace 1``).  It needs the repository
around it — ``src/repro`` is what it measures — and exits non-zero,
printing no result, anywhere else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.ledger`` importable from a checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"benchmarks/ledger needs the repository it measures: "
            f"{ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    bootstrap()
    from benchmarks.ledger.cli import driver_main

    raise SystemExit(driver_main())
