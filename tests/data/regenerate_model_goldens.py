"""Regenerate ``golden_model_answers.json``: every ``/model/topology`` answer.

    PYTHONPATH=src python tests/data/regenerate_model_goldens.py

The committed copy was recorded from commit ``50cbc2b`` — the last one
whose performance models each rescaled a ``LogicalTopology``, enumerated
the paths and walked the chain themselves — with this corpus
(``tests/model_corpus.py``) on its ``src/``, before the one-pass
evaluation replaced them.  It is the contract that evaluation is held to:
the SHA-256 of the canonical JSON of ``[status, payload]`` per request.
Regenerating and committing the result *redefines* the contract; do it
only for a deliberate, explained change of the answers, and list in
``INTENDED`` (``tests/core/test_golden_answers.py``) what changed and why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(DATA_DIR.parents[1]))

from tests import model_corpus  # noqa: E402


def main() -> int:
    hashes = model_corpus.answers()
    path = DATA_DIR / "golden_model_answers.json"
    path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", "utf8")
    print(f"wrote {len(hashes)} answer hashes to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
