"""Write ``golden_reports.json``: ``to_dict()`` of every check in
``cases.py`` at each seed in ``cases.SEEDS``.

    PYTHONPATH=src python tests/record_golden.py

The file pins the verdicts of the per-point evaluator; rerun this only on
purpose, when a change is meant to alter reports.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden_reports.json")


def main():
    doc = {}
    for name, run in cases.cases():
        for seed in cases.SEEDS:
            doc[f"{name} @ seed {seed}"] = run(seed).to_dict()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(doc)} reports to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
