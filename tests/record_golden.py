"""Write the golden files the tests compare against:

* ``golden_reports.json``: ``to_dict()`` of every check in ``cases.py`` at
  each seed in ``cases.SEEDS``;
* ``golden_cli.json``: exit code, ``--json`` document (``wall_time_s``
  masked) and plan-point draw count of every run in ``cases.cli_cases``.

    PYTHONPATH=src python tests/record_golden.py [reports|cli]

With no argument both files are written.  The files were first recorded
from the per-point evaluator, re-recorded from the batched one, and last
re-recorded on the SplitMix64 plan points, each time with no verdict
change; rerun this only on purpose, when a change is meant to alter
reports, and list every entry and field it changes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden_reports.json")
GOLDEN_CLI_PATH = os.path.join(HERE, "golden_cli.json")


def record_reports():
    doc = {}
    for name, run in cases.cases():
        for seed in cases.SEEDS:
            doc[f"{name} @ seed {seed}"] = run(seed).to_dict()
    write(GOLDEN_PATH, doc)


def record_cli():
    with tempfile.TemporaryDirectory() as workdir:
        doc = {name: cases.run_cli_json(argv) for name, argv in cases.cli_cases(workdir)}
    write(GOLDEN_CLI_PATH, doc)


def write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(doc)} entries to {path}")


def main(argv):
    which = argv[1:] or ["reports", "cli"]
    for name in which:
        {"reports": record_reports, "cli": record_cli}[name]()


if __name__ == "__main__":
    main(sys.argv)
