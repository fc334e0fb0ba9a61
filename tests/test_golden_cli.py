"""CLI ``--json`` documents of every README preset and of the spec-file
example, pinned against ``golden_cli.json`` (written by record_golden.py
before the per-point callers moved onto batched tapes): exit codes, titles,
condition ids, verdicts, notes and transformed-speed points exactly,
residuals up to roundoff, and the number of plan points drawn."""

from __future__ import annotations

import json
import os

import pytest

import cases

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
RESIDUAL_ABS, RESIDUAL_REL = 1e-12, 1e-9
WITNESS_EXACT_FROM = 1e-10
# draws saved per run: the transform no longer re-checks the two currents the
# command has just checked (2 currents x 100 points), the transformed speeds
# draw their 4 points once for the table and the JSON, and the constraints
# preset checks its three Psi against the wave identity once instead of once
# per equation (3 equations x 3 Psi x 25 points)
SAVED_DRAWS = {"reciprocal example": 204, "preset reciprocal-remark": 204,
               "preset constraints": 225}

with open(GOLDEN, "r", encoding="utf-8") as fh:
    GOLDEN_DOCS = json.load(fh)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return dict(cases.cli_cases(str(tmp_path_factory.mktemp("specs"))))


def test_golden_covers_every_run(runs):
    assert sorted(runs) == sorted(GOLDEN_DOCS)


def _close(got, want):
    return got == pytest.approx(want, rel=RESIDUAL_REL, abs=RESIDUAL_ABS)


@pytest.mark.parametrize("key", sorted(GOLDEN_DOCS))
def test_cli_document_matches_golden(key, runs):
    got, want = cases.run_cli_json(runs[key]), GOLDEN_DOCS[key]
    assert got["exit_code"] == want["exit_code"]
    saved = SAVED_DRAWS.get(key.split(" @ ")[0], 0)
    assert got["draws"] == want["draws"] - saved
    gdoc, wdoc = got["document"], want["document"]
    assert sorted(gdoc) == sorted(wdoc)
    for field in ("tool", "version", "spec", "overall", "wall_time_s"):
        assert gdoc[field] == wdoc[field], field
    assert len(gdoc["checks"]) == len(wdoc["checks"])
    for g, w in zip(gdoc["checks"], wdoc["checks"]):
        assert (g["title"], g["passed"], g["plan"], g["notes"]) == \
            (w["title"], w["passed"], w["plan"], w["notes"])
        assert [c["id"] for c in g["conditions"]] == [c["id"] for c in w["conditions"]]
        for gc, wc in zip(g["conditions"], w["conditions"]):
            assert (gc["description"], gc["passed"], gc["note"]) == \
                (wc["description"], wc["passed"], wc["note"]), gc["id"]
            if wc["max_residual"] is None:
                assert gc["max_residual"] is None and gc["witness"] == wc["witness"], gc["id"]
                continue
            assert _close(gc["max_residual"], wc["max_residual"]), gc["id"]
            if wc["max_residual"] == 0.0 or wc["max_residual"] >= WITNESS_EXACT_FROM:
                assert gc["witness"] == wc["witness"], gc["id"]
    if "transformed_speeds" in wdoc:
        for g, w in zip(gdoc["transformed_speeds"], wdoc["transformed_speeds"], strict=True):
            assert g["point"] == w["point"]
            for grow, wrow in zip(g["v"], w["v"], strict=True):
                assert all(_close(a, b) for a, b in zip(grow, wrow, strict=True))


def test_json_output_is_byte_identical_run_to_run(runs):
    for key in ("preset reciprocal-remark @ seed 1", "preset kg-family --k=-1/3 @ seed 5",
                "reciprocal example @ seed 5", "preset s-tilde @ seed 1"):
        first, second = cases.run_cli_json(runs[key]), cases.run_cli_json(runs[key])
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True), key
