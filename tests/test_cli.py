import json
import os
import re
import subprocess
import sys

import pytest

from hydroham.cli import PRESETS, SPEC_CHECKS, main
from hydroham.sampling import SamplePlan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


H1_METRIC = [["-exp(r2-r1)", "0"], ["0", "exp(r2-r1)"]]
# b^{ij}_k of the first classical structure, as expression strings
H1_B = [
    [["exp(r2-r1)/2", "-exp(r2-r1)/2"], ["-exp(r2-r1)/2", "exp(r2-r1)/2"]],
    [["exp(r2-r1)/2", "-exp(r2-r1)/2"], ["-exp(r2-r1)/2", "exp(r2-r1)/2"]],
]

PLAN = {"count": 60, "seed": 11, "box": [[-0.7, 0.7], [-0.7, 0.7]]}


def write_spec(tmp_path, name="spec.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def test_valid_local_check_passes(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        dimension=2,
        metric=H1_METRIC,
        b=H1_B,
        checks=["skew_adjoint", "local_hamiltonian"],
        sample_plan=PLAN,
    )
    assert main(["check", spec]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_mutated_spec_fails_and_names_condition(tmp_path, capsys):
    b = json.loads(json.dumps(H1_B))
    b[0][1][0] = "exp(r2-r1)/2"  # sign flip of one connection entry
    spec = write_spec(
        tmp_path, dimension=2, metric=H1_METRIC, b=b,
        checks=["local_hamiltonian"], sample_plan=PLAN,
    )
    assert main(["check", spec]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "metric_compatible" in out or "connection_symmetric" in out


def test_non_square_metric_is_invalid(tmp_path, capsys):
    spec = write_spec(
        tmp_path, dimension=2, metric=[["1", "0"]], b=H1_B, checks=["local_hamiltonian"]
    )
    assert main(["check", spec]) == 2
    assert "metric" in capsys.readouterr().err


def test_unknown_check_id(tmp_path, capsys):
    spec = write_spec(tmp_path, dimension=2, metric=H1_METRIC, b=H1_B, checks=["frobnicate"])
    assert main(["check", spec]) == 2


def test_missing_objects_for_check(tmp_path, capsys):
    spec = write_spec(tmp_path, dimension=2, metric=H1_METRIC, checks=["local_hamiltonian"])
    assert main(["check", spec]) == 2
    assert "needs" in capsys.readouterr().err


def test_bad_expression_reported(tmp_path, capsys):
    spec = write_spec(
        tmp_path, dimension=2, metric=[["u5", "0"], ["0", "1"]], b=H1_B,
        checks=["local_hamiltonian"],
    )
    assert main(["check", spec]) == 2
    assert "out of range" in capsys.readouterr().err


def test_json_reports_are_reproducible(tmp_path, capsys):
    spec = write_spec(
        tmp_path, dimension=2, metric=H1_METRIC, b=H1_B,
        checks=["local_hamiltonian"], sample_plan=PLAN,
    )
    assert main(["check", spec, "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["check", spec, "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert json.dumps(first["checks"]) == json.dumps(second["checks"])
    assert first["overall"] == "pass"
    # the echoed plan pins seed and tolerances
    assert first["spec"]["sample_plan"]["seed"] == 11


def test_overrides_change_the_echoed_plan(tmp_path, capsys):
    spec = write_spec(
        tmp_path, dimension=2, metric=H1_METRIC, b=H1_B,
        checks=["skew_adjoint"], sample_plan=PLAN,
    )
    assert main(["check", spec, "--json", "--samples", "17", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["sample_plan"]["count"] == 17
    assert doc["spec"]["sample_plan"]["seed"] == 3


def test_preset_exit_codes(capsys):
    assert main(["preset", "h1", "--samples", "25"]) == 0
    capsys.readouterr()
    assert main(["preset", "kg-family", "--k", "1/2"]) == 2
    capsys.readouterr()
    assert main(["preset", "no-such-preset"]) == 2
    capsys.readouterr()
    assert main(["preset", "h2-hat", "--c", "1,1,1", "--samples", "10"]) == 2
    err = capsys.readouterr().err
    assert "c_a^2" in err


def test_preset_nonlocal_suite(capsys):
    assert main(["preset", "h2-hat", "--samples", "30", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "pass"
    cids = {c["id"] for chk in doc["checks"] for c in chk["conditions"]}
    assert "t3_gauss" in cids


def test_preset_kg_family(capsys):
    assert main(["preset", "kg-family", "--k", "2", "--samples", "40"]) == 0
    out = capsys.readouterr().out
    assert "negative control" in out


def test_preset_reciprocal_remark(capsys):
    assert main(["preset", "reciprocal-remark", "--samples", "30"]) == 0
    out = capsys.readouterr().out
    assert "transformed speed matrix" in out
    assert "sign bridge" in out


def test_reciprocal_command(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        dimension=3,
        system=[
            ["-(r1+r2+1)", "0", "0"],
            ["0", "-(r1+r2-1)", "0"],
            ["0", "0", "-(r1+r2)"],
        ],
        currents=[
            {"rho": "0", "sigma": "1"},
            {"rho": "exp(r1-r2)", "sigma": "(r1+r2)*exp(r1-r2)"},
        ],
        sample_plan={"count": 40, "seed": 5, "box": [[-0.7, 0.7], [-0.7, 0.7], [0.1, 1.0]]},
    )
    assert main(["reciprocal", spec, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "pass"
    speeds = doc["transformed_speeds"][0]["v"]
    p = doc["transformed_speeds"][0]["point"]
    import math

    e = math.exp(p[0] - p[1])
    assert speeds[0][0] == pytest.approx(-e, rel=1e-9)
    assert speeds[1][1] == pytest.approx(e, rel=1e-9)
    assert abs(speeds[2][2]) <= 1e-12


def test_reciprocal_rejects_bad_current(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        dimension=3,
        system=[
            ["-(r1+r2+1)", "0", "0"],
            ["0", "-(r1+r2-1)", "0"],
            ["0", "0", "-(r1+r2)"],
        ],
        currents=[
            {"rho": "0", "sigma": "1"},
            {"rho": "exp(r1-r2)", "sigma": "(r1+r2)*exp(r1-r2) + r1"},
        ],
        sample_plan={"count": 40, "seed": 5, "box": [[-0.7, 0.7], [-0.7, 0.7], [0.1, 1.0]]},
    )
    assert main(["reciprocal", spec]) == 1
    out = capsys.readouterr().out
    assert "not conserved; not transforming" in out


def test_reciprocal_requires_two_currents(tmp_path, capsys):
    spec = write_spec(
        tmp_path, dimension=2, system=[["1", "0"], ["0", "1"]],
        currents=[{"rho": "0", "sigma": "1"}],
    )
    assert main(["reciprocal", spec]) == 2


def test_full_preset_catalog_passes(capsys):
    names = ["h1", "h2", "h3", "h1-theta", "h2-hat", "h3-hat", "remark-ops",
             "s", "s0", "s-tilde", "kg-family", "constraints", "reciprocal-remark"]
    for name in names:
        assert main(["preset", name, "--samples", "20"]) == 0, name
        capsys.readouterr()


def test_ferapontov_spec_with_tails(tmp_path, capsys):
    # one-component operator with a tail: every condition is elementary
    spec = write_spec(
        tmp_path,
        dimension=1,
        metric=[["1"]],
        b=[[["0"]]],
        tails=[{"epsilon": 1, "matrix": [["u1"]]}],
        checks=["ferapontov"],
        sample_plan={"count": 30, "seed": 2, "box": [[0.1, 1.0]]},
    )
    assert main(["check", spec, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cids = {c["id"] for chk in doc["checks"] for c in chk["conditions"]}
    assert {"t1_pairing_symmetric", "t2_codazzi", "t3_gauss", "t4_tails_commute"} <= cids


def test_tail_validation(tmp_path, capsys):
    spec = write_spec(
        tmp_path, dimension=1, metric=[["1"]], b=[[["0"]]],
        tails=[{"epsilon": 2, "matrix": [["u1"]]}], checks=["ferapontov"],
    )
    assert main(["check", spec]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hydroham", "preset", "h1", "--samples", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout


def _without_wall_time(text):
    return re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": null', text)


def test_consecutive_calls_match_separate_runs(tmp_path, capsys):
    # one parser serves every in-process call: no subcommand, option or
    # default of one call may carry over into the next
    spec = write_spec(tmp_path, dimension=2, metric=H1_METRIC, b=H1_B,
                      checks=["skew_adjoint"], sample_plan=PLAN)
    calls = [
        ["preset", "h1-theta", "--theta", "1+r3^2", "--samples", "10", "--seed", "3", "--json"],
        ["check", spec, "--samples", "12", "--tol", "1e-6", "--json"],
        ["preset", "h1-theta", "--samples", "10", "--json"],
        ["check", spec],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append((code, _without_wall_time(capsys.readouterr().out)))
    for argv, got in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "hydroham", *argv],
                              capture_output=True, text=True)
        assert got == (proc.returncode, _without_wall_time(proc.stdout)), argv


# -- the dispatch tables against the docs ------------------------------------------


def _read(*parts):
    with open(os.path.join(ROOT, *parts), "r", encoding="utf-8") as fh:
        return fh.read()


def test_readme_preset_table_names_every_preset():
    rows = re.findall(r"^\| (`[^|]*)\|", _read("README.md"), re.M)
    assert [name for row in rows for name in re.findall(r"`([^`]+)`", row)] == list(PRESETS)


def test_spec_doc_lists_every_check_with_its_fields():
    bullets = re.findall(r"^\* `(\w+)` - (.*)$", _read("docs", "workbench_spec.md"), re.M)
    documented = [(cid, tuple(re.findall(r"`(\w+)`", fields.split("optionally")[0])))
                  for cid, fields in bullets]
    assert documented == [(cid, fields) for cid, (fields, _) in SPEC_CHECKS.items()]


def test_unknown_preset_and_check_messages(tmp_path, capsys):
    assert main(["preset", "bogus"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown preset 'bogus'; available: h1 h2 h3 h1-theta h2-hat h3-hat "
        "remark-ops s s0 s-tilde kg-family constraints reciprocal-remark\n")
    spec = write_spec(tmp_path, dimension=2, metric=H1_METRIC, checks=["frobnicate"])
    assert main(["check", spec]) == 2
    assert capsys.readouterr().err == (
        "error: unknown check id 'frobnicate'; known: skew_adjoint, local_hamiltonian, "
        "ferapontov, conserved_currents\n")
    spec = write_spec(tmp_path, dimension=2, metric=H1_METRIC, checks=["conserved_currents"])
    assert main(["check", spec]) == 2
    assert capsys.readouterr().err == (
        "error: check 'conserved_currents' needs 'system' and 'currents'\n")


# -- non-finite plan input ------------------------------------------------------------


@pytest.mark.parametrize("field,value", [
    ("tolerance", float("inf")), ("tolerance", float("nan")), ("tolerance", 0.0),
    ("floor", float("inf")), ("floor", float("nan")), ("floor", -1e-12),
])
def test_plan_rejects_a_non_finite_tolerance_or_floor(field, value):
    with pytest.raises(ValueError, match=field):
        SamplePlan(1, ((-1.0, 1.0),), **{field: value})


@pytest.mark.parametrize("box", [((float("-inf"), 1.0),), ((-1.0, float("inf")),),
                                 ((float("nan"), 1.0),)])
def test_plan_rejects_a_non_finite_box_bound(box):
    with pytest.raises(ValueError, match="sampling interval"):
        SamplePlan(1, box)


# g = 2 + u1 with b = 0 is not metric compatible (normalized residual about 0.99)
WRONG_CONNECTION = {"dimension": 1, "metric": [["2 + u1"]], "b": [[["0"]]],
                    "checks": ["local_hamiltonian"]}


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
def test_non_finite_tolerance_is_invalid_input(tmp_path, capsys, tol):
    spec = write_spec(tmp_path, **WRONG_CONNECTION)
    assert main(["check", spec]) == 1
    capsys.readouterr()
    assert main(["check", spec, f"--tol={tol}"]) == 2
    assert "tolerance must be finite and positive" in capsys.readouterr().err
    assert main(["preset", "h1", f"--tol={tol}"]) == 2


def test_non_finite_box_bound_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "spec.json"
    spec = dict(WRONG_CONNECTION, sample_plan={"box": [[-1.0, 1.0]]})
    path.write_text(json.dumps(spec).replace("-1.0", "-1e400"), encoding="utf-8")
    assert main(["check", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err


def test_non_finite_floor_is_invalid_input(tmp_path, capsys):
    spec = write_spec(tmp_path, **dict(WRONG_CONNECTION, sample_plan={"floor": -1}))
    assert main(["check", spec]) == 2
    assert "floor must be finite and >= 0" in capsys.readouterr().err
