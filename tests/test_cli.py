import ast
import json
import os
import re
import subprocess
import sys

import pytest

import cases
from hydroham.cli import PRESET_OPTIONS, PRESETS, SPEC_CHECKS, main
from hydroham.parsing import MAX_NESTING
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


@pytest.mark.parametrize("argv,code,error", [
    # each Lambda is undefined on a part of drift_plan's box, where it is redrawn
    (["h2-hat", "--lambda1", "sqrt(r3-0.3)"], 0, ""),
    (["h3-hat", "--lambda2", "ln(r3-0.2)"], 0, ""),
    (["h2-hat", "--lambda1", "r3^2"], 2,  # the default Lambda2
     "error: Lambda1, Lambda2 and the constant 1 must be linearly independent\n"),
    (["h2-hat", "--lambda1", "ln(-1-r3^2)"], 2, "error: domain too hostile at sample point 0\n"),
])
def test_the_lambdas_are_checked_independent_at_draws_where_they_are_defined(capsys, argv, code,
                                                                             error):
    assert main(["preset", *argv, "--samples", "20", "--json"]) == code
    assert capsys.readouterr().err == error


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


def test_reciprocal_redraws_table_points_where_a_transformed_speed_leaves_its_domain(
        tmp_path, capsys):
    # the currents pass under the redraw rule, and so does the table: each of
    # its four points is the first draw of its plan point with u1 > 0
    plan = {"count": 20, "seed": 3, "box": [[-1, 1]]}
    spec = write_spec(tmp_path, dimension=1, system=[["-1"]],
                      currents=[{"rho": "0", "sigma": "1"},
                                {"rho": "ln(u1)", "sigma": "ln(u1)"}],
                      checks=["conserved_currents"], sample_plan=plan)
    assert main(["check", spec]) == 0
    capsys.readouterr()
    assert main(["reciprocal", spec, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "pass"
    draws = SamplePlan(1, ((-1.0, 1.0),), count=20, seed=3)
    want = [next(float(p[0]) for r in range(17) if (p := draws.point(i, r))[0] > 0)
            for i in range(4)]
    assert [row["point"] for row in doc["transformed_speeds"]] == [[x] for x in want]
    assert draws.point(0)[0] < 0  # the first point is redrawn
    assert main(["reciprocal", spec]) == 0
    assert "at (0.7446)" in capsys.readouterr().out


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


def test_checks_never_load_numpy_random():
    # plan points are computed in array arithmetic, with no generator per draw
    code = ("import sys\nfrom hydroham.cli import main\n"
            "codes = [main(['preset', name, '--samples', '20'])\n"
            "         for name in ('h2-hat', 'h1', 'reciprocal-remark')]\n"
            "print(codes, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False", proc.stderr


def _deepest(n, var):
    """The inputs nested n levels that recurse deepest: calls, the parser's
    deepest stack, and a sum n levels deep inside n parentheses."""
    return ["sin(" * n + var + ")" * n, "(" * n + "1+" * n + var + ")" * n]


def test_input_at_the_nesting_bound_runs_from_the_cli_and_one_past_exits_2(tmp_path):
    # in a fresh interpreter at Python's default recursion limit: input nested
    # to the bound parses, compiles and runs through two presets and a spec
    # check; one level past it is a parse error, not a RecursionError
    runs = []
    for n in (MAX_NESTING, MAX_NESTING + 1):
        for k, (theta, entry) in enumerate(zip(_deepest(n, "r3"), _deepest(n, "u1"))):
            spec = write_spec(tmp_path, f"spec-{n}-{k}.json", dimension=2,
                              metric=[[entry, "0"], H1_METRIC[1]], b=H1_B,
                              checks=["local_hamiltonian"], sample_plan=dict(PLAN, count=5))
            runs += [["preset", "h1-theta", f"--theta={theta}", "--samples", "5"],
                     ["preset", "reciprocal-remark", f"--theta={theta}", "--samples", "5"],
                     ["check", spec]]
    code = (f"import sys\nfrom hydroham.cli import main\n"
            f"print(sys.getrecursionlimit(), [main(a) for a in {runs!r}])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    limit, codes = proc.stdout.splitlines()[-1].split(" ", 1)
    codes = ast.literal_eval(codes)
    assert limit == "1000" and all(c in (0, 1) for c in codes[:6]) and codes[6:] == [2] * 6
    assert proc.stderr.count(f"nesting deeper than {MAX_NESTING} levels") == 6


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


def test_the_docs_state_the_nesting_bound():
    for doc in (_read("README.md"), _read("docs", "workbench_spec.md")):
        assert f"{MAX_NESTING} levels deep" in " ".join(doc.split())


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


@pytest.mark.parametrize("field,value", [
    ("count", 10.5), ("count", 1e3), ("count", True), ("count", 0),
    ("tolerance", True), ("floor", True), ("floor", False),
])
def test_plan_rejects_a_count_that_is_not_an_integer_or_a_bool_tolerance(field, value):
    # a float count used to fail at the first draw; a bool tolerance read as 1.0
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


def test_bad_seed_is_invalid_input(tmp_path, capsys):
    spec = write_spec(tmp_path, **WRONG_CONNECTION)
    example = write_spec(tmp_path, "example.json", **cases.spec_example())
    for argv in (["check", spec], ["preset", "h1"], ["reciprocal", example]):
        assert main(argv + ["--seed", "-1", "--json"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "seed must be an integer >= 0, got -1" in captured.err
    # a seed of the wrong type in a spec file, no longer a traceback at the first draw
    spec = write_spec(tmp_path, **dict(WRONG_CONNECTION, sample_plan={"seed": 1.5}))
    assert main(["check", spec]) == 2
    assert "seed must be an integer >= 0, got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("plan,message", [
    ({"count": 10.5}, "count must be an integer >= 1, got 10.5"),
    ({"count": 1e3}, "count must be an integer >= 1, got 1000.0"),
    ({"count": True}, "count must be an integer >= 1, got True"),
    ({"tolerance": True}, "tolerance must be a number, got True"),
])
def test_plan_field_of_the_wrong_type_is_invalid_input(tmp_path, capsys, plan, message):
    spec = write_spec(tmp_path, **dict(WRONG_CONNECTION, sample_plan=plan))
    example = dict(cases.spec_example(), sample_plan=plan)
    for argv in (["check", spec], ["reciprocal", write_spec(tmp_path, "example.json", **example)]):
        assert main(argv + ["--json"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: bad sample plan: {message}\n"


@pytest.mark.parametrize("bounds,message", [
    ([False, True], "box bound must be a number, got False"),
    (["0", "1"], "box bound must be a number, got '0'"),
    ([0, 10**400], "int too large to convert to float"),
])
def test_box_bound_of_the_wrong_type_is_invalid_input(tmp_path, capsys, bounds, message):
    # bounds were converted with float(): [[false, true]] ran on [0.0, 1.0]
    spec = write_spec(tmp_path, **dict(WRONG_CONNECTION, sample_plan={"box": [bounds]}))
    example = cases.spec_example()
    example["sample_plan"] = {"box": [bounds] * example["dimension"]}
    for argv in (["check", spec], ["reciprocal", write_spec(tmp_path, "example.json", **example)]):
        assert main(argv + ["--json"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: bad sample plan: {message}\n"


def test_non_finite_floor_is_invalid_input(tmp_path, capsys):
    spec = write_spec(tmp_path, **dict(WRONG_CONNECTION, sample_plan={"floor": -1}))
    assert main(["check", spec]) == 2
    assert "floor must be finite and >= 0" in capsys.readouterr().err


# -- malformed spec files ---------------------------------------------------------------


_CANDIDATE = {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


@pytest.mark.parametrize("command,fields,message", [
    ("check", {"sample_plan": [1]}, "'sample_plan' must be a JSON object"),
    ("check", {"sample_plan": {"box": 3}}, "one [lo, hi] interval per variable"),
    ("check", {"sample_plan": {"box": [[-1.0, 1.0, 2.0]]}}, "one [lo, hi] interval per variable"),
    ("check", {"dimension": True}, "'dimension' must be a positive integer"),
    ("check", {"tails": [{"epsilon": True, "matrix": [["u1"]]}]}, "epsilon"),
    ("check", {"checks": [["local_hamiltonian"]]}, "unknown check id"),
    ("reciprocal", {"currents": [{"rho": 1, "sigma": "0"}, {"rho": "0", "sigma": "1"}]},
     "'rho' and 'sigma' expression strings"),
    ("reciprocal", {"candidate_operators": [_CANDIDATE]}, "list of {metric, b} objects"),
    ("reciprocal", {"candidate_operators": {"metric": _CANDIDATE["metric"]}},
     "list of {metric, b} objects"),
])
def test_malformed_spec_is_invalid_input(tmp_path, capsys, command, fields, message):
    base = dict(WRONG_CONNECTION) if command == "check" else cases.spec_example()
    spec = write_spec(tmp_path, **dict(base, **fields))
    assert main([command, spec, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("names", [5, ["a"], ["a", 3], "ab"])
def test_variable_names_must_be_dimension_strings(tmp_path, capsys, names):
    # they are echoed in --json, so anything else was echoed as given
    operator = {"dimension": 2, "metric": H1_METRIC, "b": H1_B, "checks": ["skew_adjoint"]}
    for command, base in (("check", operator), ("reciprocal", cases.spec_example())):
        spec = write_spec(tmp_path, **dict(base, variable_names=names))
        assert main([command, spec, "--json"]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: 'variable_names' must be a list of {base['dimension']} strings\n"


def test_variable_names_are_echoed(tmp_path, capsys):
    example = cases.spec_example()
    names = [f"r{i}" for i in range(1, example["dimension"] + 1)]
    spec = write_spec(tmp_path, **dict(example, variable_names=names))
    assert main(["reciprocal", spec, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["spec"]["variable_names"] == names


# -- numbers from outside and preset options ------------------------------------------


def _operator_spec(tmp_path, g11: str) -> str:
    metric = [[g11, H1_METRIC[0][1]], H1_METRIC[1]]
    return write_spec(tmp_path, dimension=2, metric=metric, b=H1_B,
                      checks=["skew_adjoint", "local_hamiltonian"], sample_plan=PLAN)


@pytest.mark.parametrize("argv,message", [
    (["preset", "h1-theta", "--theta", "1e400"],
     "bad --theta expression: number 1e400 is not a finite double"),
    (["preset", "h2-hat", "--c=1e400,0,0"],
     "--c must be 3 finite numbers, comma separated, got '1e400,0,0'"),
    (["preset", "kg-family", "--k=1e400"], "--k must be 1 finite number, got '1e400'"),
    (["preset", "kg-family", "--k=1/0"], "bad --k '1/0': Fraction(1, 0)"),
    (["preset", "kg-family", "--k=1,2"], "--k must be 1 finite number, got '1,2'"),
    (["preset", "constraints", "--b2=1,2"], "--b2 must be 3 finite numbers"),
])
def test_preset_numbers_past_the_doubles_are_invalid_input(capsys, argv, message):
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("g11,message", [
    ("1e400", "error: bad expression in metric: number 1e400 is not a finite double"),
    ("u1^(10^400)", "error: bad expression in metric: exponent is not a finite double"),
])
def test_spec_numbers_past_the_doubles_are_invalid_input(tmp_path, capsys, g11, message):
    assert main(["check", _operator_spec(tmp_path, g11), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)


@pytest.mark.parametrize("argv,message", [
    (["preset", "kg-family", "--k=1e200"],
     "the families' constant (1 - 2k)^2 is not a finite double at k = 1e+200"),
    (["preset", "kg-family", "--k=1e300"],
     "the families' constant (1 - 2k)^2 is not a finite double at k = 1e+300"),
    (["preset", "h1-theta", "--theta", "10^400"],
     "bad --theta expression: constant (10)^(400) is not a finite double (at position 0)"),
    (["preset", "h1-theta", "--theta", "r3*10^400"],
     "bad --theta expression: constant (10)^(400) is not a finite double (at position 3)"),
])
def test_preset_constants_past_the_doubles_are_invalid_input(capsys, argv, message):
    # k = 1e300 ended in an OverflowError traceback, 10^400 in "domain too hostile"
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_a_spec_constant_past_the_doubles_is_invalid_input(tmp_path, capsys):
    assert main(["check", _operator_spec(tmp_path, "2 + exp(1000)*u1"), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(
        "error: bad expression in metric: constant exp(1000) is not a finite double")


def test_a_spec_with_a_large_integer_power_is_a_verdict(tmp_path, capsys):
    # the order-2 jets of u1^(10^7) take a few dozen products, not 10^7
    assert main(["check", _operator_spec(tmp_path, "1 + u1^(10^7)"), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["overall"] == "fail"


def test_presets_take_only_the_options_they_read(capsys):
    assert main(["preset", "h1", "--theta", "0", "--k", "7", "--c", "1,2,3", "--json"]) == 2
    assert capsys.readouterr().err == \
        "error: preset 'h1' does not take --theta --c --k; it takes no options\n"
    for name, (_, takes, _) in PRESETS.items():
        for option in PRESET_OPTIONS:
            if option not in takes:
                assert main(["preset", name, f"--{option}=1"]) == 2, (name, option)
                assert f"does not take --{option};" in capsys.readouterr().err
    assert sum(len(takes) for _, takes, _ in PRESETS.values()) == 22


def test_presets_echo_the_options_they_accept(capsys):
    # a block off its defining sums: the constraint residuals fail
    argv = ["preset", "constraints", "--c", "1, 1, 0", "--b3", "0,0,1", "--samples", "5"]
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out)["spec"]["params"] == {"c": "1, 1, 0", "b3": "0,0,1"}


def test_readme_preset_table_lists_each_presets_options():
    rows = re.findall(r"^\| (`[^|]*)\|([^|]*)\|", _read("README.md"), re.M)
    listed = {name: set(re.findall(r"--(\w+)", cell))
              for names, cell in rows for name in re.findall(r"`([^`]+)`", names)}
    assert listed == {name: set(takes) for name, (_, takes, _) in PRESETS.items()}


def test_kg_family_control_holds_wherever_the_variant_fails(capsys):
    # the half-r1 variant's residual is 1/(2k): 0.0098 at k = 51, far above tolerance
    assert main(["preset", "kg-family", "--k=51", "--json"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    (control,) = [c for c in check["conditions"] if c["id"].startswith("half-exponent")]
    assert control["passed"] and control["max_residual"] == pytest.approx(1 / (2 * 51))


@pytest.mark.parametrize("seed", [8128] + list(range(1, 31)))
def test_kg_family_at_k_2000_fails_only_where_its_values_overflow(capsys, seed):
    # for r1 just below 0.355, where e^{2000 r1 - 2000/3999 r2} overflows, it is
    # finite but its jet coefficients and (1-2k) J[u_k] overflow: those rows
    # fail with no residual, at some seeds only; the control and v_k rows hold
    code = main(["preset", "kg-family", "--k=2000", "--seed", str(seed), "--json"])
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    rows = {c["id"]: c for c in check["conditions"]}
    control = rows.pop("half-exponent variant fails (k=2000)")
    assert control["passed"] and control["max_residual"] == pytest.approx(1 / 4000)
    for kk in (1, 2, 3):
        assert rows.pop(f"v_k solves (k={kk})")["passed"]
    assert set(rows) == {"u_k solves (k=2000)", "(1-2k) J[u_k] = v_k (k=2000)"}
    assert all(c["max_residual"] is None for c in rows.values() if not c["passed"])
    assert code == (0 if all(c["passed"] for c in rows.values()) else 1)


@pytest.mark.parametrize("argv,code", [
    (["preset", "h1-theta", "--theta", "-r3"], 0),
    (["preset", "kg-family", "--k", "-1/3"], 0),
    (["preset", "h2-hat", "--c", "-3,4,5"], 2),  # off the block's defining sums
])
def test_an_option_value_may_start_with_a_minus_sign(capsys, argv, code):
    # read as --option=value: the same exit code, document and error line
    assert main(argv + ["--json"]) == code
    spaced = capsys.readouterr()
    assert main(argv[:2] + [f"{argv[2]}={argv[3]}", "--json"]) == code
    joined = capsys.readouterr()
    assert _without_wall_time(spaced.out) == _without_wall_time(joined.out)
    assert spaced.err == joined.err


@pytest.mark.parametrize("value", ["--json", "-h", "--samples=5", "--"])
def test_an_option_of_the_parser_is_not_a_preset_option_value(capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["preset", "h1-theta", "--theta", value, "--samples", "5"])
    assert exit_.value.code == 2
    assert "argument --theta: expected one argument" in capsys.readouterr().err
