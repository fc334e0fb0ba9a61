"""Command-line front end.

Three subcommands:

    check <spec.json>        run the checks requested by a workbench spec file
    preset <name>            materialize a shipped preset and run its suite
    reciprocal <spec.json>   transform a system by two conserved currents

Dispatch is data: :data:`PRESETS` maps each preset name to its plan factory
and suite, :data:`SPEC_CHECKS` each spec check id to the spec fields it needs
and its runner, and the messages for unknown names and missing fields are
derived from them.  A suite returns its reports, plus the transformed system
when it has one.

Exit codes: 0 all conditions passed, 1 at least one condition failed,
2 invalid or degenerate input.  JSON output (--json) carries full precision;
the human-readable table rounds residuals to three significant digits.
NO_COLOR is respected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__, driftflux
from .errors import ParseError, WorkbenchError
from .exprs import const, fields_equal_numeric
from .geometry import AffinorField, ConnectionField, MetricField
from .operators import (
    LocalOperator,
    NonlocalOperator,
    check_ferapontov,
    check_local_hamiltonian,
    check_skew_adjoint,
)
from .parsing import parse_expr
from .reports import CheckReport, ConditionResult
from .sampling import SamplePlan
from .systems import (
    SIGN_BRIDGE_NOTE,
    ConservedCurrent,
    HydroSystem,
    build_reciprocal_system,
    check_change_of_variables,
    check_conserved_current,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


class SpecError(WorkbenchError):
    """Workbench spec file failed validation."""


# -- workbench spec files --------------------------------------------------------


def _parse_grid(raw, dim, depth, n_vars, what):
    if not isinstance(raw, list) or len(raw) != dim:
        raise SpecError(f"{what} must be a {'x'.join([str(dim)] * depth)} array")
    out = []
    for item in raw:
        if depth == 1:
            if not isinstance(item, str):
                raise SpecError(f"{what} entries must be expression strings")
            try:
                out.append(parse_expr(item, n_vars))
            except ParseError as err:
                raise SpecError(f"bad expression in {what}: {err}") from None
        else:
            out.append(_parse_grid(item, dim, depth - 1, n_vars, what))
    return tuple(out)


def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise SpecError(f"spec file is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise SpecError("spec file must contain a JSON object")
    if "dimension" not in raw:
        raise SpecError("spec is missing the required field 'dimension'")
    dim = raw["dimension"]
    if not isinstance(dim, int) or dim < 1:
        raise SpecError("'dimension' must be a positive integer")

    spec: dict = {"dimension": dim, "raw": raw}
    spec["variable_names"] = raw.get("variable_names")

    if "metric" in raw:
        spec["metric"] = MetricField(dim, _parse_grid(raw["metric"], dim, 2, dim, "metric"))
    if "b" in raw:
        spec["b"] = ConnectionField(dim, _parse_grid(raw["b"], dim, 3, dim, "b"))
    if "tails" in raw:
        tails = []
        if not isinstance(raw["tails"], list):
            raise SpecError("'tails' must be a list of {epsilon, matrix} objects")
        for t in raw["tails"]:
            if not isinstance(t, dict) or "epsilon" not in t or "matrix" not in t:
                raise SpecError("each tail needs 'epsilon' and 'matrix'")
            if t["epsilon"] not in (-1, 1):
                raise SpecError("tail 'epsilon' must be -1 or 1")
            tails.append(
                AffinorField(dim, t["epsilon"], _parse_grid(t["matrix"], dim, 2, dim, "tail matrix"))
            )
        spec["tails"] = tuple(tails)
    if "system" in raw:
        spec["system"] = HydroSystem(dim, _parse_grid(raw["system"], dim, 2, dim, "system"))
    if "currents" in raw:
        currents = []
        if not isinstance(raw["currents"], list):
            raise SpecError("'currents' must be a list of {rho, sigma} objects")
        for c in raw["currents"]:
            if not isinstance(c, dict) or "rho" not in c or "sigma" not in c:
                raise SpecError("each current needs 'rho' and 'sigma'")
            try:
                currents.append(
                    ConservedCurrent(parse_expr(c["rho"], dim), parse_expr(c["sigma"], dim))
                )
            except ParseError as err:
                raise SpecError(f"bad expression in currents: {err}") from None
        spec["currents"] = tuple(currents)

    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise SpecError("'checks' must be a list of check ids")
    for cid in checks:
        if cid not in SPEC_CHECKS:
            raise SpecError(f"unknown check id {cid!r}; known: {', '.join(SPEC_CHECKS)}")
    spec["checks"] = checks
    spec["sample_plan"] = raw.get("sample_plan", {})
    return spec


def build_plan(spec: dict, args, default_box=None) -> SamplePlan:
    dim = spec["dimension"]
    plan_raw = spec.get("sample_plan", {}) or {}
    box = plan_raw.get("box", default_box)
    if box is None:
        box = [[-1.0, 1.0]] * dim
    if len(box) != dim:
        raise SpecError("sample_plan box must supply one interval per variable")
    count = plan_raw.get("count", 100)
    seed = plan_raw.get("seed", 0)
    tolerance = plan_raw.get("tolerance", 1e-9)
    floor = plan_raw.get("floor", 1e-12)
    if getattr(args, "samples", None) is not None:
        count = args.samples
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if getattr(args, "tol", None) is not None:
        tolerance = args.tol
    try:
        return SamplePlan(
            dim=dim,
            box=tuple(tuple(float(x) for x in b) for b in box),
            count=count,
            seed=seed,
            tolerance=tolerance,
            floor=floor,
        )
    except (TypeError, ValueError) as err:
        raise SpecError(f"bad sample plan: {err}") from None


def _current_reports(system: HydroSystem, currents, plan: SamplePlan) -> list[CheckReport]:
    reports = []
    for i, c in enumerate(currents, 1):
        rep = check_conserved_current(system, c, plan)
        rep.title = f"conserved current {i}"
        reports.append(rep)
    return reports


def _spec_operator(spec: dict) -> LocalOperator:
    return LocalOperator(spec["dimension"], spec["metric"], spec["b"])


# check id -> (the spec fields it needs, runner(spec, plan) -> reports); the
# runners look the checks up when called, so a rebound check is the one run
SPEC_CHECKS = {
    "skew_adjoint": (("metric", "b"), lambda spec, plan: [
        check_skew_adjoint(_spec_operator(spec), plan)]),
    "local_hamiltonian": (("metric", "b"), lambda spec, plan: [
        check_local_hamiltonian(_spec_operator(spec), plan)]),
    "ferapontov": (("metric", "b"), lambda spec, plan: [
        check_ferapontov(NonlocalOperator(_spec_operator(spec), spec.get("tails", ())), plan)]),
    "conserved_currents": (("system", "currents"), lambda spec, plan: _current_reports(
        spec["system"], spec["currents"], plan)),
}


# -- output -------------------------------------------------------------------------


def _use_color(args) -> bool:
    return (
        not args.json
        and sys.stdout.isatty()
        and not os.environ.get("NO_COLOR")
    )


def emit(reports: list[CheckReport], args, spec_echo: dict, started: float,
         extra_lines: list[str] | None = None, extra_data: dict | None = None) -> int:
    overall = all(r.passed for r in reports)
    if args.json:
        doc = {
            "tool": "hydroham",
            "version": __version__,
            "spec": spec_echo,
            "checks": [r.to_dict() for r in reports],
            "overall": "pass" if overall else "fail",
            "wall_time_s": round(time.perf_counter() - started, 6),
        }
        if extra_data:
            doc.update(extra_data)
        print(json.dumps(doc, indent=2))
    else:
        color = _use_color(args)
        for line in extra_lines or []:
            print(line)
        for r in reports:
            print(r.format_table(color=color))
        print(f"overall: {'PASS' if overall else 'FAIL'}")
    return EXIT_PASS if overall else EXIT_FAIL


# -- subcommands ----------------------------------------------------------------------


def cmd_check(args) -> int:
    started = time.perf_counter()
    spec = load_spec(args.spec)
    if not spec["checks"]:
        raise SpecError("spec requests no checks")
    plan = build_plan(spec, args)
    reports = []
    for cid in spec["checks"]:
        fields, run = SPEC_CHECKS[cid]
        if any(f not in spec for f in fields):
            raise SpecError(f"check {cid!r} needs {' and '.join(map(repr, fields))}")
        reports += run(spec, plan)
    echo = dict(spec["raw"])
    echo["sample_plan"] = plan.echo()
    return emit(reports, args, echo, started)


def _parse_theta(text: str, what: str = "theta"):
    try:
        return parse_expr(text, 3)
    except ParseError as err:
        raise SpecError(f"bad {what} expression: {err}") from None


def _arg_expr(args, name: str, default):
    """The expression in r3 given by option ``name``, else ``default``."""
    text = getattr(args, name)
    return _parse_theta(text, name) if text else default


def _parse_triple(text: str, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise SpecError(f"{what} must be three comma-separated numbers")
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as err:
        raise SpecError(f"bad {what}: {err}") from None


def _block_from_args(args) -> driftflux.ConstantBlock:
    default = driftflux.DEFAULT_BLOCK
    return driftflux.ConstantBlock(
        c=_parse_triple(args.c, "--c") if args.c else default.c,
        b1=_parse_triple(args.b1, "--b1") if args.b1 else default.b1,
        b2=_parse_triple(args.b2, "--b2") if args.b2 else default.b2,
        b3=_parse_triple(args.b3, "--b3") if args.b3 else default.b3,
    )


def _condition_report(title: str, plan: SamplePlan, triples) -> CheckReport:
    """Assemble a report from (cid, description, passed, residual) tuples."""
    conditions = [
        ConditionResult(cid=cid, description=desc, residual=res,
                        witness=None, passed=ok)
        for cid, desc, ok, res in triples
    ]
    return CheckReport(title=title, conditions=conditions, plan=plan)


# -- preset suites: (args, plan) -> (reports, the transformed system or None) ------


def _local_suite(op: LocalOperator, plan: SamplePlan):
    return [check_skew_adjoint(op, plan), check_local_hamiltonian(op, plan)], None


def _hat_suite(build, args, plan: SamplePlan):
    op = build(_arg_expr(args, "theta", driftflux.DEFAULT_THETA),
               _arg_expr(args, "lambda1", driftflux.DEFAULT_LAMBDA1),
               _arg_expr(args, "lambda2", driftflux.DEFAULT_LAMBDA2),
               _block_from_args(args))
    return [check_ferapontov(op, plan)], None


def _remark_reports(args, plan: SamplePlan) -> list[CheckReport]:
    ops = driftflux.build_remark_operators(_arg_expr(args, "theta", const(1)))
    reports = []
    for i, op in enumerate(ops, 1):
        rep = check_local_hamiltonian(op, plan)
        rep.title = f"transformed operator {i}: local Hamiltonian"
        reports.append(rep)
    return reports


def _s0_suite(args, plan: SamplePlan):
    rho = parse_expr("exp(r1-r2)", 2)
    sigma = parse_expr("(r1+r2)*exp(r1-r2)", 2)
    system = driftflux.build_system_S0()
    return [check_conserved_current(system, ConservedCurrent(rho, sigma), plan)], None


def _s_tilde_suite(args, plan: SamplePlan):
    rep = check_change_of_variables(
        driftflux.build_system_S_tilde(), driftflux.build_system_S(),
        driftflux.riemann_map(), plan
    )
    rep.title = "diagonalization by Riemann invariants"
    return [rep], None


def _kg_family_suite(args, plan: SamplePlan):
    k = Fraction(args.k) if args.k else Fraction(1)
    triples = []
    for kk in (1, 2, 3):
        rep = driftflux.kg_residual(driftflux.kg_family_v(kk), plan)
        triples.append(
            (f"v_k solves (k={kk})", "derived family solves the wave identity",
             rep.passed, rep.conditions[0].residual)
        )
    rep = driftflux.kg_residual(driftflux.kg_family_u(k), plan)
    triples.append(
        (f"u_k solves (k={k})", "exponential family solves the wave identity",
         rep.passed, rep.conditions[0].residual)
    )
    if k != 0:
        neg = driftflux.kg_residual(driftflux.kg_family_u_half_r1(k), plan)
        res = neg.conditions[0].residual
        triples.append(
            (f"half-exponent variant fails (k={k})",
             "negative control: halved r1 coefficient breaks the identity",
             (not neg.passed) and res >= 1e-2, res)
        )
    jrep = fields_equal_numeric(
        const(1 - 2 * k) * driftflux.kg_characteristic_J(driftflux.kg_family_u(k)),
        driftflux.kg_family_v(k),
        plan,
    )
    triples.append(
        (f"(1-2k) J[u_k] = v_k (k={k})", "symmetry characteristic maps u to v",
         jrep.passed, jrep.conditions[0].residual)
    )
    return [_condition_report("wave-equation families", plan, triples)], None


def _constraints_suite(args, plan: SamplePlan):
    ansatz = driftflux.default_ansatz(_block_from_args(args))
    reports = [
        driftflux.constraint_residuals(ansatz, eq, plan)
        for eq in ("eq4a", "eq4b", "eq4c")
    ]
    reports.append(driftflux.constraint_residuals(ansatz, "eq5", plan, omega=const(0)))
    return reports, None


def _reciprocal_remark_suite(args, plan: SamplePlan):
    system = driftflux.build_system_S()
    c1, c2 = driftflux.remark_currents()
    reports = _current_reports(system, (c1, c2), plan)
    transformed = build_reciprocal_system(system, c1, c2, plan)  # currents checked above
    expected = (
        parse_expr("-exp(r1-r2)", 3),
        parse_expr("exp(r1-r2)", 3),
        parse_expr("0", 3),
    )
    for i in range(3):
        rep = fields_equal_numeric(transformed.v[i][i], expected[i], plan)
        rep.title = f"transformed speed {i + 1} matches -e^{{r1-r2}}, e^{{r1-r2}}, 0"
        rep.notes.append(SIGN_BRIDGE_NOTE)
        reports.append(rep)
    return reports + _remark_reports(args, plan), transformed


# preset name -> (the driftflux plan factory, suite); the factory by name and
# the builders inside lambdas are looked up when called, so a rebound one is
# the one run
PRESETS = {
    "h1": ("plane_plan", lambda args, plan: _local_suite(driftflux.build_nutku(1), plan)),
    "h2": ("plane_plan", lambda args, plan: _local_suite(driftflux.build_nutku(2), plan)),
    "h3": ("plane_plan", lambda args, plan: _local_suite(driftflux.build_nutku(3), plan)),
    "h1-theta": ("drift_plan", lambda args, plan: _local_suite(
        driftflux.build_H1_Theta(_arg_expr(args, "theta", const(1))), plan)),
    "h2-hat": ("drift_plan", lambda args, plan: _hat_suite(driftflux.build_H2_hat, args, plan)),
    "h3-hat": ("drift_plan", lambda args, plan: _hat_suite(driftflux.build_H3_hat, args, plan)),
    "remark-ops": ("drift_plan", lambda args, plan: (_remark_reports(args, plan), None)),
    "s": ("drift_plan", lambda args, plan: (_current_reports(
        driftflux.build_system_S(), driftflux.remark_currents(), plan), None)),
    "s0": ("plane_plan", _s0_suite),
    "s-tilde": ("physical_plan", _s_tilde_suite),
    "kg-family": ("plane_plan", _kg_family_suite),
    "constraints": ("drift_plan", _constraints_suite),
    "reciprocal-remark": ("drift_plan", _reciprocal_remark_suite),
}


def _transformed_speeds(system: HydroSystem, plan: SamplePlan):
    """(table lines, JSON data) of the transformed speed matrix at the first
    plan points, each point drawn and evaluated once for both formats."""
    grid = [(p, system.speeds(p)) for p in (plan.point(i) for i in range(min(4, plan.count)))]
    lines = ["transformed speed matrix v~ (u_t = v~ u_x) on sample points:"]
    for p, v in grid:
        pt = ", ".join(f"{x:.4f}" for x in p)
        rows = "; ".join(
            "[" + ", ".join(f"{x: .6e}" for x in row) + "]" for row in v
        )
        lines.append(f"  at ({pt}): {rows}")
    data = [{"point": [float(x) for x in p], "v": [[float(x) for x in row] for row in v]}
            for p, v in grid]
    return lines, {"transformed_speeds": data}


def cmd_preset(args) -> int:
    started = time.perf_counter()
    if args.name not in PRESETS:
        raise SpecError(f"unknown preset {args.name!r}; available: {' '.join(PRESETS)}")
    factory, suite = PRESETS[args.name]
    count = args.samples if args.samples is not None else 100
    seed = args.seed if args.seed is not None else driftflux.DEFAULT_SEED
    tol = args.tol if args.tol is not None else 1e-9
    plan = getattr(driftflux, factory)(count=count, seed=seed, tolerance=tol)
    reports, transformed = suite(args, plan)
    lines, data = [], None
    if transformed is not None:
        lines, data = _transformed_speeds(transformed, plan)
    echo = {"preset": args.name,
            "params": {k: v for k, v in vars(args).items()
                       if k in ("theta", "lambda1", "lambda2", "c", "b1", "b2", "b3", "k")
                       and v is not None},
            "sample_plan": plan.echo()}
    return emit(reports, args, echo, started, extra_lines=lines, extra_data=data)


def cmd_reciprocal(args) -> int:
    started = time.perf_counter()
    spec = load_spec(args.spec)
    if "system" not in spec:
        raise SpecError("reciprocal needs a 'system' in the spec file")
    currents = spec.get("currents", ())
    if len(currents) != 2:
        raise SpecError("reciprocal needs exactly two currents")
    plan = build_plan(spec, args)
    system = spec["system"]
    reports = _current_reports(system, currents, plan)
    echo = dict(spec["raw"])
    echo["sample_plan"] = plan.echo()
    if not all(r.passed for r in reports):
        return emit(reports, args, echo, started,
                    extra_lines=["currents are not conserved; not transforming"])
    transformed = build_reciprocal_system(system, currents[0], currents[1], plan)
    for rep in reports:
        rep.notes.append(SIGN_BRIDGE_NOTE)
    lines, data = _transformed_speeds(transformed, plan)
    if "candidate_operators" in spec["raw"]:
        for i, cand in enumerate(spec["raw"]["candidate_operators"], 1):
            dim = spec["dimension"]
            g = MetricField(dim, _parse_grid(cand["metric"], dim, 2, dim, "candidate metric"))
            b = ConnectionField(dim, _parse_grid(cand["b"], dim, 3, dim, "candidate b"))
            rep = check_local_hamiltonian(LocalOperator(dim, g, b), plan)
            rep.title = f"candidate operator {i}: local Hamiltonian"
            reports.append(rep)
    return emit(reports, args, echo, started, extra_lines=lines, extra_data=data)


# -- entry point -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydroham",
        description="verification workbench for hydrodynamic-type Hamiltonian operators",
    )
    parser.add_argument("--version", action="version", version=f"hydroham {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--samples", type=int, default=None, help="sample point count")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument("--tol", type=float, default=None, help="relative tolerance")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p_check = sub.add_parser("check", help="run checks from a workbench spec file")
    p_check.add_argument("spec")
    common(p_check)

    p_preset = sub.add_parser("preset", help="run a shipped preset suite")
    p_preset.add_argument("name")
    p_preset.add_argument("--theta", default=None, help="expression in r3")
    p_preset.add_argument("--lambda1", default=None, help="expression in r3")
    p_preset.add_argument("--lambda2", default=None, help="expression in r3")
    p_preset.add_argument("--c", default=None, help="three constants, comma separated")
    p_preset.add_argument("--b1", default=None, help="three constants, comma separated")
    p_preset.add_argument("--b2", default=None, help="three constants, comma separated")
    p_preset.add_argument("--b3", default=None, help="three constants, comma separated")
    p_preset.add_argument("--k", default=None, help="rational parameter of the families")
    common(p_preset)

    p_rec = sub.add_parser("reciprocal", help="transform a system by two conserved currents")
    p_rec.add_argument("spec")
    common(p_rec)
    return parser


_PARSER = build_parser()


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed command line (argparse exits with code 2 on bad usage)."""
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # the subcommands are looked up when called, so a rebound cmd_* is the one run
    command = {"check": cmd_check, "preset": cmd_preset, "reciprocal": cmd_reciprocal}
    try:
        return command[args.command](args)
    except WorkbenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
