"""Command-line front end.

Three subcommands:

    check <spec.json>        run the checks requested by a workbench spec file
    preset <name>            materialize a shipped preset and run its suite
    reciprocal <spec.json>   transform a system by two conserved currents

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
    check_conserved_current,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2

KNOWN_CHECKS = ("skew_adjoint", "local_hamiltonian", "ferapontov", "conserved_currents")


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
        if cid not in KNOWN_CHECKS:
            raise SpecError(f"unknown check id {cid!r}; known: {', '.join(KNOWN_CHECKS)}")
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


def run_spec_checks(spec: dict, plan: SamplePlan) -> list[CheckReport]:
    reports = []
    for cid in spec["checks"]:
        if cid == "skew_adjoint":
            if "metric" not in spec or "b" not in spec:
                raise SpecError("check 'skew_adjoint' needs 'metric' and 'b'")
            op = LocalOperator(spec["dimension"], spec["metric"], spec["b"])
            reports.append(check_skew_adjoint(op, plan))
        elif cid == "local_hamiltonian":
            if "metric" not in spec or "b" not in spec:
                raise SpecError("check 'local_hamiltonian' needs 'metric' and 'b'")
            op = LocalOperator(spec["dimension"], spec["metric"], spec["b"])
            reports.append(check_local_hamiltonian(op, plan))
        elif cid == "ferapontov":
            if "metric" not in spec or "b" not in spec:
                raise SpecError("check 'ferapontov' needs 'metric' and 'b'")
            op = NonlocalOperator(
                LocalOperator(spec["dimension"], spec["metric"], spec["b"]),
                spec.get("tails", ()),
            )
            reports.append(check_ferapontov(op, plan))
        elif cid == "conserved_currents":
            if "system" not in spec or "currents" not in spec:
                raise SpecError("check 'conserved_currents' needs 'system' and 'currents'")
            for i, c in enumerate(spec["currents"], 1):
                rep = check_conserved_current(spec["system"], c, plan)
                rep.title = f"conserved current {i}"
                reports.append(rep)
    return reports


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
    reports = run_spec_checks(spec, plan)
    echo = dict(spec["raw"])
    echo["sample_plan"] = plan.echo()
    return emit(reports, args, echo, started)


def _parse_theta(text: str, what: str = "theta"):
    try:
        return parse_expr(text, 3)
    except ParseError as err:
        raise SpecError(f"bad {what} expression: {err}") from None


def _parse_triple(text: str, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise SpecError(f"{what} must be three comma-separated numbers")
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as err:
        raise SpecError(f"bad {what}: {err}") from None


def _preset_plan(args, factory, **kw) -> SamplePlan:
    count = args.samples if args.samples is not None else 100
    seed = args.seed if args.seed is not None else driftflux.DEFAULT_SEED
    tol = args.tol if args.tol is not None else 1e-9
    return factory(count=count, seed=seed, tolerance=tol, **kw)


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


def run_preset(name: str, args):
    """Returns (reports, extra_lines, extra_data)."""
    lines: list[str] = []
    data: dict = {}

    if name in ("h1", "h2", "h3"):
        k = int(name[1])
        plan = _preset_plan(args, driftflux.plane_plan)
        op = driftflux.build_nutku(k)
        return [check_skew_adjoint(op, plan), check_local_hamiltonian(op, plan)], lines, data

    if name == "h1-theta":
        theta = _parse_theta(args.theta) if args.theta else const(1)
        plan = _preset_plan(args, driftflux.drift_plan)
        op = driftflux.build_H1_Theta(theta)
        return [check_skew_adjoint(op, plan), check_local_hamiltonian(op, plan)], lines, data

    if name in ("h2-hat", "h3-hat"):
        theta = _parse_theta(args.theta) if args.theta else driftflux.DEFAULT_THETA
        lam1 = _parse_theta(args.lambda1, "lambda1") if args.lambda1 else driftflux.DEFAULT_LAMBDA1
        lam2 = _parse_theta(args.lambda2, "lambda2") if args.lambda2 else driftflux.DEFAULT_LAMBDA2
        block = _block_from_args(args)
        build = driftflux.build_H2_hat if name == "h2-hat" else driftflux.build_H3_hat
        op = build(theta, lam1, lam2, block)
        plan = _preset_plan(args, driftflux.drift_plan)
        return [check_ferapontov(op, plan)], lines, data

    if name == "remark-ops":
        theta = _parse_theta(args.theta) if args.theta else const(1)
        plan = _preset_plan(args, driftflux.drift_plan)
        reports = []
        for i, op in enumerate(driftflux.build_remark_operators(theta), 1):
            rep = check_local_hamiltonian(op, plan)
            rep.title = f"transformed operator {i}: local Hamiltonian"
            reports.append(rep)
        return reports, lines, data

    if name == "s":
        plan = _preset_plan(args, driftflux.drift_plan)
        system = driftflux.build_system_S()
        c1, c2 = driftflux.remark_currents()
        reports = []
        for i, c in enumerate((c1, c2), 1):
            rep = check_conserved_current(system, c, plan)
            rep.title = f"conserved current {i}"
            reports.append(rep)
        return reports, lines, data

    if name == "s0":
        plan = _preset_plan(args, driftflux.plane_plan)
        system = driftflux.build_system_S0()
        rho = parse_expr("exp(r1-r2)", 2)
        sigma = parse_expr("(r1+r2)*exp(r1-r2)", 2)
        rep = check_conserved_current(system, ConservedCurrent(rho, sigma), plan)
        return [rep], lines, data

    if name == "s-tilde":
        plan = _preset_plan(args, driftflux.physical_plan)
        from .systems import check_change_of_variables

        rep = check_change_of_variables(
            driftflux.build_system_S_tilde(), driftflux.build_system_S(),
            driftflux.riemann_map(), plan
        )
        rep.title = "diagonalization by Riemann invariants"
        return [rep], lines, data

    if name == "kg-family":
        k = Fraction(args.k) if args.k else Fraction(1)
        plan = _preset_plan(args, driftflux.plane_plan)
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
        return [_condition_report("wave-equation families", plan, triples)], lines, data

    if name == "constraints":
        plan = _preset_plan(args, driftflux.drift_plan)
        ansatz = driftflux.default_ansatz(_block_from_args(args))
        reports = [
            driftflux.constraint_residuals(ansatz, eq, plan)
            for eq in ("eq4a", "eq4b", "eq4c")
        ]
        reports.append(driftflux.constraint_residuals(ansatz, "eq5", plan, omega=const(0)))
        return reports, lines, data

    if name == "reciprocal-remark":
        plan = _preset_plan(args, driftflux.drift_plan)
        system = driftflux.build_system_S()
        c1, c2 = driftflux.remark_currents()
        reports = []
        for i, c in enumerate((c1, c2), 1):
            rep = check_conserved_current(system, c, plan)
            rep.title = f"conserved current {i}"
            reports.append(rep)
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
        theta = _parse_theta(args.theta) if args.theta else const(1)
        for i, op in enumerate(driftflux.build_remark_operators(theta), 1):
            rep = check_local_hamiltonian(op, plan)
            rep.title = f"transformed operator {i}: local Hamiltonian"
            reports.append(rep)
        lines.extend(_speed_grid_lines(transformed, plan))
        data["transformed_speeds"] = _speed_grid_data(transformed, plan)
        return reports, lines, data

    raise SpecError(
        f"unknown preset {name!r}; available: h1 h2 h3 h1-theta h2-hat h3-hat "
        "remark-ops s s0 s-tilde kg-family constraints reciprocal-remark"
    )


def _speed_grid_points(plan: SamplePlan):
    return [plan.point(i) for i in range(min(4, plan.count))]


def _speed_grid_lines(system: HydroSystem, plan: SamplePlan) -> list[str]:
    lines = ["transformed speed matrix v~ (u_t = v~ u_x) on sample points:"]
    for p in _speed_grid_points(plan):
        v = system.speeds(p)
        pt = ", ".join(f"{x:.4f}" for x in p)
        rows = "; ".join(
            "[" + ", ".join(f"{x: .6e}" for x in row) + "]" for row in v
        )
        lines.append(f"  at ({pt}): {rows}")
    return lines


def _speed_grid_data(system: HydroSystem, plan: SamplePlan) -> list[dict]:
    out = []
    for p in _speed_grid_points(plan):
        out.append({"point": [float(x) for x in p],
                    "v": [[float(x) for x in row] for row in system.speeds(p)]})
    return out


def cmd_preset(args) -> int:
    started = time.perf_counter()
    reports, lines, data = run_preset(args.name, args)
    echo = {"preset": args.name,
            "params": {k: v for k, v in vars(args).items()
                       if k in ("theta", "lambda1", "lambda2", "c", "b1", "b2", "b3", "k")
                       and v is not None},
            "sample_plan": reports[0].plan.echo() if reports else None}
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
    reports = []
    for i, c in enumerate(currents, 1):
        rep = check_conserved_current(system, c, plan)
        rep.title = f"conserved current {i}"
        reports.append(rep)
    if not all(r.passed for r in reports):
        echo = dict(spec["raw"])
        echo["sample_plan"] = plan.echo()
        emit(reports, args, echo, started,
             extra_lines=["currents are not conserved; not transforming"])
        return EXIT_FAIL
    transformed = build_reciprocal_system(system, currents[0], currents[1], plan)
    for rep in reports:
        rep.notes.append(SIGN_BRIDGE_NOTE)
    lines = _speed_grid_lines(transformed, plan)
    data = {"transformed_speeds": _speed_grid_data(transformed, plan)}
    if "candidate_operators" in spec["raw"]:
        for i, cand in enumerate(spec["raw"]["candidate_operators"], 1):
            dim = spec["dimension"]
            g = MetricField(dim, _parse_grid(cand["metric"], dim, 2, dim, "candidate metric"))
            b = ConnectionField(dim, _parse_grid(cand["b"], dim, 3, dim, "candidate b"))
            rep = check_local_hamiltonian(LocalOperator(dim, g, b), plan)
            rep.title = f"candidate operator {i}: local Hamiltonian"
            reports.append(rep)
    echo = dict(spec["raw"])
    echo["sample_plan"] = plan.echo()
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
    p_check.set_defaults(func=cmd_check)

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
    p_preset.set_defaults(func=cmd_preset)

    p_rec = sub.add_parser("reciprocal", help="transform a system by two conserved currents")
    p_rec.add_argument("spec")
    common(p_rec)
    p_rec.set_defaults(func=cmd_reciprocal)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed command line (argparse exits with code 2 on bad usage)."""
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except WorkbenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
