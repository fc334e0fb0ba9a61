"""Command-line front end.

Three subcommands:

    check <spec.json>        run the checks requested by a workbench spec file
    preset <name>            materialize a shipped preset and run its suite
    reciprocal <spec.json>   transform a system by two conserved currents

Dispatch is data: :data:`PRESETS` maps each preset name to its plan factory,
the options it reads (help and parser in :data:`PRESET_OPTIONS`) and suite,
:data:`SPEC_CHECKS` each spec check id to the spec fields it needs and its
runner, and the messages for unknown names, options and missing fields come
from them.  A suite returns its reports, plus any transformed system.

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
from dataclasses import replace
from functools import partial
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
from .sampling import (DEFAULT_COUNT, DEFAULT_FLOOR, DEFAULT_TOLERANCE, REDRAW_DOMAIN,
                       SamplePlan, resolve)
from .systems import (
    SIGN_BRIDGE_NOTE,
    ConservedCurrent,
    HydroSystem,
    build_reciprocal_system,
    check_change_of_variables,
    check_conserved_current,
    speed_values,
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
    if not _is_int(dim) or dim < 1:
        raise SpecError("'dimension' must be a positive integer")

    names = raw.get("variable_names")
    if names is not None and not (isinstance(names, list) and len(names) == dim
                                  and all(isinstance(x, str) for x in names)):
        raise SpecError(f"'variable_names' must be a list of {dim} strings")
    spec: dict = {"dimension": dim, "raw": raw}

    if "metric" in raw:
        spec["metric"] = MetricField(dim, _parse_grid(raw["metric"], dim, 2, dim, "metric"))
    if "b" in raw:
        spec["b"] = ConnectionField(dim, _parse_grid(raw["b"], dim, 3, dim, "b"))
    if "metric" in spec and "b" in spec:  # one operator, so its tapes compile once per spec
        spec["operator"] = LocalOperator(dim, spec["metric"], spec["b"])
    if "tails" in raw:
        tails = []
        if not isinstance(raw["tails"], list):
            raise SpecError("'tails' must be a list of {epsilon, matrix} objects")
        for t in raw["tails"]:
            if not isinstance(t, dict) or "epsilon" not in t or "matrix" not in t:
                raise SpecError("each tail needs 'epsilon' and 'matrix'")
            if not _is_int(t["epsilon"]) or t["epsilon"] not in (-1, 1):
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
            if not isinstance(c, dict) or not all(isinstance(c.get(k), str)
                                                  for k in ("rho", "sigma")):
                raise SpecError("each current needs 'rho' and 'sigma' expression strings")
            try:
                currents.append(
                    ConservedCurrent(parse_expr(c["rho"], dim), parse_expr(c["sigma"], dim))
                )
            except ParseError as err:
                raise SpecError(f"bad expression in currents: {err}") from None
        spec["currents"] = tuple(currents)
    if "candidate_operators" in raw:
        candidates = raw["candidate_operators"]
        if not isinstance(candidates, list) or not all(
                isinstance(c, dict) and "metric" in c and "b" in c for c in candidates):
            raise SpecError("'candidate_operators' must be a list of {metric, b} objects")
        spec["candidate_operators"] = tuple(
            LocalOperator(dim,
                          MetricField(dim, _parse_grid(c["metric"], dim, 2, dim, "candidate metric")),
                          ConnectionField(dim, _parse_grid(c["b"], dim, 3, dim, "candidate b")))
            for c in candidates)

    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise SpecError("'checks' must be a list of check ids")
    for cid in checks:
        if not isinstance(cid, str) or cid not in SPEC_CHECKS:
            raise SpecError(f"unknown check id {cid!r}; known: {', '.join(SPEC_CHECKS)}")
    spec["checks"] = checks
    plan = raw.get("sample_plan")
    if plan is None:
        plan = {}
    if not isinstance(plan, dict):
        raise SpecError("'sample_plan' must be a JSON object")
    box = plan.get("box")
    if box is not None and not (isinstance(box, list) and len(box) == dim and all(
            isinstance(b, list) and len(b) == 2 for b in box)):
        raise SpecError("sample_plan box must supply one [lo, hi] interval per variable")
    spec["sample_plan"] = plan
    return spec


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def build_plan(spec: dict, args) -> SamplePlan:
    dim = spec["dimension"]
    plan_raw = spec["sample_plan"]
    box = plan_raw.get("box", [[-1.0, 1.0]] * dim)
    count = plan_raw.get("count", DEFAULT_COUNT)
    seed = plan_raw.get("seed", 0)
    tolerance = plan_raw.get("tolerance", DEFAULT_TOLERANCE)
    floor = plan_raw.get("floor", DEFAULT_FLOOR)
    if getattr(args, "samples", None) is not None:
        count = args.samples
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if getattr(args, "tol", None) is not None:
        tolerance = args.tol
    try:
        return SamplePlan(
            dim=dim,
            box=tuple(tuple(_box_bound(x) for x in b) for b in box),
            count=count,
            seed=seed,
            tolerance=tolerance,
            floor=floor,
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"bad sample plan: {err}") from None


def _box_bound(x) -> float:
    """A spec box bound as a float; ValueError unless it is a JSON number (a
    bool or a numeric string is not)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"box bound must be a number, got {x!r}")
    return float(x)


def _numbered(title: str, reports) -> list[CheckReport]:
    """The reports, report i (from 1) titled ``title.format(i)``."""
    reports = list(reports)
    for i, rep in enumerate(reports, 1):
        rep.title = title.format(i)
    return reports


def _current_reports(system: HydroSystem, currents, plan: SamplePlan) -> list[CheckReport]:
    return _numbered("conserved current {}",
                     (check_conserved_current(system, c, plan) for c in currents))


# check id -> (the spec fields it needs, runner(spec, plan) -> reports); the
# runners look the checks up when called, so a rebound check is the one run
SPEC_CHECKS = {
    "skew_adjoint": (("metric", "b"), lambda spec, plan: [
        check_skew_adjoint(spec["operator"], plan)]),
    "local_hamiltonian": (("metric", "b"), lambda spec, plan: [
        check_local_hamiltonian(spec["operator"], plan)]),
    "ferapontov": (("metric", "b"), lambda spec, plan: [
        check_ferapontov(NonlocalOperator(spec["operator"], spec.get("tails", ())), plan)]),
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
    echo = {**spec["raw"], "sample_plan": plan.echo()}
    return emit(reports, args, echo, started)


def _expression(name: str, text: str):
    """The expression in r3 given by option ``name``."""
    try:
        return parse_expr(text, 3)
    except ParseError as err:
        raise SpecError(f"bad --{name} expression: {err}") from None


def _numbers(count: int, name: str, text: str) -> tuple:
    """The ``count`` comma-separated rationals option ``name`` gives, each a finite double."""
    try:
        values = tuple(Fraction(p.strip()) for p in text.split(","))
    except (ValueError, ZeroDivisionError) as err:
        raise SpecError(f"bad --{name} {text!r}: {err}") from None
    if len(values) != count or max(map(abs, values)) > sys.float_info.max:
        raise SpecError(f"--{name} must be {count} finite number"
                        + ("s, comma separated" if count > 1 else "") + f", got {text!r}")
    return values


_BLOCK = ("c", "b1", "b2", "b3")
# preset option -> (help text, parser(option, text) -> value)
PRESET_OPTIONS = {
    **dict.fromkeys(("theta", "lambda1", "lambda2"), ("expression in r3", _expression)),
    **dict.fromkeys(_BLOCK, ("three constants, comma separated", partial(_numbers, 3))),
    "k": ("rational parameter of the families", partial(_numbers, 1)),
}


def _block(opts: dict) -> driftflux.ConstantBlock:
    """The default constant block with the rows the options give."""
    return replace(driftflux.DEFAULT_BLOCK, **{n: opts[n] for n in _BLOCK if n in opts})


# -- preset suites: (options, plan) -> (reports, the transformed system or None) ---


def _local_suite(op: LocalOperator, plan: SamplePlan):
    return [check_skew_adjoint(op, plan), check_local_hamiltonian(op, plan)], None


def _hat_suite(build: str, opts: dict, plan: SamplePlan):
    op = getattr(driftflux, build)(
        opts.get("theta", driftflux.DEFAULT_THETA), opts.get("lambda1", driftflux.DEFAULT_LAMBDA1),
        opts.get("lambda2", driftflux.DEFAULT_LAMBDA2), _block(opts))
    return [check_ferapontov(op, plan)], None


def _remark_reports(opts: dict, plan: SamplePlan) -> list[CheckReport]:
    ops = driftflux.build_remark_operators(opts.get("theta", const(1)))
    return _numbered("transformed operator {}: local Hamiltonian",
                     (check_local_hamiltonian(op, plan) for op in ops))


def _s0_suite(opts: dict, plan: SamplePlan):
    current = driftflux.remark_currents()[1]
    return [check_conserved_current(driftflux.build_system_S0(), current, plan)], None


def _s_tilde_suite(opts: dict, plan: SamplePlan):
    rep = check_change_of_variables(
        driftflux.build_system_S_tilde(), driftflux.build_system_S(),
        driftflux.riemann_map(), plan
    )
    rep.title = "diagonalization by Riemann invariants"
    return [rep], None


def _kg_family_suite(opts: dict, plan: SamplePlan):
    (k,) = opts.get("k", (Fraction(1),))

    def row(cid: str, description: str, rep: CheckReport, passed=None) -> ConditionResult:
        """A one-condition report as a row: its residual, no witness, and its
        verdict unless ``passed`` is given."""
        return replace(rep.conditions[0], cid=cid, description=description, witness=None,
                       note=None, passed=rep.passed if passed is None else passed)

    conditions = [row(f"v_k solves (k={kk})", "derived family solves the wave identity",
                      driftflux.kg_residual(driftflux.kg_family_v(kk), plan)) for kk in (1, 2, 3)]
    conditions.append(row(f"u_k solves (k={k})", "exponential family solves the wave identity",
                          driftflux.kg_residual(driftflux.kg_family_u(k), plan)))
    if k != 0:
        neg = driftflux.kg_residual(driftflux.kg_family_u_half_r1(k), plan)
        conditions.append(row(f"half-exponent variant fails (k={k})",
                              "negative control: halved r1 coefficient breaks the identity",
                              neg, not neg.passed))
    jrep = fields_equal_numeric(
        const(1 - 2 * k) * driftflux.kg_characteristic_J(driftflux.kg_family_u(k)),
        driftflux.kg_family_v(k),
        plan,
    )
    conditions.append(row(f"(1-2k) J[u_k] = v_k (k={k})", "symmetry characteristic maps u to v",
                          jrep))
    return [CheckReport(title="wave-equation families", conditions=conditions, plan=plan)], None


def _constraints_suite(opts: dict, plan: SamplePlan):
    ansatz = driftflux.default_ansatz(_block(opts))
    reports = [
        driftflux.constraint_residuals(ansatz, eq, plan)
        for eq in ("eq4a", "eq4b", "eq4c")
    ]
    reports.append(driftflux.constraint_residuals(ansatz, "eq5", plan, omega=const(0)))
    return reports, None


def _reciprocal_remark_suite(opts: dict, plan: SamplePlan):
    system = driftflux.build_system_S()
    c1, c2 = driftflux.remark_currents()
    reports = _current_reports(system, (c1, c2), plan)
    transformed = build_reciprocal_system(system, c1, c2, plan)  # currents checked above
    expected = (-c2.rho, c2.rho, const(0))  # -e^{r1-r2}, e^{r1-r2}, 0
    for i in range(3):
        rep = fields_equal_numeric(transformed.v[i][i], expected[i], plan)
        rep.title = f"transformed speed {i + 1} matches -e^{{r1-r2}}, e^{{r1-r2}}, 0"
        rep.notes.append(SIGN_BRIDGE_NOTE)
        reports.append(rep)
    return reports + _remark_reports(opts, plan), transformed


_HAT = ("theta", "lambda1", "lambda2", *_BLOCK)
# preset name -> (the driftflux plan factory, the options its suite reads,
# suite); the factory and the builders, by name or inside lambdas, are looked
# up when called, so a rebound one is the one run
PRESETS = {
    "h1": ("plane_plan", (), lambda opts, plan: _local_suite(driftflux.build_nutku(1), plan)),
    "h2": ("plane_plan", (), lambda opts, plan: _local_suite(driftflux.build_nutku(2), plan)),
    "h3": ("plane_plan", (), lambda opts, plan: _local_suite(driftflux.build_nutku(3), plan)),
    "h1-theta": ("drift_plan", ("theta",), lambda opts, plan: _local_suite(
        driftflux.build_H1_Theta(opts.get("theta", const(1))), plan)),
    "h2-hat": ("drift_plan", _HAT, partial(_hat_suite, "build_H2_hat")),
    "h3-hat": ("drift_plan", _HAT, partial(_hat_suite, "build_H3_hat")),
    "remark-ops": ("drift_plan", ("theta",), lambda opts, plan: (
        _remark_reports(opts, plan), None)),
    "s": ("drift_plan", (), lambda opts, plan: (_current_reports(
        driftflux.build_system_S(), driftflux.remark_currents(), plan), None)),
    "s0": ("plane_plan", (), _s0_suite),
    "s-tilde": ("physical_plan", (), _s_tilde_suite),
    "kg-family": ("plane_plan", ("k",), _kg_family_suite),
    "constraints": ("drift_plan", _BLOCK, _constraints_suite),
    "reciprocal-remark": ("drift_plan", ("theta",), _reciprocal_remark_suite),
}


def _transformed_speeds(system: HydroSystem, plan: SamplePlan):
    """(table lines, JSON data) of the transformed speed matrix at the first
    plan points, up to four, each redrawn where a speed leaves its domain
    under the one redraw rule (:func:`~hydroham.sampling.resolve`), and
    evaluated once for both formats."""
    def evaluate(points):
        speeds = speed_values(system, points)
        return REDRAW_DOMAIN * speeds.failed, (speeds.vals.transpose(2, 0, 1),)

    found = resolve(replace(plan, count=min(4, plan.count)), evaluate)
    grid = list(zip(found.points, found.payload[0]))
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
    factory, takes, suite = PRESETS[args.name]
    given = {name: text for name in PRESET_OPTIONS if (text := getattr(args, name)) is not None}
    if extra := [f"--{name}" for name in given if name not in takes]:
        raise SpecError(f"preset {args.name!r} does not take {' '.join(extra)}; it takes "
                        + (" ".join(f"--{name}" for name in takes) or "no options"))
    opts = {name: PRESET_OPTIONS[name][1](name, text) for name, text in given.items()}
    count = args.samples if args.samples is not None else DEFAULT_COUNT
    seed = args.seed if args.seed is not None else driftflux.DEFAULT_SEED
    tol = args.tol if args.tol is not None else DEFAULT_TOLERANCE
    plan = getattr(driftflux, factory)(count=count, seed=seed, tolerance=tol)
    reports, transformed = suite(opts, plan)
    lines, data = [], None
    if transformed is not None:
        lines, data = _transformed_speeds(transformed, plan)
    echo = {"preset": args.name, "params": given, "sample_plan": plan.echo()}
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
    echo = {**spec["raw"], "sample_plan": plan.echo()}
    if not all(r.passed for r in reports):
        return emit(reports, args, echo, started,
                    extra_lines=["currents are not conserved; not transforming"])
    transformed = build_reciprocal_system(system, currents[0], currents[1], plan)
    for rep in reports:
        rep.notes.append(SIGN_BRIDGE_NOTE)
    lines, data = _transformed_speeds(transformed, plan)
    reports += _numbered("candidate operator {}: local Hamiltonian",
                         (check_local_hamiltonian(op, plan)
                          for op in spec.get("candidate_operators", ())))
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
    for name, (text, _) in PRESET_OPTIONS.items():
        p_preset.add_argument(f"--{name}", default=None, help=text)
    common(p_preset)

    p_rec = sub.add_parser("reciprocal", help="transform a system by two conserved currents")
    p_rec.add_argument("spec")
    common(p_rec)
    return parser


def _option_strings(parser: argparse.ArgumentParser) -> frozenset:
    """Every option string of the parser and of its subcommands."""
    strings = set()
    for action in parser._actions:
        strings.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                strings |= _option_strings(sub)
    return frozenset(strings)


_PARSER = build_parser()
_OWN_OPTIONS = _option_strings(_PARSER) | {"--"}


def _attach_values(argv: list) -> list:
    """argv with a preset option followed by a token that starts with a minus
    sign, such as ``--theta -r3``, written ``--theta=-r3``, unless that token
    is an option of the parser itself (``--theta --json`` stays an error)."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and out[-1][2:] in PRESET_OPTIONS
                and token.startswith("-") and token.split("=", 1)[0] not in _OWN_OPTIONS):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed command line (argparse exits with code 2 on bad usage)."""
    return _PARSER.parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))


def main(argv=None) -> int:
    args = parse_args(argv)
    # the subcommands are looked up when called, so a rebound cmd_* is the one run
    command = {"check": cmd_check, "preset": cmd_preset, "reciprocal": cmd_reciprocal}
    try:
        return command[args.command](args)
    except (WorkbenchError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
