"""The checks whose reports are pinned by ``golden_reports.json`` (the
operator checks, and the current, conjugacy, wave, constraint and field
comparison checks), and the CLI runs whose documents are pinned by
``golden_cli.json``.

Each case is (name, seed -> CheckReport).  ``record_golden.py`` writes the
reports of every case at seeds 1 and 5; ``test_batched.py`` compares the
current reports against them and reuses the operators for its
batch-independence test.  ``cli_cases`` lists the CLI runs (every README
preset and the spec-file example, at seeds 1 and 5) that ``test_golden_cli.py``
compares, draw counts included.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from fractions import Fraction

from hydroham import cli
from hydroham import driftflux as df
from hydroham.exprs import const, exp, fields_equal_numeric, variables
from hydroham.operators import (
    check_ferapontov,
    check_local_hamiltonian,
    check_pencil_compatibility,
    check_skew_adjoint,
)
from hydroham.parsing import parse_expr
from hydroham.sampling import SamplePlan, default_plan
from hydroham.systems import (
    ConservedCurrent,
    HydroSystem,
    check_change_of_variables,
    check_conserved_current,
)

SEEDS = (1, 5)
LAMBDAS = (-2.0, -1.0, 0.5, 1.0, 3.0)


def thetas():
    return (("1", const(1)), ("r3", df.R3), ("exp(r3)", parse_expr("exp(r3)", 3)))


def plan_for(dim: int, seed: int):
    return df.drift_plan(seed=seed) if dim == 3 else df.plane_plan(seed=seed)


def local_operators():
    """(name, LocalOperator) for every shipped local operator."""
    ops = [(f"h{k}", df.build_nutku(k)) for k in (1, 2, 3)]
    ops += [(f"h1-theta[{name}]", df.build_H1_Theta(t)) for name, t in thetas()]
    for name, t in thetas():
        for k, op in enumerate(df.build_remark_operators(t), 1):
            ops.append((f"remark{k}[{name}]", op))
    return ops


def nonlocal_operators():
    return [("h2-hat", df.build_H2_hat()), ("h3-hat", df.build_H3_hat())]


def pencil_pairs():
    return [
        ("pair 1-2", df.build_nutku(1), df.build_nutku(2)),
        ("pair 1-3", df.build_nutku(1), df.build_nutku(3)),
        ("pair 2-3", df.build_nutku(2), df.build_nutku(3)),
        ("family pair", df.build_H1_Theta(const(1)), df.build_H1_Theta(df.R3)),
    ]


def cases():
    out = []
    for name, op in local_operators():
        out.append((f"local {name}",
                    lambda s, op=op: check_local_hamiltonian(op, plan_for(op.dim, s))))
        out.append((f"skew {name}",
                    lambda s, op=op: check_skew_adjoint(op, plan_for(op.dim, s))))
    for name, op in nonlocal_operators():
        out.append((f"ferapontov {name}",
                    lambda s, op=op: check_ferapontov(op, plan_for(op.dim, s))))
    for name, a, b in pencil_pairs():
        out.append((f"pencil {name}",
                    lambda s, a=a, b=b: check_pencil_compatibility(
                        a, b, LAMBDAS, plan_for(a.dim, s))))
    for name, kind, op in df.mutation_catalog():
        check = check_local_hamiltonian if kind == "local" else check_ferapontov
        out.append((f"mutant {name}",
                    lambda s, op=op, check=check: check(op, plan_for(op.dim, s))))
    return out + system_cases() + wave_cases() + constraint_cases() + comparison_cases()


def spec_plan(doc: dict, seed: int) -> SamplePlan:
    """The sample plan of a spec document, at ``seed``."""
    plan = doc["sample_plan"]
    return SamplePlan(doc["dimension"], tuple(map(tuple, plan["box"])), count=plan["count"],
                      seed=seed)


def system_cases():
    """Currents and the Riemann-invariant change of variables.  The hostile
    box's fields leave their domain at about 44% of draws: at seed 5 a
    round resolves nothing, so the next round evaluates every retry left.
    At floor 0.3 the conjugacy check redraws singular Jacobians."""
    doc = spec_example()
    dim = doc["dimension"]
    system = HydroSystem(dim, tuple(tuple(parse_expr(e, dim) for e in row) for row in doc["system"]))
    out = [(f"current spec example {k}",
            lambda s, c=ConservedCurrent(parse_expr(c["rho"], dim), parse_expr(c["sigma"], dim)):
            check_conserved_current(system, c, spec_plan(doc, s)))
           for k, c in enumerate(doc["currents"], 1)]
    u1, u2 = variables(2)
    hostile = HydroSystem(2, ((parse_expr("sqrt(u2 + 0.5)", 2), u1), (u2, parse_expr("-u1", 2))))
    current = ConservedCurrent(parse_expr("ln(u1 + 0.5) + u2", 2), u1 * u2)
    out.append(("current hostile box", lambda s: check_conserved_current(
        hostile, current, SamplePlan(2, ((-1.0, 1.0), (-1.0, 1.0)), count=60, seed=s))))
    conjugacy = (df.build_system_S_tilde(), df.build_system_S(), df.riemann_map())
    out.append(("conjugacy S-tilde to S", lambda s: check_change_of_variables(
        *conjugacy, df.physical_plan(seed=s))))
    out.append(("conjugacy S-tilde to S at floor 0.3", lambda s: check_change_of_variables(
        *conjugacy, SamplePlan(3, ((-1.0, 1.0), (0.1, 1.0), (-0.7, 0.7)), count=50, seed=s,
                               floor=0.3))))
    return out


def wave_cases():
    """The wave identity on the families of the kg-family preset."""
    out = [(f"wave v_k k={k}", lambda s, k=k: df.kg_residual(df.kg_family_v(k), df.plane_plan(seed=s)))
           for k in (1, 2, 3)]
    for k in KG_PARAMS:
        out.append((f"wave u_k k={k}", lambda s, k=Fraction(k): df.kg_residual(
            df.kg_family_u(k), df.plane_plan(seed=s))))
        out.append((f"wave half-r1 control k={k}", lambda s, k=Fraction(k): df.kg_residual(
            df.kg_family_u_half_r1(k), df.plane_plan(seed=s))))
    return out


def constraint_cases():
    """Every constraint equation on the default ansatz, eq7 at C = -1/25, and
    eq7 on the shifted solution that satisfies it."""
    ansatz = df.default_ansatz()
    e = parse_expr("exp(r1-r2)", 2)
    shifted = df.ProlongationAnsatz(
        eps=(1, 1, -1), psi=(const(3) * e, const(4) * e, const(Fraction(1, 5)) + const(5) * e),
        phi=(const(0),) * 3)
    out = [(f"constraint {eq}", lambda s, eq=eq: df.constraint_residuals(
        ansatz, eq, df.drift_plan(seed=s), big_c=-1 / 25 if eq == "eq7" else None))
        for eq in df.CONSTRAINT_EQUATIONS]
    out.append(("constraint eq7 shifted solution", lambda s: df.constraint_residuals(
        shifted, "eq7", df.drift_plan(seed=s), big_c=-1 / 25)))
    return out


def comparison_cases():
    """Field comparisons: the kg symmetry identity, a difference within the
    plan's absolute floor, and non-finite values at every point and at
    some."""
    (u1,) = variables(1)
    k = Fraction(2)
    j_of_u = const(1 - 2 * k) * df.kg_characteristic_J(df.kg_family_u(k))
    overflow = exp(400) * exp(400) * (2 + u1)
    return [
        ("fields equal kg symmetry", lambda s: fields_equal_numeric(
            j_of_u, df.kg_family_v(k), df.plane_plan(seed=s))),
        ("fields equal within the floor", lambda s: fields_equal_numeric(
            u1 * 1e-3, u1 * 1e-3 + 5e-7,
            default_plan(1, count=20, seed=s, tolerance=1e-9, floor=1e-6))),
        ("fields equal non-finite everywhere", lambda s: fields_equal_numeric(
            overflow, overflow, default_plan(1, count=10, seed=s))),
        ("fields equal non-finite somewhere", lambda s: fields_equal_numeric(
            u1, u1 + 0 * (exp(700 * u1) * exp(700 * u1)), default_plan(1, count=40, seed=s))),
    ]


# -- CLI documents pinned by golden_cli.json ---------------------------------------

# every preset in the README table, in its order
PRESETS = ("h1", "h2", "h3", "h1-theta", "h2-hat", "h3-hat", "remark-ops",
           "s", "s0", "s-tilde", "kg-family", "constraints", "reciprocal-remark")
KG_PARAMS = ("1", "2", "-1/3")

SPEC_DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "docs", "workbench_spec.md")


def spec_example() -> dict:
    """The system-and-currents example of docs/workbench_spec.md."""
    with open(SPEC_DOC, "r", encoding="utf-8") as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    return next(json.loads(b) for b in blocks if '"currents"' in b)


def cli_cases(workdir: str) -> list:
    """(name, argv) of every pinned CLI document; spec files are written
    under ``workdir``.  ``--json`` is appended by the caller."""
    spec = spec_example()
    checked = dict(spec, checks=["conserved_currents"])
    broken = dict(spec, currents=[spec["currents"][0],
                                  dict(spec["currents"][1],
                                       sigma=spec["currents"][1]["sigma"] + " + r1")])
    paths = {}
    for name, doc in (("example", spec), ("example-checked", checked),
                      ("example-broken", broken)):
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    out = []
    for seed in SEEDS:
        s = ["--seed", str(seed)]
        for name in PRESETS:
            if name == "kg-family":
                # argparse reads "--k -1/3" as two options
                out += [(f"preset {name} --k={k} @ seed {seed}", ["preset", name, f"--k={k}"] + s)
                        for k in KG_PARAMS]
            else:
                out.append((f"preset {name} @ seed {seed}", ["preset", name] + s))
        out.append((f"check example @ seed {seed}", ["check", paths["example-checked"]] + s))
        out.append((f"reciprocal example @ seed {seed}", ["reciprocal", paths["example"]] + s))
        out.append((f"reciprocal broken current @ seed {seed}",
                    ["reciprocal", paths["example-broken"]] + s))
    return out


def run_cli_json(argv: list) -> dict:
    """Run ``hydroham <argv> --json`` in process; returns the exit code, the
    document with ``wall_time_s`` masked, and the number of plan points
    drawn (lanes of ``SamplePlan.points`` calls, through which every draw goes)."""
    draws = [0]
    original = SamplePlan.points

    def counted(self, indices, retry=0):
        drawn = original(self, indices, retry)
        draws[0] += len(drawn)
        return drawn

    out = io.StringIO()
    SamplePlan.points = counted
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--json"])
    finally:
        SamplePlan.points = original
    doc = json.loads(out.getvalue())
    doc["wall_time_s"] = None
    return {"exit_code": code, "draws": draws[0], "document": doc}
