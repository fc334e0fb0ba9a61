"""Workload definitions: the inputs each workload builds and the requests it
issues, each with the verdict it must produce.

A request is one verification call: a direct ``check_*`` call or one
in-process ``cli.main([...])`` invocation.  Every request takes a plan seed,
so the benchmark can vary the sample points from cycle to cycle while the mix
of work stays fixed.  Library entry points are looked up on their modules at
call time (``operators.check_ferapontov``, never a name imported once), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from hydroham import cli, driftflux, exprs, operators, parsing

WORKLOADS = ("nonlocal", "local-pencil", "cli-systems")

COUNT = 100  # plan points per sweep: the CLI and acceptance default
LAMBDAS = (-2.0, -1.0, 0.5, 1.0, 3.0)  # the acceptance pencil parameters
MUTANT_MIN_RESIDUAL = 1e-3  # mutation_catalog promises at least this
CONTROL_MIN_RESIDUAL = 1e-2  # kg-family negative control, as the preset states

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass(frozen=True)
class Request:
    rid: str  # stable id, the key into expected.json
    expect_pass: bool  # shipped identity (True) or cataloged mutant (False)
    sweeps: int  # plan sweeps the verdict needs; points = sweeps * COUNT
    run: Callable[[int], object]  # plan seed -> CheckReport or CLI (code, text)
    controls: tuple = ()  # condition ids that pass by failing by >= 1e-2


@dataclass
class Outcome:
    exit_code: int  # 0 pass, 1 fail, as the CLI reports it
    conditions: list  # [{"id", "max_residual", "passed"}, ...]
    tolerance: float
    canonical: str  # the deterministic part of the result, for rechecks


def run_cli(argv: list) -> tuple:
    """One in-process CLI invocation with stdout captured: (exit code, text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def outcome(result) -> Outcome:
    """Normalise a request's result (a CheckReport, or a CLI exit code and
    its --json text) for verification; kept out of the timed request."""
    if isinstance(result, tuple):
        code, text = result
        doc = json.loads(text)
        doc["wall_time_s"] = None  # the only nondeterministic field
        return Outcome(
            exit_code=code,
            conditions=[c for check in doc["checks"] for c in check["conditions"]],
            tolerance=doc["spec"]["sample_plan"]["tolerance"],
            canonical=json.dumps(doc, sort_keys=True),
        )
    doc = result.to_dict()
    return Outcome(
        exit_code=0 if doc["passed"] else 1,
        conditions=doc["conditions"],
        tolerance=doc["plan"]["tolerance"],
        canonical=json.dumps(doc, sort_keys=True),
    )


def _plan_for(op, seed: int):
    if op.dim == 3:
        return driftflux.drift_plan(count=COUNT, seed=seed)
    return driftflux.plane_plan(count=COUNT, seed=seed)


# -- inputs -------------------------------------------------------------------------


def build_inputs(workload: str, seed: int, workdir: str) -> dict:
    """Everything a workload needs before its first request: preset
    builders, the mutation catalog, and (for cli-systems) spec files written
    under ``workdir``.  This is the work ``setup_s`` times."""
    if workload == "nonlocal":
        return {
            "h2-hat": driftflux.build_H2_hat(),
            "h3-hat": driftflux.build_H3_hat(),
            "catalog": driftflux.mutation_catalog(),
        }
    if workload == "local-pencil":
        thetas = (("1", exprs.const(1)), ("r3", driftflux.R3),
                  ("exp(r3)", parsing.parse_expr("exp(r3)", 3)))
        return {
            "nutku": {k: driftflux.build_nutku(k) for k in (1, 2, 3)},
            "theta": {name: driftflux.build_H1_Theta(t) for name, t in thetas},
            "remark": {name: driftflux.build_remark_operators(t) for name, t in thetas},
            "catalog": driftflux.mutation_catalog(),
        }
    if workload == "cli-systems":
        return {"specs": write_specs(seed, workdir)}
    raise ValueError(f"unknown workload {workload!r}")


def write_specs(seed: int, workdir: str, n: int = 2) -> list:
    """The system-and-currents example of docs/workbench_spec.md, with each
    current scaled by a seeded positive rational.  The plan seed is not in
    the file: each request passes its own with ``--seed``."""
    rng = random.Random(f"specs:{seed}")
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for j in range(n):
        q1, q2 = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
        spec = {
            "dimension": 3,
            "system": [
                ["-(r1+r2+1)", "0", "0"],
                ["0", "-(r1+r2-1)", "0"],
                ["0", "0", "-(r1+r2)"],
            ],
            "currents": [
                {"rho": "0", "sigma": f"{q1}"},
                {"rho": f"({q2})*exp(r1-r2)", "sigma": f"({q2})*(r1+r2)*exp(r1-r2)"},
            ],
            "checks": ["conserved_currents"],
            "sample_plan": {"count": COUNT, "box": [[-0.7, 0.7], [-0.7, 0.7], [0.1, 1.0]]},
        }
        path = os.path.join(workdir, f"spec{j}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2)
        paths.append(path)
    return paths


# -- requests -------------------------------------------------------------------------


def _ferapontov(op):
    return lambda seed: operators.check_ferapontov(
        op, driftflux.drift_plan(count=COUNT, seed=seed))


def _local(op):
    return lambda seed: operators.check_local_hamiltonian(op, _plan_for(op, seed))


def _skew(op):
    return lambda seed: operators.check_skew_adjoint(op, _plan_for(op, seed))


def _pencil(a, b):
    return lambda seed: operators.check_pencil_compatibility(a, b, LAMBDAS, _plan_for(a, seed))


def _cli(argv: list):
    return lambda seed: run_cli(argv + ["--seed", str(seed), "--json"])


def build_requests(workload: str, inputs: dict) -> list:
    """The workload's request list: one cycle, in its canonical order."""
    if workload == "nonlocal":
        reqs = [Request("h2-hat", True, 1, _ferapontov(inputs["h2-hat"])),
                Request("h3-hat", True, 1, _ferapontov(inputs["h3-hat"]))]
        reqs += [Request(f"mutant: {name}", False, 1, _ferapontov(op))
                 for name, kind, op in inputs["catalog"] if kind == "nonlocal"]
        return reqs
    if workload == "local-pencil":
        nutku, theta = inputs["nutku"], inputs["theta"]
        reqs = [
            Request("pencil 1-2", True, len(LAMBDAS), _pencil(nutku[1], nutku[2])),
            Request("pencil 1-3", True, len(LAMBDAS), _pencil(nutku[1], nutku[3])),
            Request("pencil 2-3", True, len(LAMBDAS), _pencil(nutku[2], nutku[3])),
            Request("pencil theta 1-r3", True, len(LAMBDAS), _pencil(theta["1"], theta["r3"])),
        ]
        ops = [(f"h{k}", op) for k, op in nutku.items()]
        ops += [(f"h1-theta {name}", op) for name, op in theta.items()]
        for name, op in ops:
            reqs.append(Request(f"skew: {name}", True, 1, _skew(op)))
            reqs.append(Request(f"local: {name}", True, 1, _local(op)))
        reqs += [Request(f"local: remark op {i} theta {name}", True, 1, _local(op))
                 for name, ops in inputs["remark"].items() for i, op in enumerate(ops, 1)]
        reqs += [Request(f"mutant: {name}", False, 1, _local(op))
                 for name, kind, op in inputs["catalog"] if kind == "local"]
        return reqs
    if workload == "cli-systems":
        reqs = [
            Request("preset s", True, 2, _cli(["preset", "s"])),
            Request("preset s0", True, 1, _cli(["preset", "s0"])),
            Request("preset s-tilde", True, 1, _cli(["preset", "s-tilde"])),
            Request("preset constraints", True, 4, _cli(["preset", "constraints"])),
        ]
        # argparse reads "--k -1/3" as two options, so k is always passed as --k=...
        for k in ("1", "2", "-1/3"):
            reqs.append(Request(f"preset kg-family k={k}", True, 6,
                                _cli(["preset", "kg-family", f"--k={k}"]),
                                controls=(f"half-exponent variant fails (k={k})",)))
        for j, path in enumerate(inputs["specs"]):
            reqs.append(Request(f"check spec{j}", True, 2, _cli(["check", path])))
            reqs.append(Request(f"reciprocal spec{j}", True, 2, _cli(["reciprocal", path])))
        return reqs
    raise ValueError(f"unknown workload {workload!r}")


# -- the expected-verdict table -----------------------------------------------------------


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def verify(req: Request, out: Outcome, expected_ids: Optional[list]) -> Optional[str]:
    """None if the outcome is the expected verdict, else what is wrong."""
    ids = [c["id"] for c in out.conditions]
    if expected_ids is None:
        return "no recorded condition ids"
    if ids != expected_ids:
        return f"condition ids {ids} differ from the recorded {expected_ids}"
    residuals = [c["max_residual"] for c in out.conditions if c["max_residual"] is not None]
    if not req.expect_pass:
        if out.exit_code != 1:
            return f"mutant exit code {out.exit_code}, expected 1"
        worst = max(residuals, default=0.0)
        if not worst >= MUTANT_MIN_RESIDUAL:
            return f"mutant worst residual {worst!r} below {MUTANT_MIN_RESIDUAL}"
        return None
    if out.exit_code != 0:
        failed = [c["id"] for c in out.conditions if not c["passed"]]
        return f"exit code {out.exit_code}, expected 0; failed {failed}"
    for c in out.conditions:
        res = c["max_residual"]
        if not c["passed"]:
            return f"condition {c['id']} failed"
        if c["id"] in req.controls:
            if res is None or not res >= CONTROL_MIN_RESIDUAL:
                return f"negative control {c['id']} residual {res!r} below {CONTROL_MIN_RESIDUAL}"
        elif res is not None and not res <= out.tolerance:
            return f"condition {c['id']} residual {res!r} above tolerance {out.tolerance}"
    return None
