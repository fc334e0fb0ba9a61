"""The operator checks whose reports are pinned by ``golden_reports.json``,
and the CLI runs whose documents are pinned by ``golden_cli.json``.

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

from hydroham import cli
from hydroham import driftflux as df
from hydroham.exprs import const
from hydroham.operators import (
    check_ferapontov,
    check_local_hamiltonian,
    check_pencil_compatibility,
    check_skew_adjoint,
)
from hydroham.parsing import parse_expr
from hydroham.sampling import SamplePlan

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
    return out


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
