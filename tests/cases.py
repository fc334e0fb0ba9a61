"""The operator checks whose reports are pinned by ``golden_reports.json``.

Each case is (name, seed -> CheckReport).  ``record_golden.py`` writes the
reports of every case at seeds 1 and 5; ``test_batched.py`` compares the
current reports against them and reuses the operators for its
batch-independence test.
"""

from __future__ import annotations

from hydroham import driftflux as df
from hydroham.exprs import const
from hydroham.operators import (
    check_ferapontov,
    check_local_hamiltonian,
    check_pencil_compatibility,
    check_skew_adjoint,
)
from hydroham.parsing import parse_expr

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
