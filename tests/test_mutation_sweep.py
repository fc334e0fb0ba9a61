"""The generated mutant sweep at c = 1: every true operator of the sweep
passes its check, and every single-fault mutant of it fails.

Parents: h1-h3; h1-theta and the three remark operators at Theta = r3 and
Theta = exp(r3); the sheared Euclidean operator of test_structural_zeros;
h2-hat and h3-hat.  Mutations of a local operator, or of the local part of a
nonlocal one: each b entry that is not a literal zero negated, and times
(1 + u1/2); each g entry that is not a literal zero negated together with its
mirror.  Of a nonlocal operator, also: each tail's sign flipped, and each
tail entry that is not a literal zero negated.  A local operator is checked
by check_local_hamiltonian, a nonlocal one by check_ferapontov, on
cases.plan_for(dim, 1), or default_plan(2, seed=1) for the sheared operator.

The parents at Theta = 1 are left out: there the third component decouples
(g^{33} is constant and b^{33}_3, a multiple of Theta', is identically 0), so
negating g^{33}, or editing the zero b^{33}_3, leaves a true operator.

Run as a script (``PYTHONPATH=src:tests python tests/test_mutation_sweep.py``)
it prints the mutation score, killed/total per check kind, and exits with
code 1 if a mutant survives or a parent fails.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np
import pytest

import cases
from hydroham.exprs import Const, Var
from hydroham.geometry import AffinorField, ConnectionField, MetricField
from hydroham.operators import (LocalOperator, NonlocalOperator, check_ferapontov,
                                check_local_hamiltonian)
from hydroham.sampling import default_plan
from test_structural_zeros import euclidean_sheared

_SHEAR = 1 + Var(0) / 2


def parents() -> list:
    """(name, operator, plan) of every parent, in a fixed order."""
    local = [(name, op) for name, op in cases.local_operators() if not name.endswith("[1]")]
    out = [(name, op, cases.plan_for(op.dim, 1))
           for name, op in local + cases.nonlocal_operators()]
    out.append(("euclidean sheared", euclidean_sheared(), default_plan(2, seed=1)))
    return out


def _is_zero(e) -> bool:
    return isinstance(e, Const) and e.value == 0


def _edit(entries, edits) -> list:
    """The grid ``entries`` with each (index, value) of ``edits`` set."""
    grid = np.array(entries, dtype=object)
    for index, value in edits:
        grid[index] = value
    return grid.tolist()


def _local_mutants(op: LocalOperator):
    n, g, b = op.dim, op.g.entries, op.b.entries
    for i, j, k in itertools.product(range(n), repeat=3):
        e = b[i][j][k]
        if not _is_zero(e):
            for what, value in (("negated", -e), ("times (1 + u1/2)", e * _SHEAR)):
                b_edited = ConnectionField(n, _edit(b, [((i, j, k), value)]))
                yield f"b^{i + 1}{j + 1}_{k + 1} {what}", LocalOperator(n, op.g, b_edited)
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        if not _is_zero(g[i][j]):
            g_edited = MetricField(n, _edit(g, [((i, j), -g[i][j]), ((j, i), -g[j][i])]))
            yield f"g^{i + 1}{j + 1} negated", LocalOperator(n, g_edited, op.b)


def _nonlocal_mutants(op: NonlocalOperator):
    for name, local in _local_mutants(op.local):
        yield name, NonlocalOperator(local, op.tails)
    n = op.dim
    for a, w in enumerate(op.tails):
        def with_tail(tail, a=a):
            return NonlocalOperator(op.local, op.tails[:a] + (tail,) + op.tails[a + 1:])
        yield f"tail {a + 1} sign flipped", with_tail(AffinorField(n, -w.sign, w.entries))
        for i, j in itertools.product(range(n), repeat=2):
            if not _is_zero(w.entries[i][j]):
                entries = _edit(w.entries, [((i, j), -w.entries[i][j])])
                yield (f"tail {a + 1} w^{i + 1}_{j + 1} negated",
                       with_tail(AffinorField(n, w.sign, entries)))


def kind(op) -> str:
    return "nonlocal" if isinstance(op, NonlocalOperator) else "local"


def check(op, plan):
    return (check_ferapontov if kind(op) == "nonlocal" else check_local_hamiltonian)(op, plan)


def mutants() -> list:
    """(parent name, mutant name, mutant, plan) of every mutant."""
    out = []
    for parent, op, plan in parents():
        generate = _nonlocal_mutants if kind(op) == "nonlocal" else _local_mutants
        out += [(parent, name, mutant, plan) for name, mutant in generate(op)]
    return out


def sweep() -> tuple[dict, list]:
    """({check kind: [killed, total]}, the survivors, each "parent: mutant")."""
    score, survivors = {}, []
    for parent, name, mutant, plan in mutants():
        counts = score.setdefault(kind(mutant), [0, 0])
        counts[1] += 1
        if check(mutant, plan).passed:
            survivors.append(f"{parent}: {name}")
        else:
            counts[0] += 1
    return score, survivors


@pytest.mark.parametrize("name,op,plan", parents(), ids=[p[0] for p in parents()])
def test_every_parent_passes_its_check(name, op, plan):
    report = check(op, plan)
    assert report.passed, [c.cid for c in report.conditions if not c.passed]


def test_every_one_of_the_343_mutants_fails_its_check():
    score, survivors = sweep()
    assert not survivors, survivors
    assert score == {"local": [253, 253], "nonlocal": [90, 90]}


def main() -> int:
    failed = [name for name, op, plan in parents() if not check(op, plan).passed]
    score, survivors = sweep()
    for k, (killed, total) in score.items():
        print(f"{k} {killed}/{total}")
    for name in failed:
        print(f"parent fails its check: {name}")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if failed or survivors else 0


if __name__ == "__main__":
    sys.exit(main())
