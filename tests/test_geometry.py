import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import cases
from hydroham import geometry
from hydroham.errors import DegenerateMetricError
from hydroham.exprs import compile_tape, const, eval_scalar, eval_tape
from hydroham.geometry import (
    DEGENERACY_FLOOR,
    AffinorField,
    ConnectionField,
    MetricField,
    MetricStatus,
    Patterned,
    christoffel_from_b,
    covariant_derivative_values,
    eval_matrix,
    invert_metric,
    lane_einsum,
    levi_civita,
    metric_frame,
    metric_frames,
    metric_status,
    pencil_values,
    scaled_abs_det,
    scaled_abs_dets,
)
from hydroham.operators import LocalOperator, check_local_hamiltonian, gauss_tail_sum
from hydroham.sampling import SamplePlan
from hydroham.parsing import parse_expr
from hydroham import driftflux as df

from conftest import LD, eval_longdouble
from test_structural_zeros import euclidean_sheared


def _metric(texts, n):
    return MetricField(n, tuple(tuple(parse_expr(t, n) for t in row) for row in texts))


IDENTITY2 = _metric([["1", "0"], ["0", "1"]], 2)
H1_METRIC = _metric([["-exp(r2-r1)", "0"], ["0", "exp(r2-r1)"]], 2)
SPHERE = _metric([["1", "0"], ["0", "1/sin(u1)^2"]], 2)


# -- inversion ---------------------------------------------------------------


def test_invert_identity():
    assert np.allclose(invert_metric(IDENTITY2, (0.3, 0.4)), np.eye(2))


def test_invert_self_inverse_diagonal():
    g_lo = invert_metric(H1_METRIC, (0.0, 0.0))
    assert np.allclose(g_lo, np.diag([-1.0, 1.0]), atol=1e-12)


def test_invert_symmetric_output():
    g = _metric([["2", "u1*u2"], ["u1*u2", "1+u1^2"]], 2)
    g_lo = invert_metric(g, (0.4, -0.3))
    assert np.allclose(g_lo, g_lo.T, atol=1e-10)
    assert np.allclose(g_lo @ eval_matrix(g.entries, (0.4, -0.3)), np.eye(2), atol=1e-10)


def test_degenerate_metric_raises():
    # third diagonal entry identically zero (the Theta = 0 family member)
    g = df.build_H1_Theta(const(0)).g
    with pytest.raises(DegenerateMetricError, match="degenerate"):
        invert_metric(g, (0.1, 0.2, 0.5))


@pytest.mark.parametrize("curvature", [False, True])
def test_frame_of_non_finite_metric_raises(curvature):
    # np.linalg.inv would turn [[inf, 0], [0, 1]] into a finite matrix
    g = _metric([["exp(400)*exp(400)*(2+u1)", "0"], ["0", "1"]], 2)
    with pytest.raises(DegenerateMetricError, match="nan"):
        metric_frame(g, (0.1, 0.2), curvature=curvature)


@pytest.mark.parametrize("lower", [
    invert_metric,
    lambda g, p: christoffel_from_b(g, ConnectionField(2, ((((const(0),) * 2,) * 2,) * 2)), p),
], ids=["invert_metric", "christoffel_from_b"])
def test_non_finite_metric_is_not_inverted(lower):
    # the scaled det of [[inf, 0], [0, 1]] is NaN, which no floor comparison rejects
    g = _metric([["exp(400)*exp(400)*(2+u1)", "0"], ["0", "1"]], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMetricError, match="nan"):
            lower(g, (0.1, 0.2))


def test_scaled_det_is_scale_invariant():
    m = np.diag([1e-9, 1e9])
    assert scaled_abs_det(m) == pytest.approx(1.0)
    assert scaled_abs_det(np.array([[0.0, 0.0], [1.0, 2.0]])) == 0.0


FIELDS_WITH_ENTRY = {  # field kind -> the 2-D field of that kind with one given entry
    "metric": lambda e: MetricField(2, ((e, const(0)), (const(0), const(1)))),
    "connection": lambda e: ConnectionField(2, (((const(0), e), (const(0),) * 2),
                                                ((const(0),) * 2,) * 2)),
    "affinor": lambda e: AffinorField(2, 1, ((const(1), const(0)), (const(0), e))),
}


@pytest.mark.parametrize("what", FIELDS_WITH_ENTRY)
def test_a_field_rejects_a_variable_beyond_its_dimension_when_built(what):
    build = FIELDS_WITH_ENTRY[what]
    build(parse_expr("1 + u2", 2))
    with pytest.raises(ValueError, match=f"^{what} entry uses a variable beyond the dimension$"):
        build(parse_expr("1 + u3", 3))


def _nodes(e, seen: dict) -> dict:
    """Every node of the tree ``e`` by id, shared ones once."""
    if id(e) not in seen:
        seen[id(e)] = e
        for child in (getattr(e, name, None) for name in ("left", "right", "base", "arg")):
            if child is not None:
                _nodes(child, seen)
    return seen


FIELDS_OF_ENTRIES = {  # field kind -> the 2-D field of that kind whose entry k is entries(k)
    "metric": lambda e: MetricField(2, ((e(0), e(1)), (e(2), e(3)))),
    "connection": lambda e: ConnectionField(2, (((e(0), e(1)), (e(2), e(3))),
                                                ((e(4), e(5)), (e(6), e(7))))),
    "affinor": lambda e: AffinorField(2, 1, ((e(0), e(1)), (e(2), e(3)))),
}


@pytest.mark.parametrize("what", FIELDS_OF_ENTRIES)
def test_a_subtree_shared_by_every_entry_is_walked_once(monkeypatch, what):
    # every entry holds one subtree: a chain 100 operations deep under 20
    # doublings, 2**20 paths to u1; building the field walks each node once,
    # and a variable beyond the dimension in the shared subtree is still
    # reported as the entry's
    import hydroham.exprs as exprs

    walked, calls = [], []
    var_indices = exprs.var_indices

    def spy(e, memo=None):
        calls.append(id(e))
        if memo is None or id(e) not in memo:
            walked.append(id(e))
        return var_indices(e, memo)

    def shared(var: str):
        s = parse_expr(var, 3)
        for k in range(100):
            s = s * parse_expr("u2", 2) + const(k)
        for _ in range(20):
            s = s + s
        return s

    monkeypatch.setattr(exprs, "var_indices", spy)
    tree = shared("u1")
    field = FIELDS_OF_ENTRIES[what](lambda k: tree * const(k + 2))
    nodes = {}
    for entry in np.ravel(np.array(field.entries, dtype=object)):
        _nodes(entry, nodes)
    assert sorted(walked) == sorted(nodes) and len(calls) < 2 * len(nodes)
    tree = shared("u3")
    with pytest.raises(ValueError, match=f"^{what} entry uses a variable beyond the dimension$"):
        FIELDS_OF_ENTRIES[what](lambda k: tree * const(k + 2))


# -- Christoffel symbols --------------------------------------------------------


def test_christoffel_from_zero_b_vanishes():
    b = ConnectionField(2, tuple(tuple(tuple(const(0) for _ in range(2)) for _ in range(2)) for _ in range(2)))
    assert np.allclose(christoffel_from_b(IDENTITY2, b, (0.2, 0.7)), 0.0)


def test_christoffel_from_b_identity_metric_lowers_trivially(rng):
    # with g = identity, Gamma^j_{sk} = -b^{sj}_k
    entries = tuple(
        tuple(tuple(const(float(rng.uniform(-2, 2))) for _ in range(2)) for _ in range(2))
        for _ in range(2)
    )
    b = ConnectionField(2, entries)
    p = (0.1, 0.9)
    gamma = christoffel_from_b(IDENTITY2, b, p)
    b_vals = np.array([[[eval_scalar(entries[i][j][k], p) for k in range(2)] for j in range(2)] for i in range(2)])
    assert np.allclose(gamma, -np.einsum("sjk->jsk", b_vals))


def _one_point_operators():
    """(name, LocalOperator): the eight shipped local operators of the
    presets, and the sheared Euclidean operator, whose metric and g_lo have
    no structural zero."""
    ops = [(f"h{k}", df.build_nutku(k)) for k in (1, 2, 3)]
    ops += [(f"h1-theta[{name}]", df.build_H1_Theta(t))
            for name, t in (("r3", df.R3), ("1+r3^2", df.DEFAULT_THETA))]
    ops += [(f"remark{k}", op) for k, op in enumerate(df.build_remark_operators(const(1)), 1)]
    return ops + [("euclidean sheared", euclidean_sheared())]


@pytest.mark.parametrize("op", [pytest.param(op, id=name) for name, op in _one_point_operators()])
def test_the_one_point_geometry_is_a_lane_of_the_frame_kernels(op):
    # invert_metric is the frame check's g_lo, and christoffel_from_b the
    # connection kernel's Gamma, at each of 20 plan points, bit for bit (up to
    # the sign of a zero, where the kernel drops a structurally zero term)
    points = cases.plan_for(op.dim, 1).points(np.arange(20))
    g = eval_tape(compile_tape(op.g.entries, op.dim, 2), points)
    b = eval_tape(compile_tape(op.b.entries, op.dim, 0), points)
    assert metric_status(g).usable.all() and not b.failed.any()
    frames = metric_frames(g, np.arange(20))
    gamma = -lane_einsum("is,ijk->jsk", frames.g_lo, Patterned(b.vals, b.patterns[0]))
    for lane, point in enumerate(points):
        assert np.array_equal(invert_metric(op.g, point), frames.g_lo.values[..., lane])
        assert np.array_equal(christoffel_from_b(op.g, op.b, point), gamma.values[..., lane])


def test_two_path_agreement_on_first_preset():
    op = df.build_nutku(1)
    for p in [(0.0, 0.0), (0.3, -0.5), (-0.6, 0.61)]:
        assert np.allclose(
            christoffel_from_b(op.g, op.b, p), levi_civita(op.g, p), atol=1e-12
        )


def test_levi_civita_identity_metric_vanishes():
    assert np.allclose(levi_civita(IDENTITY2, (0.5, -0.5)), 0.0)


def test_levi_civita_1d_exponential():
    g = _metric([["exp(u1)"]], 1)
    for u in (-0.5, 0.0, 0.8):
        assert levi_civita(g, (u,))[0, 0, 0] == pytest.approx(-0.5, abs=1e-12)


def test_levi_civita_1d_finite_difference_oracle():
    # Gamma^1_11 = (1/2) g^{11} d(g_11)/du computed by central differences of
    # the inverse metric in extended precision
    g = _metric([["exp(u1) + u1^2 + 2"]], 1)
    e = g.entries[0][0]
    h = LD(1e-6)
    for u in (-0.4, 0.2, 0.9):
        lo_p = 1 / eval_longdouble(e, (LD(u) + h,))
        lo_m = 1 / eval_longdouble(e, (LD(u) - h,))
        expected = 0.5 * eval_longdouble(e, (u,)) * (lo_p - lo_m) / (2 * h)
        assert levi_civita(g, (u,))[0, 0, 0] == pytest.approx(float(expected), rel=1e-9)


def test_metric_compatibility_of_levi_civita(rng):
    # nabla g = 0 under the returned connection, at random points
    for _ in range(100):
        p = rng.uniform(-0.7, 0.7, size=2)
        frame = metric_frame(H1_METRIC, p)
        gamma = frame.gamma
        t1 = np.einsum("sik,sj->kij", gamma, frame.g_lo)
        t2 = np.einsum("sjk,is->kij", gamma, frame.g_lo)
        res = frame.dg_lo - t1 - t2
        scale = max(1.0, np.max(np.abs(frame.dg_lo)))
        assert np.max(np.abs(res)) / scale <= 1e-9


# -- curvature -------------------------------------------------------------------


def test_flat_identity_metric_curvature_vanishes():
    r = metric_frame(IDENTITY2, (0.1, 0.2), curvature=True).riemann
    assert np.allclose(r, 0.0)


def test_round_sphere_sectional_curvature():
    p = (math.pi / 4, 0.3)
    frame = metric_frame(SPHERE, p, curvature=True)
    r = frame.riemann
    r_1212 = frame.g_lo[0, 0] * r[0, 1, 0, 1]
    k = r_1212 / (frame.g_lo[0, 0] * frame.g_lo[1, 1] - frame.g_lo[0, 1] ** 2)
    assert k == pytest.approx(1.0, rel=1e-9)


def test_first_preset_metric_is_flat(rng):
    for _ in range(100):
        p = rng.uniform(-0.7, 0.7, size=2)
        r = metric_frame(H1_METRIC, p, curvature=True).riemann
        assert np.max(np.abs(r)) <= 1e-10


def _curvature_cases():
    yield SPHERE, (math.pi / 4, 0.3), 2
    yield df.build_H1_Theta(df.DEFAULT_THETA).g, (0.3, -0.2, 0.5), 3
    yield df.build_H2_hat().local.g, (-0.1, 0.4, 0.7), 3
    yield df.build_H3_hat().local.g, (0.25, 0.55, 0.3), 3


def test_curvature_antisymmetry_and_bianchi(rng):
    for g, base, n in _curvature_cases():
        for _ in range(25):
            p = np.array(base) + rng.uniform(-0.05, 0.05, size=n)
            frame = metric_frame(g, p, curvature=True)
            r, r_up = frame.riemann, frame.riemann_up
            scale = max(1.0, np.max(np.abs(r)))
            assert np.max(np.abs(r + np.einsum("jslk->jskl", r))) / scale <= 1e-10
            scale_up = max(1.0, np.max(np.abs(r_up)))
            assert np.max(np.abs(r_up + np.einsum("jikl->ijkl", r_up))) / scale_up <= 1e-10
            bianchi = r + np.einsum("jkls->jskl", r) + np.einsum("jlsk->jskl", r)
            assert np.max(np.abs(bianchi)) / scale <= 1e-9


# -- covariant derivatives of affinors ----------------------------------------------


def _diag_affinor(texts, n, sign=1):
    zero = parse_expr("0", n)
    return AffinorField(
        n,
        sign,
        tuple(
            tuple(parse_expr(texts[i], n) if i == j else zero for j in range(n))
            for i in range(n)
        ),
    )


def test_identity_affinor_is_parallel():
    w = _diag_affinor(["1", "1"], 2)
    nabla = covariant_derivative_values(w, metric_frame(H1_METRIC, (0.2, -0.4)))
    assert np.allclose(nabla, 0.0, atol=1e-13)


def test_constant_affinor_flat_metric_parallel():
    w = _diag_affinor(["3", "3"], 2)
    assert np.allclose(covariant_derivative_values(w, metric_frame(IDENTITY2, (0.5, 0.5))), 0.0)


def test_prolongation_tails_satisfy_codazzi(rng):
    op = df.build_H2_hat()
    for _ in range(100):
        p = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), rng.uniform(0.1, 1.0)])
        frame = metric_frame(op.local.g, p)
        for w in op.tails:
            nabla = covariant_derivative_values(w, frame)
            scale = max(1.0, np.max(np.abs(nabla)))
            assert np.max(np.abs(nabla - np.einsum("kij->jik", nabla))) / scale <= 1e-9


# -- Gauss equation calibration -------------------------------------------------------


def test_gauss_calibration_on_nonlocal_preset(rng):
    # the curvature sign convention must make the shipped nonlocal instance
    # satisfy the Gauss identity ...
    op = df.build_H2_hat()
    worst = 0.0
    for _ in range(50):
        p = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), rng.uniform(0.1, 1.0)])
        frame = metric_frame(op.local.g, p, curvature=True)
        w_vals = Patterned.dense(np.stack([eval_matrix(w.entries, p) for w in op.tails])[..., None])
        rhs = gauss_tail_sum(op.tails, w_vals)[..., 0]
        scale = max(1.0, np.max(np.abs(frame.riemann_up)), np.max(np.abs(rhs)))
        worst = max(worst, np.max(np.abs(frame.riemann_up - rhs)) / scale)
    assert worst <= 1e-10


def test_gauss_negative_control_perturbed_affinor(rng):
    # ... and the identity must not hold vacuously: perturbing one affinor
    # breaks it by a visible margin
    op = df.build_H2_hat()
    scaled = AffinorField(
        3,
        op.tails[0].sign,
        tuple(tuple(const(1.1) * e for e in row) for row in op.tails[0].entries),
    )
    tails = (scaled,) + op.tails[1:]
    worst = 0.0
    for _ in range(30):
        p = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), rng.uniform(0.1, 1.0)])
        frame = metric_frame(op.local.g, p, curvature=True)
        w_vals = Patterned.dense(np.stack([eval_matrix(w.entries, p) for w in tails])[..., None])
        rhs = gauss_tail_sum(tails, w_vals)[..., 0]
        scale = max(1.0, np.max(np.abs(frame.riemann_up)), np.max(np.abs(rhs)))
        worst = max(worst, np.max(np.abs(frame.riemann_up - rhs)) / scale)
    assert worst >= 1e-3


# -- the scaled determinant: closed form up to 3 x 3, np.linalg.det beyond ------------------


@np.errstate(all="ignore")
def _lapack_scaled_abs_dets(ms):
    """The scaled |det| with np.linalg.det at every n."""
    rowmax = np.max(np.abs(ms), axis=-1)
    vanishing = rowmax == 0.0
    det = np.abs(np.linalg.det(ms / np.where(vanishing, 1.0, rowmax)[..., None]))
    return np.where(np.any(vanishing, axis=-1), 0.0, det)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scaled_det_agrees_with_lapack(n):
    rng = np.random.default_rng(n)
    ms = rng.standard_normal((500, n, n)) * 10.0 ** rng.integers(-150, 150, (500, n, 1))
    got, want = scaled_abs_dets(ms), _lapack_scaled_abs_dets(ms)
    well = want > 1e-3  # the closed form and LU round differently near singular matrices
    assert well.sum() > 100
    assert np.allclose(got[well], want[well], rtol=1e-12, atol=0.0)
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)
    # a lanes-last array, as metric_status hands it over through a moveaxis view
    lanes_last = np.ascontiguousarray(np.moveaxis(ms, 0, -1))
    assert scaled_abs_dets(np.moveaxis(lanes_last, -1, 0)).tobytes() == got.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scaled_det_of_a_vanishing_row_is_zero_and_of_a_non_finite_entry_nan(n):
    ms = np.tile(np.eye(n) + 0.25, (4, 1, 1))
    ms[0, n - 1] = 0.0
    ms[1, 0, n - 1] = np.inf
    ms[2, n - 1, 0] = np.nan
    ms[3, 0, 0] = -np.inf
    det = scaled_abs_dets(ms)
    assert det[0] == 0.0 and np.isnan(det[1:]).all()
    status = MetricStatus(np.zeros(4, bool), det < DEGENERACY_FLOOR, det)
    assert not status.usable.any()


def test_scaled_det_runs_lapack_only_beyond_three_by_three(monkeypatch):
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda m: calls.append(m.shape) or det(m))
    for n in (1, 2, 3):
        scaled_abs_dets(np.ones((5, n, n)))
    assert calls == []
    scaled_abs_dets(np.ones((5, 4, 4)))
    assert calls == [(5, 4, 4)]


def test_no_draw_of_a_shipped_operator_changes_status():
    # the degenerate and usable lanes of every shipped metric, and of its
    # pencil members, are those of np.linalg.det
    mats = []
    ops = cases.local_operators() + [(name, op.local) for name, op in cases.nonlocal_operators()]
    for _, op in ops:
        points = cases.plan_for(op.dim, 2).points(np.arange(100))
        mats.append(eval_tape(compile_tape(op.g.entries, op.dim, 0), points).vals)
    for _, a, b in cases.pencil_pairs():
        points = cases.plan_for(a.dim, 2).points(np.arange(100))
        mats.append(pencil_values(compile_tape((a.g.entries, b.g.entries), a.dim, 0), points,
                                  cases.LAMBDAS).vals)
    for vals in mats:
        ms = np.moveaxis(vals, -1, 0)
        got, want = scaled_abs_dets(ms), _lapack_scaled_abs_dets(ms)
        assert np.array_equal(got < DEGENERACY_FLOOR, want < DEGENERACY_FLOOR)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))


# g^{11} g^{22} - (g^{12})^2 = (u2 - 1/2)^5 is degenerate on a slab of the box,
# so some draws are redrawn; the 4 x 4 determinant is np.linalg.det's
_FOUR = LocalOperator(4, _metric([["1", "u1", "0", "0"], ["u1", "u1^2 + (u2 - 1/2)^5", "0", "0"],
                                  ["0", "0", "u3", "0"], ["0", "0", "0", "u4"]], 4),
                      ConnectionField(4, tuple(tuple(tuple(
                          const(Fraction(1, 2)) if i == j == k > 1 else const(0)
                          for k in range(4)) for j in range(4)) for i in range(4))))


def test_a_four_dimensional_check_is_the_lapack_report(monkeypatch):
    plan = SamplePlan(4, ((0.1, 1.0),) * 4, count=60, seed=3)
    g = eval_tape(compile_tape(_FOUR.g.entries, 4, 0), plan.points(np.arange(60)))
    assert metric_status(g).degenerate.any()  # so draws are redrawn on the determinant
    got = check_local_hamiltonian(_FOUR, plan).to_dict()
    monkeypatch.setattr(geometry, "scaled_abs_dets", _lapack_scaled_abs_dets)
    assert got == check_local_hamiltonian(_FOUR, plan).to_dict()


def _lapack_inverse(g_up):
    """g_lo by np.linalg.inv whatever the pattern, symmetrized."""
    inv = np.moveaxis(np.linalg.inv(np.moveaxis(g_up.values, -1, 0)), 0, -1)
    return Patterned((inv + np.swapaxes(inv, 0, 1)) / 2.0,
                     geometry._inverse_pattern(g_up.pattern.tobytes(), len(inv)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_diagonal_inverse_is_the_lapack_inverse_without_lapack(monkeypatch, n):
    # both signs, magnitudes 1e-300 to 2e300, and 5.6e-309 to 1.1e-308, where
    # 1/g is finite and the symmetrization's 1/g + 1/g overflows: the same
    # doubles up to the sign of a zero, with no np.linalg.inv call; any other
    # pattern calls it
    rng = np.random.default_rng([n, 5])
    lanes = 400
    diagonal = (rng.choice([-1.0, 1.0], (n, lanes)) * (1.0 + rng.random((n, lanes)))
                * 10.0 ** rng.uniform(-300, 300, (n, lanes)))
    diagonal[:, :20] = rng.choice([-1.0, 1.0], (n, 20)) * rng.uniform(5.6e-309, 1.1e-308, (n, 20))
    values = np.zeros((n, n, lanes))
    values[range(n), range(n)] = diagonal
    g_up = Patterned(values, np.eye(n, dtype=bool))
    calls, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    with np.errstate(over="ignore"):
        got = geometry._inverse(g_up)
        assert not calls
        want = _lapack_inverse(g_up)
    assert np.isinf(np.diagonal(got.values[..., :20], 0, 0, 1)).all()
    assert np.isfinite(got.values[..., 20:]).all()
    assert np.array_equal(got.values, want.values) and np.array_equal(got.pattern, want.pattern)
    if n > 1:
        coupled = np.eye(n, dtype=bool)
        coupled[0, 1] = coupled[1, 0] = True
        values[0, 1] = values[1, 0] = (rng.uniform(-0.5, 0.5, lanes) * np.sqrt(np.abs(diagonal[0]))
                                       * np.sqrt(np.abs(diagonal[1])))
        g_up = Patterned(values, coupled)
        calls.clear()
        with np.errstate(all="ignore"):
            got = geometry._inverse(g_up)
            assert calls == [(lanes, n, n)]
            assert got.values.tobytes() == _lapack_inverse(g_up).values.tobytes()


def test_a_diagonal_inverse_past_the_doubles_fails_as_the_lapack_one(monkeypatch):
    # 1 / g^{11} overflows: the reciprocal leaves 0.0 off the diagonal where
    # LAPACK leaves NaN, which no contraction reads, and both verdicts fail
    # as non-finite
    g_up = Patterned(np.array([[[1e-310], [0.0]], [[0.0], [2.0]]]), np.eye(2, dtype=bool))
    with np.errstate(all="ignore"):
        got, want = geometry._inverse(g_up), _lapack_inverse(g_up)
    assert got.values[:, :, 0].tolist() == [[math.inf, 0.0], [0.0, 0.5]]
    assert np.isnan(want.values[[0, 1], [1, 0]]).all()
    assert np.array_equal(np.diagonal(got.values, 0, 0, 1), np.diagonal(want.values, 0, 0, 1))
    op = LocalOperator(2, _metric([["1e-310*(1+u1^2)", "0"], ["0", "2+u2"]], 2),
                       ConnectionField(2, ((((const(0),) * 2,) * 2,) * 2)))
    plan = cases.plan_for(2, 1)
    reports = [check_local_hamiltonian(op, plan).to_dict()]
    monkeypatch.setattr(geometry, "_inverse", _lapack_inverse)
    reports.append(check_local_hamiltonian(op, plan).to_dict())
    assert reports[0] == reports[1]
    failed = {c["id"]: c for c in reports[0]["conditions"] if not c["passed"]}
    assert sorted(failed) == ["metric_compatible", "metric_flat"]
    assert all(c["max_residual"] is None and c["note"].startswith("non-finite value")
               for c in failed.values())
