import math
from fractions import Fraction

import numpy as np
import pytest

from hydroham import jets
from hydroham.jets import Jet, JetDomainError, multi_indices

from conftest import random_smooth_expr
from hydroham.exprs import eval_jet


def test_multi_indices_graded_lex():
    assert multi_indices(2, 2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_constant_jet_has_no_higher_terms():
    j = Jet.constant(5.0, 3, 2)
    assert j.value == 5.0
    assert np.all(j.coeffs[1:] == 0.0)


def test_variable_jet():
    j = Jet.variable(1, 2.5, 3, 2)
    assert j.value == 2.5
    assert j.derivative((0, 1, 0)) == 1.0
    assert j.derivative((1, 0, 0)) == 0.0


def test_exponential_derivatives_at_origin():
    x = Jet.variable(0, 0.0, 2, 2)
    y = Jet.variable(1, 0.0, 2, 2)
    j = (x - y).exp()
    assert j.value == pytest.approx(1.0)
    assert j.derivative((1, 0)) == pytest.approx(1.0)
    assert j.derivative((0, 1)) == pytest.approx(-1.0)
    assert j.derivative((2, 0)) == pytest.approx(1.0)
    assert j.derivative((1, 1)) == pytest.approx(-1.0)
    assert j.derivative((0, 2)) == pytest.approx(1.0)


def test_bilinear_product():
    x = Jet.variable(0, 2.0, 2, 2)
    y = Jet.variable(1, 3.0, 2, 2)
    j = x * y
    assert j.value == 6.0
    assert j.derivative((1, 0)) == 3.0
    assert j.derivative((0, 1)) == 2.0
    assert j.derivative((1, 1)) == 1.0
    assert j.derivative((2, 0)) == 0.0


def test_reciprocal_series():
    # 1/(1+x) at x=0: alternating unit Taylor coefficients
    x = Jet.variable(0, 0.0, 1, 3)
    j = 1.0 / (1.0 + x)
    assert np.allclose(j.coeffs, [1.0, -1.0, 1.0, -1.0])


def test_fractional_power_against_closed_form():
    x = Jet.variable(0, 4.0, 1, 3)
    j = x ** Fraction(3, 2)
    assert j.value == pytest.approx(8.0)
    assert j.derivative((1,)) == pytest.approx(1.5 * 2.0)  # (3/2) sqrt(4)
    assert j.derivative((2,)) == pytest.approx(0.75 / 2.0)  # (3/4) / sqrt(4)


def test_integer_power_at_zero_base():
    x = Jet.variable(0, 0.0, 1, 2)
    j = x ** 2
    assert j.value == 0.0
    assert j.derivative((1,)) == 0.0
    assert j.derivative((2,)) == 2.0


def test_log_and_trig_jets():
    x = Jet.variable(0, 2.0, 1, 2)
    assert x.log().derivative((1,)) == pytest.approx(0.5)
    assert x.log().derivative((2,)) == pytest.approx(-0.25)
    assert x.sin().derivative((1,)) == pytest.approx(math.cos(2.0))
    assert x.cos().derivative((2,)) == pytest.approx(-math.cos(2.0))


def test_sqrt_matches_half_power():
    x = Jet.variable(0, 0.7, 1, 3)
    assert np.allclose(x.sqrt().coeffs, (x ** Fraction(1, 2)).coeffs)


def test_domain_errors():
    zero = Jet.variable(0, 0.0, 1, 2)
    neg = Jet.variable(0, -1.0, 1, 2)
    with pytest.raises(JetDomainError):
        zero.log()
    with pytest.raises(JetDomainError):
        neg.sqrt()
    with pytest.raises(JetDomainError):
        1.0 / zero
    with pytest.raises(JetDomainError):
        neg ** Fraction(1, 3)


def test_order_bounds():
    with pytest.raises(ValueError):
        Jet.constant(1.0, 2, 0)
    with pytest.raises(ValueError):
        Jet.constant(1.0, 2, 4)


def test_partial_extracts_derivative_jet():
    x = Jet.variable(0, 0.5, 2, 3)
    y = Jet.variable(1, -0.25, 2, 3)
    j = (x * y + x ** 3).partial(0)  # d/dx -> y + 3x^2
    assert j.order == 2
    assert j.value == pytest.approx(-0.25 + 3 * 0.25)
    assert j.derivative((1, 0)) == pytest.approx(3.0)
    assert j.derivative((0, 1)) == pytest.approx(1.0)


def test_leibniz_rule_on_random_expressions(rng):
    # jet of a product must equal the product of jets, coefficient-wise
    for _ in range(40):
        n = int(rng.integers(1, 4))
        e1 = random_smooth_expr(rng, n)
        e2 = random_smooth_expr(rng, n)
        p = rng.uniform(-1, 1, size=n)
        j12 = eval_jet(e1 * e2, p, 2)
        j1 = eval_jet(e1, p, 2)
        j2 = eval_jet(e2, p, 2)
        prod = j1 * j2
        scale = np.maximum(1.0, np.maximum(np.abs(j12.coeffs), np.abs(prod.coeffs)))
        assert np.all(np.abs(j12.coeffs - prod.coeffs) / scale <= 1e-12)


def test_integer_powers_up_to_three_are_the_products_of_repeated_multiplication(rng):
    # square-and-multiply forms x*x, then *x: today's products for |e| <= 3
    x = Jet.variable(0, 0.0, 2, 3)
    x = Jet(2, 3, rng.uniform(-2.0, 2.0, size=x.coeffs.shape))
    for e, want in ((1, x), (2, x * x), (3, x * x * x), (-1, x ** -1),
                    (-2, (x * x) ** -1), (-3, (x * x * x) ** -1)):
        assert (x ** e).coeffs.tobytes() == want.coeffs.tobytes(), e


def test_a_large_integer_power_takes_a_few_products(monkeypatch):
    # 2 log2(e) products at most, not e - 1
    products, mul = [], jets._mul
    monkeypatch.setattr(jets, "_mul", lambda *a: products.append(1) or mul(*a))
    x = Jet.variable(0, 1.0000001, 1, 2)
    e = 10 ** 7
    j = x ** e
    assert len(products) <= 2 * e.bit_length()
    value = 1.0000001 ** e
    assert j.value == pytest.approx(value, rel=1e-6)
    assert j.derivative((1,)) == pytest.approx(e * value / 1.0000001, rel=1e-6)
    assert j.derivative((2,)) == pytest.approx(e * (e - 1) * value / 1.0000001 ** 2, rel=1e-6)


# -- the product kernel ----------------------------------------------------------------


def _reduceat_product(a, b, n, order):
    """The truncated product as np.add.reduceat sums it over the product
    table sorted by output: each output's first term plus the sequential sum
    of the rest."""
    ii, jj, kk = jets._product_table(n, order)
    perm = np.argsort(kk, kind="stable")
    starts = np.flatnonzero(np.diff(kk[perm], prepend=-1))
    return np.add.reduceat(a[ii[perm]] * b[jj[perm]], starts, axis=0)


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300, 3e-310])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("lanes", [1, 7, 256])
def test_products_by_rank_are_the_reduceat_sums_bit_for_bit(n, order, lanes):
    rng = np.random.default_rng(17 * n + 5 * order + lanes)
    ncoef = len(multi_indices(n, order))
    scatter = jets.product_scatter(n, order)
    for trial in range(6):
        a, b = (rng.standard_normal((ncoef, lanes))
                * 10.0 ** rng.integers(-300, 300, (ncoef, lanes)) for _ in range(2))
        if trial % 2:  # about a third of the entries special: signed zeros, infinities, tiny
            for x in (a, b):
                pick = rng.random(x.shape) < 0.3
                x[pick] = rng.choice(_SPECIAL, size=int(pick.sum()))
        with np.errstate(all="ignore"):
            got, want = jets._mul(a, b, scatter), _reduceat_product(a, b, n, order)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        finite = ~np.isnan(want)  # a NaN's sign and payload bits may differ, nothing else
        assert got[finite].tobytes() == want[finite].tobytes()
