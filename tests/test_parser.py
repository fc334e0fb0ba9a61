import re
from fractions import Fraction

import pytest

from hydroham.errors import ParseError
from hydroham.exprs import BinOp, Call, Const, NamedConst, Neg, Power, Var, eval_scalar
from hydroham.parsing import parse_expr


def test_exp_of_difference():
    e = parse_expr("exp(r2 - r1)", 3)
    assert e == Call("exp", BinOp("-", Var(1), Var(0)))


def test_left_association():
    e = parse_expr("r1 + r2 + 1", 3)
    assert e == BinOp("+", BinOp("+", Var(0), Var(1)), Const(Fraction(1)))


def test_precedence_tree():
    e = parse_expr("r3^2 - 2*exp(r1-r2)", 3)
    expected = BinOp(
        "-",
        Power(Var(2), Fraction(2)),
        BinOp("*", Const(Fraction(2)), Call("exp", BinOp("-", Var(0), Var(1)))),
    )
    assert e == expected


def test_unary_minus_binds_below_power():
    assert parse_expr("-u1^2", 1) == Neg(Power(Var(0), Fraction(2)))


def test_power_left_association():
    assert parse_expr("u1^2^3", 1) == Power(Power(Var(0), Fraction(2)), Fraction(3))


def test_negative_and_fractional_exponents():
    assert parse_expr("u1^-2", 1) == Power(Var(0), Fraction(-2))
    assert parse_expr("u1^(1/2)", 1) == Power(Var(0), Fraction(1, 2))


def test_u_and_r_aliases_agree():
    assert parse_expr("r2", 2) == parse_expr("u2", 2) == Var(1)


def test_named_constants():
    e = parse_expr("pi*u1 + e", 1)
    assert eval_scalar(e, (1.0,)) == pytest.approx(3.141592653589793 + 2.718281828459045)
    assert isinstance(parse_expr("e", 1), NamedConst)


def test_number_formats():
    assert parse_expr("0.5", 1) == Const(Fraction(1, 2))
    assert eval_scalar(parse_expr("2.5e-2", 1), (0.0,)) == pytest.approx(0.025)


def test_division_parses_as_binop():
    e = parse_expr("1/5", 1)
    assert e == BinOp("/", Const(Fraction(1)), Const(Fraction(5)))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_expr("u1 + * u2", 2)
    assert err.value.position == 5


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'foo'"):
        parse_expr("foo + 1", 2)


def test_variable_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_expr("u5", 3)
    with pytest.raises(ParseError, match="out of range"):
        parse_expr("r0", 3)


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError, match="unexpected token"):
        parse_expr("u1 u2", 2)


def test_function_requires_parentheses():
    with pytest.raises(ParseError):
        parse_expr("exp 3", 1)


def test_missing_closing_paren():
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_expr("(u1 + 1", 1)


def test_non_constant_exponent_rejected():
    with pytest.raises(ParseError, match="constant rational"):
        parse_expr("u1^u2", 2)


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_expr("u1 @ 2", 1)
    assert err.value.position == 3


def test_empty_input():
    with pytest.raises(ParseError, match="end of input"):
        parse_expr("", 1)


@pytest.mark.parametrize("text,message", [
    ("1e400", "number 1e400 is not a finite double"),
    ("u1 + 2e308", "number 2e308 is not a finite double"),
    ("u1^(10^400)", "exponent is not a finite double"),
    ("u1^(1e400)", "number 1e400 is not a finite double"),
    ("u1^(10^(10^10))", "exponent too large to fold"),
    ("u1^((1/2)^(10^10))", "exponent too large to fold"),
])
def test_numbers_and_exponents_past_the_doubles_are_rejected(text, message):
    # at once: the exact power of a folded exponent is bounded before it is formed
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        parse_expr(text, 1)


def test_exponents_within_the_doubles_still_fold():
    assert parse_expr("u1^(10^400/10^399)", 1) == Power(Var(0), Fraction(10))
    assert parse_expr("1e-400", 1) == Const(Fraction(1, 10 ** 400))
    assert parse_expr("u1^(10^7)", 1) == Power(Var(0), Fraction(10 ** 7))


@pytest.mark.parametrize("text,message", [
    ("10^400", "constant (10)^(400) is not a finite double (at position 0)"),
    ("u1*10^400", "constant (10)^(400) is not a finite double (at position 3)"),
    ("exp(1000)", "constant exp(1000) is not a finite double (at position 0)"),
    ("u1 + exp(2*500)", "constant exp((2 * 500)) is not a finite double (at position 5)"),
    ("e^1000", "constant (e)^(1000) is not a finite double (at position 0)"),
    ("(10^200)^2", "constant ((10)^(200))^(2) is not a finite double"),
    ("ln(0)", "constant ln(0) is not a finite double"),
])
def test_a_constant_power_or_function_past_the_doubles_is_rejected(text, message):
    # it evaluated to inf at every draw, so every draw was redrawn as a hostile domain
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        parse_expr(text, 1)


def test_finite_constant_powers_and_functions_stay_unfolded():
    assert parse_expr("2^3*u1", 1) == BinOp("*", Power(Const(Fraction(2)), Fraction(3)), Var(0))
    assert repr(parse_expr("exp(700)", 1)) == "Call(func='exp', arg=Const(value=Fraction(700, 1)))"
    # inside an exponent a power folds exactly, past the doubles or not
    assert parse_expr("u1^(10^400/10^399)", 1) == Power(Var(0), Fraction(10))
