import random
import re
from fractions import Fraction

import numpy as np
import pytest

from hydroham import parsing
from hydroham.errors import ParseError
from hydroham.exprs import (FUNCTIONS, BinOp, Call, Const, NamedConst, Neg, Power, Var,
                            compile_tape, eval_scalar, eval_tape)
from hydroham.parsing import MAX_NESTING, parse_expr


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
    ("u1^(2^-(10^10))", "exponent too large to fold"),
])
def test_numbers_and_exponents_past_the_doubles_are_rejected(text, message):
    # at once: the exact power of a folded exponent is bounded before it is formed
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        parse_expr(text, 1)


def test_exponents_within_the_doubles_still_fold():
    assert parse_expr("u1^(10^400/10^399)", 1) == Power(Var(0), Fraction(10))
    assert parse_expr("1e-400", 1) == Const(Fraction(1, 10 ** 400))
    assert parse_expr("u1^(10^7)", 1) == Power(Var(0), Fraction(10 ** 7))


@pytest.mark.parametrize("text,exponent", [
    ("u1^(1+1)", "2"), ("u1^(3-1)", "2"), ("u1^(2*1)", "2"),
    ("u1^(2^-1)", "1/2"), ("u1^((1/2)^-2)", "4"),
])
def test_an_exponent_folds_sums_products_and_integer_powers_of_either_sign(text, exponent):
    assert parse_expr(text, 1) == Power(Var(0), Fraction(exponent))


@pytest.mark.parametrize("text,message", [
    ("u1^(0^-1)", "division by zero in exponent (at position 3)"),
    ("u1^(2^(1/2))", "exponent must be a constant rational (at position 3)"),
])
def test_an_exponent_that_is_no_rational_is_rejected(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_expr(text, 1)


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


# -- the nesting bound ---------------------------------------------------------------------

NESTED = {  # kind -> input nested n levels deep
    "parentheses": lambda n: "(" * n + "u1" + ")" * n,
    "calls": lambda n: "sin(" * n + "u1" + ")" * n,
    "signs": lambda n: "-" * n + "u1",
    "signed parentheses": lambda n: "-(" * n + "u1" + ")" * n,
    "sum": lambda n: "1+" * n + "u1",
    "product": lambda n: "u1" + "*2" * n,
    "powers": lambda n: "u1" + "^1" * n,
    "exponent signs": lambda n: "u1^" + "-" * n + "1",
}


@pytest.mark.parametrize("kind", NESTED)
def test_input_nested_to_the_bound_parses_and_one_level_past_is_a_parse_error(kind):
    parse_expr(NESTED[kind](MAX_NESTING), 1)
    with pytest.raises(ParseError, match=f"^nesting deeper than {MAX_NESTING} levels"):
        parse_expr(NESTED[kind](MAX_NESTING + 1), 1)


@pytest.mark.parametrize("text", [
    "(" * 200 + "r3" + ")" * 200,  # each of these ended in a RecursionError
    "1+" * 499 + "r3",
    "+".join(["1"] * 600),
    "-" * 5000 + "r3",
])
def test_deeply_nested_input_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_expr(text, 3)


# -- constant values, each computed once ----------------------------------------------------


def _random_input(rng, depth: int) -> str:
    """Mostly constant expression text, with a variable now and then."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["0", "1", "2", "0.5", "3", "700", "1e300", "1e-300", "pi", "e", "u1"])
    kind, a = rng.randrange(4), _random_input(rng, depth - 1)
    if kind == 0:
        return f"({a}{rng.choice('+-*/')}{_random_input(rng, depth - 1)})"
    if kind == 1:
        return f"{rng.choice(FUNCTIONS)}({a})"
    if kind == 2:
        return f"({a})^{rng.choice(['2', '3', '-1', '-2', '(1/2)', '(-1/3)', '0', '10'])}"
    return f"-{a}"


RANDOM_INPUTS = [_random_input(random.Random(f"constants:{k}"), 5) for k in range(300)]


def _tape_value(node) -> float:
    return float(eval_tape(compile_tape(node, 1, 0), [[0.0]]).vals[0])


def test_each_constant_tree_has_the_tapes_value_bit_for_bit():
    compared = 0
    for text in RANDOM_INPUTS:
        parser = parsing._Parser(parsing._tokenize(text), 1, len(text))
        try:
            parser.expr()
        except ParseError:
            pass
        for node, _, constant in parser.records.values():
            if constant is not None:
                got, want = _tape_value(constant), _tape_value(node)
                assert np.array_equal(got, want, equal_nan=True), (text, str(node))
                assert np.isnan(got) or np.signbit(got) == np.signbit(want), (text, str(node))
                compared += 1
    assert compared > 1000


def _outcome(text: str) -> str:
    try:
        return repr(parse_expr(text, 1))
    except ParseError as err:
        return f"ParseError: {err}"


def test_the_constant_check_decides_as_a_tape_of_the_whole_node(monkeypatch):
    # the check as it was: each constant power or call evaluated on a tape of
    # its whole subtree; same trees, same rejections, same messages
    fast = [_outcome(text) for text in RANDOM_INPUTS]
    assert 20 < sum(o.startswith("ParseError: constant") for o in fast) < len(fast) - 100
    monkeypatch.setattr(parsing, "replace", lambda node, **operands: node)
    assert [_outcome(text) for text in RANDOM_INPUTS] == fast


def test_each_constant_power_or_call_is_evaluated_once(monkeypatch):
    # nested sin(...1...) was recompiled whole at every level: 15, 47 and
    # 104 ms at depths 50, 100 and 150
    runs = []
    monkeypatch.setattr(parsing, "eval_tape", lambda tape, points: runs.append(
        [op for op, *_ in tape.code if op != "const"]) or eval_tape(tape, points))
    parse_expr("sin(" * MAX_NESTING + "1" + ")" * MAX_NESTING, 1)
    assert runs == [["sin"]] * MAX_NESTING
    runs.clear()
    parse_expr("(" * 50 + "2^2*" * 50 + "1" + ")" * 50, 1)
    assert [ops for ops in runs if ops] == [["pow"]] * 50  # each product folds
