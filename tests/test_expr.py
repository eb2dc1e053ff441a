"""Parser and dual-number evaluation: grammar, derivatives, error offsets."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kyano import cli, expr
from kyano.errors import ExprSyntaxError, SingularEvaluation


def value(src, point, dim=None):
    e = expr.parse_expression(src, dim if dim is not None else len(point))
    return expr.eval_value(e, point)


# -- parsing and arithmetic ------------------------------------------------


def test_basic_eval():
    assert value("x1^2 + sin(x2)", (2.0, 0.0)) == 4.0


def test_precedence():
    assert value("2 + 3 * 4", (0.0,), dim=1) == 14.0
    assert value("(2 + 3) * 4", (0.0,), dim=1) == 20.0
    assert value("2 - 3 - 4", (0.0,), dim=1) == -5.0
    assert value("12 / 3 / 2", (0.0,), dim=1) == 2.0


def test_power_right_associative():
    assert value("2^3^2", (0.0,), dim=1) == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert value("-2^2", (0.0,), dim=1) == -4.0
    assert value("-x1^2", (3.0,)) == -9.0


def test_power_negative_exponent():
    assert value("2^-1", (0.0,), dim=1) == 0.5
    assert value("x1^-2", (2.0,)) == 0.25


def test_functions():
    assert value("ln(exp(1))", (0.0,), dim=1) == pytest.approx(1.0, abs=1e-15)
    assert value("sqrt(4)", (0.0,), dim=1) == 2.0
    assert value("abs(-3)", (0.0,), dim=1) == 3.0
    assert value("tan(0.5)", (0.0,), dim=1) == pytest.approx(math.tan(0.5))


def test_scientific_literals():
    assert value("1.5e2 + 2.5E-1", (0.0,), dim=1) == 150.25


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as ei:
        expr.parse_expression("(x1", 1)
    assert ei.value.offset == 3
    with pytest.raises(ExprSyntaxError) as ei:
        expr.parse_expression("x1 @ x2", 2)
    assert ei.value.offset == 3


@pytest.mark.parametrize("src", ["x1 + \u00b2", "x1 + \u0663", "x1 + 1\u0663"])
def test_number_tokens_take_ascii_digits_only(src):
    # a superscript two or an Arabic-Indic three is no digit of a number
    with pytest.raises(ExprSyntaxError, match="unexpected character") as ei:
        expr.parse_expression(src, 1)
    assert ei.value.offset == len(src) - 1


@pytest.mark.parametrize("src", ["x1 + \u00b2", "x1 + \u0663"])
def test_a_non_ascii_digit_in_a_field_file_is_an_input_error(tmp_path, capsys, src):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"dim": 3, "rank": 2, "components": {"12": src}}), "utf-8")
    code = cli.main(["verify-ky", "--manifold", "flat3", "--field", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: unexpected character {src[-1]!r} (offset 5)\n"


def test_a_variable_index_of_thousands_of_digits_is_out_of_range():
    with pytest.raises(ExprSyntaxError, match="out of range: 'x1111") as ei:
        expr.parse_expression("x" + "1" * 5000, 3)
    assert len(str(ei.value)) < 200 and ei.value.offset == 0


def test_variable_range_error():
    with pytest.raises(ExprSyntaxError, match="out of range"):
        expr.parse_expression("x3", 2)


def test_unknown_function_and_name():
    with pytest.raises(ExprSyntaxError, match="unknown function"):
        expr.parse_expression("sinh(x1)", 1)
    with pytest.raises(ExprSyntaxError, match="unknown name"):
        expr.parse_expression("y1 + 1", 1)


def test_empty_source_rejected():
    with pytest.raises(ExprSyntaxError):
        expr.parse_expression("", 1)
    with pytest.raises(ExprSyntaxError):
        expr.parse_expression("   ", 1)


def test_wrong_point_length():
    e = expr.parse_expression("x1 + x2", 2)
    with pytest.raises(ValueError):
        expr.eval_value(e, (1.0,))


# -- derivatives -----------------------------------------------------------


def test_eval2_polynomial():
    e = expr.parse_expression("x1*x1", 1)
    d = expr.eval2(e, (3.0,))
    assert d.value == 9.0
    assert d.gradient.tolist() == [6.0]
    assert d.hessian.tolist() == [[2.0]]


def test_eval2_sin_at_zero():
    d = expr.eval2(expr.parse_expression("sin(x1)", 1), (0.0,))
    assert d.value == 0.0
    assert d.gradient.tolist() == [1.0]
    assert d.hessian.tolist() == [[0.0]]


def test_singular_pole():
    e = expr.parse_expression("1/(1 + x1)", 1)
    with pytest.raises(SingularEvaluation):
        expr.eval2(e, (-1.0,))


def test_singular_message_names_node():
    e = expr.parse_expression("x1 + 1/x2", 2)
    with pytest.raises(SingularEvaluation, match="offset"):
        expr.eval_value(e, (1.0, 0.0))


def test_sqrt_ln_domain():
    for src in ("sqrt(x1)", "ln(x1)"):
        e = expr.parse_expression(src, 1)
        with pytest.raises(SingularEvaluation):
            expr.eval_value(e, (-1.0,))
        with pytest.raises(SingularEvaluation):
            expr.eval_value(e, (0.0,))


def test_integer_power_differentiable_at_negative_base():
    d = expr.eval2(expr.parse_expression("x1^3", 1), (-2.0,))
    assert d.value == -8.0
    assert d.gradient.tolist() == [12.0]
    assert d.hessian.tolist() == [[-12.0]]


def test_noninteger_power_needs_positive_base():
    e = expr.parse_expression("x1^0.5", 1)
    assert expr.eval_value(e, (4.0,)) == 2.0
    with pytest.raises(SingularEvaluation):
        expr.eval_value(e, (-1.0,))


def test_zero_to_negative_power_singular():
    e = expr.parse_expression("x1^-1", 1)
    with pytest.raises(SingularEvaluation):
        expr.eval_value(e, (0.0,))


def test_hessian_symmetric_exactly():
    e = expr.parse_expression("x1^2*sin(x2) + exp(x1*x2)", 2)
    d = expr.eval2(e, (0.7, -0.3))
    assert np.array_equal(d.hessian, d.hessian.T)


FD_SOURCES = (
    "x1^3*x2 - 2*x1*x2^2 + x2^4/4 - x1",
    "sin(x1)*exp(x2/2) + x1/(2 + x2)",
    "sqrt(1 + x1^2 + x2^2) * cos(x1*x2)",
    "(x1 + x2)^4 - x1^2*x2^2",
)


def central_fd(e, point, h=1e-5):
    point = np.asarray(point, dtype=float)
    n = len(point)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    f0 = expr.eval_value(e, point)
    for i in range(n):
        up, dn = point.copy(), point.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (expr.eval_value(e, up) - expr.eval_value(e, dn)) / (2 * h)
        hess[i, i] = (expr.eval_value(e, up) - 2 * f0 + expr.eval_value(e, dn)) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            pp, pm, mp, mm = (point.copy() for _ in range(4))
            pp[[i, j]] += h
            mm[[i, j]] -= h
            pm[i] += h
            pm[j] -= h
            mp[i] -= h
            mp[j] += h
            val = (
                expr.eval_value(e, pp)
                - expr.eval_value(e, pm)
                - expr.eval_value(e, mp)
                + expr.eval_value(e, mm)
            ) / (4 * h**2)
            hess[i, j] = hess[j, i] = val
    return f0, grad, hess


@pytest.mark.parametrize("src", FD_SOURCES)
def test_derivatives_match_finite_differences(src):
    e = expr.parse_expression(src, 2)
    rng = np.random.default_rng(7)
    for _ in range(10):
        pt = rng.uniform(-0.9, 0.9, 2)
        d = expr.eval2(e, pt)
        _, grad, hess = central_fd(e, pt)
        scale = max(1.0, float(np.abs(grad).max()))
        assert np.abs(d.gradient - grad).max() <= 1e-6 * scale
        hscale = max(1.0, float(np.abs(hess).max()))
        assert np.abs(d.hessian - hess).max() <= 1e-4 * hscale


ROUNDTRIP_SOURCES = FD_SOURCES + (
    "-x1^2 + 2^-2",
    "abs(x1 - x2) + tan(x1/4)",
    "1/(1 + x1^2/4)^2",
    "-(x1 + -x2)",
)


@pytest.mark.parametrize("src", ROUNDTRIP_SOURCES)
def test_parse_unparse_roundtrip(src):
    e1 = expr.parse_expression(src, 2)
    e2 = expr.parse_expression(expr.unparse(e1.root), 2)
    rng = np.random.default_rng(11)
    for _ in range(100):
        pt = rng.uniform(0.1, 0.9, 2)
        assert expr.eval_value(e1, pt) == expr.eval_value(e2, pt)


# -- hypothesis: random polynomial trees round-trip and differentiate ------


def _tree(draw, depth):
    if depth == 0:
        if draw(st.booleans()):
            return f"x{draw(st.integers(1, 2))}"
        return repr(draw(st.integers(-4, 4)))
    op = draw(st.sampled_from("+-*"))
    left = _tree(draw, depth - 1)
    right = _tree(draw, depth - 1)
    return f"({left} {op} {right})"


@st.composite
def polynomial_sources(draw):
    return _tree(draw, draw(st.integers(1, 4)))


@given(polynomial_sources())
@settings(max_examples=60, deadline=None)
def test_random_polynomial_roundtrip(src):
    e1 = expr.parse_expression(src, 2)
    e2 = expr.parse_expression(expr.unparse(e1.root), 2)
    for pt in ((0.3, -0.7), (1.5, 2.0), (-1.0, 0.25)):
        assert expr.eval_value(e1, pt) == expr.eval_value(e2, pt)


@st.composite
def smooth_sources(draw):
    # a polynomial under a function, a power and a division exercises the
    # chain, product and reciprocal rules of both jet orders
    func = draw(st.sampled_from(("sin", "cos", "")))
    power = draw(st.integers(1, 3))
    return f"{func}({draw(polynomial_sources())})^{power} / (1 + x2^2)"


@given(smooth_sources(), st.tuples(*[st.floats(-3.0, 3.0)] * 2))
@settings(max_examples=60, deadline=None)
def test_first_and_second_order_jets_agree(src, pt):
    e = expr.parse_expression(src, 2)
    d1, d2 = expr.eval1(e, pt), expr.eval2(e, pt)
    assert d1.hessian is None
    assert d1.value == d2.value
    assert d1.gradient.tolist() == d2.gradient.tolist()


@given(polynomial_sources())
@settings(max_examples=40, deadline=None)
def test_random_polynomial_gradient_fd(src):
    e = expr.parse_expression(src, 2)
    pt = (0.37, -0.61)
    d = expr.eval2(e, pt)
    _, grad, _ = central_fd(e, pt)
    scale = max(1.0, float(np.abs(grad).max()))
    assert np.abs(d.gradient - grad).max() <= 1e-6 * scale
