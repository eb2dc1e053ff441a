"""Compiled expression kernels against the AST-walking jet evaluator of
``jetref``, the reference they replace.  Results are compared by bytes; NaNs
are compared as NaN, because IEEE arithmetic leaves the sign and payload
of a NaN result unspecified."""

import ast
import dataclasses
import functools
import itertools
import math
import re

import jetref
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kyano import dual, dynamics, expr, geometry
from kyano.errors import DomainError, SingularEvaluation
from kyano.expr import FUNCTIONS
from kyano.fields import AntisymTensorField


def _canon(x):
    """Bytes of a float, a jet or an array, with every NaN the same NaN."""
    if isinstance(x, dual.Jet):
        parts = [x.value, x.gradient] + ([] if x.hessian is None else [x.hessian])
        return tuple(_canon(p) for p in parts)
    a = np.asarray(x, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):  # the jet walk's numpy overflow warnings
            return "ok", _canon(fn(*args))
    except Exception as e:  # the exception type and message must match too
        return "raises", type(e).__name__, str(e)


# -- random trees ----------------------------------------------------------------

_LEAVES = ("x1", "x2", "x3", "0", "2", "0.5", "1.5e-3")
_EXPONENTS = ("2", "-2", "0", "2.0", "3", "-1", "(x2)", "(0.5)", "(1+1)", "(x1 - x2)", "(1/0)")


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        children.map(lambda c: f"-{c}"),
        st.tuples(children, st.sampled_from(_EXPONENTS)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


_SOURCES = st.recursive(st.sampled_from(_LEAVES), _extend, max_leaves=10)
_COORD = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-170, 800.0, float("inf")]),
)
_POINTS = st.tuples(_COORD, _COORD, _COORD)


@given(_SOURCES, _POINTS)
@settings(max_examples=400, deadline=None)
def test_kernels_match_reference_walk(src, pt):
    e = expr.parse_expression(src, 3)
    assert _outcome(expr.eval_value, e, pt) == _outcome(jetref.value, e, pt), src
    for order, fn in ((1, expr.eval1), (2, expr.eval2)):
        assert _outcome(fn, e, pt) == _outcome(jetref.jet, e, pt, order), (src, order)


@pytest.mark.parametrize(
    "src, point, message",
    [
        ("sqrt(x1)", 0.0, "sqrt of a non-positive argument in sqrt(...) at offset 0"),
        ("1/x1", 0.0, "division by zero in '/' at offset 1"),
        ("ln(x1)", -1.0, "ln of a non-positive argument in ln(...) at offset 0"),
        ("x1^-2", 0.0, "zero raised to a negative power in '^' at offset 2"),
        ("x1^(0.5/0)", 2.0, "division by zero in '/' at offset 7 in '^' at offset 2"),
        ("2 * abs(x1)", 0.0, "abs at zero has no derivative in abs(...) at offset 4"),
        ("x1^-3", 0.0, "zero raised to a negative power in '^' at offset 2"),
        ("x1/0", 1.0, "division by zero in '/' at offset 2"),
        ("-(x1/x1)", 0.0, "division by zero in '/' at offset 4"),
        ("sqrt(0-1) + x1", 1.0, "sqrt of a non-positive argument in sqrt(...) at offset 0"),
        ("x1^x2", (-1.0, 0.5), "non-integer power of a non-positive base in '^' at offset 2"),
        # a float exponent of -1.0 is an integer; a jet exponent is exp(x2 * ln(x1))
        ("x1^x2", (0.0, -1.0), ("zero raised to a negative power in '^' at offset 2",
                                "non-integer power of a non-positive base in '^' at offset 2")),
    ],
)
def test_singular_messages_unchanged(src, point, message):
    value, jet = (message, message) if isinstance(message, str) else message
    point = (point,) if isinstance(point, float) else point
    e = expr.parse_expression(src, len(point))
    columns = np.array([point] * expr._COLUMN_ROWS).T
    for fn, args, want in [(expr.eval_value, (), value), (jetref.value, (), value),
                           (expr.eval1, (), jet), (expr.eval2, (), jet),
                           (jetref.jet, (1,), jet), (jetref.jet, (2,), jet)]:
        with pytest.raises(SingularEvaluation) as info:
            fn(e, point, *args)
        assert str(info.value) == want, fn
    for order in (0, 1, 2):  # the column kernels' fallback
        with pytest.raises(SingularEvaluation) as info:
            expr.eval_columns(e, columns, order)
        assert str(info.value) == (jet if order else value), order


def _geodesic_kernels(spec, fresh: bool = True):
    """The exact and sparse fused geodesic kernels of ``spec`` and its RK4 run, compiled
    afresh unless ``fresh`` is false."""
    n, roots = spec.dim, geometry._metric_roots(spec)
    get = (lambda f: f.__wrapped__) if fresh else (lambda f: f)
    exact, run = get(dynamics._compiled)(n, roots)
    return exact, get(_sparse_kernel)(n, roots), run


@functools.lru_cache(maxsize=None)
def _sparse_kernel(n, roots):
    lines, outs = dynamics._hamilton_source(n, roots, sparse=True)
    # as in the run, a failing check raises at once
    return expr._function(2 * n, lines, outs, namespace=dict(
        geometry._KERNEL_GLOBALS, entries=expr._per_point))


def _components(spec):
    """The distinct components of ``spec``'s metric, in the upper triangle's row order, as one
    Fused."""
    return expr.Fused({id(e): e for row in spec.components for e in row if e is not None}.values())


_METRIC = [(order, geometry.DOMAIN_MARGIN) for order in (0, 1, 2)] + [(0, geometry.SAMPLE_MARGIN)]


def _metric_kernels(specs, keys=(*_METRIC, "christoffel", "curvature")):
    """Compile afresh each kernel of each of ``specs`` for each of ``keys``, on floats and
    over columns."""
    for spec, key, columns in itertools.product(specs, keys, (False, True)):
        geometry._kernel(dataclasses.replace(spec), key, columns)


def _captured_sources(monkeypatch) -> list:
    sources = []
    monkeypatch.setattr(expr, "compile", lambda source, *args: sources.append(source)
                        or compile(source, *args), raising=False)
    return sources


def test_no_kernel_holds_a_handler_but_the_runs_outer_one(monkeypatch):
    # every float, column, exact and sparse geodesic kernel is straight-line: a check
    # names its locations itself; a compiled RK4 run keeps the handler around its loop
    sources = _captured_sources(monkeypatch)
    specs = [geometry.taub_nut(1.0, fs) for fs in (2.0, 4.0)]
    specs += [geometry.const_curvature3(K) for K in (-4.0, 1.0)]
    specs += [geometry.const_curvature3_spherical(1.0), geometry.flat(3), _CUSTOM]
    fused = [_components(spec) for spec in specs]
    fused += [expr.Fused(spec.guards) for spec in specs if spec.guards]
    fused += [expr.Fused(e for row in spec.inverse for e in row if e is not None)
              for spec in specs if spec.inverse]
    fused += [expr.Fused(expr.parse_expression(src, 3) for src in (
        "x1/0 + x2", "x1/x2 - 1/x3", "x1^x2", "sqrt(0-1) + x1", "x1^(0.5/0)", "exp(1000) * x1",
        "x1 * x2 + x3", "tan(x1) + ln(x2) - abs(x3)"))]
    for exprs, order, columns in itertools.product(fused, (0, 1, 2), (False, True)):
        expr._compile.__wrapped__(exprs[0].nvars, tuple((e.root, order) for e in exprs), columns)
    for spec in specs:
        if spec.inverse:  # the fused geodesic kernels, exact and sparse, and the run
            _geodesic_kernels(spec)
    _metric_kernels(specs)
    runs = [source for source in sources if source.startswith("def run(")]
    assert len(runs) >= 5 and len(sources) >= len(fused) * 6 + 3 * 5
    for source in sources:
        tree = ast.parse(source)
        handlers = [node for node in ast.walk(tree) if isinstance(node, ast.Try)]
        if source in runs:
            assert handlers == [tree.body[0].body[0]] and len(handlers[0].handlers) == 1
            assert source.count("except") == 1
        else:
            assert handlers == [] and "except" not in source, source


def test_order_1_kernels_hold_no_unread_local(monkeypatch):
    # a second-derivative factor is built only where a Hessian reads it
    sources = _captured_sources(monkeypatch)
    specs = [geometry.taub_nut(1.0), geometry.const_curvature3(1.0),
             geometry.const_curvature3(-4.0), geometry.const_curvature3_spherical(1.0)]
    for spec in specs:
        for e in _components(spec):
            expr._compile.__wrapped__(e.nvars, ((e.root, 1),))
        if spec.inverse:  # the fused geodesic kernels, exact and sparse, and the run
            _geodesic_kernels(spec)
    _metric_kernels(specs, (_METRIC[1], "christoffel"))
    assert len(sources) >= 20  # 11 component kernels, 3 exact and sparse pairs and 3 runs
    for source in sources:
        tree = ast.parse(source)
        assigned = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name) and t.id[0] == "t"}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert assigned <= read, source


def test_guard_kernel_has_no_unit_factor_and_no_division_handler(monkeypatch):
    sources = _captured_sources(monkeypatch)
    guard = geometry.const_curvature3(1.0).guards[0]
    columns = expr._compile.__wrapped__(3, ((guard.root, 0),), True)
    kernel = expr._compile.__wrapped__(3, ((guard.root, 0),))
    for source in sources:
        assert "(1.0) *" not in source and "ZeroDivisionError" not in source, source
        assert "try:" not in source  # abs's domain check names its location itself
    pts = geometry.sample_points(geometry.const_curvature3(1.0), 200, np.random.default_rng(3))
    edges = [0.0, -0.0, 5e-324, -1e-300, 1e150, -1e200, 1e300, math.inf, -math.inf, math.nan]
    pts = np.vstack([pts, list(itertools.product(edges, repeat=3))])
    # the guard as the kernel computed it with its factor 1.0 and division by 4.0
    want = np.array([abs(1.0 + 1.0 * (x * x + y * y + z * z) / 4.0) for x, y, z in pts.tolist()])
    got = np.array([kernel(pt) for pt in pts.tolist()])
    assert got.tobytes() == want.tobytes()
    finite = np.isfinite(pts).all(axis=1)
    with np.errstate(over="ignore"):
        assert columns(pts[finite].T)[0].tobytes() == want[finite].tobytes()


_SPARSE_SPECS = [geometry.taub_nut(m, fs) for m in (0.3, 1.0, 2.5) for fs in (1.0, 2.0, 4.0)]
_SPARSE_SPECS += [geometry.const_curvature3(K) for K in (1.0, -1.0, -4.0)]
_SPARSE_EDGES = st.sampled_from([0.0, -0.0, 1e150, -1e150, 1e-300, -1e-300])


# about half the drawn states are outside a guard, whose DomainError declines them
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(which=st.integers(0, len(_SPARSE_SPECS) - 1),
       z=st.lists(st.one_of(st.floats(-5.0, 5.0), st.floats(-1e200, 1e200), _SPARSE_EDGES),
                  min_size=8, max_size=8))
def test_sparse_kernel_equals_the_exact_kernel_where_its_witness_is_finite(which, z):
    spec = _SPARSE_SPECS[which]
    exact, sparse = _geodesic_kernels(spec, fresh=False)[:2]
    z = z[:2 * spec.dim]
    try:
        got = sparse(z)
    except (DomainError, SingularEvaluation, ArithmeticError, ValueError):  # the step declines
        assume(False)
    assume(math.isfinite(got[-1]))
    want = exact(z)  # does not raise, as the sparse kernel did not
    assert len(got) == len(want) + 1
    for g, w in zip(got, want):
        # equal as numbers: bitwise where nonzero, and a zero is a zero of either sign
        assert g == w or math.isnan(g) and math.isnan(w)


def test_a_skipped_factor_that_overflows_makes_the_witness_non_finite():
    exact, sparse = _geodesic_kernels(geometry.taub_nut(1.0), fresh=False)[:2]
    z = [1.3, 1.0, 0.4, 0.2, 1e160, -1e160, 1e160, 1e160]
    got, want = sparse(z), exact(z)
    assert math.isinf(got[-1])
    # the exact kernel's zero products of the infinite factor are NaN where the sparse ones are 0
    assert any(math.isnan(w) and g == 0.0 for g, w in zip(got, want))


def test_float_kernels_equal_the_reference_walk_on_floats():
    # every catalog metric component, closed-form inverse entry and guard
    specs = [geometry.taub_nut(m, fs) for m in (0.7, 2.5) for fs in (2.0, 4.0)]
    specs += [geometry.const_curvature3(K) for K in (-4.0, -1.0, 0.5, 1.0)]
    specs += [geometry.const_curvature3_spherical(K) for K in (-1.0, 1.0)]
    for spec in specs:
        pts = geometry.sample_points(spec, 1000, np.random.default_rng(5)).tolist()
        grids = [spec.components] + ([spec.inverse] if spec.inverse else [])
        exprs = {id(e): e for grid in grids for row in grid for e in row if e is not None}
        exprs.update((id(g), g) for g in spec.guards)
        for e in exprs.values():
            kernel = expr._kernel(e, 0)
            got = np.array([kernel(pt) for pt in pts])
            assert got.tobytes() == np.array([jetref.value(e, pt) for pt in pts]).tobytes(), str(e)


def test_fewer_rows_than_the_column_threshold_run_per_point():
    e = expr.parse_expression("x1 * sin(x2) + x1^-2 - sqrt(x2 + 4)", 2)
    cols = np.array([[0.5, 2.0, -1.5], [1.0, -3.0, 0.25]])
    for order in (0, 1, 2):
        want = _per_point_rows(e, cols.T.tolist(), order)
        assert expr.eval_columns(e, cols, order).tobytes() == want.tobytes()
    assert not any(columns for _, columns in e._kernels)  # no column kernel was built


def test_kernel_is_compiled_once_per_order():
    e = expr.parse_expression("x1*sin(x2)", 2)
    assert expr._kernel(e, 1) is expr._kernel(e, 1)
    assert expr._kernel(e, 1) is not expr._kernel(e, 2)
    assert e == expr.parse_expression("x1*sin(x2)", 2)


# -- metric jets -----------------------------------------------------------------


def _ref_metric(spec, point, order):
    """Per-slot fill from the reference walk, as the metric code did it."""
    n = spec.dim
    g = np.zeros((n, n))
    dg = np.zeros((n, n, n))
    d2g = np.zeros((n, n, n, n))
    coords = [float(v) for v in point]
    for i in range(n):
        for j in range(n):
            e = spec.components[i][j]
            if e is None:
                continue
            if order == 0:
                g[i, j] = jetref.value(e, coords)
                continue
            d = jetref.jet(e, coords, order)
            g[i, j], dg[:, i, j] = d.value, d.gradient
            if order == 2:
                d2g[:, :, i, j] = d.hessian
    return (g, dg, d2g)[: order + 1]


@pytest.mark.parametrize(
    "spec",
    [
        geometry.taub_nut(1.0),
        geometry.const_curvature3(1.0),
        geometry.const_curvature3(-1.0),
        geometry.const_curvature3(-4.0),
        geometry.const_curvature3_spherical(1.0),
        # Hessians that are not bitwise symmetric, so the gather layout shows
        geometry.custom([
            ["5 + sin(x1*x2)*exp(x3)/(3 + x1 + x2*x3)", "(x1 + x2*x3)*(x2 + x1*x3)/9", "0"],
            ["0", "3 + cos(x2*x3)", "x1/(4 + x2^2)"],
            ["0", "0", "4 + x3^2*x1*x2"],
        ]),
    ],
    ids=["taub-nut", "K=1", "K=-1", "K=-4", "spherical", "custom"],
)
def test_metric_jets_match_reference(spec):
    points = geometry.sample_points(spec, 1000, np.random.default_rng(2024))
    for pt in points:
        for order in (0, 1, 2):
            got = geometry.metric_components_at(spec, pt, order)
            got = got if isinstance(got, tuple) else (got,)
            want = _ref_metric(spec, pt, order)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# -- one parse and one compile per distinct source --------------------------------


def test_parse_returns_one_expression_per_source():
    src = "x1*sin(x2) + p1^2"
    assert expr.parse_expression("x1 + 1", 2) is expr.parse_expression("x1 + 1", 2)
    e = expr.parse_expression(src, 2, ("x", "p"))
    assert expr.parse_expression(src, 2, ["x", "p"]) is e
    assert expr.parse_expression(src, 3, ("x", "p")) is not e


def test_second_report_compiles_no_kernel(monkeypatch):
    from kyano import report

    report.assemble_report(seed=3, samples=4)
    compiled = []

    class CountingEmitter(expr._Emitter):
        def __init__(self, *args):
            compiled.append(args)
            super().__init__(*args)

    monkeypatch.setattr(expr, "_Emitter", CountingEmitter)
    report.assemble_report(seed=3, samples=4)
    assert compiled == []


# -- the float fast path and the sqrt second-derivative underflow ----------------


@pytest.mark.parametrize("fn", [dual.sin, dual.cos, dual.tan, dual.sqrt, dual.exp,
                                dual.log, dual.absolute])
def test_float_arguments_skip_derivative_factors(fn):
    for x in (0.3, 1.7, 42.0):
        got = fn(x)
        assert type(got) is float
        for order in (1, 2):  # the value of the reference's chain rule
            assert got == getattr(jetref, fn.__name__)(jetref.Jet.seeds([x], order)[0]).value


@pytest.mark.parametrize("x", [6381956970095103 * 2.0 ** 797, math.pi / 2])
def test_tan_has_no_pole_at_any_double(x):
    # the double nearest an odd multiple of pi/2, and the one nearest pi/2: |cos x| is at
    # least 4.7e-19 on every double, so every tan kernel returns math.tan's value
    e, t = expr.parse_expression("tan(x1)", 1), math.tan(x)
    assert dual.tan(x) == expr.eval_value(e, [x]) == t
    assert expr.eval1(e, [x]).value == expr.eval2(e, [x]).value == t
    assert (expr.eval_columns(e, np.full((1, 40), x)) == t).all()


def test_sqrt_of_tiny_argument():
    e = expr.parse_expression("sqrt(x1)", 1)
    tiny = 5e-324
    assert expr.eval_value(e, [tiny]) == dual.sqrt(tiny) > 0.0
    jet = expr.eval1(e, [tiny])
    assert jet.value == dual.sqrt(tiny) and np.isfinite(jet.gradient).all()
    assert _outcome(expr.eval1, e, [tiny]) == _outcome(jetref.jet, e, [tiny], 1)
    message = "sqrt argument too small for a second derivative in sqrt(...) at offset 0"
    for fn, args in ((expr.eval2, ()), (jetref.jet, (2,))):
        with pytest.raises(SingularEvaluation) as info:
            fn(e, [tiny], *args)
        assert str(info.value) == message


# -- column kernels: the order-0 source over (N,) columns ------------------------


def _tall(cols):
    """``cols`` repeated along the rows to at least ``_COLUMN_ROWS`` rows, so that
    ``eval_columns`` runs them through the column kernel; the first failing row
    stays the first."""
    cols = np.asarray(cols, dtype=float)
    return np.tile(cols, (1, -(-expr._COLUMN_ROWS // cols.shape[1])))


def _per_point_rows(e, points, order):
    """The (width, N) outputs of the per-point kernel, row by row, as the
    column kernels must reproduce them (the values alone at order 0)."""
    kernel = expr._kernel(e, order)
    return np.array([kernel([float(v) for v in pt]) for pt in points], float).T


@given(_SOURCES, st.lists(_POINTS, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_column_kernels_match_per_point_kernels(src, points):
    # values bytewise, or the first failing row's exception and message
    e = expr.parse_expression(src, 3)
    cols = _tall(np.array(points).T)
    points = cols.T.tolist()
    per_point = _outcome(lambda: np.array([expr.eval_value(e, pt) for pt in points]))
    assert _outcome(expr.eval_columns, e, cols) == per_point, src
    for order in (1, 2):
        per_point = _outcome(_per_point_rows, e, points, order)
        assert _outcome(expr.eval_columns, e, cols, order) == per_point, (src, order)


def _catalog_expressions():
    """(expression, points) for every catalog metric component and guard and
    every catalog field component, at points sampled from its chart."""
    from kyano import kysym

    taubnut = geometry.taub_nut(1.0)
    spherical = geometry.const_curvature3_spherical(1.0)
    specs = [taubnut, geometry.taub_nut(2.5, 4.0), spherical,
             geometry.const_curvature3_spherical(-1.0),
             *(geometry.const_curvature3(K) for K in (1.0, -1.0, 0.5, -4.0))]
    fields = [(taubnut, kysym.taubnut_ky_field(i, 1.0)) for i in (1, 2, 3)]
    fields += [(spherical, kysym.constcurv_ky_field(i, 1.0, momentum=m))
               for i in (1, 2, 3) for m in (False, True)]
    fields.append((geometry.const_curvature3(1.0), kysym.flat_ky_position_field(3)))
    out = []
    for spec in specs:
        pts = geometry.sample_points(spec, 300, np.random.default_rng(11))
        out += [(e, pts) for row in spec.components for e in row if e is not None]
        out += [(g, pts) for g in spec.guards]
    for spec, field in fields:
        pts = geometry.sample_points(spec, 300, np.random.default_rng(12))
        out += [(c, pts) for _, c in field.component_items()]
    return out


def test_column_kernels_match_on_the_catalog():
    cases = _catalog_expressions()
    assert len(cases) > 40
    for e, pts in cases:
        for order in (0, 1, 2):
            want = _per_point_rows(e, pts, order)
            assert expr.eval_columns(e, pts.T, order).tobytes() == want.tobytes(), (str(e), order)
            with np.errstate(all="raise"):  # the columns run whole, with no per-point fallback
                expr._kernel(e, order, columns=True)(pts.T)


@pytest.mark.parametrize(
    "src, bad, message",
    [
        ("1/x1", 0.0, "division by zero in '/' at offset 1"),
        ("sqrt(x1)", -1.0, "sqrt of a non-positive argument in sqrt(...) at offset 0"),
        ("x1^-2", 0.0, "zero raised to a negative power in '^' at offset 2"),
        # numpy divides inf by zero without a flag: a non-finite constant runs per point
        ("1e400/x1", 0.0, "division by zero in '/' at offset 5"),
        ("x1^0.5", -1.0, "non-integer power of a non-positive base in '^' at offset 2"),
    ],
)
def test_column_fallback_raises_the_per_point_error(src, bad, message):
    e = expr.parse_expression(src, 1)
    with pytest.raises(SingularEvaluation) as info:
        expr.eval_columns(e, _tall([[2.0, 0.5, bad, 3.0, bad]]))
    assert str(info.value) == message


def test_column_overflow_falls_back_to_per_point_values():
    # numpy raises on the overflow inside the columns; floats carry the inf
    e = expr.parse_expression("x1 * 1e300 * 1e300 / 1e300 + sin(x2)", 2)
    cols = _tall([[1.0, 1e-300, -2.0], [0.5, 0.1, 3.0]])
    want = [expr.eval_value(e, row) for row in cols.T.tolist()]
    assert expr.eval_columns(e, cols).tolist() == want
    assert math.isinf(want[0]) and math.isfinite(want[1])


def test_column_kernel_of_non_finite_inputs_runs_per_point():
    # numpy gives inf / 0 = inf without a flag, where a float division raises
    e = expr.parse_expression("x2/x1", 2)
    with pytest.raises(SingularEvaluation, match="division by zero in '/' at offset 2"):
        expr.eval_columns(e, _tall([[1.0, 0.0], [1.0, math.inf]]))


def test_column_kernel_of_a_constant_fills_every_row():
    e = expr.parse_expression("2 + sin(1)", 1)
    rows = expr._COLUMN_ROWS
    assert expr.eval_columns(e, [np.zeros(rows)]).tolist() == [expr.eval_value(e, [0.0])] * rows


@pytest.mark.parametrize(
    "src, order, bad",
    [
        ("abs(x1) + x2", 1, 0.0),       # the sign has no derivative at 0
        ("abs(x1) * x2", 2, 0.0),
        ("sqrt(x1) * x2", 2, 0.0),      # sqrt of a non-positive argument
        ("sqrt(x1) * x2", 2, 5e-324),   # its second derivative underflows
        ("x2 / (x1 - 1.5)", 1, 1.5),    # division by zero
        ("x2 / (x1 - 1.5)", 2, 1.5),
    ],
)
def test_column_jets_raise_the_first_failing_rows_error(src, order, bad):
    e = expr.parse_expression(src, 2)
    cols = _tall([[2.0, 0.5, bad, 3.0, bad], [1.0, 2.0, 3.0, 4.0, 5.0]])
    with pytest.raises(SingularEvaluation) as want:
        expr._kernel(e, order)([bad, 3.0])
    with pytest.raises(SingularEvaluation) as got:
        expr.eval_columns(e, cols, order)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("order", [1, 2])
def test_column_jets_of_rows_that_pass_or_hold_inf_match_per_point(order):
    # a row that fails alone runs per point with the rest; an inf row is carried
    for src, cols in (("sqrt(x1) * x2", [[5e-324, 1.0], [2.0, 3.0]]),
                      ("x1 * x2 + abs(x2)", [[0.5, math.inf], [2.0, 3.0]])):
        e = expr.parse_expression(src, 2)
        cols = _tall(cols)
        want = _outcome(_per_point_rows, e, cols.T.tolist(), order)
        assert _outcome(expr.eval_columns, e, cols, order) == want, (src, order)


# -- one fused kernel per metric and per field -----------------------------------


_CUSTOM = geometry.custom([
    ["5 + sin(x1*x2)*exp(x3)/(3 + x1 + x2*x3)", "(x1 + x2*x3)*(x2 + x1*x3)/9", "0"],
    ["0", "3 + cos(x2*x3)", "x1/(4 + x2^2)"],
    ["0", "0", "4 + x3^2*x1*x2"],
])


def _fused_cases():
    """(Fused, points) for each catalog metric's distinct components and its closed-form
    inverse, and each catalog field's expression components, at points sampled from
    its chart."""
    from kyano import kysym

    taubnut, spherical = geometry.taub_nut(1.0, 2.0), geometry.const_curvature3_spherical(1.0)
    specs = [taubnut, geometry.taub_nut(1.0, 4.0), geometry.const_curvature3(-4.0),
             geometry.const_curvature3(1.0), spherical, _CUSTOM]
    fields = [(taubnut, kysym.taubnut_ky_field(i, 1.0)) for i in (1, 2, 3)]
    fields += [(geometry.flat(n), kysym.flat_ky_position_field(n)) for n in (3, 4, 5, 6)]
    fields += [(spherical, kysym.constcurv_ky_field(i, 1.0, momentum=m))
               for i in (1, 2, 3) for m in (False, True)]
    out = []
    for spec in specs:
        pts = geometry.sample_points(spec, 300, np.random.default_rng(21))
        out.append((_components(spec), pts))
        if spec.inverse:
            out.append((expr.Fused(e for i, row in enumerate(spec.inverse)
                                   for e in row[i:] if e is not None), pts))
    for spec, field in fields:
        out.append((field._fused, geometry.sample_points(spec, 300, np.random.default_rng(22))))
    return out


def _per_component(exprs, points, order):
    """Each point's outputs of the expressions one kernel at a time, in turn: the
    first failing expression of the first failing point raises."""
    kernels = [expr._kernel(e, order) for e in exprs]
    rows = [[v for k in kernels for v in np.atleast_1d(k(pt))] for pt in points]
    return np.array(rows, float).reshape(len(points), -1).T


def test_fused_kernels_equal_the_per_component_kernels_bitwise():
    cases = _fused_cases()
    assert len(cases) == 6 + 4 + 3 + 4 + 6 and all(len(fused) > 0 for fused, _ in cases)
    for fused, pts in cases:
        for order, n in itertools.product((0, 1, 2), (1, 31, 32, 300)):
            want = _per_component(fused, pts[:n].tolist(), order)
            got = expr.eval_columns(fused, pts[:n].T, order)
            assert got.tobytes() == want.tobytes(), (fused, order, n)
            per_point = expr._kernel(fused, order)
            got = np.array([np.atleast_1d(per_point(pt)) for pt in pts[:n].tolist()]).T
            assert got.tobytes() == want.tobytes(), (fused, order, n)
            # one expression is the one-part case, its order-0 values a row
            part = expr.eval_columns(fused[:1], pts[:n].T, order)
            assert part.tobytes() == want[:len(part)].tobytes()


def _spliced(pts, bad, at):
    """``pts`` with the rows ``bad`` written over the rows ``at``."""
    pts = pts.copy()
    pts[at] = bad
    return pts


@pytest.mark.parametrize("order", [0, 1, 2])
def test_fused_kernels_raise_the_first_failing_rows_error(order):
    from kyano import kysym

    spec = geometry.taub_nut(1.0)
    pts = geometry.sample_points(spec, 300, np.random.default_rng(23))
    inverse = expr.Fused(e for i, row in enumerate(spec.inverse) for e in row[i:] if e is not None)
    # x1 = 0 and V = 1 + 2/x1 = 0 divide by zero in g and the triplet, sin(x2) = 0 in g^-1
    bad = np.array([[0.0, 1.0, 0.5, 0.5], [-2.0, 1.0, 0.5, 0.5], [1.5, 0.0, 0.5, 0.5],
                    [1.5, math.pi, 0.5, 0.5], [-0.0, 0.0, 0.0, 0.0]])
    messages = set()
    for fused in (_components(spec), inverse,
                  kysym.taubnut_ky_field(1, 1.0)._fused):
        for row in bad.tolist():
            want = _outcome(_per_component, fused, [row], order)
            assert _outcome(expr._kernel(fused, order), row) == want
            assert _outcome(expr.eval_columns, fused, np.array([row]).T, order) == want
            messages.add(want[-1] if want[0] == "raises" else "ok")
        for n, at in ((31, [3, 17]), (32, [3, 17]), (32, [31, 0]), (300, [299, 40])):
            for pair in itertools.permutations(range(len(bad)), 2):
                block = _spliced(pts[:n], bad[list(pair)], at)
                want = _outcome(_per_component, fused, block.tolist(), order)
                assert _outcome(expr.eval_columns, fused, block.T, order) == want
    assert "ok" in messages and len([m for m in messages if "division by zero" in m]) >= 3


_EVAL_COLUMNS = expr.eval_columns


def test_fields_evaluate_their_components_in_one_call(monkeypatch):
    # a number and expression components, against the per-component evaluation
    field = AntisymTensorField(4, 2, {
        "12": "x1*sin(x2)", "13": "x1*x3 + x4", "14": 2.5,
        "23": "x2^2 / x1 - cos(x2)", "34": "sin(x2)*x4"})
    comps = [c for _, c in field.component_items()]
    calls = []
    monkeypatch.setattr(expr, "eval_columns", lambda *a: calls.append(a) or _EVAL_COLUMNS(*a))
    pts = np.random.default_rng(24).uniform(0.5, 2.0, (300, 4))
    for n in (1, 31, 32, 300):
        X = pts[:n]
        vals = np.array([_EVAL_COLUMNS(c, X.T) for c in comps]).reshape(-1, n).T
        grads = np.array([_EVAL_COLUMNS(c, X.T, 1)[1:] for c in comps]).reshape(-1, 4, n).T
        # the number is its float in every row, with +0.0 derivatives
        assert vals[:, 2].tobytes() == np.full(n, 2.5).tobytes()
        assert grads[..., 2].tobytes() == np.zeros((n, 4)).tobytes()
        calls.clear()
        assert field.values_at(X).tobytes() == field._scatter(vals).tobytes()
        assert field.jacobian_at(X).tobytes() == field._scatter(grads).tobytes()
        assert len(calls) == 2 and all(isinstance(a[0], expr.Fused) for a in calls)
    assert field.values_at(pts[0]).tobytes() == field.values_at(pts[:1])[0].tobytes()
    with pytest.raises(SingularEvaluation, match="division by zero in '/' at offset 5"):
        field.values_at(_spliced(pts, [0.0, 1.0, 1.0, 1.0], [7]))


def test_division_by_a_nonzero_constant_has_no_zero_check(monkeypatch):
    sources = _captured_sources(monkeypatch)
    from kyano import kysym

    specs = [geometry.taub_nut(1.0, fs) for fs in (2.0, 4.0)]
    specs += [geometry.const_curvature3(K) for K in (-4.0, 1.0)]
    specs += [geometry.const_curvature3_spherical(1.0), _CUSTOM]
    expr._compile.cache_clear()
    for spec in specs:
        for order, columns in itertools.product((0, 1, 2), (False, True)):
            fused = _components(spec)
            expr._compile.__wrapped__(fused[0].nvars, tuple((e.root, order) for e in fused),
                                      columns)
        if spec.inverse:  # the fused geodesic kernels, exact and sparse, and the run
            _geodesic_kernels(spec)
    _metric_kernels(specs)
    for field in [kysym.taubnut_ky_field(1, 1.0), kysym.constcurv_ky_field(1, 1.0)]:
        fused = field._fused
        for order, columns in itertools.product((0, 1, 2), (False, True)):
            expr._compile.__wrapped__(fused[0].nvars, tuple((e.root, order) for e in fused),
                                      columns)
    assert len(sources) >= 6 * 6 + 2 * 2 + 2 * 6
    checks = 0
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq):
                checks += 1
                with pytest.raises(ValueError):  # the compared operand is no literal
                    ast.literal_eval(node.left)
    assert checks > 0


@pytest.mark.parametrize("src, message", [pytest.param(src, message, id=src) for src, message in [
    ("x1 / 0", "division by zero"), ("x1 / (1 - 1)", "division by zero"),
    ("x1 / -0.0", "division by zero"), ("x1 / (0 * x1)", "division by zero"),
    # a constant divisor that does not fold is a local whose own statement raises first
    ("x1 / sqrt(-1)", "sqrt of a non-positive"), ("x1 / (0^-1)", "zero raised to a negative"),
    ("x1 / sin(sqrt(-1))", "sqrt of a non-positive"),
    ("(x1 + 1) / (2 * sqrt(-4))", "sqrt of a non-positive"),
]])
def test_a_jet_divided_by_zero_still_raises(src, message):
    e = expr.parse_expression(src, 1)
    want = _outcome(jetref.jet, e, [2.0], 1)
    assert want[0] == "raises" and message in want[2]
    for order in (1, 2):
        assert _outcome(jetref.jet, e, [2.0], order) == _outcome(expr._jet, e, [2.0], order)
        cols = np.full((1, expr._COLUMN_ROWS), 2.0)
        assert _outcome(expr.eval_columns, e, cols, order)[2] == want[2]


def test_second_curved_task_compiles_no_kernel(monkeypatch):
    from kyano import kysym

    taubnut, hyperbolic = geometry.taub_nut(1.0), geometry.const_curvature3(-4.0)
    triplet = kysym.taubnut_ky_field(1, 1.0)
    position = kysym.flat_ky_position_field(3)

    def task(rng):
        tn = geometry.sample_points(taubnut, 100, rng)
        hy = geometry.sample_points(hyperbolic, 100, rng)
        kysym.verify_field(taubnut, triplet, tn)
        kysym.verify_field(hyperbolic, position, hy)
        geometry.curvature_at(taubnut, tn[0])
        geometry.curvature_at(hyperbolic, hy[0])

    task(np.random.default_rng(1))
    compiled, looked_up = [], []

    class CountingEmitter(expr._Emitter):
        def __init__(self, *args):
            compiled.append(args)
            super().__init__(*args)

    monkeypatch.setattr(expr, "_Emitter", CountingEmitter)
    # the kernels are held by their metric and field, not looked up by their roots
    monkeypatch.setattr(expr, "_compile", lambda *a: looked_up.append(a))
    task(np.random.default_rng(2))
    assert compiled == [] and looked_up == []


def test_no_kernel_repeats_a_check(monkeypatch):
    # a local is assigned once, so a repeated condition could not fire once its first
    # copy has passed; the run repeats each once per stage, as its accept tests
    sources = _captured_sources(monkeypatch)
    from kyano import kysym

    specs = [geometry.taub_nut(1.0), geometry.const_curvature3(1.0),
             geometry.const_curvature3(-4.0), geometry.const_curvature3_spherical(1.0)]
    fused = [(_components(spec), order)
             for spec in specs for order in (0, 1, 2)]
    fused += [(kysym.taubnut_ky_field(1, 1.0)._fused, order) for order in (0, 1, 2)]
    for (exprs, order), columns in itertools.product(fused, (False, True)):
        expr._compile.__wrapped__(exprs[0].nvars, tuple((e.root, order) for e in exprs), columns)
    for spec in specs[:3]:  # the fused geodesic kernels, exact and sparse, and the run
        _geodesic_kernels(spec)
    _metric_kernels(specs)
    assert len(sources) >= 15 * 2 + 3 * 3
    checks = 0
    for source in sources:
        conditions = [ast.unparse(node.test) for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.If)]
        stages = 4 if source.startswith("def run(") else 1
        assert all(conditions.count(c) == stages for c in conditions), source
        checks += len(conditions)
    assert checks > 3 * 4 * 2  # the runs' two accept tests at each stage, and more


def test_a_column_kernel_frees_each_column_after_its_last_read():
    import tracemalloc

    from kyano import kysym

    field = kysym.taubnut_ky_field(1, 1.0)
    pts = geometry.sample_points(geometry.taub_nut(1.0), 512, np.random.default_rng(0))
    want = np.stack([field.jacobian_at(pt) for pt in pts[:40]])
    field.jacobian_at(pts)  # compiled before tracing
    tracemalloc.start()
    try:
        got = field.jacobian_at(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * 2 ** 20  # every local kept alive peaks at about 2 MiB
    assert got[:40].tobytes() == want.tobytes()


def test_no_kernel_checks_a_constant(monkeypatch):
    # a check on a constant is decided as it is emitted: a raise where it holds, else nothing;
    # so every catalog kernel's check, the curvature kernels' included, reads a slot or a local
    sources = _captured_sources(monkeypatch)
    specs = [geometry.taub_nut(1.0, fs) for fs in (2.0, 4.0)]
    specs += [geometry.const_curvature3(K) for K in (-4.0, 0.0, 1.0)]
    specs += [geometry.const_curvature3_spherical(1.0), geometry.flat(3), _CUSTOM]
    for (exprs, _), order, columns in itertools.product(_fused_cases(), (0, 1, 2), (False, True)):
        expr._compile.__wrapped__(exprs[0].nvars, tuple((e.root, order) for e in exprs), columns)
    for spec, columns in itertools.product(specs, (False, True)):
        expr._function(spec.dim, *geometry._curvature_source(spec, columns)[:2], columns)
        if spec.inverse and not columns:
            _geodesic_kernels(spec)
    _metric_kernels(specs)
    e = expr.parse_expression("2^x1 + sqrt(x1) + x1^-1 + tan(1) * x1", 1)
    for order, columns in itertools.product((0, 1, 2), (False, True)):
        expr._compile.__wrapped__(1, ((e.root, order),), columns)
    assert len(sources) >= 18 * 6 + 8 * 2 + 5 * 3 + 6
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.If):
                names = [n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)]
                assert any(re.fullmatch(r"[st]\d+|s", name) for name in names), (
                    ast.unparse(node), source)
    # order 1 on floats: no check of the constant base 2, one each for sqrt(x1) and x1^-1
    source = sources[-4]
    assert source.count("if ") == 2 and "if s0 <= 0.0" in source and "if s0 == 0.0" in source
