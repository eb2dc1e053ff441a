"""Metric catalog: values, Christoffels, curvature, duality, serialization."""

import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kyano import expr, geometry, kysym, report
from kyano.errors import DomainError, KyanoError, SingularEvaluation, SingularMetric
from kyano.fields import AntisymTensorField

CATALOG = (
    geometry.flat(3),
    geometry.flat(4),
    geometry.const_curvature3(1.0),
    geometry.const_curvature3(-1.0),
    geometry.taub_nut(1.0),
)


def sample(spec, count, seed=0):
    return geometry.sample_points(spec, count, np.random.default_rng(seed))


# -- metric values ----------------------------------------------------------


def test_flat_metric_identity():
    g = geometry.metric_at(geometry.flat(3), [0.3, -2.0, 5.0])
    assert np.array_equal(g, np.eye(3))


def test_const_curvature_zero_k_is_flat():
    g = geometry.metric_at(geometry.const_curvature3(0.0), [0.7, 0.1, -0.4])
    assert np.abs(g - np.eye(3)).max() < 1e-15


def test_const_curvature_direct_substitution():
    # K=4 at r=1: conformal factor (1 + 4/4)^-2 = 1/4
    g = geometry.metric_at(geometry.const_curvature3(4.0), [1.0, 0.0, 0.0])
    assert np.abs(g - 0.25 * np.eye(3)).max() < 1e-15
    ginv = geometry.inverse_metric_at(geometry.const_curvature3(4.0), [1.0, 0.0, 0.0])
    assert np.abs(ginv - 4.0 * np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.kind + str(s.dim))
def test_metric_symmetric_and_inverse(spec):
    for pt in sample(spec, 10):
        g = geometry.metric_at(spec, pt)
        assert np.array_equal(g, g.T)
        ginv = geometry.inverse_metric_at(spec, pt)
        assert np.abs(g @ ginv - np.eye(spec.dim)).max() < 1e-12


@pytest.mark.parametrize("spec", [geometry.taub_nut(m, fs) for m in (0.7, 1.0, 2.5)
                                  for fs in (2.0, 4.0)]
                         + [geometry.const_curvature3(K) for K in (-4.0, -1.0, 0.5, 1.0)]
                         + [geometry.flat(4)],
                         ids=lambda s: f"{s.kind}:{s.params}")
def test_closed_form_inverse_inverts_the_metric(spec):
    X = sample(spec, 1000, seed=5)
    g = geometry.metric_components_at(spec, X)
    ginv = geometry.metric_components_at(dataclasses.replace(spec, components=spec.inverse), X)
    assert np.abs(g @ ginv - np.eye(spec.dim)).max() <= 1e-14


def test_custom_metrics_have_no_closed_form_inverse():
    spherical = geometry.const_curvature3_spherical(1.0)
    assert spherical.inverse is None
    assert geometry.load_manifold(geometry.dump_manifold(spherical)).inverse is None
    assert geometry.load_manifold(geometry.dump_manifold(geometry.taub_nut(1.0))).inverse \
        == geometry.taub_nut(1.0).inverse


def test_singular_custom_metric():
    spec = geometry.custom([["x1", "0"], ["0", "1"]])
    with pytest.raises(SingularMetric):
        geometry.inverse_metric_at(spec, [0.0, 1.0])
    assert issubclass(SingularMetric, DomainError)


def _svd_rejects(g):
    # the singular-metric test metric_at made before the max-abs bound
    s = np.linalg.svd(g, compute_uv=False)
    return s[0] == 0.0 or s[-1] <= s[0] * 1e-13


def _symmetric(singular_values, signs, seed):
    n = len(singular_values)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    g = q @ np.diag(np.multiply(singular_values, signs)) @ q.T
    return 0.5 * (g + g.T)


@pytest.mark.parametrize("eps", [1e-12, 1e-13, 1e-14, 1e-15, 1e-16])
def test_condition_bound_rejects_what_the_svd_test_rejected(eps):
    for g in (np.diag([1.0, eps]), _symmetric([3.0, 1.0, 0.5, eps], [1, -1, 1, 1], seed=7)):
        assert _svd_rejects(g) == (eps < 1e-12)
        if _svd_rejects(g):
            with pytest.raises(SingularMetric):
                geometry._invert(g)


@settings(max_examples=200, deadline=None)
@given(
    exponents=st.lists(st.floats(-17.0, 3.0), min_size=1, max_size=6),
    signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_condition_bound_is_at_least_as_strict_as_svd(exponents, signs, seed):
    g = _symmetric(10.0 ** np.array(exponents), signs[: len(exponents)], seed)
    if _svd_rejects(g):
        with pytest.raises(SingularMetric):
            geometry._invert(g)


def _exact_entry_checks(g, ginv, n):
    """The message of the exact checks on closed-form entries, or None if they pass."""
    if not all(map(math.isfinite, g)):
        return "metric evaluated to non-finite components"
    if not (all(map(math.isfinite, ginv))
            and max(map(abs, g)) * max(map(abs, ginv)) < geometry.SINGULAR_BOUND / n ** 2):
        return "metric matrix is singular at this point"
    return None


_ENTRIES = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e154, 1.7e308, math.inf, -math.inf,
                     math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)), min_size=1, max_size=10)


@settings(max_examples=200, deadline=None)
@given(g=_ENTRIES, ginv=_ENTRIES, n=st.integers(1, 4))
def test_entry_accept_test_implies_the_exact_checks(g, ginv, n):
    # the Sigma * Sigma test that _check_entries and the compiled RK4 step run first
    if sum(map(abs, g)) * sum(map(abs, ginv)) < geometry.SINGULAR_BOUND / n ** 2:
        assert _exact_entry_checks(g, ginv, n) is None
    want = _exact_entry_checks(g, ginv, n)
    if want is None:
        geometry._check_entries(g, ginv, n)
    else:
        with pytest.raises(SingularMetric) as err:
            geometry._check_entries(g, ginv, n)
        assert str(err.value) == want


def test_guards_on_the_spec_decide_the_domain():
    spec = dataclasses.replace(
        geometry.flat(2), guards=(expr.parse_expression("x1 - x2", 2),
                                  expr.parse_expression("sqrt(x1 + 1)", 2)))
    assert np.array_equal(geometry.metric_at(spec, [1.0, 0.0]), np.eye(2))
    for pt in ([0.0, 1.0], [0.5, 0.5], [-2.0, -3.0]):  # negative, zero, raises
        with pytest.raises(DomainError, match="outside the chart domain"):
            geometry.metric_at(spec, pt)
    pts = sample(spec, 100)
    assert (pts[:, 0] - pts[:, 1] >= 0.1).all() and (np.sqrt(pts[:, 0] + 1) >= 0.1).all()


def test_domain_guards():
    cc = geometry.const_curvature3(-1.0)
    with pytest.raises(DomainError):
        geometry.metric_at(cc, [2.0, 0.0, 0.0])  # 1 + K r^2/4 = 0
    tn = geometry.taub_nut(1.0)
    with pytest.raises(DomainError):
        geometry.metric_at(tn, [-1.0, 1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        geometry.metric_at(tn, [1.0, 0.0, 0.0, 0.0])  # axis
    with pytest.raises(DomainError):
        geometry.metric_at(geometry.flat(3), [np.nan, 0.0, 0.0])


def test_taub_nut_requires_positive_mass():
    with pytest.raises(ValueError):
        geometry.taub_nut(0.0)


# -- Christoffels -----------------------------------------------------------


def test_flat_christoffel_zero():
    gamma = geometry.christoffel_at(geometry.flat(4), [1.0, 2.0, 3.0, 4.0])
    assert np.count_nonzero(gamma) == 0


@pytest.mark.parametrize(
    "spec",
    (geometry.const_curvature3(1.0), geometry.taub_nut(1.0)),
    ids=("const-curvature", "taub-nut"),
)
def test_christoffel_lower_symmetry(spec):
    for pt in sample(spec, 10):
        gamma = geometry.christoffel_at(spec, pt)
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def test_christoffel_finite_difference_oracle():
    spec = geometry.const_curvature3(1.0)
    pt = np.array([0.3, 0.1, -0.2])
    h = 1e-5
    dg = np.zeros((3, 3, 3))
    for a in range(3):
        up, dn = pt.copy(), pt.copy()
        up[a] += h
        dn[a] -= h
        dg[a] = (geometry.metric_at(spec, up) - geometry.metric_at(spec, dn)) / (2 * h)
    ginv = geometry.inverse_metric_at(spec, pt)
    A = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    gamma_fd = 0.5 * np.einsum("ls,smn->lmn", ginv, A)
    gamma = geometry.christoffel_at(spec, pt)
    assert np.abs(gamma - gamma_fd).max() < 1e-6


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.kind + str(s.dim))
def test_metric_compatibility(spec):
    # D_lambda g_mu_nu = 0 for the Levi-Civita connection
    worst = 0.0
    for pt in sample(spec, 100):
        g, dg = geometry.metric_components_at(spec, pt, order=1)
        gamma = geometry.christoffel_at(spec, pt)
        Dg = (
            dg
            - np.einsum("sam,sn->amn", gamma, g)
            - np.einsum("san,ms->amn", gamma, g)
        )
        worst = max(worst, float(np.abs(Dg).max()))
    assert worst <= 1e-10


# -- curvature ----------------------------------------------------------------


@pytest.mark.parametrize("n", (3, 4))
def test_flat_curvature_zero(n):
    cv = geometry.curvature_at(geometry.flat(n), np.arange(1.0, n + 1.0))
    assert np.count_nonzero(cv.riemann) == 0
    assert np.count_nonzero(cv.ricci) == 0
    assert cv.scalar == 0.0


def test_const_curvature_zero_k_curvature():
    cv = geometry.curvature_at(geometry.const_curvature3(0.0), [0.2, 0.3, 0.4])
    assert np.abs(cv.riemann).max() < 1e-12
    assert abs(cv.scalar) < 1e-12


@pytest.mark.parametrize("K", (-1.0, 0.5, 1.0))
def test_scalar_curvature_constant(K):
    # independent symbolic oracle for the conformal metric: R = n(n-1)K = 6K
    spec = geometry.const_curvature3(K)
    for pt in sample(spec, 50, seed=3):
        cv = geometry.curvature_at(spec, pt)
        assert abs(cv.scalar - 6.0 * K) < 1e-6


def test_spherical_chart_scalar_curvature():
    spec = geometry.const_curvature3_spherical(1.0)
    cv = geometry.curvature_at(spec, [0.8, 1.1, 2.0])
    assert abs(cv.scalar - 6.0) < 1e-6


@pytest.mark.parametrize(
    "spec",
    (geometry.const_curvature3(1.0), geometry.const_curvature3(-1.0),
     geometry.taub_nut(1.0)),
    ids=("K=1", "K=-1", "taub-nut"),
)
def test_riemann_symmetries(spec):
    for pt in sample(spec, 10, seed=5):
        cv = geometry.curvature_at(spec, pt)
        # antisymmetry in the last index pair
        assert np.abs(cv.riemann + cv.riemann.swapaxes(2, 3)).max() < 1e-9
        # first Bianchi identity: cyclic sum over the last three indices
        bianchi = (
            cv.riemann
            + cv.riemann.transpose(0, 2, 3, 1)
            + cv.riemann.transpose(0, 3, 1, 2)
        )
        assert np.abs(bianchi).max() < 1e-8
        assert np.abs(cv.ricci - cv.ricci.T).max() < 1e-9
        g = geometry.inverse_metric_at(spec, pt)
        assert abs(cv.scalar - float(np.einsum("mn,mn->", g, cv.ricci))) < 1e-9


# -- dual metric --------------------------------------------------------------


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.kind + str(s.dim))
def test_dual_metric_involution(spec):
    dual = geometry.dual_metric(spec)
    assert dual.momentum_space != spec.momentum_space
    assert geometry.dual_metric(dual) == spec
    assert geometry.dual_metric(spec) is dual  # built once, held by the spec


def test_dual_metric_same_components():
    spec = geometry.const_curvature3(2.0)
    dual = geometry.dual_metric(spec)
    pt = [0.1, 0.2, 0.3]
    assert np.array_equal(
        geometry.metric_at(spec, pt), geometry.metric_at(dual, pt)
    )
    assert dual.chart != spec.chart
    assert all(name.startswith("p") for name in dual.chart)


# -- interning: one object per distinct argument tuple ---------------------------


def test_catalog_constructors_return_one_object_per_argument_tuple():
    assert geometry.taub_nut(1.0) is geometry.taub_nut(1)
    assert geometry.taub_nut(1) is geometry.taub_nut(1.0, fiber_scale=2)
    assert geometry.resolve_manifold("taub-nut:m=1") is geometry.resolve_manifold("taub-nut:m=1")
    assert geometry.taub_nut(1.0, 4.0) is not geometry.taub_nut(1.0)
    assert geometry.flat(3) is geometry.resolve_manifold("flat3")
    assert geometry.const_curvature3(1) is geometry.resolve_manifold("const-curvature")
    assert geometry.const_curvature3_spherical(1) is geometry.const_curvature3_spherical(1.0)
    assert kysym.flat_ky_position_field(4) is kysym.flat_ky_position_field(4)
    assert kysym.taubnut_ky_field(2, 1) is kysym.taubnut_ky_field(2, 1.0)
    assert kysym.constcurv_ky_field(3, 1, momentum=1) is kysym.constcurv_ky_field(3, 1.0, True)
    assert kysym.constcurv_ky_field(3, 1.0) is not kysym.constcurv_ky_field(3, 1.0, True)
    geometry.flat(2)
    with pytest.raises(TypeError):  # 2.0 keys apart from 2, so it fails as it always did
        geometry.flat(2.0)


def test_interning_keeps_negative_zero_apart_from_zero():
    pos, neg = geometry.const_curvature3(0.0), geometry.const_curvature3(-0.0)
    assert neg is not pos
    dumps = [json.dumps(geometry.dump_manifold(spec)) for spec in (pos, neg)]
    assert dumps[0] != dumps[1] and '"K": -0.0' in dumps[1]
    fields = [kysym.constcurv_ky_field(1, K).to_dict()["components"]["12"] for K in (0.0, -0.0)]
    assert "-0.0" not in fields[0] and "(-0.0)" in fields[1]


def test_intern_caches_are_lrus_with_their_stated_bounds():
    constructors = (geometry.flat, geometry.const_curvature3, geometry.const_curvature3_spherical,
                    geometry.taub_nut, kysym.flat_ky_position_field, kysym.taubnut_ky_field,
                    kysym.constcurv_ky_field)
    assert [f.cache_info().maxsize for f in constructors] == [8, 32, 32, 32, 8, 32, 32]
    first = geometry.const_curvature3(100.0)
    for K in range(40):  # more distinct specs than the bound
        geometry.const_curvature3(1000.0 + K)
    assert geometry.const_curvature3.cache_info().currsize == 32
    assert geometry.const_curvature3(100.0) is not first  # evicted, so built anew
    assert geometry.const_curvature3(1039.0) is geometry.const_curvature3(1039)


def test_flat_dimension_is_bounded_before_the_grid_is_built():
    assert 1200 <= geometry.FLAT_MAX_DIM == 2048
    n = geometry.FLAT_MAX_DIM + 1
    before = geometry.flat.cache_info().currsize
    tracemalloc.start()
    try:
        for build in (lambda: geometry.flat(n), lambda: geometry.resolve_manifold("flat100000"),
                      lambda: geometry.load_manifold({"kind": "flat", "dim": 100000})):
            with pytest.raises(ValueError, match="flat dimension [0-9]+ exceeds the bound 2048"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # an n x n grid of pointers would take 8 n^2 bytes
    assert geometry.flat.cache_info().currsize == before


# -- serialization and resolution ---------------------------------------------


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.kind + str(s.dim))
def test_manifold_roundtrip(spec):
    clone = geometry.load_manifold(geometry.dump_manifold(spec))
    assert clone.kind == spec.kind
    assert clone.dim == spec.dim
    assert clone.params == spec.params
    for pt in sample(spec, 5, seed=9):
        assert np.abs(
            geometry.metric_at(clone, pt) - geometry.metric_at(spec, pt)
        ).max() < 1e-15


def test_custom_manifold_roundtrip():
    spec = geometry.custom([["1 + x2^2", "x1*x2"], ["x1*x2", "2"]],
                           chart=("u", "v"))
    clone = geometry.load_manifold(geometry.dump_manifold(spec))
    assert clone.chart == ("u", "v")
    dual = geometry.load_manifold(geometry.dump_manifold(geometry.dual_metric(spec)))
    assert dual.chart == ("p_u", "p_v") and dual.momentum_space
    for pt in ([0.3, 0.4], [1.0, -1.0]):
        assert np.abs(
            geometry.metric_at(clone, pt) - geometry.metric_at(spec, pt)
        ).max() < 1e-15


def test_manifold_file_roundtrip(tmp_path):
    import json

    path = tmp_path / "m.json"
    path.write_text(json.dumps(geometry.dump_manifold(geometry.taub_nut(2.0))))
    spec = geometry.load_manifold(str(path))
    assert spec.kind == "taub-nut"
    assert spec.param("m") == 2.0


@pytest.mark.parametrize("kind, key, value", [
    ("const-curvature", "K", math.nan),
    ("const-curvature", "K", math.inf),
    ("taub-nut", "m", -math.inf),
])
def test_load_manifold_rejects_non_finite_params(kind, key, value):
    with pytest.raises(KyanoError, match=f"'{key}' must be finite"):
        geometry.load_manifold({"kind": kind, "params": {key: value}})


def test_resolve_manifold_names():
    assert geometry.resolve_manifold("flat5").dim == 5
    assert geometry.resolve_manifold("const-curvature:K=2").param("K") == 2.0
    tn = geometry.resolve_manifold("taub-nut:m=2,fiber_scale=4")
    assert tn.param("m") == 2.0 and tn.param("fiber_scale") == 4.0
    with pytest.raises(KyanoError):
        geometry.resolve_manifold("torus")


def test_sample_points_respect_domain():
    spec = geometry.const_curvature3(-1.0)
    pts = sample(spec, 200, seed=1)
    for pt in pts:
        r_sq = float(np.dot(pt, pt))
        assert abs(1.0 - r_sq / 4.0) >= 0.1 - 1e-12
    tn = geometry.taub_nut(1.0)
    for pt in sample(tn, 50, seed=2):
        assert pt[0] > 0
        assert abs(math.sin(pt[1])) > 1e-9
    # a box reaching the Taub-NUT guards keeps the sampler's 0.1 margin to them
    box = [(-0.5, 1.0), (-0.5, 0.5), (0.0, 1.0), (0.0, 1.0)]
    for pt in geometry.sample_points(tn, 50, np.random.default_rng(3), box=box):
        assert pt[0] >= 0.1 and abs(math.sin(pt[1])) >= 0.1


def test_sample_points_deterministic():
    a = sample(geometry.taub_nut(1.0), 10, seed=4)
    b = sample(geometry.taub_nut(1.0), 10, seed=4)
    assert np.array_equal(np.asarray(a), np.asarray(b))


def test_spherical_chart_samples_keep_off_its_singular_loci():
    for K in (1.0, -1.0, -4.0):
        spec = geometry.const_curvature3_spherical(K)
        for box in (None, [(-1.0, 2.0), (-0.5, 3.5), (0.0, 6.0)]):
            pts = geometry.sample_points(spec, 200, np.random.default_rng(0), box=box)
            assert pts[:, 0].min() >= 0.1
            assert np.abs(np.sin(pts[:, 1])).min() >= 0.1
            assert np.abs(1.0 + K * pts[:, 0] ** 2 / 4.0).min() >= 0.1 - 1e-12
    with pytest.raises(DomainError):
        geometry.metric_at(geometry.const_curvature3_spherical(1.0), [-0.8, 1.1, 2.0])


def test_curvature_evaluates_the_metric_once_per_point(monkeypatch):
    # the metric's 2-jet is the curvature kernel's own: no separate metric evaluation, and
    # one kernel call per point, or one over the columns of a block
    orders, calls = [], []
    inner = geometry._metric

    def counting(spec, X, order=0, inverse=False):
        orders.append(order)
        return inner(spec, X, order, inverse)

    specs = (geometry.const_curvature3(-1.0), geometry.taub_nut(1.0))
    blocks = [sample(spec, 40) for spec in specs]
    monkeypatch.setattr(geometry, "_metric", counting)
    for spec, X in zip(specs, blocks):
        for columns in (False, True):
            kernel, gathers = geometry._curvature_kernel(spec, columns)
            monkeypatch.setitem(spec._tables, ("curvature", columns), (
                lambda s, kernel=kernel, columns=columns: calls.append(columns) or kernel(s),
                gathers))
        for points, want in ((X[0], [False]), (X[:5], [False] * 5), (X, [True])):
            calls.clear()
            geometry.curvature_at(spec, points)
            assert orders == [] and calls == want


@pytest.mark.parametrize(
    "g",
    [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, math.nan], [math.nan, 1.0]],
     [[1.0, 0.0], [0.0, math.inf]], [[1.0, 0.0], [0.0, 1e-14]]],
    ids=["singular", "zero", "nan-entry", "inf-entry", "near-singular"],
)
def test_invert_rejects_without_a_warning(g):
    # the inverse gufunc returns NaN and flags invalid where np.linalg.inv raised;
    # no caller may see that as a warning or a FloatingPointError
    g = np.array(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for errors in ("warn", "raise"):
            with np.errstate(all=errors):
                with pytest.raises(SingularMetric):
                    geometry._invert(g)
                with pytest.raises(SingularMetric):
                    geometry._invert(np.stack([np.eye(2), g, np.eye(2)]))


def test_invert_matches_numpy_inverse():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        stack = rng.normal(size=(20, n, n)) + 3.0 * np.eye(n)
        got = geometry._invert(stack)
        assert got.tobytes() == np.linalg.inv(stack).tobytes()
        for g, ginv in zip(stack, got):
            assert geometry._invert(g).tobytes() == ginv.tobytes()


# -- row paths: the block sampler and metric stacks ------------------------------


def _ref_sample_points(spec, count, rng, box=None):
    """The per-draw sampler the block sampler replaced."""
    box = geometry.default_box(spec) if box is None else box
    lo, hi = np.array([b[0] for b in box]), np.array([b[1] for b in box])
    out = np.empty((count, spec.dim))
    produced = attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 1000 * max(count, 1):
            raise DomainError("sampling box appears to be mostly inadmissible")
        pt = lo + (hi - lo) * rng.random(spec.dim)
        try:
            geometry._check_guards(spec, pt.tolist(), 0.1)
            geometry.metric_at(spec, pt)
        except (DomainError, SingularEvaluation):
            continue
        out[produced] = pt
        produced += 1
    return out


def _draw_and_next(sampler, spec, count, seed, box):
    rng = np.random.default_rng(seed)
    try:
        pts = sampler(spec, count, rng, box=box).tobytes()
    except DomainError as e:
        pts = str(e)
    return pts, rng.random()


SPHERICAL_REPORT_BOX = [(0.4, 1.6), (0.4, np.pi - 0.4), (0.2, 2 * np.pi - 0.2)]


@pytest.mark.parametrize(
    "spec, count, box",
    [
        (geometry.taub_nut(1.0), 100, None),
        (geometry.const_curvature3(-4.0), 100, None),
        (geometry.const_curvature3_spherical(1.0), 20, SPHERICAL_REPORT_BOX),
        # about one draw in a hundred is admissible
        (geometry.taub_nut(1.0), 30, [(-10.0, 0.2), (0.3, 2.8), (0.0, 6.0), (0.0, 12.0)]),
        # the metric raises on half the box, so single rows decide
        (geometry.custom([["sqrt(x1 - 5)", "0"], ["0", "1"]]), 40, [(4.0, 6.0), (-1.0, 1.0)]),
        # nothing is admissible: both give up after the same 3000 draws
        (geometry.taub_nut(1.0, 0.0), 3, None),
    ],
    ids=["taub-nut", "K=-4", "spherical-report-box", "sparse", "raising-metric", "inadmissible"],
)
def test_block_sampler_keeps_the_per_draw_stream(spec, count, box):
    for seed in (0, 1, 2):
        want = _draw_and_next(_ref_sample_points, spec, count, seed, box)
        assert _draw_and_next(geometry.sample_points, spec, count, seed, box) == want


def _ref_christoffel_and_partial(spec, point):
    """The per-point body the one batched body replaced."""
    g, dg, d2g = geometry.metric_components_at(spec, point, order=2)
    ginv = geometry._invert(g)
    dginv = -((ginv[None] @ dg) @ ginv[None])
    dgs = dg.swapaxes(-3, -2)
    A = dgs + dgs.swapaxes(-2, -1) - dg
    gamma = 0.5 * np.einsum("...ls,...smn->...lmn", ginv, A)
    dA = d2g.transpose(0, 2, 1, 3) + d2g.transpose(0, 2, 3, 1) - d2g
    dgamma = 0.5 * (
        np.einsum("als,smn->almn", dginv, A)
        + np.einsum("ls,asmn->almn", ginv, dA)
    )
    return gamma, dgamma, ginv


def _ref_curvature(spec, point):
    """The einsum chain the compiled curvature kernel replaced: Riemann, Ricci and scalar."""
    gamma, dgamma, ginv = _ref_christoffel_and_partial(spec, point)
    term1 = dgamma.transpose(1, 3, 0, 2)
    term3 = np.einsum("rml,lns->rsmn", gamma, gamma)
    riemann = term1 - term1.swapaxes(2, 3) + term3 - term3.swapaxes(2, 3)
    ricci = np.einsum("rsrn->sn", riemann)
    return riemann, ricci, float(np.einsum("sn,sn->", ginv, ricci))


def _ref_term_scale(spec, point):
    """The scale of the terms that each entry of :func:`_ref_curvature` sums: the same chain
    on the magnitudes of g^-1 and of the metric jet, every difference a sum."""
    g, dg, d2g = (abs(a) for a in geometry.metric_components_at(spec, point, order=2))
    ginv = abs(geometry._invert(geometry.metric_at(spec, point)))
    dgs = dg.swapaxes(-3, -2)
    A = dgs + dgs.swapaxes(-2, -1) + dg
    dA = d2g.transpose(0, 2, 1, 3) + d2g.transpose(0, 2, 3, 1) + d2g
    dginv = (ginv[None] @ dg) @ ginv[None]
    gamma = 0.5 * np.einsum("ls,smn->lmn", ginv, A)
    dgamma = 0.5 * (np.einsum("als,smn->almn", dginv, A) + np.einsum("ls,asmn->almn", ginv, dA))
    term1 = dgamma.transpose(1, 3, 0, 2)
    term3 = np.einsum("rml,lns->rsmn", gamma, gamma)
    riemann = term1 + term1.swapaxes(2, 3) + term3 + term3.swapaxes(2, 3)
    ricci = np.einsum("rsrn->sn", riemann)
    return riemann, ricci, float(np.einsum("sn,sn->", ginv, ricci))


def _assert_near_reference(cv, spec, point, rel=1e-12):
    """Riemann, Ricci and the scalar of ``cv`` within ``rel`` of the reference, relative to the
    scale of each entry's terms; Riemann antisymmetric in its last pair, each entry the exact
    negation of its twin, and its structural zeros, such as R^r_smm, +0.0."""
    for got, want, scale in zip((cv.riemann, cv.ricci, cv.scalar), _ref_curvature(spec, point),
                                _ref_term_scale(spec, point)):
        assert np.all(abs(got - want) <= rel * scale), (point, got, want)
    assert np.array_equal(cv.riemann, -cv.riemann.swapaxes(-2, -1))
    assert not np.signbit(np.diagonal(cv.riemann, axis1=-2, axis2=-1)).any()


def _geometry_at(spec, X):
    """Every quantity the geometry functions return at ``X``, as arrays."""
    jets = [geometry.metric_components_at(spec, X)]
    jets += [*geometry.metric_components_at(spec, X, 1), *geometry.metric_components_at(spec, X, 2)]
    cv = geometry.curvature_at(spec, X)
    return [*jets, geometry.metric_at(spec, X), geometry.inverse_metric_at(spec, X),
            geometry.christoffel_at(spec, X), cv.riemann, cv.ricci, np.asarray(cv.scalar)]


@pytest.mark.parametrize(
    "spec",
    [geometry.taub_nut(1.0), geometry.taub_nut(1.0, 4.0), geometry.const_curvature3(-4.0),
     geometry.const_curvature3(1.0), geometry.const_curvature3_spherical(1.0), geometry.flat(4),
     geometry.custom([["1", "0"], ["0", "x1^2"]])],
    ids=["taub-nut", "taub-nut-fs4", "K=-4", "K=1", "spherical", "flat4", "custom"],
)
def test_metric_rows_and_christoffels_match_the_per_point_path(spec):
    X = sample(spec, 300, seed=8)
    # at a point: the Christoffels and curvature of the per-point body
    ref = []
    for x in X:
        cv = geometry.curvature_at(spec, x)
        assert isinstance(cv.scalar, float)
        gamma = _ref_christoffel_and_partial(spec, x)[0]
        _assert_near_reference(cv, spec, x)  # the kernel sums in its own order
        assert geometry.christoffel_at(spec, x).tobytes() == gamma.tobytes()
        ref.append(_geometry_at(spec, x))
    # at a block: row by row the point's bytes, on both sides of the column threshold
    for N in (0, 1, 31, 32, 300):
        got = _geometry_at(spec, X[:N])
        assert got[-1].shape == (N,)
        for k, stack in enumerate(got):
            want = np.array([r[k] for r in ref[:N]]) if N else np.empty((0,) + ref[0][k].shape)
            assert stack.shape == want.shape and stack.dtype == want.dtype, (N, k)
            assert np.ascontiguousarray(stack).tobytes() == want.tobytes(), (N, k)


_CURVATURE_CUSTOM = [
    geometry.custom([["1 + x1^2", "0", "0"], ["0", "exp(x2)", "0"], ["0", "0", "2 + sin(x1*x3)"]]),
    geometry.custom([["2 + x2^2", "x1*x2/4", "0"], ["x1*x2/4", "3 + cos(x3)", "x3/5"],
                     ["0", "x3/5", "1 + x1^2"]]),
]


_CURVATURE_SPECS = st.one_of(
    st.builds(geometry.taub_nut, st.floats(0.5, 3.0), st.sampled_from([2.0, 4.0])),
    # a subnormal K underflows, where no relative bound holds
    st.builds(geometry.const_curvature3, st.floats(-4.0, 1.0, allow_subnormal=False)),
    st.builds(geometry.const_curvature3_spherical, st.floats(-4.0, 1.0, allow_subnormal=False)),
    st.builds(geometry.flat, st.integers(3, 6)),
    st.sampled_from(_CURVATURE_CUSTOM),
)


@given(spec=_CURVATURE_SPECS, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_curvature_kernel_matches_the_einsum_chain(spec, seed):
    # the kernel against the einsum chain, and on the conformal chart against the closed form
    # R^r_smn = K (delta^r_m g_sn - delta^r_n g_sm), each relative to the entry's term scale
    X = sample(spec, 4, seed)
    for x, cv in zip(X, [geometry.curvature_at(spec, x) for x in X]):
        _assert_near_reference(cv, spec, x)
        if spec.kind == "const-curvature":
            K, g, delta = spec.param("K"), geometry.metric_at(spec, x), np.eye(3)
            want = K * (np.einsum("rm,sn->rsmn", delta, g) - np.einsum("rn,sm->rsmn", delta, g))
            assert (abs(cv.riemann - want) <= 1e-12 * _ref_term_scale(spec, x)[0]).all()


def _eager_gathers(spec):
    """Riemann's indices and signs and Ricci's indices into every kernel output, over the full
    n^4 and n^2 grids; a structural zero indexes the kernel's trailing 0.0 output."""
    n, (_, _, riemann, ricci) = spec.dim, geometry._curvature_source(spec)
    ridx, rsign = np.full((n,) * 4, -1, dtype=np.intp), np.ones((n,) * 4)
    for k, (r, s, m, q) in enumerate(riemann):
        ridx[r, s, m, q] = ridx[r, s, q, m] = k
        rsign[r, s, q, m] = -1.0
    cidx = np.full((n, n), -1, dtype=np.intp)
    for k, sq in enumerate(ricci, len(riemann)):
        cidx[sq] = k
    return ridx, rsign, cidx


def _eager_curvature(spec, X, gathers):
    """Riemann, Ricci and the scalar of the kernel's outputs at ``X``, gathered eagerly."""
    ridx, rsign, cidx = gathers
    kernel = geometry._curvature_kernel(spec)[0]
    if X.ndim == 1:
        out = geometry._checked(spec, kernel, X.tolist())
        return np.array(out)[ridx] * rsign, np.array(out)[cidx], out[-2]
    vals = (np.array([geometry._checked(spec, kernel, x) for x in X.tolist()])
            if 0 < len(X) < expr._COLUMN_ROWS else geometry._curvature_columns(spec, X).T)
    return vals[..., ridx] * rsign, vals[..., cidx], vals[:, -2].copy()


@given(spec=_CURVATURE_SPECS, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_curvature_reads_are_the_eager_gathers_bytewise(spec, seed):
    # at a point and at blocks on both sides of the column threshold: each array the eager
    # gather's bytes, each structural zero +0.0, and Riemann antisymmetric in its last pair
    X = sample(spec, 300, seed)
    gathers = _eager_gathers(spec)
    ridx, _, cidx = gathers
    for points in (X[0], *(X[:N] for N in (0, 1, 31, 32, 300))):
        cv = geometry.curvature_at(spec, points)
        want = _eager_curvature(spec, points, gathers)
        assert type(cv.scalar) is type(want[2])
        for got, ref in zip((cv.riemann, cv.ricci, cv.scalar), want):
            got, ref = np.asarray(got), np.asarray(ref)
            assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
            assert got.tobytes() == ref.tobytes()
        assert np.array_equal(cv.riemann, -cv.riemann.swapaxes(-2, -1))
        for array, zeros in ((cv.riemann, ridx < 0), (cv.ricci, cidx < 0)):
            assert not array[..., zeros].any() and not np.signbit(array[..., zeros]).any()


def test_a_scalar_read_builds_no_array_and_each_array_is_built_once(monkeypatch):
    built, scattered = [], geometry.CurvatureValue._scattered
    monkeypatch.setattr(geometry.CurvatureValue, "_scattered",
                        lambda cv, *args: built.append(scattered(cv, *args)) or built[-1])
    spec = geometry.taub_nut(1.0)
    X = sample(spec, 40)
    for points in (X[0], X[:5], X):
        built.clear()
        cv = geometry.curvature_at(spec, points)
        assert cv.scalar is cv.scalar and built == []
        assert cv.riemann is cv.riemann and cv.ricci is cv.ricci
        assert len(built) == 2 and built[0] is cv.riemann and built[1] is cv.ricci


def test_a_flat32_scalar_read_holds_under_a_mebibyte():
    # the curvature layout grows with the emitted entries, not as n^4: flat(32) has none
    x = np.arange(1.0, 33.0)
    tracemalloc.start()
    try:
        cv = geometry.curvature_at(geometry.flat(32), x)
        assert cv.scalar == 0.0
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20
    assert cv.riemann.shape == (32,) * 4 and not cv.riemann.any()


def test_a_non_finite_witness_raises_instead_of_returning_nan_entries():
    # d2g overflows where g and g^-1 are finite: the einsum chain gave NaN entries, where
    # the kernel skips the products of a zero g^-1 entry and the witness holds the factor
    spec = geometry.custom([["2 + sin(1e300 * x1)", "0"], ["0", "1"]])
    x = [1.0, 0.5]
    with np.errstate(all="ignore"):
        assert np.isnan(_ref_curvature(spec, x)[0]).any()
    for X in (x, [x] * 5, [x] * 40):  # at a point, per point and over columns
        with pytest.raises(SingularMetric, match="^curvature terms are not finite at this point$"):
            geometry.curvature_at(spec, X)


@pytest.mark.parametrize("N", [1, 5, 40])
def test_a_singular_or_outside_row_raises_on_every_curvature_path(N):
    # at a point, per point and over columns: a row inside the guards where g is singular, and
    # one outside a guard, raise the error of the per-point call
    spec = geometry.taub_nut(1.0)
    for bad, error, message in [([1.3, 1e-6, 0.3, 0.1], SingularMetric, "metric matrix is singular"),
                                ([1.3, 1e-10, 0.3, 0.1], DomainError, "outside the chart domain")]:
        X = sample(spec, N, seed=2)
        X[N // 2] = bad
        with pytest.raises(error, match=message):
            geometry.curvature_at(spec, X if N > 1 else X[0])


def _ref_section_const_curvature(rng, samples):
    """The report's const-curvature section with one curvature call per point."""
    per_k, ok = {}, True
    for K in (-1.0, 0.5, 1.0):
        spec = geometry.const_curvature3(K)
        points = geometry.sample_points(spec, samples, rng)
        worst = float(np.max([abs(geometry.curvature_at(spec, pt).scalar - 6.0 * K)
                              for pt in points]))
        ok = ok and worst <= 1e-8
        per_k[f"K={K:g}"] = {"max_deviation_from_6K": worst, "n_points": samples,
                             "pass": worst <= 1e-8}
    flat_worst = float(np.max([
        np.abs(geometry.curvature_at(spec, pt).riemann).max()
        for spec in (geometry.flat(3), geometry.flat(4))
        for pt in rng.uniform(-1.0, 1.0, (10, spec.dim))
    ]))
    return {"per_curvature": per_k, "flat_max_riemann": flat_worst,
            "flat_pass": flat_worst <= 1e-12, "pass": ok and flat_worst <= 1e-12}


@pytest.mark.parametrize("samples", [7, 50])
def test_const_curvature_section_matches_the_per_point_reference(samples):
    for seed in range(6):
        got = report.section_const_curvature(np.random.default_rng(seed), samples)
        want = _ref_section_const_curvature(np.random.default_rng(seed), samples)
        assert json.dumps(got) == json.dumps(want)


def _first_error(fn, spec, X):
    """The type and message of the first row of ``X`` at which ``fn`` raises per point."""
    for x in X:
        try:
            fn(spec, x)
        except KyanoError as e:
            return type(e), str(e)
    return None


@pytest.mark.parametrize("N", [6, 40])
def test_a_block_raises_its_first_failing_rows_error(N):
    spec = geometry.taub_nut(1.0)
    good = sample(spec, N, seed=3)
    bad = {"guard": [-1.0, 1.0, 0.3, 0.1],  # r < 0
           "singular": [1.3, 1e-6, 0.3, 0.1],  # inside the guard, singular g
           "nan": [1.3, np.nan, 0.3, 0.1]}
    functions = (geometry.metric_components_at, geometry.metric_at, geometry.inverse_metric_at,
                 geometry.christoffel_at, geometry.curvature_at,
                 lambda s, x: geometry.metric_components_at(s, x, 2))
    seen = set()
    for order in itertools.permutations(bad):
        X = good.copy()
        X[[1, 3, 5]] = [bad[k] for k in order]
        for fn in functions:
            want = _first_error(fn, spec, X)
            seen.add(want)
            with pytest.raises(KyanoError) as got:
                fn(spec, X)
            assert (type(got.value), str(got.value)) == want, (order, fn)
    assert len(seen) == 3  # each bad row is the first to fail somewhere


def test_custom_domain_round_trips_through_the_manifold_file():
    spec = geometry.const_curvature3_spherical(1.0)
    loaded = geometry.load_manifold(json.loads(json.dumps(geometry.dump_manifold(spec))))
    assert [str(g) for g in loaded.guards] == [str(g) for g in spec.guards]
    assert loaded.box == spec.box
    with pytest.raises(DomainError, match="x1 < 1e-09"):
        geometry.metric_at(loaded, [0.0, 1.0, 1.0])
    a, b = (geometry.sample_points(s, 50, np.random.default_rng(4)) for s in (spec, loaded))
    assert a.tobytes() == b.tobytes()


def test_custom_box_is_the_default_sampling_box():
    spec = geometry.load_manifold({"kind": "custom", "metric": [["1", "0"], ["0", "1"]],
                                   "box": [[5, 6], [-3.5, -3.25]]})
    assert spec.box == ((5.0, 6.0), (-3.5, -3.25))
    pts = geometry.sample_points(spec, 40, np.random.default_rng(2))
    assert (pts.min(axis=0) >= [5.0, -3.5]).all() and (pts.max(axis=0) <= [6.0, -3.25]).all()
    assert geometry.dump_manifold(spec)["box"] == [[5.0, 6.0], [-3.5, -3.25]]


@pytest.mark.parametrize("box", [
    [[0, 1]], [[0, 1], [0, 1], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [1, 1]],
    [[0, 1], [0, "2"]], [[0, 1], [0, 1, 2]], [[0, 1], [True, 2]], [[0, 1], [0, math.inf]],
    [[0, 1], [math.nan, 1]], [[0, 1], [0, 10 ** 400]], None, {"x1": [0, 1]}, "[[0, 1]]",
])
def test_custom_box_must_be_finite_increasing_pairs(box):
    with pytest.raises(KyanoError, match="'box' must be a list of 2 \\[lo, hi\\] pairs"):
        geometry.load_manifold({"kind": "custom", "metric": [["1", "0"], ["0", "1"]],
                                "box": box})


@pytest.mark.parametrize("obj, key", [
    ({"kind": "taub-nut", "domain": ["x1 - 5"]}, "domain"),
    ({"kind": "taub-nut", "metric": [["1"]]}, "metric"),
    ({"kind": "const-curvature", "chart": ["r", "s", "t"]}, "chart"),
    ({"kind": "flat", "dim": 2, "box": [[0, 1], [0, 1]]}, "box"),
    ({"kind": "flat", "dim": 2, "momentum": True}, "momentum"),
    ({"kind": "custom", "metric": [["1"]], "domains": ["x1"]}, "domains"),
])
def test_load_manifold_rejects_keys_it_does_not_read(obj, key):
    with pytest.raises(KyanoError, match=f"manifold key '{key}' is not read"):
        geometry.load_manifold(obj)


@pytest.mark.parametrize("domain", ["x1", [1], [["x1"]], {"x1": 1}])
def test_custom_domain_must_be_a_list_of_expressions(domain):
    with pytest.raises(KyanoError, match="'domain' must be a list of expression strings"):
        geometry.load_manifold({"kind": "custom", "metric": [["1"]], "domain": domain})
