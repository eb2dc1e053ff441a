"""Metric catalog: values, Christoffels, curvature, duality, serialization."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kyano import expr, geometry
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


def test_dual_metric_same_components():
    spec = geometry.const_curvature3(2.0)
    dual = geometry.dual_metric(spec)
    pt = [0.1, 0.2, 0.3]
    assert np.array_equal(
        geometry.metric_at(spec, pt), geometry.metric_at(dual, pt)
    )
    assert dual.chart != spec.chart
    assert all(name.startswith("p") for name in dual.chart)


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
    orders = []
    inner = geometry.metric_components_at

    def counting(spec, point, order=0):
        orders.append(order)
        return inner(spec, point, order)

    specs = (geometry.const_curvature3(-1.0), geometry.taub_nut(1.0))
    points = [sample(spec, 1)[0] for spec in specs]
    monkeypatch.setattr(geometry, "metric_components_at", counting)
    for spec, point in zip(specs, points):
        orders.clear()
        geometry.curvature_at(spec, point)
        assert orders == [2]


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
            geometry._check_point(spec, pt, 0.1)
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


@pytest.mark.parametrize(
    "spec",
    [geometry.taub_nut(1.0), geometry.const_curvature3(-4.0),
     geometry.const_curvature3_spherical(1.0), geometry.flat(4)],
    ids=["taub-nut", "K=-4", "spherical", "flat4"],
)
def test_metric_rows_and_christoffels_match_the_per_point_path(spec):
    X = sample(spec, 300, seed=8)
    for order in (0, 1, 2):
        rows = geometry._metric_rows(spec, X, order)
        rows = rows if isinstance(rows, tuple) else (rows,)
        for k, stack in enumerate(rows):
            want = [np.asarray(geometry.metric_components_at(spec, x, order)[k] if order
                               else geometry.metric_components_at(spec, x)) for x in X]
            assert np.ascontiguousarray(stack).tobytes() == np.array(want).tobytes(), (order, k)
    g, dg = geometry._metric_rows(spec, X, 1)
    gamma = geometry._christoffel(geometry._invert(g), dg)[0]
    want = np.array([geometry.christoffel_at(spec, x) for x in X])
    assert gamma.tobytes() == want.tobytes()


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
