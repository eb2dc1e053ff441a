"""KY machinery: pairs, residuals, Killing tensors, symplectic forms,
catalog fields, and the ansatz solver."""

import dataclasses
import itertools
import json
import math

import jetref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kyano import expr, geometry, kysym, report
from kyano.errors import DomainError, SingularEvaluation, SymplecticRejection
from kyano.fields import AntisymTensorField, levi_civita


def taub_nut_points(count, seed=0, m=1.0):
    spec = geometry.taub_nut(m)
    return spec, geometry.sample_points(spec, count, np.random.default_rng(seed))


# -- flat pair and reconstruction -------------------------------------------


def test_flat_pair_unit_z():
    f, ft = kysym.flat_ky_pair(3, (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    expected_f = np.zeros((3, 3))
    expected_f[0, 1], expected_f[1, 0] = 1.0, -1.0
    assert np.array_equal(f, expected_f)
    assert ft[0, 2] == -1.0 and ft[2, 0] == 1.0
    assert np.count_nonzero(ft) == 2


def test_flat_pair_n4_pattern():
    f, _ = kysym.flat_ky_pair(4, (1.0, 0.0, 0.0, 0.0), np.zeros(4))
    assert np.array_equal(f, levi_civita(4)[0])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_flat_pair_has_the_tensordot_bytes(n):
    # the matrix product over the flattened symbol against the contraction it replaces
    rng = np.random.default_rng(n)
    edges = [0.0, -0.0, 5e-324, -1e-310, 1e300, -1e300, math.inf, -math.inf, math.nan]
    eps = levi_civita(n)
    for shape in [(), (1,), (4,), (31,), (1000,), (2, 3)]:
        x = rng.normal(size=shape + (n,)) * 10.0 ** rng.integers(-300, 300, shape + (n,))
        p = np.where(rng.random(x.shape) < 0.3, rng.choice(edges, x.shape), -x)
        for a, b in ((x, p), (np.where(x < 0, -0.0, x), -abs(x))):
            with np.errstate(invalid="ignore"):  # inf times the symbol's zeros
                got = kysym.flat_ky_pair(n, a, b)
                want = np.tensordot(a, eps, axes=(-1, 0)), np.tensordot(b, eps, axes=(-1, 0))
            for g, w in zip(got, want):
                assert g.shape == w.shape == shape + (n,) * (n - 1)
                assert g.tobytes() == w.tobytes(), (n, shape)


def test_flat_pair_dimension_mismatch():
    with pytest.raises(ValueError):
        kysym.flat_ky_pair(3, (1.0, 0.0), (0.0, 0.0, 0.0))


def test_reconstruction_examples():
    f, _ = kysym.flat_ky_pair(3, (0.0, 0.0, 1.0), np.zeros(3))
    assert np.array_equal(kysym.reconstruct_position(f), [0.0, 0.0, 1.0])
    assert np.array_equal(
        kysym.reconstruct_position(np.zeros((3, 3))), np.zeros(3)
    )
    f, _ = kysym.flat_ky_pair(3, (2.0, -1.0, 0.5), np.zeros(3))
    assert np.abs(kysym.reconstruct_position(f) - [2.0, -1.0, 0.5]).max() <= 1e-15


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_reconstruction_roundtrip(n):
    rng = np.random.default_rng(n)
    for _ in range(200):
        x = rng.uniform(-5, 5, n)
        p = rng.uniform(-5, 5, n)
        f, ft = kysym.flat_ky_pair(n, x, p)
        assert kysym.reconstruct_position(f).tobytes() == x.tobytes()
        assert kysym.reconstruct_momentum(ft).tobytes() == p.tobytes()


def test_reconstruction_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        kysym.reconstruct_position(np.ones((3, 3)))


def exact_reconstruction(f):
    """x_k = (-1)^k f at the increasing index tuple without k, over the leading
    axes of ``f``, where ``f`` is finite and exactly the pair built from that x
    (each of the (n-1)! nonzero terms of the contraction is then x_k); else None."""
    n = f.shape[-1]
    rows = f.reshape((-1,) + (n,) * (n - 1))
    x = np.stack([(-1.0) ** k * rows[(slice(None),) + tuple(i for i in range(n) if i != k)]
                  for k in range(n)], axis=-1)
    if not (np.isfinite(f).all() and np.array_equal(kysym.flat_ky_pair(n, x, x)[0], rows)):
        return None
    return x.reshape(f.shape[:f.ndim - (n - 1)] + (n,))


def reconstruct_reference(f):
    """The exact reconstruction of one point's ``f`` where it applies, else the
    dense per-point contraction divided by (n-1)!."""
    x = exact_reconstruction(f)
    if x is not None:
        return x
    n = f.shape[0]
    return np.tensordot(levi_civita(n), f, axes=n - 1) / math.factorial(n - 1)


@pytest.mark.parametrize("batch", (1, 4, 5, 100))
@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_batched_reconstruction_matches_per_point_bytewise(n, batch):
    rng = np.random.default_rng(10 * n + batch)
    f, ft = kysym.flat_ky_pair(n, rng.uniform(-1, 1, (batch, n)), rng.uniform(-1, 1, (batch, n)))
    for arr in (f, ft):
        want = np.array([reconstruct_reference(row) for row in arr])
        assert kysym.reconstruct_position(arr).tobytes() == want.tobytes()
        one_by_one = np.array([kysym.reconstruct_momentum(row) for row in arr])
        assert one_by_one.tobytes() == want.tobytes()
    stacked = kysym.reconstruct_position(ft.reshape((1, batch) + ft.shape[1:]))
    assert stacked.shape == (1, batch, n) and stacked.tobytes() == want.tobytes()


def test_batched_reconstruction_checks_each_row_against_its_own_scale():
    X = np.array([[1e6, -2e6, 3e6, 5e5], [0.1, 0.2, -0.3, 0.4], [0.5, 0.5, 0.5, 0.5]])
    f, _ = kysym.flat_ky_pair(4, X, X)
    f[0, 0, 1, 2] += 1e-7  # within 1e-12 of row 0's scale, 3e6
    assert np.abs(kysym.reconstruct_position(f) - X).max() < 1e-6
    f[1, 0, 1, 2] += 1e-7  # beyond 1e-12 of row 1's scale, 1
    for bad in (f, f[1:2], f[1]):
        with pytest.raises(ValueError, match="input array is not antisymmetric"):
            kysym.reconstruct_position(bad)
    assert kysym.reconstruct_position(f[::2]).shape == (2, 4)
    # n is the last axis, and the n - 1 axes before it must all be n
    for shape in [(), (0,), (1,), (3,), (3, 3, 4), (4, 4), (2, 4, 3, 4)]:
        with pytest.raises(ValueError, match="rank-\\(n-1\\) array"):
            kysym.reconstruct_position(np.zeros(shape))


def reconstruct_tolerance_reference(f):
    """The tolerance-only reconstruction, the dense contraction divided by
    (n-1)!, that now runs only where the exact scatter test fails."""
    n = f.shape[-1] if f.ndim else 0
    rank = n - 1
    if rank < 1 or f.shape[f.ndim - rank:] != (n,) * rank:
        raise ValueError("expected a rank-(n-1) array over an n-dimensional chart")
    rows = f.reshape((-1,) + (n,) * rank)
    t = np.abs(rows)
    scale = np.maximum(1.0, t.reshape(-1, n ** rank).max(axis=1))
    for a in range(1, rank):
        np.add(rows, rows.swapaxes(a, a + 1), out=t)
        if np.any(np.abs(t, out=t).reshape(-1, n ** rank).max(axis=1) > 1e-12 * scale):
            raise ValueError("input array is not antisymmetric")
    x = levi_civita(n).reshape(n, -1) @ rows.reshape(-1, n ** rank, 1)
    return x.reshape(f.shape[:f.ndim - rank] + (n,)) / math.factorial(rank)


def _outcome(fn, f):
    try:
        x = fn(f)
    except ValueError as e:
        return str(e)
    return x.shape, x.tobytes()


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from(range(2, 7)), lead=st.sampled_from([(), (1,), (5,), (1, 3)]),
       scale=st.sampled_from([1.0, 5e-324, 1e-310, 1e300, 0.0]),
       change=st.sampled_from(["none", "perturb", "zeros", "shuffle"]),
       factor=st.sampled_from([0.5, 0.999, 1.001, 2.0]), seed=st.integers(0, 2 ** 16))
def test_reconstruction_gives_the_tolerance_reference_verdict_and_bytes(
        n, lead, scale, change, factor, seed):
    rng = np.random.default_rng(seed)
    # integer multiples keep the subnormal and zero scales exact
    X = (rng.integers(-50, 51, lead + (n,)) if scale < 1e-300 else
         rng.uniform(-1.0, 1.0, lead + (n,))) * scale
    f = kysym.flat_ky_pair(n, X, X)[0]
    rows = f.reshape(-1, n ** (n - 1))  # a view: changes land in f
    r, e = rng.integers(len(rows)), rng.integers(n ** (n - 1))
    tol = 1e-12 * max(1.0, np.abs(rows[r]).max())  # the row's own scale
    if change == "perturb":  # just inside or just beyond the tolerance
        rows[r, e] += tol * factor * rng.choice([-1, 1])
    elif change == "zeros":  # signed zeros anywhere a zero is
        rows[(rows == 0) & (rng.random(rows.shape) < 0.5)] = -0.0
    elif change == "shuffle":
        rows[r] = rng.permutation(rows[r])
    got, want = _outcome(kysym.reconstruct_position, f), _outcome(reconstruct_tolerance_reference, f)
    assert isinstance(got, str) == isinstance(want, str)  # the verdict, everywhere
    exact = exact_reconstruction(f)
    if exact is None:
        assert got == want
    else:  # exactly antisymmetric input: the exact formula's bytes
        assert got == (exact.shape, exact.tobytes())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reconstruction_rejects_non_finite_entries(bad):
    f = kysym.flat_ky_pair(3, [1.0, 2.0, 3.0], np.zeros(3))[0]
    one, pair, filled = f.copy(), f.copy(), np.full((3, 3), bad)
    one[0, 1], one[0, 2] = bad, 5.0
    pair[0, 1], pair[1, 0] = bad, -bad  # antisymmetric, but not finite
    batch = kysym.flat_ky_pair(4, np.ones((5, 4)), np.ones((5, 4)))[0]
    batch[2, 0, 1, 3] = bad
    for g in (one, pair, filled, batch, batch[None], np.array([1.0, bad])):
        with pytest.raises(ValueError, match="input array has non-finite entries"):
            kysym.reconstruct_position(g)


def flat_ky_section_reference(rng, samples):
    """The per-sample section that the batched section replaced, with per-point
    reconstruction and per-point KY residuals."""
    per_dim, ok = {}, True
    for n in range(3, 7):
        spec, field = geometry.flat(n), kysym.flat_ky_position_field(n)
        max_res = max_round = 0.0
        for _ in range(samples):
            x = rng.uniform(-1.0, 1.0, n)
            p = rng.uniform(-1.0, 1.0, n)
            f, ft = kysym.flat_ky_pair(n, x, p)
            max_round = max(max_round, np.abs(reconstruct_reference(f) - x).max(),
                            np.abs(reconstruct_reference(ft) - p).max())
            max_res = max(max_res, np.abs(kysym.ky_residual(spec, field, x)).max())
        passed = max_res <= 1e-12 and max_round <= 1e-15
        ok = ok and passed
        per_dim[str(n)] = {"max_ky_residual": float(max_res),
                           "max_roundtrip_error": float(max_round),
                           "n_points": samples, "pass": passed}
    return {"per_dim": per_dim, "pass": ok}


@pytest.mark.parametrize("samples", (1, 7, 100))
def test_flat_ky_section_matches_the_per_sample_reference(samples):
    for seed in (0, 1, 5):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        got = report.section_flat_ky(rngs[0], samples)
        assert got == flat_ky_section_reference(rngs[1], samples)
        assert rngs[0].random() == rngs[1].random()  # the same draws were taken


# -- residuals ----------------------------------------------------------------


def test_flat_linear_field_is_ky():
    field = kysym.flat_ky_position_field(3)
    flat = geometry.flat(3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        R = kysym.ky_residual(flat, field, rng.uniform(-2, 2, 3))
        assert np.abs(R).max() <= 1e-14


def test_non_ky_field_residual_component():
    # f_12 = x1: R_112 = 2 * d_1 f_12 = 2
    field = AntisymTensorField(3, 2, {"12": "x1"})
    R = kysym.ky_residual(geometry.flat(3), field, [0.2, 0.4, 0.9])
    assert R[0, 0, 1] == 2.0


def test_constant_field_covariantly_constant():
    field = AntisymTensorField.constant(
        3, 2, np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 3.0], [2.0, -3.0, 0.0]])
    )
    D = kysym.covariant_constancy_residual(geometry.flat(3), field, [1.0, 2.0, 3.0])
    assert np.count_nonzero(D) == 0


def test_linear_field_not_covariantly_constant():
    field = kysym.flat_ky_position_field(3)
    D = kysym.covariant_constancy_residual(geometry.flat(3), field, [0.5, 0.5, 0.5])
    assert np.array_equal(D, levi_civita(3))


def test_closedness_residual_flat_pair():
    field = kysym.flat_ky_position_field(3)
    c = kysym.closedness_residual(field, [0.1, 0.2, 0.3])
    # d(eps . x) has the totally antisymmetric cyclic sum 3*eps
    assert np.array_equal(c, 3.0 * levi_civita(3))


def test_closedness_residual_rank3_flat4():
    pt = [0.3, -0.4, 0.5, 0.7]
    closed = kysym.closedness_residual(AntisymTensorField(4, 3, {"123": "x1"}), pt)
    assert np.count_nonzero(closed) == 0
    # d(x4 dx1^dx2^dx3) = dx4^dx1^dx2^dx3 = -dx1^dx2^dx3^dx4
    d = kysym.closedness_residual(AntisymTensorField(4, 3, {"123": "x4"}), pt)
    assert np.array_equal(d, -levi_civita(4))


def conformal_volume_form(K, power):
    u = f"(1 + {K!r}*(x1^2 + x2^2 + x3^2)/4)"
    return AntisymTensorField(3, 3, {"123": f"1/{u}^{power}"})


@pytest.mark.parametrize("K", [1.0, -1.0, 0.5])
def test_const_curvature_volume_form_is_covariantly_constant(K):
    # g = u^-2 delta has volume form u^-3 dx1^dx2^dx3; the power 2 is wrong
    spec = geometry.const_curvature3(K)
    pts = geometry.sample_points(spec, 40, np.random.default_rng(3))
    rep = kysym.verify_field(spec, conformal_volume_form(K, 3), pts)
    assert rep.is_ky and rep.max_cc_residual <= 1e-13
    assert rep.min_abs_det is rep.max_abs_det is rep.is_nondegenerate is None  # not a two-form
    wrong = kysym.verify_field(spec, conformal_volume_form(K, 2), pts)
    assert wrong.max_ky_residual > 0.1 and not wrong.is_covariant_constant


def rank2_reference(spec, field, pt):
    """D and d f from the two-form formulas the general-rank code replaced."""
    f, jac = field.values_at(pt), field.jacobian_at(pt)
    gamma = geometry.christoffel_at(spec, pt)
    D = jac - np.einsum("slm,sn->lmn", gamma, f) - np.einsum("sln,ms->lmn", gamma, f)
    return D, jac + jac.transpose(2, 0, 1) + jac.transpose(1, 2, 0)


@pytest.mark.parametrize("index", [1, 2, 3])
def test_general_rank_derivatives_match_rank2_formulas_bytewise(index):
    spec, pts = taub_nut_points(300, seed=21)
    field = kysym.taubnut_ky_field(index, 1.0)
    for pt in pts:
        D, closed = rank2_reference(spec, field, pt)
        assert kysym.covariant_constancy_residual(spec, field, pt).tobytes() == D.tobytes()
        assert kysym.closedness_residual(field, pt).tobytes() == closed.tobytes()


@pytest.mark.parametrize(
    "spec, field",
    [(geometry.taub_nut(1.0), kysym.taubnut_ky_field(3, 1.0)),
     (geometry.taub_nut(1.0, 4.0), kysym.taubnut_ky_field(1, 1.0)),
     (geometry.const_curvature3(-4.0), kysym.flat_ky_position_field(3)),
     (geometry.const_curvature3(0.5), conformal_volume_form(0.5, 3))],
    ids=["taub-nut", "fiber-scale-4", "K=-4-control", "volume-form"],
)
def test_row_derivatives_match_the_per_point_formula_bytewise(spec, field):
    pts = geometry.sample_points(spec, 200, np.random.default_rng(17))
    (f, jac, D), = kysym._derivatives(spec, field, pts)
    for k, pt in enumerate(pts):
        want = geometry._covariant_derivative(
            geometry.christoffel_at(spec, pt), field.values_at(pt), field.jacobian_at(pt))
        assert D[k].tobytes() == want.tobytes()
    rep = kysym.verify_field(spec, field, pts)
    assert rep.max_cc_residual == max(float(np.abs(d).max()) for d in D)
    assert rep.max_ky_residual == max(float(np.abs(d + d.swapaxes(0, 1)).max()) for d in D)


def test_row_blocks_hold_at_most_2_15_elements_of_d():
    # D has n**(rank + 1) elements a row: 6**6 for the n = 6 rank-5 flat field,
    # more than a block holds, so it runs one row at a time, as it did per point
    def blocks(spec, field, count):
        pts = geometry.sample_points(spec, count, np.random.default_rng(0))
        return [len(D) for _, _, D in kysym._derivatives(spec, field, pts)]

    assert blocks(geometry.flat(6), kysym.flat_ky_position_field(6), 3) == [1, 1, 1]
    assert blocks(geometry.flat(5), kysym.flat_ky_position_field(5), 23) == [10, 10, 3]
    spec = geometry.taub_nut(1.0)
    assert blocks(spec, kysym.taubnut_ky_field(1, 1.0), 1100) == [512, 512, 76]


def test_flat_verify_folds_stored_gradients_in_one_block(monkeypatch):
    # the rank-5 field on R^6 needs 6**6 elements of D a row, but its fold over
    # the stored gradients needs 21 * 15, so 100 rows are one block
    field = kysym.flat_ky_position_field(6)  # interned: every patch is undone after the test
    pts = np.random.default_rng(3).uniform(-1, 1, (100, 6))
    want = kysym.verify_field(geometry.flat(6), field, pts)
    calls = []
    gradients = field._gradients
    monkeypatch.setattr(field, "_gradients", lambda X: calls.append(len(X)) or gradients(X))
    monkeypatch.setattr(field, "jacobian_at", None)  # the scattered jacobian is not needed
    assert kysym.verify_field(geometry.flat(6), field, pts) == want
    assert calls == [100] and len(field._ky_pairs[0]) == 21 * 15
    assert want.max_ky_residual == 0.0 and want.max_cc_residual == 1.0


_FOLD_SOURCES = ("x{i}*x{j}", "sin(x{i}) - x{j}^2", "1/(3 + x{i})", "x{i}^3*x{j}", "-2.5*x{j}",
                 "cos(x{i}*x{j})", "0.75")


class NaNGradientField(AntisymTensorField):
    """A field whose stored components at the index tuples ``nan`` have NaN
    gradients, a derivative that no fold may pass."""

    def __init__(self, dim, rank, components, nan=()):
        super().__init__(dim, rank, components)
        self.nan = [k for k, idx in enumerate(self._comps) if idx in nan]

    def _gradients(self, X):
        grads = super()._gradients(X)
        grads[..., self.nan] = math.nan
        return grads


@st.composite
def random_fields(draw):
    """A field on R^n of any rank whose components are expressions, numbers,
    missing, or the number 1 with a NaN gradient."""
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(1, n))
    comps, nan = {}, []
    for key in itertools.combinations(range(n), rank):
        kind = draw(st.sampled_from(["expr", "expr", "expr", "number", "missing", "nan"]))
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        if kind == "expr":
            comps[key] = draw(st.sampled_from(_FOLD_SOURCES)).format(i=i, j=j)
        elif kind == "number":
            comps[key] = draw(st.floats(-4.0, 4.0))
        elif kind == "nan":
            comps[key] = 1.0
            nan.append(key)
    # subnormal coordinates included: the det of a two-form's values must not warn on them
    coord = st.one_of(st.just(0.0), st.floats(-1.0, 1.0), st.floats(-1e-150, 1e-150))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=6))
    return NaNGradientField(n, rank, comps, nan), np.array(pts, dtype=float)


@given(random_fields())
@settings(max_examples=300, deadline=None)
def test_identity_metric_fold_equals_the_full_d_fold_bitwise(case):
    field, pts = case
    rep = kysym.verify_field(geometry.flat(field.dim), field, pts)
    D = field.jacobian_at(pts)
    assert np.float64(rep.max_cc_residual).tobytes() == np.max(np.abs(D)).tobytes()
    S = D + D.swapaxes(1, 2)
    assert np.float64(rep.max_ky_residual).tobytes() == np.max(np.abs(S)).tobytes()


def test_block_errors_name_the_first_failing_point():
    # row 1 leaves the chart domain; row 2 has a singular field value first
    spec = geometry.taub_nut(1.0)
    field = AntisymTensorField(4, 2, {"12": "1/(x1 - 2)"})
    pts = [[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0]]
    with pytest.raises(DomainError, match="outside the chart domain"):
        kysym.verify_field(spec, field, pts)
    with pytest.raises(SingularEvaluation, match="division by zero"):
        kysym.verify_field(spec, field, pts[::2])


# -- Killing tensors ----------------------------------------------------------


def test_killing_from_ky_unit_z():
    field = kysym.flat_ky_position_field(3)
    K = kysym.killing_from_ky(geometry.flat(3), field, [0.0, 0.0, 1.0])
    assert np.abs(K - np.diag([-1.0, -1.0, 0.0])).max() < 1e-15


def test_killing_from_ky_origin():
    field = kysym.flat_ky_position_field(3)
    K = kysym.killing_from_ky(geometry.flat(3), field, np.zeros(3))
    assert np.count_nonzero(K) == 0


def test_killing_from_ky_ground_truth():
    field = kysym.flat_ky_position_field(3)
    flat = geometry.flat(3)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-2, 2, 3)
        K = kysym.killing_from_ky(flat, field, x)
        assert np.array_equal(K, K.T)
        expected = np.outer(x, x) - float(x @ x) * np.eye(3)
        assert np.abs(K - expected).max() < 1e-13


def test_killing_equation_flat():
    field = kysym.flat_ky_position_field(3)
    flat = geometry.flat(3)
    rng = np.random.default_rng(2)
    for _ in range(20):
        res = kysym.killing_equation_residual(flat, field, rng.uniform(-2, 2, 3))
        assert np.abs(res).max() <= 1e-8


def test_killing_equation_taub_nut():
    spec, pts = taub_nut_points(10, seed=3)
    for index in (1, 2, 3):
        field = kysym.taubnut_ky_field(index, 1.0)
        for pt in pts:
            res = kysym.killing_equation_residual(spec, field, pt)
            assert np.abs(res).max() <= 1e-8


def test_killing_equation_evaluates_the_metric_once_per_point(monkeypatch):
    spec, pts = taub_nut_points(20, seed=9)
    field = kysym.taubnut_ky_field(2, 1.0)
    # the coordinate chain with its own metric jet, as the residual computed it before D f
    want = [jetref.killing_residual(spec, field, pt) for pt in pts]
    orders = []
    inner = geometry._metric

    def counting(spec, X, order=0, inverse=False):
        orders.append(order)
        return inner(spec, X, order, inverse)

    monkeypatch.setattr(geometry, "_metric", counting)
    for pt, (res, scale) in zip(pts, want):
        orders.clear()
        assert np.abs(kysym.killing_equation_residual(spec, field, pt) - res).max() <= (
            1e-12 * scale)
        assert orders == [0]  # g^-1 only: the Christoffels come from their own kernel


# -- nondegeneracy -------------------------------------------------------------


def test_nondegeneracy_odd_dimension_zero():
    field = kysym.flat_ky_position_field(3)
    det = kysym.nondegeneracy(field, geometry.flat(3), [0.3, 0.1, 0.9])
    assert abs(det) < 1e-15  # odd antisymmetric: zero up to roundoff


def test_nondegeneracy_block_form():
    f = np.zeros((4, 4))
    f[0, 1], f[1, 0], f[2, 3], f[3, 2] = 1.0, -1.0, 1.0, -1.0
    field = AntisymTensorField.constant(4, 2, f)
    assert kysym.nondegeneracy(field, geometry.flat(4), np.zeros(4)) == 1.0


def test_nondegeneracy_taub_nut():
    spec, pts = taub_nut_points(5, seed=4)
    field = kysym.taubnut_ky_field(1, 1.0)
    for pt in pts:
        assert abs(kysym.nondegeneracy(field, spec, pt)) > 1e-6


# -- verify_field ---------------------------------------------------------------


def test_verify_field_flags():
    flat = geometry.flat(3)
    pts = geometry.sample_points(flat, 20, np.random.default_rng(5))
    rep = kysym.verify_field(flat, kysym.flat_ky_position_field(3), pts)
    assert rep.is_ky
    assert not rep.is_covariant_constant
    assert not rep.is_nondegenerate  # odd dimension
    assert rep.n_points == 20
    d = rep.to_dict()
    for key in ("max_ky_residual", "max_cc_residual", "min_abs_det",
                "is_ky", "is_covariant_constant", "is_nondegenerate"):
        assert key in d

    bad = AntisymTensorField(3, 2, {"12": "x1"})
    rep = kysym.verify_field(flat, bad, pts)
    assert not rep.is_ky
    assert rep.max_ky_residual == 2.0


# -- symplectic structure --------------------------------------------------------


# the NaN point is injected on purpose, and det of the NaN values warns
@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
def test_verify_field_nan_residual_fails():
    field = AntisymTensorField(3, 2, {"12": "x1^2"})
    rep = kysym.verify_field(geometry.flat(3), field, [[math.nan, 0.0, 0.0]])
    assert math.isnan(rep.max_ky_residual)
    assert not rep.is_ky and not rep.is_covariant_constant


def test_symplectic_rejects_nan_derivative():
    field = NaNGradientField(4, 2, {"12": 1.0, "34": 1.0}, nan=[(0, 1)])
    with pytest.raises(SymplecticRejection) as info:
        kysym.symplectic_from_ky(geometry.flat(4), field, points=[[0.5, 0.0, 0.0, 0.0]])
    assert info.value.reason == "not-covariant-constant"


def test_symplectic_accepts_constant_block():
    f = np.zeros((4, 4))
    f[0, 1], f[1, 0], f[2, 3], f[3, 2] = 1.0, -1.0, 1.0, -1.0
    field = AntisymTensorField.constant(4, 2, f)
    form = kysym.symplectic_from_ky(geometry.flat(4), field)
    assert form.min_abs_det == 1.0
    pt = [0.1, 0.2, 0.3, 0.4]
    assert np.abs(form.matrix_at(pt) @ form.inverse_at(pt) - np.eye(4)).max() < 1e-14


@pytest.mark.parametrize("name", ["ky_tol", "cc_tol", "det_tol"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, -1.0, -5e-324])
def test_verify_field_rejects_a_tolerance_that_is_no_gate(name, bad):
    # at ky_tol=inf a field with a KY residual of 1.69 was reported KY
    spec = geometry.const_curvature3(1.0)
    points = geometry.sample_points(spec, 5, np.random.default_rng(0))
    field = kysym.flat_ky_position_field(3)
    with pytest.raises(ValueError, match=f"^{name} must be a finite number at least 0, got "):
        kysym.verify_field(spec, field, points, **{name: bad})
    assert not kysym.verify_field(spec, field, points, ky_tol=0.0).is_ky  # 0 is a gate


@pytest.mark.parametrize("name", ["cc_tol", "closed_tol", "det_tol"])
def test_symplectic_rejects_a_tolerance_that_is_no_gate(name):
    field = AntisymTensorField.constant(4, 2, np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match=f"^{name} must be a finite number at least 0, got nan$"):
        kysym.symplectic_from_ky(geometry.flat(4), field, **{name: math.nan})


def test_symplectic_rejects_odd_dimension():
    with pytest.raises(SymplecticRejection) as ei:
        kysym.symplectic_from_ky(geometry.flat(3), kysym.flat_ky_position_field(3))
    assert ei.value.reason == "odd-dimension"


def test_symplectic_rejects_degenerate():
    field = AntisymTensorField(4, 2, {"12": "1"})
    with pytest.raises(SymplecticRejection) as ei:
        kysym.symplectic_from_ky(geometry.flat(4), field)
    assert ei.value.reason == "degenerate"


def test_symplectic_rejects_non_covariant_constant():
    field = AntisymTensorField(4, 2, {"12": "1 + x1^2", "34": "1"})
    with pytest.raises(SymplecticRejection) as ei:
        kysym.symplectic_from_ky(geometry.flat(4), field)
    assert ei.value.reason == "not-covariant-constant"


def test_symplectic_rejects_not_closed():
    # with the covariant-constancy gate relaxed, closedness still catches
    # a two-form whose exterior derivative does not vanish
    field = AntisymTensorField(4, 2, {"12": "x3", "34": "1"})
    points = [np.array([a, b, c, d]) for a, b, c, d in
              ((0.5, 0.5, 0.5, 0.5), (1.0, -1.0, 0.8, 0.2), (0.2, 0.9, -0.7, 0.4))]
    with pytest.raises(SymplecticRejection) as ei:
        kysym.symplectic_from_ky(geometry.flat(4), field, points=points, cc_tol=10.0)
    assert ei.value.reason == "not-closed"


def test_symplectic_rejects_empty_point_set():
    field = AntisymTensorField(4, 2, {"12": "1", "34": "1"})
    for check in (kysym.symplectic_from_ky, kysym.verify_field):
        with pytest.raises(ValueError, match="at least one sample point"):
            check(geometry.flat(4), field, points=[])


def test_symplectic_rejects_rank_mismatch():
    field = AntisymTensorField(4, 3, {(0, 1, 2): "1"})
    with pytest.raises(ValueError):
        kysym.symplectic_from_ky(geometry.flat(4), field)


def test_symplectic_accepts_taub_nut():
    spec = geometry.taub_nut(1.0)
    form = kysym.symplectic_from_ky(spec, kysym.taubnut_ky_field(1, 1.0))
    assert form.max_cc_residual <= 1e-8
    assert form.min_abs_det > 1e-6


# -- printed constant-curvature fields -------------------------------------------


def test_constcurv_printed_value():
    f = kysym.constcurv_ky(1, (1.0, math.pi / 2, math.pi / 2), 0.0)
    assert abs(f[0, 1] - 1.0 / 16.0) < 1e-15
    assert f[1, 0] == -f[0, 1]


def test_constcurv_momentum_twin_scale():
    # the printed twin of the (1,2) component carries factor 16, not 1/16
    pt = (1.0, math.pi / 2, math.pi / 2)
    pos = kysym.constcurv_ky_field(1, 0.0).values_at(pt)
    mom = kysym.constcurv_ky_field(1, 0.0, momentum=True).values_at(pt)
    assert abs(mom[0, 1] / pos[0, 1] - 256.0) < 1e-12


CONSTCURV_BOX = [(0.4, 1.6), (0.4, math.pi - 0.4), (0.2, 2 * math.pi - 0.2)]


def constcurv_chart_points(count, seed):
    rng = np.random.default_rng(seed)
    return [
        np.array([rng.uniform(lo, hi) for lo, hi in CONSTCURV_BOX])
        for _ in range(count)
    ]


@pytest.mark.parametrize("index", (1, 2, 3))
@pytest.mark.parametrize("momentum", (False, True), ids=("position", "momentum"))
def test_printed_constcurv_fields_fail_ky(index, momentum):
    # frozen measurement: the printed components do not satisfy the KY
    # equation for the printed metric, for any of the six fields
    K = 1.0
    spec = geometry.const_curvature3_spherical(K)
    field = kysym.constcurv_ky_field(index, K, momentum=momentum)
    pts = constcurv_chart_points(20, seed=index)
    rep = kysym.verify_field(spec, field, pts)
    assert not rep.is_ky
    assert rep.max_ky_residual > 1e-3


# -- Taub-NUT fields ---------------------------------------------------------------


def test_taubnut_antisymmetry():
    rng = np.random.default_rng(6)
    for index in (1, 2, 3):
        pt = [rng.uniform(0.5, 2.5), rng.uniform(0.3, 2.8),
              rng.uniform(0, 2 * math.pi), rng.uniform(0, 4 * math.pi)]
        f = kysym.taubnut_ky(index, pt, 1.0)
        assert np.array_equal(f, -f.T)


@pytest.mark.parametrize("index", (1, 2, 3))
def test_taubnut_covariant_constancy(index):
    spec, pts = taub_nut_points(20, seed=7)
    field = kysym.taubnut_ky_field(index, 1.0)
    rep = kysym.verify_field(spec, field, pts)
    assert rep.max_cc_residual <= 1e-8
    assert rep.is_ky
    assert rep.min_abs_det > 1e-6


def test_alternate_normalization_fails():
    # frozen measurement: with the 16 m^2 fiber coefficient the printed
    # two-forms are not covariantly constant; 4 m^2 is the validated choice
    spec = geometry.taub_nut(1.0, fiber_scale=4.0)
    pts = geometry.sample_points(spec, 10, np.random.default_rng(8))
    field = kysym.taubnut_ky_field(1, 1.0)
    rep = kysym.verify_field(spec, field, pts)
    assert rep.max_cc_residual > 0.1


def test_taubnut_m_to_zero_limit():
    # the fiber term carries the only psi components; they vanish with m
    pt = [1.3, 1.1, 0.7, 2.0]
    for index in (1, 2, 3):
        f = kysym.taubnut_ky(index, pt, 0.0)
        assert np.count_nonzero(f[3, :]) == 0
        assert np.count_nonzero(f[:, 3]) == 0
        f_half = kysym.taubnut_ky(index, pt, 0.0)
        assert np.array_equal(f, f_half)


def _ref_taubnut_components(i, coords, m):
    """The formula the triplet's expression sources are built from, over floats or
    jets: the entries (mu, nu), mu < nu, of f_i = 4m (dpsi + cos th dphi) ^ dx_i
    - (1 + 2m/r) eps_ijk dx_j ^ dx_k, pulled back to (r, theta, phi, psi)."""
    r, th, ph = coords[0], coords[1], coords[2]
    sth, cth = jetref.sin(th), jetref.cos(th)
    sph, cph = jetref.sin(ph), jetref.cos(ph)
    J = (
        (sth * cph, r * cth * cph, -(r * sth * sph), 0.0),
        (sth * sph, r * cth * sph, r * sth * cph, 0.0),
        (cth, -(r * sth), 0.0, 0.0),
    )
    sigma = (0.0, 0.0, cth, 1.0)
    V = 1.0 + (2.0 * m) / r
    j, k = [(1, 2), (2, 0), (0, 1)][i]
    out = {}
    for mu, nu in itertools.combinations(range(4), 2):
        wedge = J[j][mu] * J[k][nu] - J[j][nu] * J[k][mu]
        out[mu, nu] = 4.0 * m * (sigma[mu] * J[i][nu] - sigma[nu] * J[i][mu]) - V * (2.0 * wedge)
    return out


@pytest.mark.parametrize("m", (1.0, 0.7))
def test_taubnut_expressions_match_reference_callable(m):
    # m = 0.7 puts constants other than 4.0 and 2.0 into the sources
    spec = geometry.taub_nut(m)
    pts = geometry.sample_points(spec, 1000, np.random.default_rng(11))
    for index in (1, 2, 3):
        field = kysym.taubnut_ky_field(index, m)
        values, jacobian = map(np.array, zip(*(jetref.field_arrays(
            4, 2, lambda coords: _ref_taubnut_components(index - 1, coords, m), pt) for pt in pts)))
        assert field.values_at(pts).tobytes() == values.tobytes()
        assert field.jacobian_at(pts).tobytes() == jacobian.tobytes()
        for k in (0, 517, 999):  # single points run the per-point kernels
            assert field.values_at(pts[k]).tobytes() == values[k].tobytes()
            assert field.jacobian_at(pts[k]).tobytes() == jacobian[k].tobytes()


def test_taubnut_field_round_trips_through_json():
    spec, pts = taub_nut_points(30, seed=12)
    for index in (1, 2, 3):
        field = kysym.taubnut_ky_field(index, 1.0)
        back = AntisymTensorField.from_dict(json.loads(json.dumps(field.to_dict())))
        for pt in pts:
            assert back.values_at(pt).tobytes() == field.values_at(pt).tobytes()
            assert back.jacobian_at(pt).tobytes() == field.jacobian_at(pt).tobytes()
        assert kysym.verify_field(spec, back, pts) == kysym.verify_field(spec, field, pts)


def test_taubnut_field_rejects_non_finite_mass():
    with pytest.raises(ValueError, match="finite"):
        kysym.taubnut_ky_field(1, math.inf)


def test_verify_field_evaluates_values_once_per_point(monkeypatch):
    spec, pts = taub_nut_points(7, seed=13)
    field = kysym.taubnut_ky_field(1, 1.0)
    calls = []
    values_at = field.values_at
    monkeypatch.setattr(field, "values_at", lambda pt: calls.append(pt) or values_at(pt))
    rep = kysym.verify_field(spec, field, pts)
    assert [len(rows) for rows in calls] == [len(pts)]  # one block, each point once
    monkeypatch.undo()
    assert rep == kysym.verify_field(spec, field, pts)


def test_symplectic_from_ky_evaluates_jacobian_once_per_point(monkeypatch):
    spec, pts = taub_nut_points(30, seed=13)
    field = kysym.taubnut_ky_field(1, 1.0)
    calls = []
    jacobian_at = field.jacobian_at
    monkeypatch.setattr(field, "jacobian_at", lambda pt: calls.append(pt) or jacobian_at(pt))
    form = kysym.symplectic_from_ky(spec, field, points=pts)
    assert [len(rows) for rows in calls] == [len(pts)] == [30]  # one block, each point once
    monkeypatch.undo()
    assert form == kysym.symplectic_from_ky(spec, field, points=pts)


def _count_christoffel_blocks(monkeypatch):
    calls = []
    christoffel_at = geometry.christoffel_at

    def counting(spec, X):
        calls.append(len(X))
        return christoffel_at(spec, X)

    monkeypatch.setattr(geometry, "christoffel_at", counting)
    return calls


def test_one_christoffel_block_per_metric_and_points(monkeypatch):
    spec = dataclasses.replace(geometry.taub_nut(1.0))  # its own, empty tables
    pts = taub_nut_points(20, seed=14)[1]
    fields = [kysym.taubnut_ky_field(index, 1.0) for index in (1, 2, 3)]
    want = [kysym.verify_field(spec, field, pts) for field in fields]
    form = kysym.symplectic_from_ky(spec, fields[0], points=pts)
    want_gamma = geometry.christoffel_at(spec, pts)
    calls = _count_christoffel_blocks(monkeypatch)
    spec = dataclasses.replace(spec)
    assert [kysym.verify_field(spec, field, pts) for field in fields] == want
    assert calls == [20]  # the three triplet fields at one block: one Christoffel block
    assert kysym.symplectic_from_ky(spec, fields[0], points=pts) == dataclasses.replace(
        form, spec=spec)
    assert calls == [20]
    gamma = spec._tables["christoffel"][1]
    assert not gamma.flags.writeable and gamma.tobytes() == want_gamma.tobytes()
    # a block of other points is computed anew, and then shared in turn
    kysym.verify_field(spec, fields[0], pts[:19])
    kysym.covariant_constancy_residual(spec, fields[0], pts[0])
    kysym.covariant_constancy_residual(spec, fields[1], pts[0])
    assert calls == [20, 19, 1]


def test_a_report_computes_one_christoffel_block_per_metric_and_points(monkeypatch):
    calls = _count_christoffel_blocks(monkeypatch)
    first = report.assemble_report(seed=424242, samples=5)
    # Taub-NUT at each fiber scale, the spherical chart and its dual
    assert calls == [5, 5, 5, 5]
    assert report.assemble_report(seed=424242, samples=5) == first
    assert calls == [5, 5, 5, 5]  # each spec still holds its last block


# -- dual symmetry ------------------------------------------------------------------


def test_dual_symmetry_flat():
    flat = geometry.flat(3)
    dual = geometry.dual_metric(flat)
    pts = geometry.sample_points(flat, 25, np.random.default_rng(9))
    rep_x = kysym.verify_field(flat, kysym.flat_ky_position_field(3), pts)
    rep_p = kysym.verify_field(dual, kysym.flat_ky_momentum_field(3), pts)
    assert abs(rep_x.max_ky_residual - rep_p.max_ky_residual) <= 1e-12
    assert abs(rep_x.max_cc_residual - rep_p.max_cc_residual) <= 1e-12


def test_dual_symmetry_taub_nut():
    spec, pts = taub_nut_points(10, seed=10)
    dual = geometry.dual_metric(spec)
    field = kysym.taubnut_ky_field(2, 1.0)
    rep_x = kysym.verify_field(spec, field, pts)
    rep_p = kysym.verify_field(dual, field, pts)
    assert abs(rep_x.max_ky_residual - rep_p.max_ky_residual) <= 1e-12
    assert abs(rep_x.max_cc_residual - rep_p.max_cc_residual) <= 1e-12


# -- ansatz solver -------------------------------------------------------------------


def fresh_residual_max(spec, fields, count=50, seed=99, box=None):
    worst = 0.0
    if box is None:
        pts = geometry.sample_points(spec, count, np.random.default_rng(seed))
    else:
        rng = np.random.default_rng(seed)
        pts = [np.array([rng.uniform(lo, hi) for lo, hi in box])
               for _ in range(count)]
    for field in fields:
        for pt in pts:
            worst = max(
                worst, float(np.abs(kysym.ky_residual(spec, field, pt)).max())
            )
    return worst


def test_ansatz_flat2_constant_form():
    fields = kysym.ky_solve_ansatz(geometry.flat(2), ["1"])
    assert len(fields) == 1
    v = fields[0].values_at([0.7, -0.3])
    assert abs(abs(v[0, 1]) - 1.0) < 1e-12


def test_ansatz_flat3_dimension_and_residuals():
    flat = geometry.flat(3)
    dims = set()
    for seed in (0, 1, 2):
        fields = kysym.ky_solve_ansatz(
            flat, ["1", "x1", "x2", "x3"], rng=np.random.default_rng(seed)
        )
        dims.add(len(fields))
        assert fresh_residual_max(flat, fields, seed=seed + 100) <= 1e-8
    # measured null-space dimension: three constant forms plus eps.x
    assert dims == {4}


def test_ansatz_const_curvature_dimension():
    K = 1.0
    spec = geometry.const_curvature3(K)
    u = f"(1 + {K!r}*(x1^2 + x2^2 + x3^2)/4)"
    basis = [f"1/{u}^2"]
    basis += [f"x{k}/{u}^3" for k in (1, 2, 3)]
    basis += [f"x{k}*x{l}/{u}^3" for k in (1, 2, 3) for l in (1, 2, 3) if l >= k]
    fields = kysym.ky_solve_ansatz(spec, basis, rng=np.random.default_rng(0))
    assert len(fields) == 4
    assert fresh_residual_max(spec, fields) <= 1e-8


def _constcurv_basis(K):
    """{1, x_i, x_i x_j} / u^3 on const_curvature3(K), and 1/u^2, which is in their span."""
    u = f"(1 + {K!r}*(x1^2 + x2^2 + x3^2)/4)"
    basis = [f"1/{u}^3"] + [f"x{k}/{u}^3" for k in (1, 2, 3)]
    return basis + [f"x{k}*x{l}/{u}^3" for k, l in itertools.combinations_with_replacement(
        (1, 2, 3), 2)], f"1/{u}^2"


def _affine_basis(n):
    return ["1"] + [f"x{k}" for k in range(1, n + 1)]


def _ansatz_system_reference(spec, basis, points):
    """The ansatz's KY system as it was built before, one point, pair and function at a time."""
    n = spec.dim
    parsed = [expr.parse_expression(b, n) for b in basis]
    pairs = list(itertools.combinations(range(n), 2))
    rows = np.zeros((len(points) * n ** 3, len(pairs) * len(parsed)))
    for pi, (pt, gamma) in enumerate(zip(points.tolist(), geometry.christoffel_at(spec, points))):
        jets = [expr.eval1(phi, pt) for phi in parsed]
        for ai, (a, b) in enumerate(pairs):
            for bi, jet in enumerate(jets):
                f = np.zeros((n, n))
                f[a, b], f[b, a] = jet.value, -jet.value
                df = np.zeros((n, n, n))
                df[:, a, b], df[:, b, a] = jet.gradient, -jet.gradient
                D = geometry._covariant_derivative(gamma, f, df)
                rows[pi * n ** 3:(pi + 1) * n ** 3, ai * len(parsed) + bi] = (
                    D + D.swapaxes(0, 1)).ravel()
    return rows


@pytest.mark.parametrize("spec, basis", [
    (geometry.flat(3), _affine_basis(3) + ["x1^2", "x2^2", "x3^2", "x1*x2", "x1*x3", "x2*x3"]),
    (geometry.flat(4), _affine_basis(4) + [
        f"x{k}*x{l}" for k, l in itertools.combinations_with_replacement(range(1, 5), 2)]),
    (geometry.const_curvature3(1.0), _constcurv_basis(1.0)[0]),
    (geometry.const_curvature3(-1.0), _constcurv_basis(-1.0)[0]),
    (geometry.const_curvature3_spherical(1.0), ["1", "x1", "sin(x2)", "x1^2*sin(x2)", "cos(x3)"]),
], ids=["flat3", "flat4", "K=1", "K=-1", "spherical"])
def test_ansatz_system_is_the_per_point_loop_bytewise(spec, basis, monkeypatch):
    systems, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: systems.append(a.copy())
                        or svd(a, *args, **kw))
    pts = geometry.sample_points(spec, 5, np.random.default_rng(4))
    kysym.ky_solve_ansatz(spec, basis, points=pts)
    want = _ansatz_system_reference(spec, basis, pts)
    assert systems[0].shape == want.shape and systems[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ansatz_counts_the_flat_ky_space(n):
    # binom(n+1, 3) two-forms (Semmelmann 2003), however often a function is written
    for seed in (0, 1, 2):
        for extra in ([], ["3*x1", "-0.5"]):
            fields = kysym.ky_solve_ansatz(geometry.flat(n), _affine_basis(n) + extra,
                                           rng=np.random.default_rng(seed))
            assert len(fields) == math.comb(n + 1, 3)


@pytest.mark.parametrize("K", [1.0, -1.0, 0.5, -4.0])
def test_ansatz_counts_four_on_constant_curvature(K):
    spec, (basis, dependent) = geometry.const_curvature3(K), _constcurv_basis(K)
    for seed in (0, 1, 2):
        for extra in ([], [dependent]):
            fields = kysym.ky_solve_ansatz(spec, basis + extra, rng=np.random.default_rng(seed))
            assert len(fields) == 4
    assert fresh_residual_max(spec, fields) <= 1e-8


def _solution_span(fields, pts):
    """An orthonormal basis, as columns, of the fields' values at ``pts``; each component is
    walked over floats by the reference, so no kernel is compiled."""
    n, rows = fields[0].dim, []
    for field in fields:
        comps = dict(field.component_items())
        rows.append([jetref.walk(comps[pair].root, [float(v) for v in pt]) if pair in comps
                     else 0.0 for pt in pts for pair in itertools.combinations(range(n), 2)])
    return np.linalg.svd(np.array(rows).T, full_matrices=False)[0]


@st.composite
def rewritten_bases(draw):
    """A spec, its basis, the KY dimension within it, and the basis written another way:
    scaled copies of some functions (and 1/u^2 on constant curvature), in any order."""
    kind = draw(st.sampled_from(["flat3", "flat4", "const"]))
    if kind == "const":
        K = draw(st.sampled_from([1.0, -1.0, 0.5, -4.0]))
        spec, (basis, dependent), dim = geometry.const_curvature3(K), _constcurv_basis(K), 4
        extra = [dependent] if draw(st.booleans()) else []
    else:
        n = int(kind[-1])
        spec, basis, extra, dim = geometry.flat(n), _affine_basis(n), [], math.comb(n + 1, 3)
    copies = draw(st.lists(st.tuples(st.sampled_from(basis), st.sampled_from(
        [2.0, -0.5, 3.0, 1.0])), min_size=1, max_size=3))
    rewritten = draw(st.permutations(basis + extra + [f"{c!r}*({b})" for b, c in copies]))
    return spec, basis, dim, rewritten


@given(case=rewritten_bases(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_ansatz_span_does_not_depend_on_how_the_basis_is_written(case, seed):
    spec, basis, dim, rewritten = case
    fields = kysym.ky_solve_ansatz(spec, basis, rng=np.random.default_rng(seed))
    again = kysym.ky_solve_ansatz(spec, rewritten, rng=np.random.default_rng(seed))
    assert len(fields) == len(again) == dim
    pts = geometry.sample_points(spec, 4, np.random.default_rng(seed))
    a, b = _solution_span(fields, pts), _solution_span(again, pts)
    assert np.linalg.svd(b - a @ (a.T @ b), compute_uv=False).max() <= 1e-10  # sin of the angles


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_ansatz_rejects_a_threshold_that_is_no_gate(bad):
    with pytest.raises(ValueError, match="rel_threshold must be a finite number at least 0"):
        kysym.ky_solve_ansatz(geometry.flat(3), _affine_basis(3), rel_threshold=bad)


def test_ansatz_underdetermined_warns():
    flat = geometry.flat(3)
    basis = ["1", "x1", "x2", "x3", "x1^2", "x2^2", "x3^2",
             "x1*x2", "x1*x3", "x2*x3"]  # 30 unknowns, 27 equations
    with pytest.warns(UserWarning):
        kysym.ky_solve_ansatz(flat, basis, points=[np.array([0.3, 0.7, -0.2])])


def test_ansatz_empty_basis():
    with pytest.raises(ValueError):
        kysym.ky_solve_ansatz(geometry.flat(3), [])


def ansatz_closure_reference(field, basis):
    """The field's components, over floats or jets, as the closure the solver
    once returned: acc = 0.0, then acc + c * phi term by term."""
    by_source = {expr.unparse(phi): phi for phi in basis}
    comps = {}
    for idx, comp in field.component_items():
        terms, node = [], comp.root
        while isinstance(node, expr.BinOp) and node.op == "+":
            c, phi = node.right.left, node.right.right
            c = -c.arg.value if isinstance(c, expr.Neg) else c.value
            terms.append((c, by_source[expr.unparse(phi)]))
            node = node.left
        assert isinstance(node, expr.Num) and node.value == 0.0
        comps[idx] = tuple(reversed(terms))

    def components(coords):
        out = {}
        for idx, terms in comps.items():
            acc = 0.0
            for c, e in terms:
                acc = acc + c * jetref.walk(e.root, coords)
            out[idx] = acc
        return out

    return components


def test_ansatz_solutions_are_serializable_expressions():
    u = "(1 + 1.0*(x1^2 + x2^2 + x3^2)/4)"
    curved = [f"1/{u}^2"] + [f"x{k}/{u}^3" for k in (1, 2, 3)]
    curved += [f"x{k}*x{l}/{u}^3" for k in (1, 2, 3) for l in (1, 2, 3) if l >= k]
    cases = [(geometry.flat(3), ["1", "x1", "x2", "x3"]),
             (geometry.const_curvature3(1.0), curved)]
    solved = 0
    for spec, basis in cases:
        parsed = [expr.parse_expression(b, 3) for b in basis]
        pts = geometry.sample_points(spec, 200, np.random.default_rng(8))
        for field in kysym.ky_solve_ansatz(spec, parsed, rng=np.random.default_rng(0)):
            solved += 1
            back = AntisymTensorField.from_dict(json.loads(json.dumps(field.to_dict())))
            assert back.to_dict() == field.to_dict()
            reference = ansatz_closure_reference(field, parsed)
            for pt in pts:
                values, jacobian = jetref.field_arrays(field.dim, field.rank, reference, pt)
                assert field.values_at(pt).tobytes() == values.tobytes()
                assert field.jacobian_at(pt).tobytes() == jacobian.tobytes()
    assert solved == 8
