"""Antisymmetric tensor fields: index machinery, evaluation, serialization."""

import itertools
import math

import jetref
import numpy as np
import pytest

from kyano import expr as exprmod
from kyano.fields import AntisymTensorField, levi_civita


def test_levi_civita_3():
    eps = levi_civita(3)
    assert eps[0, 1, 2] == 1.0
    assert eps[1, 0, 2] == -1.0
    assert eps[2, 0, 1] == 1.0
    assert eps[0, 0, 1] == 0.0
    assert np.count_nonzero(eps) == 6


def test_levi_civita_norm():
    # eps contracted with itself counts the permutations
    for n in range(2, 6):
        eps = levi_civita(n)
        assert np.einsum(eps, range(n), eps, range(n)) == math.factorial(n)


def test_levi_civita_read_only():
    eps = levi_civita(4)
    with pytest.raises(ValueError):
        eps[0, 1, 2, 3] = 5.0


def test_antisymmetry_exact_rank2():
    field = AntisymTensorField(3, 2, {"12": "x3", "13": "-x2", "23": "x1"})
    rng = np.random.default_rng(0)
    for _ in range(20):
        pt = rng.uniform(-2, 2, 3)
        f = field.values_at(pt)
        assert np.array_equal(f, -f.T)


def test_antisymmetry_exact_rank3():
    field = AntisymTensorField(4, 3, {(0, 1, 2): "x4", (1, 2, 3): "x1"})
    f = field.values_at([1.0, 2.0, 3.0, 4.0])
    for a in range(2):
        assert np.array_equal(f, -f.swapaxes(a, a + 1))
    assert f[0, 1, 2] == 4.0
    assert f[1, 0, 2] == -4.0
    assert f[2, 0, 1] == 4.0


def test_string_and_tuple_keys_agree():
    by_string = AntisymTensorField(3, 2, {"12": "x1"})
    by_tuple = AntisymTensorField(3, 2, {(0, 1): "x1"})
    pt = [0.5, 0.0, 0.0]
    assert np.array_equal(by_string.values_at(pt), by_tuple.values_at(pt))


def test_comma_keys_for_wide_dims():
    field = AntisymTensorField(11, 2, {"1,11": "2"})
    f = field.values_at(np.zeros(11))
    assert f[0, 10] == 2.0 and f[10, 0] == -2.0
    key, _ = next(iter(field.to_dict()["components"].items()))
    assert key == "1,11"


def test_keys_must_increase():
    with pytest.raises(ValueError):
        AntisymTensorField(3, 2, {"21": "x1"})
    with pytest.raises(ValueError):
        AntisymTensorField(3, 2, {"11": "x1"})


def test_key_out_of_range():
    with pytest.raises(ValueError):
        AntisymTensorField(3, 2, {"14": "x1"})


def test_constant_field_validates_antisymmetry():
    good = np.array([[0.0, 2.0], [-2.0, 0.0]])
    f = AntisymTensorField.constant(2, 2, good)
    assert np.array_equal(f.values_at([9.9, -3.0]), good)
    bad = np.array([[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        AntisymTensorField.constant(2, 2, bad)


def test_numeric_components():
    f = AntisymTensorField(4, 2, {(0, 1): 1.0, (2, 3): 1.0})
    v = f.values_at(np.zeros(4))
    assert v[0, 1] == 1.0 and v[2, 3] == 1.0 and v[1, 0] == -1.0


def test_numeric_components_serialize_as_their_float_repr():
    f = AntisymTensorField(3, 2, {"12": -2.5, "13": 1, "23": np.float64(0.1)})
    assert f.to_dict()["components"] == {"12": "-2.5", "13": "1.0", "23": "0.1"}
    back = AntisymTensorField.from_dict(f.to_dict())
    assert back.values_at([0.3, 0.2, 0.1]).tobytes() == f.values_at([0.3, 0.2, 0.1]).tobytes()
    assert not back.jacobian_at([0.3, 0.2, 0.1]).any()


def test_a_negative_zero_component_runs_its_own_kernel():
    # a -0.0 component once compared and hashed equal to 0.0, so a field of -0.0 ran the
    # fused kernel compiled for the same field with 0.0
    point = [0.5, 0.2, 0.1]
    assert AntisymTensorField(3, 2, {"12": 0.0, "13": "x1"}).values_at(point)[0, 1] == 0.0
    value = AntisymTensorField(3, 2, {"12": -0.0, "13": "x1"}).values_at(point)[0, 1]
    assert math.copysign(1.0, value) == -1.0


@pytest.mark.parametrize("value", [True, 10**400, math.inf, math.nan, [1.0], len],
                         ids=["bool", "int-too-large-for-a-float", "inf", "nan", "list",
                              "callable"])
def test_a_component_that_is_no_finite_number_or_expression_is_rejected(value):
    with pytest.raises(ValueError, match="^field component '12' must be an expression or a finite"):
        AntisymTensorField(3, 2, {"12": value})


def test_json_roundtrip():
    field = AntisymTensorField(3, 2, {"12": "x3", "13": "-x2", "23": "x1"})
    clone = AntisymTensorField.from_dict(field.to_dict())
    rng = np.random.default_rng(1)
    for _ in range(10):
        pt = rng.uniform(-1, 1, 3)
        assert np.array_equal(field.values_at(pt), clone.values_at(pt))


def test_from_dict_without_schema_tag():
    obj = {"dim": 3, "rank": 2, "components": {"12": "x1"}}
    f = AntisymTensorField.from_dict(obj)
    assert f.values_at([2.0, 0, 0])[0, 1] == 2.0


def test_jacobian_matches_finite_differences():
    field = AntisymTensorField(3, 2, {"12": "x1*x3", "13": "sin(x2)", "23": "x1^2"})
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(5):
        pt = rng.uniform(-1, 1, 3)
        jac = field.jacobian_at(pt)
        for a in range(3):
            up, dn = pt.copy(), pt.copy()
            up[a] += h
            dn[a] -= h
            fd = (field.values_at(up) - field.values_at(dn)) / (2 * h)
            assert np.abs(jac[a] - fd).max() < 1e-8


def test_row_jacobians_and_values_match_single_points():
    # expression and numeric components; one row at a time by the per-component kernels
    field = AntisymTensorField(
        4, 2, {"12": "x1*sin(x3)", "14": "x1*x2 - x3", "23": 2.5, "34": "x4^2/x2"})
    X = np.random.default_rng(7).uniform(0.5, 2.0, (40, 4))
    jac = field.jacobian_at(X)
    vals = field.values_at(X)
    assert jac.shape == (40, 4, 4, 4) and vals.shape == (40, 4, 4)
    for x, j, v in zip(X, jac, vals):
        want = np.zeros((4, 4, 4))
        for (a, b), c in field.component_items():
            grad = exprmod._kernel(c, 1)(x.tolist())[1:]
            want[:, a, b], want[:, b, a] = grad, -np.array(grad)
        assert j.tobytes() == want.tobytes() == field.jacobian_at(x).tobytes()
        assert v.tobytes() == field.values_at(x).tobytes()
    with pytest.raises(ValueError, match="dimension 4"):
        field.jacobian_at(X[:, :3])


def test_rank_bounds():
    with pytest.raises(ValueError):
        AntisymTensorField(3, 4, {})
    with pytest.raises(ValueError):
        AntisymTensorField(3, 0, {})


# -- table scatter against the per-permutation reference -----------------------


def _random_field(n, rank, rng):
    """Random expression components on a random subset of index tuples,
    one of them numeric where there is room."""
    keys = list(itertools.combinations(range(n), rank))
    rng.shuffle(keys)
    keys = keys[: max(1, int(rng.integers(1, len(keys) + 1)))]
    comps = {}
    for j, key in enumerate(keys):
        a, b = (int(v) for v in rng.integers(1, n + 1, 2))
        c = float(rng.uniform(-2.0, 2.0))
        if j == 1:
            comps[key] = f"{c!r}*x{a}*x{b} - x1"
        elif j == 2:
            comps[key] = c
        else:
            comps[key] = f"{c!r}*x{a}*x{b} + sin(x{b}) - x{a}^3"
    return AntisymTensorField(n, rank, comps)


@pytest.mark.parametrize(
    "n, rank", [(n, r) for n in range(1, 7) for r in range(1, n + 1)]
)
def test_scatter_matches_permutation_reference(n, rank):
    rng = np.random.default_rng(1000 * n + rank)
    for _ in range(3):
        field = _random_field(n, rank, rng)
        for pt in rng.uniform(-1.5, 1.5, (3, n)):
            values, jacobian = jetref.expression_field_arrays(field, pt)
            assert field.values_at(pt).tobytes() == values.tobytes()
            assert field.jacobian_at(pt).tobytes() == jacobian.tobytes()


def test_levi_civita_matches_permutation_signs():
    for n in range(1, 8):
        eps = levi_civita(n)
        ref = np.zeros((n,) * n)
        for perm in itertools.permutations(range(n)):
            ref[perm] = jetref.permutation_sign(perm)
        assert eps.tobytes() == ref.tobytes()
