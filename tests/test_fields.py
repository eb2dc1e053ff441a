"""Antisymmetric tensor fields: index machinery, evaluation, serialization."""

import itertools
import math

import numpy as np
import pytest

from kyano import expr as exprmod
from kyano.dual import Jet, value_of
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


def test_callable_components_not_serializable():
    f = AntisymTensorField(3, 2, {(0, 1): lambda pt: pt[2]})
    assert f.values_at([0, 0, 7.0])[0, 1] == 7.0
    assert not f.is_serializable
    with pytest.raises(ValueError):
        f.to_dict()


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


def test_rank_bounds():
    with pytest.raises(ValueError):
        AntisymTensorField(3, 4, {})
    with pytest.raises(ValueError):
        AntisymTensorField(3, 0, {})


# -- table scatter against the per-permutation reference -----------------------


def _reference_sign(perm):
    inversions = sum(
        perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
    )
    return -1 if inversions % 2 else 1


def _reference_scalar(comp, coords):
    if isinstance(comp, exprmod.Expression):
        return exprmod.evaluate(comp, coords)
    if callable(comp):
        return comp(coords)
    return float(comp)


def _reference_values(field, point):
    """One assignment per index tuple and permutation, as a plain loop."""
    n, rank = field.dim, field.rank
    coords = [float(v) for v in point]
    arr = np.zeros((n,) * rank)
    for idx, comp in field.component_items():
        v = value_of(_reference_scalar(comp, coords))
        for perm in itertools.permutations(range(rank)):
            arr[tuple(idx[k] for k in perm)] = _reference_sign(perm) * v
    return arr


def _reference_jacobian(field, point):
    n, rank = field.dim, field.rank
    seeds = Jet.seeds(np.asarray(point, dtype=float), 1)
    jac = np.zeros((n,) + (n,) * rank)
    for idx, comp in field.component_items():
        grad = Jet.lift(_reference_scalar(comp, seeds), n, 1).gradient
        for perm in itertools.permutations(range(rank)):
            jac[(slice(None),) + tuple(idx[k] for k in perm)] = _reference_sign(perm) * grad
    return jac


def _random_field(n, rank, rng):
    """Random expression components on a random subset of index tuples,
    plus one callable and one numeric component where there is room."""
    keys = list(itertools.combinations(range(n), rank))
    rng.shuffle(keys)
    keys = keys[: max(1, int(rng.integers(1, len(keys) + 1)))]
    comps = {}
    for j, key in enumerate(keys):
        a, b = (int(v) for v in rng.integers(1, n + 1, 2))
        c = float(rng.uniform(-2.0, 2.0))
        if j == 1:
            comps[key] = lambda xs, a=a, b=b, c=c: c * xs[a - 1] * xs[b - 1] - xs[0]
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
            assert field.values_at(pt).tobytes() == _reference_values(field, pt).tobytes()
            assert field.jacobian_at(pt).tobytes() == _reference_jacobian(field, pt).tobytes()


def test_levi_civita_matches_permutation_signs():
    for n in range(1, 8):
        eps = levi_civita(n)
        ref = np.zeros((n,) * n)
        for perm in itertools.permutations(range(n)):
            ref[perm] = _reference_sign(perm)
        assert eps.tobytes() == ref.tobytes()
