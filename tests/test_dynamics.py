"""Brackets, geodesic integration, drift monitoring, unified flow."""

import ast
import csv
import dataclasses
import functools
import itertools
import math
import operator
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kyano import dynamics, expr, geometry, kysym
from kyano.dynamics import (
    GeodesicHamiltonian,
    PhaseFunction,
    PhasePoint,
    Trajectory,
    angular_momentum,
    conservation_monitor,
    free_hamiltonian,
    geodesic_integrate,
    killing_quadratic,
    nambu_bracket,
    poisson_bracket,
    unified_hamilton_flow,
    write_trajectory_csv,
)
from kyano.errors import DomainError, SingularEvaluation, SingularMetric


def random_phase_points(count, seed=0, n=3):
    rng = np.random.default_rng(seed)
    return [
        PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        for _ in range(count)
    ]


# -- Poisson bracket ---------------------------------------------------------


def test_canonical_bracket():
    F = PhaseFunction.from_expression("x3", 3)
    G = PhaseFunction.from_expression("p3", 3)
    for z in random_phase_points(5):
        assert poisson_bracket(F, G, z) == 1.0


PAIR_SLOTS = ((1, 2), (1, 3), (2, 3))


def flat_pair_components():
    # rank-2 pair in three dimensions: f_ij = eps_kij x_k, twin over p
    eps = np.zeros((3, 3, 3))
    for perm in itertools.permutations(range(3)):
        sign = 1.0
        lst = list(perm)
        for i in range(3):
            for j in range(3 - i - 1):
                if lst[j] > lst[j + 1]:
                    lst[j], lst[j + 1] = lst[j + 1], lst[j]
                    sign = -sign
        eps[perm] = sign
    comp_f, comp_ft = {}, {}
    for (i, j) in PAIR_SLOTS:
        k = ({1, 2, 3} - {i, j}).pop()
        sign = eps[k - 1, i - 1, j - 1]
        comp_f[(i, j)] = PhaseFunction.from_expression(
            f"x{k}" if sign > 0 else f"-x{k}", 3
        )
        comp_ft[(i, j)] = PhaseFunction.from_expression(
            f"p{k}" if sign > 0 else f"-p{k}", 3
        )
    return comp_f, comp_ft


def test_pair_component_brackets():
    # {f_ij, ft_kl} = delta_ik delta_jl - delta_il delta_jk
    comp_f, comp_ft = flat_pair_components()
    for z in random_phase_points(10, seed=1):
        for (i, j) in PAIR_SLOTS:
            for (k, l) in PAIR_SLOTS:
                expected = float(i == k) * float(j == l) - float(i == l) * float(j == k)
                got = poisson_bracket(comp_f[(i, j)], comp_ft[(k, l)], z)
                assert abs(got - expected) <= 1e-12


def test_bracket_antisymmetry():
    F = PhaseFunction.from_expression("x1^2*p2 + x3", 3)
    G = PhaseFunction.from_expression("p1*p3 - x2", 3)
    for z in random_phase_points(10, seed=2):
        assert poisson_bracket(F, G, z) == -poisson_bracket(G, F, z)


def test_bracket_leibniz():
    F = PhaseFunction.from_expression("x1*p2", 3)
    G = PhaseFunction.from_expression("x2^2 - p3", 3)
    H = PhaseFunction.from_expression("p1 + x3*p3", 3)
    FG = PhaseFunction.from_expression("(x1*p2) * (x2^2 - p3)", 3)
    for z in random_phase_points(10, seed=3):
        lhs = poisson_bracket(FG, H, z)
        rhs = F.value(z) * poisson_bracket(G, H, z) + G.value(z) * poisson_bracket(F, H, z)
        assert abs(lhs - rhs) <= 1e-10


def test_bracket_jacobi():
    # evaluate {{F,G},H} cyclically; inner brackets written out by hand for
    # F = x1*p2, G = x2*p3, H = x3*p1 (angular-momentum-like chain):
    # {F,G} = x1*p3, {G,H} = x2*p1, {H,F} = x3*p2
    n = 3
    F = PhaseFunction.from_expression("x1*p2", n)
    G = PhaseFunction.from_expression("x2*p3", n)
    H = PhaseFunction.from_expression("x3*p1", n)
    FG = PhaseFunction.from_expression("x1*p3", n)
    GH = PhaseFunction.from_expression("x2*p1", n)
    HF = PhaseFunction.from_expression("x3*p2", n)
    for z in random_phase_points(20, seed=4):
        total = (
            poisson_bracket(FG, H, z)
            + poisson_bracket(GH, F, z)
            + poisson_bracket(HF, G, z)
        )
        assert abs(total) <= 1e-8


def test_hamiltonian_angular_momentum_brackets():
    flat = geometry.flat(3)
    H = free_hamiltonian(flat)
    K = killing_quadratic(flat, kysym.flat_ky_position_field(3))
    for z in random_phase_points(10, seed=5):
        for i in (1, 2, 3):
            assert abs(poisson_bracket(H, angular_momentum(i), z)) <= 1e-10
        assert abs(poisson_bracket(H, K, z)) <= 1e-10
    # curved case: the Killing quadratic raises K's indices with g^{-1}
    taubnut = geometry.taub_nut(1.0)
    H = free_hamiltonian(taubnut)
    K = killing_quadratic(taubnut, kysym.taubnut_ky_field(1, 1.0))
    z = PhasePoint([1.5, 1.2, 0.3, 0.5], [0.1, 0.2, -0.3, 0.4])
    assert abs(poisson_bracket(H, K, z)) <= 1e-10


_DIAG_X1_SQUARED = geometry.custom([["1", "0"], ["0", "x1^2"]])
_K_MINUS_1_POLE = ("outside the chart domain: abs((1.0 + (((-1.0) * (((x1 ^ 2.0) + (x2 ^ 2.0))"
                   " + (x3 ^ 2.0))) / 4.0))) < 1e-09")


@pytest.mark.parametrize("spec, x, error, message", [
    # outside a guard
    (geometry.taub_nut(1.0), [1e-12, 1.0, 0.4, 0.2], DomainError,
     "outside the chart domain: x1 < 1e-09"),
    (geometry.taub_nut(1.0), [1.3, 0.0, 0.4, 0.2], DomainError,
     "outside the chart domain: abs(sin(x2)) < 1e-09"),
    (geometry.const_curvature3(-1.0), [2.0, 0.0, 0.0], DomainError, _K_MINUS_1_POLE),
    (dataclasses.replace(geometry.const_curvature3(-1.0), inverse=None), [2.0, 0.0, 0.0],
     DomainError, _K_MINUS_1_POLE),
    (geometry.const_curvature3_spherical(1.0), [0.0, 0.5, 0.5], DomainError,
     "outside the chart domain: x1 < 1e-09"),
    # non-finite x
    (geometry.taub_nut(1.0), [math.nan, 1.0, 0.4, 0.2], DomainError,
     "point has non-finite coordinates"),
    (geometry.taub_nut(1.0), [1.3, 1.0, 0.4, -math.inf], DomainError,
     "point has non-finite coordinates"),
    (dataclasses.replace(geometry.const_curvature3(1.0), inverse=None), [0.1, math.nan, 0.0],
     DomainError, "point has non-finite coordinates"),
    (geometry.flat(3), [math.inf, 0.0, 0.0], DomainError, "point has non-finite coordinates"),
    (_DIAG_X1_SQUARED, [math.nan, 1.0], DomainError, "point has non-finite coordinates"),
    # g degenerate or non-finite
    (_DIAG_X1_SQUARED, [0.0, 1.0], SingularMetric, "metric matrix is singular at this point"),
    (_DIAG_X1_SQUARED, [1e-200, 1.0], SingularMetric, "metric matrix is singular at this point"),
    (geometry.custom([["1", "x1"], ["x1", "1"]]), [1.0, 1.0], SingularMetric,
     "metric matrix is singular at this point"),
    (_DIAG_X1_SQUARED, [1e200, 1.0], SingularMetric,
     "metric evaluated to non-finite components"),
    (geometry.custom([["1", "0"], ["0", "1/x1"]]), [0.0, 1.0], SingularEvaluation,
     "division by zero in '/' at offset 1"),
])
def test_h_gradient_and_its_brackets_raise_the_metric_checks_error(spec, x, error, message):
    # the kernel that rhs runs checks the guards, x and g, in the order metric_at does
    H, n = free_hamiltonian(spec), spec.dim
    G = PhaseFunction.from_expression("x1*p1", n)
    for p in ([0.2] * n, [math.nan] + [0.2] * (n - 1)):
        z = PhasePoint(x, p)
        for call in (lambda: H.gradient(z), lambda: poisson_bracket(H, G, z)):
            with pytest.raises(error) as raised:
                call()
            assert type(raised.value) is error and str(raised.value) == message


# -- Nambu bracket -------------------------------------------------------------


def test_nambu_identity():
    assert nambu_bracket("x1", "x2", "x3", [0.3, -0.2, 0.9]) == 1.0


def test_nambu_repeated_argument():
    assert nambu_bracket("x1", "x1", "x3", [1.0, 2.0, 3.0]) == 0.0


def test_nambu_dependent_rows():
    assert abs(nambu_bracket("x1", "x2", "x1*x2", [0.5, 0.25, 2.0])) <= 1e-15


def test_nambu_total_antisymmetry():
    fns = ("x1^2 + x2", "x2*x3", "x3 - x1*x3")
    pt = [0.4, -0.7, 1.2]
    base = nambu_bracket(*fns, pt)
    signs = {
        (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (0, 2, 1): -1, (1, 0, 2): -1, (2, 1, 0): -1,
    }
    for perm, sign in signs.items():
        val = nambu_bracket(fns[perm[0]], fns[perm[1]], fns[perm[2]], pt)
        assert val == pytest.approx(sign * base, abs=1e-15)


def test_nambu_dimension_guard():
    with pytest.raises(ValueError):
        nambu_bracket("x1", "x2", "x3", [1.0, 2.0])


# -- geodesic integration --------------------------------------------------------


def test_flat_straight_line():
    traj = geodesic_integrate(
        geometry.flat(3), PhasePoint([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), 0.01, 100
    )
    assert traj.meta["completed"]
    for k, t in enumerate(traj.times):
        assert np.abs(traj.x[k] - [1.0, t, 0.0]).max() <= 1e-12
        assert np.array_equal(traj.p[k], [0.0, 1.0, 0.0])
    abs_d, rel_d = conservation_monitor(traj, free_hamiltonian(geometry.flat(3)))
    assert abs_d == 0.0 and rel_d == 0.0


def test_zero_momentum_constant_trajectory():
    traj = geodesic_integrate(
        geometry.taub_nut(1.0), PhasePoint([1.5, 1.0, 0.5, 0.5], np.zeros(4)), 0.05, 20
    )
    assert np.abs(traj.states - traj.states[0]).max() == 0.0


def test_integration_validation():
    flat = geometry.flat(2)
    z = PhasePoint([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        geodesic_integrate(flat, z, -0.1, 10)
    with pytest.raises(ValueError):
        geodesic_integrate(flat, z, 0.1, 0)
    from kyano.errors import DomainError

    with pytest.raises(DomainError):
        geodesic_integrate(
            geometry.taub_nut(1.0), PhasePoint([-1.0, 1.0, 0, 0], np.zeros(4)), 0.1, 5
        )


def test_truncation_on_domain_exit():
    spec = geometry.custom([["sqrt(x1)"]])
    traj = geodesic_integrate(spec, PhasePoint([1.0], [-1.0]), 0.05, 100)
    assert not traj.meta["completed"]
    assert traj.meta["steps_completed"] < 100
    assert "sqrt" in traj.meta["reason"]
    assert len(traj) == traj.meta["steps_completed"] + 1
    assert np.isfinite(traj.states).all()
    assert np.all(np.diff(traj.times) > 0)


@pytest.mark.parametrize("steps", [50, 100])
def test_truncation_where_the_metric_degenerates(steps):
    # g = diag(1, x1^2) degenerates at x1 = 0; state 50 of this geodesic
    # has x1 = 3.8e-14, so it goes, also when it would be the last one
    spec = geometry.custom([["1", "0"], ["0", "x1^2"]])
    traj = geodesic_integrate(spec, PhasePoint([0.5, 0.0], [-1.0, 1e-8]), 0.01, steps)
    assert not traj.meta["completed"]
    assert traj.meta["steps_completed"] == 49
    assert traj.meta["reason"] == "metric matrix is singular at this point"
    for x in traj.x:
        geometry.metric_at(spec, x)
    assert conservation_monitor(traj, free_hamiltonian(spec))[0] < 1e-12


def _numeric(spec):
    """``spec`` without its closed-form inverse: the RHS on the metric's 1-jet."""
    return dataclasses.replace(spec, inverse=None)


@pytest.mark.parametrize("spec", [geometry.taub_nut(m, fs) for m in (0.7, 1.0, 2.5)
                                  for fs in (2.0, 4.0)]
                         + [geometry.const_curvature3(K) for K in (-4.0, -1.0, 1.0)],
                         ids=lambda s: f"{s.kind}:{s.params}")
def test_closed_form_rhs_matches_the_numeric_rhs(spec):
    # relative to the conditioning kappa = max|g| max|g^-1| that the singular
    # rule bounds: the numeric inverse errs by about kappa ulps, the closed form
    # does not (unscaled, the two differ by up to 1.2e-14 of max|rhs| here)
    rng = np.random.default_rng(2)
    closed, numeric = free_hamiltonian(spec), free_hamiltonian(_numeric(spec))
    for x in geometry.sample_points(spec, 200, rng):
        z = np.concatenate([x, rng.uniform(-1, 1, spec.dim)]).tolist()
        got, want = np.asarray(closed.rhs(z)), np.asarray(numeric.rhs(z))
        g = geometry.metric_at(spec, x)
        kappa = np.abs(g).max() * np.abs(geometry.inverse_metric_at(spec, x)).max()
        assert np.abs(got - want).max() <= 1e-15 * kappa * np.abs(want).max()


def _dense(n):
    """A dense custom metric: g_ii = (n + 2) + x_i^2 / 4, g_ij = x_i x_j / (4n)."""
    return geometry.custom([[f"{n + 2} + x{i + 1}^2/4" if i == j else f"x{i + 1}*x{j + 1}/{4 * n}"
                             for j in range(n)] for i in range(n)])


def _einsum_rhs(spec, z):
    """Hamilton's equations from numpy's g^-1 and an einsum over g's 1-jet."""
    _, dg, ginv = geometry._metric(spec, z[:spec.dim], 1, inverse=True)
    u = ginv @ np.array(z[spec.dim:])
    return np.concatenate([u, 0.5 * np.einsum("m,amn,n->a", u, dg, u)])


# a coupled 3-D metric, whose g^-1 is inverted inside the kernel
_COUPLED = geometry.custom([["2 + x2^2", "x1*x2/4", "0"], ["x1*x2/4", "3 + cos(x3)", "x3/5"],
                            ["0", "x3/5", "1 + x1^2"]])
_CUSTOM = [geometry.const_curvature3_spherical(K) for K in (-1.0, 1.0)] + [
    geometry.custom([["1", "0"], ["0", "x1^2"]]), _COUPLED, _dense(4), _dense(6)]
_CUSTOM_IDS = ["spherical-K=-1", "spherical-K=1", "diag(1,x1^2)", "coupled", "dense4", "dense6"]


@pytest.mark.parametrize("spec", _CUSTOM, ids=_CUSTOM_IDS)
def test_the_numeric_kernel_rhs_matches_the_einsum_rhs(spec):
    # g^-1 inverted in the kernel, u = g^-1 p and dp/dt = 0.5 sum_{i<=j} c u_i d_a g_ij u_j,
    # against numpy's inverse and an einsum, relative to the conditioning kappa as above
    rng = np.random.default_rng(4)
    H = free_hamiltonian(spec)
    for x in geometry.sample_points(spec, 200, rng):
        z = np.concatenate([x, rng.uniform(-1, 1, spec.dim)]).tolist()
        got, want = np.asarray(H.rhs(z)), _einsum_rhs(spec, z)
        g = geometry.metric_at(spec, x)
        kappa = np.abs(g).max() * np.abs(geometry.inverse_metric_at(spec, x)).max()
        assert np.abs(got - want).max() <= 4e-16 * kappa * np.abs(want).max()


@pytest.mark.parametrize("spec", [geometry.flat(2), geometry.taub_nut(1.0)], ids=lambda s: s.kind)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_start_momentum_is_an_input_error(spec, bad, monkeypatch):
    monkeypatch.setattr(dynamics, "_rk4", mock.Mock(side_effect=AssertionError("integrated")))
    x = [0.0, 0.0] if spec.dim == 2 else [1.3, 1.0, 0.4, 0.2]
    with pytest.raises(ValueError, match="^start momentum has non-finite components$"):
        geodesic_integrate(spec, PhasePoint(x, [0.1] * (spec.dim - 1) + [bad]), 0.01, 10)


def _hamilton_oracle(spec, z):
    """dx/dt_k = sum_j g^{kj} p_j and dp/dt_a = -(0.5 * sum_{i<=j} (p_i p_j) (c d_a g^{ij})),
    c = 2 off the diagonal, from ``expr.eval1`` of the closed-form g^-1 entries: each sum
    in the order of j, or of the upper triangle, and a constant entry adds no term."""
    n, x, p = spec.dim, z[:spec.dim], z[spec.dim:]
    jets = {(i, j): expr.eval1(e, x) for i, row in enumerate(spec.inverse)
            for j, e in enumerate(row) if e is not None}
    varying = [(i, j) for i, j in jets if i <= j
               and not isinstance(spec.inverse[i][j].root, expr.Num)]

    def total(terms):  # left to right, without a leading 0.0 that would turn -0.0 into +0.0
        return functools.reduce(operator.add, terms) if terms else 0.0

    xdot = [total([jets[k, j].value * p[j] for j in range(n) if (k, j) in jets])
            for k in range(n)]
    pdot = [-(0.5 * total([(p[i] * p[j]) * (jets[i, j].gradient[a] * (2.0 if i < j else 1.0))
                           for i, j in varying])) for a in range(n)]
    return [float(v) for v in xdot + pdot]


_CATALOG = [geometry.flat(n) for n in (1, 3, 7)] + [
    geometry.taub_nut(m, fs) for m, fs in ((1.0, 2.0), (2.5, 4.0), (0.7, 2.0))] + [
    geometry.const_curvature3(K) for K in (1.0, -4.0, 0.5)]


@pytest.mark.parametrize("spec", _CATALOG, ids=lambda s: f"{s.kind}{s.dim}:{s.params}")
def test_the_kernel_rhs_is_hamiltons_equations_bytewise(spec):
    rng = np.random.default_rng(11)
    H = GeodesicHamiltonian(spec)
    for x in geometry.sample_points(spec, 300, rng):
        p = rng.uniform(-1.0, 1.0, spec.dim) * 10.0 ** rng.uniform(-3.0, 3.0)
        z = np.concatenate([x, p]).tolist()
        assert np.array(H.rhs(z)).tobytes() == np.array(_hamilton_oracle(spec, z)).tobytes(), z


def test_both_rhs_paths_truncate_at_the_singular_bound():
    # the guards do not imply the bound: at theta = 1e-6 the point is inside
    # abs(sin(x2)) >= 1e-9 but max|g| max|g^-1| is past 1e13 / n^2
    spec = geometry.taub_nut(1.0)
    geometry._check_guards(spec, [1.3, 1e-6, 0.3, 0.1])
    with pytest.raises(SingularMetric, match="singular"):
        geometry.metric_at(spec, [1.3, 1e-6, 0.3, 0.1])
    start = PhasePoint([1.3, 1e-5, 0.3, 0.1], [0.0, -1e-4, 0.0, 0.0])
    for s in (spec, _numeric(spec)):
        traj = geodesic_integrate(s, start, 0.01, 50)
        assert traj.meta["steps_completed"] == 37
        assert traj.meta["reason"] == "metric matrix is singular at this point"


def _numpy_rk4(rhs, start, dt, steps):
    """Classic RK4 on numpy arrays, the reference for the driver's float lists:
    the retained states and the truncation reason."""
    z = start.as_vector()

    def stage(state):
        if not np.isfinite(state).all():
            raise DomainError("state left the finite range")
        return np.asarray(rhs(state.tolist()))

    states, reason = [z], None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            k1 = stage(z)
            for _ in range(steps):
                k2 = stage(z + (0.5 * dt) * k1)
                k3 = stage(z + (0.5 * dt) * k2)
                k4 = stage(z + dt * k3)
                z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                k1 = stage(z)
                states.append(z)
        except (DomainError, SingularEvaluation) as e:
            reason = str(e)
    return np.array(states), reason


_TN, _K3 = ([1.3, 1.0, 0.4, 0.2], [0.2, -0.3, 0.1, 0.4]), ([0.2, -0.1, 0.3], [0.5, 0.2, -0.4])
_DRIVER_CASES = {
    "taub-nut": (geometry.taub_nut(1.0), _TN, 0.01, None),
    "taub-nut-fiber-4": (geometry.taub_nut(1.0, 4.0), _TN, 0.01, None),
    "K=1": (geometry.const_curvature3(1.0), _K3, 0.01, None),
    "K=-1": (geometry.const_curvature3(-1.0), _K3, 0.01, None),
    "flat3": (geometry.flat(3), _K3, 0.01, None),
    "diag(1,x1^2)": (geometry.custom([["1", "0"], ["0", "x1^2"]]),
                     ([1.0, 0.0], [0.3, 0.2]), 0.01, None),
    "spherical": (geometry.const_curvature3_spherical(1.0),
                  ([1.0, 1.0, 0.5], [0.3, -0.2, 0.1]), 0.01, None),
    "coupled": (_COUPLED, _K3, 0.01, None),
    "dense5": (_dense(5), ([0.5, -0.3, 0.2, 0.1, -0.4], [0.3, 0.1, -0.2, 0.25, 0.05]), 0.01, None),
    # truncations: at a guard, at the singular bound and past the finite range
    "guard": (geometry.taub_nut(1.0), ([1.0, 1.0, 0.0, 0.0], [-3.0, 0.0, 0.0, 0.0]), 0.01,
              (175, "outside the chart domain: x1 < 1e-09")),
    "singular-bound": (geometry.taub_nut(1.0), ([1.3, 1e-5, 0.3, 0.1], [0.0, -1e-4, 0.0, 0.0]),
                       0.01, (37, "metric matrix is singular at this point")),
    "overflow": (geometry.flat(2), ([1.79e308, 0.0], [1e306, 0.0]), 0.01,
                 (76, "state left the finite range")),
}


@pytest.mark.parametrize("case", sorted(_DRIVER_CASES))
def test_list_driver_equals_a_numpy_rk4_bitwise(case):
    spec, (x0, p0), dt, truncation = _DRIVER_CASES[case]
    start = PhasePoint(x0, p0)
    specs = [spec] + ([_numeric(spec)] if spec.inverse is not None else [])
    for s in specs:  # the closed-form g^-1 and, where there is one, the numeric g^-1
        with mock.patch.object(dynamics, "_rk4", wraps=dynamics._rk4) as rk4:
            traj = geodesic_integrate(s, start, dt, 1000)
        assert rk4.call_args.args[4]  # every metric takes the compiled run
        want, reason = _numpy_rk4(GeodesicHamiltonian(s).rhs, start, dt, 1000)
        assert traj.states.tobytes() == want.tobytes()
        assert traj.meta.get("reason") == reason
        if truncation is None:
            assert traj.meta["completed"]
        else:
            assert (traj.meta["steps_completed"], reason) == truncation


def _failing_stage(spec, start, dt, steps):
    """The reference's states and reason, and the stage of its first failure:
    k2, k3, k4 or k1' (the next state's k1)."""
    rhs, calls, raised = GeodesicHamiltonian(spec).rhs, [], []

    def counted(z):
        calls.append(1)
        raised.append(True)
        out = rhs(z)
        raised.pop()
        return out

    want, reason = _numpy_rk4(counted, start, dt, steps)
    # call 0 is the start's k1; a state that is not finite fails before its call
    failing = len(calls) - (1 if raised else 0)
    return want, reason, ["k1'", "k2", "k3", "k4"][failing % 4]


_STAGE_CASES = {  # a first failure at each stage of the compiled step
    "k2": (geometry.taub_nut(1.0), ([1.0, 1.0, 0.0, 0.0], [-3.0, 0.0, 0.0, 0.0]), 0.0054,
           (325, "outside the chart domain: x1 < 1e-09")),
    "k3": (geometry.const_curvature3(-4.0),
           ([-0.8012209454372758, 0.8024837542036916, -0.5618287987950601],
            [-29.327256049533883, -9.292291482274385, 4.164444431789197]), 0.0496,
           (2, "state left the finite range")),
    "k4": (geometry.taub_nut(1.0), ([1.0, 1.0, 0.0, 0.0], [-3.0, 0.0, 0.0, 0.0]), 0.01,
           (175, "outside the chart domain: x1 < 1e-09")),
    "k1'": (geometry.taub_nut(1.0),
            ([1.8082172394725804, 1.485327416294463, 3.2175844406391545, 11.31460573903714],
             [-1.2622257438667301, -0.9825678806823498, -0.41044526902580464,
              -0.4122007531376168]), 0.035, (101, "metric matrix is singular at this point")),
}


@pytest.mark.parametrize("stage", sorted(_STAGE_CASES))
def test_compiled_step_truncates_where_the_reference_does_at_each_stage(stage, monkeypatch):
    spec, (x0, p0), dt, truncation = _STAGE_CASES[stage]
    start, rhs, calls = PhasePoint(x0, p0), GeodesicHamiltonian.rhs, []
    for s in (spec, _numeric(spec)):  # the closed-form g^-1 and the numeric one
        want, reason, failing = _failing_stage(s, start, dt, 1000)
        assert failing == stage
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(GeodesicHamiltonian, "rhs", lambda self, z: calls.append(z) or rhs(self, z))
            traj = geodesic_integrate(s, start, dt, 1000)
        # rhs runs for the start's k1, the failing step and a step or two that an accept
        # test or a check declines conservatively: the compiled step ran the rest
        assert len(calls) <= 10
        assert traj.states.tobytes() == want.tobytes()
        assert (traj.meta["steps_completed"], traj.meta["reason"]) == truncation
        assert reason == truncation[1]


@pytest.mark.parametrize("case", ["taub-nut", "K=1", "guard"])
def test_a_step_declined_every_third_time_replays_to_the_same_bytes(case):
    spec, (x0, p0), dt, _ = _DRIVER_CASES[case]
    start, H, calls = PhasePoint(x0, p0), GeodesicHamiltonian(spec), itertools.count()
    run = H._fused[1]

    def two_steps(out, k, stop, *args):  # so the driver replays every third step
        next(calls)
        return run(out, k, min(stop, k + 2), *args)

    traj = dynamics._rk4(H.rhs, start, dt, 1000, two_steps)
    want, reason = _numpy_rk4(H.rhs, start, dt, 1000)
    assert next(calls) > 3
    assert traj.states.tobytes() == want.tobytes()
    assert traj.meta.get("reason") == reason


def test_the_run_reenters_after_a_replayed_step_and_keeps_the_bytes():
    spec, (x0, p0), dt, _ = _DRIVER_CASES["taub-nut"]
    start, H, entries = PhasePoint(x0, p0), GeodesicHamiltonian(spec), []
    run = H._fused[1]

    def declines_the_first_step(out, k, stop, *args):
        entries.append(k)
        if len(entries) == 1:  # declined: the state and its k1 as they came
            return k, list(args[:8]), list(args[8:16])
        return run(out, k, stop, *args)

    traj = dynamics._rk4(H.rhs, start, dt, 1001, declines_the_first_step)
    want, reason = _numpy_rk4(H.rhs, start, dt, 1001)
    assert entries == [0, 1]  # step 1 replayed, then 1000 compiled steps
    assert reason is None and traj.states.tobytes() == want.tobytes()


_CLOSED_FORM = [geometry.taub_nut(m, fs) for m in (0.7, 1.0) for fs in (2.0, 4.0)] + [
    geometry.const_curvature3(K) for K in (-4.0, -1.0, 0.5, 1.0)] + [
    geometry.flat(n) for n in (1, 3, 7)]
_STEP_SPECS = _CLOSED_FORM + [_numeric(spec) for spec in _CLOSED_FORM] + [
    geometry.const_curvature3_spherical(K) for K in (-1.0, 1.0)] + [_COUPLED]
_EDGES = st.sampled_from([0.0, -0.0, 1e150, -1e150, 1e-300, -1e-300])


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, len(_STEP_SPECS) - 1),
       x=st.lists(st.one_of(st.floats(-3.0, 3.0), _EDGES), min_size=7, max_size=7),
       p=st.lists(st.one_of(st.floats(-15.0, 15.0), _EDGES), min_size=7, max_size=7),
       dt=st.floats(1e-3, 0.05))
def test_compiled_step_equals_the_per_stage_path(which, x, p, dt):
    # the reference is the same rhs stage by stage, of a closed-form or a numeric
    # g^-1; a component of 1e150 overflows p_i p_j or the state within a few steps,
    # and one of 0.0 gives the sparse kernel's skipped products a zero factor
    spec = _STEP_SPECS[which]
    start = PhasePoint(x[:spec.dim], p[:spec.dim])
    try:
        geometry.metric_at(spec, start.x)
    except DomainError:
        assume(False)
    traj = geodesic_integrate(spec, start, dt, 200)
    want = dynamics._rk4(GeodesicHamiltonian(spec).rhs, start, dt, 200)
    assert traj.states.tobytes() == want.states.tobytes()
    assert traj.meta == want.meta


def test_a_negative_zero_start_component_runs_per_stage():
    # a skipped product is +0.0 where the exact one can be -0.0, so through the
    # compiled step p2 = -0.0 becomes +0.0; every other byte is the same
    spec, start = geometry.taub_nut(1.0), PhasePoint([1.3, 1.0, 0.4, 0.2], [0.2, -0.0, 0.0, -0.0])
    H = GeodesicHamiltonian(spec)
    want = dynamics._rk4(H.rhs, start, 0.01, 100).states
    sparse = dynamics._rk4(H.rhs, start, 0.01, 100, H._fused[1])
    assert sparse.states.tobytes() != want.tobytes()
    assert np.array_equal(sparse.states, want)
    assert geodesic_integrate(spec, start, 0.01, 100).states.tobytes() == want.tobytes()


def test_a_stage_whose_witness_is_not_finite_is_declined(monkeypatch):
    H = GeodesicHamiltonian(geometry.taub_nut(1.0))
    run, roots = H._fused[1], geometry._metric_roots(H.spec)
    z = [1.3, 1.0, 0.4, 0.2, 0.2, -0.3, 0.1, 0.4]
    args = (*z, *H.rhs(z), 0.005, 0.01, 0.01 / 6.0)
    out = memoryview(np.empty((2, 8))).cast("B")
    assert run(out, 0, 1, *args)[0] == 1
    lines, outs = dynamics._hamilton_source(4, roots, sparse=True)
    for witness in (math.inf, math.nan):
        monkeypatch.setattr(dynamics, "_hamilton_source", lambda *_, w=witness, **__: (
            lines, outs[:-1] + [expr._Emitter.src(w)]))
        assert dynamics._compiled.__wrapped__(4, roots)[1](out, 0, 1, *args) == (
            0, z, list(args[8:16]))


_SCALED = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-300, 300))
_FLAT_EDGES = [  # leading x and p components: runs that overflow within 70 steps or at step 1
    None, None, None, ([1.797e308], [1e306]), ([-1.797e308], [-1e306]), ([], [6e307]),
    ([], [-1.5e308]), ([-1.79e308], [])]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 7), x=st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7),
       p=st.lists(_SCALED, min_size=7, max_size=7), dt=st.floats(1e-3, 0.05),
       edge=st.sampled_from(_FLAT_EDGES))
def test_flat_geodesics_equal_an_rk4_whose_rhs_is_p_and_zero(n, x, p, dt, edge):
    x, p = x[:n], p[:n]
    if edge:
        x[:len(edge[0])], p[:len(edge[1])] = edge
    # v + 0.0 turns a -0.0 into +0.0, whose sign the reference does not keep (see the next test)
    start, spec = PhasePoint([v + 0.0 for v in x], [v + 0.0 for v in p]), geometry.flat(n)
    with mock.patch.object(dynamics, "_rk4", wraps=dynamics._rk4) as rk4:
        traj = geodesic_integrate(spec, start, dt, 100)
    assert rk4.call_args.args[4]  # the compiled run of g^-1 = 1: dx/dt = p, dp/dt = -0.0
    want, reason = _numpy_rk4(lambda z: z[n:] + [0.0] * n, start, dt, 100)
    assert traj.states.tobytes() == want.tobytes()
    assert (traj.meta["steps_completed"], traj.meta.get("reason")) == (len(want) - 1, reason)


@pytest.mark.parametrize("p0", [[0.0, 1.0, -0.0], [-1.0, -0.0, -2.0]])
def test_a_flat_momentum_keeps_its_bits(p0):
    traj = geodesic_integrate(geometry.flat(3), PhasePoint([1.0, -0.0, 0.0], p0), 0.01, 100)
    assert (traj.p == p0).all() and (np.signbit(traj.p) == np.signbit(p0)).all()


def test_a_large_flat_geodesic_runs_a_kernel_of_order_n_statements():
    # g^-1 p on a constant diagonal is p, and a constant entry adds no dp/dt term
    n = 1200
    x, p = np.linspace(-1.0, 1.0, n), np.linspace(2.0, -2.0, n)
    spec = geometry.flat(n)
    with mock.patch.object(dynamics, "_rk4", wraps=dynamics._rk4) as rk4:
        traj = geodesic_integrate(spec, PhasePoint(x, p), 0.01, 1)
    assert rk4.call_args.args[4]  # the compiled run
    assert traj.meta["completed"] and (traj.p == p).all()
    assert np.allclose(traj.x[1], x + 0.01 * p, rtol=0.0, atol=1e-15)
    for sparse in (False, True):
        lines, outs = dynamics._hamilton_source(n, geometry._metric_roots(spec), sparse)
        assert len(lines) <= 4 * n and len(outs) <= 4 * n


@pytest.mark.parametrize("spec, x, guard", [
    (geometry.taub_nut(1.0), [0.0, 1.0, 0.4, 0.2], 0),
    (geometry.taub_nut(1.0), [-2.0, 1.0, 0.4, 0.2], 0),  # V = 1 + 2m/x1 = 0
    (geometry.taub_nut(1.0), [1.3, 0.0, 0.4, 0.2], 1),
    (geometry.const_curvature3(-4.0), [1.0, 0.0, 0.0], 0),  # the conformal pole
    (geometry.const_curvature3(-4.0), [0.6, 0.8, 0.0], 0),
], ids=["taub-nut-r=0", "taub-nut-V=0", "taub-nut-theta=0", "K=-4-pole", "K=-4-pole-2"])
def test_a_state_where_the_kernel_raises_reports_its_guard(spec, x, guard):
    H, z = GeodesicHamiltonian(spec), x + [0.2, -0.3, 0.1, 0.4][:spec.dim]
    with pytest.raises((SingularEvaluation, ArithmeticError)):  # its guard test, or a guard's
        H._fused[0](z)
    message = f"outside the chart domain: {expr.unparse(spec.guards[guard])} < 1e-09"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        H.rhs(z)


def test_specs_of_one_metric_share_one_compiled_step():
    a, b = (GeodesicHamiltonian(geometry.resolve_manifold("taub-nut:m=1")) for _ in "ab")
    assert a.spec is b.spec  # the catalog interns its specs
    # a fresh spec, whose tables are empty, still shares the compiled run
    fresh = GeodesicHamiltonian(dataclasses.replace(a.spec))
    assert fresh.spec is not a.spec and not fresh.spec._tables
    assert a._fused[1] is fresh._fused[1]


def test_geodesics_on_one_spec_build_its_kernels_once(monkeypatch):
    # a fresh spec: the interned one may hold its kernels from an earlier test
    spec, built = dataclasses.replace(geometry.taub_nut(0.9)), []
    for module, name in ((expr, "_compile"), (dynamics, "_compiled")):
        monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name), **k:
                            built.append(a) or f(*a, **k))
    start = PhasePoint([1.3, 1.0, 0.4, 0.2], [0.2, -0.3, 0.1, 0.4])
    first = geodesic_integrate(spec, start, 0.01, 5)
    count = len(built)
    assert geodesic_integrate(spec, start, 0.01, 5).states.tobytes() == first.states.tobytes()
    assert count > 0 and len(built) == count
    assert GeodesicHamiltonian(spec)._fused is spec._tables["geodesic"]


def test_a_run_has_one_try_its_outer_one(monkeypatch):
    sources = []
    monkeypatch.setattr(expr, "compile", lambda source, *args: sources.append(source)
                        or compile(source, *args), raising=False)
    for spec in (geometry.taub_nut(1.0), geometry.const_curvature3(1.0),
                 geometry.const_curvature3_spherical(1.0)):
        dynamics._compiled.__wrapped__(spec.dim, geometry._metric_roots(spec))
    sources = [source for source in sources if source.startswith("def run(")]  # not the kernels
    assert len(sources) == 3
    for source in sources:
        run = ast.parse(source).body[0]
        tries = [node for node in ast.walk(run) if isinstance(node, ast.Try)]
        assert tries == [run.body[0]], source


def test_unified_flow_driver_equals_a_numpy_rk4_bitwise():
    H = PhaseFunction.from_expression("0.5*(p1^2 + p2^2) + 0.5*(x1^2 + x2^2) + 0.1*x1^2*x2", 2)
    start = PhasePoint([0.3, 0.1], [0.2, -0.4])

    def rhs(z):
        grad = H.gradient(PhasePoint.from_vector(z))
        return np.concatenate([grad[2:], -grad[:2]])

    want, reason = _numpy_rk4(rhs, start, 0.01, 1000)
    traj = unified_hamilton_flow(H, start, 0.01, 1000)
    assert reason is None and traj.states.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [geometry.taub_nut(1.0), geometry.const_curvature3(1.0),
                                  geometry.const_curvature3_spherical(1.0)],
                         ids=lambda s: s.kind)
def test_a_dumped_and_reloaded_metric_integrates_to_the_same_bytes(spec):
    clone = geometry.load_manifold(geometry.dump_manifold(spec))
    x0 = geometry.sample_points(spec, 1, np.random.default_rng(4))[0]
    start = PhasePoint(x0, np.full(spec.dim, 0.3))
    want = geodesic_integrate(spec, start, 0.01, 200).states
    assert geodesic_integrate(clone, start, 0.01, 200).states.tobytes() == want.tobytes()


def test_const_curvature_energy_drift():
    spec = geometry.const_curvature3(1.0)
    z0 = PhasePoint([0.1, 0.2, -0.1], [0.3, -0.2, 0.25])
    traj = geodesic_integrate(spec, z0, 1e-3, 2000)
    _, rel = conservation_monitor(traj, free_hamiltonian(spec))
    assert rel <= 1e-9


def test_step_halving_fourth_order():
    spec = geometry.const_curvature3(1.0)
    z0 = PhasePoint([0.3, -0.2, 0.4], [0.5, 0.3, -0.4])
    H = free_hamiltonian(spec)
    _, rel_coarse = conservation_monitor(geodesic_integrate(spec, z0, 0.02, 250), H)
    _, rel_fine = conservation_monitor(geodesic_integrate(spec, z0, 0.01, 500), H)
    assert rel_fine < rel_coarse
    assert rel_coarse / rel_fine > 8.0  # fourth-order scaling, ~16x expected


def test_taub_nut_energy_drift():
    spec = geometry.taub_nut(1.0)
    z0 = PhasePoint([1.5, 1.2, 0.3, 0.1], [0.1, 0.2, 0.15, 0.05])
    traj = geodesic_integrate(spec, z0, 1e-3, 2000)
    _, rel = conservation_monitor(traj, free_hamiltonian(spec))
    assert rel <= 1e-9


# -- conservation monitor ----------------------------------------------------------


def test_conserved_quantities_on_flat_geodesic():
    flat = geometry.flat(3)
    z0 = PhasePoint([0.2, -0.4, 0.7], [0.8, 0.5, -0.3])
    traj = geodesic_integrate(flat, z0, 1e-3, 2000)
    K = killing_quadratic(flat, kysym.flat_ky_position_field(3))
    _, rel_k = conservation_monitor(traj, K)
    assert rel_k <= 1e-10
    _, rel_l = conservation_monitor(traj, angular_momentum(3))
    assert rel_l <= 1e-10


def test_negative_control_drifts():
    flat = geometry.flat(3)
    traj = geodesic_integrate(
        flat, PhasePoint([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]), 1e-3, 2000
    )
    abs_d, rel_d = conservation_monitor(traj, PhaseFunction.from_expression("x1", 3))
    assert rel_d > 1e-3


class _NanAfterStart:
    """A monitored quantity that reads NaN on every state after the first."""

    n = 3

    def value(self, z):
        return 1.0 if z.x[0] == 0.0 else math.nan

    def gradient(self, z):
        return np.zeros(6)


def test_nan_quantity_gives_nan_drift():
    flat = geometry.flat(3)
    traj = geodesic_integrate(flat, PhasePoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), 1e-3, 10)
    abs_d, rel_d = conservation_monitor(traj, _NanAfterStart())
    assert math.isnan(abs_d) and math.isnan(rel_d)


def test_relative_drift_inf_from_zero_start():
    flat = geometry.flat(3)
    traj = geodesic_integrate(
        flat, PhasePoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), 1e-3, 10
    )
    abs_d, rel_d = conservation_monitor(traj, PhaseFunction.from_expression("x1", 3))
    assert abs_d > 0
    assert math.isinf(rel_d)


def test_vanishing_bracket_implies_small_drift():
    # every quantity with {Q, H} = 0 at sampled points stays within 1e-7
    flat = geometry.flat(3)
    H = free_hamiltonian(flat)
    quantities = [
        free_hamiltonian(flat),
        killing_quadratic(flat, kysym.flat_ky_position_field(3)),
        angular_momentum(1),
        angular_momentum(2),
        angular_momentum(3),
    ]
    for Q in quantities:
        for z in random_phase_points(20, seed=6):
            assert abs(poisson_bracket(Q, H, z)) <= 1e-10
    z0 = PhasePoint([0.3, 0.1, -0.2], [0.4, -0.6, 0.5])
    traj = geodesic_integrate(flat, z0, 1e-3, 5000)
    for Q in quantities:
        _, rel = conservation_monitor(traj, Q)
        assert rel <= 1e-7


# -- unified flow --------------------------------------------------------------------


def test_unified_flow_harmonic_rotation():
    H = PhaseFunction.from_expression("(x1^2 + p1^2)/2", 1)
    steps = 1000
    dt = 2 * math.pi / steps
    traj = unified_hamilton_flow(H, PhasePoint([1.0], [0.0]), dt, steps)
    # quarter period: (1,0) -> (0,-1)
    quarter = steps // 4
    assert np.abs(traj.states[quarter] - [0.0, -1.0]).max() <= 1e-6
    assert np.abs(traj.states[-1] - [1.0, 0.0]).max() <= 1e-8


def test_unified_flow_constant_hamiltonian_fixed_point():
    H = PhaseFunction.from_expression("2.5", 2)
    traj = unified_hamilton_flow(H, PhasePoint([0.4, -0.2], [0.1, 0.9]), 0.1, 50)
    assert np.abs(traj.states - traj.states[0]).max() == 0.0


def test_unified_flow_matches_geodesic_flow():
    flat = geometry.flat(3)
    z0 = PhasePoint([0.2, -0.1, 0.4], [0.5, 0.3, -0.7])
    H = free_hamiltonian(flat)
    t_unified = unified_hamilton_flow(H, z0, 1e-3, 1000)
    t_geo = geodesic_integrate(flat, z0, 1e-3, 1000)
    assert np.abs(t_unified.states - t_geo.states).max() <= 1e-10


# -- trajectory container and export ---------------------------------------------


def test_trajectory_views():
    traj = geodesic_integrate(
        geometry.flat(2), PhasePoint([0.0, 0.0], [1.0, 2.0]), 0.1, 10
    )
    assert len(traj) == 11
    assert traj.x.shape == (11, 2)
    assert traj.p.shape == (11, 2)
    z5 = traj.point(5)
    assert np.array_equal(z5.x, traj.x[5])
    assert np.array_equal(z5.p, traj.p[5])


def test_csv_export(tmp_path):
    traj = geodesic_integrate(
        geometry.flat(3), PhasePoint([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), 0.01, 5
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,p1,p2,p3"
    assert len(lines) == 7
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(0.05)
    assert float(last[2]) == pytest.approx(0.05)


def _reference_csv(traj, path):
    """The trajectory writer as it was before it wrote atomically."""
    n = traj.n
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(traj)):
            row = [format(traj.times[k], ".17g")]
            row += [format(v, ".17g") for v in traj.states[k]]
            writer.writerow(row)


def test_csv_bytes_match_reference_writer(tmp_path):
    traj = geodesic_integrate(
        geometry.const_curvature3(1.0), PhasePoint([0.3, -0.2, 0.1], [0.2, 0.5, -0.4]), 0.01, 7
    )
    write_trajectory_csv(traj, str(tmp_path / "new.csv"))
    _reference_csv(traj, str(tmp_path / "ref.csv"))
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.count(b"\r\n") == len(traj) + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "ref.csv"]


def test_csv_in_row_blocks_matches_reference_writer(tmp_path):
    # 2500 rows take three blocks, the last one partial
    rng = np.random.default_rng(3)
    states = rng.normal(size=(2500, 6)) * 10.0 ** rng.integers(-300, 300, (2500, 6))
    states[rng.random(states.shape) < 0.1] = -0.0
    states[::7, 1], states[::11, 2], states[::13, 3] = 5e-324, 1e300, -1e300
    traj = Trajectory(times=0.01 * np.arange(2500), states=states, n=3)
    write_trajectory_csv(traj, str(tmp_path / "new.csv"))
    _reference_csv(traj, str(tmp_path / "ref.csv"))
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.count(b"\r\n") == 2501 and b",-0," in data


def test_csv_bytes_match_reference_writer_on_special_values(tmp_path):
    states = np.array([[0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan],
                       [1.0 / 3.0, -1e308, 2.5e-310, 1e22, 123456789.0, -7.0]])
    traj = Trajectory(times=np.array([0.0, 0.1]), states=states, n=3)
    write_trajectory_csv(traj, str(tmp_path / "new.csv"))
    _reference_csv(traj, str(tmp_path / "ref.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _csv_edge_values():
    """The ends of the range '%.17g' writes in fixed notation, powers of ten, 17-digit ties
    and 2^53, each with its neighbours and both signs."""
    values = [1e-4, 1e16, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
              1000000000000000.25, 1000000000000000.75, 0.1, 0.5, 1.0, 123456789.0]
    values += [10.0 ** e for e in range(-5, 18)]
    values += [np.nextafter(v, to) for v in list(values) for to in (0.0, math.inf)]
    return values + [-v for v in values]


def test_csv_bytes_match_reference_writer_on_edge_values(tmp_path):
    values = _csv_edge_values()
    states = np.array(values + [0.0] * (-len(values) % 6)).reshape(-1, 6)
    traj = Trajectory(times=np.arange(len(states)) * 1e-5, states=states, n=3)
    write_trajectory_csv(traj, str(tmp_path / "new.csv"))
    _reference_csv(traj, str(tmp_path / "ref.csv"))
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    # exact ties at 17 digits round half to even; nextafter(1e-4, 0) is in exponent form
    fields = set(re.split(rb"[,\r\n]+", data))
    assert {b"1000000000000000.2", b"1000000000000000.8", b"-1000000000000000.8",
            b"9.9999999999999991e-05", b"0.0001", b"10000000000000000", b"1e+17",
            b"9007199254740991", b"0.10000000000000001"} <= fields


def test_csv_of_1025_rows_crosses_a_block_boundary(tmp_path):
    rng = np.random.default_rng(11)
    states = rng.normal(size=(1025, 4)) * 10.0 ** rng.integers(-6, 18, (1025, 4))
    traj = Trajectory(times=0.01 * np.arange(1025), states=states, n=2)
    write_trajectory_csv(traj, str(tmp_path / "new.csv"))
    _reference_csv(traj, str(tmp_path / "ref.csv"))
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.count(b"\r\n") == 1026 and data.endswith(b"\r\n")


_CSV_FLOATS = st.one_of(
    st.floats(),  # every float64: subnormals, +-0.0, +-inf, NaN, magnitudes up to 1.8e308
    st.floats(1e-5, 1e17).flatmap(lambda v: st.sampled_from([v, -v])),
    st.builds(lambda k, e: k * 10.0 ** e, st.integers(-10 ** 6, 10 ** 6), st.integers(-10, 12)),
    st.builds(float.__add__, st.integers(10 ** 15, 2 ** 50 - 1).map(float),
              st.sampled_from([0.125, 0.25, 0.375, 0.5, 0.75])),
    st.sampled_from(_csv_edge_values()),
)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), rows=st.integers(1, 12), data=st.data())
def test_csv_bytes_match_reference_writer_on_any_floats(tmp_path_factory, n, rows, data):
    values = data.draw(st.lists(_CSV_FLOATS, min_size=rows * (2 * n + 1),
                                max_size=rows * (2 * n + 1)))
    table = np.array(values).reshape(rows, 2 * n + 1)
    traj = Trajectory(times=table[:, 0], states=table[:, 1:], n=n)
    base = tmp_path_factory.getbasetemp()
    write_trajectory_csv(traj, str(base / "any-new.csv"))
    _reference_csv(traj, str(base / "any-ref.csv"))
    assert (base / "any-new.csv").read_bytes() == (base / "any-ref.csv").read_bytes()


# -- batched phase functions -----------------------------------------------------


def _per_state(label, spec, field, quantity):
    """The per-state value of each built-in quantity, as computed one state at a time."""
    def hamiltonian(x, p):
        return 0.5 * float(p @ geometry.inverse_metric_at(spec, x) @ p)

    def killing(x, p):
        f = field.values_at(x)
        ginv = geometry.inverse_metric_at(spec, x)
        u = ginv @ p
        return float(u @ f @ ginv @ f @ u)

    def l3(x, p):
        return expr.eval_value(quantity.expr, np.concatenate([x, p]))

    return {"H": hamiltonian, "K": killing, "L3": l3}[label]


@pytest.mark.parametrize("label", ["H", "K", "L3"])
@pytest.mark.parametrize("manifold", ["taub-nut", "K=1"])
def test_batched_values_equal_per_state_values(manifold, label):
    if manifold == "taub-nut":
        spec, field = geometry.taub_nut(1.0), kysym.taubnut_ky_field(1, 1.0)
        start = PhasePoint([1.3, 1.0, 0.4, 0.2], [0.2, -0.3, 0.1, 0.4])
    else:
        spec, field = geometry.const_curvature3(1.0), kysym.flat_ky_position_field(3)
        start = PhasePoint([0.2, -0.1, 0.3], [0.5, 0.2, -0.4])
    if label == "L3" and spec.dim != 3:
        # L3 reads x1, x2, p1, p2 of any chart when parsed over it
        quantity = PhaseFunction.from_expression("x1*p2 - x2*p1", spec.dim)
    else:
        quantity = {"H": free_hamiltonian(spec), "K": killing_quadratic(spec, field),
                    "L3": angular_momentum(3)}[label]
    traj = geodesic_integrate(spec, start, 0.01, 300)
    assert traj.meta["completed"]
    got = quantity.values(traj.x, traj.p)
    reference = _per_state(label, spec, field, quantity)
    want = np.array([reference(traj.x[k], traj.p[k]) for k in range(len(traj))])
    assert got.tobytes() == want.tobytes()
    assert [quantity.value(traj.point(k)) for k in (0, 150, 300)] == got[[0, 150, 300]].tolist()


def test_h_and_k_monitors_of_one_trajectory_invert_g_once(monkeypatch):
    spec = dataclasses.replace(geometry.taub_nut(1.0))  # its own, empty tables
    field = kysym.taubnut_ky_field(1, 1.0)
    traj = geodesic_integrate(spec, PhasePoint([1.3, 1.0, 0.4, 0.2], [0.2, -0.3, 0.1, 0.4]),
                              0.01, 200)
    want_ginv = geometry.inverse_metric_at(spec, traj.x)
    calls = []
    inverse_metric_at = geometry.inverse_metric_at
    monkeypatch.setattr(geometry, "inverse_metric_at",
                        lambda spec, X: calls.append(len(X)) or inverse_metric_at(spec, X))
    H, K = free_hamiltonian(spec), killing_quadratic(spec, field)
    drifts = [conservation_monitor(traj, H), conservation_monitor(traj, K)]
    assert calls == [201]
    ginv = spec._tables["inverse"][1]
    assert not ginv.flags.writeable and ginv.tobytes() == want_ginv.tobytes()
    # the same values as from a fresh spec, and a block of other states is inverted anew
    fresh = dataclasses.replace(spec)
    assert drifts == [conservation_monitor(traj, free_hamiltonian(fresh)),
                      conservation_monitor(traj, killing_quadratic(fresh, field))]
    H.values(traj.x[:50], traj.p[:50])
    assert calls == [201, 201, 50]


def test_batched_values_raise_the_first_failing_rows_error():
    spec = geometry.taub_nut(1.0)
    H = free_hamiltonian(spec)
    X = np.array([[1.2, 1.0, 0.3, 0.1], [1.2, 0.0, 0.3, 0.1], [-1.0, 1.0, 0.3, 0.1]])
    P = np.ones_like(X)
    for rows in ([0, 1, 2], [0, 2, 1]):
        with pytest.raises(DomainError) as want:
            geometry.metric_components_at(spec, X[rows[1]])
        with pytest.raises(DomainError) as got:
            H.values(X[rows], P[rows])
        assert str(got.value) == str(want.value)


def test_monitor_of_a_quantity_without_values_matches_the_batched_monitor():
    spec = geometry.taub_nut(1.0)
    traj = geodesic_integrate(spec, PhasePoint([1.3, 1.0, 0.4, 0.2], [0.2, -0.3, 0.1, 0.4]),
                              0.01, 100)
    H = free_hamiltonian(spec)

    class PerState:
        n = 4

        def value(self, z):
            return H.value(z)

    assert conservation_monitor(traj, PerState()) == conservation_monitor(traj, H)
