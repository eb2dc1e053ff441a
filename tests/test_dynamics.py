"""Brackets, geodesic integration, drift monitoring, unified flow."""

import csv
import itertools
import math

import numpy as np
import pytest

from kyano import geometry, kysym
from kyano.dynamics import (
    PhaseFunction,
    PhasePoint,
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
