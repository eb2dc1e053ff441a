"""Acceptance gate: one test per shipped claim, each printing a
[criterion N] PASS/FAIL line at the claimed tolerance."""

import json
from itertools import product

import numpy as np

from kyano import geometry, kysym, multipole, report
from kyano.cli import main
from kyano.dynamics import (
    PhaseFunction,
    PhasePoint,
    free_hamiltonian,
    geodesic_integrate,
    killing_quadratic,
    conservation_monitor,
    poisson_bracket,
    unified_hamilton_flow,
)
from kyano.fields import levi_civita


def record(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_flat_ky_law_and_roundtrip():
    rng = np.random.default_rng(101)
    worst_res = 0.0
    worst_round = 0.0
    for n in range(3, 7):
        spec = geometry.flat(n)
        field = kysym.flat_ky_position_field(n)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, n)
            p = rng.uniform(-1.0, 1.0, n)
            worst_res = max(
                worst_res, float(np.abs(kysym.ky_residual(spec, field, x)).max())
            )
            f, ft = kysym.flat_ky_pair(n, x, p)
            worst_round = max(
                worst_round,
                float(np.abs(kysym.reconstruct_position(f) - x).max()),
                float(np.abs(kysym.reconstruct_momentum(ft) - p).max()),
            )
    ok = worst_res <= 1e-12 and worst_round <= 1e-15
    record(1, ok, f"ky residual {worst_res:.2e}, roundtrip {worst_round:.2e}")


def test_criterion_2_pair_bracket_relation():
    eps = levi_civita(3)

    def component(i, j, prefix):
        for m in range(3):
            if eps[m, i, j] == 1.0:
                return PhaseFunction.from_expression(f"{prefix}{m + 1}", 3)
            if eps[m, i, j] == -1.0:
                return PhaseFunction.from_expression(f"-{prefix}{m + 1}", 3)
        return PhaseFunction.from_expression("0", 3)

    f = [[component(i, j, "x") for j in range(3)] for i in range(3)]
    ft = [[component(i, j, "p") for j in range(3)] for i in range(3)]
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        z = PhasePoint(rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3))
        for i, j, k, l in product(range(3), repeat=4):
            want = float((i == k) * (j == l) - (i == l) * (j == k))
            got = poisson_bracket(f[i][j], ft[k][l], z)
            worst = max(worst, abs(got - want))
    record(2, worst <= 1e-12, f"max bracket deviation {worst:.2e}")


def test_criterion_2_pair_bracket_relation_in_n_dimensions():
    # the stored components f_I of the rank-(n-1) pair and their p-twins: {f_I, ft_J} is the
    # generalized Kronecker delta of the increasing index tuples, {f_I, f_J} = {ft_I, ft_J} = 0,
    # exactly, as every gradient entry is 0 or +-1
    rng = np.random.default_rng(103)
    bad = []
    for n in (4, 5, 6):
        items = kysym.flat_ky_position_field(n).component_items()
        f = {idx: PhaseFunction.from_expression(str(c), n) for idx, c in items}
        ft = {idx: PhaseFunction.from_expression(str(c).replace("x", "p"), n) for idx, c in items}
        assert len(f) == n
        for _ in range(5):
            z = PhasePoint(rng.uniform(-3, 3, n), rng.uniform(-3, 3, n))
            for (I, a), (J, b) in product(f.items(), repeat=2):
                got = [poisson_bracket(a, ft[J], z), poisson_bracket(a, b, z),
                       poisson_bracket(ft[I], ft[J], z)]
                if got != [float(I == J), 0.0, 0.0]:
                    bad.append((n, I, J, got))
    record(2, not bad, f"n = 4, 5, 6 brackets exact; mismatches {bad[:3]}")


def test_criterion_3_killing_tensor_conservation():
    spec = geometry.flat(3)
    z0 = PhasePoint([1.0, -0.4, 0.7], [0.3, 0.5, -0.2])
    traj = geodesic_integrate(spec, z0, 1e-3, 10_000)
    K = killing_quadratic(spec, kysym.flat_ky_position_field(3))
    _, k_rel = conservation_monitor(traj, K)
    _, control_rel = conservation_monitor(traj, PhaseFunction.from_expression("x1", 3))
    ok = traj.meta["completed"] and k_rel <= 1e-10 and control_rel > 1e-3
    record(3, ok, f"K rel drift {k_rel:.2e}, control drift {control_rel:.2e}")


def test_criterion_4_constant_curvature_scalar():
    rng = np.random.default_rng(104)
    worst = 0.0
    for K in (-1.0, 0.5, 1.0):
        spec = geometry.const_curvature3(K)
        for pt in geometry.sample_points(spec, 50, rng):
            # oracle for the conformal metric: R = 6K
            worst = max(worst, abs(geometry.curvature_at(spec, pt).scalar - 6.0 * K))
    record(4, worst <= 1e-6, f"max |R - 6K| {worst:.2e}")


def test_criterion_5_taubnut_covariant_constancy():
    rng = np.random.default_rng(105)
    spec = geometry.taub_nut(1.0, fiber_scale=2.0)
    points = geometry.sample_points(spec, 20, rng)
    worst_cc = 0.0
    min_det = float("inf")
    for index in (1, 2, 3):
        rep = kysym.verify_field(spec, kysym.taubnut_ky_field(index, 1.0), points)
        worst_cc = max(worst_cc, rep.max_cc_residual)
        min_det = min(min_det, rep.min_abs_det)
    section = report.section_taub_nut(np.random.default_rng(105))
    ok = (
        worst_cc <= 1e-8
        and min_det > 1e-6
        and section["validated_fiber_scale"] == 2.0
    )
    record(
        5,
        ok,
        f"cc residual {worst_cc:.2e}, min |det| {min_det:.2e},"
        f" validated fiber_scale={section['validated_fiber_scale']:g}"
        " (fiber coefficient 4m^2)",
    )


def test_criterion_6_multipole_identity_suite():
    rng = np.random.default_rng(106)
    points = [
        PhasePoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(1000)
    ]
    rep = multipole.identity_suite(points)
    verdicts = rep.verdicts()
    held = [
        "I01", "I02", "I03", "I06", "I07", "I08", "I09", "I12",
        "I05", "I10b", "I11c",
    ]
    failed = ["I04", "I10a", "I11a", "I11b", "I13a", "I13b", "I14"]
    ok = verdicts == multipole.EXPECTED_VERDICTS
    for ident in held:
        ok = ok and rep.entry(ident).residual <= 1e-10
    for ident in failed:
        ok = ok and rep.entry(ident).residual > 1e-10
    mism = {k: v for k, v in verdicts.items() if multipole.EXPECTED_VERDICTS[k] != v}
    record(6, ok, f"1000 points, verdict mismatches: {mism or 'none'}")


def test_criterion_7_unified_flow_matches_geodesic():
    spec = geometry.flat(3)
    z0 = PhasePoint([0.2, -0.5, 1.1], [0.7, 0.4, -0.3])
    dt, steps = 1e-2, 1000
    a = unified_hamilton_flow(free_hamiltonian(spec), z0, dt, steps)
    b = geodesic_integrate(spec, z0, dt, steps)
    diff = float(np.abs(a.states - b.states).max())
    record(7, diff <= 1e-10, f"max pointwise difference {diff:.2e}")


def test_criterion_8_ansatz_solver_stability():
    spec = geometry.flat(3)
    basis = ["1", "x1", "x2", "x3"]
    dims = []
    worst = 0.0
    fresh = np.random.default_rng(999).uniform(-2.0, 2.0, (50, 3))
    for seed in (0, 1, 2):
        fields = kysym.ky_solve_ansatz(spec, basis, rng=np.random.default_rng(seed))
        dims.append(len(fields))
        for field in fields:
            for pt in fresh:
                worst = max(
                    worst, float(np.abs(kysym.ky_residual(spec, field, pt)).max())
                )
    ok = len(set(dims)) == 1 and worst <= 1e-12
    record(8, ok, f"dimension {dims} across seeds, fresh-point residual {worst:.2e}")


def test_criterion_9_report_determinism(tmp_path):
    paths = [str(tmp_path / name) for name in ("r1.json", "r2.json")]
    codes = [main(["report", "--seed", "11", "--out", path]) for path in paths]
    first, second = (open(p, "rb").read() for p in paths)
    ok = codes == [0, 0] and first == second
    obj = json.loads(first)
    ok = ok and obj["pass"] is True
    record(9, ok, f"{len(first)} bytes, identical={first == second}")
