"""Multipole table: worked point checks, the identity suite verdicts,
structural properties, and pair reconstruction from generators."""

import math

import numpy as np
import pytest

from kyano import multipole
from kyano.dynamics import PhasePoint
from kyano.errors import KyanoError
from kyano.fields import levi_civita
from kyano.multipole import (
    EXPECTED_VERDICTS,
    IdentityReport,
    evaluate_multipoles,
    identity_suite,
    reconstruct_ky_from_generators,
)

CANONICAL = PhasePoint((0.0, 0.0, 1.0), (0.0, 1.0, 0.0))


def sample_phase_points(count, seed=0, scale=2.0):
    rng = np.random.default_rng(seed)
    return [
        PhasePoint(rng.uniform(-scale, scale, 3), rng.uniform(-scale, scale, 3))
        for _ in range(count)
    ]


# -- worked values at the canonical point ------------------------------------


def test_canonical_vectors():
    m = evaluate_multipoles(CANONICAL)
    assert np.array_equal(m.L, [-1.0, 0.0, 0.0])
    assert np.array_equal(m.d_dot, [0.0, 1.0, 0.0])
    assert m.D == 0.0
    assert m.D_ky == 0.0
    assert np.abs(m.mu_ky - [-1.0, 0.0, 0.0]).max() <= 1e-15
    assert np.abs(m.T_dipole_direct - [0.0, -0.2, 0.0]).max() <= 1e-15
    assert np.abs(m.C_direct - [0.0, -1.0, 0.0]).max() <= 1e-15
    assert np.abs(m.A_direct).max() <= 1e-15


def test_canonical_tensors():
    m = evaluate_multipoles(CANONICAL)
    third = 1.0 / 3.0
    assert np.abs(m.Q_direct - np.diag([-third, -third, 2 * third])).max() <= 1e-15
    expected_s = np.zeros((3, 3))
    expected_s[1, 2] = expected_s[2, 1] = 1.0
    assert np.array_equal(m.S, expected_s)
    expected_mu = np.zeros((3, 3))
    expected_mu[0, 2] = expected_mu[2, 0] = -third
    assert np.abs(m.mu_quad_direct - expected_mu).max() <= 1e-15


def test_canonical_printed_quadrupole():
    # the printed KY quadrupole disagrees with the direct one and carries
    # trace -r^2 instead of zero
    m = evaluate_multipoles(CANONICAL)
    given = np.diag([-5.0 / 12.0, -5.0 / 12.0, -1.0 / 6.0])
    assert np.abs(m.Q_ky_given - given).max() <= 1e-15
    assert abs(np.trace(m.Q_ky_given) + 1.0) <= 1e-15
    assert np.abs(m.Q_ky_corrected - m.Q_direct).max() <= 1e-15


def test_scalar_squares():
    m = evaluate_multipoles(CANONICAL)
    assert m.r_sq == 1.0 and m.p_sq == 1.0
    assert m.f_sq == 2.0 and m.ft_sq == 2.0
    assert m.f_dot_ft == 0.0


def test_dimension_guard():
    # each check's own message: a 2-D point would raise another ValueError further down
    planar = PhasePoint((1.0, 0.0), (0.0, 1.0))
    message = "^multipole expressions are defined on R\\^3 phase space$"
    with pytest.raises(ValueError, match=message):
        evaluate_multipoles(planar)
    with pytest.raises(ValueError, match=message):
        identity_suite([PhasePoint((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), planar])
    with pytest.raises(ValueError, match="^identity_suite needs at least one phase point$"):
        identity_suite([])


# -- structural properties over random points --------------------------------


def test_symmetric_traceless_parts():
    for z in sample_phase_points(100, seed=3):
        m = evaluate_multipoles(z)
        for name in ("Q_direct", "Q_ky_corrected", "S", "mu_quad_direct"):
            t = getattr(m, name)
            assert np.abs(t - t.T).max() <= 1e-13, name
            assert abs(np.trace(t)) <= 1e-12, name
        o = m.octupole_direct
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            assert np.abs(o - o.transpose(perm)).max() <= 1e-13
        assert np.abs(np.einsum("iij->j", o)).max() <= 1e-12


def test_scaling_covariance():
    # under x -> lam*x at fixed p the moments scale by their degree in x
    for lam in (2.0, 10.0):
        for z in sample_phase_points(100, seed=11):
            m = evaluate_multipoles(z)
            ms = evaluate_multipoles(PhasePoint(lam * z.x, z.p))
            assert np.abs(ms.L - lam * m.L).max() <= 1e-12 * lam**2
            assert abs(ms.D - lam * m.D) <= 1e-12 * lam**2
            assert np.abs(ms.Q_direct - lam**2 * m.Q_direct).max() <= 1e-11 * lam**2
            assert (
                np.abs(ms.T_trans_direct - lam**2 * m.T_trans_direct).max()
                <= 1e-11 * lam**2
            )
            assert (
                np.abs(ms.octupole_direct - lam**3 * m.octupole_direct).max()
                <= 1e-10 * lam**3
            )


def test_swap_duality():
    # exchanging x and p exchanges f and f-tilde, so each held identity has
    # a dual obtained by evaluating at the swapped point
    for z in sample_phase_points(100, seed=7):
        m = evaluate_multipoles(z)
        ms = evaluate_multipoles(PhasePoint(z.p, z.x))
        assert np.abs(ms.mu_ky + m.L).max() <= 1e-12
        assert abs(ms.D_ky - m.D) <= 1e-12
        assert np.abs(ms.C_ky - m.C_swap).max() <= 1e-11
        assert np.abs(ms.A_tilde_ky - m.A_direct).max() <= 1e-11


def test_quadrupole_correction_coefficients():
    # fit Q_direct = a*(f f) + b*(f^2 delta) over samples; the correction
    # coefficients come out as (1, 1/3) with negligible residual
    rows = []
    target = []
    for z in sample_phase_points(40, seed=19):
        m = evaluate_multipoles(z)
        ff = m.f @ m.f
        rows.append(
            np.column_stack([ff.ravel(), (m.f_sq * np.eye(3)).ravel()])
        )
        target.append(m.Q_direct.ravel())
    design = np.vstack(rows)
    rhs = np.concatenate(target)
    coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    assert abs(coeffs[0] - 1.0) <= 1e-10
    assert abs(coeffs[1] - 1.0 / 3.0) <= 1e-10
    assert np.abs(design @ coeffs - rhs).max() <= 1e-10


# -- identity suite -----------------------------------------------------------


def test_identity_suite_matches_expected_verdicts():
    report = identity_suite(sample_phase_points(200, seed=42))
    assert report.verdicts() == EXPECTED_VERDICTS
    assert report.n_points == 200


def test_identity_suite_residual_separation():
    # held identities sit at roundoff, failed ones at order one
    report = identity_suite(sample_phase_points(200, seed=42))
    for entry in report.entries:
        if entry.verdict == "fails":
            assert entry.residual > 1e-3, entry.ident
        else:
            assert entry.residual <= report.tol, entry.ident


def test_identity_suite_corrections_flagged():
    report = identity_suite(sample_phase_points(50, seed=1))
    corrected = {
        e.ident for e in report.entries
        if e.verdict == "holds-after-documented-correction"
    }
    assert corrected == {"I05", "I10b", "I11c"}
    for e in report.entries:
        if e.verdict == "holds-after-documented-correction":
            assert e.is_correction


def test_identity_suite_verdicts_stable_across_seeds():
    a = identity_suite(sample_phase_points(100, seed=5)).verdicts()
    b = identity_suite(sample_phase_points(100, seed=6)).verdicts()
    assert a == b


def test_identity_suite_needs_points():
    with pytest.raises(ValueError):
        identity_suite([])


def test_identity_suite_non_finite_point_fails():
    # I01 folds an x array and a p array: a finite maximum from the first
    # must not hide a NaN in the second
    for z in (PhasePoint((np.nan, 0.0, 0.0), (0.0, 1.0, 0.0)),
              PhasePoint((0.3, 0.2, 0.1), (np.nan, 0.1, 0.2))):
        report = identity_suite([z])
        assert report.entry("I01").verdict == "fails"
        assert np.isnan(report.entry("I01").residual)


def test_report_structure():
    report = identity_suite(sample_phase_points(10, seed=2))
    assert isinstance(report, IdentityReport)
    entry = report.entry("I05")
    assert entry.name == "mass-quadrupole"
    with pytest.raises(KeyError):
        report.entry("I99")
    d = report.to_dict()
    assert set(d) == {"n_points", "tol", "entries", "notes"}
    assert len(d["entries"]) == 18
    assert all(
        set(e) == {"id", "name", "form", "residual", "verdict"}
        for e in d["entries"]
    )
    text = report.table()
    assert "verdict" in text.splitlines()[0]
    assert "I10b" in text
    assert any("octupole" in n and "index-inconsistent" in n for n in report.notes)


# -- reconstruction from generators ------------------------------------------


def test_reconstruct_canonical_point():
    pair = reconstruct_ky_from_generators(CANONICAL)
    m = evaluate_multipoles(CANONICAL)
    assert pair.pairing == "swapped"
    assert pair.residual <= 1e-14
    assert np.abs(pair.f - m.f).max() <= 1e-14
    assert np.abs(pair.f_tilde - m.f_tilde).max() <= 1e-14


def test_reconstruct_random_points():
    for z in sample_phase_points(50, seed=23):
        pair = reconstruct_ky_from_generators(z)
        m = evaluate_multipoles(z)
        assert pair.pairing == "swapped"
        assert np.abs(pair.f - m.f).max() <= 1e-11
        assert np.abs(pair.f_tilde - m.f_tilde).max() <= 1e-11


def test_reconstruct_zero_momentum():
    pair = reconstruct_ky_from_generators(PhasePoint((1.0, -2.0, 0.5), np.zeros(3)))
    m = evaluate_multipoles(PhasePoint((1.0, -2.0, 0.5), np.zeros(3)))
    assert np.abs(pair.f - m.f).max() <= 1e-14
    assert np.abs(pair.f_tilde).max() == 0.0


def test_reconstruct_origin_trivial():
    pair = reconstruct_ky_from_generators(PhasePoint(np.zeros(3), np.zeros(3)))
    assert pair.residual == 0.0
    assert np.abs(pair.f).max() == 0.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_reconstruction_rejects_a_tolerance_that_is_no_gate(tol):
    # at tol=nan the canonical point raised "neither generator pairing reproduces the pair",
    # its swapped residual 0.0
    with pytest.raises(ValueError, match=f"^tol must be a finite number at least 0, got {tol!r}$"):
        reconstruct_ky_from_generators(CANONICAL, tol=tol)


# -- batched evaluation ---------------------------------------------------------


def test_batched_rows_equal_single_point_evaluation():
    # strided column slices of one (N, 6) draw, as the sampled suite passes them
    Z = np.random.default_rng(17).uniform(-2.0, 2.0, (64, 6))
    X, P = Z[:, :3], Z[:, 3:]
    batch = multipole._multipoles(X, P)
    for k in range(len(X)):
        single = evaluate_multipoles(PhasePoint(X[k], P[k]))
        for name, value in vars(single).items():
            row = vars(batch)[name][k]
            assert np.asarray(row).tobytes() == np.asarray(value).tobytes(), name
            assert isinstance(value, float) == (np.ndim(row) == 0), name


def test_sampled_suite_draws_x_then_p_per_point(monkeypatch):
    seen = []
    batched = multipole._multipoles

    def spy(X, P):
        seen.append((X.copy(), P.copy()))
        return batched(X, P)

    monkeypatch.setattr(multipole, "_multipoles", spy)
    rng = np.random.default_rng(31)
    multipole.sampled_identity_suite(rng, 25)
    ref = np.random.default_rng(31)
    draws = [(ref.uniform(-1.0, 1.0, 3), ref.uniform(-1.0, 1.0, 3)) for _ in range(25)]
    (X, P), = seen
    assert np.array_equal(X, [x for x, _ in draws])
    assert np.array_equal(P, [p for _, p in draws])
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sparse_levi_civita_contractions_match_the_dense_einsums():
    Z = np.random.default_rng(23).uniform(-1.0, 1.0, (1000, 6))
    X = Z[:, :3]
    m = multipole._multipoles(X, Z[:, 3:])
    eps = levi_civita(3)
    dense_mu = 0.5 * np.einsum("klm,nki,nlm->ni", eps, m.f, m.f_tilde)
    assert np.abs(m.mu_ky - dense_mu).max() <= 1e-15
    # the quantities built on eps f and eps f~, and the octupole: the einsums' bytes
    eps_f, eps_ft = (np.einsum("ijk,njk->ni", eps, t) for t in (m.f, m.f_tilde))
    fdf, f_sq = m.f_dot_ft[:, None], m.f_sq[:, None]
    for got, want in [
        (m.T_dipole_ky, (eps_f * fdf - 2.0 * eps_ft * f_sq) / 40.0),
        (m.T_trans_ky, eps_f * fdf / 8.0),
        (m.C_ky, (2.0 * eps_f * fdf - eps_ft * f_sq) / 4.0),
        (m.A_tilde_ky, ((f_sq - 2.0) * eps_ft - 2.0 * eps_f * fdf) / 8.0),
    ]:
        assert got.tobytes() == want.tobytes()
    r_sq = m.r_sq[:, None, None, None]
    delta = np.eye(3)
    dense_oct = np.einsum("ni,nj,nk->nijk", X, X, X) - r_sq / 5.0 * (
        np.einsum("ni,jk->nijk", X, delta) + np.einsum("nj,ik->nijk", X, delta)
        + np.einsum("nk,ij->nijk", X, delta))
    assert m.octupole_direct.tobytes() == dense_oct.tobytes()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_a_tolerance_that_is_no_gate_is_rejected_before_any_draw(tol):
    # at tol=nan the sampled suite reported 11 mismatches, at inf none
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^tol must be a finite number at least 0, got {tol!r}$"):
        multipole.sampled_identity_suite(rng, 20, tol=tol)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="^tol must be a finite number at least 0, got "):
        identity_suite(sample_phase_points(5), tol=tol)
