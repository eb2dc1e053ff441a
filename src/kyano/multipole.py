"""Multipole and symmetry-generator expressions on flat R^3 phase space,
in both their direct (x, p) form and their Killing-Yano form built from
the flat pair (f, f-tilde).

The identity suite compares the two forms of each quantity at sample
points and issues one verdict per identity: ``holds``, ``fails``, or
``holds-after-documented-correction`` for repaired variants.  The shipped
``EXPECTED_VERDICTS`` table records the adjudicated outcomes and doubles
as a regression harness: suite results are expected to reproduce it
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import PhasePoint
from .errors import KyanoError, require_tolerances
from .fields import levi_civita
from .kysym import flat_ky_pair

RESIDUAL_TOL = 1e-10


def _two_form_from_vector(v: np.ndarray) -> np.ndarray:
    """G_jk = -eps_ijk v_i, over any leading batch axes of ``v``."""
    return -np.einsum("ijk,...i->...jk", levi_civita(3), v)


@dataclass(frozen=True)
class MultipoleSet:
    """All evaluated quantities at one phase-space point.

    ``*_ky`` fields are built from (f, f-tilde) exactly as printed in the
    reference table; ``*_direct`` fields use x and p.  ``Q_ky_given`` keeps
    the printed quadrupole; ``Q_ky_corrected`` is the repaired combination
    f f + (1/3) delta f^2 that actually reproduces the direct quadrupole.
    """

    x: np.ndarray
    p: np.ndarray
    f: np.ndarray
    f_tilde: np.ndarray
    r_sq: float
    p_sq: float
    f_sq: float
    ft_sq: float
    f_dot_ft: float
    d_dot: np.ndarray
    L: np.ndarray
    mu_ky: np.ndarray
    D: float
    D_ky: float
    S: np.ndarray
    Q_direct: np.ndarray
    Q_ky_given: np.ndarray
    Q_ky_corrected: np.ndarray
    T_dipole_direct: np.ndarray
    T_dipole_ky: np.ndarray
    T_trans_direct: np.ndarray
    T_trans_ky: np.ndarray
    C_direct: np.ndarray
    C_ky: np.ndarray
    C_swap: np.ndarray
    A_direct: np.ndarray
    A_swap: np.ndarray
    A_tilde_ky: np.ndarray
    mu_quad_direct: np.ndarray
    mu_quad_ky: np.ndarray
    T_quad_main_ky: np.ndarray
    T_quad_trans_ky: np.ndarray
    octupole_direct: np.ndarray


def _multipoles(X: np.ndarray, P: np.ndarray) -> MultipoleSet:
    """Every tabulated quantity at the ``N`` points ``(X[k], P[k])``.

    ``X`` and ``P`` are ``(N, 3)`` arrays; each field of the result carries
    a leading axis of length ``N``, so scalars become ``(N,)`` arrays.
    """
    f, ft = flat_ky_pair(3, X, P)
    delta = np.eye(3)

    def vec(s):  # (N,) scalar broadcast against (N, 3) vectors
        return s[:, None]

    def mat(s):  # (N,) scalar broadcast against (N, 3, 3) tensors
        return s[:, None, None]

    def outer(a, b):
        return a[:, :, None] * b[:, None, :]

    def dot(a, b):  # row-wise a . b; matmul rounds as a 1-D ``a @ b`` does
        return (a[:, None, :] @ b[:, :, None])[:, 0, 0]

    r_sq = dot(X, X)
    p_sq = dot(P, P)
    f_sq = np.einsum("nij,nij->n", f, f)
    ft_sq = np.einsum("nij,nij->n", ft, ft)
    f_dot_ft = np.einsum("nij,nij->n", f, ft)
    D = dot(X, P)

    d_dot = P.copy()
    L = np.cross(X, P)
    # eps_ijk a_jk: the two nonzero terms for each i, (j, k) cyclic after i
    j, k = [1, 2, 0], [2, 0, 1]
    eps_f = f[:, j, k] - f[:, k, j]
    eps_ft = ft[:, j, k] - ft[:, k, j]
    # mu_i = eps_klm f_ki ft_lm / 2: eps's six signed products, grouped by k
    mu_ky = 0.5 * (f * eps_ft[:, :, None]).sum(axis=1)
    D_ky = 0.5 * f_dot_ft
    S = outer(X, P) + outer(P, X) - mat(2.0 * D / 3.0) * delta

    ff = f @ f
    Q_direct = outer(X, X) - mat(r_sq / 3.0) * delta
    Q_ky_given = 0.25 * (ff - mat(f_sq / 3.0) * delta)
    Q_ky_corrected = ff + mat(f_sq / 3.0) * delta

    T_dipole_direct = 0.1 * (X * vec(D) - 2.0 * vec(r_sq) * P)
    T_dipole_ky = (eps_f * vec(f_dot_ft) - 2.0 * eps_ft * vec(f_sq)) / 40.0
    T_trans_direct = 0.5 * X * vec(D)
    T_trans_ky = eps_f * vec(f_dot_ft) / 8.0

    C_direct = 2.0 * X * vec(D) - vec(r_sq) * P
    C_ky = (2.0 * eps_f * vec(f_dot_ft) - eps_ft * vec(f_sq)) / 4.0
    C_swap = 2.0 * P * vec(D) - vec(p_sq) * X

    A_direct = 0.5 * X * vec(p_sq) - P * vec(D) - 0.5 * X
    A_swap = 0.5 * P * vec(r_sq) - X * vec(D) - 0.5 * P
    A_tilde_ky = (vec(f_sq - 2.0) * eps_ft - 2.0 * eps_f * vec(f_dot_ft)) / 8.0

    fff_t = ff @ ft
    mu_quad_direct = (outer(X, L) + outer(L, X)) / 3.0
    mu_quad_ky = -(fff_t + fff_t.swapaxes(1, 2)) / 3.0

    f_ft = f @ ft
    T_quad_main_ky = (ff - 0.25 * mat(f_sq) * delta) * mat(f_dot_ft) - 2.5 * f_ft * mat(f_sq)
    T_quad_trans_ky = (ff - mat(f_sq / 3.0) * delta) * mat(f_dot_ft) / 8.0

    octupole_direct = (
        X[:, :, None, None] * X[:, None, :, None] * X[:, None, None, :]
        - mat(r_sq / 5.0)[..., None]
        * (
            np.einsum("ni,jk->nijk", X, delta)
            + np.einsum("nj,ik->nijk", X, delta)
            + np.einsum("nk,ij->nijk", X, delta)
        )
    )

    return MultipoleSet(
        x=X, p=P, f=f, f_tilde=ft,
        r_sq=r_sq, p_sq=p_sq, f_sq=f_sq, ft_sq=ft_sq, f_dot_ft=f_dot_ft,
        d_dot=d_dot, L=L, mu_ky=mu_ky, D=D, D_ky=D_ky, S=S,
        Q_direct=Q_direct, Q_ky_given=Q_ky_given, Q_ky_corrected=Q_ky_corrected,
        T_dipole_direct=T_dipole_direct, T_dipole_ky=T_dipole_ky,
        T_trans_direct=T_trans_direct, T_trans_ky=T_trans_ky,
        C_direct=C_direct, C_ky=C_ky, C_swap=C_swap,
        A_direct=A_direct, A_swap=A_swap, A_tilde_ky=A_tilde_ky,
        mu_quad_direct=mu_quad_direct, mu_quad_ky=mu_quad_ky,
        T_quad_main_ky=T_quad_main_ky, T_quad_trans_ky=T_quad_trans_ky,
        octupole_direct=octupole_direct,
    )


def evaluate_multipoles(z: PhasePoint) -> MultipoleSet:
    """Evaluate every tabulated quantity at one point of R^3 phase space."""
    if z.n != 3:
        raise ValueError("multipole expressions are defined on R^3 phase space")
    batch = _multipoles(np.array([z.x]), np.array([z.p]))
    return MultipoleSet(**{
        name: v[0] if v.ndim > 1 else float(v[0]) for name, v in vars(batch).items()
    })


# ---------------------------------------------------------------------------
# identity suite


@dataclass(frozen=True)
class IdentityEntry:
    ident: str
    name: str
    form: str
    residual: float
    verdict: str
    is_correction: bool


@dataclass(frozen=True)
class IdentityReport:
    entries: tuple[IdentityEntry, ...]
    n_points: int
    tol: float
    notes: tuple[str, ...]

    def verdicts(self) -> dict[str, str]:
        return {e.ident: e.verdict for e in self.entries}

    def entry(self, ident: str) -> IdentityEntry:
        for e in self.entries:
            if e.ident == ident:
                return e
        raise KeyError(ident)

    def to_dict(self) -> dict:
        return {
            "n_points": self.n_points,
            "tol": self.tol,
            "entries": [
                {
                    "id": e.ident,
                    "name": e.name,
                    "form": e.form,
                    "residual": e.residual,
                    "verdict": e.verdict,
                }
                for e in self.entries
            ],
            "notes": list(self.notes),
        }

    def table(self) -> str:
        lines = [f"{'id':6} {'identity':28} {'form':34} {'residual':>12}  verdict"]
        for e in self.entries:
            lines.append(
                f"{e.ident:6} {e.name:28} {e.form:34} {e.residual:12.3e}  {e.verdict}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _max_abs(*arrays) -> float:
    """Largest |entry| over ``arrays``; NaN if any entry is NaN."""
    return float(np.max([np.max(np.abs(a)) for a in arrays]))


def _generator_two_forms(m: MultipoleSet) -> tuple[np.ndarray, np.ndarray]:
    """Two-forms dual to the generator combinations 2 A_swap + C and 2 A + C_swap."""
    return (_two_form_from_vector(2.0 * m.A_swap + m.C_direct),
            _two_form_from_vector(2.0 * m.A_direct + m.C_swap))


def _residuals(m: MultipoleSet) -> dict[str, float]:
    """Largest residual of each identity over the points of a batched set."""
    gen1, gen2 = _generator_two_forms(m)
    D = m.D[:, None]
    t_gen = (2.0 * m.A_swap + m.C_direct) * D
    t_gen_swapped = -0.5 * (2.0 * m.A_direct + m.C_swap) * D
    qd_times_d = m.Q_direct * D[:, :, None]
    return {
        "I01": _max_abs(m.r_sq - 0.5 * m.f_sq, m.p_sq - 0.5 * m.ft_sq),
        "I02": _max_abs(m.mu_ky - m.L),
        "I03": _max_abs(m.D_ky - m.D),
        "I04": _max_abs(m.Q_ky_given - m.Q_direct),
        "I05": _max_abs(m.Q_ky_corrected - m.Q_direct),
        "I06": _max_abs(m.T_dipole_ky - m.T_dipole_direct),
        "I07": _max_abs(m.T_trans_ky - m.T_trans_direct),
        "I08": _max_abs(m.C_ky - m.C_direct),
        "I09": _max_abs(m.A_tilde_ky - m.A_swap),
        "I10a": _max_abs(gen1 - m.f, gen2 - m.f_tilde),
        "I10b": _max_abs(gen2 - m.f, gen1 - m.f_tilde),
        "I11a": _max_abs(t_gen - m.T_dipole_direct),
        "I11b": _max_abs(t_gen - m.T_trans_direct),
        "I11c": _max_abs(t_gen_swapped - m.T_trans_direct),
        "I12": _max_abs(m.mu_quad_ky - m.mu_quad_direct),
        "I13a": _max_abs(m.T_quad_main_ky - qd_times_d),
        "I13b": _max_abs(m.T_quad_trans_ky - qd_times_d),
        "I14": _max_abs(np.trace(m.Q_ky_given, axis1=1, axis2=2)),
    }


_CORRECTED = "holds-after-documented-correction"
# id, quantity, form, whether the form is a documented correction, expected verdict
_IDENTITY_TABLE: tuple[tuple[str, str, str, bool, str], ...] = (
    ("I01", "scalar-squares", "as-given", False, "holds"),
    ("I02", "magnetic-dipole", "as-given", False, "holds"),
    ("I03", "dilatation", "as-given", False, "holds"),
    ("I04", "mass-quadrupole", "as-given", False, "fails"),
    ("I05", "mass-quadrupole", "corrected: f f + (1/3) delta f^2", True, _CORRECTED),
    ("I06", "toroid-dipole", "as-given", False, "holds"),
    ("I07", "toroid-dipole-transversal", "as-given", False, "holds"),
    ("I08", "conformal-vector", "as-given", False, "holds"),
    ("I09", "runge-lenz-conjugate", "as-given", False, "holds"),
    ("I10a", "ky-from-generators", "as-given pairing", False, "fails"),
    ("I10b", "ky-from-generators", "swapped pairing", True, _CORRECTED),
    ("I11a", "toroid-from-generators", "as-given vs toroid dipole", False, "fails"),
    ("I11b", "toroid-from-generators", "as-given vs transversal form", False, "fails"),
    ("I11c", "toroid-from-generators", "swapped, rescaled by -1/2", True, _CORRECTED),
    ("I12", "magnetic-quadrupole", "as-given", False, "holds"),
    ("I13a", "toroid-quadrupole", "main form vs quadrupole x dilatation", False, "fails"),
    ("I13b", "toroid-quadrupole", "transversal vs quadrupole x dilatation", False, "fails"),
    ("I14", "mass-quadrupole-trace", "as-given", False, "fails"),
)

EXPECTED_VERDICTS: dict[str, str] = {row[0]: row[4] for row in _IDENTITY_TABLE}

_NOTES = (
    "charge-octupole: the tabulated KY form has unbalanced indices (m, n free"
    " on one side only); index-inconsistent, not evaluable. The direct"
    " symmetric-traceless octupole is still computed.",
)


def sampled_identity_suite(
    rng: np.random.Generator, samples: int, tol: float = RESIDUAL_TOL
) -> tuple[IdentityReport, dict[str, str]]:
    """Identity suite over ``samples`` phase points uniform in [-1, 1]^6
    (x drawn before p at each point), with the measured verdicts that
    differ from :data:`EXPECTED_VERDICTS`."""
    require_tolerances(tol=tol)
    rep = _suite(rng.uniform(-1.0, 1.0, (samples, 6)), tol)
    mismatches = {
        k: v for k, v in rep.verdicts().items() if EXPECTED_VERDICTS.get(k) != v
    }
    return rep, mismatches


def identity_suite(points: Sequence[PhasePoint], tol: float = RESIDUAL_TOL) -> IdentityReport:
    """Evaluate all identities at ``points`` and adjudicate each one."""
    require_tolerances(tol=tol)
    points = list(points)
    if any(z.n != 3 for z in points):
        raise ValueError("multipole expressions are defined on R^3 phase space")
    return _suite(np.array([z.as_vector() for z in points]).reshape(-1, 6), tol)


def _suite(Z: np.ndarray, tol: float) -> IdentityReport:
    """Adjudicate every identity over the ``(N, 6)`` phase points ``Z``."""
    if len(Z) == 0:
        raise ValueError("identity_suite needs at least one phase point")
    worst = _residuals(_multipoles(Z[:, :3], Z[:, 3:]))
    entries = []
    for ident, name, form, is_corr, _ in _IDENTITY_TABLE:
        residual = worst[ident]
        if not residual <= tol:  # a NaN residual fails
            verdict = "fails"
        elif is_corr:
            verdict = _CORRECTED
        else:
            verdict = "holds"
        entries.append(IdentityEntry(ident, name, form, residual, verdict, is_corr))
    return IdentityReport(entries=tuple(entries), n_points=len(Z), tol=tol, notes=_NOTES)


# ---------------------------------------------------------------------------
# reconstruction from generators


@dataclass(frozen=True)
class ReconstructedPair:
    f: np.ndarray
    f_tilde: np.ndarray
    pairing: str
    residual: float


def reconstruct_ky_from_generators(z: PhasePoint, tol: float = RESIDUAL_TOL) -> ReconstructedPair:
    """Rebuild (f, f-tilde) from the Runge-Lenz and conformal generators.

    Records which generator-to-tensor pairing validates against the direct
    pair; with these conventions it is the swapped one.
    """
    require_tolerances(tol=tol)
    m = evaluate_multipoles(z)
    gen1, gen2 = _generator_two_forms(m)
    res_given = _max_abs(gen1 - m.f, gen2 - m.f_tilde)
    res_swapped = _max_abs(gen2 - m.f, gen1 - m.f_tilde)
    if res_swapped <= tol:
        return ReconstructedPair(f=gen2, f_tilde=gen1, pairing="swapped", residual=res_swapped)
    if res_given <= tol:
        return ReconstructedPair(f=gen1, f_tilde=gen2, pairing="as-given", residual=res_given)
    raise KyanoError(
        f"neither generator pairing reproduces the pair (residuals {res_given:.3e}, {res_swapped:.3e})"
    )
