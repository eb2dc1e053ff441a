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
from .errors import KyanoError
from .fields import levi_civita
from .kysym import flat_ky_pair

RESIDUAL_TOL = 1e-10


def _eps() -> np.ndarray:
    return levi_civita(3)


def _two_form_from_vector(v: np.ndarray) -> np.ndarray:
    """G_jk = -eps_ijk v_i."""
    return -np.einsum("ijk,i->jk", _eps(), v)


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


def evaluate_multipoles(z: PhasePoint) -> MultipoleSet:
    """Evaluate every tabulated quantity at one point of R^3 phase space."""
    if z.n != 3:
        raise ValueError("multipole expressions are defined on R^3 phase space")
    x = z.x.copy()
    p = z.p.copy()
    eps = _eps()
    f, ft = flat_ky_pair(3, x, p)
    delta = np.eye(3)

    r_sq = float(x @ x)
    p_sq = float(p @ p)
    f_sq = float(np.einsum("ij,ij->", f, f))
    ft_sq = float(np.einsum("ij,ij->", ft, ft))
    f_dot_ft = float(np.einsum("ij,ij->", f, ft))
    D = float(x @ p)

    d_dot = p.copy()
    L = np.cross(x, p)
    mu_ky = 0.5 * np.einsum("klm,ki,lm->i", eps, f, ft)
    D_ky = 0.5 * f_dot_ft
    S = np.outer(x, p) + np.outer(p, x) - (2.0 * D / 3.0) * delta

    ff = f @ f
    Q_direct = np.outer(x, x) - (r_sq / 3.0) * delta
    Q_ky_given = 0.25 * (ff - (f_sq / 3.0) * delta)
    Q_ky_corrected = ff + (f_sq / 3.0) * delta

    eps_f = np.einsum("ijk,jk->i", eps, f)
    eps_ft = np.einsum("ijk,jk->i", eps, ft)
    T_dipole_direct = 0.1 * (x * D - 2.0 * r_sq * p)
    T_dipole_ky = (eps_f * f_dot_ft - 2.0 * eps_ft * f_sq) / 40.0
    T_trans_direct = 0.5 * x * D
    T_trans_ky = eps_f * f_dot_ft / 8.0

    C_direct = 2.0 * x * D - r_sq * p
    C_ky = (2.0 * eps_f * f_dot_ft - eps_ft * f_sq) / 4.0
    C_swap = 2.0 * p * D - p_sq * x

    A_direct = 0.5 * x * p_sq - p * D - 0.5 * x
    A_swap = 0.5 * p * r_sq - x * D - 0.5 * p
    A_tilde_ky = ((f_sq - 2.0) * eps_ft - 2.0 * eps_f * f_dot_ft) / 8.0

    fff_t = ff @ ft
    mu_quad_direct = (np.outer(x, L) + np.outer(L, x)) / 3.0
    mu_quad_ky = -(fff_t + fff_t.T) / 3.0

    f_ft = f @ ft
    T_quad_main_ky = (ff - 0.25 * f_sq * delta) * f_dot_ft - 2.5 * f_ft * f_sq
    T_quad_trans_ky = (ff - (f_sq / 3.0) * delta) * f_dot_ft / 8.0

    octupole_direct = (
        np.einsum("i,j,k->ijk", x, x, x)
        - (r_sq / 5.0)
        * (
            np.einsum("i,jk->ijk", x, delta)
            + np.einsum("j,ik->ijk", x, delta)
            + np.einsum("k,ij->ijk", x, delta)
        )
    )

    return MultipoleSet(
        x=x, p=p, f=f, f_tilde=ft,
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
    return max(float(np.max(np.abs(a))) for a in arrays)


def _residuals_at(m: MultipoleSet) -> dict[str, float]:
    gen1 = _two_form_from_vector(2.0 * m.A_swap + m.C_direct)
    gen2 = _two_form_from_vector(2.0 * m.A_direct + m.C_swap)
    t_gen = (2.0 * m.A_swap + m.C_direct) * m.D
    t_gen_swapped = -0.5 * (2.0 * m.A_direct + m.C_swap) * m.D
    qd_times_d = m.Q_direct * m.D
    return {
        "I01": max(abs(m.r_sq - 0.5 * m.f_sq), abs(m.p_sq - 0.5 * m.ft_sq)),
        "I02": _max_abs(m.mu_ky - m.L),
        "I03": abs(m.D_ky - m.D),
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
        "I14": abs(float(np.trace(m.Q_ky_given))),
    }


_IDENTITY_TABLE: tuple[tuple[str, str, str, bool], ...] = (
    ("I01", "scalar-squares", "as-given", False),
    ("I02", "magnetic-dipole", "as-given", False),
    ("I03", "dilatation", "as-given", False),
    ("I04", "mass-quadrupole", "as-given", False),
    ("I05", "mass-quadrupole", "corrected: f f + (1/3) delta f^2", True),
    ("I06", "toroid-dipole", "as-given", False),
    ("I07", "toroid-dipole-transversal", "as-given", False),
    ("I08", "conformal-vector", "as-given", False),
    ("I09", "runge-lenz-conjugate", "as-given", False),
    ("I10a", "ky-from-generators", "as-given pairing", False),
    ("I10b", "ky-from-generators", "swapped pairing", True),
    ("I11a", "toroid-from-generators", "as-given vs toroid dipole", False),
    ("I11b", "toroid-from-generators", "as-given vs transversal form", False),
    ("I11c", "toroid-from-generators", "swapped, rescaled by -1/2", True),
    ("I12", "magnetic-quadrupole", "as-given", False),
    ("I13a", "toroid-quadrupole", "main form vs quadrupole x dilatation", False),
    ("I13b", "toroid-quadrupole", "transversal vs quadrupole x dilatation", False),
    ("I14", "mass-quadrupole-trace", "as-given", False),
)

EXPECTED_VERDICTS: dict[str, str] = {
    "I01": "holds",
    "I02": "holds",
    "I03": "holds",
    "I04": "fails",
    "I05": "holds-after-documented-correction",
    "I06": "holds",
    "I07": "holds",
    "I08": "holds",
    "I09": "holds",
    "I10a": "fails",
    "I10b": "holds-after-documented-correction",
    "I11a": "fails",
    "I11b": "fails",
    "I11c": "holds-after-documented-correction",
    "I12": "holds",
    "I13a": "fails",
    "I13b": "fails",
    "I14": "fails",
}

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
    points = [
        PhasePoint(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3))
        for _ in range(samples)
    ]
    rep = identity_suite(points, tol=tol)
    mismatches = {
        k: v for k, v in rep.verdicts().items() if EXPECTED_VERDICTS.get(k) != v
    }
    return rep, mismatches


def identity_suite(points: Sequence[PhasePoint], tol: float = RESIDUAL_TOL) -> IdentityReport:
    """Evaluate all identities at ``points`` and adjudicate each one."""
    points = list(points)
    if not points:
        raise ValueError("identity_suite needs at least one phase point")
    worst: dict[str, float] = {ident: 0.0 for ident, *_ in _IDENTITY_TABLE}
    for z in points:
        res = _residuals_at(evaluate_multipoles(z))
        for key, val in res.items():
            worst[key] = max(worst[key], val)
    entries = []
    for ident, name, form, is_corr in _IDENTITY_TABLE:
        residual = worst[ident]
        if residual > tol:
            verdict = "fails"
        elif is_corr:
            verdict = "holds-after-documented-correction"
        else:
            verdict = "holds"
        entries.append(
            IdentityEntry(
                ident=ident,
                name=name,
                form=form,
                residual=residual,
                verdict=verdict,
                is_correction=is_corr,
            )
        )
    return IdentityReport(
        entries=tuple(entries), n_points=len(points), tol=tol, notes=_NOTES
    )


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
    m = evaluate_multipoles(z)
    gen1 = _two_form_from_vector(2.0 * m.A_swap + m.C_direct)
    gen2 = _two_form_from_vector(2.0 * m.A_direct + m.C_swap)
    res_given = _max_abs(gen1 - m.f, gen2 - m.f_tilde)
    res_swapped = _max_abs(gen2 - m.f, gen1 - m.f_tilde)
    if res_swapped <= tol:
        return ReconstructedPair(f=gen2, f_tilde=gen1, pairing="swapped", residual=res_swapped)
    if res_given <= tol:
        return ReconstructedPair(f=gen1, f_tilde=gen2, pairing="as-given", residual=res_given)
    raise KyanoError(
        f"neither generator pairing reproduces the pair (residuals {res_given:.3e}, {res_swapped:.3e})"
    )
