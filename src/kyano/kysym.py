"""Killing-Yano tensors: construction, verification, and derived structures.

A rank-r antisymmetric field f is Killing-Yano (KY) when the symmetrized
covariant derivative vanishes: D_(l f_m) rest = 0.  Covariant constancy
(D f = 0) is strictly stronger.  From any rank-2 KY tensor, f g^{-1} f is
a symmetric Killing tensor whose quadratic form in momenta is conserved
along geodesics; covariant-constant non-degenerate KY tensors on
even-dimensional manifolds double as symplectic forms.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import expr as exprmod
from . import geometry
from .errors import KyanoError, SymplecticRejection, require_tolerances
from .fields import AntisymTensorField, levi_civita
from .geometry import MetricSpec

# ---------------------------------------------------------------------------
# flat-space pair of rank-(n-1) tensors


def flat_ky_pair(n: int, x: Sequence[float], p: Sequence[float]):
    """Rank-(n-1) pair on flat phase space: f from x, its twin from p.

    f_{i1..i(n-1)} = eps_{k i1..i(n-1)} x_k and the same contraction with p.
    ``x`` and ``p`` may carry equal leading batch axes, ``(..., n)``.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.shape[-1:] != (n,) or p.shape != x.shape:
        raise ValueError(f"x and p must have shape (..., {n})")
    eps, shape = levi_civita(n).reshape(n, -1), x.shape[:-1] + (n,) * (n - 1)
    return (x @ eps).reshape(shape), (p @ eps).reshape(shape)


@functools.lru_cache(maxsize=8)
def _pair_field(n: int) -> tuple[AntisymTensorField, np.ndarray, np.ndarray]:
    """A rank-(n-1) field storing every component, their flat indices, and the
    signs (-1)^k that turn the components, last first, into x."""
    keys = list(itertools.combinations(range(n), n - 1))
    return (AntisymTensorField(n, n - 1, dict.fromkeys(keys, 0.0)),
            np.ravel_multi_index(np.array(keys).T, (n,) * (n - 1)),
            (-1.0) ** np.arange(n))


def reconstruct_position(f: np.ndarray) -> np.ndarray:
    """x_k = eps_{k j1..j(n-1)} f_{j1..j(n-1)} / (n-1)!, n the last axis's size,
    over any leading batch axes; exact inverse of the pair construction."""
    n = f.shape[-1] if f.ndim else 0
    rank = n - 1
    if rank < 1 or f.shape[f.ndim - rank:] != (n,) * rank:
        raise ValueError("expected a rank-(n-1) array over an n-dimensional chart")
    rows = f.reshape((-1,) + (n,) * rank)
    field, stored, signs = _pair_field(n)
    comps = rows.reshape(-1, n ** rank)[:, stored]
    shape = f.shape[:f.ndim - rank] + (n,)
    # finite stored components that scatter back to the input make every swap sum 0,
    # and each of the (n-1)! nonzero terms of x_k is then (-1)^k f at the tuple without k
    if np.isfinite(comps).all() and np.array_equal(field._scatter(comps), rows):
        return (comps[:, ::-1] * signs).reshape(shape)
    t = np.abs(rows)  # one buffer for every check: fresh large temporaries fault in pages
    scale = np.maximum(1.0, t.reshape(-1, n ** rank).max(axis=1))  # each row's own
    if not np.isfinite(scale).all():
        raise ValueError("input array has non-finite entries")
    for a in range(1, rank):
        np.add(rows, rows.swapaxes(a, a + 1), out=t)
        if np.any(np.abs(t, out=t).reshape(-1, n ** rank).max(axis=1) > 1e-12 * scale):
            raise ValueError("input array is not antisymmetric")
    x = levi_civita(n).reshape(n, -1) @ rows.reshape(-1, n ** rank, 1)  # per-point bytes
    return x.reshape(shape) / math.factorial(rank)


# The pair's twin is the same contraction with p, so it inverts the same way.
reconstruct_momentum = reconstruct_position


@geometry._interned(8, lambda n: (n,))
def flat_ky_position_field(n: int) -> AntisymTensorField:
    """The pair's position member as a field (components linear in x); interned, LRU of 8."""
    return AntisymTensorField(n, n - 1, {  # eps_{k, the rest in order} = (-1)^k
        tuple(i for i in range(n) if i != k): f"{'-' if k % 2 else ''}x{k + 1}"
        for k in reversed(range(n))})


# The momentum twin has the same functional form over the momentum chart.
flat_ky_momentum_field = flat_ky_position_field


# ---------------------------------------------------------------------------
# residuals


def covariant_constancy_residual(
    spec: MetricSpec, field: AntisymTensorField, point: Sequence[float]
) -> np.ndarray:
    """D_l f_{i1..ir} for a field of any rank; zero for covariant-constant
    fields.  On the identity metric D is the partial derivative d_l f."""
    return next(_derivatives(spec, field, [point]))[2][0]


def _derivatives(spec: MetricSpec, field: AntisymTensorField, points, stored: bool = False):
    """``(f, jac, D)`` for blocks of rows of ``points`` (a leading row axis), so
    each block can be reduced before the next is computed: the field's values,
    partials and covariant derivative.  On the identity metric D is jac, and f
    is evaluated only for a two-form, whose determinant the checks read; with
    ``stored`` there, jac and D are ``field._gradients``.  A block holds at most
    2**15 elements of D (of ``field._ky_pairs`` when stored), or one row; if it
    raises, its rows run one at a time, so the first failing row raises."""
    if field.dim != spec.dim:
        raise ValueError("field and metric dimensions differ")
    if not len(points):
        raise ValueError("at least one sample point is needed")
    flat = geometry._is_identity(spec)
    stored = stored and flat

    def block(X):
        f = field.values_at(X) if field.rank == 2 or not flat else None
        jac = field._gradients(field._rows(X)[0]) if stored else field.jacobian_at(X)
        if flat:
            return f, jac, jac
        return f, jac, geometry._covariant_derivative(
            geometry._last_block(spec, "christoffel", geometry.christoffel_at, X), f, jac)

    X = np.asarray(points, dtype=float)
    size = len(field._ky_pairs[0]) if stored else spec.dim ** (field.rank + 1)
    step = max(1, 2 ** 15 // size)  # D of rank 5 on R^6: a row, as per point
    for rows in (X[i:i + step] for i in range(0, len(X), step)):
        try:
            out = block(rows)
        except KyanoError:
            for i in range(len(rows)):
                block(rows[i:i + 1])
            raise
        yield out


def ky_residual(
    spec: MetricSpec, field: AntisymTensorField, point: Sequence[float]
) -> np.ndarray:
    """R[l, m, rest] = D_l f_{m rest} + D_m f_{l rest}; zero iff KY at the point."""
    D = covariant_constancy_residual(spec, field, point)
    return D + D.swapaxes(0, 1)


def closedness_residual(field: AntisymTensorField, point: Sequence[float]) -> np.ndarray:
    """Exterior derivative (d f)_{l i1..ir} of a field of any rank; zero for
    closed fields."""
    return _exterior(field.jacobian_at([point]))[0]


def _exterior(jac: np.ndarray) -> np.ndarray:
    """Alternating sum over k of ``jac`` (rows first) with its derivative slot moved to k."""
    d = jac
    for k in range(1, jac.ndim - 1):
        d = d - np.moveaxis(jac, 1, k + 1) if k % 2 else d + np.moveaxis(jac, 1, k + 1)
    return d


def killing_from_ky(
    spec: MetricSpec, field: AntisymTensorField, point: Sequence[float]
) -> np.ndarray:
    """Symmetric Killing tensor K = f g^{-1} f from a rank-2 KY tensor."""
    f = field.values_at(point)
    ginv = geometry.inverse_metric_at(spec, point)
    K = f @ ginv @ f
    return 0.5 * (K + K.T)


def killing_tensor_jet(
    spec: MetricSpec, field: AntisymTensorField, point: Sequence[float]
):
    """K, its coordinate partials dK[a, m, n] = d_a K_mn, and the inverse
    metric and metric partials dg[a, i, j] = d_a g_ij they are built from."""
    f = field.values_at(point)
    df = field.jacobian_at(point)
    _, dg, ginv = geometry._metric(spec, point, 1, inverse=True)
    dginv = -np.einsum("li,aij,js->als", ginv, dg, ginv)
    K = f @ ginv @ f
    dK = (
        np.einsum("aml,ls,sn->amn", df, ginv, f)
        + np.einsum("ml,als,sn->amn", f, dginv, f)
        + np.einsum("ml,ls,asn->amn", f, ginv, df)
    )
    return 0.5 * (K + K.T), 0.5 * (dK + dK.swapaxes(1, 2)), ginv, dg


def killing_equation_residual(
    spec: MetricSpec, field: AntisymTensorField, point: Sequence[float]
) -> np.ndarray:
    """Symmetrized covariant derivative D_(a K_mn); zero for Killing tensors."""
    K, dK, ginv, dg = killing_tensor_jet(spec, field, point)
    gamma = geometry._christoffel(ginv, dg)[0]
    DK = (
        dK
        - np.einsum("sam,sn->amn", gamma, K)
        - np.einsum("san,ms->amn", gamma, K)
    )
    return (DK + DK.transpose(1, 2, 0) + DK.transpose(2, 0, 1)) / 3.0


def nondegeneracy(
    field: AntisymTensorField, spec: MetricSpec, point: Sequence[float]
) -> float:
    """det f at the point; the field is non-degenerate there iff |det| > 1e-12."""
    if field.rank != 2:
        raise ValueError("nondegeneracy is defined for rank-2 fields")
    if field.dim != spec.dim:
        raise ValueError("field and metric dimensions differ")
    geometry.metric_at(spec, point)  # domain check only
    with np.errstate(divide="ignore", invalid="ignore"):  # LU warns on subnormals
        return float(np.linalg.det(field.values_at(point)))


# ---------------------------------------------------------------------------
# verification report


@dataclass(frozen=True)
class KYReport:
    """Residual maxima and flags from sampling a field over a metric."""

    n_points: int
    max_ky_residual: float
    max_cc_residual: float
    min_abs_det: Optional[float]  # None for a field that is not a two-form
    max_abs_det: Optional[float]
    ky_tol: float
    cc_tol: float
    det_tol: float

    @property
    def is_ky(self) -> bool:
        return self.max_ky_residual <= self.ky_tol

    @property
    def is_covariant_constant(self) -> bool:
        return self.max_cc_residual <= self.cc_tol

    @property
    def is_nondegenerate(self) -> Optional[bool]:
        return None if self.min_abs_det is None else self.min_abs_det > self.det_tol

    def to_dict(self) -> dict:
        return {
            "n_points": self.n_points,
            "max_ky_residual": self.max_ky_residual,
            "max_cc_residual": self.max_cc_residual,
            "min_abs_det": self.min_abs_det,
            "max_abs_det": self.max_abs_det,
            "is_ky": self.is_ky,
            "is_covariant_constant": self.is_covariant_constant,
            "is_nondegenerate": self.is_nondegenerate,
            "tolerances": {"ky": self.ky_tol, "cc": self.cc_tol, "det": self.det_tol},
        }


def verify_field(
    spec: MetricSpec,
    field: AntisymTensorField,
    points: Sequence[Sequence[float]],
    ky_tol: float = 1e-10,
    cc_tol: float = 1e-8,
    det_tol: float = 1e-12,
) -> KYReport:
    """Evaluate KY and covariant-constancy residuals over sample points; the
    determinant bounds are None for a field that is not a two-form."""
    require_tolerances(ky_tol=ky_tol, cc_tol=cc_tol, det_tol=det_tol)
    values, cc, ky, flat = [], [], [], geometry._is_identity(spec)
    for f, _, D in _derivatives(spec, field, points, stored=True):
        values.append(f)
        if flat:  # every entry of the full D is +-G or 0: same maxima
            D = np.concatenate([D, np.zeros(D.shape[:2] + (1,))], axis=2).reshape(len(D), -1)
            i1, s1, i2, s2 = field._ky_pairs
            S = D[:, i1] * s1 + D[:, i2] * s2
        else:
            S = D + D.swapaxes(1, 2)
        cc.append(np.max(np.abs(D)))
        ky.append(np.max(np.abs(S, out=S)))  # in place: a second large temporary faults in pages
    with np.errstate(divide="ignore", invalid="ignore"):  # LU warns on subnormals
        dets = np.abs(np.linalg.det(np.concatenate(values))) if field.rank == 2 else None
    return KYReport(
        n_points=len(points),
        max_ky_residual=float(np.max(ky)),
        max_cc_residual=float(np.max(cc)),
        min_abs_det=None if dets is None else float(np.min(dets)),
        max_abs_det=None if dets is None else float(np.max(dets)),
        ky_tol=ky_tol,
        cc_tol=cc_tol,
        det_tol=det_tol,
    )


# ---------------------------------------------------------------------------
# symplectic structure from a covariant-constant KY tensor


@dataclass(frozen=True)
class SymplecticForm:
    """A rank-2 field accepted as a symplectic form, with its check record."""

    spec: MetricSpec
    field: AntisymTensorField
    n_points: int
    max_cc_residual: float
    max_closedness_residual: float
    min_abs_det: float

    def matrix_at(self, point: Sequence[float]) -> np.ndarray:
        return self.field.values_at(point)

    def inverse_at(self, point: Sequence[float]) -> np.ndarray:
        return np.linalg.inv(self.matrix_at(point))


def symplectic_from_ky(
    spec: MetricSpec,
    field: AntisymTensorField,
    points: Optional[Sequence[Sequence[float]]] = None,
    rng: Optional[np.random.Generator] = None,
    n_points: int = 30,
    cc_tol: float = 1e-8,
    closed_tol: float = 1e-10,
    det_tol: float = 1e-12,
) -> SymplecticForm:
    """Promote a covariant-constant non-degenerate two-form to a symplectic
    form, or raise :class:`SymplecticRejection` naming the failed check."""
    require_tolerances(cc_tol=cc_tol, closed_tol=closed_tol, det_tol=det_tol)
    if field.rank != 2:
        raise ValueError("symplectic candidates must be rank-2 fields")
    if spec.dim % 2 != 0:
        raise SymplecticRejection("odd-dimension", f"dim {spec.dim} is odd")
    if points is None:
        rng = rng if rng is not None else np.random.default_rng(0)
        points = geometry.sample_points(spec, n_points, rng)
    values, cc, closed = [], [], []
    for f, jac, D in _derivatives(spec, field, points):
        values.append(f)
        cc.append(np.max(np.abs(D)))
        closed.append(np.max(np.abs(_exterior(jac))))
    min_det = float(np.min(np.abs(np.linalg.det(np.concatenate(values)))))
    if not min_det > det_tol:
        raise SymplecticRejection("degenerate", f"min |det f| = {min_det:.3e}")
    max_cc, max_closed = float(np.max(cc)), float(np.max(closed))
    if not max_cc <= cc_tol:
        raise SymplecticRejection("not-covariant-constant", f"max |D f| = {max_cc:.3e}")
    if not max_closed <= closed_tol:
        raise SymplecticRejection("not-closed", f"max |d f| = {max_closed:.3e}")
    return SymplecticForm(
        spec=spec,
        field=field,
        n_points=len(points),
        max_cc_residual=max_cc,
        max_closedness_residual=max_closed,
        min_abs_det=min_det,
    )


# ---------------------------------------------------------------------------
# catalog tensors in explicit charts


def _constcurv_sources(K: float, momentum: bool) -> dict[tuple[int, int], str]:
    """Two-form components in the spherical chart, exactly as printed in the
    standard reference tables; x1 is r (or p on the momentum chart)."""
    k = f"({K!r})"
    u2 = f"(1 + {k}*x1^2/4)^2"
    return {
        (0, 1): f"16*x1*sin(x3)/{u2}" if momentum else f"x1*sin(x3)/(16*{u2})",
        (0, 2): f"x1*sin(2*x2)*cos(x3)/(32*{u2})",
        (1, 2): f"x1^2*sin(x2)^2*cos(x3)*({k}*x1^2 - 4)/((4 + {k}*x1^2)*{u2})",
    }


@geometry._interned(32, lambda index, K, momentum=False: (index, float(K), bool(momentum)))
def constcurv_ky_field(
    index: int, K: float, momentum: bool = False
) -> AntisymTensorField:
    """Single-component two-form number ``index`` (1, 2, or 3) from the
    printed constant-curvature table; component slots are (r,theta),
    (r,phi), (theta,phi) respectively.  Interned: equal arguments, K as a
    float, return the same field, from an LRU of the last 32.

    These are reproduced verbatim for measurement; as single-component
    fields they do not satisfy the KY equation (see the verification
    report), their relative normalizations being mutually inconsistent.
    """
    if index not in (1, 2, 3):
        raise ValueError("index must be 1, 2, or 3")
    sources = _constcurv_sources(K, momentum)
    slot = [(0, 1), (0, 2), (1, 2)][index - 1]
    return AntisymTensorField(3, 2, {slot: sources[slot]})


def constcurv_ky(index: int, point: Sequence[float], K: float) -> np.ndarray:
    """Printed constant-curvature two-form evaluated at (r, theta, phi)."""
    return constcurv_ky_field(index, K).values_at(point)


def _taubnut_source(i: int, mu: int, nu: int, m: float) -> str:
    """Entry (mu, nu) of f_i = 4m (dpsi + cos th dphi) ^ dx_i
    - (1 + 2m/r) eps_ijk dx_j ^ dx_k, pulled back to (r, theta, phi, psi)
    = (x1, x2, x3, x4), as expression source."""
    r, sth, cth, sph, cph = "x1", "sin(x2)", "cos(x2)", "sin(x3)", "cos(x3)"
    # rows: differentials of x = r sth cph, y = r sth sph, z = r cth
    J = (
        (f"({sth} * {cph})", f"(({r} * {cth}) * {cph})", f"(-(({r} * {sth}) * {sph}))", "0.0"),
        (f"({sth} * {sph})", f"(({r} * {cth}) * {sph})", f"(({r} * {sth}) * {cph})", "0.0"),
        (cth, f"(-({r} * {sth}))", "0.0", "0.0"),
    )
    sigma = ("0.0", "0.0", cth, "1.0")
    V = f"(1.0 + ({2.0 * m!r} / {r}))"
    out = f"({4.0 * m!r} * (({sigma[mu]} * {J[i][nu]}) - ({sigma[nu]} * {J[i][mu]})))"
    j, k = [(1, 2), (2, 0), (0, 1)][i]
    wedge = f"(({J[j][mu]} * {J[k][nu]}) - ({J[j][nu]} * {J[k][mu]}))"
    return f"{out} - ({V} * (2.0 * {wedge}))"


@geometry._interned(32, lambda index, m: (index, float(m)))
def taubnut_ky_field(index: int, m: float) -> AntisymTensorField:
    """Two-form f_index (index in 1..3) on the Taub-NUT chart (r, theta,
    phi, psi); covariantly constant for the fiber_scale=2 metric.  Interned:
    equal arguments, m as a float, return the same field, from an LRU of the last 32."""
    if index not in (1, 2, 3):
        raise ValueError("index must be 1, 2, or 3")
    if not math.isfinite(m):
        raise ValueError("mass parameter must be finite")
    return AntisymTensorField(4, 2, {
        (mu, nu): _taubnut_source(index - 1, mu, nu, m)
        for mu, nu in itertools.combinations(range(4), 2)
    })


def taubnut_ky(index: int, point: Sequence[float], m: float) -> np.ndarray:
    return taubnut_ky_field(index, m).values_at(point)


# ---------------------------------------------------------------------------
# linear ansatz solver


def ky_solve_ansatz(
    spec: MetricSpec,
    basis: Sequence,
    points: Optional[Sequence[Sequence[float]]] = None,
    rel_threshold: float = 1e-8,
    rng: Optional[np.random.Generator] = None,
) -> list[AntisymTensorField]:
    """Solve the KY equation within span{phi_b(x) dx^i ^ dx^j}.

    ``basis`` lists scalar expressions (strings or parsed).  The KY residual
    is linear in the unknown coefficients; sampling it at admissible points
    gives a linear system whose null space (singular values below
    ``rel_threshold`` times the largest) spans the solutions.  Returns one
    field per null direction; coefficients are orthonormal as vectors.
    """
    n = spec.dim
    parsed = [exprmod.parse_expression(b, n) if isinstance(b, str) else b for b in basis]
    if not parsed:
        raise ValueError("ansatz basis must not be empty")
    pairs = list(itertools.combinations(range(n), 2))
    nb = len(parsed)
    unknowns = len(pairs) * nb
    if points is None:
        count = max(4, (2 * unknowns) // (n ** 3) + 4)
        rng = rng if rng is not None else np.random.default_rng(12345)
        points = geometry.sample_points(spec, count, rng)
    points = np.asarray(points, dtype=float)
    if len(points) * n ** 3 < unknowns:
        warnings.warn(
            "fewer residual equations than unknowns; the null space may be inflated",
            stacklevel=2,
        )
    gammas = geometry.christoffel_at(spec, points)
    rows = np.zeros((len(points) * n ** 3, unknowns))
    for pi, (pt, gamma) in enumerate(zip(points.tolist(), gammas)):
        jets = [exprmod.eval1(phi, pt) for phi in parsed]
        for ai, (a, b) in enumerate(pairs):
            for bi, jet in enumerate(jets):
                f = np.zeros((n, n))
                f[a, b], f[b, a] = jet.value, -jet.value
                df = np.zeros((n, n, n))
                df[:, a, b], df[:, b, a] = jet.gradient, -jet.gradient
                D = geometry._covariant_derivative(gamma, f, df)
                R = D + D.swapaxes(0, 1)
                rows[pi * n ** 3:(pi + 1) * n ** 3, ai * nb + bi] = R.ravel()
    _, svals, vh = np.linalg.svd(rows, full_matrices=True)
    mask = np.ones(vh.shape[0], dtype=bool)
    if svals.size and svals[0] != 0.0:
        mask[: svals.size] = svals <= rel_threshold * svals[0]
    sources = [exprmod.unparse(phi) for phi in parsed]
    fields = []
    for coeffs in vh[mask]:
        comps = {}
        for ai, pair in enumerate(pairs):
            # the running sum 0.0 + c1 phi1 + ..., term by term, as expression source
            src = "0.0"
            for bi, phi in enumerate(sources):
                c = float(coeffs[ai * nb + bi])
                if c != 0.0:
                    src = f"({src} + ({c!r} * ({phi})))"
            if src != "0.0":
                comps[pair] = src
        fields.append(AntisymTensorField(n, 2, comps))
    return fields
