"""Metric catalog and the differential geometry built on top of it.

All derivative quantities (Christoffel symbols, their partials, curvature)
come from first- and second-order jet evaluations of the metric
components, so there is no finite differencing anywhere in the chain.

Charts are labeled by coordinate names but expressions always refer to
slots ``x1 .. xn`` in chart order; for the Taub-NUT chart ``(r, theta,
phi, psi)`` that means ``x1 = r`` and so on.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import expr as exprmod
from .errors import DomainError, KyanoError, SingularEvaluation, SingularMetric
from .expr import Expression
from .fields import AntisymTensorField

DOMAIN_MARGIN = 1e-9

ComponentGrid = Optional[tuple[tuple[Optional[Expression], ...], ...]]


@dataclass(frozen=True)
class MetricSpec:
    """A metric on an n-dimensional chart.

    ``components`` is an n x n grid of expressions in ``x1 .. xn`` (``None``
    entries mean 0); a ``None`` grid means the identity metric.  The grid is
    symmetric by construction: entry (j, i) is the same object as (i, j).
    ``momentum_space`` records whether the chart variables are momenta,
    which is what :func:`dual_metric` toggles.
    """

    kind: str
    dim: int
    chart: tuple[str, ...]
    params: tuple[tuple[str, float], ...]
    components: ComponentGrid = None
    momentum_space: bool = False

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class CurvatureValue:
    """Riemann tensor R^rho_{sigma mu nu}, Ricci tensor, scalar curvature."""

    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float


def _grid_from_upper(entries: dict[tuple[int, int], Expression], n: int) -> ComponentGrid:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            key = (i, j) if i <= j else (j, i)
            row.append(entries.get(key))
        rows.append(tuple(row))
    return tuple(rows)


def flat(n: int) -> MetricSpec:
    """Euclidean metric on R^n in Cartesian coordinates."""
    if n < 1:
        raise ValueError("dimension must be positive")
    chart = tuple(f"x{i}" for i in range(1, n + 1))
    return MetricSpec(kind="flat", dim=n, chart=chart, params=(), components=None)


def const_curvature3(K: float) -> MetricSpec:
    """3-space of constant curvature K in the conformally flat chart.

    ds^2 = (1 + K r^2 / 4)^{-2} sum_i (dx^i)^2.  For K < 0 the chart is
    only admissible away from the conformal pole 1 + K r^2/4 = 0.
    """
    K = float(K)
    conf = exprmod.parse_expression(
        f"1 / (1 + {K!r} * (x1^2 + x2^2 + x3^2) / 4)^2", 3
    )
    entries = {(i, i): conf for i in range(3)}
    return MetricSpec(
        kind="const-curvature",
        dim=3,
        chart=("x1", "x2", "x3"),
        params=(("K", K),),
        components=_grid_from_upper(entries, 3),
    )


def taub_nut(m: float, fiber_scale: float = 2.0) -> MetricSpec:
    """Euclidean Taub-NUT metric with potential V = 1 + 2m/r.

    ds^2 = V (dr^2 + r^2 dtheta^2 + r^2 sin^2 theta dphi^2)
           + c^2 V^{-1} (dpsi + cos theta dphi)^2,   c = fiber_scale * m.

    ``fiber_scale = 2`` is the normalization under which the standard
    triplet of two-forms (see :func:`kyano.kysym.taubnut_ky`) is covariantly
    constant; ``fiber_scale = 4`` is a common alternate that fails that
    check.  Both are evaluable; verification reports record which one
    passes.
    """
    m = float(m)
    if m <= 0:
        raise ValueError("mass parameter must be positive")
    fiber_scale = float(fiber_scale)
    c2 = (fiber_scale * m) ** 2
    two_m = 2.0 * m
    vinv = f"(1 + {two_m!r}/x1)"
    entries = {
        (0, 0): exprmod.parse_expression(f"1 + {two_m!r}/x1", 4),
        (1, 1): exprmod.parse_expression(f"x1^2 + {two_m!r}*x1", 4),
        (2, 2): exprmod.parse_expression(
            f"(x1^2 + {two_m!r}*x1)*sin(x2)^2 + {c2!r}*cos(x2)^2/{vinv}", 4
        ),
        (2, 3): exprmod.parse_expression(f"{c2!r}*cos(x2)/{vinv}", 4),
        (3, 3): exprmod.parse_expression(f"{c2!r}/{vinv}", 4),
    }
    return MetricSpec(
        kind="taub-nut",
        dim=4,
        chart=("r", "theta", "phi", "psi"),
        params=(("m", m), ("fiber_scale", fiber_scale)),
        components=_grid_from_upper(entries, 4),
    )


def custom(rows: Sequence[Sequence[object]], chart: Optional[Sequence[str]] = None) -> MetricSpec:
    """Metric from an explicit symmetric matrix of expressions.

    Entries may be expression strings in ``x1 .. xn``, parsed
    :class:`~kyano.expr.Expression` objects, or numbers.  Only the upper
    triangle is read; the matrix is declared symmetric.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("metric matrix must be square")
    entries: dict[tuple[int, int], Expression] = {}
    for i in range(n):
        for j in range(i, n):
            cell = rows[i][j]
            if isinstance(cell, Expression):
                e: Optional[Expression] = cell
            elif isinstance(cell, str):
                e = exprmod.parse_expression(cell, n)
            elif isinstance(cell, (int, float)):
                e = None if cell == 0 else exprmod.parse_expression(repr(float(cell)), n)
            else:
                raise TypeError(f"unsupported metric entry of type {type(cell).__name__}")
            if e is not None:
                entries[(i, j)] = e
    if chart is None:
        chart_t = tuple(f"x{i}" for i in range(1, n + 1))
    else:
        chart_t = tuple(chart)
        if len(chart_t) != n:
            raise ValueError("chart names must match the matrix dimension")
    return MetricSpec(kind="custom", dim=n, chart=chart_t, params=(),
                      components=_grid_from_upper(entries, n))


def const_curvature3_spherical(K: float) -> MetricSpec:
    """Spherical chart (r, theta, phi) of the constant-curvature 3-space.

    ds^2 = (1 + K r^2/4)^{-2} (dr^2 + r^2 dtheta^2 + r^2 sin^2 theta dphi^2).
    Built as a custom metric; admissible for r > 0 away from the polar axis
    and the conformal pole.
    """
    K = float(K)
    conf = f"(1 + {K!r}*x1^2/4)^2"
    rows = [
        [f"1/{conf}", "0", "0"],
        ["0", f"x1^2/{conf}", "0"],
        ["0", "0", f"x1^2*sin(x2)^2/{conf}"],
    ]
    return custom(rows, chart=("r", "theta", "phi"))


# ---------------------------------------------------------------------------
# evaluation


def _check_point(spec: MetricSpec, point: Sequence[float]) -> np.ndarray:
    pt = np.asarray(point, dtype=float)
    if pt.shape != (spec.dim,):
        raise ValueError(f"expected a point of dimension {spec.dim}, got shape {pt.shape}")
    if not np.isfinite(pt).all():
        raise DomainError("point has non-finite coordinates")
    if spec.kind == "const-curvature":
        K = spec.param("K")
        u = 1.0 + K * float(pt @ pt) / 4.0
        if abs(u) < DOMAIN_MARGIN:
            raise DomainError("singular conformal factor 1 + K r^2/4 = 0")
    elif spec.kind == "taub-nut":
        if pt[0] < DOMAIN_MARGIN:
            raise DomainError("taub-nut chart requires r > 0")
        if abs(math.sin(pt[1])) < DOMAIN_MARGIN:
            raise DomainError("taub-nut chart is singular on the polar axis")
    return pt


def _component_groups(spec: MetricSpec):
    """Distinct expression objects with the upper-triangle slots they fill."""
    groups: dict[int, tuple[Expression, list[tuple[int, int]]]] = {}
    grid = spec.components
    assert grid is not None
    for i in range(spec.dim):
        for j in range(i, spec.dim):
            e = grid[i][j]
            if e is None:
                continue
            key = id(e)
            if key not in groups:
                groups[key] = (e, [])
            groups[key][1].append((i, j))
    return groups.values()


def metric_components_at(spec: MetricSpec, point: Sequence[float], order: int = 0):
    """Metric matrix and, for ``order`` 1 or 2, its coordinate derivatives.

    Returns ``g``; ``(g, dg)`` with ``dg[a,i,j] = d_a g_ij``; or
    ``(g, dg, d2g)`` with ``d2g[a,b,i,j] = d_a d_b g_ij``.
    """
    pt = _check_point(spec, point)
    n = spec.dim
    g = np.zeros((n, n))
    dg = np.zeros((n, n, n)) if order >= 1 else None
    d2g = np.zeros((n, n, n, n)) if order >= 2 else None
    if spec.components is None:
        np.fill_diagonal(g, 1.0)
    else:
        coords = [float(v) for v in pt]
        for e, slots in _component_groups(spec):
            if order == 0:
                val = exprmod.eval_value(e, coords)
                grad = hess = None
            else:
                d = (exprmod.eval1 if order == 1 else exprmod.eval2)(e, coords)
                val, grad, hess = d.value, d.gradient, d.hessian
            for (i, j) in slots:
                g[i, j] = g[j, i] = val
                if grad is not None:
                    dg[:, i, j] = dg[:, j, i] = grad
                if hess is not None:
                    d2g[:, :, i, j] = d2g[:, :, j, i] = hess
    if not np.isfinite(g).all():
        raise SingularMetric("metric evaluated to non-finite components")
    if order == 0:
        return g
    if order == 1:
        return g, dg
    return g, dg, d2g


def metric_at(spec: MetricSpec, point: Sequence[float]) -> np.ndarray:
    """Metric matrix at ``point``; symmetric and checked invertible."""
    g = metric_components_at(spec, point, order=0)
    s = np.linalg.svd(g, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= s[0] * 1e-13:
        raise SingularMetric("metric matrix is singular at this point")
    return g


def inverse_metric_at(spec: MetricSpec, point: Sequence[float]) -> np.ndarray:
    return np.linalg.inv(metric_at(spec, point))


def _invert(g: np.ndarray) -> np.ndarray:
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise SingularMetric("metric matrix is singular at this point") from None
    if not np.isfinite(ginv).all():
        raise SingularMetric("metric matrix is singular at this point")
    return ginv


def christoffel_at(spec: MetricSpec, point: Sequence[float]) -> np.ndarray:
    """Christoffel symbols ``Gamma[l, m, n] = Gamma^l_{mn}``."""
    if spec.components is None:
        return np.zeros((spec.dim,) * 3)
    g, dg = metric_components_at(spec, point, order=1)
    ginv = _invert(g)
    A = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("ls,smn->lmn", ginv, A)


def christoffel_and_partial(spec: MetricSpec, point: Sequence[float]):
    """Christoffels and their coordinate partials ``dGamma[a, l, m, n]``."""
    n = spec.dim
    if spec.components is None:
        return np.zeros((n,) * 3), np.zeros((n,) * 4)
    g, dg, d2g = metric_components_at(spec, point, order=2)
    ginv = _invert(g)
    dginv = -np.einsum("li,aij,js->als", ginv, dg, ginv)
    A = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    dA = d2g.transpose(0, 2, 1, 3) + d2g.transpose(0, 2, 3, 1) - d2g
    gamma = 0.5 * np.einsum("ls,smn->lmn", ginv, A)
    dgamma = 0.5 * (
        np.einsum("als,smn->almn", dginv, A)
        + np.einsum("ls,asmn->almn", ginv, dA)
    )
    return gamma, dgamma


def curvature_at(spec: MetricSpec, point: Sequence[float]) -> CurvatureValue:
    """Riemann, Ricci, and scalar curvature from the metric's 2-jet."""
    gamma, dgamma = christoffel_and_partial(spec, point)
    term1 = dgamma.transpose(1, 3, 0, 2)
    term3 = np.einsum("rml,lns->rsmn", gamma, gamma)
    riemann = term1 - term1.swapaxes(2, 3) + term3 - term3.swapaxes(2, 3)
    ricci = np.einsum("rsrn->sn", riemann)
    if spec.components is None:
        scalar = 0.0
    else:
        ginv = _invert(metric_components_at(spec, point, order=0))
        scalar = float(np.einsum("sn,sn->", ginv, ricci))
    return CurvatureValue(riemann=riemann, ricci=ricci, scalar=scalar)


def covariant_derivative_2form(
    spec: MetricSpec, field: AntisymTensorField, point: Sequence[float]
) -> np.ndarray:
    """``D[l, m, n] = D_l f_mn`` for a rank-2 antisymmetric field."""
    if field.rank != 2:
        raise ValueError("covariant derivative is implemented for rank-2 fields")
    if field.dim != spec.dim:
        raise ValueError("field and metric dimensions differ")
    jac = field.jacobian_at(point)
    if spec.components is None:
        return jac
    f = field.values_at(point)
    gamma = christoffel_at(spec, point)
    t1 = np.einsum("slm,sn->lmn", gamma, f)
    t2 = np.einsum("sln,ms->lmn", gamma, f)
    return jac - t1 - t2


# ---------------------------------------------------------------------------
# duality and serialization


def _dual_name(name: str) -> str:
    m = re.fullmatch(r"x(\d+)", name)
    if m:
        return f"p{m.group(1)}"
    m = re.fullmatch(r"p(\d+)", name)
    if m:
        return f"x{m.group(1)}"
    if name.startswith("p_"):
        return name[2:]
    return f"p_{name}"


def dual_metric(spec: MetricSpec) -> MetricSpec:
    """Same functional form with positions relabeled as momenta.

    An involution: applying it twice returns an equal spec.
    """
    return dataclasses.replace(
        spec,
        chart=tuple(_dual_name(c) for c in spec.chart),
        momentum_space=not spec.momentum_space,
    )


def dump_manifold(spec: MetricSpec) -> dict:
    """JSON-ready description; inverse of :func:`load_manifold`."""
    obj: dict = {
        "schema": "kyano/1",
        "kind": spec.kind,
        "dim": spec.dim,
        "params": {k: v for k, v in spec.params},
    }
    if spec.kind == "custom":
        obj["chart"] = list(spec.chart)
        grid = spec.components
        obj["metric"] = [
            [exprmod.unparse(grid[i][j]) if grid[i][j] is not None else "0"
             for j in range(spec.dim)]
            for i in range(spec.dim)
        ]
    if spec.momentum_space:
        obj["momentum_space"] = True
    return obj


def _finite_param(key: str, value) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise KyanoError(f"manifold parameter {key!r} must be finite, got {value!r}")
    return v


def load_manifold(source) -> MetricSpec:
    """Build a metric from a JSON dict, a JSON file path, or a dict."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = source
    if not isinstance(obj, dict):
        raise KyanoError("manifold description must be a JSON object")
    kind = obj.get("kind")
    params = {k: _finite_param(k, v) for k, v in (obj.get("params") or {}).items()}
    if kind == "flat":
        spec = flat(int(obj["dim"]))
    elif kind == "const-curvature":
        spec = const_curvature3(params.get("K", 1.0))
    elif kind == "taub-nut":
        spec = taub_nut(params.get("m", 1.0), params.get("fiber_scale", 2.0))
    elif kind == "custom":
        spec = custom(obj["metric"], chart=obj.get("chart"))
    else:
        raise KyanoError(f"unknown manifold kind {kind!r}")
    if int(obj.get("dim", spec.dim)) != spec.dim:
        raise KyanoError(f"declared dim {obj.get('dim')} does not match kind {kind!r}")
    if obj.get("momentum_space"):
        spec = dual_metric(spec)
    return spec


_NAME_RE = re.compile(r"^([a-z-]+)(\d*)$")


def resolve_manifold(text: str) -> MetricSpec:
    """Resolve a CLI ``--manifold`` value: a JSON path or a catalog name.

    Catalog names: ``flatN`` (``flat3``), ``const-curvature[:K=<v>]``,
    ``taub-nut[:m=<v>,fiber_scale=<v>]``.  A parameter the named metric
    does not take, or one given twice, is an error.
    """
    if os.path.exists(text) or text.endswith(".json"):
        return load_manifold(text)
    head, _, tail = text.partition(":")
    kwargs: dict[str, float] = {}
    if tail:
        for part in tail.split(","):
            key, _, val = part.partition("=")
            if not val:
                raise KyanoError(f"bad manifold parameter {part!r}")
            if key.strip() in kwargs:
                raise KyanoError(f"manifold parameter {key.strip()!r} given twice")
            kwargs[key.strip()] = _finite_param(key.strip(), val)
    m = _NAME_RE.match(head.strip())
    if not m:
        raise KyanoError(f"unrecognized manifold name {text!r}")
    base, digits = m.groups()
    if base == "flat":
        spec = flat(int(digits) if digits else 3)
    elif base == "const-curvature" and not digits:
        spec = const_curvature3(kwargs.pop("K", 1.0))
    elif base == "taub-nut" and not digits:
        spec = taub_nut(kwargs.pop("m", 1.0), kwargs.pop("fiber_scale", 2.0))
    else:
        raise KyanoError(f"unrecognized manifold name {text!r}")
    if kwargs:
        raise KyanoError(
            f"unknown parameter(s) {', '.join(map(repr, kwargs))} for manifold {head.strip()!r}"
        )
    return spec


# ---------------------------------------------------------------------------
# sampling


def default_box(spec: MetricSpec) -> list[tuple[float, float]]:
    if spec.kind == "taub-nut":
        return [(0.5, 2.5), (0.3, math.pi - 0.3), (0.0, 2.0 * math.pi), (0.0, 4.0 * math.pi)]
    return [(-1.0, 1.0)] * spec.dim


def sample_points(
    spec: MetricSpec,
    count: int,
    rng: np.random.Generator,
    box: Optional[Sequence[tuple[float, float]]] = None,
    margin: float = 0.1,
) -> np.ndarray:
    """Admissible chart points, uniform over ``box`` with rejection.

    Points closer than ``margin`` to a known singular locus (the
    constant-curvature conformal pole) are rejected, as is anything the
    metric itself rejects.  Raises :class:`DomainError` when fewer than
    one draw in a thousand is admissible.
    """
    if box is None:
        box = default_box(spec)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    out = np.empty((count, spec.dim))
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 1000 * max(count, 1):
            raise DomainError("sampling box appears to be mostly inadmissible")
        pt = lo + (hi - lo) * rng.random(spec.dim)
        if spec.kind == "const-curvature":
            K = spec.param("K")
            if abs(1.0 + K * float(pt @ pt) / 4.0) < margin:
                continue
        try:
            metric_at(spec, pt)
        except (DomainError, SingularMetric, SingularEvaluation):
            continue
        out[produced] = pt
        produced += 1
    return out
