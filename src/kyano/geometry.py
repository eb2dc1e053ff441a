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
import itertools
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

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
    which is what :func:`dual_metric` toggles.  The chart domain is where
    each of ``guards`` evaluates, without raising, to at least a margin;
    ``box`` is the default sampling box, ``[-1, 1]^n`` when ``None``.
    """

    kind: str
    dim: int
    chart: tuple[str, ...]
    params: tuple[tuple[str, float], ...]
    components: ComponentGrid = None
    momentum_space: bool = False
    guards: tuple[Expression, ...] = ()
    box: Optional[tuple[tuple[float, float], ...]] = None
    # per-order component kernels and gather indices, see _component_table
    _tables: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                      compare=False)

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
        guards=(exprmod.parse_expression(f"abs(1 + {K!r} * (x1^2 + x2^2 + x3^2) / 4)", 3),),
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
        guards=(exprmod.parse_expression("x1", 4), exprmod.parse_expression("abs(sin(x2))", 4)),
        box=((0.5, 2.5), (0.3, math.pi - 0.3), (0.0, 2.0 * math.pi), (0.0, 4.0 * math.pi)),
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
    Built as a custom metric with guards: admissible for r > 0 away from the
    polar axis and the conformal pole.
    """
    K = float(K)
    conf = f"(1 + {K!r}*x1^2/4)^2"
    rows = [
        [f"1/{conf}", "0", "0"],
        ["0", f"x1^2/{conf}", "0"],
        ["0", "0", f"x1^2*sin(x2)^2/{conf}"],
    ]
    guards = ("x1", "abs(sin(x2))", f"abs(1 + {K!r}*x1^2/4)")
    return dataclasses.replace(custom(rows, chart=("r", "theta", "phi")),
                               guards=tuple(exprmod.parse_expression(g, 3) for g in guards),
                               box=((0.0, 2.0), (0.0, math.pi), (0.0, 2.0 * math.pi)))


# ---------------------------------------------------------------------------
# evaluation


def _check_point(spec: MetricSpec, point: Sequence[float], margin: float = DOMAIN_MARGIN):
    """``point`` as floats, checked finite and at least ``margin`` inside every guard."""
    pt = np.asarray(point, dtype=float)
    if pt.shape != (spec.dim,):
        raise ValueError(f"expected a point of dimension {spec.dim}, got shape {pt.shape}")
    coords = pt.tolist()
    if not all(map(math.isfinite, coords)):
        raise DomainError("point has non-finite coordinates")
    return _check_guards(spec, coords, margin)


def _check_guards(spec: MetricSpec, coords, margin: float = DOMAIN_MARGIN, rows: bool = False):
    """``coords`` (a point's floats, or with ``rows`` N points' columns) inside every guard."""
    for guard in spec.guards:
        try:  # a NaN minimum, like a NaN value, is outside
            inside = (exprmod.eval_columns(guard, coords).min() if rows
                      else exprmod._kernel(guard, 0)(coords)) >= margin
        except SingularEvaluation:
            inside = False
        if not inside:
            raise DomainError(f"outside the chart domain: {exprmod.unparse(guard)} < {margin:g}")
    return coords


def _component_table(spec: MetricSpec, order: int):
    """The distinct component kernels of ``spec`` at ``order`` and the flat
    indices that gather ``g``, ``dg`` and ``d2g`` from their concatenated
    outputs; index ``-1`` reads the 0.0 appended for ``None`` entries."""
    table = spec._tables.get(order)
    if table is None:
        n = spec.dim
        width = 1 + n + n * n if order == 2 else 1 + n * order
        exprs: dict[int, tuple[int, Expression]] = {}
        start = np.full((n, n), -1, dtype=np.intp)
        for i, j in itertools.product(range(n), repeat=2):
            e = spec.components[min(i, j)][max(i, j)]  # the upper triangle is read
            if e is not None:
                start[i, j] = exprs.setdefault(id(e), (len(exprs) * width, e))[0]
        offsets = [np.zeros((1, 1), dtype=np.intp), 1 + np.arange(n)[:, None, None],
                   1 + n + np.arange(n * n).reshape(n, n, 1, 1)]
        gather = [np.where(start < 0, -1, start + off) for off in offsets[: order + 1]]
        exprs = tuple(e for _, e in exprs.values())
        kernels = tuple(exprmod._kernel(e, order) for e in exprs)
        table = spec._tables[order] = (exprs, kernels, gather)
    return table


def metric_components_at(spec: MetricSpec, point: Sequence[float], order: int = 0):
    """Metric matrix and, for ``order`` 1 or 2, its coordinate derivatives.

    Returns ``g``; ``(g, dg)`` with ``dg[a,i,j] = d_a g_ij``; or
    ``(g, dg, d2g)`` with ``d2g[a,b,i,j] = d_a d_b g_ij``.
    """
    return _metric_jet(spec, _check_point(spec, point), order)


def _metric_jet(spec: MetricSpec, coords: list, order: int):
    """:func:`metric_components_at` at the floats of a checked point."""
    n = spec.dim
    if spec.components is None:
        out = [np.eye(n)] + [np.zeros((n,) * (k + 3)) for k in range(order)]
    else:
        _, kernels, gather = _component_table(spec, order)
        if order == 0:
            values = [k(coords) for k in kernels]
        else:
            values = [v for k in kernels for v in k(coords)]
        # every kernel's first output is an entry of g
        if not all(map(math.isfinite, values[::len(values) // max(len(kernels), 1)])):
            raise SingularMetric("metric evaluated to non-finite components")
        values.append(0.0)
        flat = np.array(values)
        out = [flat[idx] for idx in gather]
    return out[0] if order == 0 else tuple(out)


def _metric_rows(spec: MetricSpec, X: np.ndarray) -> np.ndarray:
    """``g`` at each row of ``X`` (N, dim) as an (N, dim, dim) stack, checked
    as :func:`metric_components_at` checks a point, on order-0 columns."""
    if not np.isfinite(X).all():
        raise DomainError("point has non-finite coordinates")
    cols = _check_guards(spec, X.T, rows=True)
    if spec.components is None:
        return np.broadcast_to(np.eye(spec.dim), (len(X), spec.dim, spec.dim))
    exprs, _, (idx,) = _component_table(spec, 0)
    flat = np.column_stack([*(exprmod.eval_columns(e, cols) for e in exprs), np.zeros(len(X))])
    if not np.isfinite(flat).all():
        raise SingularMetric("metric evaluated to non-finite components")
    return flat[:, idx]


def metric_at(spec: MetricSpec, point: Sequence[float]) -> np.ndarray:
    """Metric matrix at ``point``; symmetric and checked invertible."""
    g = metric_components_at(spec, point, order=0)
    _invert(g)
    return g


def inverse_metric_at(spec: MetricSpec, point: Sequence[float]) -> np.ndarray:
    return _invert(metric_components_at(spec, point, order=0))


@np.errstate(all="ignore")  # the gufunc flags a singular g as invalid
def _invert(g: np.ndarray) -> np.ndarray:
    """``g^-1`` (of each matrix of a stack) if ``max|g| max|g^-1| < 1e13 / n^2``,
    else SingularMetric; as cond_2(g) <= n^2 max|g| max|g^-1|, every g with
    cond_2 >= 1e13 fails, and so does the NaN the bare gufunc gives if singular."""
    ginv = _umath_linalg.inv(g, signature="d->d")
    axes = (-2, -1) if g.ndim > 2 else None  # one matrix reduces faster without axes
    bound = np.maximum.reduce(abs(g), axes) * np.maximum.reduce(abs(ginv), axes)
    ok = bound < 1e13 / g.shape[-1] ** 2
    if ok.all() if axes else ok:  # a numpy scalar's .all() costs more than the reductions
        return ginv
    raise SingularMetric("metric matrix is singular at this point")


def christoffel_at(spec: MetricSpec, point: Sequence[float]) -> np.ndarray:
    """Christoffel symbols ``Gamma[l, m, n] = Gamma^l_{mn}``."""
    if spec.components is None:
        return np.zeros((spec.dim,) * 3)
    g, dg = metric_components_at(spec, point, order=1)
    ginv = _invert(g)
    A = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("ls,smn->lmn", ginv, A)


def christoffel_and_partial(spec: MetricSpec, point: Sequence[float]):
    """Christoffels, their coordinate partials ``dGamma[a, l, m, n]`` and the
    inverse metric they are built from, all from one order-2 metric jet."""
    n = spec.dim
    if spec.components is None:
        return np.zeros((n,) * 3), np.zeros((n,) * 4), np.eye(n)
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
    return gamma, dgamma, ginv


def curvature_at(spec: MetricSpec, point: Sequence[float]) -> CurvatureValue:
    """Riemann, Ricci, and scalar curvature from the metric's 2-jet."""
    gamma, dgamma, ginv = christoffel_and_partial(spec, point)
    term1 = dgamma.transpose(1, 3, 0, 2)
    term3 = np.einsum("rml,lns->rsmn", gamma, gamma)
    riemann = term1 - term1.swapaxes(2, 3) + term3 - term3.swapaxes(2, 3)
    ricci = np.einsum("rsrn->sn", riemann)
    scalar = float(np.einsum("sn,sn->", ginv, ricci))
    return CurvatureValue(riemann=riemann, ricci=ricci, scalar=scalar)


def covariant_derivative_2form(
    spec: MetricSpec, field: AntisymTensorField, point: Sequence[float],
    values: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``D[l, m, n] = D_l f_mn`` for a rank-2 antisymmetric field;
    ``values``, if given, is ``field.values_at(point)``."""
    if field.rank != 2:
        raise ValueError("covariant derivative is implemented for rank-2 fields")
    if field.dim != spec.dim:
        raise ValueError("field and metric dimensions differ")
    jac = field.jacobian_at(point)
    if spec.components is None:
        return jac
    f = field.values_at(point) if values is None else values
    return _covariant_derivative(christoffel_at(spec, point), f, jac)


def _covariant_derivative(gamma: np.ndarray, f: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """``D_l f_mn`` from the Christoffels and a two-form's values and partials."""
    return jac - np.einsum("slm,sn->lmn", gamma, f) - np.einsum("sln,ms->lmn", gamma, f)


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


def _reject_unknown(params: dict, kind: str) -> None:
    if params:  # the parameters the manifold did not take
        names = ", ".join(map(repr, params))
        raise KyanoError(f"unknown parameter(s) {names} for manifold {kind!r}")


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
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise KyanoError(f"manifold 'params' must be an object, got {params!r}")
    params = {k: _finite_param(k, v) for k, v in params.items()}
    if kind == "flat":
        spec = flat(int(obj["dim"]))
    elif kind == "const-curvature":
        spec = const_curvature3(params.pop("K", 1.0))
    elif kind == "taub-nut":
        spec = taub_nut(params.pop("m", 1.0), params.pop("fiber_scale", 2.0))
    elif kind == "custom":
        spec = custom(obj["metric"], chart=obj.get("chart"))
    else:
        raise KyanoError(f"unknown manifold kind {kind!r}")
    _reject_unknown(params, kind)
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
    _reject_unknown(kwargs, head.strip())
    return spec


# ---------------------------------------------------------------------------
# sampling


def default_box(spec: MetricSpec) -> list[tuple[float, float]]:
    return list(spec.box) if spec.box else [(-1.0, 1.0)] * spec.dim


def sample_points(
    spec: MetricSpec,
    count: int,
    rng: np.random.Generator,
    box: Optional[Sequence[tuple[float, float]]] = None,
) -> np.ndarray:
    """Admissible chart points, uniform over ``box`` with rejection.

    Draws are kept where every guard is at least 0.1 and :func:`metric_at`
    accepts them.  Raises :class:`DomainError` when fewer than one draw in
    a thousand is admissible.
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
        try:
            _check_point(spec, pt, 0.1)
            metric_at(spec, pt)
        except (DomainError, SingularEvaluation):
            continue
        out[produced] = pt
        produced += 1
    return out
