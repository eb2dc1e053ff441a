"""Metric catalog and the differential geometry built on top of it.

All derivative quantities (Christoffel symbols, their partials, curvature)
come from first- and second-order jet evaluations of the metric
components, so there is no finite differencing anywhere in the chain.
Every ``*_at`` function takes a point ``(dim,)`` or a block ``(N, dim)``;
for a block its arrays gain a leading N axis, row i the bytes of the call
at point i.  One private evaluator, :func:`_metric`, runs the metric.

Charts are labeled by coordinate names but expressions always refer to
slots ``x1 .. xn`` in chart order; for the Taub-NUT chart ``(r, theta,
phi, psi)`` that means ``x1 = r`` and so on.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg
try:  # the C function np.einsum calls, without its Python-level argument handling
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    _einsum = np.einsum

from . import expr as exprmod
from .errors import DomainError, KyanoError, SingularEvaluation, SingularMetric, clipped
from .expr import Expression

DOMAIN_MARGIN = 1e-9
SINGULAR_BOUND = 1e13  # a metric is singular where max|g| max|g^-1| >= this / n^2
FLAT_MAX_DIM = 2048  # flat(n) keeps an n x n grid, about 8 MiB at n = 1000

ComponentGrid = tuple[tuple[Optional[Expression], ...], ...]


@dataclass(frozen=True)
class MetricSpec:
    """A metric on an n-dimensional chart.

    ``components`` is an n x n grid of expressions in ``x1 .. xn`` (``None``
    entries mean 0).  The grid is symmetric by construction: entry (j, i) is
    the same object as (i, j).
    ``momentum_space`` records whether the chart variables are momenta,
    which is what :func:`dual_metric` toggles.  The chart domain is where
    each of ``guards`` evaluates, without raising, to at least a margin;
    ``box`` is the default sampling box, ``[-1, 1]^n`` when ``None``.
    ``inverse`` is g^-1 in closed form, a grid like ``components``, or ``None``,
    where g^-1 is inverted numerically.  A ``kind="flat"`` spec, from :func:`flat`,
    has one identity grid for both; :func:`_is_identity` tests the grids, not ``kind``.
    """

    kind: str
    dim: int
    chart: tuple[str, ...]
    params: tuple[tuple[str, float], ...]
    components: ComponentGrid
    momentum_space: bool = False
    guards: tuple[Expression, ...] = ()
    box: Optional[tuple[tuple[float, float], ...]] = None
    inverse: Optional[ComponentGrid] = None
    # per-order component kernels and gather indices, see _component_table, the geodesic
    # kernels, see dynamics.GeodesicHamiltonian._fused, the dual, see dual_metric, and
    # the last block's Christoffels, see kysym._christoffel_block
    _tables: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                      compare=False)

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class CurvatureValue:
    """Riemann tensor R^rho_{sigma mu nu}, Ricci tensor, scalar curvature: at a
    block of N points, arrays with a leading N axis, the scalar an (N,) array."""

    riemann: np.ndarray
    ricci: np.ndarray
    scalar: "float | np.ndarray"


def _grid_from_upper(entries: dict, n: int) -> ComponentGrid:
    """The symmetric n x n grid of the upper-triangle ``entries``, expressions
    or their sources in ``x1 .. xn``; a missing entry is ``None``."""
    parsed = {k: exprmod.parse_expression(e, n) if isinstance(e, str) else e
              for k, e in entries.items()}
    return tuple(tuple(parsed.get((min(i, j), max(i, j))) for j in range(n)) for i in range(n))


def _interned(maxsize: int, normalize):
    """Catalog constructor decorator: arguments that ``normalize`` maps to one repr return one
    object, from an LRU of ``maxsize``; ``1.0`` and ``1`` share it, ``-0.0`` and ``0.0`` do not."""
    def decorate(build):
        cache = functools.lru_cache(maxsize)(lambda key, args: build(*args))

        @functools.wraps(build)
        def interned(*args, **kwargs):
            args = normalize(*args, **kwargs)
            return cache(repr(args), args)
        interned.cache_info = cache.cache_info
        return interned
    return decorate


@_interned(8, lambda n: (n,))
def flat(n: int) -> MetricSpec:
    """Euclidean metric on R^n in Cartesian coordinates: g and g^-1 are the identity.
    ``n`` is at most ``FLAT_MAX_DIM``.  Interned: equal ``n`` return the same spec,
    from an LRU of the last 8."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if n > FLAT_MAX_DIM:
        raise ValueError(f"flat dimension {n} exceeds the bound {FLAT_MAX_DIM}")
    chart = tuple(f"x{i}" for i in range(1, n + 1))
    one, zeros = exprmod.parse_expression("1.0", n), (None,) * n  # one shared diagonal entry
    identity = tuple(zeros[:i] + (one,) + zeros[i + 1:] for i in range(n))
    return MetricSpec(kind="flat", dim=n, chart=chart, params=(), components=identity,
                      inverse=identity)


def _is_identity(spec: MetricSpec) -> bool:
    """Whether g is the identity grid, ``1.0`` on the diagonal and ``None`` off it, and
    g^-1 is that same grid, as :func:`flat` builds them."""
    n = spec.dim
    return spec.components is spec.inverse and all(
        row.count(None) == n - 1 and isinstance(getattr(row[i], "root", None), exprmod.Num)
        and row[i].root.value == 1.0 for i, row in enumerate(spec.components))


@_interned(32, lambda K: (float(K),))
def const_curvature3(K: float) -> MetricSpec:
    """3-space of constant curvature K in the conformally flat chart.

    ds^2 = (1 + K r^2 / 4)^{-2} sum_i (dx^i)^2.  For K < 0 the chart is
    only admissible away from the conformal pole 1 + K r^2/4 = 0.
    Interned: equal ``float(K)`` return one spec, from an LRU of 32; -0.0 is not 0.0.
    """
    u = f"(1 + {K!r} * (x1^2 + x2^2 + x3^2) / 4)"
    return MetricSpec(
        kind="const-curvature",
        dim=3,
        chart=("x1", "x2", "x3"),
        params=(("K", K),),
        components=_grid_from_upper({(i, i): f"1 / {u}^2" for i in range(3)}, 3),
        guards=(exprmod.parse_expression(f"abs{u}", 3),),
        inverse=_grid_from_upper({(i, i): f"{u}^2" for i in range(3)}, 3),
    )


@_interned(32, lambda m, fiber_scale=2.0: (float(m), float(fiber_scale)))
def taub_nut(m: float, fiber_scale: float = 2.0) -> MetricSpec:
    """Euclidean Taub-NUT metric with potential V = 1 + 2m/r.

    ds^2 = V (dr^2 + r^2 dtheta^2 + r^2 sin^2 theta dphi^2)
           + c^2 V^{-1} (dpsi + cos theta dphi)^2,   c = fiber_scale * m.

    ``fiber_scale = 2`` is the normalization under which the standard
    triplet of two-forms (see :func:`kyano.kysym.taubnut_ky`) is covariantly
    constant; ``fiber_scale = 4`` is a common alternate that fails that
    check.  Both are evaluable; verification reports record which one
    passes.  ``inverse`` is read off the orthonormal frame (Gibbons & Ruback 1987).
    Interned: equal float arguments return the same spec, from an LRU of the last 32.
    """
    if m <= 0:
        raise ValueError("mass parameter must be positive")
    try:
        c2 = (fiber_scale * m) ** 2
    except OverflowError:
        c2 = math.inf
    if not math.isfinite(c2):
        raise ValueError(f"fiber coefficient (fiber_scale * m)^2 is not finite for m={m!r},"
                         f" fiber_scale={fiber_scale!r}")
    two_m = 2.0 * m
    V = f"(1 + {two_m!r}/x1)"
    base = f"({V}*x1^2*sin(x2)^2)"  # V r^2 sin^2(theta)
    return MetricSpec(
        kind="taub-nut",
        dim=4,
        chart=("r", "theta", "phi", "psi"),
        params=(("m", m), ("fiber_scale", fiber_scale)),
        components=_grid_from_upper({
            (0, 0): f"1 + {two_m!r}/x1",
            (1, 1): f"x1^2 + {two_m!r}*x1",
            (2, 2): f"(x1^2 + {two_m!r}*x1)*sin(x2)^2 + {c2!r}*cos(x2)^2/{V}",
            (2, 3): f"{c2!r}*cos(x2)/{V}",
            (3, 3): f"{c2!r}/{V}",
        }, 4),
        guards=(exprmod.parse_expression("x1", 4), exprmod.parse_expression("abs(sin(x2))", 4)),
        box=((0.5, 2.5), (0.3, math.pi - 0.3), (0.0, 2.0 * math.pi), (0.0, 4.0 * math.pi)),
        inverse=_grid_from_upper({
            (0, 0): f"1/{V}", (1, 1): f"1/({V}*x1^2)", (2, 2): f"1/{base}",
            (2, 3): f"-cos(x2)/{base}", (3, 3): f"cos(x2)^2/{base} + {V}/{c2!r}",
        }, 4),
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
    entries = {}
    for i in range(n):
        for j in range(i, n):
            cell = rows[i][j]
            if isinstance(cell, (int, float)):
                cell = None if cell == 0 else repr(float(cell))
            elif not isinstance(cell, (Expression, str)):
                raise TypeError(f"unsupported metric entry of type {type(cell).__name__}")
            if cell is not None:
                entries[(i, j)] = cell
    components = _grid_from_upper(entries, n)
    if chart is None:
        chart_t = tuple(f"x{i}" for i in range(1, n + 1))
    else:
        chart_t = tuple(chart)
        if len(chart_t) != n:
            raise ValueError("chart names must match the matrix dimension")
    return MetricSpec(kind="custom", dim=n, chart=chart_t, params=(), components=components)


@_interned(32, lambda K: (float(K),))
def const_curvature3_spherical(K: float) -> MetricSpec:
    """Spherical chart (r, theta, phi) of the constant-curvature 3-space.

    ds^2 = (1 + K r^2/4)^{-2} (dr^2 + r^2 dtheta^2 + r^2 sin^2 theta dphi^2).
    Built as a custom metric with guards: admissible for r > 0 away from the
    polar axis and the conformal pole.  Interned like :func:`const_curvature3`.
    """
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


def _check_guards(spec: MetricSpec, coords, margin: float = DOMAIN_MARGIN):
    """``coords``, a point's list of floats or N points' (dim, N) columns, finite
    and at least ``margin`` inside every guard."""
    point = isinstance(coords, list)
    if not (all(map(math.isfinite, coords)) if point else np.isfinite(coords).all()):
        raise DomainError("point has non-finite coordinates")
    for guard in spec.guards:
        try:  # a NaN value is outside
            inside = (exprmod._kernel(guard, 0)(coords) >= margin if point
                      else (exprmod.eval_columns(guard, coords) >= margin).all())
        except SingularEvaluation:
            inside = False
        if not inside:
            raise DomainError(f"outside the chart domain: {exprmod.unparse(guard)} < {margin:g}")
    return coords


def _component_table(spec: MetricSpec, order: int):
    """The distinct components of ``spec`` as one ``expr.Fused``, its kernel at ``order``,
    their output width and the indices that gather g, dg and d2g from its outputs and 0."""
    table = spec._tables.get(order)
    if table is None:
        n = spec.dim
        width = 1 + n + n * n if order == 2 else 1 + n * order
        exprs: dict[int, tuple[int, Expression]] = {}
        start = np.full((n, n), -1, dtype=np.intp)
        for i, row in enumerate(spec.components):
            for j in itertools.compress(range(i, n), row[i:]):  # the upper triangle's entries
                e = row[j]
                start[i, j] = start[j, i] = exprs.setdefault(id(e), (len(exprs) * width, e))[0]
        offsets = [1 + np.arange(n)[:, None, None], 1 + n + np.arange(n * n).reshape(n, n, 1, 1)]
        gather = [start] + [np.where(start < 0, -1, start + off) for off in offsets[:order]]
        exprs = exprmod.Fused(e for _, e in exprs.values())
        table = spec._tables[order] = (exprs, exprmod._kernel(exprs, order), width, gather)
    return table


def _point_values(spec: MetricSpec, exprs, kernel, width: int, coords: list) -> list:
    """The checked outputs of the components' ``kernel`` at a point's floats, and 0.0."""
    _check_guards(spec, coords)
    values = [kernel(coords)] if width == len(exprs) == 1 else list(kernel(coords))
    # every component's first output is an entry of g
    if not all(map(math.isfinite, values[::width])):
        raise SingularMetric("metric evaluated to non-finite components")
    values.append(0.0)
    return values


def _metric(spec: MetricSpec, X, order: int = 0, inverse: bool = False) -> list:
    """``[g, dg, d2g][:order + 1]``, and with ``inverse`` then ``g^-1``, at a point
    (dim,) or at each row of a block (N, dim): the components' one kernel runs per
    point, or over columns from ``expr._COLUMN_ROWS`` rows on.  A block that raises
    reruns its rows one at a time, so the first failing row raises its own error."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1:] != (spec.dim,) or X.ndim > 2:
        raise ValueError(f"expected a point of dimension {spec.dim}, got shape {X.shape}")
    exprs, kernel, width, gather = _component_table(spec, order)
    try:
        if X.ndim == 1:
            flat = np.array(_point_values(spec, exprs, kernel, width, X.tolist()), float)
        elif 0 < len(X) < exprmod._COLUMN_ROWS:
            flat = np.array([_point_values(spec, exprs, kernel, width, x) for x in X.tolist()], float)
        else:
            rows = exprmod.eval_columns(exprs, _check_guards(spec, X.T), order)
            # every component's first row is an entry of g
            if not np.isfinite(rows[::width]).all():
                raise SingularMetric("metric evaluated to non-finite components")
            flat = np.concatenate([rows, np.zeros((1, len(X)))]).T
        out = [flat[idx] if X.ndim == 1 else flat[:, idx] for idx in gather]
        if inverse:
            out.append(_invert(out[0]))
    except KyanoError:
        if X.ndim == 2:  # the first failing row raises its own error
            for x in X:
                _metric(spec, x, order, inverse)
        raise
    return out


def metric_components_at(spec: MetricSpec, point, order: int = 0):
    """Metric matrix and, for ``order`` 1 or 2, its coordinate derivatives.

    Returns ``g``; ``(g, dg)`` with ``dg[a,i,j] = d_a g_ij``; or
    ``(g, dg, d2g)`` with ``d2g[a,b,i,j] = d_a d_b g_ij``.
    """
    out = _metric(spec, point, order)
    return tuple(out) if order else out[0]


def metric_at(spec: MetricSpec, point) -> np.ndarray:
    """Metric matrix at ``point``; symmetric and checked invertible."""
    return _metric(spec, point, inverse=True)[0]


def inverse_metric_at(spec: MetricSpec, point) -> np.ndarray:
    return _metric(spec, point, inverse=True)[1]


@np.errstate(all="ignore")  # the gufunc flags a singular g as invalid
def _invert(g: np.ndarray, rows: bool = False):
    """``g^-1`` (of each matrix of a stack) if ``max|g| max|g^-1| < 1e13 / n^2``,
    else SingularMetric; as cond_2(g) <= n^2 max|g| max|g^-1|, every g with
    cond_2 >= 1e13 fails, and so does the NaN the bare gufunc gives if singular.
    With ``rows``, return the stack's inverses and its mask of passing matrices."""
    ginv = _umath_linalg.inv(g, signature="d->d")
    axes = (-2, -1) if g.ndim > 2 else None  # one matrix reduces faster without axes
    bound = np.maximum.reduce(abs(g), axes) * np.maximum.reduce(abs(ginv), axes)
    ok = bound < SINGULAR_BOUND / g.shape[-1] ** 2
    if rows:
        return ginv, ok
    if ok.all() if axes else ok:  # a numpy scalar's .all() costs more than the reductions
        return ginv
    raise SingularMetric("metric matrix is singular at this point")


def _check_entries(g, ginv, n: int) -> None:
    """:func:`_metric`'s checks on the entries of ``g`` and its closed-form inverse (a
    non-finite one fails), run where the RK4 step's accept test, which implies them, fails."""
    if sum(map(abs, g)) * sum(map(abs, ginv)) < SINGULAR_BOUND / n ** 2:
        return
    if not all(map(math.isfinite, g)):
        raise SingularMetric("metric evaluated to non-finite components")
    if not (all(map(math.isfinite, ginv))
            and max(map(abs, g)) * max(map(abs, ginv)) < SINGULAR_BOUND / n ** 2):
        raise SingularMetric("metric matrix is singular at this point")


def _christoffel(ginv: np.ndarray, dg: np.ndarray):
    """``Gamma[..., l, m, n] = Gamma^l_{mn}`` and the bracket ``A[..., s, m, n] =
    d_m g_sn + d_n g_sm - d_s g_mn`` it contracts, for any leading batch axes."""
    dgs = dg.swapaxes(-3, -2)  # dgs[s, m, n] = d_m g_sn
    A = dgs + dgs.swapaxes(-2, -1) - dg
    return 0.5 * _einsum("...ls,...smn->...lmn", ginv, A), A


def christoffel_at(spec: MetricSpec, point) -> np.ndarray:
    """Christoffel symbols ``Gamma[..., l, m, n] = Gamma^l_{mn}``."""
    _, dg, ginv = _metric(spec, point, 1, inverse=True)
    return _christoffel(ginv, dg)[0]


def christoffel_and_partial(spec: MetricSpec, point):
    """Christoffels, their coordinate partials ``dGamma[..., a, l, m, n]`` and the
    inverse metric they are built from, all from one order-2 metric jet."""
    _, dg, d2g, ginv = _metric(spec, point, 2, inverse=True)
    gi = ginv[..., None, :, :]  # against each d_a g
    dginv = -((gi @ dg) @ gi)
    gamma, A = _christoffel(ginv, dg)
    dA = d2g.swapaxes(-3, -2) + d2g.swapaxes(-3, -2).swapaxes(-2, -1) - d2g  # d_a of A
    dgamma = 0.5 * (
        _einsum("...als,...smn->...almn", dginv, A)
        + _einsum("...ls,...asmn->...almn", ginv, dA)
    )
    return gamma, dgamma, ginv


def curvature_at(spec: MetricSpec, point) -> CurvatureValue:
    """Riemann, Ricci, and scalar curvature from the metric's 2-jet."""
    gamma, dgamma, ginv = christoffel_and_partial(spec, point)
    lead = tuple(range(ginv.ndim - 2))  # the row axis of a block
    term1 = dgamma.transpose(*lead, -3, -1, -4, -2)  # term1[r, s, m, n] = d_m Gamma^r_ns
    term3 = _einsum("...rml,...lns->...rsmn", gamma, gamma)
    riemann = term1 - term1.swapaxes(-2, -1) + term3 - term3.swapaxes(-2, -1)
    ricci = _einsum("...rsrn->...sn", riemann)
    scalar = _einsum("...sn,...sn->...", ginv, ricci)
    return CurvatureValue(riemann=riemann, ricci=ricci, scalar=scalar if lead else float(scalar))


def _covariant_derivative(gamma: np.ndarray, f: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """``D_l f_{i1..ir} = d_l f_{i1..ir} - sum_k Gamma^s_{l i_k} f_{i1..s..ir}``
    from the Christoffels and a rank-r field's values and partials, which may
    share leading batch axes."""
    idx = "mnopqrtuvwxyz"[: f.ndim - gamma.ndim + 3]  # free: not l (derivative) or s (summed)
    D = jac
    for k, i in enumerate(idx):
        D = D - np.einsum(f"...sl{i},...{idx[:k]}s{idx[k + 1:]}->...l{idx}", gamma, f)
    return D


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
    """Same functional form with positions relabeled as momenta, built once per spec.

    An involution: applying it twice returns an equal spec.
    """
    if "dual" not in spec._tables:
        spec._tables["dual"] = dataclasses.replace(spec, momentum_space=not spec.momentum_space,
                                                   chart=tuple(map(_dual_name, spec.chart)))
    return spec._tables["dual"]


def dump_manifold(spec: MetricSpec) -> dict:
    """JSON-ready description; inverse of :func:`load_manifold`."""
    obj: dict = {
        "schema": "kyano/1",
        "kind": spec.kind,
        "dim": spec.dim,
        "params": {k: v for k, v in spec.params},
    }
    if spec.kind == "custom":
        obj["chart"] = list(dual_metric(spec).chart if spec.momentum_space else spec.chart)
        grid = spec.components
        obj["metric"] = [
            [exprmod.unparse(grid[i][j]) if grid[i][j] is not None else "0"
             for j in range(spec.dim)]
            for i in range(spec.dim)
        ]
        if spec.guards:
            obj["domain"] = [exprmod.unparse(g) for g in spec.guards]
        if spec.box:
            obj["box"] = [list(b) for b in spec.box]
    if spec.momentum_space:
        obj["momentum_space"] = True
    return obj


def _finite_param(key: str, value) -> float:
    try:  # a JSON null, list or bool is no number
        v = float(value) if type(value) in (int, float, str) else math.nan
    except OverflowError:  # an int too large for a float
        v = math.inf
    if not math.isfinite(v):
        raise KyanoError(f"manifold parameter {clipped(key)} must be finite, got {clipped(value)}")
    return v


def _reject_unknown(params: dict, kind: str) -> None:
    if params:  # the parameters the manifold did not take
        names = ", ".join(map(clipped, params))
        raise KyanoError(f"unknown parameter(s) {names} for manifold {kind!r}")


def load_manifold(source) -> MetricSpec:
    """Build a metric from a JSON dict, a JSON file path, or a dict.  A key
    the manifold's kind does not read is an error."""
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
        raise KyanoError(f"manifold 'params' must be an object, got {clipped(params)}")
    params = {k: _finite_param(k, v) for k, v in params.items()}
    dim = obj.get("dim")  # required for "flat", a cross-check for the other kinds
    if (dim is not None or kind == "flat") and type(dim) is not int:
        raise KyanoError(f"manifold 'dim' must be an integer, got {clipped(dim)}")
    if kind == "flat":
        spec = flat(dim)
    elif kind == "const-curvature":
        spec = const_curvature3(params.pop("K", 1.0))
    elif kind == "taub-nut":
        spec = taub_nut(params.pop("m", 1.0), params.pop("fiber_scale", 2.0))
    elif kind == "custom":
        rows, chart = obj.get("metric"), obj.get("chart")
        if not (isinstance(rows, list) and rows and all(
                isinstance(row, list) and all(isinstance(c, (str, int, float)) for c in row)
                for row in rows)):
            raise KyanoError("manifold 'metric' must be a list of rows of expression"
                             " strings or numbers")
        if chart is not None and not (isinstance(chart, list)
                                      and all(isinstance(c, str) for c in chart)):
            raise KyanoError(f"manifold 'chart' must be a list of names, got {clipped(chart)}")
        domain = obj.get("domain", [])  # guards: expressions that must stay positive
        if not (isinstance(domain, list) and all(isinstance(d, str) for d in domain)):
            raise KyanoError(f"manifold 'domain' must be a list of expression strings,"
                             f" got {clipped(domain)}")
        box = obj.get("box")  # the default sampling box: one [lo, hi] per coordinate
        if "box" in obj and not (isinstance(box, list) and len(box) == len(rows) and all(
                isinstance(b, list) and len(b) == 2
                and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in b)
                and b[0] < b[1] for b in box)):
            raise KyanoError(f"manifold 'box' must be a list of {len(rows)} [lo, hi] pairs of"
                             f" finite numbers with lo < hi, got {clipped(box)}")
        spec = dataclasses.replace(custom(rows, chart=chart), guards=tuple(
            exprmod.parse_expression(d, len(rows)) for d in domain),
            box=box and tuple((float(lo), float(hi)) for lo, hi in box))
    else:
        raise KyanoError(f"unknown manifold kind {clipped(kind)}")
    read = ("schema", "kind", "dim", "params", "momentum_space") + (
        ("metric", "chart", "domain", "box") if kind == "custom" else ())
    stray = [key for key in obj if key not in read]
    if stray:
        raise KyanoError(f"manifold key {clipped(stray[0])} is not read for kind {kind!r}")
    _reject_unknown(params, kind)
    if dim is not None and dim != spec.dim:
        raise KyanoError(f"declared dim {dim} does not match kind {kind!r}")
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
                raise KyanoError(f"bad manifold parameter {clipped(part)}")
            if key.strip() in kwargs:
                raise KyanoError(f"manifold parameter {clipped(key.strip())} given twice")
            kwargs[key.strip()] = _finite_param(key.strip(), val)
    m = _NAME_RE.match(head.strip())
    if not m:
        raise KyanoError(f"unrecognized manifold name {clipped(text)}")
    base, digits = m.groups()
    if base == "flat":
        spec = flat(int(digits) if digits else 3)
    elif base == "const-curvature" and not digits:
        spec = const_curvature3(kwargs.pop("K", 1.0))
    elif base == "taub-nut" and not digits:
        spec = taub_nut(kwargs.pop("m", 1.0), kwargs.pop("fiber_scale", 2.0))
    else:
        raise KyanoError(f"unrecognized manifold name {clipped(text)}")
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
    a thousand is admissible.  Draws come in blocks, and the generator is
    rewound to redraw only the draws used, so the points and the generator's
    final state are those of drawing one point at a time.
    """
    if box is None:
        box = default_box(spec)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    out, drawn, budget = np.empty((0, spec.dim)), 0, 1000 * max(count, 1)
    while len(out) < count:
        if drawn >= budget:
            raise DomainError("sampling box appears to be mostly inadmissible")
        need, state = count - len(out), rng.bit_generator.state
        k = min(budget - drawn, max(2 * need, drawn) + 16, 1 << 14)  # draws in this block
        X = lo + (hi - lo) * rng.random((k, spec.dim))
        kept = np.flatnonzero(_admissible_rows(spec, X))[:need]
        if len(kept) == need:  # the last block: rewind and redraw the draws used
            k = kept[-1] + 1
            rng.bit_generator.state = state
            rng.random((k, spec.dim))
        out, drawn = np.concatenate([out, X[kept]]), drawn + k
    return out


def _admissible_rows(spec: MetricSpec, X: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``X`` that :func:`sample_points` keeps; where the rows
    at once raise, each row is decided alone, and one that raises is outside."""
    ok = np.isfinite(X).all(axis=1)
    try:
        for guard in spec.guards:
            ok[ok] = exprmod.eval_columns(guard, X[ok].T) >= 0.1
        if ok.any():
            ok[ok] = _invert(_metric(spec, X[ok])[0], rows=True)[1]
    except (DomainError, SingularEvaluation):
        return np.array([len(X) > 1 and _admissible_rows(spec, x[None])[0] for x in X], bool)
    return ok
