"""Metric catalog and the differential geometry built on top of it.

All derivative quantities (Christoffel symbols, their partials, curvature)
come from first- and second-order jet evaluations of the metric
components, so there is no finite differencing anywhere in the chain.
Every ``*_at`` function takes a point ``(dim,)`` or a block ``(N, dim)``;
for a block its arrays gain a leading N axis, row i the bytes of the call
at point i.  Every query runs a compiled kernel of the metric that opens with
one prelude of guards, g and g^-1, emitted by :func:`_emit_metric`: the metric
jets, the sampler's test, the Christoffels, the curvature and the geodesic
right-hand side in :mod:`kyano.dynamics`.  So a point is admissible by one
rule, the prelude's, wherever it is asked.

Charts are labeled by coordinate names but expressions always refer to
slots ``x1 .. xn`` in chart order; for the Taub-NUT chart ``(r, theta,
phi, psi)`` that means ``x1 = r`` and so on.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import math
import operator
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from . import expr as exprmod
from . import jsonio
from .errors import DomainError, KyanoError, SingularMetric, clipped
from .expr import Expression

DOMAIN_MARGIN = 1e-9
SAMPLE_MARGIN = 0.1  # the guard margin of sample_points
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
    # the compiled kernels by (key, columns) with their layouts, see _kernel, the geodesic
    # kernels, see dynamics.GeodesicHamiltonian._fused, the dual, see dual_metric, and the
    # last block's Christoffels and numeric inverse metric, see _last_block
    _tables: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                      compare=False)

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


class CurvatureValue:
    """Riemann tensor R^rho_{sigma mu nu}, Ricci tensor, scalar curvature: at a block of N
    points, arrays with a leading N axis, the scalar an (N,) array.  ``scalar`` is the
    kernel's own output; ``riemann`` and ``ricci`` are scattered from the kernel's outputs (a
    tuple at a point, (outputs, N) at a block) on first read, and kept."""

    def __init__(self, outs, layout: tuple, scalar: "float | np.ndarray"):
        self._outs, self._layout, self.scalar = outs, layout, scalar

    @functools.cached_property
    def riemann(self) -> np.ndarray:
        return self._scattered(0, 4, *self._layout[1:3])

    @functools.cached_property
    def ricci(self) -> np.ndarray:
        return self._scattered(len(self._layout[1]), 2, self._layout[3])

    def _scattered(self, start: int, rank: int, positions, mirrors=None) -> np.ndarray:
        """Zeros of rank ``rank``, the outputs from ``start`` on at the flat ``positions`` of
        :func:`_curvature_source`'s layout, and negated at ``mirrors``."""
        lead = self._outs.shape[1:] if isinstance(self._outs, np.ndarray) else ()
        vals, n = self._outs[start:start + len(positions)], self._layout[0]
        out = np.zeros(lead + (n ** rank,))
        out.T[positions] = vals
        if mirrors is not None:
            out.T[mirrors] = np.multiply(vals, -1.0)
        return out.reshape(lead + (n,) * rank)


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


def _evaluate(spec: MetricSpec, key, point) -> tuple:
    """The outputs of the kernel of ``spec`` for ``key`` (see :func:`_kernel`) and their layout:
    at a point (dim,) a tuple, at a block (N, dim) an (outputs, N) array by ``expr._run``."""
    X = np.asarray(point, dtype=float)
    if X.shape[-1:] != (spec.dim,) or X.ndim > 2:
        raise ValueError(f"expected a point of dimension {spec.dim}, got shape {X.shape}")
    kernel, layout = _kernel(spec, key)
    if X.ndim == 1:
        return _checked(spec, kernel, X.tolist()), layout
    return exprmod._run(lambda columns: _kernel(spec, key, True)[0] if columns else
                        functools.partial(_checked, spec, kernel), X), layout


def _checked(spec: MetricSpec, kernel, coords: list) -> tuple:
    """A float kernel's outputs at a point's floats, or a phase state's, its first ``dim`` the
    point, which must be finite."""
    if not math.isfinite(sum(coords)) and not all(map(math.isfinite, coords[:spec.dim])):
        raise DomainError("point has non-finite coordinates")
    return kernel(coords)


def _metric(spec: MetricSpec, X, order: int = 0, inverse: bool = False) -> list:
    """``[g, dg, d2g][:order + 1]``, and with ``inverse`` then ``g^-1``, at a point (dim,) or at
    each row of a block (N, dim), from the metric's kernel at ``order`` (see :func:`_evaluate`)."""
    outs, gathers = _evaluate(spec, (order, DOMAIN_MARGIN), X)
    rows = np.asarray(outs).T
    return [rows[..., idx] for idx in gathers[:order + 1] + gathers[order + 1:] * inverse]


def metric_components_at(spec: MetricSpec, point, order: int = 0):
    """Metric matrix and, for ``order`` 1 or 2, its coordinate derivatives.

    Returns ``g``; ``(g, dg)`` with ``dg[a,i,j] = d_a g_ij``; or
    ``(g, dg, d2g)`` with ``d2g[a,b,i,j] = d_a d_b g_ij``.  A point that
    :func:`metric_at` rejects raises its error here too.
    """
    out = _metric(spec, point, order)
    return tuple(out) if order else out[0]


def metric_at(spec: MetricSpec, point) -> np.ndarray:
    """Metric matrix at ``point``; symmetric and checked invertible."""
    return _metric(spec, point)[0]


def inverse_metric_at(spec: MetricSpec, point) -> np.ndarray:
    """g^-1 at ``point``: the closed form where the spec has one, else inverted numerically."""
    return _metric(spec, point, inverse=True)[1]


def _last_block(spec: MetricSpec, name: str, at, X: np.ndarray) -> np.ndarray:
    """``at(spec, X)``, kept read-only in ``spec._tables[name]`` for the last block ``X``, keyed
    by its shape and bytes: the checks of several fields at one block of points, and the
    symplectic check after them, compute the Christoffels once, and the H and K monitors of one
    trajectory its g^-1."""
    key = (X.shape, X.tobytes())
    cached = spec._tables.get(name)
    if cached is None or cached[0] != key:
        value = at(spec, X)
        value.flags.writeable = False
        cached = spec._tables[name] = (key, value)
    return cached[1]


@np.errstate(all="ignore")  # the gufunc flags a singular g as invalid
def _invert(g: np.ndarray) -> np.ndarray:
    """``g^-1`` (of each matrix of a stack) if ``max|g| max|g^-1| < 1e13 / n^2``,
    else SingularMetric; as cond_2(g) <= n^2 max|g| max|g^-1|, every g with
    cond_2 >= 1e13 fails, and so does the NaN the bare gufunc gives if singular."""
    ginv = _umath_linalg.inv(g, signature="d->d")
    axes = (-2, -1) if g.ndim > 2 else None  # one matrix reduces faster without axes
    bound = np.maximum.reduce(abs(g), axes) * np.maximum.reduce(abs(ginv), axes)
    ok = bound < SINGULAR_BOUND / g.shape[-1] ** 2
    if ok.all() if axes else ok:  # a numpy scalar's .all() costs more than the reductions
        return ginv
    raise SingularMetric("metric matrix is singular at this point")


def _check_entries(g, ginv, n: int) -> None:
    """The checks on the entries of ``g`` and its closed-form inverse (a non-finite one
    fails), run where a kernel's test of the sums, which implies them, fails."""
    if sum(map(abs, g)) * sum(map(abs, ginv)) < SINGULAR_BOUND / n ** 2:
        return
    if not all(map(math.isfinite, g)):
        raise SingularMetric("metric evaluated to non-finite components")
    if not (all(map(math.isfinite, ginv))
            and max(map(abs, g)) * max(map(abs, ginv)) < SINGULAR_BOUND / n ** 2):
        raise SingularMetric("metric matrix is singular at this point")


def christoffel_at(spec: MetricSpec, point) -> np.ndarray:
    """Christoffel symbols ``Gamma[..., l, m, n] = Gamma^l_{mn}``, by the compiled kernel of
    :func:`_christoffel_source`; a structural zero is +0.0."""
    outs, layout = _evaluate(spec, "christoffel", point)
    return np.asarray(outs).T[..., layout]


def curvature_at(spec: MetricSpec, point) -> CurvatureValue:
    """Riemann, Ricci, and scalar curvature from the metric's 2-jet, by the compiled kernel of
    :func:`_curvature_source`."""
    outs, layout = _evaluate(spec, "curvature", point)
    return CurvatureValue(outs, layout, outs[-2] if isinstance(outs, tuple) else outs[-2].copy())


def _kernel(spec: MetricSpec, key, columns: bool = False) -> tuple:
    """The kernel of ``spec`` for ``key``, compiled on floats or over columns, and the layout of
    its outputs; built once, held in ``_tables[key, columns]``.  ``key`` is ``"christoffel"``
    (:func:`_christoffel_source`), ``"curvature"`` (:func:`_curvature_source`) or a metric jet
    order and guard margin (:func:`_metric_source`)."""
    table = spec._tables.get((key, columns))
    if table is None:
        n = spec.dim
        source = {"christoffel": _christoffel_source, "curvature": _curvature_source}
        lines, outs, layout = (source[key](spec, columns) if key in source
                               else _metric_source(spec, *key, columns))
        namespace = _KERNEL_COLUMNS if columns else dict(
            _KERNEL_GLOBALS, entries=functools.partial(_check_entries, n=n))
        table = spec._tables[key, columns] = (
            exprmod._function(n, lines, outs, columns, namespace, bare=False), layout)
    return table


def _inverse_entries(*g) -> list:
    """The n x n entries of g^-1, row-major, from those of g: SingularMetric where g is
    not finite, or :func:`_invert` rejects it."""
    if not all(map(math.isfinite, g)):
        raise SingularMetric("metric evaluated to non-finite components")
    n = math.isqrt(len(g))
    return _invert(np.array(g).reshape(n, n)).ravel().tolist()


def _inverse_columns(*g) -> list:
    """:func:`_inverse_entries` over columns: the entries' (N,) columns."""
    g = np.stack(np.broadcast_arrays(*g), axis=-1)
    if not np.isfinite(g).all():
        raise SingularMetric("metric evaluated to non-finite components")
    n = math.isqrt(g.shape[-1])
    return list(_invert(g.reshape(-1, n, n)).reshape(-1, n * n).T)


# the float kernels' globals, but for ``entries``
_KERNEL_GLOBALS = {**exprmod._GLOBALS, "SingularMetric": SingularMetric, "isfinite": math.isfinite,
                   "inverse": _inverse_entries}
# a column check that fails runs the block's rows per point, where it raises its own error
_KERNEL_COLUMNS = {**exprmod._COLUMNS, "SingularMetric": SingularMetric,
                   "isfinite": lambda c: np.isfinite(c).all(), "inverse": _inverse_columns,
                   "entries": exprmod._per_point}


def _nonzero(x) -> bool:  # whether an operand is structurally nonzero: a local, or a constant
    return isinstance(x, str) or x != 0.0


def _symmetric(index: tuple) -> tuple:  # the positions of a symmetric grid's entry
    return (index, index[::-1])[:1 + (index[0] != index[1])]


def _metric_roots(spec: MetricSpec) -> tuple:
    """What :func:`_emit_metric` reads: the guards' roots, g's distinct entries, in the upper
    triangle's row order, as (root, the positions it fills) and a closed-form g^-1's upper
    entries (i, j, root), else None."""
    n, slots = spec.dim, {}
    for i, row in enumerate(spec.components):
        for j in itertools.compress(range(i, n), row[i:]):  # the upper triangle's entries
            slots.setdefault(id(row[j]), (row[j].root, []))[1].extend(_symmetric((i, j)))
    return (tuple(e.root for e in spec.guards), tuple((r, tuple(p)) for r, p in slots.values()),
            spec.inverse and tuple((i, j, row[j].root) for i, row in enumerate(spec.inverse)
                                   for j in itertools.compress(range(i, n), row[i:])))


def _emit_metric(em, roots: tuple, order: int, jets: bool = False,
                 margin: float = DOMAIN_MARGIN) -> tuple:
    """Emit into ``em`` the prelude that every kernel of a metric opens with, from its
    :func:`_metric_roots`: each guard in turn, whose failing test or evaluation raises the
    DomainError that names it, the one of :func:`metric_at` where the point is outside the
    chart; g's jet at ``order``; g^-1, with a closed form's 1-jets where ``jets``, and
    ``entries(g, g^-1)``
    where the test of :func:`_check_entries` on their sums fails, else the entries of
    ``inverse(g)``.  Leaves ``em`` at order 1, whose sums skip a zero as a sparse jet does.
    Returns g's distinct entries, and a closed form's (else None), as (the positions each
    fills, its value, gradient and, g's, Hessian), a constant's gradient ``()``; and g^-1 by
    (i, j), every entry of a closed form, the nonzero ones of a numeric g^-1."""
    guards, slots, upper = roots
    n, every = em.n, (lambda t: f"np.all({t})") if em.columns else str

    def constant(fn, *args):  # fn on constants, here; where it raises, a raise of its error
        try:
            return fn(*args)
        except SingularMetric as e:
            em.lines.append(f"    {em.raising(e)}")

    for root in guards:  # a NaN value is outside
        em.outside = f"outside the chart domain: {exprmod.unparse(root)} < {margin:g}"
        v, outside = em.emit(root), f"raise DomainError({em.outside!r})"
        if isinstance(v, str):
            em.lines.append(f"    if not {every(f'{v} >= {margin!r}')}: {outside}")
        elif not v >= margin:  # a constant below the margin: outside everywhere
            em.lines.append(f"    {outside}")
    em.outside = None

    em.order, g, gjets, values = order, {}, [], []
    for root, pos in slots:
        jet = em.emit(root)
        value, grad, hess = jet if isinstance(jet, tuple) else (jet, (), ())
        values.append(value)
        g.update(dict.fromkeys(pos, value))
        gjets.append((pos, value, grad, hess or ()))

    sparse, ginv, ijets = em.sparse, {}, None
    # a sparse kernel omits a division's zero check at order 0; g^-1's values alone keep it
    em.order, em.sparse = int(jets), sparse and jets
    if upper is not None:
        inverse, ijets = [], []
        for i, j, root in upper:
            jet = em.emit(root)
            value, grad = jet[:2] if isinstance(jet, tuple) else (jet, ())
            inverse.append(value)
            ginv.update(dict.fromkeys(pos := _symmetric((i, j)), value))
            ijets.append((pos, value, grad))
        if str in map(type, values + inverse):
            norm = lambda xs: " + ".join(f"abs({em.src(x)})" for x in xs)
            listed = lambda xs: "(" + "".join(f"{em.src(x)}, " for x in xs) + ")"
            bound = f"({norm(values)}) * ({norm(inverse)}) < {SINGULAR_BOUND / n ** 2!r}"
            em.lines.append(f"    if not {every(bound)}: entries({listed(values)}, "
                            f"{listed(inverse)})")
        else:
            constant(_check_entries, values, inverse, n)
    else:
        entries = [g.get((i, j), 0.0) for i in range(n) for j in range(n)]
        if str in map(type, entries):
            names = [f"t{len(em.memo) + k}" for k in range(n * n)]
            em.memo.update((("inverse", t), t) for t in names)
            em.lines.append(f"    {', '.join(names)}, = inverse({', '.join(map(em.src, entries))})")
        else:
            names = constant(_inverse_entries, *entries) or [math.nan] * n * n
        ginv = {(i, j): x for (i, j), x in zip(itertools.product(range(n), repeat=2), names)
                if _nonzero(x)}
    em.order, em.sparse = 1, sparse
    return gjets, ijets, ginv


def _metric_source(spec: MetricSpec, order: int, margin: float, columns: bool = False) -> tuple:
    """Statements over the slots x1..xn, output sources and layout of :func:`_metric`'s kernel at
    jet order ``order``: :func:`_emit_metric`'s prelude with the guards at ``margin``, then the
    entries of g, dg and d2g to ``order`` and of g^-1, by :func:`_outputs`."""
    n, em = spec.dim, exprmod._Emitter(spec.dim, columns)
    gjets, _, ginv = _emit_metric(em, _metric_roots(spec), order, margin=margin)
    g, dg, d2g = {}, {}, {}  # by (i, j), (a, i, j) and (a, b, i, j)
    for pos, value, grad, hess in gjets:
        for i, j in pos:
            g[i, j] = value
            dg.update(((a, i, j), d) for a, d in enumerate(grad))
            d2g.update(((a, b, i, j), h) for a, row in enumerate(hess) for b, h in enumerate(row))
    blocks = [((n,) * 2, g), ((n,) * 3, dg), ((n,) * 4, d2g)][:order + 1] + [((n, n), ginv)]
    return (em.lines, *_outputs(em, blocks))


def _outputs(em, blocks: list) -> tuple:
    """The output sources of the distinct operands of ``blocks``, each (shape, {index:
    operand}), then 0.0; and per block the array of its operands' output indices, -1 (the
    0.0) where it has none."""
    index, gathers = {}, []
    for shape, entries in blocks:
        gathers.append(at := np.full(shape, -1, dtype=np.intp))
        for k, x in entries.items():
            at[k] = index.setdefault(em.src(x), len(index))
    return [*index, "(0.0)"], gathers


def _sub(em, a, b):  # a - b, a zero skipped
    if not _nonzero(b):
        return a
    return em.neg(b) if not _nonzero(a) else em.op("{} - {}", operator.sub, a, b)


def _dot(em, pairs):  # the sum of the products of ``pairs``, in order
    return functools.reduce(em.add, [em.mul(a, b) for a, b in pairs], 0.0)


def _contract(em, left: dict, right: dict, key) -> dict:
    """sum_k left[p..., k] right[k, q...] at ``key(p, q)``, k ascending; a None key is not
    wanted.  Each dict maps an index tuple to its structurally nonzero operand."""
    rows = collections.defaultdict(list)
    for (k, *q), y in right.items():
        rows[k].append((tuple(q), y))
    terms = collections.defaultdict(list)
    for (*p, k), x in sorted(left.items()):
        for q, y in rows[k]:
            if (at := key(tuple(p), q)) is not None:
                terms[at].append((x, y))
    return {at: v for at, t in sorted(terms.items()) if _nonzero(v := _dot(em, t))}


def _bracket(em, jet: dict) -> dict:
    """A_smn = d_m g_sn + d_n g_sm - d_s g_mn, m <= n, of the first derivatives jet[i, b, j]."""
    keys = set()
    for i, b, j in jet:  # d_b g_ij is a term of A_i(bj), A_i(jb) and A_b(ij)
        keys.update(((i, min(b, j), max(b, j)), (b, min(i, j), max(i, j))))
    out = {}
    for s, m, q in sorted(keys):
        d = [jet.get(k, 0.0) for k in ((s, m, q), (s, q, m), (m, s, q))]
        out[s, m, q] = _sub(em, em.add(d[0], d[1]), d[2])
    return {k: v for k, v in out.items() if _nonzero(v)}


def _emit_christoffel(em, gjets: list, ginv: dict) -> tuple:
    """Emit, from :func:`_emit_metric`'s g jets and g^-1, A_smn and Gamma^l_mn = 0.5 g^ls A_smn
    for m <= n; returns dg by (i, a, j) = d_a g_ij, A, Gamma and Gamma at (l, m, n) and
    (l, n, m), each by its index tuple over its structurally nonzero entries."""
    dg = {}
    for pos, _, grad, _ in gjets:
        for i, j in pos:
            dg.update(((i, a, j), d) for a, d in enumerate(grad) if _nonzero(d))
    A = _bracket(em, dg)
    gamma = {k: em.mul(v, 0.5) for k, v in _contract(em, ginv, A, lambda l, mq: l + mq).items()}
    return dg, A, gamma, {(l, *pos): v for (l, *mq), v in gamma.items() for pos in _symmetric(mq)}


def _emit_witness(em, factors, what: str) -> None:
    """The witness test: SingularMetric where the sum of every local factor of a product skipped
    for a zero, the jets' and ``factors``, is not finite; where it is, each is a zero."""
    em.pruned.update(dict.fromkeys(x for x in factors if isinstance(x, str)))
    if witness := " + ".join(x for x in em.pruned if x[0] == "t"):
        message = f"{what} terms are not finite at this point"
        em.lines.append(f"    if not isfinite({witness}): raise SingularMetric({message!r})")


def _christoffel_source(spec: MetricSpec, columns: bool = False) -> tuple:
    """Statements over the slots x1..xn, output sources and layout of :func:`christoffel_at`'s
    kernel, emitted sparse: :func:`_emit_metric`'s guards, g's 1-jet and g^-1, the Gamma^l_mn
    of :func:`_emit_christoffel` and the witness test, whose factors A adds; then Gamma's
    entries by :func:`_outputs`."""
    n, em = spec.dim, exprmod._Emitter(spec.dim, columns, sparse=True)
    _, A, _, full = _emit_christoffel(em, *_emit_metric(em, _metric_roots(spec), 1)[::2])
    _emit_witness(em, A.values(), "Christoffel")
    outs, (layout,) = _outputs(em, [((n,) * 3, full)])
    return em.lines, outs, layout


def _curvature_source(spec: MetricSpec, columns: bool = False) -> tuple:
    """Statements over the slots x1..xn, the output sources and the index tuples of the
    outputs of :func:`curvature_at`'s kernel, emitted sparse.  In turn:

    - :func:`_emit_metric`'s guards, g's 2-jet and g^-1, and :func:`_emit_christoffel`'s
      A_smn = d_m g_sn + d_n g_sm - d_s g_mn and Gamma^l_mn = 0.5 g^ls A_smn, m <= n;
    - from a numeric g^-1 d_a g^-1 = -(g^-1 d_a g) g^-1, and
      d_a Gamma^l_mn = 0.5 (d_a g^ls A_smn + g^ls d_a A_smn), for m <= n;
    - the entries R^r_smn, m < n, of d_m Gamma^r_ns - d_n Gamma^r_ms + Gamma^r_ml Gamma^l_ns
      - Gamma^r_nl Gamma^l_ms;
    - Ricci R_sn = R^r_srn as sums of those entries, and the scalar g^sn R_sn;
    - the witness test: the sum of every local factor of a product skipped for a zero.

    Every sum runs over the structurally nonzero terms alone, so emission costs in proportion
    to the terms; a structural zero is no output.  The outputs are the entries, Ricci's, the
    scalar and 0.0; the layout n, the flat positions of the entries and of their negated
    mirrors R^r_snm, and those of Ricci's entries, which follow them."""
    em = exprmod._Emitter(spec.dim, columns, sparse=True)
    add, mul = em.add, em.mul
    gjets, ijets, ginv = _emit_metric(em, _metric_roots(spec), 2, jets=True)
    dg, A, gamma, full = _emit_christoffel(em, gjets, ginv)
    d2g = {}  # d2g by (a, b, i, j) = d_a d_b g_ij
    for pos, _, _, hess in gjets:
        for i, j in pos:
            d2g.update(((a, b, i, j), h) for a, row in enumerate(hess)
                       for b, h in enumerate(row) if _nonzero(h))
    if ijets is None:  # dginv[a, l, s] = d_a g^ls
        dginv = _contract(em, _contract(em, ginv, dg, lambda l, aj: (aj[0], *l, aj[1])), ginv,
                          lambda alj, s: alj + s)
        dginv = {k: em.neg(v) for k, v in dginv.items()}
    else:
        dginv = {(a, p, q): d for pos, _, grad in ijets for p, q in pos
                 for a, d in enumerate(grad) if _nonzero(d)}

    dA, jets = {}, collections.defaultdict(dict)  # dA[s, a, m, n] = d_a A_smn
    for (a, b, i, j), h in d2g.items():
        jets[a][i, b, j] = h
    for a, jet in sorted(jets.items()):
        dA.update(((s, a, m, q), v) for (s, m, q), v in _bracket(em, jet).items())

    first = _contract(em, dginv, A, lambda al, mq: al + mq)
    second = _contract(em, ginv, dA, lambda l, amq: (amq[0], *l, *amq[1:]))
    dgamma = {k: mul(add(first.get(k, 0.0), second.get(k, 0.0)), 0.5)
              for k in sorted({*first, *second})}

    def dgam(a, l, m, q):
        return dgamma.get((a, l, min(m, q), max(m, q)), 0.0)

    # Gamma^r_ml Gamma^l_ns at (r, s, m, n), m != n
    squares = _contract(em, full, full, lambda rm, ns: (rm[0], ns[1], rm[1], ns[0])
                        if rm[1] != ns[0] else None)
    keys = {(r, s, min(m, q), max(m, q)) for r, s, m, q in squares}
    for a, r, p, q in dgamma:
        keys.update((r, s, min(a, m), max(a, m)) for m, s in _symmetric((p, q)) if a != m)
    riemann = {}
    for r, s, m, q in sorted(keys):
        v = _sub(em, add(_sub(em, dgam(m, r, q, s), dgam(q, r, m, s)),
                         squares.get((r, s, m, q), 0.0)), squares.get((r, s, q, m), 0.0))
        if _nonzero(v):
            riemann[r, s, m, q] = v

    traced = collections.defaultdict(list)  # R^r_srn by (s, n), r ascending: (sign, R)
    for (r, s, m, q), v in riemann.items():
        if m == r:
            traced[s, q].append((1, v))
        if q == r:
            traced[s, m].append((-1, v))
    ricci = {}
    for sq in sorted(traced):
        total = 0.0
        for sign, v in traced[sq]:
            total = add(total, v) if sign > 0 else _sub(em, total, v)
        if _nonzero(total):
            ricci[sq] = total
    scalar = _dot(em, ((h, ricci[sq]) for sq, h in sorted(ginv.items()) if sq in ricci))

    # a product skipped for a zero: a factor of the jets', or of dg^-1, A, dA, Gamma, or a
    # Ricci entry where g^-1 is zero; each is a zero where all these are finite
    _emit_witness(em, [*dginv.values(), *A.values(), *dA.values(), *gamma.values(),
                       *(v for sq, v in ricci.items() if sq not in ginv)], "curvature")
    n, rsmq = spec.dim, np.array(list(riemann), dtype=np.intp).reshape(-1, 4).T
    layout = (n, np.ravel_multi_index(rsmq, (n,) * 4),
              np.ravel_multi_index(rsmq[[0, 1, 3, 2]], (n,) * 4),
              np.ravel_multi_index(np.array(list(ricci), dtype=np.intp).reshape(-1, 2).T, (n, n)))
    return em.lines, [em.src(x) for x in [*riemann.values(), *ricci.values(), scalar, 0.0]], layout


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
            obj = jsonio.load(fh)
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


_NAME_RE = re.compile(r"^([a-z-]+)([0-9]*)$")


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
        if len(significant := digits.lstrip("0")) > 60:  # int() refuses more than 4300 digits
            raise ValueError(f"flat dimension of {len(significant)} digits exceeds the bound "
                             f"{FLAT_MAX_DIM}")
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

    Draws are kept where :func:`metric_at` accepts them with every guard at
    least ``SAMPLE_MARGIN`` = 0.1, by the metric's kernel at that margin.
    Raises :class:`DomainError` when fewer than one draw in a thousand is
    admissible.  Draws come in blocks, and the generator is rewound to
    redraw only the draws used, so the points and the generator's final
    state are those of drawing one point at a time.
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
        kept = _admissible_rows(spec, X, need)
        if len(kept) == need:  # the last block: rewind and redraw the draws used
            k = kept[-1] + 1
            rng.bit_generator.state = state
            rng.random((k, spec.dim))
        out, drawn = np.concatenate([out, X[kept]]), drawn + k
    return out


def _admissible_rows(spec: MetricSpec, X: np.ndarray, need: int) -> list:
    """The indices of the first ``need`` rows of ``X`` that the metric's order-0 kernel with the
    guards at ``SAMPLE_MARGIN`` accepts, row by row: a row that raises is outside."""
    kernel, kept = _kernel(spec, (0, SAMPLE_MARGIN))[0], []
    for i, x in enumerate(X.tolist()):
        try:
            if all(map(math.isfinite, x)):
                kernel(x)
                kept.append(i)
        except (ArithmeticError, ValueError, KyanoError):
            continue
        if len(kept) == need:
            break
    return kept
