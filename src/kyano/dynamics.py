"""Phase-space functions, brackets, and fixed-step geodesic integration.

The Hamiltonian of free geodesic motion is H = (1/2) g^{mn}(x) p_m p_n.
Integration is classic fourth-order Runge-Kutta with a fixed step on a list of
Python floats, each stage in numpy's operation order.  The right-hand side is
Hamilton's equations, dx/dt = g^-1 p and dp/dt = -(1/2) p (d g^-1) p, from one float
kernel per metric that checks the guards and g and evaluates g^-1 as the curvature
kernel does: from a closed form's x-jets (every catalog metric, flat space included),
else numerically inside the kernel, with dp/dt = (1/2) u (d g) u, u = g^-1 p; never
finite differences.  A generated run loops over the steps, each stage the kernel's
sparse twin inlined, its checks declining the step, under accept tests that imply the
exact results; a step it declines is replayed per stage.  A trajectory's CSV holds each
value as ``'%.17g'`` writes it, its digits computed for 1024 rows at once with numpy.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from . import expr as exprmod
from . import geometry
from .errors import DomainError, KyanoError, SingularEvaluation
from .expr import Expression
from .fields import AntisymTensorField
from .geometry import MetricSpec
from .jsonio import atomic_open
from .kysym import _derivatives


@dataclass
class PhasePoint:
    """A point (x, p) of phase space over an n-dimensional chart."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.x.shape != self.p.shape or self.x.ndim != 1:
            raise ValueError("x and p must be 1-d arrays of equal length")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.p])

    @classmethod
    def from_vector(cls, z: np.ndarray) -> "PhasePoint":
        z = np.asarray(z, dtype=float)
        n = z.shape[0] // 2
        return cls(z[:n], z[n:])


class PhaseFunction(Protocol):
    """Differentiable scalar on phase space over an ``n``-dimensional chart.

    ``value`` returns a float; ``gradient`` returns the length-2n array
    (dF/dx1..dF/dxn, dF/dp1..dF/dpn).  An implementation may also have
    ``values(X, P)``, the values at N states given as (N, n) arrays, which
    :func:`conservation_monitor` then calls once per trajectory.
    """

    n: int

    def value(self, z: PhasePoint) -> float: ...

    def gradient(self, z: PhasePoint) -> np.ndarray: ...

    @staticmethod
    def from_expression(source: str, n: int) -> "PhaseExpression":
        return PhaseExpression(exprmod.parse_expression(source, n, prefixes=("x", "p")))


class _RowValues:
    """``value(z)`` as the one-row case of ``values(X, P)``; where the rows at
    once raise, each row runs in turn, so the first failing row raises."""

    def value(self, z: PhasePoint) -> float:
        return float(self.values(z.x[None], z.p[None])[0])

    def values(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        X, P = np.asarray(X, dtype=float), np.asarray(P, dtype=float)
        try:
            return self._values(X, P)
        except KyanoError:
            for i in range(len(X)):
                self._values(X[i:i + 1], P[i:i + 1])
            raise


@dataclass(frozen=True)
class PhaseExpression(_RowValues):
    """A phase function given by an expression in ``x1..xn, p1..pn``."""

    expr: Expression

    @property
    def n(self) -> int:
        return self.expr.dim

    def _values(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        return exprmod.eval_columns(self.expr, np.concatenate([X, P], axis=1).T)

    def gradient(self, z: PhasePoint) -> np.ndarray:
        return exprmod.eval1(self.expr, z.as_vector()).gradient


class GeodesicHamiltonian(_RowValues):
    """H = (1/2) g^{mn}(x) p_m p_n, whose flow ``rhs`` is Hamilton's equations; ``values``
    inverts g numerically (:func:`_numeric_inverse`), so an H monitor checks a closed-form
    ``rhs``."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.n = spec.dim

    def _values(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        ginv = geometry._last_block(self.spec, "inverse", _numeric_inverse, X)
        return 0.5 * (P[:, None, :] @ ginv @ P[:, :, None])[:, 0, 0]

    def gradient(self, z: PhasePoint) -> np.ndarray:
        # Hamilton's equations read backwards: dH/dx = -dp/dt, dH/dp = dx/dt
        zdot = np.asarray(self.rhs(z.as_vector().tolist()))
        return np.concatenate([-zdot[self.n:], zdot[:self.n]])

    @property
    def _fused(self):
        """:func:`_compiled`'s kernel and run, built once per spec and held in its ``_tables``."""
        fused = self.spec._tables.get("geodesic")
        if fused is None:
            fused = self.spec._tables["geodesic"] = _compiled(
                self.n, geometry._metric_roots(self.spec))
        return fused

    def rhs(self, z: list) -> list:
        """(dx/dt, dp/dt) = (g^-1 p, -(1/2) p (d g^-1) p) as a list at the list ``z`` of finite
        floats, by :func:`_compiled`'s kernel; a state outside a guard raises the DomainError
        that names it, before any other error."""
        return list(geometry._checked(self.spec, self._fused[0], z))


def _numeric_inverse(spec: MetricSpec, X: np.ndarray) -> np.ndarray:
    """The monitors' g^-1 at the rows of ``X``: numeric, from :func:`geometry.metric_at`."""
    return geometry._invert(geometry.metric_at(spec, X))


def _hamilton_source(n: int, roots: tuple, sparse: bool = False) -> tuple:
    """Statements over the slots x1..xn, p1..pn and output sources: :func:`geometry._emit_metric`'s
    guards, g and g^-1 for the metric's ``roots``, then dx/dt_k = u_k = sum_j g^{kj} p_j and, over
    the non-constant upper entries, dp/dt_a = -(0.5 * sum_{i<=j} (p_i p_j) (c d_a g^{ij})) from
    a closed-form g^-1's x-jets, else dp/dt_a = 0.5 * sum_{i<=j} (u_i u_j) (c d_a g_ij), as
    p (d_a g^-1) p = -u (d_a g) u; c = 2 off the diagonal, each sum in order.  ``sparse`` as
    emitted, with the witness last, the sum of the skipped factors; a slot is checked finite."""
    em, p = exprmod._Emitter(n, sparse=sparse), [f"s{n + k}" for k in range(n)]
    gjets, ijets, ginv = geometry._emit_metric(em, roots, int(roots[2] is None), jets=True)

    def total(terms):  # left to right, 0.0 where there is none
        return functools.reduce(em.add, terms or [0.0])

    u = [total([em.mul(ginv[k, j], p[j]) for j in range(n) if (k, j) in ginv]) for k in range(n)]
    v, jets = (u, gjets) if ijets is None else (p, ijets)
    terms = [(em.mul(v[i], v[j]), grad, 1.0 + (i < j))
             for pos, _, grad, *_ in jets if grad for i, j in pos if i <= j]
    half = [em.mul(total([em.mul(vv, em.mul(d[a], c)) for vv, d, c in terms]), 0.5)
            for a in range(n)]
    outs = u + (half if ijets is None else [em.neg(x) for x in half])
    if sparse:
        outs.append(" + ".join(x for x in em.pruned if x[0] == "t") or 0.0)
    return em.lines, [em.src(x) for x in outs]


def free_hamiltonian(spec: MetricSpec) -> GeodesicHamiltonian:
    return GeodesicHamiltonian(spec)


class KillingQuadratic(_RowValues):
    """Q = K^{ij}(x) p_i p_j with K_ij = (f g^{-1} f)_ij from a rank-2 KY field.

    The indices of K are raised with g^{-1}, so Q = u.K.u with u = g^{-1} p;
    this contraction is the one conserved along geodesics.
    """

    def __init__(self, spec: MetricSpec, ky_field: AntisymTensorField):
        self.spec = spec
        self.ky_field = ky_field
        self.n = spec.dim

    def _values(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        f = self.ky_field.values_at(X)
        ginv = geometry._last_block(self.spec, "inverse", _numeric_inverse, X)
        u = ginv @ P[:, :, None]
        return (u.transpose(0, 2, 1) @ f @ ginv @ f @ u)[:, 0, 0]

    def gradient(self, z: PhasePoint) -> np.ndarray:
        # with u = g^-1 p and w = g^-1 K u: D_a K = (D_a f) g^-1 f + f g^-1 (D_a f) as
        # D g^-1 = 0, so d_a Q = 2 u (D_a f) g^-1 f u - 2 p_m Gamma^m_as w^s, and dQ/dp = 2 w
        X = z.x[None]
        f, _, D = next(_derivatives(self.spec, self.ky_field, X))
        ginv = geometry.inverse_metric_at(self.spec, z.x)
        u = ginv @ z.p
        fu = ginv @ (f[0] @ u)
        w = ginv @ (f[0] @ fu)
        gx = 2.0 * (D[0] @ fu) @ u
        if not geometry._is_identity(self.spec):  # the Christoffels _derivatives kept
            gamma = geometry._last_block(self.spec, "christoffel", geometry.christoffel_at, X)
            gx -= 2.0 * np.einsum("m,mas,s->a", z.p, gamma[0], w)
        return np.concatenate([gx, 2.0 * w])


def killing_quadratic(spec: MetricSpec, ky_field: AntisymTensorField) -> PhaseFunction:
    return KillingQuadratic(spec, ky_field)


def angular_momentum(i: int, n: int = 3) -> PhaseFunction:
    """L_i = eps_ijk x_j p_k on flat R^3."""
    if n != 3 or i not in (1, 2, 3):
        raise ValueError("angular momentum components are defined for i in 1..3 on R^3")
    j, k = [(2, 3), (3, 1), (1, 2)][i - 1]
    return PhaseFunction.from_expression(f"x{j}*p{k} - x{k}*p{j}", 3)


def poisson_bracket(F: PhaseFunction, G: PhaseFunction, z: PhasePoint) -> float:
    """{F, G} = sum_i dF/dx_i dG/dp_i - dF/dp_i dG/dx_i."""
    if F.n != G.n or F.n != z.n:
        raise ValueError("dimension mismatch between functions and point")
    n = z.n
    gF = F.gradient(z)
    gG = G.gradient(z)
    return float(gF[:n] @ gG[n:] - gF[n:] @ gG[:n])


def _config_gradient(f, point: np.ndarray) -> np.ndarray:
    if isinstance(f, str):
        f = exprmod.parse_expression(f, len(point))
    if isinstance(f, Expression):
        return exprmod.eval1(f, point).gradient
    raise TypeError("expected an expression or its source as a configuration scalar")


def nambu_bracket(F1, F2, F3, point: Sequence[float]) -> float:
    """Ternary bracket eps_ijk d_iF1 d_jF2 d_kF3 = det of the three gradients."""
    pt = np.asarray(point, dtype=float)
    if pt.shape != (3,):
        raise ValueError("the ternary bracket lives on a 3-dimensional space")
    rows = [_config_gradient(f, pt) for f in (F1, F2, F3)]
    return float(np.linalg.det(np.stack(rows)))


# ---------------------------------------------------------------------------
# integration


@dataclass
class Trajectory:
    """Fixed-step integration record: state k is at time times[k]."""

    times: np.ndarray
    states: np.ndarray
    n: int
    meta: dict = field(default_factory=dict)

    @property
    def x(self) -> np.ndarray:
        return self.states[:, : self.n]

    @property
    def p(self) -> np.ndarray:
        return self.states[:, self.n:]

    def point(self, k: int) -> PhasePoint:
        return PhasePoint(self.x[k].copy(), self.p[k].copy())

    def __len__(self) -> int:
        return self.states.shape[0]


@functools.lru_cache(maxsize=256)
def _compiled(n: int, roots: tuple) -> tuple:
    """``kernel(z)`` of :func:`_hamilton_source`'s outputs, and ``run(out, k, stop, z..., k1...,
    half, dt, sixth)``: :func:`_rk4`'s steps k .. stop - 1 up to one not accepted, the sparse
    kernel inlined in each stage, states' bytes into ``out``; (k, z, k1) there."""
    # A stage is accepted where its state is finite, its checks pass and its witness, the sum
    # of the factors the sparse kernel skips in x * 0.0 and x + 0.0 for a local x, is finite.
    # The checks of guards, entries and inverse raise here, so a failing one declines the step
    # and _rk4's replay raises its exact error.  Where the witness is finite each skipped product
    # is a zero, so the exact kernel returns the same outputs but for the sign of a zero: no kept
    # operation turns that sign into a nonzero difference (a division by +-0 raises, as do the
    # checks on sqrt, ln and abs, and inverse rejects a matrix whose inverse is not finite).  A
    # zero's sign moves z + c*k only where z is -0.0, so such starts run per stage; where dz/dt
    # is the constant -0.0 and k1 a zero, z + c*k stays z.
    def row(fmt: str, sep: str = ", ", comps=range(2 * n)) -> str:
        return sep.join(fmt.format(i=i) for i in comps)
    lines, o = _hamilton_source(n, roots, sparse=True)
    fixed = [i for i in range(2 * n) if o[i] == "(-0.0)"]
    live = [i for i in range(2 * n) if o[i] != "(-0.0)"]
    dzdt = ", ".join(o[i] for i in live)
    code = [f"def run(out, k, stop, {row('z{i}')}, {row('k1_{i}')}, half, dt, sixth):", "    try:",
            "        " + row("s{i} = z{i}", "; ", fixed),
            f"        while k < stop{row(' and k1_{i} == 0.0', '', fixed)}:"]
    for j, update in zip("2341", ["half * k1_{i}", "half * k2_{i}", "dt * k3_{i}",
                                  "sixth * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})"]):
        code += [f"            {row('s{i}', ', ', live)}, = {row('z{i} + ' + update, ', ', live)}",
                f"            if not isfinite({row('s{i}', ' + ', live)}): break",
                *("        " + line for line in lines),
                *[f"            if not isfinite({o[-1]}): break"] * (o[-1] != "(0.0)"),
                f"            {row(f'k{j}_{{i}}', ', ', live)}, = {dzdt}"]
    code += [f"            {row('z{i}', ', ', live)}, k = {row('s{i}', ', ', live)}, k + 1",
            f"            out[{16 * n} * k:{16 * n} * k + {16 * n}] = pack({row('z{i}')})",
            "    except Exception:",
            "        pass  # the replay raises it, or the error it becomes, exactly",
            f"    return k, [{row('z{i}')}], [{row('k1_{i}')}]"]
    exact, outs = _hamilton_source(n, roots)
    # in the run a failing ``entries(...)`` check raises at once
    run = exprmod._exec(code, {**geometry._KERNEL_GLOBALS, "entries": exprmod._per_point,
                               "pack": struct.Struct(f"{2 * n}d").pack})
    return exprmod._function(2 * n, exact, outs, namespace=dict(
        geometry._KERNEL_GLOBALS, entries=functools.partial(geometry._check_entries, n=n))), run


def _rk4(rhs: Callable, start: PhasePoint, dt: float, steps: int, run=None) -> Trajectory:
    """Fixed-step classic RK4 from ``start``, truncated with a ``reason`` in ``meta`` where a
    state stops being finite or ``rhs`` raises at a stage; a state is retained only once ``rhs``
    has run there.  A step that ``run`` (from :func:`_compiled`) declines runs per stage."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    z = start.as_vector().tolist()
    try:
        states = np.empty((steps + 1, len(z)))
    except MemoryError:
        raise ValueError(f"steps={steps} is too large: the trajectory of "
                         f"{steps + 1} states does not fit in memory") from None
    if not (dt > 0 and math.isfinite(dt * steps)):
        raise ValueError("dt must be positive and dt * steps finite")

    half, sixth, out = 0.5 * dt, dt / 6.0, memoryview(states).cast("B")

    def stage(state: list) -> list:
        if not all(map(math.isfinite, state)):
            raise DomainError("state left the finite range")
        return rhs(state)

    states[0], done, reason = z, 0, None
    # the state is a list of floats, each update numpy's z + c * k in its
    # operation order; an overflow is a truncation: stage() rejects its result
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            k1 = stage(z)
            while done < steps:
                if run:  # up to a step that it declines
                    done, z, k1 = run(out, done, steps, *z, *k1, half, dt, sixth)
                if done < steps:  # per stage
                    k2 = stage([a + half * b for a, b in zip(z, k1)])
                    k3 = stage([a + half * b for a, b in zip(z, k2)])
                    k4 = stage([a + dt * b for a, b in zip(z, k3)])
                    z = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                         for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]
                    k1, states[done := done + 1] = stage(z), z
        except (DomainError, SingularEvaluation) as e:
            reason = str(e)
    meta = {"method": "rk4", "dt": float(dt), "steps_requested": int(steps),
            "steps_completed": done, "completed": reason is None}
    if reason:
        meta["reason"] = reason
    return Trajectory(times=dt * np.arange(done + 1), states=states[: done + 1],
                      n=start.n, meta=meta)


def geodesic_integrate(
    spec: MetricSpec, start: PhasePoint, dt: float, steps: int
) -> Trajectory:
    """Integrate the geodesic flow of H = (1/2) g^{mn} p_m p_n.

    The trajectory is truncated (``meta["completed"] = False``) if a step
    leaves the chart domain or the state stops being finite; the initial
    point must be admissible, its momentum finite.  Every retained state passes ``metric_at``,
    so conserved quantities can be monitored on truncated trajectories.
    """
    if start.n != spec.dim:
        raise ValueError("phase point dimension does not match the metric")
    geometry.metric_at(spec, start.x)
    if not np.isfinite(start.p).all():
        raise ValueError("start momentum has non-finite components")
    H, z = GeodesicHamiltonian(spec), start.as_vector()
    # a -0.0 start component can take the other zero sign through the sparse kernel
    compiled = not np.signbit(z[z == 0.0]).any()
    return _rk4(H.rhs, start, dt, steps, compiled and H._fused[1])


def unified_hamilton_flow(
    H: PhaseFunction, start: PhasePoint, dt: float, steps: int
) -> Trajectory:
    """Hamiltonian flow of z = (a, b) with a-components conjugate to
    b-components: da/dt = dH/db, db/dt = -dH/da.

    With z = (f-vector, twin-vector) of the flat rank-(n-1) pair this is
    the geodesic flow seen through the pair's vector identification.
    """
    n = H.n

    def rhs(z: list) -> list:
        grad = H.gradient(PhasePoint.from_vector(z))
        return np.concatenate([grad[n:], -grad[:n]]).tolist()

    return _rk4(rhs, start, dt, steps)


def conservation_monitor(traj: Trajectory, quantity: PhaseFunction):
    """Largest absolute and relative drift of ``quantity`` along ``traj``.

    Relative drift is measured against the initial value; it is reported
    as ``inf`` when the initial value is zero but the drift is not.  A
    value that is NaN makes both drifts NaN; one that overflows is inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.asarray(quantity.values(traj.x, traj.p) if hasattr(quantity, "values") else
                       [quantity.value(traj.point(k)) for k in range(len(traj))], dtype=float)
        q0 = float(q[0])
        max_abs = float(np.max(np.abs(q[1:] - q0), initial=0.0))
    if q0 != 0.0:
        max_rel = max_abs / abs(q0)
    else:
        max_rel = 0.0 if max_abs == 0.0 else math.inf
    return max_abs, max_rel


# ---------------------------------------------------------------------------
# export


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write the header ``t,x1..xn,p1..pn`` and one row per retained state, each value as
    ``'%.17g' % v``, every line ending in ``\\r\\n``, atomically; the rows are formatted in
    blocks of 1024 by :func:`_g17_rows`."""
    n = traj.n
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]
    rows = np.column_stack([traj.times, traj.states])
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for block in np.split(rows, range(1024, len(rows), 1024)):
            fh.write(_g17_rows(block).decode("ascii"))


# A value's record is _WIDTH bytes, NUL where nothing is printed.  Its digit source holds
# Z_k, k = 0..20, at byte k + 3: '0000' and the 17 significant digits, Z_k standing for
# 10^(E + 4 - k).  Output character j is at byte j + 3: Z_j for the integer part (the units
# digit Z_(E+4) and, if E >= 0, the digits before it), '.' at j = E + 5 where a fraction
# follows, then Z_(j-1), from the source shifted one byte, up to the last nonzero digit.
# Byte 0 is the sign, bytes 26-27 the separator; a value that '%' writes fills bytes 0-23.
_WIDTH = 28
_POW10 = np.array([float(10 ** k) for k in range(22)])  # each one exact
_GROUPS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(
    np.uint8).view(np.uint32).ravel()  # b"%04d" % i as a word
_GROUP_TRAILING_ZEROS = (np.arange(10000)[:, None] % [10, 100, 1000, 10000] == 0).sum(
    axis=1, dtype=np.uint8)


def _record_layouts() -> tuple:
    """For each key (E + 4) * 17 + z, z the trailing zeros of the 17 digits: the 0/1 weights
    of the digit source (the integer part) and of the shifted source (the fraction), and
    the '.' byte; the last key, a value that '%' writes, has none."""
    integer, fraction, point = (np.zeros((20 * 17 + 1, _WIDTH), np.uint8) for _ in range(3))
    for ei in range(20):
        for z in range(17):
            key, last = ei * 17 + z, 20 - z
            integer[key, 3 + min(ei, 4):4 + ei] = 1
            if last > ei:
                point[key, 4 + ei] = ord(".")
                fraction[key, 5 + ei:5 + last] = 1
    return integer, fraction, point


_INTEGER, _FRACTION, _POINT = _record_layouts()


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple:
    """(p, e) with p = fl(a * b) and a * b = p + e exactly (Dekker), barring overflow."""
    def split(x):
        s = 134217729.0 * x  # 2^27 + 1
        hi = s - (s - x)
        return hi, x - hi
    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _g17_rows(block: np.ndarray) -> bytes:
    """The ASCII of ``block``'s rows, each value ``'%.17g' % v``, ',' between values and
    ``\\r\\n`` after each row.

    Where 1e-4 <= |v| < 1e16, '%.17g' writes v in fixed notation from its 17 significant
    digits, correctly rounded, half to even.  With E = floor(log10 |v|), |v| 10^(16 - E) is
    p + e exactly, 10^(16 - E) being a double; D = p + floor(e), rounded up where the
    fraction f of e is above 1/2, is those digits where 10^16 <= D before rounding, D < 10^17
    after it and f is not within 1e-9 of a tie (a log10 one off puts D outside; no double in
    the range rounds up to 10^17).  Every other value, and zeros, '%' writes in its own
    record."""
    rows, cols = block.shape
    v = np.ascontiguousarray(block).ravel()
    a = np.abs(v)
    ok = (a >= 1e-4) & (a < 1e16)
    a[~ok] = 1.0
    E = np.floor(np.log10(a)).astype(np.intp)
    p, e = _two_product(a, _POW10[16 - E])
    floor_e = np.floor(e)
    f = e - floor_e
    D = p.astype(np.int64) + floor_e.astype(np.int64)
    up = f > 0.5
    ok &= (D >= 10 ** 16) & (D + up < 10 ** 17) & (abs(f - 0.5) > 1e-9)
    D += up
    # 4-digit groups: 0000, 000d (the leading digit), four more, and a spare 0000
    hi = (D // 10 ** 8).astype(np.int32)
    lo = (D - hi * np.int64(10 ** 8)).astype(np.int32)
    lead, mid = hi // 10 ** 8, hi // 10 ** 4
    groups = [mid - lead * 10 ** 4, hi - mid * 10 ** 4, lo // 10 ** 4, lo % 10 ** 4]
    zeros = functools.reduce(lambda before, last: last + (last == 4) * before,
                             [_GROUP_TRAILING_ZEROS.take(g) for g in groups])
    key = (E + 4) * 17 + zeros
    key[~ok] = len(_INTEGER) - 1
    words = np.empty((len(v), 7), np.uint32)
    words[:, 0] = words[:, 6] = _GROUPS[0]
    for i, g in enumerate([lead] + groups):
        words[:, i + 1] = _GROUPS.take(g)
    source = words.view(np.uint8).ravel()
    out = _INTEGER.take(key, axis=0).ravel()
    out *= source
    shifted = _FRACTION.take(key, axis=0).ravel()
    shifted[1:] *= source[:-1]  # byte 0 has weight 0
    out += shifted
    out += _POINT.take(key, axis=0, out=shifted.reshape(-1, _WIDTH)).ravel()
    out = out.reshape(rows, cols, _WIDTH)
    out[..., 0] |= np.uint8(ord("-")) * (block < 0)
    out[:, :-1, 26] = ord(",")
    out[:, -1, 26:] = (13, 10)  # \r\n
    written = np.flatnonzero(~ok)
    if len(written):
        out.reshape(-1, _WIDTH)[written, :24] = np.array(
            [b"%.17g" % x for x in v[written].tolist()], "S24").view(np.uint8).reshape(-1, 24)
    return out.tobytes().translate(None, b"\0")
