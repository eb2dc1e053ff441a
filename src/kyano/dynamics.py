"""Phase-space functions, brackets, and fixed-step geodesic integration.

The Hamiltonian of free geodesic motion is H = (1/2) g^{mn}(x) p_m p_n.
Integration is classic fourth-order Runge-Kutta with a fixed step on a list of
Python floats, each stage in numpy's operation order.  The right-hand side is
Hamilton's equations, dx/dt = g^-1 p and dp/dt = -(1/2) p (d g^-1) p: where g^-1
has a closed form (every catalog metric, flat space included) from one float kernel
of its entries' x-jets that also gives the guard values; on a custom metric from
g's 1-jet with g^-1 numeric; never finite differences.  With the kernel a generated
run loops over the steps, each stage the kernel's sparse twin inlined under accept
tests that imply the exact results; a step it declines is replayed per stage.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
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
from .kysym import killing_tensor_jet


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
    inverts g numerically, so an H monitor checks a closed-form ``rhs``."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.n = spec.dim

    def _values(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        ginv = geometry.inverse_metric_at(self.spec, X)
        return 0.5 * (P[:, None, :] @ ginv @ P[:, :, None])[:, 0, 0]

    def gradient(self, z: PhasePoint) -> np.ndarray:
        # Hamilton's equations read backwards: dH/dx = -dp/dt, dH/dp = dx/dt
        geometry._metric(self.spec, z.x)  # rhs() takes a finite state inside the chart
        zdot = np.asarray(self.rhs(z.as_vector().tolist()))
        return np.concatenate([-zdot[self.n:], zdot[:self.n]])

    @property
    def _fused(self):
        """:func:`_compiled`'s kernel and run, the ends (a, b, c) of the guard, g and g^-1 blocks in
        the kernel's outputs, and the blocks; built once per spec and held in its ``_tables``."""
        fused = self.spec._tables.get("geodesic")
        if fused is None:
            blocks = (tuple(e.root for e in self.spec.guards),
                      tuple(e.root for e in geometry._component_table(self.spec, 0)[0]),
                      tuple((i, j, row[j].root) for i, row in enumerate(self.spec.inverse)
                            for j in itertools.compress(range(i, self.n), row[i:])))
            fused = self.spec._tables["geodesic"] = (
                *_compiled(self.n, blocks), tuple(itertools.accumulate(map(len, blocks))), blocks)
        return fused

    def rhs(self, z: list) -> list:
        """(dx/dt, dp/dt) = (g^-1 p, -(1/2) p (d g^-1) p) as a list at the list ``z`` of finite
        floats, by the kernel of a closed-form g^-1, else from g's 1-jet with g^-1 numeric; a state
        outside a guard raises as :func:`geometry._check_guards` does, before any other error."""
        n, spec = self.n, self.spec
        if spec.inverse is None:
            _, dg, ginv = geometry._metric(spec, z[:n], 1, inverse=True)
            gip = ginv @ np.array(z[n:])
            # d_a g^{mn} = -(ginv dg_a ginv)^{mn}
            pdot = 0.5 * np.einsum("m,amn,n->a", gip, dg, gip)
            return np.concatenate([gip, pdot]).tolist()
        kernel, _, (a, b, c), _ = self._fused
        try:
            out = kernel(z)
        except Exception:
            geometry._check_guards(spec, z[:n])
            raise
        if not all(map(geometry.DOMAIN_MARGIN.__le__, out[:a])):  # NaN is outside
            geometry._check_guards(spec, z[:n])
        geometry._check_entries(out[a:b], out[b:c], n)
        return list(out[c:])


def _hamilton_source(n: int, blocks: tuple, sparse: bool = False) -> tuple:
    """Statements over the slots x1..xn, p1..pn and output sources: the values of ``blocks``
    (guards, g's entries, the upper entries (i, j, root) of a closed-form g^-1), then from those
    g^-1 entries' x-jets dx/dt_k = sum_j g^{kj} p_j and dp/dt_a = -(0.5 * sum_{i<=j} (p_i p_j)
    (c d_a g^{ij})), c = 2 off the diagonal, no term of a constant entry; ``sparse`` as emitted."""
    guards, g, upper = blocks
    em, p = exprmod._Emitter(n, sparse=sparse), [f"s{n + k}" for k in range(n)]
    outs = [em.emit(e) for e in guards + g + tuple(e for *_, e in upper)]
    em.order, rows, terms = 1, [[] for _ in p], []
    for i, j, e in upper:  # each row's terms in j order
        jet = em.emit(e)
        value = jet[0] if isinstance(jet, tuple) else jet
        rows[i].append(em.mul(value, p[j]))
        if i < j:
            rows[j].append(em.mul(value, p[i]))
        if isinstance(jet, tuple):
            terms.append((em.mul(p[i], p[j]), jet[1], 1.0 + (i < j)))
    outs += [functools.reduce(em.add, row or [0.0]) for row in rows]
    outs += [em.neg(em.mul(functools.reduce(em.add, [
        em.mul(pp, em.mul(d[a], c)) for pp, d, c in terms] or [0.0]), 0.5)) for a in range(n)]
    if sparse:  # and last the witness, the sum of the skipped factors; a slot is checked finite
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
        ginv = geometry.inverse_metric_at(self.spec, X)
        u = ginv @ P[:, :, None]
        return (u.transpose(0, 2, 1) @ f @ ginv @ f @ u)[:, 0, 0]

    def gradient(self, z: PhasePoint) -> np.ndarray:
        K, dK, ginv, dg = killing_tensor_jet(self.spec, self.ky_field, z.x)
        u = ginv @ z.p
        w = ginv @ (K @ u)
        # d_a g^{mn} = -(ginv dg_a ginv)^{mn}
        gx = np.einsum("m,amn,n->a", u, dK, u) - 2.0 * np.einsum("m,amn,n->a", u, dg, w)
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
def _compiled(n: int, blocks: tuple) -> tuple:
    """``kernel(z)`` of :func:`_hamilton_source`'s outputs, and ``run(out, k, stop, z..., k1...,
    half, dt, sixth)``: :func:`_rk4`'s steps k .. stop - 1 up to one not accepted, the sparse
    kernel inlined in each stage, states' bytes into ``out``; (k, z, k1) there."""
    # Passing the accept tests passes stage()'s and rhs()'s exact checks: a finite sum of the
    # state has finite terms; max <= sum over non-negative terms, so sum|g| sum|g^-1| < bound
    # passes max|g| max|g^-1| < bound; and a NaN or inf in either sum fails the <.  A stage that
    # raises is not accepted either; _rk4 replays the step.  The sparse kernel skips x * 0.0 and
    # x + 0.0 for a local x.  Where it returns a finite witness, the sum of those x, each skipped
    # product is a zero, so the exact kernel returns the same outputs but for the sign of a zero:
    # no kept operation turns that sign into a nonzero difference (a division by +-0 raises, as do
    # the checks on sqrt, ln and abs).  A zero's sign moves z + c*k only where z is -0.0, so such
    # starts run per stage; where dz/dt is the constant -0.0 and k1 a zero, z + c*k stays z.
    def row(fmt: str, sep: str = ", ", comps=range(2 * n)) -> str:
        return sep.join(fmt.format(i=i) for i in comps)
    lines, o = _hamilton_source(n, blocks, sparse=True)
    a, b, c = itertools.accumulate(map(len, blocks))
    accept = [f"{u} >= {geometry.DOMAIN_MARGIN!r}" for u in o[:a]] + [" * ".join(
        "(" + " + ".join(f"abs({e})" for e in es) + ")" for es in (o[a:b], o[b:c]))
        + f" < {geometry.SINGULAR_BOUND / n ** 2!r}", f"isfinite({o[-1]})"]
    # a test of constants alone, as flat space's, holds at every state or else at none
    accept = " and ".join(t for t in accept if re.search(r"\b[st]\d+\b", t) or not eval(
        t, {"abs": abs, "isfinite": math.isfinite, "float": float}))
    fixed = [i for i in range(2 * n) if o[c + i] == "(-0.0)"]
    live = [i for i in range(2 * n) if o[c + i] != "(-0.0)"]
    dzdt = ", ".join(o[c + i] for i in live)
    code = [f"def run(out, k, stop, {row('z{i}')}, {row('k1_{i}')}, half, dt, sixth):", "    try:",
            "        " + row("s{i} = z{i}", "; ", fixed),
            f"        while k < stop{row(' and k1_{i} == 0.0', '', fixed)}:"]
    for j, update in zip("2341", ["half * k1_{i}", "half * k2_{i}", "dt * k3_{i}",
                                  "sixth * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})"]):
        code += [f"            {row('s{i}', ', ', live)}, = {row('z{i} + ' + update, ', ', live)}",
                f"            if not isfinite({row('s{i}', ' + ', live)}): break",
                *("        " + line for line in lines),
                *[f"            if not ({accept}): break"] * bool(accept),
                f"            {row(f'k{j}_{{i}}', ', ', live)}, = {dzdt}"]
    code += [f"            {row('z{i}', ', ', live)}, k = {row('s{i}', ', ', live)}, k + 1",
            f"            out[{16 * n} * k:{16 * n} * k + {16 * n}] = pack({row('z{i}')})",
            "    except Exception:",
            "        pass  # the replay raises it, or the error it becomes, exactly",
            f"    return k, [{row('z{i}')}], [{row('k1_{i}')}]"]
    exact, outs = _hamilton_source(n, blocks)
    return exprmod._exec(["def kernel(s):", f"    {row('s{i}')}, = s", *exact, "    return "
                          + ", ".join(outs)], exprmod._GLOBALS), exprmod._exec(code, {
        **exprmod._GLOBALS, "isfinite": math.isfinite, "pack": struct.Struct(f"{2 * n}d").pack})


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
    compiled = spec.inverse and not np.signbit(z[z == 0.0]).any()
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
    """Write ``t,x1..xn,p1..pn`` rows with 17 significant digits, atomically."""
    n = traj.n
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]
    row = ",".join(["%.17g"] * (2 * n + 1)) + "\r\n"
    rows = np.column_stack([traj.times, traj.states])
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for block in np.split(rows, range(1024, len(rows), 1024)):  # one % per 1024 rows
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
