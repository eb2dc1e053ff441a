"""Phase-space functions, brackets, and fixed-step geodesic integration.

The Hamiltonian of free geodesic motion is H = (1/2) g^{mn}(x) p_m p_n.
Integration is classic fourth-order Runge-Kutta with a fixed step; all
right-hand sides come from forward-mode jets of the metric, never from
finite differences.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import expr as exprmod
from . import geometry
from .dual import Jet, value_of
from .errors import DomainError, SingularEvaluation, SingularMetric
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


class PhaseFunction:
    """Differentiable scalar on phase space.

    ``value`` returns a float; ``gradient`` returns the length-2n array
    (dF/dx1..dF/dxn, dF/dp1..dF/dpn), computed with first-order jets.
    """

    def __init__(self, n: int, fn: Callable, label: str = ""):
        self.n = int(n)
        self._fn = fn
        self.label = label

    @classmethod
    def from_expression(cls, source: str, n: int) -> "PhaseFunction":
        e = exprmod.parse_expression(source, n, prefixes=("x", "p"))

        def fn(xs, ps):
            return exprmod.evaluate(e, list(xs) + list(ps))

        return cls(n, fn, label=source)

    def value(self, z: PhasePoint) -> float:
        return value_of(self._fn(list(z.x), list(z.p)))

    def gradient(self, z: PhasePoint) -> np.ndarray:
        n = self.n
        seeds = Jet.seeds(z.as_vector(), 1)
        return Jet.lift(self._fn(seeds[:n], seeds[n:]), 2 * n, 1).gradient


class GeodesicHamiltonian(PhaseFunction):
    """H = (1/2) g^{mn}(x) p_m p_n with jet-based exact gradients."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        super().__init__(spec.dim, None, label="geodesic-hamiltonian")

    def value(self, z: PhasePoint) -> float:
        ginv = geometry._invert(geometry.metric_components_at(self.spec, z.x, order=0))
        return 0.5 * float(z.p @ ginv @ z.p)

    def gradient(self, z: PhasePoint) -> np.ndarray:
        # Hamilton's equations read backwards: dH/dx = -dp/dt, dH/dp = dx/dt
        zdot = self.rhs(z.as_vector())
        return np.concatenate([-zdot[self.n:], zdot[:self.n]])

    def rhs(self, zvec: np.ndarray) -> np.ndarray:
        """(dx/dt, dp/dt) = (g^{-1} p, -(1/2) d_x g^{mn} p_m p_n) at ``zvec``."""
        n = self.n
        x, p = zvec[:n], zvec[n:]
        if self.spec.components is None:
            return np.concatenate([p, np.zeros(n)])
        g, dg = geometry.metric_components_at(self.spec, x, order=1)
        ginv = geometry._invert(g)
        gip = ginv @ p
        # d_a g^{mn} = -(ginv dg_a ginv)^{mn}
        pdot = 0.5 * np.einsum("m,amn,n->a", gip, dg, gip)
        return np.concatenate([gip, pdot])


def free_hamiltonian(spec: MetricSpec) -> GeodesicHamiltonian:
    return GeodesicHamiltonian(spec)


class KillingQuadratic(PhaseFunction):
    """Q = K^{ij}(x) p_i p_j with K_ij = (f g^{-1} f)_ij from a rank-2 KY field.

    The indices of K are raised with g^{-1}, so Q = u.K.u with u = g^{-1} p;
    this contraction is the one conserved along geodesics.
    """

    def __init__(self, spec: MetricSpec, ky_field: AntisymTensorField):
        self.spec = spec
        self.ky_field = ky_field
        super().__init__(spec.dim, None, label="killing-quadratic")

    def value(self, z: PhasePoint) -> float:
        f = self.ky_field.values_at(z.x)
        ginv = geometry.inverse_metric_at(self.spec, z.x)
        u = ginv @ z.p
        return float(u @ f @ ginv @ f @ u)

    def gradient(self, z: PhasePoint) -> np.ndarray:
        K, dK = killing_tensor_jet(self.spec, self.ky_field, z.x)
        g, dg = geometry.metric_components_at(self.spec, z.x, order=1)
        ginv = geometry._invert(g)
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
    n = len(point)
    if isinstance(f, str):
        f = exprmod.parse_expression(f, n)
    if isinstance(f, Expression):
        return exprmod.eval1(f, point).gradient
    if callable(f):
        return Jet.lift(f(Jet.seeds(point, 1)), n, 1).gradient
    raise TypeError("expected an expression or a callable configuration scalar")


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


def _rk4(rhs: Callable, start: PhasePoint, dt: float, steps: int) -> Trajectory:
    """Fixed-step classic RK4 from ``start``, truncated with a ``reason``
    in ``meta`` when ``rhs`` leaves the domain or the state stops being
    finite."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    z = start.as_vector()
    states = np.empty((steps + 1, z.shape[0]))
    states[0] = z
    done = 0
    reason = None
    for k in range(steps):
        try:
            k1 = rhs(z)
        except (DomainError, SingularEvaluation) as e:
            # the retained state itself is inadmissible: drop it so every
            # state of a truncated trajectory stays evaluable
            reason = str(e)
            done = max(done - 1, 0)
            break
        try:
            k2 = rhs(z + (0.5 * dt) * k1)
            k3 = rhs(z + (0.5 * dt) * k2)
            k4 = rhs(z + dt * k3)
        except (DomainError, SingularEvaluation) as e:
            reason = str(e)
            break
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(z).all():
            reason = "state left the finite range"
            break
        states[k + 1] = z
        done = k + 1
    meta = {
        "method": "rk4",
        "dt": float(dt),
        "steps_requested": int(steps),
        "steps_completed": done,
        "completed": reason is None,
    }
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
    point must be admissible.  Every retained state is evaluable, so
    conserved quantities can be monitored on truncated trajectories.
    """
    if start.n != spec.dim:
        raise ValueError("phase point dimension does not match the metric")
    geometry.metric_at(spec, start.x)
    return _rk4(GeodesicHamiltonian(spec).rhs, start, dt, steps)


def unified_hamilton_flow(
    H: PhaseFunction, start: PhasePoint, dt: float, steps: int
) -> Trajectory:
    """Hamiltonian flow of z = (a, b) with a-components conjugate to
    b-components: da/dt = dH/db, db/dt = -dH/da.

    With z = (f-vector, twin-vector) of the flat rank-(n-1) pair this is
    the geodesic flow seen through the pair's vector identification.
    """
    n = H.n

    def rhs(zvec: np.ndarray) -> np.ndarray:
        grad = H.gradient(PhasePoint.from_vector(zvec))
        return np.concatenate([grad[n:], -grad[:n]])

    return _rk4(rhs, start, dt, steps)


def conservation_monitor(traj: Trajectory, quantity: PhaseFunction):
    """Largest absolute and relative drift of ``quantity`` along ``traj``.

    Relative drift is measured against the initial value; it is reported
    as ``inf`` when the initial value is zero but the drift is not.
    """
    q0 = quantity.value(traj.point(0))
    max_abs = 0.0
    for k in range(1, len(traj)):
        max_abs = max(max_abs, abs(quantity.value(traj.point(k)) - q0))
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
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, state in zip(traj.times, traj.states):
            writer.writerow([format(v, ".17g") for v in (t, *state)])
