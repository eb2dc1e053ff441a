"""Reference jet arithmetic: the oracle the compiled kernels are checked against.

``Jet`` here is ``kyano.dual.Jet`` with operators: forward-mode value,
gradient and, at order 2, Hessian, each rule the exact chain rule over numpy
arrays.  The functions take floats or jets; on a jet they apply the chain
rule around ``kyano.dual``'s float function, so a pole raises the message a
kernel raises.  :func:`walk` evaluates an expression's AST node by node
over floats or jets, and :func:`value` and :func:`jet` are the per-point
results that ``expr.eval_value``, ``eval1`` and ``eval2`` must equal
bytewise.  :func:`field_arrays` scatters a field's reference components
and their gradients one index permutation at a time.  :func:`killing_jet` is
the Killing tensor's coordinate chain, the reference for K's residual and
gradient, which the library takes from D f.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from kyano import dual, geometry
from kyano.errors import SingularEvaluation
from kyano.expr import Call, Neg, Num, Var, _literal_int


class Jet(dual.Jet):
    __slots__ = ()

    @classmethod
    def seeds(cls, point, order: int) -> list["Jet"]:
        """One independent variable per coordinate of ``point``."""
        if order not in (1, 2):
            raise ValueError("jet order must be 1 or 2")
        n = len(point)
        eye = np.eye(n)
        return [cls(point[i], eye[i], np.zeros((n, n)) if order == 2 else None) for i in range(n)]

    @classmethod
    def lift(cls, x, n: int, order: int) -> "Jet":
        """``x`` itself if it is a jet, else a jet with zero derivatives."""
        if isinstance(x, dual.Jet):
            return x
        return cls(x, np.zeros(n), np.zeros((n, n)) if order == 2 else None)

    def _chain(self, f: float, df: float, d2f: float) -> "Jet":
        g = self.gradient
        if self.hessian is None:
            return Jet(f, df * g)
        return Jet(f, df * g, df * self.hessian + d2f * np.outer(g, g))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value, self.gradient + other.gradient,
                       None if self.hessian is None else self.hessian + other.hessian)
        if isinstance(other, (int, float)):
            return Jet(self.value + other, self.gradient, self.hessian)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.gradient, None if self.hessian is None else -self.hessian)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            value = self.value * other.value
            gradient = self.value * other.gradient + other.value * self.gradient
            if self.hessian is None:
                return Jet(value, gradient)
            cross = np.outer(self.gradient, other.gradient)
            return Jet(value, gradient,
                       self.value * other.hessian + other.value * self.hessian + cross + cross.T)
        if isinstance(other, (int, float)):
            return Jet(self.value * other, self.gradient * other,
                       None if self.hessian is None else self.hessian * other)
        return NotImplemented

    __rmul__ = __mul__

    def _reciprocal(self) -> "Jet":
        if self.value == 0.0:
            raise SingularEvaluation("division by zero")
        inv = 1.0 / self.value
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, (int, float)):
            if other == 0:
                raise SingularEvaluation("division by zero")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return other * self._reciprocal()
        return NotImplemented


def value_of(x) -> float:
    return x.value if isinstance(x, dual.Jet) else float(x)


def integer_power(base, k: int):
    """``dual.integer_power`` on a float; on a jet the same products, from a lifted 1."""
    if not isinstance(base, Jet):
        return dual.integer_power(base, k)
    if k < 0:
        if base.value == 0.0:
            raise SingularEvaluation("zero raised to a negative power")
        return integer_power(1.0 / base, -k)
    result, acc = Jet.lift(1.0, base.gradient.shape[0], base.order), base
    while k > 0:
        if k & 1:
            result = result * acc
        k >>= 1
        if k:
            acc = acc * acc
    return result


def power(base, k):
    if isinstance(k, int) or (isinstance(k, float) and k.is_integer()):
        return integer_power(base, int(k))
    if not isinstance(k, Jet) and not isinstance(base, Jet):
        return dual.power(base, k)
    if value_of(base) <= 0.0:
        raise SingularEvaluation("non-integer power of a non-positive base")
    return exp(log(base) * k)


def sin(x):
    if not isinstance(x, Jet):
        return dual.sin(x)
    s = dual.sin(x.value)
    return x._chain(s, math.cos(x.value), -s)


def cos(x):
    if not isinstance(x, Jet):
        return dual.cos(x)
    c = dual.cos(x.value)
    return x._chain(c, -math.sin(x.value), -c)


def tan(x):
    if not isinstance(x, Jet):
        return dual.tan(x)
    t = dual.tan(x.value)
    sec2 = 1.0 + t * t
    return x._chain(t, sec2, 2.0 * t * sec2)


def sqrt(x):
    if not isinstance(x, Jet):
        return dual.sqrt(x)
    v = x.value
    r = dual.sqrt(v)
    if x.hessian is None:
        return x._chain(r, 0.5 / r, 0.0)
    if r * v == 0.0:
        raise SingularEvaluation("sqrt argument too small for a second derivative")
    return x._chain(r, 0.5 / r, -0.25 / (r * v))


def exp(x):
    if not isinstance(x, Jet):
        return dual.exp(x)
    e = dual.exp(x.value)
    return x._chain(e, e, e)


def log(x):
    if not isinstance(x, Jet):
        return dual.log(x)
    ln = dual.log(x.value)
    inv = 1.0 / x.value
    return x._chain(ln, inv, -inv * inv)


def absolute(x):
    if not isinstance(x, Jet):
        return dual.absolute(x)
    v = x.value
    return x._chain(dual.absolute(v), 1.0 if v > 0 else -1.0, 0.0)


FUNCTIONS = {"sin": sin, "cos": cos, "tan": tan, "sqrt": sqrt, "exp": exp, "ln": log,
             "abs": absolute}


def walk(node, scalars):
    """The per-node AST walk over floats or jets, one per slot, with the kernels'
    messages: a singular operation names itself and its offset."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return scalars[node.slot]
    if isinstance(node, Neg):
        return -walk(node.arg, scalars)
    if isinstance(node, Call):
        arg = walk(node.arg, scalars)
        try:
            return FUNCTIONS[node.func](arg)
        except SingularEvaluation as e:
            raise SingularEvaluation(f"{e} in {node.func}(...) at offset {node.offset}") from None
    left = walk(node.left, scalars)
    if node.op == "^":
        k = _literal_int(node.right)
        try:
            if k is not None:
                return integer_power(left, k)
            return power(left, walk(node.right, scalars))
        except SingularEvaluation as e:
            raise SingularEvaluation(f"{e} in '^' at offset {node.offset}") from None
    right = walk(node.right, scalars)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    try:
        return left / right
    except ZeroDivisionError:
        raise SingularEvaluation(f"division by zero in '/' at offset {node.offset}") from None
    except SingularEvaluation as e:
        raise SingularEvaluation(f"{e} in '/' at offset {node.offset}") from None


def value(e, point) -> float:
    """The walk's float value of the expression ``e`` at ``point``."""
    return value_of(walk(e.root, [float(v) for v in point]))


def jet(e, point, order: int) -> Jet:
    """The walk's jet of ``e`` at ``point``, seeded in every slot."""
    if len(point) != e.nvars:
        raise ValueError(f"expected {e.nvars} values, got {len(point)}")
    return Jet.lift(walk(e.root, Jet.seeds(point, order)), e.nvars, order)


def field_arrays(dim: int, rank: int, components, point):
    """(values, jacobian) at ``point`` of the antisymmetric field whose stored components
    ``components(coords)`` returns, as {sorted index tuple: scalar}, over float coordinates
    and over order-1 seeds: one signed assignment per index permutation, as a plain loop."""
    point = np.asarray(point, dtype=float)
    values, jets = components([float(v) for v in point]), components(Jet.seeds(point, 1))
    arr, jac = np.zeros((dim,) * rank), np.zeros((dim,) + (dim,) * rank)
    for idx, v in values.items():
        grad = Jet.lift(jets[idx], dim, 1).gradient
        for perm in itertools.permutations(range(rank)):
            sign, at = permutation_sign(perm), tuple(idx[k] for k in perm)
            arr[at], jac[(slice(None),) + at] = sign * value_of(v), sign * grad
    return arr, jac


def permutation_sign(perm) -> int:
    """The parity of ``perm`` by counting inversions."""
    return -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1


def expression_field_arrays(field, point):
    """:func:`field_arrays` of a field's expression components, each by :func:`walk`."""
    return field_arrays(field.dim, field.rank, lambda coords: {
        idx: walk(c.root, coords) for idx, c in field.component_items()}, point)


def killing_jet(spec, field, point):
    """K = f g^-1 f, dK[a] = d_a K from d_a g^-1 = -g^-1 (d_a g) g^-1, g^-1 and dg, by the
    coordinate chain, and the einsum terms that dK sums, for a term scale."""
    f, df = field.values_at(point), field.jacobian_at(point)
    _, dg, ginv = geometry._metric(spec, point, 1, inverse=True)
    dginv = -np.einsum("li,aij,js->als", ginv, dg, ginv)
    K = f @ ginv @ f
    terms = (np.einsum("aml,ls,sn->amn", df, ginv, f), np.einsum("ml,als,sn->amn", f, dginv, f),
             np.einsum("ml,ls,asn->amn", f, ginv, df))
    dK = sum(terms)
    return 0.5 * (K + K.T), 0.5 * (dK + dK.swapaxes(1, 2)), ginv, dg, terms


def killing_residual(spec, field, point):
    """The Killing-equation residual by the coordinate chain, and the largest magnitude
    of the terms it sums."""
    K, dK, _, _, terms = killing_jet(spec, field, point)
    gamma = geometry.christoffel_at(spec, point)
    terms += (np.einsum("sam,sn->amn", gamma, K), np.einsum("san,ms->amn", gamma, K))
    DK = dK - terms[3] - terms[4]
    res = (DK + DK.transpose(1, 2, 0) + DK.transpose(2, 0, 1)) / 3.0
    return res, max(float(np.abs(t).max()) for t in terms)


def killing_gradient(spec, field, x, p):
    """(dQ/dx, dQ/dp) of Q = u K u, u = g^-1 p, by the coordinate chain, and the largest
    magnitude of the terms it sums."""
    K, dK, ginv, dg, _ = killing_jet(spec, field, x)
    u = ginv @ p
    w = ginv @ (K @ u)
    terms = (np.einsum("m,amn,n->a", u, dK, u), 2.0 * np.einsum("m,amn,n->a", u, dg, w), 2.0 * w)
    return (np.concatenate([terms[0] - terms[1], terms[2]]),
            max(float(np.abs(t).max()) for t in terms))
