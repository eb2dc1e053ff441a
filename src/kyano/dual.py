"""Forward-mode jets carrying exact first and, optionally, second derivatives.

A :class:`Jet` propagates a value, a gradient and, for second-order jets,
a full Hessian; a first-order jet has ``hessian = None``.  Jets are plain
value types over numpy arrays; all rules are the exact chain rule, so
results are bit-reproducible and carry no truncation error.  The
module-level math functions (:func:`sin`, :func:`sqrt`, ...) accept jets
or ordinary numbers and enforce the same domain restrictions for both,
raising :class:`~kyano.errors.SingularEvaluation` at poles.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from .errors import SingularEvaluation

Scalar = Union[float, "Jet"]


class Jet:
    """Value, gradient of length ``n`` and, at order 2, the symmetric Hessian.

    The float arrays are stored as given; :meth:`seeds` and :meth:`lift`
    build jets from plain numbers.
    """

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value: float, gradient: np.ndarray, hessian: Optional[np.ndarray] = None):
        self.value = float(value)
        self.gradient = gradient
        self.hessian = hessian

    @property
    def order(self) -> int:
        return 1 if self.hessian is None else 2

    @classmethod
    def seeds(cls, point: Sequence[float], order: int) -> list["Jet"]:
        """One independent variable per coordinate of ``point``."""
        if order not in (1, 2):
            raise ValueError("jet order must be 1 or 2")
        n = len(point)
        eye = np.eye(n)
        return [
            cls(point[i], eye[i], np.zeros((n, n)) if order == 2 else None)
            for i in range(n)
        ]

    @classmethod
    def lift(cls, x: Scalar, n: int, order: int) -> "Jet":
        """``x`` itself if it is a jet, else a jet with zero derivatives.

        Evaluating a component that does not depend on the seeds returns
        a plain number; this turns it into a jet of the requested order.
        """
        if isinstance(x, Jet):
            return x
        return cls(x, np.zeros(n), np.zeros((n, n)) if order == 2 else None)

    def _chain(self, f: float, df: float, d2f: float) -> "Jet":
        g = self.gradient
        if self.hessian is None:
            return Jet(f, df * g)
        return Jet(f, df * g, df * self.hessian + d2f * np.outer(g, g))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.value + other.value,
                self.gradient + other.gradient,
                None if self.hessian is None else self.hessian + other.hessian,
            )
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
            return Jet(
                value,
                gradient,
                self.value * other.hessian + other.value * self.hessian + cross + cross.T,
            )
        if isinstance(other, (int, float)):
            return Jet(
                self.value * other,
                self.gradient * other,
                None if self.hessian is None else self.hessian * other,
            )
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

    def __pow__(self, k):
        return power(self, k)

    def __repr__(self):
        return f"Jet({self.value!r}, grad={self.gradient!r}, order={self.order})"


def value_of(x: Scalar) -> float:
    """Plain float value of a jet or ordinary number."""
    return x.value if isinstance(x, Jet) else float(x)


def _as_int_exponent(k) -> "int | None":
    if isinstance(k, int):
        return k
    if isinstance(k, float) and k.is_integer():
        return int(k)
    return None


def integer_power(base: Scalar, k: int) -> Scalar:
    """``base ** k`` by repeated multiplication.

    Stays differentiable for non-positive bases; ``base ** 0`` is the
    constant 1 even at ``base == 0``.  Negative exponents take the
    reciprocal and therefore require a nonzero base.
    """
    if k < 0:
        if value_of(base) == 0.0:
            raise SingularEvaluation("zero raised to a negative power")
        return integer_power(1.0 / base, -k)
    result: Scalar = 1.0
    if isinstance(base, Jet):
        result = Jet.lift(1.0, base.gradient.shape[0], base.order)
    # exponentiation by squaring keeps the multiplication count logarithmic
    acc = base
    e = k
    while e > 0:
        if e & 1:
            result = result * acc
        e >>= 1
        if e:
            acc = acc * acc
    return result


def power(base: Scalar, k) -> Scalar:
    """General power: integer exponents by repeated multiplication,
    everything else via ``exp(k*ln(base))`` on a positive base."""
    ki = _as_int_exponent(k)
    if ki is not None:
        return integer_power(base, ki)
    if isinstance(k, Jet) or isinstance(base, Jet):
        if value_of(base) <= 0.0:
            raise SingularEvaluation("non-integer power of a non-positive base")
        return exp(log(base) * k)
    if base <= 0.0:
        raise SingularEvaluation("non-integer power of a non-positive base")
    return math.pow(base, k)


def sin(x: Scalar) -> Scalar:
    v = value_of(x)
    s = math.sin(v)
    return x._chain(s, math.cos(v), -s) if isinstance(x, Jet) else s


def cos(x: Scalar) -> Scalar:
    v = value_of(x)
    c = math.cos(v)
    return x._chain(c, -math.sin(v), -c) if isinstance(x, Jet) else c


def tan(x: Scalar) -> Scalar:
    v = value_of(x)
    if abs(math.cos(v)) < 1e-300:
        raise SingularEvaluation("tan at a pole")
    t = math.tan(v)
    if not isinstance(x, Jet):
        return t
    sec2 = 1.0 + t * t
    return x._chain(t, sec2, 2.0 * t * sec2)


def sqrt(x: Scalar) -> Scalar:
    v = value_of(x)
    if v <= 0.0:
        raise SingularEvaluation("sqrt of a non-positive argument")
    r = math.sqrt(v)
    if not isinstance(x, Jet):
        return r
    if x.hessian is None:
        return x._chain(r, 0.5 / r, 0.0)
    if r * v == 0.0:
        raise SingularEvaluation("sqrt argument too small for a second derivative")
    return x._chain(r, 0.5 / r, -0.25 / (r * v))


def exp(x: Scalar) -> Scalar:
    e = math.exp(value_of(x))
    return x._chain(e, e, e) if isinstance(x, Jet) else e


def log(x: Scalar) -> Scalar:
    v = value_of(x)
    if v <= 0.0:
        raise SingularEvaluation("ln of a non-positive argument")
    if not isinstance(x, Jet):
        return math.log(v)
    inv = 1.0 / v
    return x._chain(math.log(v), inv, -inv * inv)


def absolute(x: Scalar) -> Scalar:
    v = value_of(x)
    if v == 0.0:
        raise SingularEvaluation("abs at zero has no derivative")
    if not isinstance(x, Jet):
        return abs(v)
    return x._chain(abs(v), 1.0 if v > 0 else -1.0, 0.0)
