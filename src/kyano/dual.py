"""The float functions of the expression language, and the jet record.

The functions (:func:`sin`, :func:`sqrt`, ...) take and return floats and
raise :class:`~kyano.errors.SingularEvaluation` at poles, with the message
a compiled kernel repeats; the kernels call them to fold constants, and
:func:`power`, with the location to name, at run time.  A :class:`Jet` is
the value, gradient and, at order 2, Hessian that :func:`kyano.expr.eval1`
and :func:`kyano.expr.eval2` return.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import SingularEvaluation


class Jet:
    """Value, gradient of length ``n`` and, at order 2, the symmetric Hessian;
    a first-order jet has ``hessian = None``."""

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value: float, gradient: np.ndarray, hessian: Optional[np.ndarray] = None):
        self.value = float(value)
        self.gradient = gradient
        self.hessian = hessian

    @property
    def order(self) -> int:
        return 1 if self.hessian is None else 2

    def __repr__(self):
        return f"Jet({self.value!r}, grad={self.gradient!r}, order={self.order})"


def integer_power(base: float, k: int, where: str = "") -> float:
    """``base ** k`` by exponentiation by squaring, so ``base ** 0`` is 1.0
    even at ``base == 0``; a negative ``k`` takes the reciprocal of a nonzero base."""
    if k < 0:
        if base == 0.0:
            raise SingularEvaluation("zero raised to a negative power" + where)
        return integer_power(1.0 / base, -k)
    result, acc = 1.0, base
    while k > 0:
        if k & 1:
            result = result * acc
        k >>= 1
        if k:
            acc = acc * acc
    return result


def power(base: float, k: float, where: str = "") -> float:
    """Integer-valued exponents by :func:`integer_power`, others on a positive base; a
    message ends in ``where``, the location that a compiled kernel gives."""
    if isinstance(k, int) or k.is_integer():
        return integer_power(base, int(k), where)
    if base <= 0.0:
        raise SingularEvaluation("non-integer power of a non-positive base" + where)
    return math.pow(base, k)


# no tan pole check: at 6381956970095103 * 2**797, the double nearest one, |cos| is 4.7e-19
sin, cos, tan, exp = math.sin, math.cos, math.tan, math.exp


def sqrt(x: float) -> float:
    if x <= 0.0:
        raise SingularEvaluation("sqrt of a non-positive argument")
    return math.sqrt(x)


def log(x: float) -> float:
    if x <= 0.0:
        raise SingularEvaluation("ln of a non-positive argument")
    return math.log(x)


def absolute(x: float) -> float:
    if x == 0.0:
        raise SingularEvaluation("abs at zero has no derivative")
    return abs(x)
