"""Antisymmetric tensor fields of arbitrary rank on an n-dimensional chart.

A field stores one component per strictly increasing index tuple; full
arrays are produced by signed scattering over permutations, so antisymmetry
is exact by construction.  Every component is an expression in ``x1 .. xn``
(``n`` the chart dimension, whatever the chart's coordinate labels are),
given as its source or as a finite number, and all of a field's components
run through one fused kernel per jet order.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import expr as exprmod
from .errors import clipped
from .expr import Expression


def _scatter_table(dim: int, rank: int, keys: Sequence[tuple[int, ...]]):
    """``(src, dst, sign)``, one entry per key and permutation of its indices:
    the key's position in ``keys``, the flat index of the permuted tuple in
    a ``dim**rank`` array and the permutation's parity sign, so that
    ``full.flat[dst] = sign * comps[src]`` fills the antisymmetric array."""
    perms = np.array(list(itertools.permutations(range(rank))), dtype=np.intp)
    i, j = np.triu_indices(rank, 1)
    signs = 1.0 - 2.0 * ((perms[:, i] > perms[:, j]).sum(axis=1) % 2)
    idx = np.array(keys, dtype=np.intp).reshape(-1, rank)
    dst = np.ravel_multi_index(tuple(idx[:, perms].reshape(-1, rank).T), (dim,) * rank)
    return np.repeat(np.arange(len(idx)), len(perms)), dst, np.tile(signs, len(idx))


@lru_cache(maxsize=8)
def levi_civita(n: int) -> np.ndarray:
    """Totally antisymmetric symbol as an ``(n,)*n`` array, eps[0,1,..,n-1] = 1."""
    if not 1 <= n <= 7:
        raise ValueError("levi_civita supports dimensions 1 through 7")
    eps = AntisymTensorField(n, n, {tuple(range(n)): 1.0})._scatter(np.ones(1))
    eps.setflags(write=False)
    return eps


def _parse_key(key, dim: int) -> tuple[int, ...]:
    """Index-tuple key: Python tuples are 0-based, strings are 1-based."""
    if isinstance(key, str):
        parts = key.split(",") if "," in key else list(key)
        idx = tuple(int(p) - 1 for p in parts)
    else:
        idx = tuple(int(i) for i in key)
    if any(not 0 <= i < dim for i in idx):
        raise ValueError(f"component key {clipped(key)} has indices outside the chart")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"component key {clipped(key)} must be strictly increasing")
    return idx


def _component(key, value, dim: int) -> Expression:
    """``value``, an expression, its source or a finite number, as an expression; a
    number is a ``Num`` whose unparsed form is ``repr(float(value))``."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, str):
        return exprmod.parse_expression(value, dim)
    if isinstance(value, (int, float)) and not isinstance(value, bool):  # JSON true is no number
        try:
            v = float(value)
        except OverflowError:  # an int too large for a float
            v = math.inf
        if math.isfinite(v):
            return Expression(exprmod.Num(v, 0), dim, dim, ("x",))
    raise ValueError(f"field component {clipped(key)} must be an expression or a finite number,"
                     f" got {clipped(value)}")


def _key_string(idx: tuple[int, ...], dim: int) -> str:
    labels = [str(i + 1) for i in idx]
    return ",".join(labels) if dim > 9 else "".join(labels)


class AntisymTensorField:
    """Rank-r antisymmetric tensor field over an n-dimensional chart."""

    def __init__(self, dim: int, rank: int, components: Mapping[object, object]):
        if not 1 <= rank <= dim:
            raise ValueError("rank must be between 1 and the chart dimension")
        self.dim = int(dim)
        self.rank = int(rank)
        comps: dict[tuple[int, ...], Expression] = {}
        for key, value in components.items():
            idx = _parse_key(key, self.dim)
            if len(idx) != self.rank:
                raise ValueError(f"component key {clipped(key)} does not have rank {rank}")
            comps[idx] = _component(key, value, self.dim)
        self._comps = comps
        self._src, self._dst, self._sign = _scatter_table(self.dim, self.rank, list(comps))

    @classmethod
    def constant(cls, dim: int, rank: int, array: np.ndarray) -> "AntisymTensorField":
        """Constant field from a full antisymmetric array (checked exactly)."""
        arr = np.asarray(array, dtype=float)
        if arr.shape != (dim,) * rank:
            raise ValueError(f"expected shape {(dim,) * rank}, got {arr.shape}")
        comps = {
            idx: float(arr[idx])
            for idx in itertools.combinations(range(dim), rank)
            if arr[idx] != 0.0
        }
        field = cls(dim, rank, comps)
        if not np.array_equal(field._scatter(np.array(list(comps.values()))), arr):
            raise ValueError("array is not antisymmetric")
        return field

    def component_items(self):
        """(sorted 0-based index tuple, component) pairs."""
        return self._comps.items()

    def _scatter(self, vals: np.ndarray) -> np.ndarray:
        """Full antisymmetric arrays from one value per stored component
        along the last axis of ``vals``; leading axes are kept."""
        lead = vals.shape[:-1]
        arr = np.zeros(lead + (self.dim ** self.rank,))
        arr[..., self._dst] = vals.take(self._src, axis=-1) * self._sign
        return arr.reshape(lead + (self.dim,) * self.rank)

    def _rows(self, point) -> tuple[np.ndarray, bool]:
        """``point`` (dim,) or (N, dim) as an (N, dim) array, and whether it was one point."""
        pts = np.asarray(point, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.dim:
            raise ValueError(f"expected a point of dimension {self.dim}")
        return pts.reshape(-1, self.dim), pts.ndim == 1

    @cached_property
    def _fused(self) -> exprmod.Fused:
        """The stored components as one ``expr.Fused``, in their order."""
        return exprmod.Fused(self._comps.values())

    def values_at(self, point: Sequence[float]) -> np.ndarray:
        """Full component array at ``point``, or at each row of an (N, dim)
        array (all components in one call over columns); exactly antisymmetric."""
        X, one = self._rows(point)
        out = self._scatter(exprmod.eval_columns(self._fused, X.T).T)
        return out[0] if one else out

    def jacobian_at(self, point: Sequence[float]) -> np.ndarray:
        """``jac[..., a, i1.. ir] = d_a f_{i1..ir}`` at ``point``, or at each row
        of an (N, dim) array."""
        X, one = self._rows(point)
        out = self._scatter(self._gradients(X))
        return out[0] if one else out

    def _gradients(self, X: np.ndarray) -> np.ndarray:
        """``G[row, a, c] = d_a`` of stored component c at each row of an (N, dim)
        array, from one order-1 kernel."""
        jets = exprmod.eval_columns(self._fused, X.T, 1)
        return jets.reshape(len(self._comps), 1 + self.dim, len(X))[:, 1:].T

    @cached_property
    def _ky_pairs(self):
        """``(i1, s1, i2, s2)``: with G the (N, dim, ncomp) gradients plus a zero
        column, flattened per row, ``G[:, i1]*s1 + G[:, i2]*s2`` is D_l f_{m rest} +
        D_m f_{l rest} for each l <= m and sorted rest, as the scatter table fills D."""
        n, rank, width = self.dim, self.rank, len(self._comps) + 1
        comp, sign = np.full(n ** rank, width - 1), np.ones(n ** rank)  # unfilled: zero column
        comp[self._dst], sign[self._dst] = self._src, self._sign
        rest = np.flatnonzero((np.diff(np.indices((n,) * (rank - 1)), axis=0) > 0).all(axis=0))
        l, m = (np.repeat(k, len(rest)) for k in np.triu_indices(n))
        a, b = (k * n ** (rank - 1) + np.tile(rest, len(l) // len(rest)) for k in (m, l))
        return l * width + comp[a], sign[a], m * width + comp[b], sign[b]

    def to_dict(self) -> dict:
        """JSON-ready form: each component's expression source."""
        comps = {_key_string(idx, self.dim): exprmod.unparse(self._comps[idx])
                 for idx in sorted(self._comps)}
        return {"schema": "kyano/1", "dim": self.dim, "rank": self.rank,
                "components": comps}

    @classmethod
    def from_dict(cls, obj: Mapping) -> "AntisymTensorField":
        """Inverse of :meth:`to_dict`; a malformed object is a ValueError
        naming the bad key."""
        if not isinstance(obj, Mapping):
            raise ValueError("field description must be a JSON object")
        for key in ("dim", "rank"):
            if type(obj.get(key)) is not int:  # JSON true and 3.0 are not integers
                raise ValueError(f"field {key!r} must be an integer, got {clipped(obj.get(key))}")
        comps = obj.get("components")
        if not isinstance(comps, Mapping):
            raise ValueError("field 'components' must map index keys to expression"
                             " strings or numbers")
        return cls(obj["dim"], obj["rank"], dict(comps))

    def __repr__(self) -> str:
        keys = ", ".join(_key_string(i, self.dim) for i in sorted(self._comps))
        return f"AntisymTensorField(dim={self.dim}, rank={self.rank}, components=[{keys}])"
