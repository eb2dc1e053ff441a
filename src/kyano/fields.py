"""Antisymmetric tensor fields of arbitrary rank on an n-dimensional chart.

A field stores one component function per strictly increasing index tuple;
full arrays are produced by signed scattering over permutations, so
antisymmetry is exact by construction.  Component functions are expressions
in ``x1 .. xn`` (``n`` the chart dimension, whatever the chart's coordinate
labels are), plain numbers, or callables that accept a list of scalars
(floats or jets) and return one scalar.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import expr as exprmod
from .dual import Jet, Scalar, value_of
from .expr import Expression

Component = Union[Expression, float, Callable[[Sequence[Scalar]], Scalar]]


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
        raise ValueError(f"component key {key!r} has indices outside the chart")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"component key {key!r} must be strictly increasing")
    return idx


def _key_string(idx: tuple[int, ...], dim: int) -> str:
    labels = [str(i + 1) for i in idx]
    return ",".join(labels) if dim > 9 else "".join(labels)


class AntisymTensorField:
    """Rank-r antisymmetric tensor field over an n-dimensional chart."""

    def __init__(self, dim: int, rank: int, components: Mapping[object, Component]):
        if not 1 <= rank <= dim:
            raise ValueError("rank must be between 1 and the chart dimension")
        self.dim = int(dim)
        self.rank = int(rank)
        comps: dict[tuple[int, ...], Component] = {}
        for key, value in components.items():
            idx = _parse_key(key, self.dim)
            if len(idx) != self.rank:
                raise ValueError(f"component key {key!r} does not have rank {rank}")
            if isinstance(value, str):
                value = exprmod.parse_expression(value, self.dim)
            comps[idx] = value
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
        arr[..., self._dst] = vals[..., self._src] * self._sign
        return arr.reshape(lead + (self.dim,) * self.rank)

    def _rows(self, point) -> tuple[np.ndarray, bool]:
        """``point`` (dim,) or (N, dim) as an (N, dim) array, and whether it was one point."""
        pts = np.asarray(point, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.dim:
            raise ValueError(f"expected a point of dimension {self.dim}")
        return pts.reshape(-1, self.dim), pts.ndim == 1

    def values_at(self, point: Sequence[float]) -> np.ndarray:
        """Full component array at ``point``, or at each row of an (N, dim)
        array (expressions over columns); exactly antisymmetric."""
        X, one = self._rows(point)
        vals = [exprmod.eval_columns(c, X.T) if isinstance(c, Expression) else
                [value_of(c(row)) if callable(c) else float(c) for row in X.tolist()]
                for c in self._comps.values()]
        out = self._scatter(np.array(vals, dtype=float).reshape(-1, len(X)).T)
        return out[0] if one else out

    def jacobian_at(self, point: Sequence[float]) -> np.ndarray:
        """``jac[..., a, i1.. ir] = d_a f_{i1..ir}`` at ``point``, or at each row
        of an (N, dim) array."""
        X, one = self._rows(point)
        out = self._scatter(self._gradients(X))
        return out[0] if one else out

    def _gradients(self, X: np.ndarray) -> np.ndarray:
        """``G[row, a, c] = d_a`` of stored component c at each row of an (N, dim)
        array: expression components from their order-1 column kernels, the
        others from one jet evaluation per row."""
        n = self.dim
        grads = [exprmod.eval_columns(c, X.T, 1)[1:] if isinstance(c, Expression) else
                 np.array([Jet.lift(c(Jet.seeds(x, 1)) if callable(c) else float(c), n, 1)
                           .gradient for x in X]).T
                 for c in self._comps.values()]
        return np.array(grads, dtype=float).reshape(-1, n, len(X)).T

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

    @property
    def is_serializable(self) -> bool:
        return all(
            isinstance(c, (Expression, int, float)) for c in self._comps.values()
        )

    def to_dict(self) -> dict:
        """JSON-ready form; only expression or numeric components qualify."""
        comps = {}
        for idx in sorted(self._comps):
            c = self._comps[idx]
            if isinstance(c, Expression):
                comps[_key_string(idx, self.dim)] = exprmod.unparse(c)
            elif isinstance(c, (int, float)):
                comps[_key_string(idx, self.dim)] = repr(float(c))
            else:
                raise ValueError("field has callable components; not serializable")
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
                raise ValueError(f"field {key!r} must be an integer, got {obj.get(key)!r}")
        comps = obj.get("components")
        if not (isinstance(comps, Mapping)
                and all(isinstance(c, (str, int, float)) for c in comps.values())):
            raise ValueError("field 'components' must map index keys to expression"
                             " strings or numbers")
        return cls(obj["dim"], obj["rank"], dict(comps))

    def __repr__(self) -> str:
        keys = ", ".join(_key_string(i, self.dim) for i in sorted(self._comps))
        return f"AntisymTensorField(dim={self.dim}, rank={self.rank}, components=[{keys}])"
