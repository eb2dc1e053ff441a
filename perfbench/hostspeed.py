"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same kyano task can take 1.6 times as long for
minutes at a time while other tenants load the core, so wall times of
one commit spread wider between runs than the changes a benchmark has to
see.  The runner times this kernel next to every task and set-up probe
and rescales each wall time to a host on which the kernel takes
REFERENCE_S:

    normalized seconds = wall seconds * REFERENCE_S / kernel seconds

The kernel is the benchmark's own code and calls no kyano, so a change to
kyano moves the normalized times and a change in host speed does not.
It mixes the two kinds of work kyano does: a recursive walk of a small
expression tree in pure Python, like ``expr``'s evaluators, and a loop
of small numpy products, einsums and SVDs, like the 4x4 metric
algebra of ``geometry`` and ``kysym``.
"""

from __future__ import annotations

import time

import numpy as np

# Normalized times are seconds on a host that runs the kernel in this
# long; the kernel takes 8-10 ms on a 2-vCPU Xeon KVM guest (2.1 GHz,
# Python 3.11.7, numpy 2.4.6) at its usual load.
REFERENCE_S = 0.010

_TREE = ("+", ("*", "x", ("+", "x", 1.5)), ("*", ("+", "x", 2.0), ("*", "x", "x")))
_A = np.linspace(0.1, 1.0, 16).reshape(4, 4)
_T = np.linspace(-1.0, 1.0, 64).reshape(4, 4, 4)
_EYE = np.eye(4)


def _walk(node, x):
    if isinstance(node, tuple):
        op, left, right = node
        a = _walk(left, x)
        b = _walk(right, x)
        return a + b if op == "+" else a * b
    return x if node == "x" else node


def _kernel() -> float:
    total = 0.0
    for i in range(3000):
        total += _walk(_TREE, i * 1e-3)
    m = _A.copy()
    for _ in range(260):
        m = m @ _A / 3.0
        u = np.einsum("ijk,jk->i", _T, m)
        s = np.linalg.svd(m + _EYE, compute_uv=False)
        m = m + 1e-3 * u[:, None] - 1e-3 * s[None, :]
    return total + float(m.sum())


def kernel_seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
