"""Spans around kyano's public functions, aggregated into per-layer self time.

``Tracer.install()`` wraps every public function of the layer modules and
the few methods listed in METHODS.  Each wrapper is bound wherever the
original is reachable by name: its module attribute, every by-name import
in another kyano module (``cli`` imports ``geodesic_integrate``,
``multipole`` imports ``flat_ky_pair``, ...) and module-level dicts such as
``report._SECTIONS``.  A span's self time is its duration minus the time
its child spans cover.  Spans are aggregated as they close, per span kind,
so memory stays flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

LAYER_MODULES = ("expr", "fields", "geometry", "kysym", "dynamics",
                 "multipole", "report", "cli", "jsonio")

# Methods wrapped on their class, as (module, class, method).
METHODS = (
    ("fields", "AntisymTensorField", "values_at"),
    ("fields", "AntisymTensorField", "jacobian_at"),
    ("dynamics", "GeodesicHamiltonian", "rhs"),
)

# Span kind of each wrapped function.  Other public functions of a module
# are grouped as "<module>.other" ("cli" for the command-line layer).
KINDS = {
    "expr.evaluate": "expr.eval",
    "expr.eval_value": "expr.eval",
    "expr.eval1": "expr.eval",
    "expr.eval2": "expr.eval",
    "fields.AntisymTensorField.values_at": "fields.values",
    "fields.AntisymTensorField.jacobian_at": "fields.jacobian",
    "geometry.metric_components_at": "geometry.metric_jet",
    "geometry.metric_at": "geometry.metric_check",
    "geometry.inverse_metric_at": "geometry.metric_check",
    "geometry.christoffel_at": "geometry.christoffel",
    "geometry.christoffel_and_partial": "geometry.christoffel",
    "geometry.curvature_at": "geometry.curvature",
    "geometry.covariant_derivative_2form": "geometry.covariant_derivative",
    "geometry.sample_points": "geometry.sample",
    "kysym.verify_field": "kysym.verify",
    "kysym.ky_residual": "kysym.residual",
    "kysym.covariant_constancy_residual": "kysym.residual",
    "kysym.closedness_residual": "kysym.residual",
    "kysym.killing_equation_residual": "kysym.residual",
    "kysym.killing_from_ky": "kysym.killing",
    "kysym.killing_tensor_jet": "kysym.killing",
    "kysym.symplectic_from_ky": "kysym.symplectic",
    "dynamics.GeodesicHamiltonian.rhs": "dynamics.rhs",
    "dynamics.geodesic_integrate": "dynamics.integrate",
    "dynamics.unified_hamilton_flow": "dynamics.integrate",
    "dynamics.conservation_monitor": "dynamics.monitor",
    "dynamics.write_trajectory_csv": "dynamics.csv",
    "multipole.evaluate_multipoles": "multipole.evaluate",
    "multipole.identity_suite": "multipole.suite",
    "report.section_flat_ky": "report.section.flat-ky",
    "report.section_taub_nut": "report.section.taub-nut",
    "report.section_const_curvature": "report.section.const-curvature",
    "report.section_printed_constcurv_ky": "report.section.printed-constcurv-ky",
    "report.section_multipole": "report.section.multipole",
    "jsonio.dumps": "jsonio.dumps",
}


class _CountingGenerator:
    """Passes every call to a numpy Generator; counts ``random`` calls,
    which ``sample_points`` makes once per candidate point."""

    def __init__(self, rng, counts: Counter):
        self._rng = rng
        self._counts = counts

    def random(self, *args, **kwargs):
        self._counts["geometry.sample.attempts"] += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Span aggregates per kind; ``install`` wraps kyano, ``uninstall``
    restores every binding it changed."""

    def __init__(self):
        self.calls = Counter()          # spans not nested in a span of the same kind
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # duration of those outermost spans
        self.counts = Counter()         # sampler attempts and accepts, RK4 steps
        self._stack = []                # [kind, seconds covered by child spans]
        self._undo = []                 # (namespace dict or class, key, original)

    def _span(self, kind, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != kind
            frame = [kind, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self.self_s[kind] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if outer:
                    self.calls[kind] += 1
                    self.total_s[kind] += elapsed

        return traced

    def _count_sampler(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def sample_points(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["rng"] = _CountingGenerator(bound.arguments["rng"], self.counts)
            points = fn(*bound.args, **bound.kwargs)
            self.counts["geometry.sample.accepted"] += len(points)
            return points

        return sample_points

    def _count_steps(self, fn):
        @functools.wraps(fn)
        def geodesic_integrate(*args, **kwargs):
            traj = fn(*args, **kwargs)
            self.counts["dynamics.steps_completed"] += traj.meta["steps_completed"]
            return traj

        return geodesic_integrate

    def install(self) -> None:
        modules = {name: sys.modules[f"kyano.{name}"] for name in LAYER_MODULES}
        wrappers = {}  # id(original) -> wrapper
        for name, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__):
                    continue
                default = "cli" if name == "cli" else f"{name}.other"
                wrapped = fn
                if attr == "sample_points":
                    wrapped = self._count_sampler(fn)
                elif attr == "geodesic_integrate":
                    wrapped = self._count_steps(fn)
                wrappers[id(fn)] = self._span(KINDS.get(f"{name}.{attr}", default), wrapped)
        for name, cls_name, method in METHODS:
            cls = getattr(modules[name], cls_name)
            self._rebind(cls, method, self._span(KINDS[f"{name}.{cls_name}.{method}"],
                                                 vars(cls)[method]))
        namespaces = [vars(m) for n, m in sys.modules.items() if n.split(".")[0] == "kyano"]
        namespaces += [v for ns in namespaces for k, v in ns.items()
                       if isinstance(v, dict) and not k.startswith("__")]
        for ns in namespaces:
            for key, value in list(ns.items()):
                if id(value) in wrappers:
                    self._rebind(ns, key, wrappers[id(value)])

    def _rebind(self, target, key, value):
        """Bind ``value`` at ``key`` of a namespace dict or a class."""
        if isinstance(target, type):
            self._undo.append((target, key, vars(target)[key]))
            setattr(target, key, value)
        else:
            self._undo.append((target, key, target[key]))
            target[key] = value

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, type):
                setattr(target, key, original)
            else:
                target[key] = original
