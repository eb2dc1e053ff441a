"""Aggregated verification report over the metric catalog.

Each section runs one family of checks and returns a JSON-ready dict with
a ``pass`` flag; :func:`assemble_report` collects them.  Sections that
measure known-broken published formulas (the printed constant-curvature
components, the failing multipole identities) pass when the measurement
matches the shipped expectation, so the report doubles as a regression
harness for the adjudications.
"""

from __future__ import annotations

import numpy as np

from . import __version__, geometry, kysym, multipole
from .errors import SymplecticRejection

SECTION_NAMES = (
    "flat-ky",
    "taub-nut",
    "const-curvature",
    "printed-constcurv-ky",
    "multipole",
)


def section_flat_ky(rng: np.random.Generator, samples: int = 100) -> dict:
    """Rank-(n-1) pair on flat R^n for n = 3..6: KY residual and the
    exactness of the vector reconstruction round trip."""
    per_dim = {}
    ok = True
    for n in range(3, 7):
        spec = geometry.flat(n)
        field = kysym.flat_ky_position_field(n)
        X, P = np.hsplit(rng.uniform(-1.0, 1.0, (samples, 2 * n)), 2)  # row k: point k's x, p
        round_errors = []
        step = max(1, 2 ** 15 // n ** (n - 1))  # rows of at most 2**15 elements of f
        for i in range(0, samples, step):
            f, ft = kysym.flat_ky_pair(n, X[i:i + step], P[i:i + step])
            round_errors += [np.abs(kysym.reconstruct_position(f) - X[i:i + step]).max(),
                             np.abs(kysym.reconstruct_momentum(ft) - P[i:i + step]).max()]
        max_round = float(np.max(round_errors))
        max_res = kysym.verify_field(spec, field, X).max_ky_residual
        passed = max_res <= 1e-12 and max_round <= 1e-15
        ok = ok and passed
        per_dim[str(n)] = {
            "max_ky_residual": max_res,
            "max_roundtrip_error": max_round,
            "n_points": samples,
            "pass": passed,
        }
    return {"per_dim": per_dim, "pass": ok}


def section_taub_nut(rng: np.random.Generator, samples: int = 20, m: float = 1.0) -> dict:
    """Covariant constancy of the three two-forms under both fiber
    normalizations; exactly one is expected to validate."""
    results = {}
    validated = None
    for scale in (2.0, 4.0):
        spec = geometry.taub_nut(m, fiber_scale=scale)
        points = geometry.sample_points(spec, samples, rng)
        reps = [kysym.verify_field(spec, kysym.taubnut_ky_field(index, m), points)
                for index in (1, 2, 3)]
        max_cc = float(np.max([rep.max_cc_residual for rep in reps]))
        min_det = float(np.min([rep.min_abs_det for rep in reps]))
        entry = {
            "max_cc_residual": max_cc,
            "min_abs_det": min_det,
            "covariant_constant": max_cc <= 1e-8,
            "n_points": samples,
        }
        if max_cc <= 1e-8:
            validated = scale
            try:
                kysym.symplectic_from_ky(
                    spec, kysym.taubnut_ky_field(1, m), points=points
                )
                entry["symplectic_accepted"] = True
            except SymplecticRejection as e:
                entry["symplectic_accepted"] = False
                entry["symplectic_rejection"] = e.reason
        results[f"fiber_scale={scale:g}"] = entry
    ok = (
        validated == 2.0
        and results["fiber_scale=2"]["min_abs_det"] > 1e-12
        and results["fiber_scale=2"].get("symplectic_accepted", False)
        and not results["fiber_scale=4"]["covariant_constant"]
    )
    return {
        "m": m,
        "candidates": results,
        "validated_fiber_scale": validated,
        "pass": bool(ok),
    }


def section_const_curvature(rng: np.random.Generator, samples: int = 50) -> dict:
    """Scalar curvature of the conformal 3-metric equals 6K pointwise;
    flat space has identically zero Riemann tensor."""
    per_k = {}
    ok = True
    for K in (-1.0, 0.5, 1.0):
        spec = geometry.const_curvature3(K)
        points = geometry.sample_points(spec, samples, rng)
        worst = float(np.max([abs(geometry.curvature_at(spec, pt).scalar - 6.0 * K)
                              for pt in points]))
        passed = worst <= 1e-8
        ok = ok and passed
        per_k[f"K={K:g}"] = {
            "max_deviation_from_6K": worst,
            "n_points": samples,
            "pass": passed,
        }
    flat_worst = float(np.max([
        np.abs(geometry.curvature_at(spec, pt).riemann).max()
        for spec in (geometry.flat(3), geometry.flat(4))
        for pt in rng.uniform(-1.0, 1.0, (10, spec.dim))
    ]))
    flat_ok = flat_worst <= 1e-12
    ok = ok and flat_ok
    return {
        "per_curvature": per_k,
        "flat_max_riemann": flat_worst,
        "flat_pass": flat_ok,
        "pass": ok,
    }


def section_printed_constcurv_ky(rng: np.random.Generator, samples: int = 20, K: float = 1.0) -> dict:
    """KY residuals of the printed spherical-chart components.

    Expectation (shipped): each single-component form fails the KY
    equation; the section passes when the measurement reproduces that.
    """
    spec = geometry.const_curvature3_spherical(K)
    dual_spec = geometry.dual_metric(spec)
    box = [(0.4, 1.6), (0.4, np.pi - 0.4), (0.2, 2 * np.pi - 0.2)]
    points = geometry.sample_points(spec, samples, rng, box=box)
    results = {}
    ok = True
    for momentum in (False, True):
        use_spec = dual_spec if momentum else spec
        for index in (1, 2, 3):
            field = kysym.constcurv_ky_field(index, K, momentum=momentum)
            worst = kysym.verify_field(use_spec, field, points).max_ky_residual
            is_ky = worst <= 1e-10
            label = f"{'momentum' if momentum else 'position'}-{index}"
            results[label] = {"max_ky_residual": worst, "is_ky": is_ky}
            # expected: not KY (mutually inconsistent normalizations)
            ok = ok and not is_ky
    return {"K": K, "components": results, "expected_is_ky": False, "pass": ok}


def section_multipole(rng: np.random.Generator, samples: int = 1000) -> dict:
    """Identity suite verdicts must reproduce the shipped expectation table."""
    rep, mismatches = multipole.sampled_identity_suite(rng, samples)
    out = rep.to_dict()
    out["mismatches"] = {
        k: {"expected": multipole.EXPECTED_VERDICTS[k], "measured": v}
        for k, v in mismatches.items()
    }
    out["pass"] = not mismatches
    return out


_SECTIONS = {
    "flat-ky": section_flat_ky,
    "taub-nut": section_taub_nut,
    "const-curvature": section_const_curvature,
    "printed-constcurv-ky": section_printed_constcurv_ky,
    "multipole": section_multipole,
}


def assemble_report(seed: int = 0, samples: int | None = None, skip: tuple[str, ...] = ()) -> dict:
    """Run all sections (each with its own stream of the seeded generator)
    and combine them; skipped sections are recorded but do not fail."""
    for name in skip:
        if name not in _SECTIONS:
            raise ValueError(f"unknown section {name!r}; known: {', '.join(SECTION_NAMES)}")
    sections = {}
    ok = True
    root = np.random.SeedSequence(seed)
    streams = root.spawn(len(SECTION_NAMES))
    for name, stream in zip(SECTION_NAMES, streams):
        if name in skip:
            sections[name] = {"skipped": True}
            continue
        rng = np.random.default_rng(stream)
        kwargs = {}
        if samples is not None:
            kwargs["samples"] = samples
        result = _SECTIONS[name](rng, **kwargs)
        sections[name] = result
        ok = ok and result["pass"]
    return {
        "schema": "kyano/1",
        "generator": f"kyano {__version__}",
        "seed": seed,
        "sections": sections,
        "pass": ok,
    }
