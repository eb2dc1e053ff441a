"""Command-line interface.

Subcommands: ``verify-ky`` (sample a field's KY residuals over a
manifold), ``geodesic`` (integrate and export a trajectory),
``multipole`` (run the identity suite), ``report`` (the full catalog
verification report).

Exit codes: 0 when the requested check passes or the run completes, 1
when a check fails or a trajectory truncates early, 2 for usage or input
errors.  JSON output is deterministic for fixed inputs and ``--seed``;
``--out`` writes are atomic.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import geometry, jsonio, kysym, multipole, report
from .dynamics import PhasePoint, angular_momentum, conservation_monitor, \
    free_hamiltonian, geodesic_integrate, killing_quadratic, write_trajectory_csv
from .errors import KyanoError, clipped
from .fields import AntisymTensorField


def _emit(args, obj, table: str) -> None:
    text = jsonio.dumps(obj) if args.format == "json" else table + "\n"
    if args.out:
        jsonio.write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_vector(text: str, n: int, label: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise KyanoError(f"{label} must be comma-separated numbers") from None
    if len(values) != n:
        raise KyanoError(f"{label} must have {n} components for this manifold")
    return np.asarray(values)


_FIELD_NAME_RE = re.compile(r"^(taubnut)-([123])$")


def _load_field(text: str, spec) -> AntisymTensorField:
    m = _FIELD_NAME_RE.match(text)
    if m:
        if spec.kind != "taub-nut":
            raise KyanoError("taubnut-N fields require a taub-nut manifold")
        return kysym.taubnut_ky_field(int(m.group(2)), spec.param("m"))
    if text in ("flat-position", "flat-momentum"):  # twins of one functional form
        return kysym.flat_ky_position_field(spec.dim)
    with open(text, "r", encoding="utf-8") as fh:
        return AntisymTensorField.from_dict(jsonio.load(fh))


def _require_samples(count: int) -> None:
    if count < 1:
        raise KyanoError("--samples must be at least 1")


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise KyanoError(f"--tol must be a finite number at least 0, got {tol!r}")


def cmd_verify_ky(args) -> int:
    _require_samples(args.samples)
    _require_tol(args.tol)
    spec = geometry.resolve_manifold(args.manifold)
    field = _load_field(args.field, spec)
    rng = np.random.default_rng(args.seed)
    points = geometry.sample_points(spec, args.samples, rng)
    rep = kysym.verify_field(spec, field, points, ky_tol=args.tol)
    out = {
        "schema": "kyano/1",
        "manifold": geometry.dump_manifold(spec),
        "field": args.field,
        "seed": args.seed,
        "report": rep.to_dict(),
        "pass": rep.is_ky,
    }
    table = "\n".join(
        [
            f"manifold: {args.manifold}",
            f"field: {args.field}",
            f"points: {rep.n_points}",
            f"max KY residual: {rep.max_ky_residual:.3e} (tol {rep.ky_tol:g})",
            f"max covariant-constancy residual: {rep.max_cc_residual:.3e}",
            f"min |det f|: {rep.min_abs_det:.3e}" if rep.min_abs_det is not None
            else f"min |det f|: n/a (rank {field.rank})",
            f"verdict: {'KY' if rep.is_ky else 'not KY'}"
            + (", covariant-constant" if rep.is_covariant_constant else "")
            + (", non-degenerate" if rep.is_nondegenerate else ""),
        ]
    )
    _emit(args, out, table)
    return 0 if rep.is_ky else 1


def _monitored_quantities(args, spec):
    quantities = []
    for label in args.monitor.split(","):
        label = label.strip()
        if label in dict(quantities):
            raise KyanoError(f"monitor quantity {clipped(label)} is repeated")
        if label == "H":
            quantities.append((label, free_hamiltonian(spec)))
        elif label == "K":
            if not args.field:
                raise KyanoError("monitoring K requires --field")
            quantities.append(
                (label, killing_quadratic(spec, _load_field(args.field, spec)))
            )
        elif label in ("L1", "L2", "L3"):
            if spec.dim != 3:
                raise KyanoError("L components are defined on 3-dimensional manifolds")
            quantities.append((label, angular_momentum(int(label[1]))))
        else:
            raise KyanoError(f"unknown monitor quantity {clipped(label)} (use H, K, L1..L3)")
    return quantities


def cmd_geodesic(args) -> int:
    spec = geometry.resolve_manifold(args.manifold)
    x0 = _parse_vector(args.x0, spec.dim, "--x0")
    p0 = _parse_vector(args.p0, spec.dim, "--p0")
    quantities = _monitored_quantities(args, spec)
    if args.format == "csv" and not args.out:
        raise KyanoError("csv output requires --out PATH")
    traj = geodesic_integrate(spec, PhasePoint(x0, p0), args.dt, args.steps)
    drift = {}
    for label, fn in quantities:
        abs_drift, rel_drift = conservation_monitor(traj, fn)
        drift[label] = {"abs": abs_drift, "rel": rel_drift}
    sidecar = {
        "schema": "kyano/1",
        "manifold": geometry.dump_manifold(spec),
        "x0": [float(v) for v in x0],
        "p0": [float(v) for v in p0],
        "columns": ["t"]
        + [f"x{i}" for i in range(1, spec.dim + 1)]
        + [f"p{i}" for i in range(1, spec.dim + 1)],
        "integration": traj.meta,
        "drift": drift,
    }
    if args.format == "json":
        payload = dict(sidecar)
        payload["times"] = [float(t) for t in traj.times]
        payload["states"] = [[float(v) for v in row] for row in traj.states]
        _emit(args, payload, "")
    else:
        write_trajectory_csv(traj, args.out)
        jsonio.write_atomic(args.out + ".json", jsonio.dumps(sidecar))
    if not traj.meta["completed"]:
        sys.stderr.write(
            f"warning: truncated after {traj.meta['steps_completed']} steps"
            f" ({traj.meta.get('reason', 'unknown')})\n"
        )
        return 1
    return 0


def cmd_multipole(args) -> int:
    _require_samples(args.samples)
    _require_tol(args.tol)
    rep, mismatches = multipole.sampled_identity_suite(
        np.random.default_rng(args.seed), args.samples, tol=args.tol
    )
    out = rep.to_dict()
    out["schema"] = "kyano/1"
    out["seed"] = args.seed
    out["matches_expectation"] = not mismatches
    table = rep.table()
    if mismatches:
        table += "\nMISMATCH against expectation: " + ", ".join(sorted(mismatches))
    _emit(args, out, table)
    return 0 if not mismatches else 1


def cmd_report(args) -> int:
    if args.samples is not None:
        _require_samples(args.samples)
    rep = report.assemble_report(
        seed=args.seed, samples=args.samples, skip=tuple(args.skip or ())
    )
    lines = []
    for name, section in rep["sections"].items():
        if section.get("skipped"):
            status = "skipped"
        else:
            status = "pass" if section["pass"] else "FAIL"
        lines.append(f"{name:24} {status}")
    lines.append(f"{'overall':24} {'pass' if rep['pass'] else 'FAIL'}")
    _emit(args, rep, "\n".join(lines))
    return 0 if rep["pass"] else 1


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kyano",
        description="Killing-Yano tensors: verification, geodesics, multipole identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("json", "table"), default_fmt="json"):
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        p.add_argument("--out", help="write output to this path (atomic)")
        p.add_argument("--format", choices=fmt, default=default_fmt)

    p = sub.add_parser("verify-ky", help="sample KY residuals of a field")
    p.add_argument("--manifold", required=True, help="catalog name or manifold JSON path")
    p.add_argument("--field", required=True,
                   help="field JSON path, flat-position, flat-momentum, or taubnut-1|2|3")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-10, help="KY residual gate")
    common(p)
    p.set_defaults(fn=cmd_verify_ky)

    p = sub.add_parser("geodesic", help="integrate the geodesic flow")
    p.add_argument("--manifold", required=True)
    p.add_argument("--x0", required=True, help="initial position, comma separated")
    p.add_argument("--p0", required=True, help="initial momentum, comma separated")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--monitor", default="H",
                   help="comma-separated conserved quantities: H, K, L1, L2, L3")
    p.add_argument("--field", help="KY field for the K monitor (path or name)")
    p.add_argument("--out", help="CSV path (a .json sidecar is written next to it)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("multipole", help="run the multipole identity suite")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=float, default=multipole.RESIDUAL_TOL)
    common(p)
    p.set_defaults(fn=cmd_multipole)

    p = sub.add_parser("report", help="full catalog verification report")
    p.add_argument("--samples", type=int, default=None,
                   help="override per-section sample counts")
    p.add_argument("--skip", action="append", default=[],
                   choices=report.SECTION_NAMES, help="skip a section (repeatable)")
    common(p)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (KyanoError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except RecursionError:  # a long chain of + - * / in an expression
        sys.stderr.write("error: an expression is too long to evaluate\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
