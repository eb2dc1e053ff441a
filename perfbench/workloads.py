"""The benchmark's workloads: seeded inputs, one timed call per task, checks.

Each workload object is built once (that is the set-up the benchmark
times).  For task ``k`` the runner calls ``prepare(k)`` untimed, then
``call(inputs)`` timed, then ``check(k, inputs, output)`` untimed, which
returns the units of work completed and a list of ``(check name, passed)``.
Task ``k``'s inputs depend only on the workload seed and ``k``.

kyano is reached through module attributes (``geometry.sample_points``,
not a by-name import) so the traced run sees every call.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from kyano import cli, geometry, kysym

import oracles

GEODESIC_DT = 0.01
GEODESIC_STEPS = 1000
CURVED_K = -4.0

# Geodesic starts: x uniform over the sampling box of
# geometry.default_box, where every point is admissible, and |p| <= 1.
# Orbits that pass near the chart's singular locus are redrawn, because
# fixed-step RK4 at GEODESIC_DT loses H accuracy there: over 400 draws
# each, H drift exceeded oracles.DRIFT_TOL on 2 of the 61 Taub-NUT orbits
# within AXIS_GAP of the polar axis (one truncated) and on 5 of the 41
# K=1 great circles within ANTIPODE_GAP of the antipode, and on none of
# the others (largest 1.5e-8 and 8.2e-7).
TAUBNUT_BOX = ((0.5, 2.5), (0.3, math.pi - 0.3), (0.0, 2.0 * math.pi), (0.0, 4.0 * math.pi))
SPHERE_BOX = ((-1.0, 1.0),) * 3
AXIS_GAP = 0.1
ANTIPODE_GAP = 0.3


def _task_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _fresh(*paths: str) -> None:
    """Remove earlier outputs, so a call that writes nothing is not checked
    against the previous task's files."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _vector_arg(flag: str, v: np.ndarray) -> str:
    # "--x0=-0.1,..." keeps argparse from reading a leading minus as an option
    return f"{flag}=" + ",".join(repr(float(c)) for c in v)


class Report:
    """`kyano report --seed s --out PATH` in-process; each seed runs twice
    so the second run checks byte-identity against the first."""

    name = "report"
    round_size = 2

    def __init__(self, seed: int, outdir: str | None):
        self.seed = seed
        self.outdir = outdir
        self._first_bytes = b""

    def prepare(self, k: int):
        report_seed = int(_task_rng(self.seed, k // 2).integers(2**31))
        out = os.path.join(self.outdir, f"report-{k % 2}.json")
        _fresh(out)
        return ["report", "--seed", str(report_seed), "--out", out]

    @staticmethod
    def call(argv):
        return cli.main(argv)

    def check(self, k, argv, code):
        checks = [("report exit code", code == 0)]
        with open(argv[-1], "rb") as fh:
            data = fh.read()
        if k % 2 == 0:
            self._first_bytes = data
        else:
            checks.append(("report byte-identity", data == self._first_bytes))
        rep = json.loads(data)
        sections = rep["sections"]
        for name in oracles.REPORT_SECTIONS:
            checks.append((f"report section {name}", sections[name]["pass"] is True))
        verdicts = {e["id"]: e["verdict"] for e in sections["multipole"]["entries"]}
        checks.append(("multipole identity set", set(verdicts) == set(oracles.MULTIPOLE_VERDICTS)))
        for ident, expected in oracles.MULTIPOLE_VERDICTS.items():
            checks.append((f"multipole {ident}", verdicts.get(ident) == expected))
        checks.append((
            "taub-nut validated fiber scale",
            sections["taub-nut"]["validated_fiber_scale"] == oracles.TAUBNUT_FIBER_SCALE,
        ))
        for label, entry in sections["const-curvature"]["per_curvature"].items():
            checks.append((
                f"scalar curvature 6K at {label}",
                entry["max_deviation_from_6K"] <= oracles.SCALAR_CURVATURE_TOL,
            ))
        return int(code == 0), checks


def _start(rng: np.random.Generator, box):
    """x uniform over ``box``, p uniform in the unit ball."""
    lo, hi = np.array(box).T
    x = rng.uniform(lo, hi)
    d = rng.normal(size=len(box))
    return x, d * (rng.uniform() ** (1.0 / len(box)) / np.linalg.norm(d))


def _taubnut_start(rng: np.random.Generator):
    """Admissible start on taub-nut:m=1 whose orbit passes no nearer than
    AXIS_GAP to the polar axis, the chart's coordinate singularity.

    The direction r^ of the orbit stays on the cone J . r^ = p_psi around
    the conserved angular momentum J; the gap is the cone's angular
    distance from either pole."""
    while True:
        x, p = _start(rng, TAUBNUT_BOX)
        _, theta, phi, _ = x
        _, p_theta, p_phi, p_psi = p
        across = (p_psi - math.cos(theta) * p_phi) / math.sin(theta)
        J = np.array([
            -math.sin(phi) * p_theta + math.cos(phi) * across,
            math.cos(phi) * p_theta + math.sin(phi) * across,
            p_phi,
        ])
        norm = np.linalg.norm(J)
        half_angle = math.acos(min(1.0, max(-1.0, p_psi / norm)))
        tilt = math.acos(J[2] / norm)
        if min(abs(tilt - half_angle), abs(math.pi - tilt - half_angle)) >= AXIS_GAP:
            return x, p


def _sphere_start(rng: np.random.Generator):
    """Admissible start on const-curvature:K=1 whose great circle passes
    no nearer than asin(ANTIPODE_GAP) to the antipode of the origin, the
    chart's point at infinity.  A great circle is as near the origin as
    its antipode: sin(distance) = sin(2 atan(|x|/2)) sin(angle(x, p))."""
    while True:
        x, p = _start(rng, SPHERE_BOX)
        r = np.linalg.norm(x)
        sin_angle = math.sqrt(max(0.0, 1.0 - (x @ p / (r * np.linalg.norm(p))) ** 2))
        if math.sin(2.0 * math.atan(r / 2.0)) * sin_angle >= ANTIPODE_GAP:
            return x, p


class Geodesic:
    """`kyano geodesic` in-process: one task is a taub-nut:m=1 trajectory
    monitoring H and K, then a const-curvature:K=1 trajectory monitoring H
    and L3, each GEODESIC_STEPS RK4 steps of GEODESIC_DT."""

    name = "geodesic"
    round_size = 1

    def __init__(self, seed: int, outdir: str | None):
        self.seed = seed
        self.outdir = outdir

    def prepare(self, k: int):
        rng = _task_rng(self.seed, k)
        runs = []
        for label, manifold, start, monitors, field in (
            ("taub-nut", "taub-nut:m=1", _taubnut_start, ("H", "K"), ["--field", "taubnut-1"]),
            ("const-curvature", "const-curvature:K=1", _sphere_start, ("H", "L3"), []),
        ):
            x0, p0 = start(rng)
            out = os.path.join(self.outdir, f"{label}.csv")
            _fresh(out, out + ".json")
            runs.append((label, monitors, [
                "geodesic", "--manifold", manifold,
                _vector_arg("--x0", x0), _vector_arg("--p0", p0),
                "--dt", repr(GEODESIC_DT), "--steps", str(GEODESIC_STEPS),
                "--monitor", ",".join(monitors), *field, "--out", out,
            ]))
        return runs

    @staticmethod
    def call(runs):
        return [cli.main(argv) for _, _, argv in runs]

    def check(self, k, runs, codes):
        units = 0
        checks = []
        for (label, monitors, argv), code in zip(runs, codes):
            checks.append((f"{label} exit code", code == 0))
            out = argv[-1]
            with open(out + ".json", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            done = sidecar["integration"]["steps_completed"]
            units += done
            checks.append((f"{label} steps completed", done == GEODESIC_STEPS))
            with open(out, newline="", encoding="utf-8") as fh:
                rows = sum(1 for _ in csv.reader(fh))
            checks.append((f"{label} csv rows", rows == done + 2))
            for quantity in monitors:
                drift = sidecar["drift"].get(quantity, {}).get("rel", math.inf)
                checks.append((f"{label} {quantity} drift", drift <= oracles.DRIFT_TOL))
        return units, checks


class Curved:
    """The geometry/kysym API over seeded points of taub-nut:m=1 and
    const-curvature:K=-4: KY verdicts of the Taub-NUT triplet, curvature
    oracles on both manifolds and the flat position field as a negative
    control.  The K=-4 pole sphere r = 1 cuts the sampling box, so the
    sampler rejects a share of its draws there."""

    name = "curved"
    round_size = 1
    points = 100

    def __init__(self, seed: int, outdir: str | None):
        self.seed = seed
        self.taubnut = geometry.taub_nut(1.0)
        self.hyperbolic = geometry.const_curvature3(CURVED_K)
        self.triplet = [kysym.taubnut_ky_field(i, 1.0) for i in (1, 2, 3)]
        self.flat_position = kysym.flat_ky_position_field(3)

    def prepare(self, k: int):
        return _task_rng(self.seed, k)

    def call(self, rng):
        tn_points = geometry.sample_points(self.taubnut, self.points, rng)
        hy_points = geometry.sample_points(self.hyperbolic, self.points, rng)
        return {
            "points": len(tn_points) + len(hy_points),
            "triplet": [kysym.verify_field(self.taubnut, f, tn_points) for f in self.triplet],
            "ricci": max(
                float(np.abs(geometry.curvature_at(self.taubnut, pt).ricci).max())
                for pt in tn_points
            ),
            "scalar": [geometry.curvature_at(self.hyperbolic, pt).scalar for pt in hy_points],
            "control": kysym.verify_field(self.hyperbolic, self.flat_position, hy_points),
        }

    def check(self, k, rng, out):
        checks = [("sampled points", out["points"] == 2 * self.points)]
        for i, rep in enumerate(out["triplet"], 1):
            checks += [
                (f"taubnut-{i} is KY", rep.max_ky_residual <= oracles.TRIPLET_KY_TOL),
                (f"taubnut-{i} covariantly constant", rep.max_cc_residual <= oracles.TRIPLET_CC_TOL),
                (f"taubnut-{i} non-degenerate", rep.min_abs_det > oracles.TRIPLET_MIN_ABS_DET),
            ]
        checks.append(("taub-nut Ricci-flat", out["ricci"] <= oracles.TAUBNUT_RICCI_TOL))
        checks.append((
            "K=-4 scalar curvature 6K",
            max(abs(s - 6.0 * CURVED_K) for s in out["scalar"])
            <= oracles.SCALAR_CURVATURE_TOL,
        ))
        checks.append((
            "flat-position not KY on K=-4",
            out["control"].max_ky_residual >= oracles.NEGATIVE_CONTROL_MIN_RESIDUAL,
        ))
        return out["points"], checks


WORKLOADS = {w.name: w for w in (Report, Geodesic, Curved)}
