"""Command-line interface driven in-process through main(argv): exit
codes, emitted files, and output determinism."""

import json
import os
import subprocess
import sys

import pytest

import kyano
from kyano.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# -- verify-ky ----------------------------------------------------------------


def test_verify_ky_flat_pair_passes(capsys):
    code, out, _ = run(
        capsys, "verify-ky", "--manifold", "flat3", "--field", "flat-position",
        "--samples", "20",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "kyano/1"
    assert obj["pass"] is True
    assert obj["report"]["is_ky"] is True


def test_verify_ky_table_format(capsys):
    code, out, _ = run(
        capsys, "verify-ky", "--manifold", "flat4", "--field", "flat-momentum",
        "--samples", "5", "--format", "table",
    )
    assert code == 0
    assert "verdict: KY" in out


def test_verify_ky_taubnut_field(capsys):
    code, out, _ = run(
        capsys, "verify-ky", "--manifold", "taub-nut:m=1", "--field", "taubnut-1",
        "--samples", "5", "--tol", "1e-8",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["is_covariant_constant"] is True


def test_verify_ky_rejects_non_ky_field(tmp_path, capsys):
    field = write_json(
        tmp_path / "field.json",
        {"dim": 3, "rank": 2, "components": {"12": "x1"}},
    )
    code, out, _ = run(
        capsys, "verify-ky", "--manifold", "flat3", "--field", field,
        "--samples", "10",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_ky_malformed_field_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(
        capsys, "verify-ky", "--manifold", "flat3", "--field", str(bad)
    )
    assert code == 2
    assert err.startswith("error:")


def test_verify_ky_rejects_zero_samples(capsys):
    code, _, err = run(
        capsys, "verify-ky", "--manifold", "flat3", "--field", "flat-position",
        "--samples", "0",
    )
    assert code == 2
    assert "--samples" in err


def test_unknown_manifold_is_usage_error(capsys):
    code, _, err = run(capsys, "verify-ky", "--manifold", "torus", "--field", "flat-position")
    assert code == 2
    assert "torus" in err


@pytest.mark.parametrize("manifold, key", [
    ("taub-nut:mass=3", "mass"),
    ("flat3:K=2", "K"),
    ("const-curvature:K=1,m=2", "m"),
    ("taub-nut:m=1,m=2", "m"),
])
def test_unknown_manifold_parameter_is_usage_error(capsys, manifold, key):
    code, _, err = run(capsys, "verify-ky", "--manifold", manifold, "--field", "flat-position")
    assert code == 2
    assert repr(key) in err


@pytest.mark.parametrize("manifold, key", [
    ("const-curvature:K=nan", "K"),
    ("const-curvature:K=inf", "K"),
    ("taub-nut:m=-inf", "m"),
])
def test_non_finite_manifold_parameter_is_usage_error(capsys, manifold, key):
    code, _, err = run(capsys, "verify-ky", "--manifold", manifold, "--field", "flat-position")
    assert code == 2
    assert repr(key) in err and "finite" in err


@pytest.mark.parametrize("manifold", ["taub-nut:m=1,fiber_scale=0", "custom"])
def test_inadmissible_sampling_box_is_usage_error(tmp_path, manifold):
    if manifold == "custom":
        manifold = write_json(tmp_path / "m.json", {
            "kind": "custom",
            "metric": [["sqrt(x1-5)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        })
    src = os.path.dirname(os.path.dirname(kyano.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "kyano.cli", "verify-ky", "--manifold", manifold,
         "--field", "flat-position", "--samples", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "inadmissible" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-ky", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- geodesic -----------------------------------------------------------------


def test_geodesic_csv_with_sidecar(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, _, err = run(
        capsys, "geodesic", "--manifold", "flat3",
        "--x0", "0,0,0", "--p0", "1,0,0", "--dt", "0.01", "--steps", "10",
        "--out", str(out_csv),
    )
    assert code == 0 and err == ""
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,p1,p2,p3"
    assert len(lines) == 12
    sidecar = json.loads((tmp_path / "traj.csv.json").read_text())
    assert sidecar["columns"] == ["t", "x1", "x2", "x3", "p1", "p2", "p3"]
    assert sidecar["integration"]["completed"] is True
    assert sidecar["drift"]["H"]["abs"] == 0.0


def test_geodesic_json_format(capsys):
    code, out, _ = run(
        capsys, "geodesic", "--manifold", "flat2",
        "--x0", "0,0", "--p0", "0,1", "--dt", "0.1", "--steps", "3",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["times"]) == 4
    assert obj["states"][-1][1] == pytest.approx(0.3)


def test_geodesic_monitor_quantities(tmp_path, capsys):
    out_csv = tmp_path / "flat.csv"
    code, _, _ = run(
        capsys, "geodesic", "--manifold", "flat3",
        "--x0", "0.1,0.2,-0.1", "--p0", "0.3,-0.2,0.25",
        "--dt", "0.01", "--steps", "100",
        "--monitor", "H,K,L3", "--field", "flat-position",
        "--out", str(out_csv),
    )
    assert code == 0
    drift = json.loads((tmp_path / "flat.csv.json").read_text())["drift"]
    assert set(drift) == {"H", "K", "L3"}
    assert all(d["rel"] <= 1e-12 for d in drift.values())


def test_geodesic_monitor_k_requires_field(capsys):
    code, _, err = run(
        capsys, "geodesic", "--manifold", "flat3",
        "--x0", "0,0,0", "--p0", "1,0,0", "--dt", "0.1", "--steps", "2",
        "--monitor", "K",
    )
    assert code == 2
    assert "--field" in err


def test_geodesic_monitor_unknown_quantity(capsys):
    code, _, err = run(
        capsys, "geodesic", "--manifold", "flat3",
        "--x0", "0,0,0", "--p0", "1,0,0", "--dt", "0.1", "--steps", "2",
        "--monitor", "Q",
    )
    assert code == 2
    assert "monitor" in err


def test_geodesic_truncation_exits_one(tmp_path, capsys):
    manifold = write_json(
        tmp_path / "halfline.json",
        {"kind": "custom", "dim": 1, "metric": [["sqrt(x1)"]]},
    )
    code, _, err = run(
        capsys, "geodesic", "--manifold", manifold,
        "--x0", "1", "--p0", "-1", "--dt", "0.05", "--steps", "100",
        "--out", str(tmp_path / "trunc.csv"),
    )
    assert code == 1
    assert "truncated" in err
    sidecar = json.loads((tmp_path / "trunc.csv.json").read_text())
    assert sidecar["integration"]["completed"] is False
    assert "sqrt" in sidecar["integration"]["reason"]


def test_geodesic_out_of_domain_start(capsys):
    code, _, err = run(
        capsys, "geodesic", "--manifold", "const-curvature:K=-1",
        "--x0", "2,0,0", "--p0", "1,0,0", "--dt", "0.01", "--steps", "5",
    )
    assert code == 2
    assert err.startswith("error:")


def test_geodesic_bad_vector_length(capsys):
    code, _, err = run(
        capsys, "geodesic", "--manifold", "flat3",
        "--x0", "0,0", "--p0", "1,0,0", "--dt", "0.01", "--steps", "5",
    )
    assert code == 2
    assert "--x0" in err


# -- multipole ----------------------------------------------------------------


def test_multipole_matches_expectation(capsys):
    code, out, _ = run(capsys, "multipole", "--samples", "100", "--seed", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["matches_expectation"] is True
    assert len(obj["entries"]) == 18


def test_multipole_verdicts_seed_independent(capsys):
    def verdicts(seed):
        code, out, _ = run(capsys, "multipole", "--samples", "60", "--seed", seed)
        assert code == 0
        return {e["id"]: e["verdict"] for e in json.loads(out)["entries"]}

    assert verdicts("1") == verdicts("7")


def test_multipole_table_format(capsys):
    code, out, _ = run(
        capsys, "multipole", "--samples", "30", "--format", "table"
    )
    assert code == 0
    assert "verdict" in out
    assert "note:" in out


# -- report -------------------------------------------------------------------


def test_report_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "report", "--samples", "5", "--seed", "3", "--out", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert not list(tmp_path.glob("*.tmp*"))


def test_report_skip_section(capsys):
    code, out, _ = run(
        capsys, "report", "--samples", "4", "--skip", "taub-nut",
        "--skip", "printed-constcurv-ky",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["sections"]["taub-nut"] == {"skipped": True}
    assert obj["sections"]["multipole"]["pass"] is True
    assert obj["pass"] is True


def test_report_unknown_section_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--skip", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
