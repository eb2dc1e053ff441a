"""Command-line interface driven in-process through main(argv): exit
codes, emitted files, and output determinism."""

import contextlib
import io
import itertools
import json
import os
import re
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kyano
from kyano import cli
from kyano.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# g = diag(1, x1^2) degenerates on the line x1 = 0
DEGENERATE = {"kind": "custom", "metric": [["1", "0"], ["0", "x1^2"]]}
# the sqrt's derivative overflows as x1 -> 0
TINY_SQRT = {"kind": "custom",
             "metric": [["1 + sqrt(x1)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


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


@pytest.mark.parametrize("text", ["1" + "0" * 400, "true", "1e400", "NaN"],
                         ids=["int-too-large-for-a-float", "bool", "1e400", "nan"])
def test_field_file_component_that_is_no_finite_number_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "f.json"
    path.write_text('{"dim": 4, "rank": 2, "components": {"12": %s}}' % text, encoding="utf-8")
    code, out, err = run(capsys, "verify-ky", "--manifold", "taub-nut:m=1", "--field", str(path),
                         "--samples", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: field component '12' must be an expression or a finite number")
    assert err.count("\n") == 1 and len(err) < 200  # a long value is echoed cut short


@pytest.mark.parametrize("option, obj", [
    ("--manifold", {"kind": "flat"}),
    ("--manifold", {"kind": "custom"}),
    ("--manifold", {"kind": "custom", "metric": 5}),
    ("--manifold", {"kind": "custom", "metric": [[None]]}),
    ("--manifold", {"kind": "custom", "metric": [["1"]], "chart": 5}),
    ("--field", {"dim": 3, "components": {"12": "x1"}}),
    ("--field", [1, 2]),
])
def test_verify_ky_malformed_input_file_is_usage_error(tmp_path, capsys, option, obj):
    args = {"--manifold": "flat3", "--field": "flat-position"}
    args[option] = write_json(tmp_path / "bad.json", obj)
    code, _, err = run(capsys, "verify-ky", *itertools.chain(*args.items()), "--samples", "2")
    assert code == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_verify_ky_rank3_volume_form_on_const_curvature(tmp_path, capsys):
    u = "(1 + 0.5*(x1^2+x2^2+x3^2)/4)"
    field = write_json(tmp_path / "vol.json",
                       {"dim": 3, "rank": 3, "components": {"123": f"1/{u}^3"}})
    code, out, _ = run(capsys, "verify-ky", "--manifold", "const-curvature:K=0.5",
                       "--field", field, "--samples", "20")
    assert code == 0
    assert json.loads(out)["report"]["is_covariant_constant"] is True


def test_verify_ky_reports_no_determinant_for_other_ranks(tmp_path, capsys):
    u = "(1 + 0.5*(x1^2+x2^2+x3^2)/4)"
    field = write_json(tmp_path / "vol.json",
                       {"dim": 3, "rank": 3, "components": {"123": f"1/{u}^3"}})
    argv = ("verify-ky", "--manifold", "const-curvature:K=0.5", "--field", field,
            "--samples", "5")
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)["report"]
    assert code == 0
    assert report["min_abs_det"] is report["max_abs_det"] is report["is_nondegenerate"] is None
    code, out, _ = run(capsys, *argv, "--format", "table")
    assert code == 0 and "min |det f|: n/a (rank 3)" in out.splitlines()


@pytest.mark.parametrize("domain", ["x1", [1], ["x1 +"]])
def test_verify_ky_malformed_manifold_domain_is_usage_error(tmp_path, capsys, domain):
    manifold = write_json(tmp_path / "m.json",
                          {"kind": "custom", "metric": [["1", "0"], ["0", "1"]], "domain": domain})
    code, _, err = run(capsys, "verify-ky", "--manifold", manifold, "--field", "flat-position",
                       "--samples", "2")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "'domain'" in err or "offset" in err  # the key, or where its expression breaks


@pytest.mark.parametrize("obj, key", [
    ({"kind": "taub-nut", "domain": ["x1 - 5"]}, "'domain'"),
    ({"kind": "flat", "dim": 3, "metric": [["1"]]}, "'metric'"),
    ({"kind": "custom", "metric": [["1", "0"], ["0", "1"]], "box": [[0, 1]]}, "'box'"),
    ({"kind": "custom", "metric": [["1", "0"], ["0", "1"]], "box": [[0, 1], [2, 1]]}, "'box'"),
])
def test_verify_ky_unread_or_malformed_manifold_key_is_usage_error(tmp_path, capsys, obj, key):
    manifold = write_json(tmp_path / "m.json", obj)
    code, _, err = run(capsys, "verify-ky", "--manifold", manifold, "--field", "flat-position",
                       "--samples", "2")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:") and key in err


def test_verify_ky_rejects_zero_samples(capsys):
    code, _, err = run(
        capsys, "verify-ky", "--manifold", "flat3", "--field", "flat-position",
        "--samples", "0",
    )
    assert code == 2
    assert "--samples" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-5e-324", "1e400"])
@pytest.mark.parametrize("command", [
    ["verify-ky", "--manifold", "const-curvature:K=1", "--field", "flat-position"],
    ["verify-ky", "--manifold", "taub-nut", "--field", "taubnut-1"],
    ["multipole", "--samples", "5"],
], ids=["verify-ky-flat-position", "verify-ky-taubnut", "multipole"])
def test_a_non_finite_or_negative_tol_is_an_input_error(capsys, command, tol):
    # inf passed a field whose residual is 1.69, and nan failed the KY triplet
    code, out, err = run(capsys, *command, f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol must be a finite number at least 0") and err.count("\n") == 1


@pytest.mark.parametrize("command, want", [
    (["verify-ky", "--manifold", "flat3", "--field", "flat-position", "--samples", "5"], 0),
    (["verify-ky", "--manifold", "const-curvature:K=1", "--field", "flat-position",
      "--samples", "5"], 1),
    (["multipole", "--samples", "5"], 1),
], ids=["verify-ky-flat", "verify-ky-curved", "multipole"])
def test_a_zero_tol_is_a_gate(capsys, command, want):
    code, _, err = run(capsys, *command, "--tol", "0")
    assert (code, err) == (want, "")


def test_unknown_manifold_is_usage_error(capsys):
    code, _, err = run(capsys, "verify-ky", "--manifold", "torus", "--field", "flat-position")
    assert code == 2
    assert "torus" in err



@pytest.mark.parametrize("command", ["geodesic", "verify-ky"])
def test_flat_dimension_past_the_bound_is_usage_error(capsys, command):
    args = (["--x0", "1", "--p0", "1", "--dt", "0.1", "--steps", "1"] if command == "geodesic"
            else ["--field", "flat-position"])
    code, out, err = run(capsys, command, "--manifold", "flat100000", *args)
    assert code == 2 and out == ""
    assert err == "error: flat dimension 100000 exceeds the bound 2048\n"

def test_flat_dimension_of_thousands_of_digits_reports_the_bound(capsys):
    # int() refuses more than 4300 digits: the length is checked first
    code, out, err = run(capsys, "verify-ky", "--manifold", "flat" + "9" * 5000,
                         "--field", "flat-position")
    assert (code, out) == (2, "")
    assert err == "error: flat dimension of 5000 digits exceeds the bound 2048\n"


def test_flat_dimension_of_non_ascii_digits_is_unrecognized(capsys):
    # an Arabic-Indic three is no dimension, though int() reads it as 3
    code, out, err = run(capsys, "verify-ky", "--manifold", "flat\u0663",
                         "--field", "flat-position")
    assert (code, out, err) == (2, "", "error: unrecognized manifold name 'flat\u0663'\n")


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


@pytest.mark.parametrize("manifold, message", [
    ({"kind": "taub-nut", "params": {"m": 10 ** 400}}, "manifold parameter 'm' must be finite"),
    ({"kind": "taub-nut", "params": {"x" * 400: 1.0}}, "unknown parameter(s) 'xxx"),
    ("taub-nut:" + "m" * 400, "bad manifold parameter 'mmm"),
    ("t" * 400, "unrecognized manifold name 'ttt"),
], ids=["int-too-large-for-a-float", "long-key", "long-cli-parameter", "long-name"])
def test_a_long_manifold_value_is_echoed_cut_short(tmp_path, capsys, manifold, message):
    if isinstance(manifold, dict):
        manifold = write_json(tmp_path / "m.json", manifold)
    code, out, err = run(capsys, "verify-ky", "--manifold", manifold, "--field", "taubnut-1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and "..." in err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("kind, text, message", [
    ("field", '{"dim": %s, "rank": 2, "components": {"12": 1}}',
     "field 'dim' must be an integer, got integer of 5000 digits"),
    ("field", '{"dim": 3, "rank": 2, "components": {"12": -%s}}',
     "field component '12' must be an expression or a finite number, got integer of 5000 digits"),
    ("manifold", '{"kind": "flat", "dim": %s}',
     "manifold 'dim' must be an integer, got integer of 5000 digits"),
    ("manifold", '{"kind": "taub-nut", "params": {"m": %s}}',
     "manifold parameter 'm' must be finite, got integer of 5000 digits"),
], ids=["field-dim", "field-component", "manifold-dim", "manifold-parameter"])
def test_a_json_integer_past_the_conversion_limit_names_its_key(tmp_path, capsys, kind, text,
                                                                message):
    # int() refuses more than 4300 digits; the literal is kept for the key's own check
    path = tmp_path / f"{kind}.json"
    path.write_text(text % ("9" * 5000), encoding="utf-8")
    args = ["--manifold", "flat3", "--field", str(path)] if kind == "field" else [
        "--manifold", str(path), "--field", "flat-position"]
    code, out, err = run(capsys, "verify-ky", *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


_DEEP = {"sum": ("+".join(["x1"] * 3000), "an expression is too long to evaluate"),
         "parentheses": ("(" * 3000 + "x1" + ")" * 3000, "nesting deeper than 100 levels (offset 100)"),
         "unary": ("-" * 3000 + "x1", "nesting deeper than 100 levels (offset 100)")}


@pytest.mark.parametrize("kind", sorted(_DEEP))
def test_a_deep_or_long_expression_is_one_error_line(tmp_path, capsys, kind):
    source, message = _DEEP[kind]
    field = write_json(tmp_path / "f.json", {"dim": 3, "rank": 2, "components": {"12": source}})
    code, out, err = run(capsys, "verify-ky", "--manifold", "flat3", "--field", field)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    manifold = write_json(tmp_path / "m.json", {"kind": "custom",
                                                "metric": [[source, "0"], ["0", "1"]]})
    csv = tmp_path / "g.csv"
    code, out, err = run(capsys, "geodesic", "--manifold", manifold, "--x0", "1,1", "--p0", "1,0",
                         "--dt", "0.01", "--steps", "3", "--out", str(csv))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not os.path.exists(csv)


def test_a_sum_of_400_terms_evaluates(tmp_path, capsys):
    source = "+".join(["x1"] * 400)
    field = write_json(tmp_path / "f.json", {"dim": 3, "rank": 2, "components": {"12": source}})
    code, out, err = run(capsys, "verify-ky", "--manifold", "flat3", "--field", field)
    assert code == 1 and err == ""  # 400 x1 dx1^dx2 is not KY
    assert json.loads(out)["report"]["max_ky_residual"] == 800.0  # |D_1 f_12 + D_1 f_12|
    manifold = write_json(tmp_path / "m.json", {"kind": "custom",
                                                "metric": [[source, "0"], ["0", "1"]]})
    code, out, err = run(capsys, "geodesic", "--manifold", manifold, "--x0", "1,1", "--p0", "1,0",
                         "--dt", "0.01", "--steps", "3", "--out", str(tmp_path / "g.csv"))
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("p0", ["nan,0,0", "0,inf,0"])
def test_a_non_finite_start_momentum_is_an_input_error(tmp_path, capsys, p0):
    csv = tmp_path / "g.csv"
    code, out, err = run(capsys, "geodesic", "--manifold", "flat3", "--x0", "0,0,0",
                         "--p0", p0, "--dt", "0.01", "--steps", "5", "--out", str(csv))
    assert (code, out, err) == (2, "", "error: start momentum has non-finite components\n")
    assert not os.path.exists(csv) and not os.path.exists(f"{csv}.json")


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


def test_manifold_params_must_be_an_object(tmp_path):
    manifold = write_json(tmp_path / "m.json", {"kind": "taub-nut", "params": [1]})
    src = os.path.dirname(os.path.dirname(kyano.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "kyano.cli", "verify-ky", "--manifold", manifold,
         "--field", "flat-position", "--samples", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "'params' must be an object" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-ky", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_geodesic_has_no_seed_option(tmp_path, capsys):
    # a geodesic draws nothing at random, so a seed would be ignored input
    with pytest.raises(SystemExit) as exc:
        main(["geodesic", "--manifold", "flat2", "--x0", "0,0", "--p0", "1,0", "--dt", "0.1",
              "--steps", "2", "--seed", "99", "--format", "json", "--out",
              str(tmp_path / "g.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kyano ") and "unrecognized arguments: --seed 99" in err
    assert "Traceback" not in err and not os.listdir(tmp_path)


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
        "--x0", "2,0,0", "--p0", "1,0,0", "--dt", "0.01", "--steps", "5", "--format", "json",
    )
    assert code == 2
    assert err.startswith("error: outside the chart domain")


def test_geodesic_bad_vector_length(capsys):
    code, _, err = run(
        capsys, "geodesic", "--manifold", "flat3",
        "--x0", "0,0", "--p0", "1,0,0", "--dt", "0.01", "--steps", "5",
    )
    assert code == 2
    assert "--x0" in err


@pytest.mark.parametrize("argv, message", [
    (["flat3", "1,a,0", "0,1,0", "--out", "CSV"], "--x0 must be comma-separated numbers"),
    (["flat3", "1,0,0", "0,1,0", "--monitor", "K", "--field", "taubnut-1", "--out", "CSV"],
     "taubnut-N fields require a taub-nut manifold"),
    (["taub-nut", "1,1,0,0", "0,1,0,0", "--monitor", "L3", "--out", "CSV"],
     "L components are defined on 3-dimensional manifolds"),
    (["flat3", "1,0,0", "0,1,0"], "csv output requires --out PATH"),
    (["flat3", "1,0,0", "0,1,0", "--monitor", "H,L3,H", "--out", "CSV"],
     "monitor quantity 'H' is repeated"),
    (["flat3", "1,0,0", "0,1,0", "--monitor", "L3, L3", "--out", "CSV"],
     "monitor quantity 'L3' is repeated"),
], ids=["non-numeric-x0", "taub-nut-field-on-flat", "L3-on-taub-nut", "csv-without-out",
        "repeated-monitor", "repeated-monitor-spaced"])
def test_geodesic_input_error_exits_before_integrating(tmp_path, capsys, monkeypatch, argv,
                                                        message):
    def integrate(*args):
        raise AssertionError("integrated")

    monkeypatch.setattr(cli, "geodesic_integrate", integrate)
    (manifold, x0, p0, *options), csv = argv, str(tmp_path / "g.csv")
    options = [csv if o == "CSV" else o for o in options]
    code, out, err = run(capsys, "geodesic", "--manifold", manifold, "--x0", x0, "--p0", p0,
                         "--dt", "0.01", "--steps", "5", *options)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not os.path.exists(csv)


def test_geodesic_steps_too_large_for_memory(capsys):
    # 1e15 states of 6 floats are about 42 PiB: refused before any step,
    # with the process's peak resident size (KiB on Linux) left as it was
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code, out, err = run(
        capsys, "geodesic", "--manifold", "flat3", "--x0=0,0,0", "--p0=1,0,0",
        "--dt", "0.01", "--steps", "1000000000000000", "--format", "json",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: steps=1000000000000000 is too large")
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss < 2**16


def _python_m_kyano(*argv):
    src = os.path.dirname(os.path.dirname(kyano.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "kyano", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_python_m_kyano_runs_the_cli():
    proc = _python_m_kyano("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: kyano")


def test_geodesic_from_tiny_sqrt_argument_has_no_traceback(tmp_path):
    # sqrt's second-derivative factor underflows there; the 1-jets the
    # integrator uses do not need it
    manifold = write_json(tmp_path / "m.json", TINY_SQRT)
    proc = _python_m_kyano(
        "geodesic", "--manifold", manifold, "--x0=5e-324,0,0", "--p0=1,0,0",
        "--dt", "0.01", "--steps", "10", "--out", str(tmp_path / "t.csv"),
    )
    # an RK4 stage reaches infinite momenta: the run truncates before numpy
    # sees them, so no RuntimeWarning joins the one warning line
    assert proc.returncode == 1
    assert proc.stderr == "warning: truncated after 0 steps (state left the finite range)\n"
    assert (tmp_path / "t.csv.json").exists()


def test_geodesic_through_a_degenerate_metric_truncates(tmp_path, capsys):
    manifold = write_json(tmp_path / "m.json", DEGENERATE)
    out = str(tmp_path / "t.csv")
    code, _, err = run(
        capsys, "geodesic", "--manifold", manifold, "--x0=0.5,0", "--p0=-1,1e-8",
        "--dt", "0.01", "--steps", "100", "--out", out,
    )
    assert code == 1
    assert err == "warning: truncated after 49 steps (metric matrix is singular at this point)\n"
    sidecar = json.loads((tmp_path / "t.csv.json").read_text())
    assert sidecar["integration"]["steps_completed"] == 49
    assert sidecar["drift"]["H"]["abs"] < 1e-12


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


def test_outputs_follow_the_umask(tmp_path, capsys):
    old = os.umask(0o022)
    try:
        code, _, _ = run(
            capsys, "geodesic", "--manifold", "flat3", "--x0", "0,0,0", "--p0", "1,0,0",
            "--dt", "0.01", "--steps", "3", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0
        code, _, _ = run(
            capsys, "report", "--samples", "2", "--out", str(tmp_path / "r.json")
        )
        assert code == 0
    finally:
        os.umask(old)
    for name in ("t.csv", "t.csv.json", "r.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name


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


def test_a_skip_does_not_carry_over_to_the_next_call(capsys):
    # the parser is built once per process: its append default must stay empty
    code, out, _ = run(capsys, "report", "--samples", "2", "--skip", "taub-nut")
    assert code == 0 and json.loads(out)["sections"]["taub-nut"] == {"skipped": True}
    code, out, _ = run(capsys, "report", "--samples", "2")
    assert code == 0
    assert not any(section.get("skipped") for section in json.loads(out)["sections"].values())
    assert kyano.cli.build_parser() is kyano.cli.build_parser()


def test_report_unknown_section_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--skip", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- argv fuzzing -------------------------------------------------------------

NUMBERS = ["0", "1", "-1", "0.5", "0.01", "5e-324", "-5e-324", "1e308", "-1e308",
           "nan", "inf", "-inf"]
# kyano's own lines, and argparse's usage block and error line
STDERR_LINE = re.compile(r"(error|warning): |usage: |\s|kyano( [a-z-]+)?: error: ")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    return {"out": str(base / "out.csv"), "manifolds": [
        write_json(base / "degenerate.json", DEGENERATE),
        write_json(base / "tiny_sqrt.json", TINY_SQRT),
    ]}


@st.composite
def cli_argv(draw, files):
    """Argv for one subcommand and the start of the one error line it must give, or None:
    its required options, one of them perhaps dropped, and any of the rest, values from
    valid and hostile sets; or an argv valid but for a bad --tol or a repeated --monitor
    label, which only that input check rejects."""
    target = draw(st.sampled_from([None, None, "--tol", "--monitor"]))
    if target == "--tol":
        command = draw(st.sampled_from([
            ["verify-ky", "--manifold=flat3", "--field=flat-position", "--samples=5"],
            ["verify-ky", "--manifold=const-curvature", "--field=flat-position", "--samples=3"],
            ["verify-ky", "--manifold=taub-nut", "--field=taubnut-1", "--samples=2"],
            ["multipole", "--samples=5"]]))
        bad = draw(st.sampled_from(["nan", "inf", "-inf", "-1", "-5e-324", "1e400"]))
        return command + [f"--tol={bad}"], "error: --tol must be a finite number at least 0, got "
    if target == "--monitor":
        labels = draw(st.lists(st.sampled_from(["H", "K", "L3"]), min_size=1, max_size=3,
                               unique=True))
        monitor = draw(st.sampled_from([",", ", "])).join(labels + [draw(st.sampled_from(labels))])
        return ["geodesic", "--manifold=flat3", "--x0=1,0,0", "--p0=0,1,0", "--dt=0.01",
                "--steps=10", "--field=flat-position", f"--monitor={monitor}",
                f"--out={files['out']}"], "error: monitor quantity "
    manifold, dim = draw(st.sampled_from([
        ("flat2", 2), ("flat3", 3), ("flat4", 4), ("const-curvature", 3),
        ("const-curvature:K=-1", 3), ("const-curvature:K=1e308", 3),
        ("const-curvature:K=5e-324", 3), ("taub-nut", 4), ("taub-nut:m=2,fiber_scale=4", 4),
        ("taub-nut:m=5e-324", 4), ("taub-nut:m=1e308", 4), ("torus", 3),
        (files["manifolds"][0], 2), (files["manifolds"][1], 3)]))
    # mostly of the manifold's dimension, so that runs get past the parser
    vector = st.sampled_from([dim, dim, dim, 1, 5]).flatmap(
        lambda k: st.lists(st.sampled_from(NUMBERS), min_size=k, max_size=k)).map(",".join)
    options = {
        "--manifold": st.just(manifold),
        "--field": st.sampled_from(["flat-position", "flat-momentum", "taubnut-1",
                                    "taubnut-3", "taubnut-4"]),
        "--x0": vector,
        "--p0": vector,
        "--dt": st.sampled_from(NUMBERS),
        "--steps": st.sampled_from(["-1", "0", "1", "10", "200", "1e3"]),
        "--samples": st.sampled_from(["-3", "0", "1", "5", "20"]),
        "--monitor": st.sampled_from(["H", "K", "H,K", "L1", "H,L3", "Q"]),
        "--format": st.sampled_from(["json", "table", "csv"]),
        "--seed": st.sampled_from(["0", "7", "-1", "x"]),
        "--tol": st.sampled_from(NUMBERS),
        "--skip": st.sampled_from(["multipole", "flat-ky", "taub-nut", "bogus"]),
        "--out": st.just(files["out"]),
    }
    required = {
        "verify-ky": ["--manifold", "--field", "--samples"],
        "geodesic": ["--manifold", "--x0", "--p0", "--dt", "--steps", "--out"],
        "multipole": ["--samples"],
        "report": ["--samples"],
        "torus": [],
    }
    command = draw(st.sampled_from(sorted(required)))
    names = list(required[command])
    dropped = draw(st.sampled_from([None, *names]))
    extra = draw(st.sets(st.sampled_from(sorted(set(options) - set(names)))))
    names = [k for k in names if k != dropped] + sorted(extra)
    return [command] + [f"{k}={draw(options[k])}" for k in names], None


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_keeps_the_exit_code_contract(fuzz_files, data):
    argv, error = data.draw(cli_argv(fuzz_files), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    for line in err.getvalue().splitlines():
        assert STDERR_LINE.match(line), line
    if error:  # the one input check that rejects it
        assert code == 2 and err.getvalue().startswith(error) and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("value", [10**400, None, [1.0], True],
                         ids=["int-too-large-for-a-float", "null", "list", "bool"])
def test_manifold_file_parameter_that_is_no_float_is_an_input_error(tmp_path, capsys, value):
    path = write_json(tmp_path / "m.json", {"kind": "taub-nut", "params": {"m": value}})
    code, _, err = run(capsys, "verify-ky", "--manifold", path, "--field", "taubnut-1",
                       "--samples", "2")
    assert code == 2
    assert err.startswith("error: manifold parameter 'm' must be finite") and err.count("\n") == 1


def test_manifold_file_with_an_unknown_parameter_is_an_input_error(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", {"kind": "taub-nut", "params": {"mass": 3}})
    code, _, err = run(capsys, "verify-ky", "--manifold", path, "--field", "taubnut-1",
                       "--samples", "2")
    assert code == 2
    assert err == "error: unknown parameter(s) 'mass' for manifold 'taub-nut'\n"
    code, _, err = run(capsys, "verify-ky", "--manifold", "taub-nut:mass=3", "--field",
                       "taubnut-1", "--samples", "2")
    assert code == 2 and "Traceback" not in err and "'mass'" in err


@pytest.mark.parametrize("params", ["m=1e200", "m=1e160", "m=1e154,fiber_scale=4"])
@pytest.mark.parametrize("command", ["verify-ky", "geodesic"])
def test_taub_nut_mass_whose_fiber_coefficient_overflows_is_an_input_error(
        tmp_path, capsys, params, command):
    # (fiber_scale * m)^2 overflows a float: one error line, exit 2, from a name or a file
    kwargs = dict(p.split("=") for p in params.split(","))
    path = write_json(tmp_path / "m.json", {"kind": "taub-nut", "params": {
        k: float(v) for k, v in kwargs.items()}})
    args = {"verify-ky": ["--field", "taubnut-1", "--samples", "2"],
            "geodesic": ["--x0", "1,1,0,0", "--p0", "1,0,0,0", "--dt", "0.1", "--steps", "2",
                         "--out", str(tmp_path / "g.csv")]}[command]
    for manifold in (f"taub-nut:{params}", path):
        code, _, err = run(capsys, command, "--manifold", manifold, *args)
        assert code == 2
        assert err.startswith("error: fiber coefficient") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "g.csv")
