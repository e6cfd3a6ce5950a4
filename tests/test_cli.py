"""Command line interface: artifacts, determinism, schema, exit codes."""
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fractalzeta import acceptance, cli, geometry, spectrum, zeta

D_CARPET2 = 1.892789260714372


def run(argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("fractalzeta") / "schema.json").read_text("utf-8")
    return json.loads(text)


def read_json(path):
    return json.loads(path.read_text("utf-8"))


# --- tube ---------------------------------------------------------------------


def test_tube_csv_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["tube", "--set", "cantor", "--tmin", "1e-4", "--tmax", "1e-1"]
    assert run(base + ["--output", str(out1)]) == 0
    assert run(base + ["--output", str(out2)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.startswith(b"t,volume")
    assert len(data.splitlines()) > 40


def test_tube_json_artifact_validates(tmp_path, schema):
    out = tmp_path / "tube.json"
    assert run(["tube", "--set", "carpet2", "--t", "0.1,0.03", "--format",
                "json", "--output", str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["artifact"] == "tube"
    assert art["full"] is False
    assert len(art["rows"]) == 2
    assert art["rows"][0]["volume"] == pytest.approx(221.0 / 225.0, rel=1e-12)


def test_tube_full_flag(tmp_path, schema):
    out = tmp_path / "tube.json"
    assert run(["tube", "--set", "cantor", "--t", str(1.0 / 18.0), "--full",
                "--format", "json", "--output", str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["full"] is True
    assert art["rows"][0]["volume"] == pytest.approx(8.0 / 9.0, rel=1e-12)


def test_tube_requires_grid(capsys):
    assert run(["tube", "--set", "cantor"]) == 2
    assert "error:" in capsys.readouterr().err


def test_tube_requires_set(capsys):
    assert run(["tube", "--t", "0.1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_emit_plot_data(tmp_path):
    plot = tmp_path / "plot.csv"
    assert run(["tube", "--set", "cantor", "--t", "0.1,0.01",
                "--emit-plot-data", str(plot)]) == 0
    lines = plot.read_text("utf-8").strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 3


# --- dims ---------------------------------------------------------------------


def test_dims_artifact_with_envelope(tmp_path, schema):
    out = tmp_path / "dims.json"
    assert run(["dims", "--set", "cantor", "--tmin", "1e-6", "--tmax", "1e-2",
                "--dim", "0.6309297535714574", "--output", str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["artifact"] == "dims"
    assert art["dimEstimate"] == pytest.approx(0.6309, abs=0.01)
    assert art["envelope"] is not None
    assert art["envelope"]["lowerEst"] < art["envelope"]["upperEst"]


def test_dims_artifact_without_envelope(tmp_path, schema):
    out = tmp_path / "dims.json"
    assert run(["dims", "--set", "astring", "--a", "1", "--tmin", "1e-6",
                "--tmax", "1e-3", "--output", str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["envelope"] is None
    assert art["dimEstimate"] == pytest.approx(0.5, abs=0.01)


# --- zeta ---------------------------------------------------------------------


def test_zeta_closed_artifact(tmp_path, schema):
    out = tmp_path / "zeta.json"
    assert run(["zeta", "--set", "carpet2", "--re", "2", "--output",
                str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["method"] == "closed"
    expected = zeta.distance_zeta_closed(geometry.carpet(2), 2.0 + 0.0j)
    assert art["value"]["re"] == pytest.approx(expected.real, rel=1e-14)
    assert art["value"]["im"] == pytest.approx(0.0, abs=1e-15)


def test_zeta_quad_matches_library(tmp_path):
    out = tmp_path / "q.json"
    assert run(["zeta", "--set", "cantor", "--re", "0.9", "--im", "1.0",
                "--method", "quad", "--delta", str(1.0 / 6.0), "--output",
                str(out)]) == 0
    art = read_json(out)
    est = zeta.tube_zeta_quad(geometry.cantor_set(2, 1.0 / 3.0), 0.9 + 1.0j,
                              1.0 / 6.0)
    assert art["value"]["re"] == pytest.approx(est.value.real, rel=1e-12)
    assert art["value"]["im"] == pytest.approx(est.value.imag, rel=1e-12)
    assert art["quadErrBound"] == pytest.approx(est.quad_err_bound, rel=1e-12)
    assert abs(complex(art["value"]["re"], art["value"]["im"])
               - est.value) <= est.quad_err_bound + 1e-12


def test_zeta_quad_on_a_string_near_dimension(tmp_path, schema):
    # 0.027 right of D = 1/3, where the old fitted tail could not meet tol
    out = tmp_path / "q.json"
    assert run(["zeta", "--set", "astring", "--a", "2", "--re", "0.36", "--im", "0.3",
                "--method", "quad", "--delta", "0.5", "--output", str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["quadErrBound"] <= 1e-10 * abs(complex(art["value"]["re"], art["value"]["im"]))


def test_zeta_mc_seeded_determinism(tmp_path, schema):
    args = ["zeta", "--set", "carpet2", "--re", "1.95", "--method", "mc",
            "--n", "20000"]
    f1, f2, f3 = (tmp_path / n for n in ("1.json", "2.json", "3.json"))
    assert run(args + ["--seed", "11", "--output", str(f1)]) == 0
    assert run(args + ["--seed", "11", "--output", str(f2)]) == 0
    assert run(args + ["--seed", "12", "--output", str(f3)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_bytes() != f3.read_bytes()
    art = read_json(f1)
    jsonschema.validate(art, schema)
    assert art["samples"] == 20000
    assert art["stdErr"] > 0


def test_zeta_mc_requires_seed(capsys):
    assert run(["zeta", "--set", "carpet2", "--re", "1.95", "--method",
                "mc"]) == 2
    assert "seed" in capsys.readouterr().err


def test_zeta_mc_negative_seed_exits_2(capsys):
    assert run(["zeta", "--set", "carpet2", "--re", "1.97", "--method", "mc",
                "--n", "1000", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be a non-negative integer, not -1" in err


def test_zeta_quad_at_the_dimension_exits_2(capsys):
    assert run(["zeta", "--set", "cantor", "--re", "0.6309297535714584",
                "--method", "quad", "--delta", "0.1"]) == 2
    assert "error:" in capsys.readouterr().err
    # δ = 0 is refused, not read as unset
    assert run(["zeta", "--set", "cantor", "--re", "0.9", "--method", "quad",
                "--delta", "0"]) == 2
    assert "delta must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    (["--full", "--delta", "0"], "delta must be positive"),
    (["--full", "--delta", "inf"], "delta must be positive"),
    (["--im", "nan"], "s must be finite"),
])
def test_zeta_mc_bad_input_exits_2(capsys, extra, message):
    # refused before any sample is drawn; δ = 0 printed "math domain error"
    assert run(["zeta", "--set", "carpet2", "--re", "1.97", "--method", "mc",
                "--n", "1000", "--seed", "1", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_zeta_mc_with_infinite_variance_exits_2(capsys):
    assert run(["zeta", "--set", "carpet2", "--re", "1.92", "--method", "mc",
                "--n", "1000", "--seed", "11"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(N + D)/2 = 1.94639" in err


def test_zeta_closed_unavailable_for_flat_drum(capsys):
    assert run(["zeta", "--set", "flat", "--re", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "no closed zeta form for kind 'flatDrum'" in err


@pytest.mark.parametrize("argv", [
    ["tube", "--set", "cantor", "--t", "0.1", "--scale", "inf"],
    ["zeta", "--set", "cantor", "--re", "1.2", "--scale", "nan"],
], ids=["tube scale inf", "zeta scale nan"])
def test_non_finite_scale_exits_2(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "scale must be positive and finite" in err


@pytest.mark.parametrize("argv, message", [
    (["tubeformula", "--ratios", "0.5,0.3", "--t", "nan"], "t must be positive and finite"),
    (["tubeformula", "--set", "carpet2", "--t", "inf"], "t must be positive and finite"),
    (["poles", "--ratios", "0.5,nan", "--window=-1:0.99:5"], "ratios must lie in (0, 1)"),
    (["tubeformula", "--ratios", "0.5,nan", "--t", "0.1"], "ratios must lie in (0, 1)"),
], ids=["spray t nan", "carpet2 t inf", "poles ratio nan", "spray ratio nan"])
def test_non_finite_t_or_ratio_exits_2(capsys, argv, message):
    # a nan t ran ~13 s and ended in a traceback, an inf t in a JSON error, a nan
    # ratio in "cannot convert float NaN to integer"
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


# scipy is a test dependency only: with it blocked, every import of it raises
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from fractalzeta import cli
for argv in (["verify"],
             ["zeta", "--set", "flat", "--method", "quad", "--re", "-2", "--im", "3",
              "--delta", "1.2"],
             ["dims", "--set", "flat", "--tmin", "1e-4", "--tmax", "1e-2"],
             ["tube", "--set", "flat", "--tmin", "1e-12", "--tmax", "1.2"],
             ["zeta", "--set", "astring", "--a", "2", "--re", "0.36", "--im", "0.3",
              "--method", "quad", "--delta", "0.5"],
             ["zeta", "--set", "nest", "--re", "1.7", "--im", "0.5"],
             ["poles", "--set", "nest", "--window=-0.5:1.99:10"],
             ["tubeformula", "--set", "nest", "--t", "1e-6"]):
    code = cli.main(argv)
    assert code == 0, (argv, code)
"""


def test_flat_drum_and_verify_run_without_scipy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "14/14 criteria passed" in res.stdout


# --- poles ---------------------------------------------------------------------


def test_poles_artifact_and_determinism(tmp_path, schema):
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    args = ["poles", "--set", "carpet2", "--window", "-0.5:1.99:12"]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    art = read_json(out1)
    jsonschema.validate(art, schema)
    assert art["source"] == "carpet2"
    res = [p for p in art["poles"] if abs(p["re"] - D_CARPET2) < 1e-9]
    assert len(res) >= 3  # dimension line with oscillatory companions
    assert any(p["im"] == 0 for p in res)


def test_json_artifact_is_one_compact_sorted_line():
    payload = {"b": [1.5, -0.0, 1e-300, 0.1 + 0.2], "a": {"z": "ζ", "y": 2}}
    text = cli._json_artifact(payload)
    assert text == '{"a": {"y": 2, "z": "ζ"}, "b": [1.5, -0.0, 1e-300, 0.30000000000000004]}\n'
    assert json.loads(text) == payload
    with pytest.raises(ValueError):
        cli._json_artifact({"x": math.nan})


@pytest.mark.parametrize("source, window, find", [
    (["--set", "carpet3"], spectrum.Window(-0.5, 2.98, 60.0),
     lambda w: spectrum.poles(zeta.catalog_form(geometry.carpet(3)), w)),
    (["--ratios", "0.5,0.3,0.2"], spectrum.Window(-1.0, 0.99, 40.0),
     lambda w: spectrum.spray_dims((0.5, 0.3, 0.2), w)),
], ids=["carpet3", "spray"])
def test_poles_artifact_loads_back_to_library_arrays(tmp_path, schema, source, window, find):
    # floats are written by repr, which round-trips exactly
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    args = ["poles", *source, f"--window={window.sigma_left}:{window.sigma_right}:{window.tau_max}"]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == 1
    art = json.loads(data)
    jsonschema.validate(art, schema)
    ps = find(window)
    assert len(art["poles"]) == len(ps) > 10
    assert all(p["order"] == 1 for p in art["poles"])
    for key, want in (("re", ps.omega.real), ("im", ps.omega.imag),
                      ("res_re", ps.residue.real), ("res_im", ps.residue.imag)):
        assert np.array_equal(np.array([p[key] for p in art["poles"]]), want), key


def test_poles_window_glue_accepts_space_separated_negative(tmp_path):
    out = tmp_path / "p.json"
    assert run(["poles", "--set", "carpet2", "--window", "-1:1.99:20",
                "--output", str(out)]) == 0
    art = read_json(out)
    assert any(abs(p["re"] - D_CARPET2) < 1e-9 and p["im"] == 0
               for p in art["poles"])


def test_poles_spray_source(tmp_path, schema):
    out = tmp_path / "p.json"
    assert run(["poles", "--ratios", "0.5,0.25,0.25", "--window",
                "-0.5:1.5:10", "--output", str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["source"] == "spray"
    assert any(abs(p["re"] - 1.0) < 1e-9 and p["im"] == 0 for p in art["poles"])


def test_poles_bad_window_exits_2(capsys):
    assert run(["poles", "--set", "carpet2", "--window", "1:2"]) == 2
    assert "error:" in capsys.readouterr().err


# --- tubeformula ------------------------------------------------------------------


def test_tubeformula_artifact(tmp_path, schema):
    out = tmp_path / "tf.json"
    assert run(["tubeformula", "--set", "carpet2", "--t", "0.03", "--kmax",
                "50", "--output", str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["artifact"] == "tubeformula"
    assert art["absError"] < 1e-6
    assert art["imagResidual"] < 1e-12
    assert art["formulaValue"] == pytest.approx(art["oracleValue"], rel=1e-4)


def test_tubeformula_spray_source(tmp_path, schema):
    out = tmp_path / "tf.json"
    assert run(["tubeformula", "--ratios", "0.5,0.25", "--generator",
                "interval", "--t", "0.01", "--window", "-1:0.99:220",
                "--output", str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["source"] == "spray:interval"
    assert art["absError"] < 1e-4 * art["oracleValue"]


# --- quasi -----------------------------------------------------------------------


def test_quasi_pair_artifact(tmp_path, schema):
    out = tmp_path / "qp.json"
    assert run(["quasi", "--m1", "2", "--m2", "3", "--dim", "0.5", "--band",
                "4", "--output", str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["mode"] == "pair"
    assert art["bases"] == [2, 3]
    assert art["ratios"][0] == pytest.approx(0.25, rel=1e-14)
    assert len(art["principalDims"]) == 3


def test_quasi_pair_requires_m2(capsys):
    assert run(["quasi", "--m1", "2", "--dim", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_quasi_dependent_bases_exit_2(capsys):
    assert run(["quasi", "--m1", "2", "--m2", "4", "--dim", "0.5"]) == 2
    assert "dependent" in capsys.readouterr().err


def test_quasi_hyper_band_with_one_ordinate_exits_2(capsys):
    assert run(["quasi", "--hyper", "--K", "1", "--dim", "0.5", "--band", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fewer than two distinct singularity ordinates" in err


def test_quasi_hyper_artifact(tmp_path, schema):
    out = tmp_path / "qh.json"
    assert run(["quasi", "--hyper", "--K", "3", "--dim", "0.5", "--output",
                str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["mode"] == "hyperfractal"
    assert art["bases"] == [2, 3, 5]
    assert art["minGap"] == pytest.approx(0.06678843533661905, rel=1e-12)
    assert art["summable"] is True
    assert art["mergedCount"] > 0


# --- verify -----------------------------------------------------------------------


def test_verify_single_suite_text(capsys):
    assert run(["verify", "--suite", "measurability"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_json_artifact(tmp_path, schema):
    out = tmp_path / "verify.json"
    assert run(["verify", "--suite", "quasiperiodic", "--format", "json",
                "--output", str(out)]) == 0
    art = read_json(out)
    jsonschema.validate(art, schema)
    assert art["artifact"] == "verify"
    assert art["passed"] is True
    assert all(r["passed"] for r in art["results"])


def test_verify_json_to_stdout_with_numpy_verdicts(capsys, schema):
    # the flat-drum criterion computes its verdict with numpy
    assert run(["verify", "--suite", "flat-drum", "--format", "json"]) == 0
    art = json.loads(capsys.readouterr().out)
    jsonschema.validate(art, schema)
    assert art["passed"] is True
    assert all(r["passed"] is True for r in art["results"])


def test_verify_unknown_suite(capsys):
    assert run(["verify", "--suite", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_reports_failure_with_exit_1(monkeypatch, capsys):
    def always_fails():
        return False, "intentional"

    monkeypatch.setattr(acceptance, "CRITERIA",
                        acceptance.CRITERIA + (("A99", "synthetic failure",
                                                always_fails),))
    monkeypatch.setitem(acceptance.SUITES, "failing", ("A99",))
    assert run(["verify", "--suite", "failing"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "A99" in out


# --- argparse-level errors -----------------------------------------------------------


def test_unknown_set_choice_rejected():
    with pytest.raises(SystemExit):
        run(["tube", "--set", "pentagon", "--t", "0.1"])


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        run(["frobnicate"])


# --- schema self-checks ---------------------------------------------------------------


def test_schema_rejects_extra_properties(schema):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"artifact": "tube", "bogus": 1}, schema)


def test_schema_rejects_wrong_types(tmp_path, schema):
    out = tmp_path / "tube.json"
    run(["tube", "--set", "cantor", "--t", "0.1", "--format", "json",
         "--output", str(out)])
    art = read_json(out)
    art["rows"][0]["volume"] = "not-a-number"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(art, schema)
