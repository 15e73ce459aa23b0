import contextlib
import io
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import curvecharts as cc
from curvecharts import shapes
from curvecharts.cli import main as cli_main


def run_cli(*argv):
    # in-process invocation: same argv contract and exit codes as the
    # installed entry point, without interpreter start-up per test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def test_entry_point_subprocess():
    # one end-to-end check that the module really runs as a program
    r = subprocess.run([sys.executable, "-m", "curvecharts.cli",
                        "validate", "--make", "circle", "--grid", "64"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["embedding"] is True


def test_validate_circle_report():
    r = run_cli("validate", "--make", "circle", "--grid", "64")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["embedding"] is True
    assert rep["min_speed"] == pytest.approx(1.0, abs=1e-10)
    assert rep["separation"] is None  # convex: no admissible strand pair
    assert rep["reach"] == pytest.approx(0.9, abs=1e-6)


def test_validate_torus_geodesic_separation():
    r = run_cli("validate", "--make", "torus-geodesic:wx=2,wy=1", "--grid", "128")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["separation"] == pytest.approx(1 / np.sqrt(5), rel=1e-2)


def test_validate_non_embedding_exit_3():
    r = run_cli("validate", "--make", "lemniscate", "--grid", "128")
    assert r.returncode == 3
    assert json.loads(r.stdout)["embedding"] is False


def test_truncated_curve_file_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    good = json.dumps(cc.files.curve_to_dict(shapes.circle(32)))
    p.write_text(good[: len(good) // 2])
    r = run_cli("validate", "--curve", str(p))
    assert r.returncode == 2


def test_unknown_generator_exit_2():
    r = run_cli("validate", "--make", "trefoil", "--grid", "64")
    assert r.returncode == 2


def test_ambient_mismatch_exit_2(tmp_path):
    p = tmp_path / "c.json"
    cc.save_curve(shapes.circle(32), str(p))
    r = run_cli("validate", "--curve", str(p),
                "--ambient", json.dumps({"kind": "flat_torus", "dim": 2}))
    assert r.returncode == 2


def test_roundtrip_concentric_exit_0(tmp_path):
    center, target = tmp_path / "center.json", tmp_path / "target.json"
    cc.save_curve(shapes.circle(64), str(center))
    cc.save_curve(shapes.circle(64, radius=1.1), str(target))
    r = run_cli("roundtrip", "--center", str(center), "--curve", str(target))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["section_sup_norm"] == pytest.approx(0.1, abs=1e-8)
    assert rep["image_distance"] <= 1e-6
    assert rep["reparam_slope_min"] > 0
    assert rep["rho"] == pytest.approx(0.9, abs=1e-6)


def test_roundtrip_far_translate_exit_4(tmp_path):
    center, target = tmp_path / "center.json", tmp_path / "target.json"
    cc.save_curve(shapes.circle(64), str(center))
    far = cc.Embedding(cc.Euclidean(2), shapes.circle(64).pts + [2.0, 0.0])
    cc.save_curve(far, str(target))
    r = run_cli("roundtrip", "--center", str(center), "--curve", str(target))
    assert r.returncode == 4


def test_roundtrip_missing_center_exit_2():
    r = run_cli("roundtrip", "--make", "circle", "--grid", "64")
    assert r.returncode == 2


def test_minimize_torus_length(tmp_path):
    out = tmp_path / "min.json"
    r = run_cli("minimize", "--make", "torus-geodesic:wx=1,wy=0,wiggle=0.05,seed=1",
                "--grid", "64", "--functional", "length", "--max-iter", "2000",
                "--output", str(out))
    assert r.returncode == 0
    y = cc.load_curve(str(out))
    assert abs(cc.length(y) - 1.0) <= 1e-5
    trace = (tmp_path / "min.json.trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iter,f,grad_norm,step,recenter"
    fs = [float(l.split(",")[1]) for l in trace[1:]]
    assert fs[-1] <= fs[0]


def test_minimize_circle_newton(tmp_path):
    out = tmp_path / "circ.json"
    r = run_cli("minimize", "--make", "perturbed-circle:amplitude=0.05,seed=7",
                "--grid", "128", "--functional", "length-1.0*area",
                "--newton", "--newton-threshold", "0.05",
                "--tol", "1e-10", "--max-iter", "3000", "--output", str(out))
    assert r.returncode == 0
    y = cc.load_curve(str(out))
    assert np.max(np.abs(cc.curvature(y) - 1.0)) <= 1e-6


def test_minimize_budget_exhausted_exit_5():
    r = run_cli("minimize", "--make", "torus-geodesic:wx=1,wy=0,wiggle=0.08,seed=2",
                "--grid", "64", "--functional", "length", "--max-iter", "1")
    assert r.returncode == 5
    rep = json.loads(r.stdout)
    assert rep["converged"] is False


def test_minimize_stdout_embeds_curve_and_trace():
    r = run_cli("minimize", "--make", "torus-geodesic:wx=1,wy=0,wiggle=0.02,seed=4",
                "--grid", "64", "--functional", "length", "--max-iter", "2000")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    y = cc.files.curve_from_dict(rep["curve"])
    assert abs(cc.length(y) - 1.0) <= 1e-5
    assert rep["trace"].startswith("iter,f,grad_norm,step,recenter")
    assert rep["grad_norm"] <= 1e-8


def test_spectrum_circle_csv():
    r = run_cli("spectrum", "--make", "circle", "--grid", "128",
                "--functional", "length-1.0*area", "--count", "5")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    np.testing.assert_allclose(vals, [-1.0, 0.0, 0.0, 3.0, 3.0], atol=1e-6)
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2", "3", "4"]


def test_spectrum_count_zero_header_only():
    r = run_cli("spectrum", "--make", "circle", "--grid", "64", "--count", "0")
    assert r.returncode == 0
    assert r.stdout == "index,eigenvalue\n"


def test_orbit_circle_report():
    r = run_cli("orbit", "--make", "circle", "--grid", "64")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["dim_G"] == 3
    assert rep["rank"] == 2
    assert rep["stabilizer_dim"] == 1
    sv = rep["singular_values"]
    assert len(sv) == 3 and sv[2] <= 1e-8 * sv[0]


def test_orbit_great_circle_report():
    r = run_cli("orbit", "--make", "great-circle", "--grid", "96")
    rep = json.loads(r.stdout)
    assert (rep["dim_G"], rep["rank"], rep["stabilizer_dim"]) == (3, 2, 1)


def test_outputs_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        p = tmp_path / f"{name}.json"
        r = run_cli("validate", "--make", "perturbed-circle:seed=3", "--grid", "64",
                    "--output", str(p))
        assert r.returncode == 0
        assert r.stdout == ""
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]


def test_non_unit_sphere_points_exit_2(tmp_path):
    # a sphere2 file whose points have norm 2 is an input error, not a
    # non-embedding
    d = cc.files.curve_to_dict(shapes.great_circle(32))
    d["points"] = (2.0 * np.asarray(d["points"])).tolist()
    p = tmp_path / "big.json"
    p.write_text(json.dumps(d))
    r = run_cli("validate", "--curve", str(p))
    assert r.returncode == 2


@pytest.mark.parametrize("command", ["validate", "orbit"])
def test_four_dimensional_ambient_exit_2(tmp_path, command):
    th = cc.GridCircle(32).nodes
    pts = np.stack([np.cos(th), np.sin(th), 0 * th, 0 * th], axis=1)
    data = {"version": 1, "ambient": {"kind": "euclidean", "dim": 4}, "grid": 32,
            "points": pts.tolist()}
    p = tmp_path / "r4.json"
    p.write_text(json.dumps(data))
    r = run_cli(command, "--curve", str(p))
    assert r.returncode == 2
