import argparse
import contextlib
import io
import itertools
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import curvecharts as cc
from curvecharts import shapes, solver
from curvecharts import cli
from curvecharts.cli import main as cli_main
from test_solver import BROKEN_EIGH, patch_eigh


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


def test_import_skips_scipy_optimize():
    # brentq stays resolvable on charts and curve, but only on first access
    code = (
        "import sys\n"
        "import curvecharts.cli\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.optimize')]\n"
        "from curvecharts import charts, curve\n"
        "import scipy.optimize\n"
        "assert charts.brentq is scipy.optimize.brentq\n"
        "assert curve.brentq is scipy.optimize.brentq\n"
        "try:\n"
        "    charts.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_only_solving_subcommands_load_scipy_linalg(tmp_path):
    # validate, roundtrip and orbit never load the solver; spectrum does
    code = (
        "import contextlib, io, sys\n"
        "import curvecharts, curvecharts.cli\n"
        "from curvecharts import shapes\n"
        "linalg = lambda: [m for m in sys.modules if m.startswith('scipy.linalg')]\n"
        "assert not linalg()\n"
        "center = sys.argv[1]\n"
        "curvecharts.save_curve(shapes.circle(32), center)\n"
        "for argv in (['validate', '--make', 'circle', '--grid', '32'],\n"
        "             ['roundtrip', '--make', 'circle:radius=1.1', '--grid', '32', '--center', center],\n"
        "             ['orbit', '--make', 'great-circle', '--grid', '32'],\n"
        "             ['spectrum', '--make', 'circle', '--grid', '32']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert curvecharts.cli.main(argv) == 0, argv\n"
        "    assert bool(linalg()) == (argv[0] == 'spectrum'), argv\n"
    )
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path / "center.json")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_package_resolves_the_solver_names_from_solver(monkeypatch):
    names = ("SolveOptions", "SolveTrace", "minimize", "newton_refine", "recenter", "spectrum")
    for name in names:
        assert getattr(cc, name) is getattr(solver, name)
    assert set(names) <= set(dir(cc))
    with pytest.raises(AttributeError, match="no_such_name"):
        cc.no_such_name
    # looked up on every access: a name replaced on solver, and restored, is seen at once
    original = cc.spectrum
    monkeypatch.setattr(solver, "spectrum", len)
    assert cc.spectrum is len
    monkeypatch.undo()
    assert cc.spectrum is original


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


def test_validate_3d_torus_geodesic():
    # wz makes a 3-entry winding: a straight line on the unit 3-torus
    r = run_cli("validate", "--make", "torus-geodesic:wx=1,wy=1,wz=1")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["embedding"] is True
    assert rep["min_speed"] == pytest.approx(np.sqrt(3) / (2 * np.pi), rel=1e-12)
    assert np.isfinite(rep["reach"]) and rep["reach"] > 0


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


def test_minimize_circle_newton_default_threshold():
    # the mean-free H^1 descent reaches the default Newton gate; plain
    # L2(ds) descent broke the chart on the way (exit 1)
    r = run_cli("minimize", "--make", "perturbed-circle:amplitude=0.1,seed=6",
                "--grid", "128", "--functional", "length-1.0*area", "--newton",
                "--tol", "1e-10", "--max-iter", "3000")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["converged"] is True and rep["grad_norm"] <= 1e-10
    y = cc.files.curve_from_dict(rep["curve"])
    assert np.max(np.abs(cc.curvature(y) - 1.0)) <= 1e-6


def test_minimize_budget_exhausted_exit_5():
    r = run_cli("minimize", "--make", "torus-geodesic:wx=1,wy=0,wiggle=0.08,seed=2",
                "--grid", "64", "--functional", "length", "--max-iter", "1")
    assert r.returncode == 5
    rep = json.loads(r.stdout)
    assert rep["converged"] is False
    assert r.stderr == "gradient tolerance not reached at iteration 1\n"


def test_minimize_newton_rounds_unconverged_exit_5():
    # five Newton rounds end above a tolerance at roundoff, long before the
    # budget; the message names where the run stopped, not a spent budget
    r = run_cli("minimize", "--make", "perturbed-circle:seed=6", "--grid", "64",
                "--functional", "length-1.0*area", "--newton", "--newton-threshold", "0.05",
                "--tol", "1e-15", "--max-iter", "3000")
    assert r.returncode == 5
    rep = json.loads(r.stdout)
    assert rep["converged"] is False and rep["iterations"] < 100
    assert r.stderr == f"gradient tolerance not reached at iteration {rep['iterations']}\n"


def test_minimize_report_counts_evaluations_and_backtracks():
    # bend + length backtracks; the report carries the library trace's counters
    r = run_cli("minimize", "--make", "perturbed-circle:amplitude=0.1,seed=3", "--grid", "64",
                "--functional", "bend+length", "--max-iter", "40")
    rep = json.loads(r.stdout)
    _, _, trace = cc.minimize(cc.parse_functional("bend+length"),
                              shapes.perturbed_circle(64, 0.1, seed=3), cc.SolveOptions(max_iter=40))
    assert (rep["evaluations"], rep["backtracks"]) == (trace.evaluations, trace.backtracks)
    assert trace.backtracks > 0


def test_minimize_newton_from_a_small_circle_reaches_the_saddle(tmp_path):
    # from the exact radius-0.5 circle the Newton rounds re-center at the
    # band and climb to the critical circle, where f = 2 pi - pi
    out = tmp_path / "saddle.json"
    r = run_cli("minimize", "--make", "circle:radius=0.5", "--functional", "length-1.0*area",
                "--newton", "--output", str(out))
    # given --output, the report goes to stderr
    assert r.returncode == 0 and r.stdout == ""
    rep = json.loads(r.stderr)
    assert rep["converged"] is True and abs(rep["f"] - np.pi) <= 1e-12
    assert np.max(np.abs(cc.curvature(cc.load_curve(str(out))) - 1.0)) <= 1e-6
    trace = (tmp_path / "saddle.json.trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iter,f,grad_norm,step,recenter"
    assert len(trace) == rep["iterations"] + 2


def test_minimize_chart_breakdown_exit_1_keeps_trace(tmp_path):
    # length - area is unbounded below; the failed re-centering is a chart
    # breakdown (exit 1), not a target outside the tube (exit 4)
    out = tmp_path / "grow.json"
    r = run_cli("minimize", "--make", "perturbed-circle:amplitude=0.1,seed=0",
                "--grid", "64", "--functional", "length-1.0*area", "--max-iter", "3000",
                "--output", str(out))
    assert r.returncode == 1
    assert "cannot build a chart at the curve" in r.stderr
    trace = (tmp_path / "grow.json.trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iter,f,grad_norm,step,recenter"
    assert len(trace) > 2
    assert not out.exists()


def test_minimize_first_chart_breakdown_exit_1_without_trace(tmp_path):
    # validate accepts the curve, but it leaves the tube of the chart at its
    # smoothed copy, so minimize fails before its first iteration
    make = ["--make", "perturbed-circle:amplitude=0.2,seed=1,kmax=30", "--grid", "64"]
    assert run_cli("validate", *make).returncode == 0
    out = tmp_path / "rough.json"
    r = run_cli("minimize", *make, "--max-iter", "5", "--output", str(out))
    assert r.returncode == 1
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("cannot build a chart at the curve:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("message, eigh", BROKEN_EIGH.items(), ids=["failed", "zero", "not-finite"])
def test_minimize_singular_newton_system_exit_1_keeps_trace(tmp_path, monkeypatch, message, eigh):
    # the exact radius-0.5 circle starts Newton rounds at once; a Newton
    # system that cannot be solved is a generic failure
    patch_eigh(monkeypatch, eigh)
    out = tmp_path / "singular.json"
    r = run_cli("minimize", "--make", "circle:radius=0.5", "--functional", "length-1.0*area",
                "--newton", "--output", str(out))
    assert r.returncode == 1
    assert r.stdout == "" and r.stderr == message + "\n"
    trace = (tmp_path / "singular.json.trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iter,f,grad_norm,step,recenter"
    assert len(trace) == 2
    assert not out.exists()


def test_minimize_line_search_failure_exit_5_keeps_trace(tmp_path, monkeypatch):
    # an f that grows with every evaluation admits no Armijo step
    counter = itertools.count()
    monkeypatch.setattr(solver, "value_and_gradient", lambda F, c, coeff: (
        float(next(counter)), cc.value_and_gradient(F, c, coeff)[1]))
    out = tmp_path / "stuck.json"
    r = run_cli("minimize", "--make", "perturbed-circle:amplitude=0.1,seed=0",
                "--grid", "64", "--output", str(out))
    assert r.returncode == 5
    assert "no Armijo step" in r.stderr
    trace = (tmp_path / "stuck.json.trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iter,f,grad_norm,step,recenter"
    assert len(trace) == 2 and trace[1].startswith("0,0.0,")
    assert not out.exists()


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


def test_orbit_builds_the_differential_once(monkeypatch):
    # rank and singular values of the report come from one SVD
    calls = []
    build = cc.symmetry.orbit_differential

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(cc.symmetry, "orbit_differential", counted)
    assert run_cli("orbit", "--make", "circle", "--grid", "64").returncode == 0
    assert len(calls) == 1


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
    th = cc.fourier.nodes(32)
    pts = np.stack([np.cos(th), np.sin(th), 0 * th, 0 * th], axis=1)
    data = {"version": 1, "ambient": {"kind": "euclidean", "dim": 4}, "grid": 32,
            "points": pts.tolist()}
    p = tmp_path / "r4.json"
    p.write_text(json.dumps(data))
    r = run_cli(command, "--curve", str(p))
    assert r.returncode == 2


@pytest.mark.parametrize("argv", [
    ["minimize", "--functional", "foo"],
    ["spectrum", "--functional", "foo"],
    ["spectrum", "--functional", "lengtharea"],
    ["minimize", "--max-iter", "0"],
    ["minimize", "--tol", "-1"],
    ["minimize", "--newton-threshold", "0"],
    ["minimize", "--tol", "nan"],
    ["minimize", "--newton-threshold", "nan"],
    ["roundtrip", "--tol", "nan", "--center", "{dir}/center.json"],
    ["spectrum", "--count", "-1"],
], ids=["minimize-functional", "spectrum-functional", "spectrum-unsigned-term", "max-iter-0", "tol-negative",
        "newton-threshold-0", "tol-nan", "newton-threshold-nan", "roundtrip-tol-nan",
        "count-negative"])
def test_bad_flag_values_exit_2_with_one_line(tmp_path, argv):
    cc.save_curve(shapes.circle(32), str(tmp_path / "center.json"))
    argv = [a.format(dir=tmp_path) for a in argv]
    r = run_cli(*argv, "--make", "circle", "--grid", "32")
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


def test_spectrum_count_above_the_chart_exit_2_with_one_line():
    # circle(16) has 15 eigenvalues off the Nyquist mode; up to 15 print
    r = run_cli("spectrum", "--make", "circle", "--grid", "16", "--count", "40")
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert "at most 15" in r.stderr
    r = run_cli("spectrum", "--make", "circle", "--grid", "16", "--count", "15")
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 16


@pytest.mark.parametrize("make", [
    "circle:p=nan", "circle:p=inf", "torus-geodesic:wx=inf", "torus-geodesic:wx=1.7",
    "torus-geodesic:wx=1e20", "torus-geodesic:wz=1.5",
    "perturbed-circle:seed=0.5", "circle:radius=inf", "perturbed-circle:amplitude=nan",
    "circle:radius", "circle:radius=abc",
    "circle:P=47.5", "circle:P=64", "circle:wx=1", "circle:center=1", "great-circle:radius=2",
])
def test_bad_generator_parameters_exit_2_with_one_line(make):
    # integer parameters are checked, not truncated; the others must be
    # finite; every parameter is key=value with a numeric value, and names a
    # parameter of the generator other than P, which --grid sets
    r = run_cli("validate", "--make", make)
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("winding", [[1.5, 0], [1.0, 0.4]])
def test_non_integral_winding_file_exit_2(tmp_path, winding):
    d = cc.files.curve_to_dict(shapes.torus_geodesic(32, (1, 0)))
    d["winding"] = winding
    p = tmp_path / "geo.json"
    p.write_text(json.dumps(d))
    r = run_cli("validate", "--curve", str(p))
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("make, winding", [(shapes.circle, [1, 0]), (shapes.great_circle, [3])],
                         ids=["plane", "sphere"])
def test_winding_on_simply_connected_file_exit_2(tmp_path, make, winding):
    # only flat-torus curves carry a winding vector; elsewhere the entry is
    # rejected, not dropped
    d = cc.files.curve_to_dict(make(64))
    d["winding"] = winding
    p = tmp_path / "wound.json"
    p.write_text(json.dumps(d))
    r = run_cli("validate", "--curve", str(p))
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("grid", [64.7, True, None, "64"])
def test_non_integer_grid_file_exit_2(tmp_path, grid):
    d = cc.files.curve_to_dict(shapes.circle(64))
    d["grid"] = grid
    p = tmp_path / "grid.json"
    p.write_text(json.dumps(d))
    r = run_cli("validate", "--curve", str(p))
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


def _ambient(spec):
    return lambda d: {**d, "ambient": spec}


@pytest.mark.parametrize("make, edit", [
    (shapes.circle, lambda d: [d]),
    (shapes.circle, _ambient("euclidean")),
    (shapes.circle, _ambient({"kind": "euclidean", "dim": None})),
    (shapes.circle, _ambient({"kind": "euclidean", "dim": 2.5})),
    (shapes.circle, _ambient({"kind": "euclidean", "dim": "2"})),
    (shapes.circle, _ambient({"kind": "euclidean", "dim": True})),
    (shapes.great_circle, _ambient({"kind": "sphere2", "dim": 7})),
    (shapes.torus_geodesic, lambda d: {**d, "winding": [0, 1]}),
], ids=["list", "ambient-string", "dim-null", "dim-2.5", "dim-string", "dim-bool", "sphere2-dim-7",
        "winding-not-the-samples"])
def test_malformed_curve_file_exit_2(tmp_path, make, edit):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(edit(cc.files.curve_to_dict(make(32)))))
    r = run_cli("validate", "--curve", str(p))
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("make, spec", [
    ("circle", "[1]"), ("circle", '"euclidean"'),
    ("circle", '{"kind": "euclidean", "dim": 2.5}'), ("circle", '{"kind": "euclidean", "dim": "2"}'),
    ("circle", '{"kind": "euclidean", "dim": null}'), ("great-circle", '{"kind": "sphere2", "dim": 7}'),
])
def test_malformed_ambient_spec_exit_2(make, spec):
    r = run_cli("validate", "--make", make, "--grid", "32", "--ambient", spec)
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


def test_roundtrip_across_ambients_exit_2(tmp_path):
    cc.save_curve(shapes.circle(32), str(tmp_path / "plane.json"))
    cc.save_curve(shapes.great_circle(32), str(tmp_path / "sphere.json"))
    r = run_cli("roundtrip", "--center", str(tmp_path / "plane.json"),
                "--curve", str(tmp_path / "sphere.json"))
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["validate", "--output", "{dir}/missing/x.json"],
    ["minimize", "--output", "{dir}/missing/x.json"],
    # the curve file is writable, its trace file is not
    ["minimize", "--output", "{dir}/x.json"],
], ids=["validate", "minimize", "minimize-trace"])
def test_unwritable_output_exit_2_with_one_line(tmp_path, argv):
    (tmp_path / "x.json.trace.csv").mkdir()
    argv = [a.format(dir=tmp_path) for a in argv]
    r = run_cli(*argv, "--make", "circle", "--grid", "32")
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["validate", "orbit", "spectrum"])
@pytest.mark.parametrize("make, bad", [(shapes.great_circle, np.nan), (shapes.circle, np.inf)],
                         ids=["sphere-nan", "plane-inf"])
def test_non_finite_curve_file_points_exit_2(tmp_path, command, make, bad):
    d = cc.files.curve_to_dict(make(32))
    d["points"][5][0] = bad
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))  # writes NaN and Infinity, which json reads back
    r = run_cli(command, "--curve", str(p))
    assert r.returncode == 2
    assert r.stdout == ""


@pytest.mark.parametrize("argv, code", [
    (("validate", "--make", "circle", "--grid", "64"), 0),
    (("roundtrip", "--center", "{dir}/center.json", "--curve", "{dir}/target.json"), 0),
    (("spectrum", "--make", "circle", "--grid", "64", "--count", "2"), 0),
    (("orbit", "--make", "circle", "--grid", "64"), 0),
    (("validate", "--make", "lemniscate"), 3),
    (("roundtrip", "--center", "{dir}/lemniscate.json", "--curve", "{dir}/target.json"), 3),
    (("spectrum", "--make", "lemniscate"), 3),
    (("orbit", "--make", "lemniscate"), 3),
    (("minimize", "--make", "lemniscate"), 3),
], ids=["validate", "roundtrip", "spectrum", "orbit", "validate-lemniscate",
        "roundtrip-lemniscate", "spectrum-lemniscate", "orbit-lemniscate",
        "minimize-lemniscate"])
def test_each_command_computes_separation_once(monkeypatch, tmp_path, argv, code):
    from curvecharts import charts, curve
    cc.save_curve(shapes.circle(64), str(tmp_path / "center.json"))
    cc.save_curve(shapes.circle(64, radius=1.1), str(tmp_path / "target.json"))
    cc.save_curve(shapes.lemniscate(128), str(tmp_path / "lemniscate.json"))
    calls = []

    def counted(x):
        calls.append(x)
        return cc.separation(x)

    for mod in (curve, charts, cli):
        monkeypatch.setattr(mod, "separation", counted)
    assert run_cli(*[a.format(dir=tmp_path) for a in argv]).returncode == code
    assert len(calls) == 1


@pytest.mark.parametrize("grid", [[], ["--grid", "64"]], ids=["alone", "with-grid"])
def test_make_p_is_an_unknown_parameter_exit_2_with_one_line(grid):
    # --grid is the one knob for a generated curve's grid size
    r = run_cli("validate", "--make", "circle:p=32", *grid)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "generator 'circle' has no parameter 'p' (parameters: radius; --grid sets P)\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--curve", "{ellipse}"],
    ["validate", "--curve", "{ellipse}"],
    ["roundtrip", "--center", "{ellipse}", "--curve", "{ellipse}"],
], ids=["spectrum", "validate", "roundtrip"])
def test_grid_without_make_exit_2_with_one_line(tmp_path, ellipse128, argv):
    # a curve file sets its own grid; --grid sizes --make generators only
    path = tmp_path / "ellipse128.json"
    cc.save_curve(ellipse128, str(path))
    r = run_cli(*[a.format(ellipse=path) for a in argv], "--grid", "32")
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


def test_area_off_the_plane_minimize_exit_2_keeps_trace(tmp_path):
    out = tmp_path / "gc.json"
    r = run_cli("minimize", "--make", "great-circle", "--functional", "area",
                "--output", str(out))
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    trace = (tmp_path / "gc.json.trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iter,f,grad_norm,step,recenter"
    assert not out.exists()


def test_area_off_the_plane_spectrum_exit_2_with_one_line():
    r = run_cli("spectrum", "--make", "torus-geodesic:wx=1", "--functional", "length+area")
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1


_FLAGS = {"--curve": None, "--make": None, "--ambient": None, "--grid": None,
          "--output": None, "--help": argparse.SUPPRESS}


@pytest.mark.parametrize("command, flags", [
    ("validate", _FLAGS),
    ("roundtrip", {**_FLAGS, "--center": None, "--tol": 1e-6}),
    ("minimize", {**_FLAGS, "--functional": "length", "--tol": 1e-8, "--max-iter": 500,
                  "--newton": False, "--newton-threshold": 1e-3}),
    ("spectrum", {**_FLAGS, "--functional": "length", "--count": 5}),
    ("orbit", _FLAGS),
])
def test_subcommand_flags_and_defaults(command, flags):
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    got = {o: a.default for a in sub._actions for o in a.option_strings if o.startswith("--")}
    assert got == flags


@pytest.mark.parametrize("error, code", [
    (cli._InputError, 2), (OSError, 2), (cc.NotEmbeddingError, 3), (cc.OutsideTubeError, 4),
    (cc.LineSearchFailedError, 5), (cc.OutsideDomainError, 5), (cc.ChartBreakdownError, 1),
    (cc.DegenerateFrameError, 1),
], ids=lambda v: getattr(v, "__name__", None))
def test_exit_code_table(monkeypatch, error, code):
    def raising(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_validate", raising)
    r = run_cli("validate", "--make", "circle", "--grid", "32")
    assert r.returncode == code
    assert r.stdout == ""
    assert r.stderr == "boom\n"
