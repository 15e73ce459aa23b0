import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvecharts as cc
from curvecharts import fourier, shapes, solver
from curvecharts.errors import (
    ChartBreakdownError,
    LineSearchFailedError,
    NonMonotoneError,
    OutsideTubeError,
    ProjectionFailedError,
)
from curvecharts.solver import TRACE_SLACK, smooth_center


def test_recenter_zero_section_keeps_center(circle64):
    c = cc.make_chart(circle64)
    c2, _ = cc.recenter(c, cc.NormalSection.zero(64, 1))
    assert np.max(np.abs(c2.center.pts - circle64.pts)) <= 1e-10


def test_recenter_concentric_moves_center(circle64):
    c = cc.make_chart(circle64)
    c2, _ = cc.recenter(c, cc.NormalSection(np.full((64, 1), 0.3)))
    assert cc.image_distance(c2.center, shapes.circle(64, radius=1.3)) <= 1e-8


def test_recenter_contracts_section(rng):
    x = shapes.perturbed_circle(128, amplitude=0.05, seed=4)
    c = cc.make_chart(x)
    th = cc.fourier.nodes(x.P)
    u = cc.NormalSection((0.05 * np.cos(2 * th) + 0.03 * np.sin(3 * th))[:, None])
    c2, _ = cc.recenter(c, u)
    y = cc.chart_apply(c, u)
    u2, _ = cc.chart_invert(c2, y)
    assert np.max(np.abs(u2.coeff)) <= 1e-6 * max(1.0, np.max(np.abs(u.coeff)))


@pytest.mark.parametrize("make", [lambda: shapes.perturbed_circle(128, amplitude=0.05, seed=4),
                                  lambda: shapes.great_circle(96)], ids=["plane", "sphere"])
def test_recenter_section_has_no_nyquist_component(make):
    x = make()
    c = cc.make_chart(x)
    th = cc.fourier.nodes(x.P)
    alt = (-1.0) ** np.arange(x.P)
    # the input section carries an alternating component on purpose
    coeff = 0.02 * np.cos(2 * th)[:, None] + 1e-3 * alt[:, None] + np.zeros((x.P, c.rank))
    c2, u2 = cc.recenter(c, cc.NormalSection(coeff))
    assert u2.coeff.shape == (x.P, c2.rank)
    assert np.max(np.abs(alt @ u2.coeff)) / x.P <= 1e-14


def test_minimize_critical_start_returns_immediately(circle64):
    F = cc.parse_functional("length-1.0*area")
    c, u, trace = cc.minimize(F, circle64)
    assert trace.converged
    assert len(trace.records) <= 2
    assert np.max(np.abs(u.coeff)) <= 1e-10


def test_minimize_torus_length_to_geodesic():
    x = shapes.torus_geodesic(64, (1, 0), wiggle=0.05, seed=1)
    F = cc.parse_functional("length")
    opts = cc.SolveOptions(max_iter=2000, grad_tol=1e-8)
    c, u, trace = cc.minimize(F, x, opts)
    assert trace.converged
    y = cc.chart_apply(c, u)
    assert abs(cc.length(y) - 1.0) <= 1e-5


def test_minimize_trace_monotone():
    x = shapes.torus_geodesic(64, (1, 0), wiggle=0.08, seed=2)
    _, _, trace = cc.minimize(cc.parse_functional("length"), x,
                              cc.SolveOptions(max_iter=2000))
    f = trace.f_values
    slack = TRACE_SLACK * np.maximum(1.0, np.abs(f[:-1]))
    assert np.all(f[1:] <= f[:-1] + slack)


def test_minimize_circle_saddle_constant_curvature():
    x = shapes.perturbed_circle(128, amplitude=0.05, seed=7)
    F = cc.parse_functional("length-1.0*area")
    opts = cc.SolveOptions(max_iter=3000, grad_tol=1e-10, newton=True,
                           newton_threshold=0.05)
    c, u, trace = cc.minimize(F, x, opts)
    assert trace.converged
    y = cc.chart_apply(c, u)
    kappa = cc.curvature(y)
    assert np.max(np.abs(kappa - 1.0)) <= 1e-6


def test_minimize_chart_independent(rng):
    # same geometric problem started from two reparameterizations of one curve
    F = cc.parse_functional("length")
    x = shapes.torus_geodesic(64, (1, 0), wiggle=0.06, seed=5)
    xr = cc.resample(x, cc.make_diffeo(3, 0.25, 64))
    opts = cc.SolveOptions(max_iter=2000)
    c1, u1, t1 = cc.minimize(F, x, opts)
    c2, u2, t2 = cc.minimize(F, xr, opts)
    assert t1.converged and t2.converged
    d = cc.image_distance(cc.chart_apply(c1, u1), cc.chart_apply(c2, u2))
    assert d <= 1e-5


@pytest.mark.parametrize("P", [64, 128, 256])
@pytest.mark.parametrize("winding", [(1, 0), (1, 1)])
def test_minimize_length_iterations_independent_of_P(winding, P):
    # the H^1 descent metric removes the k^2 stiffness of the length
    # Hessian: plain L2(ds) descent needs 420-7681 iterations here
    x = shapes.torus_geodesic(P, winding, wiggle=0.05, seed=1)
    c, u, trace = cc.minimize(cc.parse_functional("length"), x)
    assert trace.converged
    assert len(trace.records) - 1 <= 30
    assert abs(cc.length(cc.chart_apply(c, u)) - np.hypot(*winding)) <= 1e-10


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from([32, 64, 128]), st.integers(0, 2**32 - 1), st.integers(1, 8))
# the draw of 1000 nearest the upper bound (<g, K_1 g>_w at 1 - 9.1e-7 of <g, g>_w)
@example(P=128, seed=955, kmax=1)
def test_h1_direction_is_descent_property(P, seed, kmax):
    # 0 < <g, K_1 g>_w <= <g, g>_w on an arclength-resampled center, so
    # d = K_1 g is a descent direction no longer than g
    center = smooth_center(shapes.random_band_limited(P, seed=seed), P // 4)
    w = cc.quadrature_weights(center)
    rng = np.random.default_rng(seed)
    th = fourier.nodes(P)
    g = sum(rng.standard_normal() * np.cos(k * th + rng.uniform(0.0, 2 * np.pi))
            for k in range(kmax + 1))
    gkg = float(np.sum(w * g * fourier.sobolev_inverse(g, float(np.sum(w)), 1)))
    assert 0.0 < gkg <= float(np.sum(w * g * g))


def test_minimize_recenter_failure_is_chart_breakdown():
    # length - area is unbounded below: the flow grows the curve until the
    # curve cannot be inverted into a re-centered chart
    x = shapes.perturbed_circle(64, amplitude=0.1, seed=0)
    with pytest.raises(ChartBreakdownError) as info:
        cc.minimize(cc.parse_functional("length-1.0*area"), x, cc.SolveOptions(max_iter=3000))
    assert isinstance(info.value.__cause__,
                      (OutsideTubeError, ProjectionFailedError, NonMonotoneError))
    trace = info.value.trace
    assert not trace.converged
    assert len(trace.records) > 1
    assert trace.records[-1].f < trace.records[0].f


def test_minimize_line_search_failure_carries_trace(monkeypatch):
    # an f that grows with every evaluation admits no Armijo step
    counter = itertools.count()
    monkeypatch.setattr(solver, "evaluate", lambda F, x: float(next(counter)))
    with pytest.raises(LineSearchFailedError) as info:
        cc.minimize(cc.parse_functional("length"), shapes.perturbed_circle(64, 0.1, seed=0))
    trace = info.value.trace
    assert not trace.converged
    assert [(r.iter, r.f) for r in trace.records] == [(0, 0.0)]


def test_minimize_result_critical_in_fresh_chart():
    F = cc.parse_functional("length")
    x = shapes.torus_geodesic(64, (1, 0), wiggle=0.05, seed=3)
    c, u, trace = cc.minimize(F, x, cc.SolveOptions(max_iter=2000))
    assert trace.converged
    y = cc.chart_apply(c, u)
    cf = cc.make_chart(y)
    assert cc.is_critical(F, cf, cc.NormalSection.zero(64, 1), 1e-5)


def test_newton_refine_fixed_point_at_critical(torus_geo64):
    F = cc.parse_functional("length")
    c = cc.make_chart(torus_geo64)
    u = cc.newton_refine(F, c, cc.NormalSection.zero(64, 1))
    assert np.max(np.abs(u.coeff)) <= 1e-10


def test_newton_refine_contracts_gradient():
    F = cc.parse_functional("length")
    x = shapes.torus_geodesic(64, (1, 0), wiggle=1e-3, seed=6)
    c = cc.make_chart(shapes.torus_geodesic(64, (1, 0)))
    u0, _ = cc.chart_invert(c, x)
    g0 = cc.grad_norm(c, cc.gradient_in_chart(F, c, u0))
    u1 = cc.newton_refine(F, c, u0)
    g1 = cc.grad_norm(c, cc.gradient_in_chart(F, c, u1))
    assert g1 <= g0 / 100


def test_newton_refine_handles_orbit_kernel(circle128):
    # translation and rotation directions give zero eigenvalues; refinement
    # must still converge from a perturbed start
    F = cc.parse_functional("length-1.0*area")
    c = cc.make_chart(circle128)
    th = cc.fourier.nodes(circle128.P)
    u0 = cc.NormalSection((1e-3 * np.cos(2 * th))[:, None])
    u1 = cc.newton_refine(F, c, u0)
    g1 = cc.grad_norm(c, cc.gradient_in_chart(F, c, u1))
    assert g1 <= 1e-9


def test_spectrum_circle_length_minus_area(circle128):
    # oracle: eigenvalues of -u'' - u on the circle are k^2 - 1
    F = cc.parse_functional("length-1.0*area")
    vals = cc.spectrum(F, cc.make_chart(circle128), 6)
    want = [-1.0, 0.0, 0.0, 3.0, 3.0, 8.0]
    np.testing.assert_allclose(vals, want, atol=1e-6)


def test_spectrum_torus_geodesic(torus_geo64):
    # oracle: eigenvalues of -u'' on a unit-length loop are (2 pi k)^2
    vals = cc.spectrum(cc.parse_functional("length"), cc.make_chart(torus_geo64), 3)
    np.testing.assert_allclose(vals, [0.0, 4 * np.pi**2, 4 * np.pi**2], atol=1e-6)


def test_spectrum_great_circle(great_circle96):
    # oracle: Jacobi operator -u'' - u on the unit great circle
    vals = cc.spectrum(cc.parse_functional("length"), cc.make_chart(great_circle96), 5)
    np.testing.assert_allclose(vals, [-1.0, 0.0, 0.0, 3.0, 3.0], atol=1e-6)


def test_spectrum_count(circle64):
    vals = cc.spectrum(cc.parse_functional("length"), cc.make_chart(circle64), 4)
    assert vals.shape == (4,)
    assert np.all(np.diff(vals) >= -1e-12)


def test_trace_csv_shape():
    x = shapes.torus_geodesic(64, (1, 0), wiggle=0.03, seed=8)
    _, _, trace = cc.minimize(cc.parse_functional("length"), x,
                              cc.SolveOptions(max_iter=2000))
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "iter,f,grad_norm,step,recenter"
    assert len(lines) == len(trace.records) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(trace.records[0].f)


def test_descent_evaluates_f_once_per_iterate(monkeypatch):
    # an accepted Armijo step carries its trial value forward, so the
    # descent spends one evaluation per iterate, not two
    calls = []

    def counted(F, y):
        calls.append(y)
        return cc.evaluate(F, y)

    monkeypatch.setattr(solver, "evaluate", counted)
    x = shapes.torus_geodesic(64, (1, 0), wiggle=0.05, seed=1)
    _, _, trace = cc.minimize(cc.parse_functional("length"), x, cc.SolveOptions(max_iter=2000))
    assert trace.converged
    assert not any(r.recenter for r in trace.records)
    assert len(calls) < 2 * (len(trace.records) - 1)
