import itertools
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvecharts as cc
from curvecharts import fourier, functionals, shapes, solver
from curvecharts.errors import (
    ChartBreakdownError,
    DegenerateFrameError,
    LineSearchFailedError,
    NonMonotoneError,
    OutsideTubeError,
    ProjectionFailedError,
    SingularSystemError,
)
from curvecharts.solver import TRACE_SLACK


def test_recenter_zero_section_keeps_center(circle64):
    c = cc.make_chart(circle64)
    c2, _ = cc.recenter(cc.chart_apply(c, cc.NormalSection.zero(64, 1)))
    assert np.max(np.abs(c2.center.pts - circle64.pts)) <= 1e-10


def test_recenter_concentric_moves_center(circle64):
    c = cc.make_chart(circle64)
    c2, _ = cc.recenter(cc.chart_apply(c, cc.NormalSection(np.full((64, 1), 0.3))))
    assert cc.image_distance(c2.center, shapes.circle(64, radius=1.3)) <= 1e-8


def test_recenter_contracts_section(rng):
    x = shapes.perturbed_circle(128, amplitude=0.05, seed=4)
    c = cc.make_chart(x)
    th = cc.fourier.nodes(x.P)
    u = cc.NormalSection((0.05 * np.cos(2 * th) + 0.03 * np.sin(3 * th))[:, None])
    c2, _ = cc.recenter(cc.chart_apply(c, u))
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
    c2, u2 = cc.recenter(cc.chart_apply(c, cc.NormalSection(coeff)))
    assert u2.coeff.shape == (x.P, c2.rank)
    assert np.max(np.abs(alt @ u2.coeff)) / x.P <= 1e-14


def test_recenter_types_every_chart_building_failure(monkeypatch, circle64):
    # a frame failure, like every CurveChartsError while the chart is built, is a chart breakdown
    err = DegenerateFrameError("no normal frame")

    def degenerate(x):
        raise err

    monkeypatch.setattr(solver, "make_chart", degenerate)
    with pytest.raises(ChartBreakdownError) as info:
        cc.recenter(circle64)
    assert str(info.value) == "cannot build a chart at the curve: no normal frame"
    assert info.value.__cause__ is err


def test_recenter_checks_its_nyquist_free_section_against_rho(monkeypatch, circle64):
    # 1.04 rho at node 0 less 0.06 rho of alternating mode: inside rho as inverted,
    # 1.04 rho (1 - 1/P) past it once the alternating mode is dropped
    alt = (-1.0) ** np.arange(64)

    def invert(c, y):
        coeff = c.rho * (1.04 * (np.arange(64) == 0) - 0.06 * alt)[:, None]
        assert np.max(np.abs(coeff)) < c.rho
        return cc.NormalSection(coeff), None

    monkeypatch.setattr(solver, "chart_invert", invert)
    with pytest.raises(ChartBreakdownError, match="^cannot build a chart at the curve: ") as info:
        cc.recenter(circle64)
    assert isinstance(info.value.__cause__, OutsideTubeError)


def test_minimize_rejects_a_non_embedding_start():
    with pytest.raises(cc.NotEmbeddingError, match="^starting curve is not an embedding$"):
        cc.minimize(cc.parse_functional("length"), shapes.lemniscate(128))


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


def _counted_value_and_gradient(monkeypatch):
    calls = []
    fused = solver.value_and_gradient
    monkeypatch.setattr(solver, "value_and_gradient", lambda *a: calls.append(1) or fused(*a))
    return calls


@pytest.mark.parametrize("functional, make", [
    ("bend+length", lambda: shapes.perturbed_circle(64, 0.1, seed=3)),
    ("bend+length", lambda: shapes.perturbed_circle(64, 0.1, seed=1)),
    ("length", lambda: shapes.torus_geodesic(64, (1, 1), wiggle=0.05, seed=1)),
], ids=["bend-length-3", "bend-length-1", "torus-length"])
def test_plain_descent_counts_one_evaluation_per_trial(monkeypatch, functional, make):
    # without re-centering, each iteration evaluates its accepted trial and
    # the trials it rejects, and the start takes one evaluation more
    calls = _counted_value_and_gradient(monkeypatch)
    _, _, trace = cc.minimize(cc.parse_functional(functional), make(), cc.SolveOptions(max_iter=60))
    assert not any(r.recenter for r in trace.records)
    assert trace.evaluations == len(calls) == len(trace.records) - 1 + trace.backtracks + 1
    assert (trace.backtracks > 0) == functional.startswith("bend")


def test_plain_descent_counts_one_evaluation_per_recentering(monkeypatch):
    # a step that grows the section past RECENTER_FRACTION * rho ends on a
    # fresh chart, whose gradient takes one evaluation more
    calls = _counted_value_and_gradient(monkeypatch)
    x = shapes.torus_geodesic(64, (1, 0), wiggle=0.15, seed=1)
    _, _, trace = cc.minimize(cc.parse_functional("length"), x)
    recenters = sum(r.recenter for r in trace.records)
    assert trace.converged and recenters > 0
    iterations = len(trace.records) - 1
    assert trace.evaluations == len(calls) == iterations + trace.backtracks + 1 + recenters


def test_newton_descent_counts_newton_evaluations(monkeypatch):
    # a Newton round on the chart the re-centering tail just built takes the
    # tail's gradient, so no call repeats the chart and section of the one before
    calls = []
    fused = solver.value_and_gradient
    monkeypatch.setattr(solver, "value_and_gradient",
                        lambda F, c, a: calls.append((c, a.copy())) or fused(F, c, a))
    for P in (64, 128):
        calls.clear()
        _, _, trace = cc.minimize(cc.parse_functional("length-1.0*area"),
                                  shapes.perturbed_circle(P, 0.1, seed=6), NEWTON_CIRCLE)
        assert trace.converged and trace.evaluations == len(calls) == 11
        assert trace.evaluations > len(trace.records) + trace.backtracks
        assert not any(c0 is c1 and np.array_equal(a0, a1)
                       for (c0, a0), (c1, a1) in zip(calls, calls[1:]))


def test_newton_refine_given_the_gradient_skips_its_first_evaluation():
    F = cc.parse_functional("length-1.0*area")
    c, u = cc.recenter(shapes.perturbed_circle(64, 0.02, seed=6))
    t0, t1 = cc.SolveTrace(), cc.SolveTrace()
    _, g = solver._value_and_filtered_gradient(F, c, u)
    v0 = cc.newton_refine(F, c, u, NEWTON_CIRCLE, t0)
    v1 = cc.newton_refine(F, c, u, NEWTON_CIRCLE, t1, g)
    assert np.array_equal(v0.coeff, v1.coeff)
    assert t1.evaluations == t0.evaluations - 1 > 0


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


NEWTON_CIRCLE = cc.SolveOptions(max_iter=3000, grad_tol=1e-10, newton=True,
                                newton_threshold=0.05)


def _newton_circle(x):
    # the critical circle of length - area, within test_06's curvature bound
    c, u, trace = cc.minimize(cc.parse_functional("length-1.0*area"), x, NEWTON_CIRCLE)
    assert trace.converged
    assert np.max(np.abs(cc.curvature(cc.chart_apply(c, u)) - 1.0)) <= 1e-6
    return trace


@pytest.mark.parametrize("P", [64, 128, 256])
def test_newton_circle_iterations_independent_of_P(P):
    # the mean-free H^1 descent reaches the Newton gate in a few steps at
    # every P; plain L2(ds) descent took 29/76/146 iterations here
    trace = _newton_circle(shapes.perturbed_circle(P, 0.1, seed=6))
    assert len(trace.records) - 1 <= 10


@pytest.mark.parametrize("P", [64, 128, 256])
def test_newton_great_circle_iterations_independent_of_P(P):
    # the weighted mean of the normal coefficient is the latitude shift,
    # the unstable mode of a great circle under length
    c, u, trace = cc.minimize(cc.parse_functional("length"), _tilted_circle(P, 0.05),
                              cc.SolveOptions(max_iter=2000, newton=True))
    assert trace.converged and len(trace.records) - 1 <= 10
    assert abs(cc.length(cc.chart_apply(c, u)) - 2.0 * np.pi) <= 1e-5


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(0.05, 0.3), st.integers(0, 2**32 - 1))
def test_newton_circle_property(amplitude, seed):
    trace = _newton_circle(shapes.perturbed_circle(64, amplitude, seed=seed))
    assert len(trace.records) - 1 <= 10


@pytest.mark.parametrize("radius", [0.8, 1.3, 2.0])
def test_newton_circle_from_a_scaled_start(radius):
    # Newton takes the dilation the mean-free descent leaves alone; plain
    # L2(ds) descent broke the chart from each of these starts
    trace = _newton_circle(shapes.perturbed_circle(64, 0.05, seed=1, radius=radius))
    assert len(trace.records) - 1 <= 10


def _band_ends(monkeypatch):
    """Whether each `newton_refine` call of the run ends past RECENTER_FRACTION * rho."""
    ends = []
    refine = solver.newton_refine

    def counted(F, c, u, *a):
        v = refine(F, c, u, *a)
        ends.append(v.sup_norm > solver.RECENTER_FRACTION * c.rho)
        return v

    monkeypatch.setattr(solver, "newton_refine", counted)
    return ends


def test_newton_round_past_the_band_is_recentered(monkeypatch):
    # from radius 0.5 the critical circle lies outside every chart the
    # descent reaches: the first Newton round stops past the band, below
    # rho, and the next rounds go on from a chart re-centered there
    ends = _band_ends(monkeypatch)
    x = shapes.perturbed_circle(64, 0.05, seed=1, radius=0.5)
    c, u, trace = cc.minimize(LENGTH_MINUS_AREA, x,
                              cc.SolveOptions(max_iter=30, grad_tol=1e-10, newton=True,
                                              newton_threshold=0.05))
    assert trace.converged and len(trace.records) - 1 == 5
    assert ends == [True, False, False]
    assert np.max(np.abs(cc.curvature(cc.chart_apply(c, u)) - 1.0)) <= 1e-6


def _latitude(P, polar, wave=0.0):
    """The S^2 curve at polar angle polar + wave sin(3 theta) over longitude theta."""
    th = fourier.nodes(P)
    phi = polar + wave * np.sin(3 * th)
    return cc.Embedding(cc.Sphere2(), np.stack(
        [np.sin(phi) * np.cos(th), np.sin(phi) * np.sin(th), np.cos(phi)], axis=1))


LENGTH_MINUS_AREA = cc.parse_functional("length-1.0*area")


def _assert_index_1_critical(F, c, u):
    # the critical circle of length - area within test_06's curvature
    # bound, or a great circle within test_07's length bound; either way
    # a saddle of index 1 beside its two-dimensional orbit kernel
    y = cc.chart_apply(c, u)
    if F is LENGTH_MINUS_AREA:
        assert np.max(np.abs(cc.curvature(y) - 1.0)) <= 1e-6
    else:
        assert abs(cc.length(y) - 2.0 * np.pi) <= 1e-5
    assert np.max(np.abs(cc.spectrum(F, cc.make_chart(y), 3) - [-1.0, 0.0, 0.0])) <= 1e-6


def _stalled_starts():
    # saddle starts whose gradient is (nearly) the unstable mode the
    # mean-free descent leaves alone, so the first Newton round runs to
    # the band
    length = cc.parse_functional("length")
    for P in (64, 256):
        for r in (0.3, 0.5):
            yield pytest.param(LENGTH_MINUS_AREA, shapes.circle(P, radius=r), id=f"circle-{r}-P{P}")
            yield pytest.param(LENGTH_MINUS_AREA, shapes.perturbed_circle(P, 0.1, seed=3, radius=r),
                               id=f"perturbed-circle-{r}-P{P}")
        for a in (0.3, np.pi / 4, 2.5):
            yield pytest.param(length, _latitude(P, a), id=f"latitude-{a:.3g}-P{P}")
            yield pytest.param(length, _latitude(P, a, 0.05), id=f"wavy-latitude-{a:.3g}-P{P}")


@pytest.mark.parametrize("F, x", _stalled_starts())
def test_newton_mode_ends_a_stalled_saddle_start(F, x):
    # the Newton rounds stop at the band and re-center, as an Armijo step
    # does, so they climb to the saddle across charts
    c, u, trace = cc.minimize(F, x, cc.SolveOptions(newton=True))
    assert trace.converged and len(trace.records) - 1 <= 20
    _assert_index_1_critical(F, c, u)


@pytest.mark.parametrize("F, make, iterations", [
    (LENGTH_MINUS_AREA, lambda: shapes.circle(64, radius=0.1), 6),
    (LENGTH_MINUS_AREA, lambda: shapes.circle(64, radius=10.0), 3),
    (cc.parse_functional("length"), lambda: _latitude(64, 0.1), 7),
    (cc.parse_functional("length"), lambda: _latitude(64, 0.15), 6),
    (cc.parse_functional("length"), lambda: _latitude(64, 0.2), 6),
    (cc.parse_functional("length"), lambda: _latitude(64, 3.0), 7),
], ids=["circle-0.1", "circle-10", "latitude-0.1", "latitude-0.15", "latitude-0.2", "latitude-3"])
def test_newton_rounds_ending_at_the_band_do_not_count(monkeypatch, F, make, iterations):
    # a round that ends past the band has moved; only the rounds that stop
    # short of it count toward NEWTON_ROUNDS, so a far start may take more
    # rounds in a row than that
    ends = _band_ends(monkeypatch)
    c, u, trace = cc.minimize(F, make(), cc.SolveOptions(newton=True))
    assert trace.converged and len(trace.records) - 1 == iterations
    assert len(ends) == iterations and not ends[-1]
    _assert_index_1_critical(F, c, u)


@pytest.mark.parametrize("F, make, converged, iterations", [
    (LENGTH_MINUS_AREA, lambda: shapes.circle(64, radius=0.8), True, 1),
    (LENGTH_MINUS_AREA, lambda: shapes.circle(64, radius=2.0), True, 1),
    (LENGTH_MINUS_AREA, lambda: shapes.circle(64, radius=4.0), True, 2),
    (LENGTH_MINUS_AREA, lambda: shapes.perturbed_circle(64, 0.1, seed=3, radius=0.8), True, 6),
    (LENGTH_MINUS_AREA, lambda: shapes.perturbed_circle(64, 0.1, seed=3, radius=2.0), True, 65),
    (LENGTH_MINUS_AREA, lambda: shapes.perturbed_circle(64, 0.1, seed=3, radius=4.0), False, 500),
    (cc.parse_functional("length"), lambda: _latitude(64, 1.2), True, 1),
    (cc.parse_functional("length"), lambda: _latitude(64, 1.2, 0.05), True, 5),
], ids=["circle-0.8", "circle-2", "circle-4", "perturbed-circle-0.8", "perturbed-circle-2",
        "perturbed-circle-4", "latitude-1.2", "wavy-latitude-1.2"])
def test_newton_mode_keeps_its_outcome_from_farther_starts(F, make, converged, iterations):
    # each start keeps its status; the perturbed radius-4 start runs away
    # in the mean-free descent
    _, _, trace = cc.minimize(F, make(), cc.SolveOptions(newton=True))
    assert trace.converged == converged and len(trace.records) - 1 == iterations


@pytest.mark.parametrize("P, seed", [(64, 6), (64, 7), (128, 7), (256, 7)])
def test_newton_rounds_end_on_a_recentered_critical_chart(P, seed):
    # the rounds stop at a chart re-centered at an already-critical curve,
    # so one more re-centering finds the result critical too; a result
    # critical only in the chart of its last Newton step read gradients of
    # 1e-10 to 1.4e-8 here
    F = cc.parse_functional("length-1.0*area")
    c, u, trace = cc.minimize(F, shapes.perturbed_circle(P, 0.1, seed=seed), NEWTON_CIRCLE)
    assert trace.converged and trace.records[-1].recenter
    c2, u2 = cc.recenter(cc.chart_apply(c, u))
    assert cc.grad_norm(c2, cc.gradient_in_chart(F, c2, u2)) <= NEWTON_CIRCLE.grad_tol


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
    center = solver.recenter(shapes.random_band_limited(P, seed=seed))[0].center
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


def test_minimize_first_chart_failure_is_chart_breakdown():
    # an embedding too rough for the chart at its smoothed copy fails as a
    # re-centering does, before any iteration
    x = shapes.perturbed_circle(64, 0.2, seed=1, kmax=30)
    assert cc.is_embedding(x)
    with pytest.raises(ChartBreakdownError, match="^cannot build a chart at the curve: ") as info:
        cc.minimize(cc.parse_functional("length"), x)
    assert isinstance(info.value.__cause__, OutsideTubeError)
    assert info.value.trace is None


def test_minimize_line_search_failure_carries_trace(monkeypatch):
    # an f that grows with every evaluation admits no Armijo step
    counter = itertools.count()
    monkeypatch.setattr(solver, "value_and_gradient", lambda F, c, coeff: (
        float(next(counter)), cc.value_and_gradient(F, c, coeff)[1]))
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


def test_newton_refine_builds_no_hessian_at_a_critical_section(torus_geo64, monkeypatch):
    calls = []
    reduced = solver._reduced_hessian
    monkeypatch.setattr(solver, "_reduced_hessian", lambda F, c: calls.append(1) or reduced(F, c))
    F, c = cc.parse_functional("length"), cc.make_chart(torus_geo64)
    u = cc.NormalSection.zero(64, 1)
    assert cc.newton_refine(F, c, u) is u
    assert calls == []
    th = fourier.nodes(64)
    cc.newton_refine(F, c, cc.NormalSection((1e-3 * np.cos(2 * th))[:, None]))
    assert calls == [1]


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


def _nyquist_modes(P, rank):
    """(rank, P * rank): row a is the alternating grid mode of normal direction a."""
    alt = np.zeros((rank, P * rank))
    for a in range(rank):
        alt[a, a::rank] = (-1.0) ** np.arange(P)
    return alt


def _tilted_circle(P, eps=0.3):
    th = fourier.nodes(P)
    pts = np.stack([np.cos(th), np.sin(th), eps * np.sin(3 * th)], axis=1)
    return cc.Embedding(cc.Sphere2(), pts / np.linalg.norm(pts, axis=1, keepdims=True))


def _space_curve(P):
    th = fourier.nodes(P)
    return cc.Embedding(cc.Euclidean(3), np.stack(
        [2.0 * np.cos(th), np.sin(th), 0.3 * np.sin(3 * th)], axis=1))


@pytest.mark.parametrize("make", [shapes.ellipse, _tilted_circle, _space_curve],
                         ids=["plane", "sphere", "euclidean3"])
@pytest.mark.parametrize("P", [16, 96, 512])
def test_nyquist_complement_is_weight_orthonormal(make, P):
    # E spans the sections with no alternating mode in any normal
    # direction, and is orthonormal in the chart's weights, to roundoff;
    # the weights are not uniform on any of these curves
    c = cc.make_chart(make(P))
    rank, n = c.rank, P * c.rank
    E = solver._nyquist_complement(c.weights, rank)
    assert E.shape == (n, n - rank)
    eps = np.finfo(float).eps
    gram = E.T @ (np.repeat(c.weights, rank)[:, None] * E)
    assert np.max(np.abs(gram - np.eye(n - rank))) <= 4 * eps * np.sqrt(n)
    assert np.max(np.abs(_nyquist_modes(P, rank) @ E)) <= 4 * eps * np.sqrt(n) * np.max(np.abs(E))


@pytest.fixture
def generalized_reduction(monkeypatch):
    """The solver on the reduction it replaced: a Euclidean-orthonormal
    Nyquist complement from `scipy.linalg.null_space`, the reduced mass
    matrix E^T M E and the generalized `eigh(Qr, Mr)`."""
    mass = []

    def reduced(F, c):
        E = scipy.linalg.null_space(_nyquist_modes(c.P, c.rank))
        mass.append(E.T @ (np.repeat(c.weights, c.rank)[:, None] * E))
        return E, E.T @ cc.hessian_in_chart(F, c) @ E

    def eigh(Qr, driver=None, **kw):
        # "gvd" is the generalized problem's divide and conquer
        driver = {"evd": "gvd"}.get(driver, driver)
        return scipy.linalg.eigh(Qr, mass[-1], driver=driver, **kw)

    monkeypatch.setattr(solver, "_reduced_hessian", reduced)
    monkeypatch.setattr(solver, "scipy", types.SimpleNamespace(linalg=types.SimpleNamespace(
        eigh=eigh, LinAlgError=scipy.linalg.LinAlgError)))


REDUCTION_CASES = pytest.mark.parametrize("make, functional, k, s", [
    (lambda: shapes.circle(128), "length-1.0*area", 6, 1),
    (lambda: shapes.great_circle(96), "length", 5, 1),
    (lambda: shapes.torus_geodesic(64, (1, 0)), "length", 3, 1),
    (lambda: shapes.circle(128), "bend", 5, 2),
    (lambda: shapes.great_circle(16), "bend", 5, 2),
    (lambda: shapes.great_circle(24), "bend", 5, 2),
], ids=["circle-length-area", "great-circle-length", "torus-length", "circle-bend",
        "great-circle16-bend", "great-circle24-bend"])


@REDUCTION_CASES
def test_spectrum_matches_the_generalized_reduction(request, make, functional, k, s):
    # the standard problem on the weight-orthonormal basis has the
    # eigenvalues of the generalized one, within the dense path's
    # roundoff floor: eps times the largest spectral multiplier (P/2)^(2s)
    # of an order-2s operator, times the eigenvalues' scale, times 8
    x = make()
    F, c = cc.parse_functional(functional), cc.make_chart(x)
    vals = cc.spectrum(F, c, k)
    request.getfixturevalue("generalized_reduction")
    want = cc.spectrum(F, c, k)
    floor = 8.0 * np.finfo(float).eps * (x.P / 2) ** (2 * s) * np.max(np.abs(want))
    assert np.max(np.abs(vals - want)) <= floor


@REDUCTION_CASES
def test_reduced_hessian_equals_the_reduced_coefficient_hessian(make, functional, k, s):
    # E^T (H E), H applied to E's columns, against E^T Q E from the dense
    # coefficient Hessian Q, within the same roundoff floor
    x = make()
    F, c = cc.parse_functional(functional), cc.make_chart(x)
    E, Qr = solver._reduced_hessian(F, c)
    assert np.max(np.abs(Qr - Qr.T)) == 0.0
    want = E.T @ cc.hessian_in_chart(F, c) @ E
    floor = 8.0 * np.finfo(float).eps * (x.P / 2) ** (2 * s) * np.max(np.abs(cc.spectrum(F, c, k)))
    assert np.max(np.abs(Qr - want)) <= floor


def test_newton_refine_matches_the_generalized_reduction(request):
    # a chart at a perturbed circle is not at a critical point, so Newton
    # takes several steps off its origin; both reductions land on the same
    # section and meet the tolerance
    F = cc.parse_functional("length-1.0*area")
    c = cc.make_chart(shapes.perturbed_circle(64, amplitude=0.03, seed=3))
    u0 = cc.NormalSection.zero(64, 1)
    u = cc.newton_refine(F, c, u0)
    request.getfixturevalue("generalized_reduction")
    want = cc.newton_refine(F, c, u0)
    assert np.max(np.abs(want.coeff)) > 0.01
    assert np.max(np.abs(u.coeff - want.coeff)) <= 1e-10 * np.max(np.abs(want.coeff))
    for v in (u, want):
        assert cc.grad_norm(c, cc.gradient_in_chart(F, c, v)) <= cc.SolveOptions().grad_tol


def _mrrr_newton(F, c, u):
    """`newton_refine`'s chord steps on scipy's default eigenvectors for all of Qr, MRRR ("evr")."""
    E, Qr = solver._reduced_hessian(F, c)
    lam, V = scipy.linalg.eigh(Qr, driver="evr")
    live = np.abs(lam) > 1e-8 * np.max(np.abs(lam))
    for _ in range(solver.NEWTON_STEPS):
        g = solver._value_and_filtered_gradient(F, c, u)[1]
        if cc.grad_norm(c, g) <= cc.SolveOptions().grad_tol:
            break
        comp = V.T @ (E.T @ (g.coeff * c.weights[:, None]).ravel())
        delta = E @ (V[:, live] @ (-comp[live] / lam[live]))
        # the solver's trust cap must not bind, or the steps differ
        assert np.max(np.abs(delta)) <= 0.25 * c.rho
        u = cc.NormalSection(u.coeff + delta.reshape(u.coeff.shape))
    return u


@pytest.mark.parametrize("make, functional, amplitude", [
    (lambda: shapes.perturbed_circle(64, amplitude=0.03, seed=3), "length-1.0*area", 0.0),
    (lambda: shapes.perturbed_circle(128, amplitude=0.03, seed=3), "length-1.0*area", 0.0),
    (lambda: shapes.great_circle(96), "length", 0.01),
    (lambda: shapes.torus_geodesic(64, (1, 0)), "length", 0.01),
], ids=["circle64-length-area", "circle128-length-area", "great-circle96-length", "torus-length"])
def test_newton_refine_matches_the_mrrr_step(make, functional, amplitude):
    # the step V diag(1/lambda) V^T does not depend on the eigenvector
    # basis, so the divide-and-conquer decomposition lands where MRRR
    # does; on the critical curves the section's mean and first mode
    # keep a kernel component, so neither result is the origin
    x = make()
    F, c = cc.parse_functional(functional), cc.make_chart(x)
    th = fourier.nodes(x.P)
    u0 = cc.NormalSection((amplitude * (1.0 + np.cos(th) + np.cos(2 * th)))[:, None])
    u = cc.newton_refine(F, c, u0)
    want = _mrrr_newton(F, c, u0)
    assert np.max(np.abs(want.coeff)) > 0.005
    assert np.max(np.abs(u.coeff - want.coeff)) <= 1e-10 * np.max(np.abs(want.coeff))
    for v in (u, want):
        assert cc.grad_norm(c, cc.gradient_in_chart(F, c, v)) <= cc.SolveOptions().grad_tol


def _counted_filtered_gradient(monkeypatch):
    calls = []
    filtered = solver._value_and_filtered_gradient
    monkeypatch.setattr(solver, "_value_and_filtered_gradient",
                        lambda *a: calls.append(1) or filtered(*a))
    return calls


@pytest.mark.parametrize("seed", [3])
def test_newton_refine_returns_after_its_step_budget(monkeypatch, seed):
    # the chord steps end after NEWTON_STEPS whether or not they met the
    # tolerance, without an error; the caller reads the gradient
    calls = _counted_filtered_gradient(monkeypatch)
    F = cc.parse_functional("length-1.0*area")
    c = cc.make_chart(shapes.perturbed_circle(64, amplitude=0.1, seed=seed))
    u = cc.newton_refine(F, c, cc.NormalSection.zero(64, 1))
    assert len(calls) == solver.NEWTON_STEPS
    assert u.sup_norm <= solver.RECENTER_FRACTION * c.rho
    assert cc.grad_norm(c, cc.gradient_in_chart(F, c, u)) > cc.SolveOptions().grad_tol


def test_newton_refine_returns_at_the_band(monkeypatch):
    # a chord step past RECENTER_FRACTION * rho ends the call, as an Armijo
    # step there ends on a fresh chart; the caller re-centers
    calls = _counted_filtered_gradient(monkeypatch)
    F = cc.parse_functional("length-1.0*area")
    c = cc.make_chart(shapes.perturbed_circle(64, amplitude=0.1, seed=2))
    u = cc.newton_refine(F, c, cc.NormalSection.zero(64, 1))
    assert len(calls) == 4
    assert solver.RECENTER_FRACTION * c.rho < u.sup_norm < c.rho


def _eigh_fails(Qr, **kw):
    raise scipy.linalg.LinAlgError("the algorithm failed to converge")


# stand-ins for `solver.scipy.linalg.eigh` and the SingularSystemError each one
# makes `newton_refine` raise: a failed decomposition, a Hessian that is zero
# on the whole Nyquist complement, and eigenvectors that are not finite
BROKEN_EIGH = {
    "Hessian eigendecomposition failed": _eigh_fails,
    "Hessian vanishes beyond the kernel tolerance": lambda Qr, **kw: (np.zeros(len(Qr)),
                                                                      np.eye(len(Qr))),
    "Newton step is not finite": lambda Qr, **kw: (np.ones(len(Qr)), np.full(Qr.shape, np.nan)),
}


def patch_eigh(monkeypatch, eigh):
    """Make `newton_refine` decompose its reduced Hessian with eigh."""
    monkeypatch.setattr(solver, "scipy", types.SimpleNamespace(linalg=types.SimpleNamespace(
        eigh=eigh, LinAlgError=scipy.linalg.LinAlgError)))


@pytest.mark.parametrize("message, eigh", BROKEN_EIGH.items(), ids=["failed", "zero", "not-finite"])
def test_newton_refine_singular_system(monkeypatch, message, eigh):
    F = cc.parse_functional("length-1.0*area")
    c = cc.make_chart(shapes.perturbed_circle(64, amplitude=0.03, seed=3))
    patch_eigh(monkeypatch, eigh)
    with pytest.raises(SingularSystemError, match=f"^{message}$") as info:
        cc.newton_refine(F, c, cc.NormalSection.zero(64, 1))
    if eigh is _eigh_fails:
        assert isinstance(info.value.__cause__, scipy.linalg.LinAlgError)


@pytest.mark.parametrize("make", [shapes.circle, _space_curve], ids=["circle", "space-curve"])
def test_spectrum_rejects_more_eigenvalues_than_the_chart_has(monkeypatch, make):
    # the Nyquist complement has P * rank - rank dimensions; asking for
    # more raises before any Hessian is built
    F, c = cc.parse_functional("length"), cc.make_chart(make(16))
    available = 16 * c.rank - c.rank
    assert cc.spectrum(F, c, available).shape == (available,)
    calls = []
    reduced = solver._reduced_hessian
    monkeypatch.setattr(solver, "_reduced_hessian", lambda F, c: calls.append(1) or reduced(F, c))
    for k in (available + 1, 40):
        with pytest.raises(ValueError, match=f"k must be at most {available} .*got {k}"):
            cc.spectrum(F, c, k)
    assert calls == []


@pytest.mark.parametrize("k", [2.5, True, np.nan])
def test_spectrum_rejects_a_non_integral_count(circle64, k):
    with pytest.raises(ValueError, match="k must be an integer"):
        cc.spectrum(cc.parse_functional("length"), cc.make_chart(circle64), k)


@pytest.mark.parametrize("max_iter", [2.5, True, np.nan, "5"])
def test_solve_options_reject_a_non_integral_max_iter(max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        cc.SolveOptions(max_iter=max_iter)


def test_solve_options_take_an_integral_max_iter_as_int():
    for value in (3, 3.0, np.int64(3)):
        opts = cc.SolveOptions(max_iter=value)
        assert opts.max_iter == 3 and type(opts.max_iter) is int


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
    # each Armijo trial is one fused value and gradient, and an accepted
    # trial carries both forward: no section is evaluated twice, and the
    # loop makes no separate evaluate or gradient_in_chart call
    calls, separate = [], []

    def counted(F, c, coeff):
        out = cc.value_and_gradient(F, c, coeff)
        calls.append((coeff.copy(), out[0]))
        return out

    monkeypatch.setattr(solver, "value_and_gradient", counted)
    for module in (solver, functionals):
        for name in ("evaluate", "gradient_in_chart"):
            monkeypatch.setattr(module, name, lambda *a, name=name: separate.append(name),
                                raising=False)
    x = shapes.torus_geodesic(64, (1, 0), wiggle=0.05, seed=1)
    _, u, trace = cc.minimize(cc.parse_functional("length"), x, cc.SolveOptions(max_iter=2000))
    assert trace.converged
    assert not any(r.recenter for r in trace.records)
    assert separate == []
    # the first call is at the start, every later one is a trial of some
    # iterate's line search, and the last trial is the result
    coeffs = [a for a, _ in calls]
    assert len(calls) >= len(trace.records)
    assert not any(np.array_equal(a, b) for i, a in enumerate(coeffs) for b in coeffs[:i])
    assert calls[0][1] == trace.records[0].f and calls[-1][1] == trace.records[-1].f
    assert np.array_equal(coeffs[-1], u.coeff)


def test_spectrum_rejects_a_negative_count(circle64):
    F, c = cc.parse_functional("length"), cc.make_chart(circle64)
    with pytest.raises(ValueError, match="k must be non-negative, got -1"):
        cc.spectrum(F, c, -1)
    assert cc.spectrum(F, c, 0).shape == (0,)
