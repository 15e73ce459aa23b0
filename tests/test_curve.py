import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import curvecharts as cc
from curvecharts import fourier, shapes
from curvecharts.curve import interp_curve
from curvecharts.errors import NonMonotoneError


def test_derivative_unit_circle_speed(circle64):
    np.testing.assert_allclose(cc.speeds(circle64), 1.0, atol=1e-12)


def test_derivative_scales_with_radius():
    x = shapes.circle(64, radius=2.0)
    np.testing.assert_allclose(cc.speeds(x), 2.0, atol=1e-12)


def test_quadrature_weights_circle(circle64):
    w = cc.quadrature_weights(circle64)
    np.testing.assert_allclose(w, 2 * np.pi / 64, atol=1e-12)
    assert abs(np.sum(w) - 2 * np.pi) <= 1e-10


def test_quadrature_ellipse_perimeter(ellipse128):
    # oracle: adaptive quadrature of the speed of (2cos t, sin t)
    perimeter, _ = scipy.integrate.quad(
        lambda t: np.hypot(2 * np.sin(t), np.cos(t)), 0.0, 2 * np.pi,
        epsabs=1e-12, epsrel=1e-12)
    assert abs(cc.length(ellipse128) - perimeter) <= 1e-8


def test_is_embedding_circle(circle64):
    assert cc.is_embedding(circle64)


def test_is_embedding_rejects_lemniscate():
    assert not cc.is_embedding(shapes.lemniscate(128))


def test_is_embedding_rejects_cusp():
    # cardioid-style curve with a zero-speed point
    th = cc.GridCircle(64).nodes
    pts = np.stack([(1 + np.cos(th)) * np.cos(th), (1 + np.cos(th)) * np.sin(th)], axis=1)
    x = cc.Embedding(cc.Euclidean(2), pts)
    assert not cc.is_immersion(x)
    assert not cc.is_embedding(x)


def test_resample_identity(circle64):
    y = cc.resample(circle64, cc.Reparam.identity(64))
    np.testing.assert_allclose(y.pts, circle64.pts, atol=1e-12)


def test_resample_quarter_shift_is_node_roll(circle64):
    phi = cc.Reparam(cc.GridCircle(64).nodes + np.pi / 2)
    y = cc.resample(circle64, phi)
    np.testing.assert_allclose(y.pts, np.roll(circle64.pts, -16, axis=0), atol=1e-12)


def test_resample_preserves_image():
    x = shapes.circle(256)
    th = cc.GridCircle(256).nodes
    phi = cc.Reparam(th + 0.3 * np.sin(th))
    y = cc.resample(x, phi)
    assert cc.image_distance(x, y) <= 1e-10


def test_image_distance_same_image(circle64):
    phi = cc.make_diffeo(3, 0.2, 64)
    assert cc.image_distance(circle64, cc.resample(circle64, phi)) <= 1e-10


def test_image_distance_concentric_circles():
    d = cc.image_distance(shapes.circle(128), shapes.circle(128, radius=1.1))
    assert abs(d - 0.1) <= 1e-6


def test_image_distance_orientation_reversed(circle64):
    rev = cc.Embedding(circle64.space, circle64.pts[::-1].copy())
    assert cc.image_distance(circle64, rev) <= 1e-10


def test_make_diffeo_amplitude_zero_is_identity():
    phi = cc.make_diffeo(0, 0.0, 128)
    np.testing.assert_allclose(phi.lift, cc.GridCircle(128).nodes, atol=1e-15)


def test_make_diffeo_deterministic():
    a = cc.make_diffeo(11, 0.3, 128)
    b = cc.make_diffeo(11, 0.3, 128)
    np.testing.assert_array_equal(a.lift, b.lift)


def test_make_diffeo_slope_floor():
    for seed in range(10):
        phi = cc.make_diffeo(seed, 0.3, 256)
        dense = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        assert np.min(phi.slope(dense)) > 0.2


def test_reparam_rejects_non_monotone():
    th = cc.GridCircle(64).nodes
    with pytest.raises(NonMonotoneError):
        cc.Reparam(th + 0.2 * np.sin(8 * th))


def test_reparam_inverse_round_trip():
    phi = cc.make_diffeo(5, 0.3, 128)
    inv = cc.reparam_inverse(phi)
    comp = cc.reparam_compose(phi, inv)
    np.testing.assert_allclose(comp.lift, cc.GridCircle(128).nodes, atol=1e-10)


def test_spectral_derivative_matches_analytic():
    th = cc.GridCircle(128).nodes
    pts = np.stack([np.cos(th) + 0.2 * np.cos(3 * th),
                    np.sin(th) + 0.1 * np.sin(2 * th)], axis=1)
    x = cc.Embedding(cc.Euclidean(2), pts)
    want = np.stack([-np.sin(th) - 0.6 * np.sin(3 * th),
                     np.cos(th) + 0.2 * np.cos(2 * th)], axis=1)
    np.testing.assert_allclose(cc.derivative(x).vecs, want, atol=1e-10)


def test_resample_associativity():
    x = shapes.circle(128)
    p1 = cc.Reparam(cc.GridCircle(128).nodes + np.pi / 2)
    p2 = cc.make_diffeo(2, 0.2, 128)
    a = cc.resample(cc.resample(x, p1), p2)
    b = cc.resample(x, cc.reparam_compose(p1, p2))
    assert cc.image_distance(a, b) <= 1e-9


def test_image_distance_pseudo_metric(rng):
    curves = [shapes.perturbed_circle(64, amplitude=0.1, seed=s) for s in range(3)]
    for i in range(3):
        for j in range(3):
            dij = cc.image_distance(curves[i], curves[j])
            dji = cc.image_distance(curves[j], curves[i])
            assert abs(dij - dji) <= 1e-12
    d01 = cc.image_distance(curves[0], curves[1])
    d12 = cc.image_distance(curves[1], curves[2])
    d02 = cc.image_distance(curves[0], curves[2])
    assert d02 <= d01 + d12 + 1e-9


def test_curvature_circle_signed():
    np.testing.assert_allclose(cc.curvature(shapes.circle(64)), 1.0, atol=1e-10)
    np.testing.assert_allclose(cc.curvature(shapes.circle(64, radius=2.0)), 0.5, atol=1e-10)


def test_torus_curve_winding_and_length():
    x = shapes.torus_geodesic(64, (2, 1))
    assert cc.length(x) == pytest.approx(np.sqrt(5.0), abs=1e-12)
    np.testing.assert_array_equal(x.winding, [2, 1])


def test_separation_torus_strands():
    # (2,1)-geodesic: adjacent strand distance is 1/sqrt(5)
    x = shapes.torus_geodesic(256, (2, 1))
    assert cc.separation(x) == pytest.approx(1.0 / np.sqrt(5.0), rel=1e-3)


# image_distance against analytic and brute-force oracles on every backend


def latitude_circle(P, polar):
    th = cc.GridCircle(P).nodes
    pts = np.stack([np.sin(polar) * np.cos(th), np.sin(polar) * np.sin(th),
                    np.full(P, np.cos(polar))], axis=1)
    return cc.Embedding(cc.Sphere2(), pts)


def test_image_distance_sphere_latitudes():
    # every point of one circle of latitude is |theta1 - theta2| from the other
    d = cc.image_distance(latitude_circle(64, 1.0), latitude_circle(96, 1.3))
    assert abs(d - 0.3) <= 1e-10


def test_image_distance_sphere_resample():
    x = shapes.great_circle(128)
    assert cc.image_distance(x, cc.resample(x, cc.make_diffeo(3, 0.25, 128))) <= 1e-12


def test_image_distance_torus_across_seam():
    x = shapes.torus_geodesic(128, (1, 1), offset=(0.97, 0.99), wiggle=0.05, seed=1)
    assert np.ptp(x.samples, axis=0).min() > 0.9  # the lift crosses both seams
    assert cc.image_distance(x, cc.resample(x, cc.make_diffeo(4, 0.25, 128))) <= 1e-10


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.floats(0.0, 0.3))
def test_image_distance_same_image_property(seed, diffeo_seed, amplitude):
    x = shapes.random_band_limited(64, seed=seed)
    y = cc.resample(x, cc.make_diffeo(diffeo_seed, amplitude, 64))
    assert cc.image_distance(x, y) <= 1e-10


def brute_force_directed(x, y, P_fine):
    probes = interp_curve(x, np.linspace(0.0, 2 * np.pi, 8 * x.P, endpoint=False))
    fine = interp_curve(y, np.linspace(0.0, 2 * np.pi, P_fine, endpoint=False))
    return float(np.max(np.min(x.space.pairwise_dist(probes, fine), axis=1)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_image_distance_brute_force_property(seed_x, seed_y):
    assume(seed_x != seed_y)
    P = 32
    x = shapes.random_band_limited(P, seed=seed_x)
    y = shapes.random_band_limited(P, seed=seed_y)
    d = cc.image_distance(x, y)
    brute = max(brute_force_directed(x, y, 64 * P), brute_force_directed(y, x, 64 * P))
    # a grid point lies within half a spacing h of each closest point.  At
    # speed <= v and acceleration <= a, dist^2 rises by at most
    # (v^2 + dist * a) h^2 there, so dist by at most that over 2 (d - v h).
    t = np.linspace(0.0, 2 * np.pi, 8 * P, endpoint=False)
    v, a = (max(np.max(np.linalg.norm(fourier.interp(c.pts, t, order=k), axis=1))
                for c in (x, y)) for k in (1, 2))
    h = np.pi / (64 * P)
    assert d <= brute + 1e-12
    assert brute - d <= (v**2 + (d + v * h) * a) * h**2 / (2.0 * (d - v * h))


def test_image_distance_sphere_near_antipodal():
    # every point of one tiny polar circle is within 1e-8 of antipodal to
    # the other circle, where log raises CutLocusError.  The distance is
    # still defined; near pi the candidate search cannot tell points apart,
    # so only the bracket [true value, pi] is asserted.
    alpha = 1e-9
    d = cc.image_distance(latitude_circle(32, alpha), latitude_circle(32, np.pi - alpha))
    assert np.pi - 2 * alpha - 1e-15 <= d <= np.pi
