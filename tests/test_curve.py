import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import curvecharts as cc
from curvecharts import curve, fourier, shapes
from curvecharts.curve import interp_curve
from curvecharts.errors import NonMonotoneError


def dense_interp(c, P, t, order=0):
    """Reference trigonometric interpolant: the dense sum of complex exponentials.

    c are rfft coefficients of P real samples; t may be scalar or 1-d.
    Returns the order-th derivative at t, shape (len(t),) + c.shape[1:].
    The Nyquist mode keeps weight 1, the other nonzero modes weight 2.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    K = P // 2 + 1
    k = np.arange(K, dtype=float)
    w = np.full(K, 2.0)
    w[0] = 1.0
    if P % 2 == 0:
        w[-1] = 1.0
    mult = w * (1j * k) ** order if order else w.astype(complex)
    E = np.exp(1j * t[:, None] * k[None, :])
    return (E @ (mult.reshape((-1,) + (1,) * (c.ndim - 1)) * c)).real / P


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
    th = cc.fourier.nodes(64)
    pts = np.stack([(1 + np.cos(th)) * np.cos(th), (1 + np.cos(th)) * np.sin(th)], axis=1)
    x = cc.Embedding(cc.Euclidean(2), pts)
    assert not cc.is_immersion(x)
    assert not cc.is_embedding(x)


def test_resample_identity(circle64):
    y = cc.resample(circle64, cc.Reparam.identity(64))
    np.testing.assert_allclose(y.pts, circle64.pts, atol=1e-12)


def test_resample_quarter_shift_is_node_roll(circle64):
    phi = cc.Reparam(cc.fourier.nodes(64) + np.pi / 2)
    y = cc.resample(circle64, phi)
    np.testing.assert_allclose(y.pts, np.roll(circle64.pts, -16, axis=0), atol=1e-12)


def test_resample_preserves_image():
    x = shapes.circle(256)
    th = cc.fourier.nodes(256)
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
    np.testing.assert_allclose(phi.lift, cc.fourier.nodes(128), atol=1e-15)


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
    th = cc.fourier.nodes(64)
    with pytest.raises(NonMonotoneError):
        cc.Reparam(th + 0.2 * np.sin(8 * th))


def test_reparam_inverse_round_trip():
    for amplitude in (0.1, 0.3, 0.4, 0.45):
        for seed in (5, 6, 7):
            phi = cc.make_diffeo(seed, amplitude, 128)
            inv = cc.reparam_inverse(phi)
            comp = cc.reparam_compose(phi, inv)
            np.testing.assert_allclose(comp.lift, cc.fourier.nodes(128), atol=1e-10)


def _tilted_great_circle():
    # a great circle in a tilted plane, parameterized at non-constant speed
    R, _ = np.linalg.qr(np.array([[0.3, -0.9, 0.3], [0.9, 0.2, -0.4], [0.3, 0.4, 0.87]]))
    x = shapes.great_circle(96)
    return cc.resample(cc.Embedding(x.space, x.pts @ R.T), cc.make_diffeo(2, 0.3, 96))


@pytest.mark.parametrize("make", [
    lambda: shapes.perturbed_circle(128, 0.1, seed=3),
    lambda: shapes.ellipse(128),
    lambda: shapes.torus_geodesic(64, (1, 0), wiggle=0.05, seed=1),
    _tilted_great_circle,
], ids=["perturbed_circle", "ellipse", "torus_geodesic", "tilted_great_circle"])
def test_arclength_lift_gives_constant_speed(make):
    x = make()
    assert np.ptp(cc.speeds(x)) > 0.05 * np.mean(cc.speeds(x))
    sp = cc.speeds(cc.resample(x, cc.arclength_lift(x)))
    assert np.ptp(sp) <= 1e-8 * np.mean(sp)


def test_spectral_derivative_matches_analytic():
    th = cc.fourier.nodes(128)
    pts = np.stack([np.cos(th) + 0.2 * np.cos(3 * th),
                    np.sin(th) + 0.1 * np.sin(2 * th)], axis=1)
    x = cc.Embedding(cc.Euclidean(2), pts)
    want = np.stack([-np.sin(th) - 0.6 * np.sin(3 * th),
                     np.cos(th) + 0.2 * np.cos(2 * th)], axis=1)
    np.testing.assert_allclose(cc.derivative(x), want, atol=1e-10)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_sobolev_inverse_scales_single_modes(s):
    P, L = 64, 2.5
    th = fourier.nodes(P)
    for k in (0, 1, 5, 31):
        mode = np.stack([np.cos(k * th + 0.3), np.sin(k * th)], axis=1)
        want = (1.0 + (2 * np.pi * k / L) ** 2) ** (-s) * mode
        np.testing.assert_allclose(fourier.sobolev_inverse(mode, L, s), want, atol=1e-14)


def test_sobolev_inverse_order_zero_is_identity(rng):
    v = rng.standard_normal((48, 2))
    assert np.array_equal(fourier.sobolev_inverse(v, 3.0, 0), v)


def test_resample_associativity():
    x = shapes.circle(128)
    p1 = cc.Reparam(cc.fourier.nodes(128) + np.pi / 2)
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


def dense_separation(x):
    """Reference separation: every ordered node pair, on the torus against all 3^n nearby translates.

    Elsewhere the chords come from `dist` on broadcast pairs, not from
    `pairwise_dist`, whose arccos matrix loses half the digits on S^2.
    """
    P = x.P
    w = cc.quadrature_weights(x)
    s = np.concatenate(([0.0], np.cumsum(w)))[:-1]
    L = float(np.sum(w))
    gap = np.abs(np.arange(P)[:, None] - np.arange(P)[None, :])
    gap = np.minimum(gap, P - gap)
    arc0 = np.abs(s[:, None] - s[None, :])
    if x.winding is None:
        blocks = [(x.space.dist(x.pts[:, None], x.pts[None]), np.minimum(arc0, L - arc0))]
    else:
        n = x.pts.shape[1]
        wind = x.winding.astype(float)
        diff0 = x.pts[:, None, :] - x.pts[None, :, :]
        base = np.rint(diff0)
        shifts = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * n, indexing="ij"), axis=-1).reshape(-1, n)
        blocks = []
        for sh in shifts:
            k = base + sh
            if np.any(wind != 0.0):
                ax = int(np.argmax(np.abs(wind)))
                m = k[:, :, ax] / wind[ax]
                on_line = np.all(np.abs(k - m[:, :, None] * wind) < 1e-9, axis=2)
                same = on_line & (np.abs(m - np.rint(m)) < 1e-9)
                m = np.rint(m)
            else:
                same = np.all(np.abs(k) < 1e-9, axis=2)
                m = np.zeros((P, P))
            arc = np.abs(s[:, None] - s[None, :] - m * L)
            arc = np.where(m == 0.0, np.minimum(arc0, L - arc0), arc)
            blocks.append((np.linalg.norm(diff0 - k, axis=2), np.where(same, arc, np.inf)))
    best = np.inf
    for chord, arc in blocks:
        mask = (gap > curve.MIN_GAP) & (chord < (2.0 / np.pi) * arc)
        if np.any(mask):
            best = min(best, float(np.min(chord[mask])))
    return best


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.lists(st.integers(-2, 2), min_size=3, max_size=3),
       st.sampled_from([16, 32, 48]), st.integers(0, 2**32 - 1), st.floats(0.0, 0.6),
       st.booleans())
def test_separation_equals_dense_scan_on_tori(n, winding, P, seed, amplitude, snap):
    # windings include zero, large amplitudes make non-embedded curves, and
    # quarter-lattice coordinates put rint on its ties
    rng = np.random.default_rng(seed)
    th = fourier.nodes(P)
    w = np.array(winding[:n])
    pts = rng.uniform(0.0, 1.0, n) + th[:, None] * w / (2.0 * np.pi)
    for k in range(1, 4):
        a, b = rng.uniform(-1.0, 1.0, (2, n))
        pts += amplitude * (a * np.cos(k * th)[:, None] + b * np.sin(k * th)[:, None]) / k
    if snap:
        pts = np.round(4.0 * pts) / 4.0
    x = cc.Embedding(cc.FlatTorus(n), pts, w)
    assert cc.separation(x) == dense_separation(x)


def pinched_sphere_loop(delta):
    """A dumbbell in longitude/latitude coordinates (lon, lat), pinched to
    lat = +-delta/2 at nodes P/4 and 3P/4; latitude is 1-Lipschitz on S^2,
    so no other pair of its strands lies closer than delta."""
    th = fourier.nodes(64)
    lon = 0.3 * np.cos(th)
    lat = np.sin(th) * (delta / 2.0 + 0.3 * np.cos(th) ** 2)
    pts = np.stack([np.sin(lon) * np.cos(lat), -np.sin(lat), np.cos(lon) * np.cos(lat)], axis=1)
    return cc.Embedding(cc.Sphere2(), pts)


@pytest.mark.parametrize("make", [
    lambda: shapes.circle(64),
    lambda: shapes.lemniscate(128),
    lambda: shapes.great_circle(128),
    lambda: shapes.random_band_limited(256, seed=0),
    lambda: shapes.random_band_limited(128, seed=7, amplitude=0.6),
    lambda: shapes.torus_geodesic(256, (1, 0), offset=(0.3, 0.7), wiggle=0.05, seed=1),
    lambda: shapes.torus_geodesic(256, (1, 1), offset=(0.3, 0.7), wiggle=0.05, seed=1),
    lambda: pinched_sphere_loop(1e-7),
    lambda: pinched_sphere_loop(3e-8),
])
def test_separation_equals_dense_scan(make):
    x = make()
    assert cc.separation(x) == dense_separation(x)


@pytest.mark.parametrize("delta", [1e-7, 3e-8])
def test_separation_sphere_near_threshold(delta):
    x = pinched_sphere_loop(delta)
    assert abs(cc.separation(x) - delta) <= 1e-9 * delta
    assert cc.is_embedding(x)


# image_distance against analytic and brute-force oracles on every backend


def latitude_circle(P, polar):
    th = cc.fourier.nodes(P)
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
# the largest distances of two sets of 1000 random draws (9.3e-13, 8.6e-13)
@example(seed=54, diffeo_seed=2968700, amplitude=0.25214013027214266)
@example(seed=136, diffeo_seed=136, amplitude=0.2727396692214281)
def test_image_distance_same_image_property(seed, diffeo_seed, amplitude):
    # at P=64 the interpolant of the resampled curve leaves x's image by up
    # to ~7e-9 for amplitudes above 0.15 (aliasing of x∘phi, which a dense
    # closest-point search confirms), so the images are the same only where
    # the grid resolves x∘phi; at P=128 the distance stays below ~1.1e-12
    x = shapes.random_band_limited(128, seed=seed)
    y = cc.resample(x, cc.make_diffeo(diffeo_seed, amplitude, 128))
    assert cc.image_distance(x, y) <= 1e-10


def brute_force_directed(x, y, P_fine):
    probes = interp_curve(x, np.linspace(0.0, 2 * np.pi, 8 * x.P, endpoint=False))
    fine = interp_curve(y, np.linspace(0.0, 2 * np.pi, P_fine, endpoint=False))
    return float(np.max(np.min(x.space.pairwise_dist(probes, fine), axis=1)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
# of two sets of 1000 random draws, the ones nearest the bound (brute - d at 0.69 and 0.76 of it)
@example(seed_x=4258, seed_y=471735)
@example(seed_x=1024, seed_y=634)
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
    v, a = (max(np.max(np.linalg.norm(dense_interp(fourier.coeffs(c.pts), c.P, t, k), axis=1))
                for c in (x, y)) for k in (1, 2))
    h = np.pi / (64 * P)
    assert d <= brute + 1e-12
    assert brute - d <= (v**2 + (d + v * h) * a) * h**2 / (2.0 * (d - v * h))


def test_image_distance_sphere_near_antipodal():
    # every point of one tiny polar circle is within 1e-8 of antipodal to
    # the other circle, where log raises CutLocusError.  The distance is
    # still defined; this asserts the bracket [true value, pi], and
    # test_image_distance_sphere_near_antipodal_exact the value itself.
    alpha = 1e-9
    d = cc.image_distance(latitude_circle(32, alpha), latitude_circle(32, np.pi - alpha))
    assert np.pi - 2 * alpha - 1e-15 <= d <= np.pi


@pytest.mark.parametrize("alpha", [1e-9, 1e-7])
def test_image_distance_sphere_near_antipodal_exact(alpha):
    # pairwise_dist ranks near-antipodal candidates through |p + q|, where
    # arccos(p . q) reads pi for all of them
    d = cc.image_distance(latitude_circle(32, alpha), latitude_circle(32, np.pi - alpha))
    assert abs(d - (np.pi - 2 * alpha)) <= 1e-12


@pytest.mark.parametrize("offset", [-1e-17, 1e-17, 0.5 - 1e-17, 0.5 + 1e-17])
@pytest.mark.parametrize("shift", [0.0, 2 * np.pi, -2 * np.pi])
def test_resample_keeps_torus_lift_on_its_branch(offset, shift):
    # a lift whose first coordinate sits on an integer within roundoff
    # must not jump by a lattice vector; nor may a whole turn of the lift
    x = shapes.torus_geodesic(64, (1, 0), offset=(offset, 0.3))
    y = cc.resample(x, cc.Reparam(cc.Reparam.identity(64).lift + shift))
    np.testing.assert_allclose(y.pts, x.pts, rtol=0, atol=1e-15)


@pytest.mark.parametrize("P", [14, 15, 17])
def test_grid_size_must_be_even_and_at_least_16(P):
    th = fourier.nodes(P)
    with pytest.raises(ValueError, match="even integer >= 16"):
        cc.Embedding(cc.Euclidean(2), np.stack([np.cos(th), np.sin(th)], axis=1))
    with pytest.raises(ValueError, match="even integer >= 16"):
        cc.Reparam(th)


@pytest.mark.parametrize("winding", [(1.5, 0), (1.0, 0.4), (np.nan, 0), (np.inf, 0), (1e20, 0)])
def test_torus_winding_must_be_integral(winding):
    pts = shapes.torus_geodesic(64, (1, 0)).pts
    with pytest.raises(ValueError, match="integers"):
        cc.Embedding(cc.FlatTorus(2), pts, winding)


# the upsampled Taylor evaluation and the cell-list nearest-sample search of image_distance


@pytest.mark.parametrize("P", [16, 64, 512])
def test_taylor_sums_match_the_interpolant(P):
    # full-spectrum coefficients, the Nyquist mode included, at offsets up to one
    # spacing.  The reference is the interpolant moved by node j, whose Fourier
    # phases 2 pi k j / M are reduced mod 2 pi in integers, so neither side
    # rounds a phase as large as k t.
    rng = np.random.default_rng(P)
    c = np.fft.rfft(rng.standard_normal((P, 2)), axis=0)
    assert np.all(np.abs(c[-1]) > 0.0)
    M = curve.PROBES_PER_NODE * P
    N = curve._TAYLOR_ORDER
    grids = fourier.upsample(c, P, M, N + 2)
    h = 2.0 * np.pi / M
    k = np.arange(P // 2 + 1)
    w = np.where((k == 0) | (k == P // 2), 1.0, 2.0)
    for j in rng.integers(0, M, 8):
        delta = rng.uniform(-h, h, 50)
        moved = c * np.exp(2j * np.pi * ((k * j) % M) / M)[:, None]
        for order in (0, 1):
            got = fourier.taylor(grids[order:order + N + 1], np.full(50, j), delta)
            want = dense_interp(moved, P, delta, order)
            # the bound sum_k w_k k^order |c_k| / P of the order-th derivative
            bound = np.sum((w * k**order)[:, None] * np.abs(c), axis=0) / P
            assert np.all(np.abs(got - want) <= 1e-14 * bound)


def _mode_bound(c, P, order):
    """sum_k w_k k^order |c_k| / P: a bound on the order-th derivative of the interpolant."""
    k = np.arange(P // 2 + 1)
    w = np.where((k == 0) | (k == P // 2), 1.0, 2.0)
    return np.sum((w * k**order).reshape((-1,) + (1,) * (c.ndim - 1)) * np.abs(c), axis=0) / P


@pytest.mark.parametrize("P", [16, 64, 256])
def test_off_grid_evaluation_matches_the_dense_sum(P):
    # every value between nodes is a Taylor sum about the nearest node of the
    # PROBES_PER_NODE * P grid.  Full-spectrum data, the Nyquist mode included,
    # at the nodes of both grids, inside [0, 2 pi) and outside it.  Either
    # side rounds the phase of t to eps |t|, which moves a value by up to
    # eps |t| times the bound of the next derivative.
    rng = np.random.default_rng(P)
    c = fourier.coeffs(rng.standard_normal((P, 2)))
    assert np.all(np.abs(c[-1]) > 0.0)
    M = curve.PROBES_PER_NODE * P
    t = np.concatenate([fourier.nodes(P), fourier.nodes(M)[::3], rng.uniform(0.0, 2 * np.pi, 100),
                        rng.uniform(-4 * np.pi, 0.0, 100), rng.uniform(2 * np.pi, 6 * np.pi, 100),
                        [-2 * np.pi, 2 * np.pi, 4 * np.pi, -1e-17, 2 * np.pi - 1e-15]])
    for order in (0, 1):
        got = fourier.taylor_nearest(curve._grids(c, P, order), t)
        want = dense_interp(c, P, t, order)
        tol = (1e-14 * _mode_bound(c, P, order)
               + 4 * np.finfo(float).eps * np.abs(t)[:, None] * _mode_bound(c, P, order + 1))
        assert np.all(np.abs(got - want) <= tol)
    # at the nodes of the data the interpolant returns the data
    nodes = fourier.taylor_nearest(curve._grids(c, P), fourier.nodes(P))
    np.testing.assert_allclose(nodes, np.fft.irfft(c, n=P, axis=0), rtol=0,
                               atol=1e-14 * np.max(_mode_bound(c, P, 0)))


def test_reparam_evaluation_matches_the_dense_sum():
    phi = cc.make_diffeo(2, 0.3, 64)
    c = fourier.coeffs(phi.lift - fourier.nodes(64))
    t = np.concatenate([fourier.nodes(64), np.random.default_rng(1).uniform(-7.0, 14.0, 200)])
    for got, want, order in ((phi(t), dense_interp(c, 64, t) + t, 0),
                             (phi.slope(t), dense_interp(c, 64, t, 1) + 1.0, 1)):
        tol = 1e-14 * _mode_bound(c, 64, order) + 4 * np.finfo(float).eps * np.abs(t) * (
            _mode_bound(c, 64, order + 1) + 1.0)
        assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("winding", [(1, 0), (1, 1), (2, -1)])
def test_torus_lift_evaluation_is_continuous_across_turns(winding):
    # the lift is its periodic part plus the drift t * winding / (2 pi): one
    # turn later the curve is one lattice vector further on, and no jump
    # appears where t crosses a multiple of 2 pi
    x = shapes.torus_geodesic(64, winding, offset=(0.97, 0.99), wiggle=0.05, seed=2)
    c = fourier.coeffs(x.periodic_part())
    rng = np.random.default_rng(3)
    t = np.concatenate([rng.uniform(-4 * np.pi, 6 * np.pi, 200), fourier.nodes(64)])
    y = interp_curve(x, t)
    want = dense_interp(c, 64, t) + t[:, None] * x.drift
    tol = 1e-14 * _mode_bound(c, 64, 0) + 4 * np.finfo(float).eps * np.abs(t)[:, None] * (
        _mode_bound(c, 64, 1) + np.abs(x.drift))
    assert np.all(np.abs(y - want) <= tol)
    np.testing.assert_allclose(interp_curve(x, t + 2 * np.pi) - y, np.broadcast_to(winding, y.shape),
                               rtol=0, atol=1e-13)
    for k in (-1, 0, 1, 2):
        eps = 1e-9
        jump = interp_curve(x, [2 * np.pi * k + eps]) - interp_curve(x, [2 * np.pi * k - eps])
        speed = np.max(np.abs(dense_interp(c, 64, [2 * np.pi * k], 1) + x.drift))
        assert np.all(np.abs(jump) <= 2 * eps * speed * (1 + 1e-6) + 1e-14)


def test_upsample_matches_the_interpolant_at_the_nodes():
    rng = np.random.default_rng(5)
    c = np.fft.rfft(rng.standard_normal((32, 3)), axis=0)
    grids = fourier.upsample(c, 32, 256, 3)
    for order in range(3):
        want = dense_interp(c, 32, fourier.nodes(256), order)
        np.testing.assert_allclose(grids[order], want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def _nearest_pair(kind, seed, amplitude):
    """Points of a curve x on the 8P grid, reduced, and of a resampling of x on the same grid."""
    P = 64
    rng = np.random.default_rng(seed)
    th = fourier.nodes(P)
    if kind == "plane":
        x = shapes.random_band_limited(P, seed=seed)
    elif kind == "space":
        pts = np.concatenate([shapes.random_band_limited(P, seed=seed).pts,
                              0.3 * np.sin(2 * th + rng.uniform(0, 2 * np.pi))[:, None]], axis=1)
        x = cc.Embedding(cc.Euclidean(3), pts)
    elif kind == "torus":
        x = shapes.torus_geodesic(P, (1, 1), offset=(0.97, 0.99), wiggle=0.05, seed=seed)
        assert np.ptp(x.samples, axis=0).min() > 0.9  # the lift crosses both seams
    else:
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        pts = np.stack([np.cos(th), np.sin(th), 0.3 * np.sin(3 * th)], axis=1) @ rot.T
        x = cc.Embedding(cc.Sphere2(), pts / np.linalg.norm(pts, axis=1, keepdims=True))
    y = cc.resample(x, cc.make_diffeo(seed, amplitude, P))
    t = fourier.nodes(curve.PROBES_PER_NODE * P)
    return x.space, x.space.reduce(interp_curve(x, t)), interp_curve(y, t)


def _dense_rows(mp):
    """Count the probe rows that reach a dense pairwise_dist scan."""
    rows = []
    for cls in (cc.AmbientSpace, cc.Sphere2):
        dense = cls.pairwise_dist

        def counted(self, p, q, dense=dense):
            rows.append(len(p))
            return dense(self, p, q)

        mp.setattr(cls, "pairwise_dist", counted)
    return rows


def _brute_nearest(space, probes, samples):
    return np.argmin(space.pairwise_dist(probes, samples), axis=1)


@pytest.mark.parametrize("kind", ["plane", "space", "torus", "sphere"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.3))
def test_nearest_matches_brute_force_on_same_image(kind, seed, amplitude):
    space, probes, samples = _nearest_pair(kind, seed, amplitude)
    with pytest.MonkeyPatch.context() as mp:
        rows = _dense_rows(mp)
        near = space.nearest(probes, samples)
    assert sum(rows) == 0  # every probe certified by its cells
    np.testing.assert_array_equal(near, _brute_nearest(space, probes, samples))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_nearest_matches_brute_force_on_distant_curves(seed_x, seed_y):
    assume(seed_x != seed_y)
    t = fourier.nodes(curve.PROBES_PER_NODE * 32)
    probes = interp_curve(shapes.random_band_limited(32, seed=seed_x), t)
    samples = interp_curve(shapes.random_band_limited(32, seed=seed_y), t)
    space = cc.Euclidean(2)
    with pytest.MonkeyPatch.context() as mp:
        rows = _dense_rows(mp)
        near = space.nearest(probes, samples)
    assert sum(rows) > 0  # probes far from every sample took the dense scan
    np.testing.assert_array_equal(near, _brute_nearest(space, probes, samples))


@pytest.mark.parametrize("alpha", [1e-9, 1e-7])
def test_nearest_matches_brute_force_near_antipodal(alpha):
    # the latitude circles of test_image_distance_sphere_near_antipodal_exact
    t = fourier.nodes(curve.PROBES_PER_NODE * 32)
    a = interp_curve(latitude_circle(32, alpha), t)
    b = interp_curve(latitude_circle(32, np.pi - alpha), t)
    space = cc.Sphere2()
    for probes, samples in ((a, b), (b, a)):
        np.testing.assert_array_equal(space.nearest(probes, samples),
                                      _brute_nearest(space, probes, samples))
