import dataclasses

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvecharts as cc
from curvecharts import Sphere2, fourier, shapes
from curvecharts.errors import OutsideDomainError, UnsupportedAmbientError
from curvecharts.functionals import _HESS_STEP, _grad_pts, _pullback_gradient


def test_parse_functional_grammar():
    F = cc.parse_functional("length-1.0*area")
    assert F.coefficient("length") == 1.0
    assert F.coefficient("area") == -1.0
    G = cc.parse_functional("length+0.25*bend")
    assert G.coefficient("bend") == 0.25
    with pytest.raises(ValueError):
        cc.parse_functional("volume")
    with pytest.raises(ValueError):
        cc.parse_functional("")
    # every term after the first starts with its sign
    with pytest.raises(ValueError):
        cc.parse_functional("lengtharea")
    with pytest.raises(ValueError):
        cc.parse_functional("length2*area")


def test_length_circle(circle64):
    assert cc.evaluate(cc.parse_functional("length"), circle64) == pytest.approx(
        2 * np.pi, abs=1e-10)


def test_signed_area_circle_ccw(circle64):
    assert cc.evaluate(cc.parse_functional("area"), circle64) == pytest.approx(
        np.pi, abs=1e-10)


def test_bending_energy_circles():
    # oracle: kappa = 1/r constant, integral = 2*pi/r; cross-checked by
    # adaptive quadrature of kappa(t)^2 |x'(t)| for the sampled circle
    for r in (0.5, 1.0, 2.0):
        x = shapes.circle(128, radius=r)
        val = cc.evaluate(cc.parse_functional("bend"), x)
        assert val == pytest.approx(2 * np.pi / r, abs=1e-8)
        quad, _ = scipy.integrate.quad(lambda t: (1 / r) ** 2 * r, 0, 2 * np.pi)
        assert val == pytest.approx(quad, abs=1e-8)


def test_area_unsupported_off_plane(great_circle96):
    with pytest.raises(UnsupportedAmbientError):
        cc.evaluate(cc.parse_functional("area"), great_circle96)


def test_first_variation_length_outward(circle64):
    # oracle: dL[u] = integral of kappa * u ds = 2 pi for u = 1, kappa = 1
    th = cc.fourier.nodes(circle64.P)
    V = np.stack([np.cos(th), np.sin(th)], axis=1)
    fv = cc.first_variation(cc.parse_functional("length"), circle64, V)
    assert fv == pytest.approx(2 * np.pi, abs=1e-6)


def test_first_variation_area_outward(circle64):
    # oracle: dA[u] = integral of u ds = 2 pi
    th = cc.fourier.nodes(circle64.P)
    V = np.stack([np.cos(th), np.sin(th)], axis=1)
    fv = cc.first_variation(cc.parse_functional("area"), circle64, V)
    assert fv == pytest.approx(2 * np.pi, abs=1e-6)


def test_first_variation_tangential_vanishes(circle64):
    V = 0.7 * cc.derivative(circle64)
    for name in ("length", "area", "bend"):
        fv = cc.first_variation(cc.parse_functional(name), circle64, V)
        assert abs(fv) <= 1e-6


def test_gradient_critical_circle(circle128):
    c = cc.make_chart(circle128)
    g = cc.gradient_in_chart(cc.parse_functional("length-1.0*area"), c,
                             cc.NormalSection.zero(128, 1))
    assert cc.grad_norm(c, g) <= 1e-8


def test_gradient_length_circle_is_curvature(circle128):
    c = cc.make_chart(circle128)
    g = cc.gradient_in_chart(cc.parse_functional("length"), c,
                             cc.NormalSection.zero(128, 1))
    np.testing.assert_allclose(g.coeff, 1.0, atol=1e-6)


def test_gradient_torus_geodesic_zero(torus_geo64):
    c = cc.make_chart(torus_geo64)
    g = cc.gradient_in_chart(cc.parse_functional("length"), c,
                             cc.NormalSection.zero(64, 1))
    assert np.max(np.abs(g.coeff)) <= 1e-10


def test_gradient_consistency_with_first_variation(rng):
    x = shapes.perturbed_circle(96, amplitude=0.06, seed=1)
    c = cc.make_chart(x)
    w = cc.quadrature_weights(x)
    th = cc.fourier.nodes(x.P)
    for name in ("length", "bend", "length-0.5*area"):
        F = cc.parse_functional(name)
        g = cc.gradient_in_chart(F, c, cc.NormalSection.zero(96, 1))
        for _ in range(10):
            coeff = np.zeros(96)
            for k in range(5):
                coeff += rng.uniform(-1, 1) * np.cos(k * th + rng.uniform(0, 2 * np.pi))
            V = coeff[:, None] * c.frame[0]
            fv = cc.first_variation(F, x, V)
            pair = np.sum(g.coeff[:, 0] * coeff * w)
            assert fv == pytest.approx(pair, rel=1e-6, abs=1e-8)


def test_is_critical_two_charts(circle128):
    F = cc.parse_functional("length-1.0*area")
    c1 = cc.make_chart(circle128)
    assert cc.is_critical(F, c1, cc.NormalSection.zero(128, 1), 1e-6)
    # same class represented in a nearby chart
    c2 = cc.make_chart(shapes.ellipse(128, a=1.03, b=0.98))
    u2, _ = cc.chart_invert(c2, circle128)
    assert cc.is_critical(F, c2, u2, 1e-6)
    # non-critical counterpart
    Flen = cc.parse_functional("length")
    assert not cc.is_critical(Flen, c1, cc.NormalSection.zero(128, 1), 1e-6)
    assert not cc.is_critical(Flen, c2, u2, 1e-6)


def test_hessian_symmetry(circle64):
    hp = cc.hessian_in_chart(cc.parse_functional("length-1.0*area"), cc.make_chart(circle64))
    assert hp.asymmetry <= 1e-6
    assert np.max(np.abs(hp.Q - hp.Q.T)) == 0.0


def test_hessian_full_symmetry(circle64):
    hp = cc.hessian_full(cc.parse_functional("length-1.0*area"), cc.make_chart(circle64))
    assert hp.asymmetry <= 1e-6


def test_restriction_identity_critical_circle(circle64):
    F = cc.parse_functional("length-1.0*area")
    c = cc.make_chart(circle64)
    Q = cc.hessian_in_chart(F, c).Q
    Qf = cc.hessian_full(F, c).Q
    R = cc.restriction_matrix(c)
    assert np.max(np.abs(R.T @ Qf @ R - Q)) <= 1e-6 * np.max(np.abs(Q))


def test_invariance_under_resampling():
    x = shapes.random_band_limited(256, seed=3)
    phi = cc.make_diffeo(8, 0.3, 256)
    y = cc.resample(x, phi)
    for name in ("length", "area", "bend"):
        F = cc.parse_functional(name)
        a, b = cc.evaluate(F, x), cc.evaluate(F, y)
        assert abs(a - b) <= 1e-8 * (1 + abs(a))


def test_orbit_columns_in_hessian_kernel(circle64):
    F = cc.parse_functional("length-1.0*area")
    c = cc.make_chart(circle64)
    Q = cc.hessian_in_chart(F, c).Q
    basis = cc.standard_killing_basis(circle64.space)
    qnorm = np.linalg.norm(Q, 2)
    for A, b in basis:
        v = cc.project_normal(c, circle64.pts @ A.T + b).coeff.ravel()
        n = np.linalg.norm(v)
        if n < 1e-12:
            continue
        assert np.linalg.norm(Q @ v) <= 1e-6 * qnorm * n


def tilted_great_circle(P, tilt=0.2):
    # not critical for bend: a great circle tilted by tilt * sin(2 theta)
    th = fourier.nodes(P)
    pts = np.stack([np.cos(th), np.sin(th), tilt * np.sin(2 * th)], axis=1)
    return cc.Embedding(Sphere2(), Sphere2().retract(pts))


def test_gradient_consistency_with_first_variation_sphere(rng):
    x = tilted_great_circle(96)
    c = cc.make_chart(x)
    w = cc.quadrature_weights(x)
    th = cc.fourier.nodes(x.P)
    F = cc.parse_functional("bend")
    g = cc.gradient_in_chart(F, c, cc.NormalSection.zero(96, 1))
    assert np.max(np.abs(g.coeff)) > 0.1
    for _ in range(10):
        coeff = np.zeros(96)
        for k in range(5):
            coeff += rng.uniform(-1, 1) * np.cos(k * th + rng.uniform(0, 2 * np.pi))
        V = coeff[:, None] * c.frame[0]
        fv = cc.first_variation(F, x, V)
        pair = np.sum(g.coeff[:, 0] * coeff * w)
        assert fv == pytest.approx(pair, rel=1e-6, abs=1e-8)


def fd_gradient_coeff(fun, coeff, step):
    """Richardson central differences of a scalar function of a coefficient array."""
    out = np.zeros_like(coeff)
    for idx in np.ndindex(coeff.shape):
        e = np.zeros_like(coeff)
        e[idx] = 1.0
        d1 = (fun(coeff + step * e) - fun(coeff - step * e)) / (2.0 * step)
        d2 = (fun(coeff + 0.5 * step * e) - fun(coeff - 0.5 * step * e)) / step
        out[idx] = (4.0 * d2 - d1) / 3.0
    return out


def test_full_gradient_sphere_bend_matches_central_differences(rng):
    # oracle: the L2(ds) gradient over all sections of x^*(TS^2), at the zero
    # section and at a nonzero one, against differences of evaluate
    x = tilted_great_circle(24)
    c = cc.make_chart(x)
    F = cc.parse_functional("length+0.5*bend")
    basis = c.center.space.section_basis(c.tangent, c.frame)
    w = cc.quadrature_weights(x)

    def f(cf):
        W = np.einsum("ia,aid->id", cf, basis)
        return cc.evaluate(F, cc.full_chart_apply(c, W))

    for coeff in (np.zeros((24, 2)), 0.02 * rng.standard_normal((24, 2))):
        g = _pullback_gradient(F, c, coeff, basis)
        fd = fd_gradient_coeff(f, coeff, 1e-4) / w[:, None]
        np.testing.assert_allclose(g, fd, rtol=0, atol=1e-7 * np.max(np.abs(fd)))


@pytest.mark.parametrize("P", [16, 24, 64])
def test_bend_spectrum_great_circle(P):
    # oracle: the second variation of the elastic energy at a great circle
    # has eigenvalues 2 (k^2 - 1)^2 on the Fourier modes k of the normal section
    c = cc.make_chart(shapes.great_circle(P))
    vals = cc.spectrum(cc.parse_functional("bend"), c, 5)
    ks = np.array([0, 1, 1, 2, 2])
    np.testing.assert_allclose(vals, np.sort(2.0 * (ks**2 - 1.0) ** 2), atol=1e-6)


def test_restriction_identity_bend_great_circle():
    F = cc.parse_functional("bend")
    c = cc.make_chart(shapes.great_circle(24))
    Q = cc.hessian_in_chart(F, c).Q
    Qf = cc.hessian_full(F, c).Q
    R = cc.restriction_matrix(c)
    assert np.max(np.abs(R.T @ Qf @ R - Q)) <= 1e-6 * np.max(np.abs(Q))


# backend -> (chart center, functional) for the Hessian and batching checks
SECOND_VARIATION_CASES = {
    "plane": (lambda: shapes.perturbed_circle(32, amplitude=0.06, seed=0), "length-1.0*area"),
    "torus": (lambda: shapes.torus_geodesic(32, (1, 1), wiggle=0.05, seed=1), "length"),
    "sphere": (lambda: tilted_great_circle(24), "length+0.5*bend"),
}


def _second_variation_case(backend):
    make, functional = SECOND_VARIATION_CASES[backend]
    return cc.make_chart(make()), cc.parse_functional(functional)


@pytest.mark.parametrize("backend", SECOND_VARIATION_CASES)
@pytest.mark.parametrize("full", [False, True], ids=["chart", "full"])
def test_hessian_matches_directional_derivative_of_gradient(backend, full, rng):
    # oracle, blind to how the columns are assembled: Q v against the
    # Richardson derivative of the weighted gradient along v at the same step h.
    # A sup norm of at most 1 keeps the step along v no larger than a
    # column's.  Each estimate errs by at most 3 delta / h per unit of
    # direction, delta the gradient's roundoff: at most eps * max|x| * |Q|_inf
    # for input roundoff eps * max|x|.  Q v sums |v|_1 columns, and
    # symmetrizing averages two entries of that bound.
    c, F = _second_variation_case(backend)
    basis = c.center.space.section_basis(c.tangent, c.frame) if full else c.frame
    pair = (cc.hessian_full if full else cc.hessian_in_chart)(F, c)
    v = rng.uniform(-1.0, 1.0, (c.P, basis.shape[0]))
    h = _HESS_STEP

    def phi(r):
        return (_pullback_gradient(F, c, r * v, basis) * c.weights[:, None]).ravel()

    d1 = (phi(h) - phi(-h)) / (2.0 * h)
    d2 = (phi(0.5 * h) - phi(-0.5 * h)) / h
    directional = (4.0 * d2 - d1) / 3.0
    delta = np.finfo(float).eps * np.max(np.abs(c.center.pts)) * np.max(
        np.sum(np.abs(pair.Q), axis=1))
    tol = 3.0 * delta / h * (np.sum(np.abs(v)) + 1.0)
    assert np.max(np.abs(pair.Q @ v.ravel() - directional)) <= tol


@pytest.mark.parametrize("backend", SECOND_VARIATION_CASES)
def test_batched_gradient_equals_loop(backend, rng):
    # a (P, B, dim) stack gives, column by column, the (P, dim) gradients
    c, F = _second_variation_case(backend)
    for basis in (c.frame, c.center.space.section_basis(c.tangent, c.frame)):
        dim = basis.shape[0]
        stack = np.stack([0.2 * c.rho / np.sqrt(dim) * fourier.truncate(
            rng.uniform(-1.0, 1.0, (c.P, dim)), 4) for _ in range(5)], axis=1)
        batched = _pullback_gradient(F, c, stack, basis)
        assert batched.shape == stack.shape
        for b in range(stack.shape[1]):
            single = _pullback_gradient(F, c, stack[:, b], basis)
            assert np.max(np.abs(batched[:, b] - single)) <= 1e-14 * np.max(np.abs(single))
        # one column past the chart radius fails the whole stack
        stack[3, 2, 0] = 1.01 * c.rho
        with pytest.raises(OutsideDomainError):
            _pullback_gradient(F, c, stack, basis)


def test_one_forward_fft_for_both_derivatives(monkeypatch):
    # the first and second derivatives of the samples share one rfft
    x = shapes.perturbed_circle(32, amplitude=0.06, seed=0)
    d1, d2 = fourier.diff(x.pts, (1, 2))
    assert np.array_equal(d1, fourier.diff(x.pts)) and np.array_equal(d2, fourier.diff(x.pts, 2))
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args, **kw: calls.append(1) or rfft(*args, **kw))
    cc.curvature(x)
    assert len(calls) == 1
    calls.clear()
    x.space.bending_gradient(x.pts, d1, d2)
    in_bending_gradient = len(calls)
    calls.clear()
    _grad_pts(cc.parse_functional("bend"), x.space, x.pts, x.drift)
    assert len(calls) == in_bending_gradient + 1


def random_sphere_curve(P, seed, amplitude=0.15, kmax=4):
    """Great circle plus random band-limited noise, retracted onto S^2."""
    th = fourier.nodes(P)
    rng = np.random.default_rng(seed)
    pts = np.stack([np.cos(th), np.sin(th), np.zeros(P)], axis=1)
    for k in range(kmax + 1):
        a, b = rng.uniform(-1.0, 1.0, size=(2, 3))
        pts += amplitude * (np.outer(np.cos(k * th), a) + np.outer(np.sin(k * th), b)) / max(k, 1)
    return cc.Embedding(Sphere2(), Sphere2().retract(pts))


def random_rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.floats(0.0, 0.05))
# the largest error of 1000 random draws (1.2e-3 of the bound)
@example(seed=6754, rot_seed=1505, scale=0.02421118089530738)
def test_sphere_bend_gradient_rotation_equivariance_property(seed, rot_seed, scale):
    # rotations are isometries of S^2 that carry the frame p x T along, so
    # the chart coefficients of the gradient do not change
    P = 32
    x = random_sphere_curve(P, seed)
    Rot = random_rotation(rot_seed)
    y = cc.Embedding(Sphere2(), x.pts @ Rot.T)
    u = cc.NormalSection(scale * fourier.truncate(
        np.random.default_rng(seed).standard_normal((P, 1)), 4))
    F = cc.parse_functional("bend")
    gx = cc.gradient_in_chart(F, cc.make_chart(x), u).coeff
    gy = cc.gradient_in_chart(F, cc.make_chart(y), u).coeff
    assert np.max(np.abs(gy - gx)) <= 1e-9 * np.max(np.abs(gx))


def _move(backend, x, rng):
    """x moved by a random isometry: plane rigid motion, torus translation, S^2 rotation."""
    if backend == "plane":
        a = rng.uniform(0.0, 2.0 * np.pi)
        R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        return cc.Embedding(x.space, x.pts @ R.T + rng.uniform(-2.0, 2.0, 2))
    if backend == "torus":
        return cc.Embedding(x.space, x.pts + rng.uniform(0.0, 1.0, 2), x.winding)
    return cc.Embedding(x.space, x.pts @ random_rotation(int(rng.integers(2**32))).T)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["plane", "torus", "sphere"]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 0.3))
# the largest error of 1000 random draws (1.3e-2 of the bound)
@example(backend="torus", seed=2556, frac=0.003638893470134664)
def test_length_gradient_isometry_equivariance_property(backend, seed, frac):
    # isometries carry the chart frame along, so the chart coefficients of
    # the length gradient do not change
    P = 64
    if backend == "plane":
        x = shapes.random_band_limited(P, seed=seed)
    elif backend == "torus":
        x = shapes.torus_geodesic(P, (1, 1), wiggle=0.05, seed=seed)
    else:
        x = random_sphere_curve(P, seed)
    rng = np.random.default_rng(seed)
    c = cc.make_chart(x)
    v = fourier.truncate(rng.standard_normal((P, 1)), 4)
    u = cc.NormalSection(frac * c.rho * v / np.max(np.abs(v)))
    F = cc.parse_functional("length")
    gx = cc.gradient_in_chart(F, c, u).coeff
    gy = cc.gradient_in_chart(F, cc.make_chart(_move(backend, x, rng)), u).coeff
    assert np.max(np.abs(gy - gx)) <= 1e-10 * np.max(np.abs(gx))


def test_chart_weights_set_the_l2_metric():
    # every L2(ds) quantity reads the chart's weights: doubling them halves
    # the gradient and the spectrum and scales norms by sqrt(2)
    x = shapes.ellipse(32)
    F = cc.parse_functional("length")
    c = cc.make_chart(x)
    c2 = dataclasses.replace(c, weights=2.0 * c.weights)
    u = cc.NormalSection(0.1 * c.rho * np.cos(2 * cc.fourier.nodes(x.P))[:, None])
    g = cc.gradient_in_chart(F, c, u)
    np.testing.assert_allclose(cc.gradient_in_chart(F, c2, u).coeff, 0.5 * g.coeff,
                               rtol=1e-15, atol=0)
    assert cc.grad_norm(c2, g) == pytest.approx(np.sqrt(2.0) * cc.grad_norm(c, g), rel=1e-15)
    vals = cc.spectrum(F, c, 4)
    np.testing.assert_allclose(cc.spectrum(F, c2, 4), 0.5 * vals,
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(vals)))
    basis = cc.standard_killing_basis(x.space)
    np.testing.assert_allclose(cc.orbit_differential(c2, basis),
                               np.sqrt(2.0) * cc.orbit_differential(c, basis), rtol=1e-15, atol=0)
