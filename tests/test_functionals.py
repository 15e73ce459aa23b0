import dataclasses

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvecharts as cc
from curvecharts import Sphere2, fourier, shapes
from curvecharts.errors import OutsideDomainError, UnsupportedAmbientError
from curvecharts.functionals import _grad_pts, _hessian, _pullback_gradient


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


@pytest.mark.parametrize("kind", sorted(cc.functionals.TERM_KINDS))
def test_parse_functional_reads_every_term_kind(kind):
    assert cc.parse_functional(kind).terms == ((kind, 1.0),)
    assert cc.parse_functional(f"length-2.5*{kind}").terms == (("length", 1.0), (kind, -2.5))


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


@pytest.mark.parametrize("polar", [0.3, 0.8, 1.2, 1.5])
def test_bending_energy_sphere_latitudes(polar):
    # oracle: a circle of latitude at polar angle t0 has geodesic curvature
    # cos t0 / sin t0 and length 2 pi sin t0, so bend = 2 pi cos^2 t0 / sin t0
    th = cc.fourier.nodes(32)
    pts = np.stack([np.sin(polar) * np.cos(th), np.sin(polar) * np.sin(th),
                    np.full(32, np.cos(polar))], axis=1)
    val = cc.evaluate(cc.parse_functional("bend"), cc.Embedding(Sphere2(), pts))
    assert val == pytest.approx(2 * np.pi * np.cos(polar) ** 2 / np.sin(polar), rel=0, abs=1e-12)


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


def test_first_variation_needs_no_embedding():
    # no chart is built: the figure eight is no embedding, and its first variation is
    # still the derivative of evaluate.  Oracle: central differences of evaluate (an
    # Embedding holds real points), whose truncation error h^2/6 times the third
    # derivative is about 1e-9
    x = shapes.lemniscate(128)
    th = cc.fourier.nodes(x.P)
    V = np.stack([np.cos(2 * th), 0.5 * np.sin(3 * th) + 0.2], axis=1)
    h = 1e-4
    for name in ("length", "bend", "length-0.5*area"):
        F = cc.parse_functional(name)
        fd = (cc.evaluate(F, cc.Embedding(x.space, x.pts + h * V))
              - cc.evaluate(F, cc.Embedding(x.space, x.pts - h * V))) / (2 * h)
        assert cc.first_variation(F, x, V) == pytest.approx(fd, rel=1e-7, abs=1e-8)


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
    F, c = cc.parse_functional("length-1.0*area"), cc.make_chart(circle64)
    raw = _hessian(F, c, c.frame, np.eye(c.P * c.rank))
    assert np.max(np.abs(raw - raw.T)) <= 1e-6
    Q = cc.hessian_in_chart(F, c)
    assert isinstance(Q, np.ndarray) and np.max(np.abs(Q - Q.T)) == 0.0


def test_hessian_full_symmetry(circle64):
    F, c = cc.parse_functional("length-1.0*area"), cc.make_chart(circle64)
    basis = c.center.space.section_basis(c.tangent, c.frame)
    raw = _hessian(F, c, basis, np.eye(c.P * basis.shape[0]))
    assert np.max(np.abs(raw - raw.T)) <= 1e-6
    assert isinstance(cc.hessian_full(F, c), np.ndarray)


def test_restriction_identity_critical_circle(circle64):
    F = cc.parse_functional("length-1.0*area")
    c = cc.make_chart(circle64)
    Q = cc.hessian_in_chart(F, c)
    Qf = cc.hessian_full(F, c)
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
    Q = cc.hessian_in_chart(F, c)
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
        g = _pullback_gradient(F, c, coeff, basis)[1]
        fd = fd_gradient_coeff(f, coeff, 1e-4) / w[:, None]
        np.testing.assert_allclose(g, fd, rtol=0, atol=1e-7 * np.max(np.abs(fd)))


@pytest.mark.parametrize("P", [16, 24, 64, 128, 256])
def test_bend_spectrum_great_circle(P):
    # oracle: the second variation of the elastic energy at a great circle
    # has eigenvalues 2 (k^2 - 1)^2 on the Fourier modes k of the normal section
    c = cc.make_chart(shapes.great_circle(P))
    vals = cc.spectrum(cc.parse_functional("bend"), c, 5)
    ks = np.array([0, 1, 1, 2, 2])
    np.testing.assert_allclose(vals, np.sort(2.0 * (ks**2 - 1.0) ** 2), atol=1e-6)


@pytest.mark.parametrize("case, P", [("bend", 128), ("bend", 256), ("bend", 512),
                                     ("torus", 64), ("torus", 256), ("torus", 512)])
def test_spectrum_at_the_roundoff_floor(case, P):
    # oracle: bend at the unit circle has eigenvalues 2 k^4 - 5 k^2 + 2 on the
    # Fourier modes k, [-1, -1, 2, 14, 14]; length at the (1, 0) torus geodesic
    # has (2 pi k)^2, [0, 4 pi^2, 4 pi^2].  The Hessian takes no difference, so
    # its error is the roundoff of the spectral derivatives: eps times the
    # largest multiplier, (P/2)^4 for bend's fourth derivative and (pi P)^2 for
    # the second arclength derivative on a loop of length 1, times 8.
    eps = np.finfo(float).eps
    if case == "bend":
        c, F, want, floor = (cc.make_chart(shapes.circle(P)), cc.parse_functional("bend"),
                             [-1.0, -1.0, 2.0, 14.0, 14.0], (P / 2) ** 4)
    else:
        c, F, want, floor = (cc.make_chart(shapes.torus_geodesic(P)), cc.parse_functional("length"),
                             [0.0, 4 * np.pi**2, 4 * np.pi**2], (np.pi * P) ** 2)
    vals = cc.spectrum(F, c, len(want))
    assert np.max(np.abs(vals - np.array(want))) <= 8.0 * eps * floor


def test_restriction_identity_bend_great_circle():
    F = cc.parse_functional("bend")
    c = cc.make_chart(shapes.great_circle(24))
    Q = cc.hessian_in_chart(F, c)
    Qf = cc.hessian_full(F, c)
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
    # Richardson derivative of the weighted gradient along v, a real
    # difference at step h = 1e-4, independent of the complex step.  A sup
    # norm of at most 1 keeps the step along v no larger than h.  Each
    # estimate errs by at most 3 delta / h per unit of
    # direction, delta the gradient's roundoff: at most eps * max|x| * |Q|_inf
    # for input roundoff eps * max|x|.  Q v sums |v|_1 columns, and
    # symmetrizing averages two entries of that bound.
    c, F = _second_variation_case(backend)
    basis = c.center.space.section_basis(c.tangent, c.frame) if full else c.frame
    Q = (cc.hessian_full if full else cc.hessian_in_chart)(F, c)
    v = rng.uniform(-1.0, 1.0, (c.P, basis.shape[0]))
    h = 1e-4

    def phi(r):
        return (_pullback_gradient(F, c, r * v, basis)[1] * c.weights[:, None]).ravel()

    d1 = (phi(h) - phi(-h)) / (2.0 * h)
    d2 = (phi(0.5 * h) - phi(-0.5 * h)) / h
    directional = (4.0 * d2 - d1) / 3.0
    delta = np.finfo(float).eps * np.max(np.abs(c.center.pts)) * np.max(
        np.sum(np.abs(Q), axis=1))
    tol = 3.0 * delta / h * (np.sum(np.abs(v)) + 1.0)
    assert np.max(np.abs(Q @ v.ravel() - directional)) <= tol


def _torus3_curve(P):
    th = fourier.nodes(P)
    w = np.array([1, 1, 0])
    wiggle = 0.05 * np.stack([np.sin(2 * th), np.cos(3 * th), np.sin(th + 1.0)], axis=1)
    return cc.Embedding(cc.FlatTorus(3), th[:, None] / (2 * np.pi) * w + wiggle + 0.3, w)


# case -> (chart center at P, functional) for the column-by-column oracle
COLUMNWISE_CASES = {
    "plane-bend-length-area": (lambda P: shapes.perturbed_circle(P, amplitude=0.06, seed=0),
                               "bend+length-0.5*area"),
    "euclidean3": (lambda P: _space_curve(P), "length+0.5*bend"),
    "torus3": (_torus3_curve, "length+0.5*bend"),
    "torus-geodesic": (lambda P: shapes.torus_geodesic(P, (1, 1)), "length"),
    "sphere-bend-length": (tilted_great_circle, "bend+2*length"),
    "plane-area": (lambda P: shapes.perturbed_circle(P, amplitude=0.06, seed=0), "area"),
    "zero": (lambda P: shapes.perturbed_circle(P, amplitude=0.06, seed=0), "0*length"),
}


@pytest.mark.parametrize("case", COLUMNWISE_CASES)
@pytest.mark.parametrize("full", [False, True], ids=["chart", "full"])
@pytest.mark.parametrize("P", [16, 32])
def test_hessian_equals_columnwise_complex_step(case, full, P):
    # oracle: column j is the complex step of the weighted gradient along the
    # coefficient of direction j % dim at node j // dim, one gradient call per
    # column, then symmetrized; both sides are exact to roundoff
    make, functional = COLUMNWISE_CASES[case]
    F, c = cc.parse_functional(functional), cc.make_chart(make(P))
    basis = c.center.space.section_basis(c.tangent, c.frame) if full else c.frame
    dim, h = basis.shape[0], 1e-30
    cols = np.empty((P * dim, P * dim))
    for j in range(P * dim):
        E = np.zeros((P, dim), dtype=complex)
        E[j // dim, j % dim] = 1j * h
        cols[:, j] = (_pullback_gradient(F, c, E, basis)[1].imag / h * c.weights[:, None]).ravel()
    want = 0.5 * (cols + cols.T)
    Q = (cc.hessian_full if full else cc.hessian_in_chart)(F, c)
    if case == "zero":
        assert np.max(np.abs(want)) == 0.0 and np.max(np.abs(Q)) == 0.0
    assert np.max(np.abs(Q - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("backend", SECOND_VARIATION_CASES)
@pytest.mark.parametrize("full", [False, True], ids=["chart", "full"])
def test_hessian_product_equals_the_matrix_times_the_block(backend, full, rng):
    # 45 columns: one full block of `_hessian`'s columns and one partial
    c, F = _second_variation_case(backend)
    basis = c.center.space.section_basis(c.tangent, c.frame) if full else c.frame
    n = c.P * basis.shape[0]
    H = _hessian(F, c, basis, np.eye(n))
    V = rng.standard_normal((n, 45))
    want = H @ V
    got = _hessian(F, c, basis, V)
    assert got.shape == want.shape
    tol = 8 * np.finfo(float).eps * np.max(np.abs(H).sum(axis=1)) * np.max(np.abs(V))
    assert np.max(np.abs(got - want)) <= tol


def _space_curve(P):
    th = fourier.nodes(P)
    return cc.Embedding(cc.Euclidean(3), np.stack(
        [2.0 * np.cos(th), np.sin(th), 0.3 * np.sin(3 * th)], axis=1))


# backend -> chart center
FUSED_CENTERS = {
    "plane": lambda: shapes.perturbed_circle(64, amplitude=0.06, seed=0),
    "euclidean3": lambda: _space_curve(64),
    "torus": lambda: shapes.torus_geodesic(64, (1, 1), wiggle=0.05, seed=1),
    "sphere": lambda: tilted_great_circle(64),
}


# length - area only in the plane, the one backend with a signed area
@pytest.mark.parametrize("backend, functional", [
    (backend, functional) for backend in FUSED_CENTERS
    for functional in ("length", "length-1.0*area", "length+0.5*bend")
    if backend == "plane" or "area" not in functional])
def test_value_and_gradient_equals_the_separate_calls(backend, functional, rng):
    # one exponential and one transform give evaluate and gradient_in_chart
    # bit for bit, at the zero section and at a nonzero one
    F, c = cc.parse_functional(functional), cc.make_chart(FUSED_CENTERS[backend]())
    coeff = 0.2 * c.rho / np.sqrt(c.rank) * fourier.truncate(
        rng.uniform(-1.0, 1.0, (c.P, c.rank)), 4)
    assert np.max(np.abs(coeff)) > 0.0
    for u in (cc.NormalSection.zero(c.P, c.rank), cc.NormalSection(coeff)):
        f, g = cc.value_and_gradient(F, c, u.coeff)
        assert type(f) is float and f == cc.evaluate(F, cc.chart_apply(c, u))
        assert np.array_equal(g.coeff, cc.gradient_in_chart(F, c, u).coeff)


def test_value_and_gradient_rejects_sections_past_the_chart_radius(circle64):
    c = cc.make_chart(circle64)
    with pytest.raises(OutsideDomainError):
        cc.value_and_gradient(cc.parse_functional("length"), c, np.full((64, 1), 1.01 * c.rho))


@pytest.mark.parametrize("order", [1, 2, (1, 2)], ids=["first", "second", "both"])
@pytest.mark.parametrize("shape", [(32, 2), (32, 5, 3)], ids=["curve", "batched"])
def test_complex_diff_is_real_and_imaginary_parts(order, shape, rng):
    # the complex branch differentiates the two parts in one transform, bit for bit
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got, re, im = (fourier.diff(v, order) for v in (z, z.real, z.imag))
    if not isinstance(order, tuple):
        got, re, im = (got,), (re,), (im,)
    for g, r, i in zip(got, re, im):
        assert g.dtype == complex and np.array_equal(g, r + 1j * i)


@pytest.mark.parametrize("P", [128, 256, 512])
def test_complex_diff_of_a_column_block_equals_the_stacked_parts(P, rng):
    # the interleaved view of a (P, 32, 2) block, contiguous or strided,
    # gives the transform of its parts stacked on a last axis bit for bit
    wide = rng.standard_normal((P, 64, 2)) + 1j * rng.standard_normal((P, 64, 2))
    for z in (np.ascontiguousarray(wide[:, :32]), wide[:, ::2]):
        stacked = fourier.diff(np.stack([z.real, z.imag], axis=-1), (1, 2))
        for got, d in zip(fourier.diff(z, (1, 2)), stacked):
            assert np.array_equal(got, d[..., 0] + 1j * d[..., 1])


def test_one_forward_fft_for_both_derivatives(monkeypatch):
    # the first and second derivatives of the samples share one rfft and one
    # irfft, and the gradient's -D ga + D^2 gb takes one more of each, with or
    # without a bend term; so does each column block of the Hessian
    x = shapes.perturbed_circle(32, amplitude=0.06, seed=0)
    d1, d2 = fourier.diff(x.pts, (1, 2))
    assert np.array_equal(d1, fourier.diff(x.pts)) and np.array_equal(d2, fourier.diff(x.pts, 2))
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        monkeypatch.setattr(np.fft, name, lambda *args, _fn=getattr(np.fft, name), _name=name, **kw:
                            calls.__setitem__(_name, calls[_name] + 1) or _fn(*args, **kw))

    def counted(fn):
        calls.update(rfft=0, irfft=0)
        fn()
        return dict(calls)

    assert counted(lambda: cc.curvature(x)) == {"rfft": 1, "irfft": 1}
    c = cc.make_chart(x)
    for functional in ("length", "length-1.0*area", "length+0.5*bend"):
        F = cc.parse_functional(functional)
        assert counted(lambda: _grad_pts(F, x.space, x.pts, x.drift)) == {"rfft": 2, "irfft": 2}
        # the base gradient at the center, then one block of 32 columns
        assert counted(lambda: _hessian(F, c, c.frame, np.eye(32 * c.rank)[:, :32])) == {
            "rfft": 4, "irfft": 4}


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


def test_first_variation_shape_error_names_the_curve_nodes(circle64):
    want = r"per node of the curve x: shape \(64, 2\), got \(64, 1\)"
    with pytest.raises(ValueError, match=want):
        cc.first_variation(cc.parse_functional("length"), circle64, np.zeros((64, 1)))


@pytest.mark.parametrize("make, shape", [
    (lambda: shapes.circle(64), (64, 2)),                        # rank 1, two directions given
    (lambda: shapes.circle(64), (64,)),
    (lambda: shapes.circle(64), (32, 1)),
    (lambda: shapes.torus_geodesic(64, (1, 1, 0)), (64, 1)),     # rank 2, one direction given
    (lambda: shapes.torus_geodesic(64, (1, 1, 0)), (64, 2, 1)),
], ids=["circle-P2", "circle-P", "circle-half", "torus3-P1", "torus3-batched"])
def test_gradient_entry_points_reject_a_section_of_the_wrong_shape(make, shape):
    # none of them broadcasts a size-1 axis: chart_apply's error for any shape but (P, rank)
    c, F = cc.make_chart(make()), cc.parse_functional("length")
    coeff = np.zeros(shape)
    with pytest.raises(ValueError, match="section shape does not match the chart"):
        cc.value_and_gradient(F, c, coeff)
    if coeff.ndim == 2:
        u = cc.NormalSection(coeff)
        for call in (lambda: cc.gradient_in_chart(F, c, u), lambda: cc.is_critical(F, c, u, 1e3),
                     lambda: cc.chart_apply(c, u)):
            with pytest.raises(ValueError, match="section shape does not match the chart"):
                call()


@pytest.mark.parametrize("winding", [(1, 0, 0), (1, 1, 0), (1, 2, 3)])
def test_torus_geodesic_in_three_dimensions(winding):
    # a straight closed geodesic of FlatTorus(3): length |w|, an orbit of
    # rank 2 with a 1-d stabilizer (translation along itself), and the
    # length spectrum 0, 0 (its translates), then (2 pi / |w|)^2 on the
    # modes k = 1 of both normal directions
    x = shapes.torus_geodesic(64, winding)
    norm = np.linalg.norm(winding)
    assert abs(cc.length(x) - norm) <= 1e-14 * norm
    c = cc.make_chart(x)
    assert cc.orbit_rank(c, cc.standard_killing_basis(x.space)) == (2, 1)
    vals = cc.spectrum(cc.parse_functional("length"), c, 6)
    assert np.max(np.abs(vals[:2])) <= 5e-12
    np.testing.assert_allclose(vals[2:], (2.0 * np.pi / norm) ** 2, rtol=1e-11, atol=0)


@pytest.mark.parametrize("terms, message", [
    ((("twist", 1.0),), "unknown functional term 'twist'"),
    ((("length", float("nan")),), "coefficients must be finite"),
], ids=["unknown-kind", "nan-coefficient"])
def test_functional_rejects_bad_terms(terms, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cc.Functional(terms)
