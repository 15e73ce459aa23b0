import numpy as np
import pytest

import curvecharts as cc
from curvecharts import shapes
from curvecharts.charts import frame_at
from curvecharts.curve import interp_curve
from curvecharts.errors import NotEmbeddingError, OutsideDomainError, OutsideTubeError
from curvecharts.solver import smooth_center
import curvecharts.fourier as fourier


def random_section(c, rng, sup):
    th = c.center.grid.nodes
    coeff = np.zeros((c.P, c.rank))
    for a in range(c.rank):
        for k in range(5):
            amp, ph = rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi)
            coeff[:, a] += amp * np.cos(k * th + ph) / (k + 1)
    m = np.max(np.abs(coeff))
    if m > 0:
        coeff *= sup / m
    return cc.NormalSection(coeff)


def test_make_chart_circle_outward_frame(circle64):
    c = cc.make_chart(circle64)
    th = circle64.grid.nodes
    outward = np.stack([np.cos(th), np.sin(th)], axis=1)
    np.testing.assert_allclose(c.frame.vectors[0], outward, atol=1e-12)
    assert c.rho == pytest.approx(0.9, abs=1e-9)


def test_make_chart_torus_geodesic_rho(torus_geo64):
    # separation between lattice-translate strands is 1, so 0.45 binds
    # against the 0.9 * 0.5 injectivity term
    c = cc.make_chart(torus_geo64)
    assert c.rho == pytest.approx(0.45, rel=1e-2)


def test_make_chart_rejects_figure_eight():
    with pytest.raises(NotEmbeddingError):
        cc.make_chart(shapes.lemniscate(128))


def test_reach_estimate_circle_curvature_binds(circle64):
    assert cc.reach_estimate(circle64) == pytest.approx(0.9, abs=1e-9)


def test_reach_estimate_great_circle(great_circle96):
    # geodesic: zero geodesic curvature, so the focal term is 0.9 * pi/2
    rho = cc.reach_estimate(great_circle96)
    assert rho == pytest.approx(0.45 * np.pi, rel=1e-6)


def test_full_chart_apply_zero_section(circle64):
    c = cc.make_chart(circle64)
    W = cc.SectionField(circle64, np.zeros((64, 2)))
    np.testing.assert_allclose(cc.full_chart_apply(c, W).pts, circle64.pts, atol=1e-15)


def test_full_chart_apply_radial(circle64):
    c = cc.make_chart(circle64)
    th = circle64.grid.nodes
    W = cc.SectionField(circle64, 0.1 * np.stack([np.cos(th), np.sin(th)], axis=1))
    want = shapes.circle(64, radius=1.1)
    np.testing.assert_allclose(cc.full_chart_apply(c, W).pts, want.pts, atol=1e-12)


def test_full_chart_apply_tangential_reparameterizes(circle64):
    # tangential motion changes the image only at second order: the
    # displaced circle has radius sqrt(1 + eps^2), distance eps^2/2
    eps = 0.05
    c = cc.make_chart(circle64)
    W = cc.SectionField(circle64, eps * cc.derivative(circle64).vecs)
    y = cc.full_chart_apply(c, W)
    assert cc.image_distance(circle64, y) == pytest.approx(
        np.sqrt(1 + eps**2) - 1, abs=1e-9)


def test_chart_apply_concentric(circle64):
    c = cc.make_chart(circle64)
    u = cc.NormalSection(np.full((64, 1), 0.1))
    np.testing.assert_allclose(cc.chart_apply(c, u).pts, shapes.circle(64, radius=1.1).pts,
                               atol=1e-12)
    u = cc.NormalSection(np.full((64, 1), -0.5))
    np.testing.assert_allclose(cc.chart_apply(c, u).pts, shapes.circle(64, radius=0.5).pts,
                               atol=1e-12)


def test_chart_apply_outside_domain(circle64):
    c = cc.make_chart(circle64)
    with pytest.raises(OutsideDomainError):
        cc.chart_apply(c, cc.NormalSection(np.full((64, 1), 0.95)))


def test_chart_round_trip_random_sections(rng):
    for center in (shapes.circle(64), shapes.ellipse(64, a=1.2, b=0.9),
                   shapes.torus_geodesic(64, (1, 0)), shapes.great_circle(64)):
        c = cc.make_chart(center)
        for _ in range(5):
            u = random_section(c, rng, 0.4 * c.rho)
            u2, sigma = cc.chart_invert(c, cc.chart_apply(c, u))
            assert np.max(np.abs(u2.coeff - u.coeff)) <= 1e-8
            assert np.max(np.abs(sigma.lift - c.center.grid.nodes)) <= 1e-8


def test_chart_invert_concentric_with_phase(circle64):
    # radius-1.1 circle sampled through a phase diffeo shares the
    # radial normal fibers, so u is constant 0.1 and sigma inverts the phase
    c = cc.make_chart(circle64)
    th = circle64.grid.nodes
    phi = cc.Reparam(th + 0.3 * np.sin(th))
    y = cc.resample(shapes.circle(64, radius=1.1), phi)
    u, sigma = cc.chart_invert(c, y)
    np.testing.assert_allclose(u.coeff, 0.1, atol=1e-6)
    inv = cc.reparam_inverse(phi)
    np.testing.assert_allclose(sigma.lift, inv.lift, atol=1e-6)


def test_chart_invert_far_translate_outside_tube(circle64):
    c = cc.make_chart(circle64)
    y = cc.Embedding(circle64.space, circle64.pts + np.array([2.0, 0.0]))
    with pytest.raises(OutsideTubeError):
        cc.chart_invert(c, y)


def test_chart_invert_image_reconstruction(rng):
    x = shapes.perturbed_circle(128, amplitude=0.08, seed=9)
    c = cc.make_chart(x)
    u = random_section(c, rng, 0.3 * c.rho)
    y = cc.resample(cc.chart_apply(c, u), cc.make_diffeo(4, 0.25, 128))
    u2, _ = cc.chart_invert(c, y)
    assert cc.image_distance(cc.chart_apply(c, u2), y) <= 1e-6
    # re-inverting reproduces the same section (injectivity)
    u3, _ = cc.chart_invert(c, cc.chart_apply(c, u2))
    assert np.max(np.abs(u3.coeff - u2.coeff)) <= 1e-8


def test_transition_same_chart(circle64, rng):
    c = cc.make_chart(circle64)
    u = random_section(c, rng, 0.2)
    u2, h = cc.transition(c, c, u)
    assert np.max(np.abs(u2.coeff - u.coeff)) <= 1e-9
    assert np.max(np.abs(h.lift - circle64.grid.nodes)) <= 1e-9


def test_transition_concentric(circle64):
    c1 = cc.make_chart(circle64)
    c2 = cc.make_chart(shapes.circle(64, radius=1.05))
    u = cc.NormalSection(np.full((64, 1), 0.1))
    u2, h = cc.transition(c1, c2, u)
    np.testing.assert_allclose(u2.coeff, 0.05, atol=1e-8)
    np.testing.assert_allclose(h.lift, circle64.grid.nodes, atol=1e-8)


def test_transition_round_trip(rng):
    c1 = cc.make_chart(shapes.circle(96))
    c2 = cc.make_chart(shapes.ellipse(96, a=1.04, b=0.97))
    u = random_section(c1, rng, 0.05)
    u2, _ = cc.transition(c1, c2, u)
    u3, _ = cc.transition(c2, c1, u2)
    assert np.max(np.abs(u3.coeff - u.coeff)) <= 1e-6


def test_transition_formula_pointwise(rng):
    # the invert pair (u', sigma) reconstructs y(sigma(theta)) exactly
    c1 = cc.make_chart(shapes.circle(96))
    c2 = cc.make_chart(shapes.ellipse(96, a=1.05, b=0.95))
    u = random_section(c1, rng, 0.04)
    y = cc.chart_apply(c1, u)
    u2, sigma = cc.chart_invert(c2, y)
    lhs = interp_curve(y, sigma.lift)
    rhs = cc.chart_apply(c2, u2).pts
    assert np.max(np.linalg.norm(lhs - rhs, axis=1)) <= 1e-6


def test_project_normal_kernel_and_linearity(circle64):
    c = cc.make_chart(circle64)
    tang = cc.derivative(circle64).vecs
    nu = c.frame.vectors[0]
    zero = cc.project_normal(c, cc.SectionField(circle64, 3.0 * tang))
    np.testing.assert_allclose(zero.coeff, 0.0, atol=1e-12)
    pure = cc.project_normal(c, cc.SectionField(circle64, nu.copy()))
    np.testing.assert_allclose(pure.coeff, 1.0, atol=1e-12)
    mixed = cc.project_normal(c, cc.SectionField(circle64, tang + 2.0 * nu))
    np.testing.assert_allclose(mixed.coeff, 2.0, atol=1e-12)


def test_frame_orthonormal_3d():
    th = cc.GridCircle(96).nodes
    pts = np.stack([np.cos(th), np.sin(th), 0.3 * np.sin(2 * th)], axis=1)
    c = cc.make_chart(cc.Embedding(cc.Euclidean(3), pts))
    fr = c.frame.vectors
    gram = np.einsum("aid,bid->abi", fr, fr)
    assert np.max(np.abs(gram - np.eye(2)[:, :, None])) <= 1e-10
    tang = cc.derivative(c.center).vecs
    assert np.max(np.abs(np.einsum("aid,id->ai", fr, tang))) <= 1e-8


def test_frame_at_interpolates_nodes(circle64):
    c = cc.make_chart(circle64)
    fr = frame_at(c, circle64.grid.nodes)
    np.testing.assert_allclose(fr, c.frame.vectors, atol=1e-10)


def test_tangent_lemma_fd(rng):
    # derivative of r -> chart coordinates of exp(x, rV) equals the
    # normal projection of V, with second-order convergence
    x = shapes.perturbed_circle(128, amplitude=0.05, seed=2)
    c = cc.make_chart(x)
    th = x.grid.nodes
    V = np.zeros((128, 2))
    for k in range(4):
        for d in range(2):
            a, b = rng.uniform(-1, 1, 2)
            V[:, d] += 0.01 * (a * np.cos(k * th) + b * np.sin(k * th))
    pn = cc.project_normal(c, cc.SectionField(x, V))
    errs = []
    for r in (1e-2, 5e-3, 2.5e-3):
        up, _ = cc.chart_invert(c, cc.Embedding(x.space, x.pts + r * V))
        um, _ = cc.chart_invert(c, cc.Embedding(x.space, x.pts - r * V))
        errs.append(np.max(np.abs((up.coeff - um.coeff) / (2 * r) - pn.coeff)))
    order = np.log(errs[0] / errs[2]) / np.log(4.0)
    assert order >= 1.0
    assert errs[2] <= 1e-4 * np.max(np.abs(V))


def test_chart_invert_rotated_tilted_great_circle():
    # a rotation of S^2 under which the arccos distance left ~1e-8 of noise
    # in the fiber function, so the bracketed root lost its sign change
    R = np.array([[0.2824943649951872, 0.7918082494903431, 0.5415132775703705],
                  [-0.9042490408360858, 0.4082369440875881, -0.12520491056283],
                  [-0.3202040066785313, -0.45429318013928677, 0.8313164864153415]])
    th = fourier.nodes(96)
    pts = np.stack([np.cos(th), np.sin(th), 0.05 * np.sin(3 * th)], axis=1)
    x0 = cc.Embedding(cc.Sphere2(), (pts / np.linalg.norm(pts, axis=1, keepdims=True)) @ R.T)
    c = cc.make_chart(smooth_center(x0, 24))
    u, _ = cc.chart_invert(c, x0)
    assert cc.image_distance(cc.chart_apply(c, u), x0) <= 1e-10
