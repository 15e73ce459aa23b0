import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvecharts as cc
from curvecharts import charts, curve, shapes, solver
from curvecharts.charts import _nearest_crossing
from curvecharts.curve import interp_curve
from curvecharts.errors import (
    ChartBreakdownError,
    NotEmbeddingError,
    OutsideDomainError,
    OutsideTubeError,
    ProjectionFailedError,
)
from curvecharts.solver import smooth_center
import curvecharts.fourier as fourier
from test_functionals import random_sphere_curve


def random_section(c, rng, sup):
    th = cc.fourier.nodes(c.center.P)
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
    th = cc.fourier.nodes(circle64.P)
    outward = np.stack([np.cos(th), np.sin(th)], axis=1)
    np.testing.assert_allclose(c.frame[0], outward, atol=1e-12)
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
    W = np.zeros((64, 2))
    np.testing.assert_allclose(cc.full_chart_apply(c, W).pts, circle64.pts, atol=1e-15)


def test_full_chart_apply_radial(circle64):
    c = cc.make_chart(circle64)
    th = cc.fourier.nodes(circle64.P)
    W = 0.1 * np.stack([np.cos(th), np.sin(th)], axis=1)
    want = shapes.circle(64, radius=1.1)
    np.testing.assert_allclose(cc.full_chart_apply(c, W).pts, want.pts, atol=1e-12)


def test_full_chart_apply_tangential_reparameterizes(circle64):
    # tangential motion changes the image only at second order: the
    # displaced circle has radius sqrt(1 + eps^2), distance eps^2/2
    eps = 0.05
    c = cc.make_chart(circle64)
    W = eps * cc.derivative(circle64)
    y = cc.full_chart_apply(c, W)
    assert cc.image_distance(circle64, y) == pytest.approx(
        np.sqrt(1 + eps**2) - 1, abs=1e-9)



@pytest.mark.parametrize("make", [shapes.circle, shapes.great_circle], ids=["plane", "sphere"])
@pytest.mark.parametrize("shape", ["P-by-1", "P+2-rows", "one-dim"])
@pytest.mark.parametrize("call", ["full_chart_apply", "project_normal", "first_variation"])
def test_full_section_shape_must_match_the_center(make, shape, call):
    # a (P, 1) array would broadcast against the center without the check
    x = make(64)
    P, d = x.pts.shape
    V = np.full({"P-by-1": (P, 1), "P+2-rows": (P + 2, d), "one-dim": (P,)}[shape], 0.01)
    c = cc.make_chart(x)
    with pytest.raises(ValueError, match="one ambient vector per chart-center node"):
        if call == "first_variation":
            cc.first_variation(cc.parse_functional("length"), x, V)
        else:
            getattr(cc, call)(c, V)

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
            assert np.max(np.abs(sigma.lift - cc.fourier.nodes(c.center.P))) <= 1e-8


def test_chart_invert_concentric_with_phase(circle64):
    # radius-1.1 circle sampled through a phase diffeo shares the
    # radial normal fibers, so u is constant 0.1 and sigma inverts the phase
    c = cc.make_chart(circle64)
    th = cc.fourier.nodes(circle64.P)
    phi = cc.Reparam(th + 0.3 * np.sin(th))
    y = cc.resample(shapes.circle(64, radius=1.1), phi)
    u, sigma = cc.chart_invert(c, y)
    np.testing.assert_allclose(u.coeff, 0.1, atol=1e-6)
    inv = cc.reparam_inverse(phi)
    np.testing.assert_allclose(sigma.lift, inv.lift, atol=1e-6)


@pytest.mark.parametrize("Q", [96, 200])
def test_chart_invert_curve_on_another_grid(rng, Q):
    # the chart image y of a section on the (1, 1) torus, carried onto a finer
    # grid of Q nodes (no multiple of the chart's 64) by Fourier interpolation,
    # which keeps the curve: chart_invert returns the same section and lift
    c = cc.make_chart(shapes.torus_geodesic(64, (1, 1), wiggle=0.05, seed=2))
    u = random_section(c, rng, 0.3 * c.rho)
    y = cc.chart_apply(c, u)
    want, want_sigma = cc.chart_invert(c, y)
    assert np.max(np.abs(want.coeff - u.coeff)) <= 1e-10
    yq = cc.Embedding(y.space, interp_curve(y, fourier.nodes(Q)), y.winding)
    got, sigma = cc.chart_invert(c, yq)
    assert np.max(np.abs(got.coeff - u.coeff)) <= 1e-12
    assert np.max(np.abs(sigma.lift - want_sigma.lift)) <= 1e-12


def test_chart_invert_far_translate_outside_tube(circle64):
    c = cc.make_chart(circle64)
    y = cc.Embedding(circle64.space, circle64.pts + np.array([2.0, 0.0]))
    with pytest.raises(OutsideTubeError):
        cc.chart_invert(c, y)


def test_chart_invert_caps_the_sample_count(monkeypatch, circle64):
    # the circle scaled by 1000 would need about 256P samples to bring them
    # closer than rho / 2; the doubling stops at the cap, and the curve lies
    # far outside the tube
    c = cc.make_chart(circle64)
    y = cc.Embedding(circle64.space, 1000.0 * circle64.pts)
    counts, scan = [], cc.AmbientSpace.fiber_scan

    def recorded_scan(self, p, T, q, radius):
        counts.append(len(q))
        return scan(self, p, T, q, radius)

    monkeypatch.setattr(cc.AmbientSpace, "fiber_scan", recorded_scan)
    with pytest.raises(OutsideTubeError):
        cc.chart_invert(c, y)
    assert set(counts) == {charts._MAX_SAMPLES_PER_NODE * c.P}


def test_chart_invert_without_a_bracket_inside_the_tube_is_a_projection_failure(monkeypatch):
    # the curve lies 0.25 rho from the center, inside the tube, so a node left
    # without a bracket is a failed projection and not a tube violation
    c = cc.make_chart(shapes.random_band_limited(64, seed=40866))
    y = cc.chart_apply(c, random_section(c, np.random.default_rng(1), 0.25 * c.rho))
    nearest = charts._nearest_crossing

    def no_bracket_at_node_0(gvals, dists):
        k = nearest(gvals, dists)
        k[0] = -1
        return k

    monkeypatch.setattr(charts, "_nearest_crossing", no_bracket_at_node_0)
    with pytest.raises(ProjectionFailedError):
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
    assert np.max(np.abs(h.lift - cc.fourier.nodes(circle64.P))) <= 1e-9


def test_transition_concentric(circle64):
    c1 = cc.make_chart(circle64)
    c2 = cc.make_chart(shapes.circle(64, radius=1.05))
    u = cc.NormalSection(np.full((64, 1), 0.1))
    u2, h = cc.transition(c1, c2, u)
    np.testing.assert_allclose(u2.coeff, 0.05, atol=1e-8)
    np.testing.assert_allclose(h.lift, cc.fourier.nodes(circle64.P), atol=1e-8)


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
    tang = cc.derivative(circle64)
    nu = c.frame[0]
    zero = cc.project_normal(c, 3.0 * tang)
    np.testing.assert_allclose(zero.coeff, 0.0, atol=1e-12)
    pure = cc.project_normal(c, nu.copy())
    np.testing.assert_allclose(pure.coeff, 1.0, atol=1e-12)
    mixed = cc.project_normal(c, tang + 2.0 * nu)
    np.testing.assert_allclose(mixed.coeff, 2.0, atol=1e-12)


def test_frame_orthonormal_3d():
    th = cc.fourier.nodes(96)
    pts = np.stack([np.cos(th), np.sin(th), 0.3 * np.sin(2 * th)], axis=1)
    c = cc.make_chart(cc.Embedding(cc.Euclidean(3), pts))
    fr = c.frame
    gram = np.einsum("aid,bid->abi", fr, fr)
    assert np.max(np.abs(gram - np.eye(2)[:, :, None])) <= 1e-10
    tang = cc.derivative(c.center)
    assert np.max(np.abs(np.einsum("aid,id->ai", fr, tang))) <= 1e-8


def test_tangent_lemma_fd(rng):
    # derivative of r -> chart coordinates of exp(x, rV) equals the
    # normal projection of V, with second-order convergence
    x = shapes.perturbed_circle(128, amplitude=0.05, seed=2)
    c = cc.make_chart(x)
    th = cc.fourier.nodes(x.P)
    V = np.zeros((128, 2))
    for k in range(4):
        for d in range(2):
            a, b = rng.uniform(-1, 1, 2)
            V[:, d] += 0.01 * (a * np.cos(k * th) + b * np.sin(k * th))
    pn = cc.project_normal(c, V)
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


def _nearest_crossing_scan(gvals, dists):
    # reference: the sequential scan, where a strict < keeps the first k on ties
    n = gvals.size
    best = None
    for k in range(n):
        k2 = (k + 1) % n
        if not np.isnan(gvals[k]) and not np.isnan(gvals[k2]) and gvals[k] * gvals[k2] <= 0.0:
            score = min(dists[k], dists[k2])
            if best is None or score < best[0]:
                best = (score, k)
    return -1 if best is None else best[1]


def test_nearest_crossing_matches_sequential_scan():
    # few distinct values force ties, exact zeros and wrap-around crossings
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        gvals = rng.choice([-1.0, 0.0, 1.0, 2.0, np.nan], n)
        dists = rng.integers(0, 4, n).astype(float)
        assert _nearest_crossing(gvals, dists) == _nearest_crossing_scan(gvals, dists)
    assert _nearest_crossing(np.array([1.0, 2.0, np.nan]), np.zeros(3)) == -1
    # 2-d: one search per row, rows without a crossing included
    for _ in range(20):
        m, n = int(rng.integers(1, 8)), int(rng.integers(2, 40))
        gvals = rng.choice([-1.0, 0.0, 1.0, 2.0, np.nan], (m, n))
        gvals[0] = np.nan
        dists = rng.integers(0, 4, (m, n)).astype(float)
        want = [_nearest_crossing_scan(g, d) for g, d in zip(gvals, dists)]
        assert _nearest_crossing(gvals, dists).tolist() == want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["plane", "torus", "sphere"]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 0.4))
# the largest errors of two sets of 1000 random draws (1.8e-15 each)
@example(backend="plane", seed=368, frac=0.10894912429291266)
@example(backend="plane", seed=3389301236, frac=0.0)
# charts whose rho lies below the spacing of 4P samples of their center
@example(backend="plane", seed=306, frac=0.4)
@example(backend="plane", seed=40866, frac=0.25)
def test_chart_round_trip_property(backend, seed, frac):
    # chart_invert(c, chart_apply(c, u)) returns u and the identity lift for
    # band-limited centers and sections of sup norm up to 0.4 rho
    P = 64
    if backend == "plane":
        x = shapes.random_band_limited(P, seed=seed)
    elif backend == "torus":
        x = shapes.torus_geodesic(P, (1, 1), wiggle=0.05, seed=seed)
    else:
        x = random_sphere_curve(P, seed)
    c = cc.make_chart(x)
    rng = np.random.default_rng(seed)
    th = fourier.nodes(P)
    u = sum(rng.uniform(-1, 1) * np.cos(k * th + rng.uniform(0, 2 * np.pi)) for k in range(5))
    u = cc.NormalSection(frac * c.rho * u[:, None] / np.max(np.abs(u)))
    u2, sigma = cc.chart_invert(c, cc.chart_apply(c, u))
    assert np.max(np.abs(u2.coeff - u.coeff)) <= 1e-10
    assert np.max(np.abs(sigma.lift - th)) <= 1e-10


def dense_fiber_scan(space, p, T, q, radius):
    """Reference fiber scan of nodes p (unit tangents T) against samples q, two logs per in-tube pair.

    The distances come from `pairwise_dist`, the fiber values g from a
    second `log` of each pair within radius, and the brackets from
    `_nearest_crossing`: returns (dists, g, k).
    """
    dists = space.pairwise_dist(p, q)
    gvals = np.full(dists.shape, np.nan)
    r, j = np.nonzero(dists < radius)
    gvals[r, j] = space.inner(p[r], space.log(p[r], q[j]), T[r])
    return dists, gvals, _nearest_crossing(gvals, dists)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["plane", "torus", "sphere"]), st.sampled_from([64, 128]),
       st.integers(0, 2**32 - 1), st.floats(0.0, 0.49), st.floats(0.0, 0.3))
# a draw of 1000 whose chart needs 8P samples
@example(backend="plane", P=64, seed=44, frac=0.28549448685762496, amplitude=0.17528838466333607)
def test_fiber_scan_brackets_match_the_dense_scan(backend, P, seed, frac, amplitude):
    # chart_invert's one-log blocked scan picks the dense scan's bracket at
    # every node; on the flat backends its distances and fiber values are the
    # reference's to the bit
    if backend == "plane":
        x = shapes.random_band_limited(P, seed=seed)
    elif backend == "torus":
        x = shapes.torus_geodesic(P, (1, 1), wiggle=0.05, seed=seed)
    else:
        x = random_sphere_curve(P, seed)
    c = cc.make_chart(x)
    rng = np.random.default_rng(seed)
    y = cc.resample(cc.chart_apply(c, random_section(c, rng, frac * c.rho)),
                    cc.make_diffeo(seed, amplitude, P))
    scans, brackets = [], []
    space_cls = type(x.space)
    scan, nearest = space_cls.fiber_scan, charts._nearest_crossing

    def recorded_scan(self, p, T, q, radius):
        out = scan(self, p, T, q, radius)
        scans.append((q, out))
        return out

    def recorded_nearest(gvals, dists):
        k = nearest(gvals, dists)
        brackets.append(k)
        return k

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_cls, "fiber_scan", recorded_scan)
        mp.setattr(charts, "_nearest_crossing", recorded_nearest)
        cc.chart_invert(c, y)
    ypts = scans[0][0]
    n = len(ypts)  # 4P, doubled until consecutive samples lie closer than rho / 2
    assert n in [4 * P * 2**j for j in range(5)] and ypts.shape[1] == x.space.coord_dim
    assert np.max(x.space.dist(ypts, np.roll(ypts, -1, axis=0))) < 0.5 * c.rho
    assert all(q is ypts for q, _ in scans)
    dists, gvals, k = dense_fiber_scan(x.space, x.pts, c.tangent, ypts, c.rho)
    np.testing.assert_array_equal(np.concatenate(brackets), k)
    assert np.all(k >= 0)
    if backend != "sphere":
        np.testing.assert_array_equal(np.concatenate([d for _, (d, _) in scans]), dists)
        np.testing.assert_array_equal(np.concatenate([g for _, (_, g) in scans]), gvals)


def _cusp():
    # cardioid-style curve with a zero-speed point, as in test_curve
    th = cc.fourier.nodes(64)
    pts = np.stack([(1 + np.cos(th)) * np.cos(th), (1 + np.cos(th)) * np.sin(th)], axis=1)
    return cc.Embedding(cc.Euclidean(2), pts)


def _astroid():
    th = cc.fourier.nodes(64)
    return cc.Embedding(cc.Euclidean(2), np.stack([np.cos(th) ** 3, np.sin(th) ** 3], axis=1))


@pytest.mark.parametrize("make, embedded", [
    (lambda: shapes.circle(64), True),
    (lambda: shapes.great_circle(96), True),
    (lambda: shapes.torus_geodesic(64, (1, 0)), True),
    (lambda: shapes.lemniscate(128), False),
    (_cusp, False),
    (_astroid, False),
], ids=["circle64", "great_circle96", "torus_geo64", "lemniscate128", "cusp", "astroid"])
def test_reach_estimate_is_exactly_zero_on_non_embeddings(make, embedded):
    x = make()
    assert cc.is_embedding(x) is embedded
    assert (cc.reach_estimate(x) == 0.0) is not embedded


def test_chart_and_recentering_compute_separation_once(monkeypatch, circle64):
    calls = []

    def counted(x, *args, **kwargs):
        calls.append(x)
        return cc.separation(x, *args, **kwargs)

    monkeypatch.setattr(curve, "separation", counted)
    monkeypatch.setattr(charts, "separation", counted)
    c = cc.make_chart(circle64)
    assert len(calls) == 1
    solver.recenter(c, cc.NormalSection(np.full((64, 1), 0.1)))
    assert len(calls) == 2


def test_recentering_onto_non_embedding_is_chart_breakdown(monkeypatch, circle64):
    monkeypatch.setattr(solver, "smooth_center", lambda y, k: shapes.lemniscate(128))
    c = cc.make_chart(circle64)
    with pytest.raises(ChartBreakdownError) as info:
        solver.recenter(c, cc.NormalSection.zero(64, 1))
    assert isinstance(info.value.__cause__, NotEmbeddingError)


def test_no_library_path_reaches_brentq(monkeypatch, rng, circle64, great_circle96, torus_geo64):
    # every fiber, inverse-reparameterization and closest-point root comes
    # from the one batched solver, curve._illinois
    def forbidden(*args, **kwargs):
        raise AssertionError("scalar brentq called")

    monkeypatch.setattr(charts, "brentq", forbidden)
    monkeypatch.setattr(curve, "brentq", forbidden)
    for x in (circle64, great_circle96, torus_geo64):
        c = cc.make_chart(x)
        u = random_section(c, rng, 0.3 * c.rho)
        u2, _ = cc.chart_invert(c, cc.chart_apply(c, u))
        assert np.max(np.abs(u2.coeff - u.coeff)) <= 1e-10
    c1 = cc.make_chart(shapes.circle(96))
    c2 = cc.make_chart(shapes.ellipse(96, a=1.04, b=0.97))
    u = random_section(c1, rng, 0.05)
    u3, _ = cc.transition(c2, c1, cc.transition(c1, c2, u)[0])
    assert np.max(np.abs(u3.coeff - u.coeff)) <= 1e-6
    center = smooth_center(shapes.perturbed_circle(64, 0.1, seed=1), 16)
    assert cc.is_embedding(center)
    phi = cc.make_diffeo(1, 0.3, 64)
    comp = cc.reparam_compose(phi, cc.reparam_inverse(phi))
    np.testing.assert_allclose(comp.lift, fourier.nodes(64), atol=1e-10)
    d = cc.image_distance(circle64, shapes.circle(64, radius=1.1))
    assert d == pytest.approx(0.1, abs=1e-10)


@pytest.mark.parametrize("center", [
    shapes.perturbed_circle(256, 0.06, seed=0),
    shapes.torus_geodesic(256, (1, 1), offset=(0.3, 0.8), wiggle=0.05, seed=1),
    shapes.great_circle(256),
], ids=["plane", "torus", "sphere"])
def test_same_image_distance_skips_the_dense_scan(monkeypatch, rng, center):
    # on a chart round trip every probe's nearest sample comes from the cell list
    c = cc.make_chart(center)
    x = cc.chart_apply(c, random_section(c, rng, 0.3 * c.rho))
    y = cc.resample(x, cc.make_diffeo(5, 0.25, 256))

    def forbidden(*args, **kwargs):
        raise AssertionError("dense pairwise_dist scan")

    for cls in (cc.AmbientSpace, cc.Euclidean, cc.FlatTorus, cc.Sphere2):
        monkeypatch.setattr(cls, "pairwise_dist", forbidden)
    assert cc.image_distance(x, y) <= 1e-10


def _trefoil(P):
    th = fourier.nodes(P)
    return cc.Embedding(cc.Euclidean(3), np.stack(
        [np.sin(th) + 2 * np.sin(2 * th), np.cos(th) - 2 * np.cos(2 * th), -np.sin(3 * th)],
        axis=1))


def _torus3(P):
    th = fourier.nodes(P)
    w = np.array([1, 1, 0])
    wiggle = 0.05 * np.stack([np.sin(2 * th), np.cos(3 * th), np.sin(th + 1.0)], axis=1)
    return cc.Embedding(cc.FlatTorus(3), th[:, None] / (2 * np.pi) * w + wiggle + 0.3, w)


@pytest.mark.parametrize("make", [
    lambda: shapes.ellipse(128),
    lambda: shapes.torus_geodesic(64, (1, 1), wiggle=0.05, seed=3),
    lambda: _torus3(64),
    lambda: _trefoil(96),
    lambda: random_sphere_curve(96, 4),
], ids=["plane", "torus2", "torus3", "euclidean3", "sphere"])
def test_chart_carries_center_tangent_and_weights(make):
    x = make()
    c = cc.make_chart(x)
    assert np.array_equal(c.weights, cc.quadrature_weights(x))
    d = cc.derivative(x)
    assert c.tangent.shape == d.shape
    assert np.max(np.abs(np.linalg.norm(c.tangent, axis=1) - 1.0)) <= 1e-14
    speed = np.linalg.norm(d, axis=1)
    assert np.max(np.abs(c.tangent * speed[:, None] - d)) <= 1e-14 * np.max(speed)


def test_chart_consumers_read_center_geometry_from_chart(monkeypatch, rng):
    # outside make_chart, nothing recomputes a chart center's derivative
    # or arclength weights: they are read from the chart
    from curvecharts import functionals, symmetry
    x = shapes.perturbed_circle(64, amplitude=0.05, seed=2)
    F = cc.parse_functional("length-1.0*area")
    centers, inside, misses = [], [False], []

    def made(x):
        inside[0] = True
        try:
            c = cc.make_chart(x)
        finally:
            inside[0] = False
        centers.append(c.center)
        return c

    def watched(fn):
        def call(y, *args, **kwargs):
            if not inside[0] and any(y is z for z in centers):
                misses.append(fn.__name__)
            return fn(y, *args, **kwargs)
        return call

    names = ("derivative", "quadrature_weights", "speeds")
    originals = {name: getattr(curve, name) for name in names}
    for mod in (curve, charts, functionals, symmetry, solver):
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, watched(originals[name]))
    monkeypatch.setattr(solver, "make_chart", made)
    c = made(x)
    u = random_section(c, rng, 0.2 * c.rho)
    cc.grad_norm(c, cc.gradient_in_chart(F, c, u))
    cc.hessian_full(F, c)
    cc.restriction_matrix(c)
    cc.chart_invert(c, cc.chart_apply(c, u))
    cc.orbit_rank(c, cc.standard_killing_basis(x.space))
    cc.spectrum(F, c, 2)
    cc.newton_refine(F, c, cc.NormalSection.zero(64, 1))
    cc.minimize(cc.parse_functional("length"), cc.Embedding(x.space, x.pts.copy()),
                cc.SolveOptions(max_iter=5))
    cc.minimize(cc.parse_functional("length-1.0*area"), shapes.perturbed_circle(32, 0.02, 1),
                cc.SolveOptions(newton=True, max_iter=50))
    assert len(centers) > 3
    assert misses == []
