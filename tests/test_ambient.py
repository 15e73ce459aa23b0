import numpy as np
import pytest

from curvecharts import CutLocusError, Euclidean, FlatTorus, Sphere2


def test_inner_euclidean_unit_vector():
    assert Euclidean(2).inner(np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0


def test_inner_sphere_orthogonal():
    s = Sphere2()
    p = np.array([1.0, 0.0, 0.0])
    assert s.inner(p, np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])) == 0.0


def test_inner_torus_dot_product():
    v = np.array([3.0, 4.0])
    assert FlatTorus(2).inner(np.zeros(2), v, v) == 25.0


def test_exp_euclidean_affine():
    np.testing.assert_allclose(Euclidean(2).exp(np.zeros(2), np.array([1.0, 2.0])), [1.0, 2.0])


def test_exp_sphere_quarter_turn():
    # oracle: closed-form great-circle formula cos|v| p + sin|v| v/|v|
    s = Sphere2()
    q = s.exp(np.array([1.0, 0.0, 0.0]), np.array([0.0, np.pi / 2, 0.0]))
    np.testing.assert_allclose(q, [0.0, 1.0, 0.0], atol=1e-15)


def test_exp_torus_reduces_mod_lattice():
    # exp keeps the lift; reduce maps it to the fundamental domain
    t = FlatTorus(2)
    q = t.exp(np.array([0.9, 0.0]), np.array([0.2, 0.0]))
    np.testing.assert_allclose(q, [1.1, 0.0], atol=1e-15)
    np.testing.assert_allclose(t.reduce(q), [0.1, 0.0], atol=1e-15)


def test_log_euclidean_difference():
    l = Euclidean(2).log(np.array([1.0, 1.0]), np.array([2.0, 3.0]))
    np.testing.assert_allclose(l, [1.0, 2.0])


def test_log_torus_shortest_representative():
    # oracle: minimum over lattice translates of the coordinate difference
    l = FlatTorus(2).log(np.array([0.1, 0.0]), np.array([0.9, 0.0]))
    np.testing.assert_allclose(l, [-0.2, 0.0], atol=1e-15)


def test_log_torus_equals_the_mod_formula():
    # the reference 0.5 - np.mod(0.5 - d, 1.0), bit for bit, at random gaps
    # of many scales, exact ties, integers and gaps within roundoff of them
    rng = np.random.default_rng(3)
    q = np.concatenate([rng.standard_normal(4000) * s for s in (1e-20, 1e-8, 0.5, 3.0, 1e3, 1e12)]
                       + [np.arange(-40, 41) / 4, np.nextafter(np.arange(-40, 41) / 4, np.inf),
                          np.nextafter(np.arange(-40, 41) / 4, -np.inf), [2.0**52 + 0.5, -(2.0**53)]])
    p = rng.uniform(-2.0, 2.0, q.size)
    p[::2] = 0.0
    want = 0.5 - np.mod(0.5 - (q - p), 1.0)
    got = FlatTorus(2).log(p[:, None], q[:, None])[:, 0]
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_log_sphere_inverts_exp():
    l = Sphere2().log(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(l, [0.0, np.pi / 2, 0.0], atol=1e-15)


def test_log_sphere_antipodal_cut_locus():
    with pytest.raises(CutLocusError):
        Sphere2().log(np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))


@pytest.mark.parametrize("space", [Euclidean(2), Euclidean(3), FlatTorus(2), FlatTorus(3),
                                   Sphere2()], ids=repr)
def test_dist_and_log_rows_equal_row_by_row_calls(space, rng):
    # every row is computed alone: an antipodal row elsewhere in the batch
    # changes neither the distance formula nor the log of the others
    p = rng.standard_normal((12, space.coord_dim))
    q = rng.standard_normal((12, space.coord_dim))
    if space.kind == "sphere2":
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        v = space.project_tangent(p, rng.standard_normal((12, 3)))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        # antipodal, within and just beyond _antipodal_tol of it, then generic
        r = np.concatenate([[np.pi, np.pi - 1e-10, np.pi - 1e-6], rng.uniform(0.0, 3.0, 9)])
        q = space.exp(p, r[:, None] * v)
    dist, log = space.dist_and_log(p, q)
    for i in range(len(p)):
        d_i, log_i = space.dist_and_log(p[i], q[i])
        assert d_i == dist[i] and np.array_equal(log_i, log[i])
    np.testing.assert_array_equal(dist, space.dist(p, q))
    ok = slice(2, None) if space.kind == "sphere2" else slice(None)
    np.testing.assert_array_equal(log[ok], space.log(p[ok], q[ok]))
    if space.kind == "sphere2":
        assert not np.any(log[:2]) and np.any(log[2])
        with pytest.raises(CutLocusError):
            space.log(p, q)


def test_injectivity_radii():
    assert Euclidean(3).injectivity_radius == np.inf
    assert FlatTorus(2).injectivity_radius == 0.5
    assert Sphere2().injectivity_radius == np.pi


def test_exp_log_round_trip_random(rng):
    for space in (Euclidean(2), Euclidean(3), FlatTorus(2), Sphere2()):
        for _ in range(20):
            p = rng.standard_normal(space.coord_dim)
            if space.kind == "sphere2":
                p /= np.linalg.norm(p)
            elif space.kind == "flat_torus":
                p = np.mod(p, 1.0)
            v = rng.standard_normal(space.coord_dim)
            v = space.project_tangent(p, v)
            cap = {"euclidean": 1.0, "flat_torus": 0.45, "sphere2": 0.9 * np.pi}[space.kind]
            n = np.linalg.norm(v)
            if n > 0:
                v = v / n * cap * rng.uniform(0.05, 0.99)
            q = space.exp(p, v)
            back = space.log(p, q)
            assert np.linalg.norm(back - v) <= 1e-9


def test_distance_symmetry(rng):
    for space in (Euclidean(2), FlatTorus(2), Sphere2()):
        for _ in range(10):
            p = rng.standard_normal(space.coord_dim)
            q = rng.standard_normal(space.coord_dim)
            if space.kind == "sphere2":
                p /= np.linalg.norm(p)
                q /= np.linalg.norm(q)
                if np.linalg.norm(p + q) < 1e-3:
                    continue
            elif space.kind == "flat_torus":
                p, q = np.mod(p, 1.0), np.mod(q, 1.0)
            d1 = np.linalg.norm(space.log(p, q))
            d2 = np.linalg.norm(space.log(q, p))
            assert abs(d1 - d2) <= 1e-10


def test_sphere_log_is_tangent(rng):
    s = Sphere2()
    for _ in range(10):
        p = rng.standard_normal(3)
        q = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        q /= np.linalg.norm(q)
        if np.linalg.norm(p + q) < 1e-3:
            continue
        l = s.log(p, q)
        assert abs(np.dot(l, p)) <= 1e-10


def test_torus_tie_resolves_positive():
    # documented determinism: a coordinate gap of exactly 1/2 maps to +1/2
    t = FlatTorus(2)
    l = t.log(np.array([0.0, 0.0]), np.array([0.5, 0.0]))
    np.testing.assert_allclose(l, [0.5, 0.0])


@pytest.mark.parametrize("r", [1e-10, 1e-5])
def test_sphere_dist_exact_at_small_angles(r):
    # arccos(p.q) reads 0 at r = 1e-10 and carries 4e-8 relative error at
    # 1e-5; p and v are chosen so that q = exp_p(v) carries no rounding of
    # relative size eps / r
    s = Sphere2()
    p = np.array([0.0, 0.0, 1.0])
    v = r * np.array([0.6, 0.8, 0.0])
    q = s.exp(p, v)
    assert abs(s.dist(p, q) - r) <= 1e-12 * r
    assert abs(np.linalg.norm(s.log(p, q)) - r) <= 1e-12 * r


def test_torus_fiber_may_cross_past_the_wrap_of_log():
    # g(q) = <log_p q, T> is +0.45 at m and -0.48 at (0.52, 0) within 0.1 of
    # it, as log wraps at 1/2: the flat test alone, |g(m)| = 0.45 > 0.1, would
    # drop the ball
    t, e = FlatTorus(2), Euclidean(2)
    p, T, m = np.zeros(2), np.array([1.0, 0.0]), np.array([0.45, 0.0])
    assert t.log(p, np.array([0.52, 0.0]))[0] == pytest.approx(-0.48)
    assert not e.fiber_may_cross(p, T, m, 0.1)
    assert t.fiber_may_cross(p, T, m, 0.1)
    # clear of the wrap the torus test is the flat one
    assert not t.fiber_may_cross(p, T, np.array([0.3, 0.0]), 0.1)
    assert t.fiber_may_cross(p, T, np.array([0.05, 0.3]), 0.1)


def test_sphere_fiber_may_cross_reads_the_sign_of_q_dot_t():
    # on S^2, sign <log_p q, T> = sign <q, T>, and <q, T> is 1-Lipschitz in the chord
    s = Sphere2()
    p, T = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    m = s.exp(p, np.array([0.3, 0.0, 0.0]))
    assert s.fiber_may_cross(p, T, m, 0.31)
    assert not s.fiber_may_cross(p, T, m, 0.29)
