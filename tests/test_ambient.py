import numpy as np
import pytest

from curvecharts import (
    AmbientPoint,
    CutLocusError,
    Euclidean,
    FlatTorus,
    Sphere2,
    TangentVec,
    exp_map,
    injectivity_radius,
    log_map,
    metric_inner,
)


def test_inner_euclidean_unit_vector():
    e2 = Euclidean(2)
    p = AmbientPoint(e2, np.zeros(2))
    v = TangentVec(p, np.array([1.0, 0.0]))
    assert metric_inner(e2, v, v) == 1.0


def test_inner_sphere_orthogonal():
    s = Sphere2()
    p = AmbientPoint(s, np.array([1.0, 0.0, 0.0]))
    v = TangentVec(p, np.array([0.0, 1.0, 0.0]))
    w = TangentVec(p, np.array([0.0, 0.0, 1.0]))
    assert metric_inner(s, v, w) == 0.0


def test_inner_torus_dot_product():
    t = FlatTorus(2)
    p = AmbientPoint(t, np.array([0.0, 0.0]))
    v = TangentVec(p, np.array([3.0, 4.0]))
    assert metric_inner(t, v, v) == 25.0


def test_inner_base_mismatch():
    e2 = Euclidean(2)
    v = TangentVec(AmbientPoint(e2, np.zeros(2)), np.ones(2))
    w = TangentVec(AmbientPoint(e2, np.ones(2)), np.ones(2))
    with pytest.raises(ValueError):
        metric_inner(e2, v, w)


def test_exp_euclidean_affine():
    e2 = Euclidean(2)
    v = TangentVec(AmbientPoint(e2, np.zeros(2)), np.array([1.0, 2.0]))
    np.testing.assert_allclose(exp_map(e2, v).coords, [1.0, 2.0])


def test_exp_sphere_quarter_turn():
    # oracle: closed-form great-circle formula cos|v| p + sin|v| v/|v|
    s = Sphere2()
    p = AmbientPoint(s, np.array([1.0, 0.0, 0.0]))
    v = TangentVec(p, np.array([0.0, np.pi / 2, 0.0]))
    np.testing.assert_allclose(exp_map(s, v).coords, [0.0, 1.0, 0.0], atol=1e-15)


def test_exp_torus_reduces_mod_lattice():
    t = FlatTorus(2)
    v = TangentVec(AmbientPoint(t, np.array([0.9, 0.0])), np.array([0.2, 0.0]))
    np.testing.assert_allclose(exp_map(t, v).coords, [0.1, 0.0], atol=1e-15)


def test_log_euclidean_difference():
    e2 = Euclidean(2)
    l = log_map(e2, AmbientPoint(e2, np.array([1.0, 1.0])),
                AmbientPoint(e2, np.array([2.0, 3.0])))
    np.testing.assert_allclose(l.comp, [1.0, 2.0])


def test_log_torus_shortest_representative():
    # oracle: minimum over lattice translates of the coordinate difference
    t = FlatTorus(2)
    l = log_map(t, AmbientPoint(t, np.array([0.1, 0.0])),
                AmbientPoint(t, np.array([0.9, 0.0])))
    np.testing.assert_allclose(l.comp, [-0.2, 0.0], atol=1e-15)


def test_log_sphere_inverts_exp():
    s = Sphere2()
    p = AmbientPoint(s, np.array([1.0, 0.0, 0.0]))
    q = AmbientPoint(s, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(log_map(s, p, q).comp, [0.0, np.pi / 2, 0.0],
                               atol=1e-15)


def test_log_sphere_antipodal_cut_locus():
    s = Sphere2()
    p = AmbientPoint(s, np.array([1.0, 0.0, 0.0]))
    q = AmbientPoint(s, np.array([-1.0, 0.0, 0.0]))
    with pytest.raises(CutLocusError):
        log_map(s, p, q)


def test_injectivity_radii():
    assert injectivity_radius(Euclidean(3), AmbientPoint(Euclidean(3), np.zeros(3))) == np.inf
    assert injectivity_radius(FlatTorus(2), AmbientPoint(FlatTorus(2), np.zeros(2))) == 0.5
    p = AmbientPoint(Sphere2(), np.array([0.0, 0.0, 1.0]))
    assert injectivity_radius(Sphere2(), p) == np.pi


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
