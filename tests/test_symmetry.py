import numpy as np
import pytest

import curvecharts as cc
from curvecharts import shapes
from curvecharts.symmetry import Isometry, singular_value_rank


def rot2(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def rotz(a):
    return np.array([[np.cos(a), -np.sin(a), 0.0],
                     [np.sin(a), np.cos(a), 0.0],
                     [0.0, 0.0, 1.0]])


def test_apply_isometry_translation(circle64):
    psi = Isometry(circle64.space, translation=np.array([0.3, -0.2]))
    y = cc.apply_isometry(psi, circle64)
    np.testing.assert_allclose(y.pts, circle64.pts + [0.3, -0.2], atol=1e-15)


def test_apply_isometry_rotation_preserves_circle(circle64):
    psi = Isometry(circle64.space, rotation=rot2(0.7))
    y = cc.apply_isometry(psi, circle64)
    assert cc.image_distance(circle64, y) <= 1e-10


def test_apply_isometry_torus_translation(torus_geo64):
    psi = Isometry(torus_geo64.space, translation=np.array([0.7, 0.4]))
    y = cc.apply_isometry(psi, torus_geo64)
    np.testing.assert_allclose(y.pts, torus_geo64.pts + [0.7, 0.4], atol=1e-15)
    np.testing.assert_array_equal(y.winding, torus_geo64.winding)
    assert cc.length(y) == pytest.approx(cc.length(torus_geo64), abs=1e-12)


def test_apply_isometry_retracts_a_nearly_orthogonal_rotation(great_circle96):
    # Isometry accepts a rotation orthogonal to within 1e-10, which moves unit
    # vectors about 3e-11 off S^2, beyond its 1e-12 point check; the image is retracted
    R = (1.0 + 3e-11) * np.array([[np.cos(0.4), 0.0, -np.sin(0.4)], [0.0, 1.0, 0.0],
                                  [np.sin(0.4), 0.0, np.cos(0.4)]])
    psi = Isometry(great_circle96.space, rotation=R)
    assert np.max(np.abs(np.linalg.norm(psi.apply_points(great_circle96.pts), axis=1) - 1.0)) > 1e-11
    y = cc.apply_isometry(psi, great_circle96)
    assert np.max(np.abs(np.linalg.norm(y.pts, axis=1) - 1.0)) <= 1e-15
    np.testing.assert_allclose(y.pts, great_circle96.pts @ R.T, rtol=0, atol=1e-10)


def test_isometry_validation():
    e2 = cc.Euclidean(2)
    with pytest.raises(ValueError):
        Isometry(e2, rotation=np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        Isometry(e2, rotation=np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        Isometry(cc.FlatTorus(2), rotation=rot2(0.3))
    with pytest.raises(ValueError):
        Isometry(cc.Sphere2(), translation=np.ones(3))


@pytest.mark.parametrize("space", [cc.Euclidean(2), cc.FlatTorus(2), cc.Sphere2()])
def test_isometry_rejects_nan(space):
    d = space.coord_dim
    with pytest.raises(ValueError):
        Isometry(space, rotation=np.full((d, d), np.nan))
    if not space.translations:
        with pytest.raises(ValueError):
            Isometry(space, translation=np.r_[np.nan, np.zeros(d - 1)])


@pytest.mark.parametrize("space", [cc.Euclidean(2), cc.Euclidean(3), cc.FlatTorus(2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_isometry_rejects_non_finite_translation(space, bad):
    # a NaN translation would put NaN into every node of apply_isometry's curve
    d = space.coord_dim
    with pytest.raises(ValueError):
        Isometry(space, translation=np.r_[bad, np.zeros(d - 1)])


def test_group_action_composition(circle64):
    a = Isometry(circle64.space, rotation=rot2(0.4), translation=np.array([0.1, 0.2]))
    b = Isometry(circle64.space, rotation=rot2(-0.9), translation=np.array([-0.3, 0.05]))
    lhs = cc.apply_isometry(a, cc.apply_isometry(b, circle64))
    rhs = cc.apply_isometry(a.compose(b), circle64)
    assert np.max(np.abs(lhs.pts - rhs.pts)) <= 1e-10


@pytest.mark.parametrize("space, x", [(cc.Euclidean(2), shapes.circle(64)),
                                      (cc.FlatTorus(2), shapes.torus_geodesic(64, (1, 0))),
                                      (cc.Sphere2(), shapes.great_circle(64))],
                         ids=["plane", "torus", "sphere"])
def test_omitted_parts_are_identity_and_zero(space, x):
    psi = Isometry(space)
    d = space.coord_dim
    np.testing.assert_array_equal(psi.rotation, np.eye(d))
    np.testing.assert_array_equal(psi.translation, np.zeros(d))
    assert psi.apply_points(x.pts).tobytes() == x.pts.tobytes()


@pytest.mark.parametrize("a_parts, b_parts", [
    ((rot2(0.4), [0.1, 0.2]), (rot2(-0.9), [-0.3, 0.05])),
    ((None, [0.1, 0.2]), (rot2(-0.9), None)),
    ((rot2(0.4), None), (None, None)),
], ids=["both", "split", "rotation-only"])
def test_compose_multiplies_the_affine_parts(a_parts, b_parts):
    e2 = cc.Euclidean(2)
    a = Isometry(e2, *a_parts)
    b = Isometry(e2, *b_parts)
    ab = a.compose(b)
    assert ab.rotation.tobytes() == (a.rotation @ b.rotation).tobytes()
    assert ab.translation.tobytes() == (a.rotation @ b.translation + a.translation).tobytes()


def test_functional_invariance_under_isometry(rng):
    x = shapes.perturbed_circle(128, amplitude=0.1, seed=11)
    psi = Isometry(x.space, rotation=rot2(1.1), translation=np.array([0.5, -0.7]))
    y = cc.apply_isometry(psi, x)
    for name in ("length", "area", "bend"):
        F = cc.parse_functional(name)
        a, b = cc.evaluate(F, x), cc.evaluate(F, y)
        assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_orbit_differential_circle_columns(circle64):
    # circle at the origin: translations have normal parts cos(theta),
    # sin(theta); the rotation about the center acts tangentially
    c = cc.make_chart(circle64)
    basis = cc.standard_killing_basis(circle64.space)
    D = cc.orbit_differential(c, basis)
    th = cc.fourier.nodes(circle64.P)
    sqw = np.sqrt(cc.quadrature_weights(circle64))
    np.testing.assert_allclose(D[:, 0], np.cos(th) * sqw, atol=1e-10)
    np.testing.assert_allclose(D[:, 1], np.sin(th) * sqw, atol=1e-10)
    np.testing.assert_allclose(D[:, 2], 0.0, atol=1e-10)


def test_orbit_differential_torus_geodesic(torus_geo64):
    # (1,0)-geodesic: translation along the curve is tangential, the
    # transverse translation shows up with unit normal coefficient
    c = cc.make_chart(torus_geo64)
    basis = cc.standard_killing_basis(torus_geo64.space)
    D = cc.orbit_differential(c, basis)
    sqw = np.sqrt(cc.quadrature_weights(torus_geo64))
    np.testing.assert_allclose(D[:, 0], 0.0, atol=1e-10)
    np.testing.assert_allclose(np.abs(D[:, 1]), sqw, atol=1e-10)


def test_orbit_rank_circle(circle64):
    c = cc.make_chart(circle64)
    basis = cc.standard_killing_basis(circle64.space)
    rank, stab = cc.orbit_rank(c, basis)
    assert (rank, stab) == (2, 1)
    assert rank + stab == len(basis)


def test_orbit_rank_ellipse():
    # no continuous symmetry: all three planar generators act effectively
    c = cc.make_chart(shapes.ellipse(96, a=1.3, b=0.8))
    basis = cc.standard_killing_basis(c.center.space)
    rank, stab = cc.orbit_rank(c, basis)
    assert (rank, stab) == (3, 0)


def test_orbit_rank_torus_geodesic(torus_geo64):
    c = cc.make_chart(torus_geo64)
    rank, stab = cc.orbit_rank(c, cc.standard_killing_basis(torus_geo64.space))
    assert (rank, stab) == (1, 1)


def test_orbit_rank_great_circle(great_circle96):
    # rotations about the polar axis stabilize the equator
    c = cc.make_chart(great_circle96)
    rank, stab = cc.orbit_rank(c, cc.standard_killing_basis(great_circle96.space))
    assert (rank, stab) == (2, 1)


def test_orbit_singular_values_sorted_match_rank(circle64):
    c = cc.make_chart(circle64)
    basis = cc.standard_killing_basis(circle64.space)
    sv = cc.orbit_singular_values(c, basis)
    assert sv.shape == (3,)
    assert np.all(np.diff(sv) <= 1e-15)
    rank, _ = cc.orbit_rank(c, basis)
    assert np.sum(sv > 1e-8 * sv[0]) == rank


def test_orbit_columns_span_hessian_kernel(circle128):
    # at a critical point the orbit directions are flat directions of the
    # second variation
    F = cc.parse_functional("length-1.0*area")
    c = cc.make_chart(circle128)
    Q = cc.hessian_in_chart(F, c)
    D = cc.orbit_differential(c, cc.standard_killing_basis(circle128.space))
    sqw = np.sqrt(cc.quadrature_weights(circle128))
    qn = np.linalg.norm(Q, 2)
    for j in range(D.shape[1]):
        v = D[:, j] / sqw
        n = np.linalg.norm(v)
        if n < 1e-12:
            continue
        assert np.linalg.norm(Q @ v) <= 1e-8 * qn * n


def test_action_continuity_probe_rotation_stabilizer(circle64):
    # rotating the centered circle about the origin never moves its image:
    # the probe stays at machine-precision zero along the whole path
    c = cc.make_chart(circle64)
    fam = lambda t: Isometry(circle64.space, rotation=rot2(t))
    probe = cc.action_continuity_probe(c, fam, 2.0, 16)
    assert probe[0] <= 1e-12
    assert np.max(probe) <= 1e-10


def test_action_continuity_probe_translation_grows(circle64):
    c = cc.make_chart(circle64)
    fam = lambda t: Isometry(circle64.space, translation=np.array([t, 0.0]))
    probe = cc.action_continuity_probe(c, fam, 0.3, 12)
    ts = np.linspace(0.0, 0.3, 13)
    # translation by t moves the image by exactly t in the radial sup norm
    np.testing.assert_allclose(probe, ts, atol=1e-6)
    steps = np.abs(np.diff(probe))
    assert np.max(steps) <= 2 * (0.3 / 12)


@pytest.mark.parametrize("steps", [-1, 0, 2.5, True])
def test_action_continuity_probe_needs_a_positive_integer_step_count(circle64, steps):
    c = cc.make_chart(circle64)
    fam = lambda t: Isometry(circle64.space, translation=np.array([t, 0.0]))
    with pytest.raises(ValueError, match="steps"):
        cc.action_continuity_probe(c, fam, 0.3, steps)


def test_great_circle_polar_rotation_is_stabilizer(great_circle96):
    c = cc.make_chart(great_circle96)
    fam = lambda t: Isometry(great_circle96.space, rotation=rotz(t))
    probe = cc.action_continuity_probe(c, fam, np.pi / 2, 8)
    assert np.max(probe) <= 1e-10


@pytest.mark.parametrize("kwargs, message", [
    ({"rotation": np.eye(3)}, "rotation matrix has the wrong shape"),
    ({"translation": np.zeros(3)}, "translation vector has the wrong shape"),
], ids=["rotation", "translation"])
def test_isometry_rejects_parts_of_the_wrong_shape(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Isometry(cc.Euclidean(2), **kwargs)


def test_isometries_and_curves_of_different_spaces_do_not_mix(circle64):
    plane, sphere = Isometry(cc.Euclidean(2)), Isometry(cc.Sphere2())
    with pytest.raises(ValueError, match="different ambient spaces"):
        plane.compose(sphere)
    with pytest.raises(ValueError, match="different ambient spaces"):
        cc.apply_isometry(sphere, circle64)


def test_singular_value_rank_of_a_vanishing_differential():
    assert singular_value_rank(np.zeros(3), 3) == (0, 3)
