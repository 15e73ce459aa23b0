"""Backend contract: every ambient space answers the same geometric questions.

Each AmbientSpace subclass is checked against independent oracles
(central differences, the Killing equation), and a structural guard
keeps backend-specific branches out of the other modules.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvecharts as cc
from curvecharts import Euclidean, FlatTorus, Sphere2, fourier, shapes
from curvecharts.functionals import value_and_gradient
from test_charts import random_section

SPACES = [Euclidean(2), Euclidean(3), FlatTorus(2), Sphere2()]


def random_points(space, rng, n):
    p = space.retract(rng.standard_normal((n, space.coord_dim)))
    return space.reduce(p)


def random_tangents(space, p, rng, scale):
    v = space.project_tangent(p, rng.standard_normal(p.shape))
    return scale * v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_dexp_matches_central_difference(space):
    # oracle: (exp_p(v + h w) - exp_p(v - h w)) / 2h in the chart's lift coordinates
    rng = np.random.default_rng(1)
    p = random_points(space, rng, 20)
    v = random_tangents(space, p, rng, 0.3) * rng.uniform(0.0, 1.0, (20, 1))
    w = random_tangents(space, p, rng, 1.0)
    h = 1e-5
    fd = (space.exp(p, v + h * w) - space.exp(p, v - h * w)) / (2.0 * h)
    np.testing.assert_allclose(space.dexp(p, v, w), fd, atol=1e-9)


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_killing_fields_are_skew_and_tangent(space):
    rng = np.random.default_rng(3)
    p = random_points(space, rng, 11)
    for A, b in cc.standard_killing_basis(space):
        assert np.max(np.abs(A + A.T)) == 0.0
        vals = p @ A.T + b
        np.testing.assert_allclose(space.project_tangent(p, vals), vals, atol=1e-14)


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_retract_is_idempotent(space):
    rng = np.random.default_rng(4)
    once = space.retract(rng.standard_normal((13, space.coord_dim)))
    np.testing.assert_allclose(space.retract(once), once, atol=1e-15)


def test_killing_basis_dimensions():
    dims = {repr(s): len(cc.standard_killing_basis(s)) for s in SPACES}
    assert list(dims.values()) == [3, 6, 2, 3]


def test_signed_area_only_in_the_plane():
    th = fourier.nodes(16)
    circle = np.stack([np.cos(th), np.sin(th), np.zeros(16)], axis=1)
    for space in (Euclidean(3), FlatTorus(2), FlatTorus(3), Sphere2()):
        pts = circle[:, :space.coord_dim]
        with pytest.raises(cc.UnsupportedAmbientError, match="euclidean plane"):
            space.area_term(pts, fourier.diff(pts), None)
    # the unit circle: x ^ x' = 1, so the density (pi/P) x ^ x' is pi/16 at every node
    pts = circle[:, :2]
    a = fourier.diff(pts)
    f, gx, ga, gb = Euclidean(2).area_term(pts, a, None)
    np.testing.assert_allclose(f, np.pi / 16, rtol=1e-14)
    np.testing.assert_array_equal(gx, 2 * np.pi / 16 * np.stack([a[:, 1], -a[:, 0]], axis=1))
    assert ga is None and gb is None


@pytest.mark.parametrize("polar", [0.3, 0.8, 1.2, 1.5, 2.0, 2.9])
def test_sphere_latitude_curvature_is_cot(polar):
    # oracle: a circle of latitude at polar angle t0, counterclockwise about
    # the north pole, has geodesic curvature cot t0 about the normal x ^ T
    th = fourier.nodes(64)
    pts = np.stack([np.sin(polar) * np.cos(th), np.sin(polar) * np.sin(th),
                    np.full(64, np.cos(polar))], axis=1)
    np.testing.assert_allclose(cc.curvature(cc.Embedding(Sphere2(), pts)), 1 / np.tan(polar),
                               rtol=0, atol=1e-12)


def test_sphere_point_check():
    s = Sphere2()
    with pytest.raises(ValueError):
        s.check_point(np.array([2.0, 0.0, 0.0]))
    p = np.array([1.0, 0.0, 0.0])
    np.testing.assert_array_equal(s.check_point(p), p)
    with pytest.raises(ValueError):
        s.check_point(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))


def test_torus_point_check_reduces():
    np.testing.assert_allclose(FlatTorus(2).check_point(np.array([1.25, -0.5])), [0.25, 0.5])


@pytest.mark.parametrize("cls", [Euclidean, FlatTorus])
@pytest.mark.parametrize("dim", [1, 4])
def test_flat_spaces_need_dim_2_or_3(cls, dim):
    with pytest.raises(ValueError):
        cls(dim)
    with pytest.raises(ValueError):
        cc.AmbientSpace.from_spec({"kind": cls.kind, "dim": dim})


@pytest.mark.parametrize(
    "space", [Euclidean(2), Euclidean(3), FlatTorus(2), FlatTorus(3), Sphere2()], ids=repr)
def test_from_spec_inverts_to_spec(space):
    assert cc.AmbientSpace.from_spec(space.to_spec()) == space


@pytest.mark.parametrize("spec, message", [
    ({"kind": "sphere2", "dim": 3}, "^sphere2 ambient has dim 2, got 3$"),
    ({"kind": "hyperbolic", "dim": 2}, "^unknown ambient kind 'hyperbolic'$"),
    ({"kind": ["euclidean"], "dim": 2}, r"^unknown ambient kind \['euclidean'\]$"),
])
def test_from_spec_rejects_a_spec_no_backend_takes(spec, message):
    with pytest.raises(ValueError, match=message):
        cc.AmbientSpace.from_spec(spec)


@pytest.mark.parametrize("cls", [Euclidean, FlatTorus])
def test_flat_spaces_store_an_integer_dim(cls):
    # an integral float is read as its integer, as every other integer input
    space = cls(2.0)
    assert type(space.dim) is int and type(space.to_spec()["dim"]) is int
    assert repr(space) == f"{cls.__name__}(dim=2)"
    for dim in (2.5, True):
        with pytest.raises(ValueError, match="dim must be an integer"):
            cls(dim)


@pytest.mark.parametrize("term", ["length", "bend"])
@pytest.mark.parametrize(
    "space", [Euclidean(2), Euclidean(3), FlatTorus(2), FlatTorus(3), Sphere2()], ids=repr)
def test_term_partials_match_complex_step(space, term):
    # oracle: Im of the summed density at (x, x', x'') + i h (dx, D dx, D^2 dx),
    # over h, exact to roundoff (the bound is about 450 eps of the summed
    # magnitudes of the partials' products); on S^2 along a tangent dx
    th = fourier.nodes(32)
    pts = np.stack([np.cos(th), np.sin(th), 0.2 * np.sin(2 * th)], axis=1)[:, :space.coord_dim]
    pts = space.retract(0.3 * pts + 0.5)
    rng = np.random.default_rng(5)
    dx = space.project_tangent(pts, rng.standard_normal(pts.shape))
    x, dxs = (pts, fourier.diff(pts, 1), fourier.diff(pts, 2)), (dx, *fourier.diff(dx, (1, 2)))

    def call(p, a, b):
        return space.length_term(p, a) if term == "length" else space.bending_term(p, a, b)

    density, *partials = call(*x)
    assert density.shape == (32,) and np.all(np.isfinite(density))
    h = 1e-30
    stepped = np.sum(call(*(v + 1j * h * d for v, d in zip(x, dxs)))[0]).imag / h
    terms = [np.sum(g * d) for g, d in zip(partials, dxs) if g is not None]
    assert abs(stepped - sum(terms)) <= 1e-13 * np.sum(np.abs(terms))
    # closed form on every backend; there is no finite-difference fallback
    assert not hasattr(cc.functionals, "_fd_gradient_coeff")


BRANCH = re.compile(r"isinstance\([^)]*(Euclidean|FlatTorus|Sphere2)|\.kind *[!=]=")


def test_no_backend_branches_outside_ambient():
    # behaviour that differs by backend lives on the AmbientSpace subclasses
    src = Path(cc.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        if path.name == "ambient.py":
            continue
        text = path.read_text()
        for m in BRANCH.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            hits.append(f"{path.name}:{line}")
    assert hits == []


@pytest.mark.parametrize(
    "space", [Euclidean(2), Euclidean(3), FlatTorus(2), FlatTorus(3), Sphere2()], ids=repr)
def test_normal_frame_is_orthonormal_and_normal(space):
    # every backend returns the frame itself; in 3-d it is transported along the loop
    th = fourier.nodes(48)
    pts = np.stack([np.cos(th), np.sin(th), 0.3 * np.sin(2 * th)], axis=1)[:, :space.coord_dim]
    pts = space.retract(0.3 * pts + 0.5)
    d = space.project_tangent(pts, fourier.diff(pts))
    T = d / np.linalg.norm(d, axis=1, keepdims=True)
    frame = space.normal_frame(pts, T)
    rank = space.dim - 1
    assert isinstance(frame, np.ndarray) and frame.shape == (rank, 48, space.coord_dim)
    assert np.all(np.isfinite(frame))
    np.testing.assert_allclose(np.einsum("aid,id->ai", frame, T), 0.0, atol=1e-12)
    np.testing.assert_allclose(space.project_tangent(pts, frame), frame, atol=1e-12)
    gram = np.einsum("aid,bid->iab", frame, frame)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(rank), gram.shape), atol=1e-12)
    for name in ("_build_frame", "_transport", "_rotate_about"):
        assert not hasattr(cc.charts, name)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([32, 64, 128]), st.floats(0.05, 0.2), st.floats(0.01, 0.2),
       st.floats(0.3, 0.7), st.floats(0.3, 0.7), st.integers(0, 2**32 - 1))
def test_small_contractible_curves_agree_across_flat_backends_property(P, radius, amplitude, cx, cy, seed):
    # a contractible torus curve this small meets no lattice translate, so
    # FlatTorus(2) answers as Euclidean(2) to the last bit, and the plane
    # lifted into R^3 at z = 0 keeps its length and bend.  The perturbation
    # is kept off 0: an exact circle has no chord below the round-arc bound,
    # so its plane separation is +inf and a lattice translate sets the torus's
    pts = shapes.perturbed_circle(P, amplitude, seed=seed, radius=radius).pts + (cx, cy)
    results = []
    for x in (cc.Embedding(Euclidean(2), pts), cc.Embedding(FlatTorus(2), pts, (0, 0))):
        c = cc.make_chart(x)
        u = random_section(c, np.random.default_rng(seed), 0.3 * c.rho)
        out = [cc.separation(x), c.rho, c.frame]
        for F in map(cc.parse_functional, ("length", "bend+length")):
            f, g = value_and_gradient(F, c, u.coeff)
            out += [cc.evaluate(F, x), f, g.coeff, cc.spectrum(F, c, 6)]
        results.append(out)
    for plane, torus in zip(*results):
        np.testing.assert_array_equal(torus, plane)
    x3 = cc.Embedding(Euclidean(3), np.column_stack([pts, np.zeros(P)]))
    for F in map(cc.parse_functional, ("length", "bend")):
        assert cc.evaluate(F, x3) == cc.evaluate(F, cc.Embedding(Euclidean(2), pts))
