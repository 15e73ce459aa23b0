"""Backend contract: every ambient space answers the same geometric questions.

Each AmbientSpace subclass is checked against independent oracles
(central differences, the scalar distance, the Killing equation), and a
structural guard keeps backend-specific branches out of the other
modules.
"""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import curvecharts as cc
from curvecharts import AmbientPoint, Euclidean, FlatTorus, KillingField, Sphere2, TangentVec

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
    fd = (space.exp_lift(p, v + h * w) - space.exp_lift(p, v - h * w)) / (2.0 * h)
    np.testing.assert_allclose(space.dexp(p, v, w), fd, atol=1e-9)


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_pairwise_dist_equals_dist(space):
    rng = np.random.default_rng(2)
    p = random_points(space, rng, 7)
    q = random_points(space, rng, 9)
    D = space.pairwise_dist(p, q)
    assert D.shape == (7, 9)
    for i in range(7):
        for j in range(9):
            assert D[i, j] == pytest.approx(float(space.dist(p[i], q[j])), abs=1e-12)


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_killing_fields_are_skew_and_tangent(space):
    rng = np.random.default_rng(3)
    p = random_points(space, rng, 11)
    fields = cc.standard_killing_basis(space, rotation_center=np.full(space.coord_dim, 0.2)).fields
    for K in fields:
        assert np.max(np.abs(K.A + K.A.T)) == 0.0
        vals = K.evaluate(p)
        np.testing.assert_allclose(space.project_tangent(p, vals), vals, atol=1e-14)


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_retract_is_idempotent(space):
    rng = np.random.default_rng(4)
    once = space.retract(rng.standard_normal((13, space.coord_dim)))
    np.testing.assert_allclose(space.retract(once), once, atol=1e-15)


def test_killing_basis_dimensions():
    dims = {repr(s): cc.standard_killing_basis(s).dim for s in SPACES}
    assert list(dims.values()) == [3, 6, 2, 3]


def test_sphere_point_and_tangent_checks():
    s = Sphere2()
    with pytest.raises(ValueError):
        AmbientPoint(s, np.array([2.0, 0.0, 0.0]))
    p = AmbientPoint(s, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        TangentVec(p, np.array([0.1, 1.0, 0.0]))
    with pytest.raises(ValueError):
        s.check_point(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))


def test_torus_point_check_reduces():
    p = AmbientPoint(FlatTorus(2), np.array([1.25, -0.5]))
    np.testing.assert_allclose(p.coords, [0.25, 0.5])


@pytest.mark.parametrize("cls", [Euclidean, FlatTorus])
@pytest.mark.parametrize("dim", [1, 4])
def test_flat_spaces_need_dim_2_or_3(cls, dim):
    with pytest.raises(ValueError):
        cls(dim)
    with pytest.raises(ValueError):
        cc.AmbientSpace.from_spec({"kind": cls.kind, "dim": dim})


BRANCH = re.compile(r"isinstance\([^)]*(Euclidean|FlatTorus|Sphere2)|space\.kind *[!=]=")


def _area_support_lines(tree) -> set[int]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_check_area_support":
            return set(range(node.lineno, node.end_lineno + 1))
    return set()


def test_no_backend_branches_outside_ambient():
    # behaviour that differs by backend lives on the AmbientSpace subclasses;
    # the one allowed site is the signed-area support check
    src = Path(cc.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        if path.name == "ambient.py":
            continue
        text = path.read_text()
        allowed = _area_support_lines(ast.parse(text)) if path.name == "functionals.py" else set()
        for m in BRANCH.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            if line not in allowed:
                hits.append(f"{path.name}:{line}")
    assert hits == []
    for obj in (AmbientPoint, TangentVec, KillingField):
        assert ".kind" not in inspect.getsource(obj)
