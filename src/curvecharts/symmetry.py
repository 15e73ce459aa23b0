"""Isometry-group action on curves and orbit analysis in charts.

Isometries of the three backends act by left composition as affine
maps p -> R p + t; Killing fields are the infinitesimal generators of
the identity component, affine fields p -> A p + b built from the
generators each ambient space admits.  Orbit directions in a chart are
the normal projections of Killing fields along the center; their rank
determines the stabilizer dimension (infinitesimally - discrete
stabilizer components are not detected).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import AmbientSpace, _integer
from .charts import Chart, chart_invert, project_normal
from .curve import Embedding

_ORTHO_TOL = 1e-10
# orbit_rank counts the singular values above this fraction of the largest
RANK_REL_TOL = 1e-8


@dataclass(frozen=True)
class Isometry:
    """Element of the identity component of Iso(N, g).

    euclidean: rotation in SO(n) plus translation; flat torus:
    translation only; sphere2: rotation in SO(3).  The space's
    `translations` and `rotations` flags say which parts it admits.
    """

    space: AmbientSpace
    rotation: np.ndarray | None = None  # stored as the identity when omitted
    translation: np.ndarray | None = None  # stored as zero when omitted

    def __post_init__(self):
        d = self.space.coord_dim
        rot = np.eye(d) if self.rotation is None else np.asarray(self.rotation, dtype=float)
        if rot.shape != (d, d):
            raise ValueError("rotation matrix has the wrong shape")
        if not np.max(np.abs(rot.T @ rot - np.eye(d))) <= _ORTHO_TOL:
            raise ValueError("rotation must be orthogonal")
        if not abs(np.linalg.det(rot) - 1.0) <= _ORTHO_TOL:
            raise ValueError("rotation must have determinant +1")
        if not self.space.rotations and np.max(np.abs(rot - np.eye(d))) > _ORTHO_TOL:
            raise ValueError(
                f"{self.space.kind} isometries in the identity component are translations")
        tr = np.zeros(d) if self.translation is None else np.asarray(self.translation, dtype=float)
        if tr.shape != (d,):
            raise ValueError("translation vector has the wrong shape")
        if not np.all(np.isfinite(tr)):
            raise ValueError("translation vector must be finite")
        if not self.space.translations and np.any(tr != 0.0):
            raise ValueError(f"{self.space.kind} isometries are rotations only")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts, dtype=float) @ self.rotation.T + self.translation

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other."""
        if self.space != other.space:
            raise ValueError("isometries live in different ambient spaces")
        return Isometry(self.space, self.rotation @ other.rotation,
                        self.rotation @ other.translation + self.translation)


def apply_isometry(psi: Isometry, x: Embedding) -> Embedding:
    """Pointwise left composition psi∘x; preserves torus winding and lifts."""
    if psi.space != x.space:
        raise ValueError("isometry and curve live in different ambient spaces")
    # retracted onto N, as a rotation is orthogonal only to within _ORTHO_TOL
    return Embedding(x.space, x.space.retract(psi.apply_points(x.pts)), x.winding)


def _skew_basis(d: int) -> list[np.ndarray]:
    """Basis of so(d), d in {2, 3}: the planar quarter turn, or v -> e_i x v."""
    if d == 2:
        return [np.array([[0.0, -1.0], [1.0, 0.0]])]
    eye = np.eye(3)
    return [np.cross(e, eye).T for e in eye]


def standard_killing_basis(space: AmbientSpace) -> list[tuple[np.ndarray, np.ndarray]]:
    """Basis of the Killing fields of space as (A, b) pairs, p -> A p + b.

    Translations along the axes, then rotations about the origin, as far
    as the space's `translations` and `rotations` flags admit them.
    """
    d = space.coord_dim
    fields = [(np.zeros((d, d)), e) for e in np.eye(d)] if space.translations else []
    if space.rotations:
        fields += [(A, np.zeros(d)) for A in _skew_basis(d)]
    return fields


def orbit_differential(c: Chart, basis: list) -> np.ndarray:
    """Matrix of orbit directions in the chart: one sqrt(w)-scaled column per (A, b) generator."""
    cols = []
    for A, b in basis:
        coeff = project_normal(c, c.center.pts @ A.T + b).coeff
        cols.append((coeff * np.sqrt(c.weights)[:, None]).ravel())
    return np.stack(cols, axis=1)


def orbit_rank(c: Chart, basis: list) -> tuple[int, int]:
    """(rank of the orbit map differential, stabilizer Lie-algebra dimension)."""
    return singular_value_rank(orbit_singular_values(c, basis), len(basis))


def singular_value_rank(sv: np.ndarray, dim_G: int) -> tuple[int, int]:
    """(rank, stabilizer dimension) from the descending singular values of an orbit differential.

    The rank counts the values above RANK_REL_TOL times the largest.
    """
    if sv.size == 0 or sv[0] == 0.0:
        return 0, dim_G
    rank = int(np.sum(sv > RANK_REL_TOL * sv[0]))
    return rank, dim_G - rank


def orbit_singular_values(c: Chart, basis: list) -> np.ndarray:
    return np.linalg.svd(orbit_differential(c, basis), compute_uv=False)


def action_continuity_probe(c: Chart, family, t_max: float, steps: int) -> np.ndarray:
    """Sup-norm chart displacement along a one-parameter isometry family.

    family maps t to an Isometry; the probe returns
    ||chart_invert(c, psi_t ∘ center).u||_inf on a uniform grid of
    [0, t_max] with `steps` intervals, an integer >= 1.  Continuity
    evidence only.
    """
    steps = _integer(steps, "steps")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    ts = np.linspace(0.0, t_max, steps + 1)
    out = np.empty(ts.size)
    for j, t in enumerate(ts):
        y = apply_isometry(family(t), c.center)
        u, _ = chart_invert(c, y)
        out[j] = u.sup_norm
    return out
