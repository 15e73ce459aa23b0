"""Isometry-group action on curves and orbit analysis in charts.

Isometries of the three backends act by left composition; Killing
fields are the infinitesimal generators of the identity component,
supplied by each ambient space as affine fields p -> A p + b.
Orbit directions in a chart are the normal projections of Killing
fields along the center; their rank determines the stabilizer
dimension (infinitesimally - discrete stabilizer components are not
detected).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import AmbientSpace
from .charts import Chart, chart_invert, project_normal
from .curve import Embedding, SectionField, quadrature_weights

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Isometry:
    """Element of the identity component of Iso(N, g).

    euclidean: rotation in SO(n) plus translation; flat torus:
    translation only; sphere2: rotation in SO(3).  The space's
    `translations` and `rotations` flags say which parts it admits.
    """

    space: AmbientSpace
    rotation: np.ndarray | None = None
    translation: np.ndarray | None = None

    def __post_init__(self):
        d = self.space.coord_dim
        rot = self.rotation
        if rot is not None:
            rot = np.asarray(rot, dtype=float)
            if rot.shape != (d, d):
                raise ValueError("rotation matrix has the wrong shape")
            if np.max(np.abs(rot.T @ rot - np.eye(d))) > _ORTHO_TOL:
                raise ValueError("rotation must be orthogonal")
            if abs(np.linalg.det(rot) - 1.0) > _ORTHO_TOL:
                raise ValueError("rotation must have determinant +1")
            if not self.space.rotations and np.max(np.abs(rot - np.eye(d))) > _ORTHO_TOL:
                raise ValueError(
                    f"{self.space.kind} isometries in the identity component are translations")
            object.__setattr__(self, "rotation", rot)
        tr = self.translation
        if tr is not None:
            tr = np.asarray(tr, dtype=float)
            if tr.shape != (d,):
                raise ValueError("translation vector has the wrong shape")
            if not self.space.translations and np.max(np.abs(tr)) > 0.0:
                raise ValueError(f"{self.space.kind} isometries are rotations only")
            object.__setattr__(self, "translation", tr)

    @staticmethod
    def identity(space: AmbientSpace) -> "Isometry":
        return Isometry(space)

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        out = np.asarray(pts, dtype=float)
        if self.rotation is not None:
            out = out @ self.rotation.T
        if self.translation is not None:
            out = out + self.translation
        return out

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other."""
        if self.space != other.space:
            raise ValueError("isometries live in different ambient spaces")
        d = self.space.coord_dim
        Ra = self.rotation if self.rotation is not None else np.eye(d)
        Rb = other.rotation if other.rotation is not None else np.eye(d)
        ta = self.translation if self.translation is not None else np.zeros(d)
        tb = other.translation if other.translation is not None else np.zeros(d)
        rot = Ra @ Rb
        tr = Ra @ tb + ta
        return Isometry(
            self.space,
            rotation=None if np.allclose(rot, np.eye(d), atol=1e-15) else rot,
            translation=None if not np.any(tr) else tr,
        )


def apply_isometry(psi: Isometry, x: Embedding) -> Embedding:
    """Pointwise left composition psi∘x; preserves torus winding and lifts."""
    if psi.space != x.space:
        raise ValueError("isometry and curve live in different ambient spaces")
    return Embedding(x.space, psi.apply_points(x.pts), x.winding)


@dataclass(frozen=True)
class KillingField:
    """Infinitesimal generator: the affine tangent field p -> A p + b."""

    space: AmbientSpace
    A: np.ndarray
    b: np.ndarray

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts, dtype=float) @ self.A.T + self.b


@dataclass(frozen=True)
class KillingBasis:
    """Basis of the Lie algebra of the identity component of Iso(N, g)."""

    fields: tuple[KillingField, ...]

    @property
    def dim(self) -> int:
        return len(self.fields)


def standard_killing_basis(space: AmbientSpace, rotation_center=None) -> KillingBasis:
    """Translations plus rotations about rotation_center (default: the origin)."""
    return KillingBasis(tuple(
        KillingField(space, A, b) for A, b in space.killing_fields(rotation_center)
    ))


def orbit_differential(c: Chart, basis: KillingBasis) -> np.ndarray:
    """Matrix of orbit directions in the chart: one sqrt(w)-scaled column per generator."""
    w = quadrature_weights(c.center)
    sqw = np.sqrt(w)
    cols = []
    for K in basis.fields:
        vecs = K.evaluate(c.center.pts)
        coeff = project_normal(c, SectionField(c.center, vecs)).coeff
        cols.append((coeff * sqw[:, None]).ravel())
    return np.stack(cols, axis=1)


def orbit_rank(c: Chart, basis: KillingBasis, rel_tol: float = 1e-8
               ) -> tuple[int, int]:
    """(rank of the orbit map differential, stabilizer Lie-algebra dimension)."""
    D = orbit_differential(c, basis)
    sv = np.linalg.svd(D, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, basis.dim
    rank = int(np.sum(sv > rel_tol * sv[0]))
    return rank, basis.dim - rank


def orbit_singular_values(c: Chart, basis: KillingBasis) -> np.ndarray:
    return np.linalg.svd(orbit_differential(c, basis), compute_uv=False)


def action_continuity_probe(c: Chart, family, t_max: float, steps: int) -> np.ndarray:
    """Sup-norm chart displacement along a one-parameter isometry family.

    family maps t to an Isometry; the probe returns
    ||chart_invert(c, psi_t ∘ center).u||_inf on a uniform grid of
    [0, t_max] with `steps` intervals.  Continuity evidence only.
    """
    ts = np.linspace(0.0, t_max, steps + 1)
    out = np.empty(ts.size)
    for j, t in enumerate(ts):
        y = apply_isometry(family(t), c.center)
        u, _ = chart_invert(c, y)
        out[j] = u.sup_norm
    return out
