"""Riemannian target manifolds (N, g) with closed-form exp/log.

Three backends: Euclidean R^n, the flat torus R^n/Z^n with the unit
lattice (n in {2, 3}), and the unit round sphere S^2 embedded in R^3.
All core operations are vectorized over arrays of points/vectors with
the coordinate dimension last.

Everything the other layers need to know about the ambient lives here.
The base class holds the flat behaviour (affine exp, coordinate axes as
tangent basis, intrinsic coordinates); a backend overrides only what
differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .errors import CutLocusError

_SPHERE_NORM_TOL = 1e-12
_SPHERE_TANGENT_TOL = 1e-10


def _skew_basis(d: int) -> list[np.ndarray]:
    """Basis of so(d), d in {2, 3}: the planar quarter turn, or v -> e_i x v."""
    if d == 2:
        return [np.array([[0.0, -1.0], [1.0, 0.0]])]
    eye = np.eye(3)
    return [np.cross(e, eye).T for e in eye]


class AmbientSpace:
    """Base class for the ambient manifold (N, g).

    The defaults describe a flat space in intrinsic coordinates; see the
    README section "Ambient backends" for the full list of methods.
    """

    kind: str
    dim: int        # manifold dimension of N
    coord_dim: int  # length of stored coordinate vectors
    # which generators the identity component of Iso(N, g) contains
    translations = True
    rotations = True

    def __init__(self, dim: int):
        # frames, curvature and Killing fields exist for dimensions 2 and 3
        if dim not in (2, 3):
            raise ValueError(f"{self.kind} ambient needs dim 2 or 3")
        self.dim = dim
        self.coord_dim = dim

    def inner(self, p: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Metric g_p(v, w); induced dot product for every backend."""
        return np.sum(np.asarray(v) * np.asarray(w), axis=-1)

    def norm(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.sqrt(self.inner(p, v, v))

    def exp(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.asarray(p, float) + np.asarray(v, float)

    def exp_lift(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """exp_p(v) in the coordinates of a curve's stored lift."""
        return self.exp(p, v)

    def dexp(self, p: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Derivative of v -> exp_p(v) at v in direction w."""
        return np.asarray(w, float)

    def log(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.asarray(q, float) - np.asarray(p, float)

    def dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self.norm(p, self.log(p, q))

    def pairwise_dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """(len(p), len(q)) matrix of distances between two point sets."""
        return self.dist(p[:, None, :], q[None, :, :])

    def injectivity_radius(self, p=None) -> float:
        return np.inf

    def project_tangent(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Project an ambient-coordinate vector onto T_p N."""
        return np.asarray(v, dtype=float)

    def check_point(self, p: np.ndarray) -> np.ndarray:
        """Canonical coordinates of points of N; ValueError for points off N."""
        return self.reduce(p)

    def check_tangent(self, p: np.ndarray, v: np.ndarray):
        """ValueError unless v is tangent to N at p."""

    def reduce(self, p: np.ndarray) -> np.ndarray:
        """Coordinates of p in the fundamental domain."""
        return np.asarray(p, dtype=float)

    def retract(self, vals: np.ndarray) -> np.ndarray:
        """Map interpolated coordinate values onto N."""
        return vals

    def check_winding(self, winding) -> np.ndarray | None:
        """Winding vector of a closed curve; None where N is simply connected."""
        return None

    def normal_frame(self, p: np.ndarray, T: np.ndarray) -> np.ndarray | None:
        """Pointwise orthonormal normal frame (rank, n, coord_dim) along unit tangents T at p.

        None when the frame is not pointwise: in three dimensions it is
        transported along the curve.
        """
        if self.coord_dim != 2:
            return None
        # outward for counterclockwise curves
        return np.stack([T[:, 1], -T[:, 0]], axis=1)[None, :, :]

    def section_basis(self, T: np.ndarray, frame: np.ndarray) -> np.ndarray:
        """Per-node basis (dim, n, coord_dim) of T_x N along a curve: the coordinate axes."""
        d = self.coord_dim
        return np.broadcast_to(np.eye(d)[:, None, :], (d,) + T.shape)

    def focal_distance(self, kmax: float) -> float:
        """Distance at which normal geodesics of a curve with curvature kmax focus."""
        return np.inf if kmax < 1e-14 else 1.0 / kmax

    # discrete-curve geometry: a, b are the theta-derivatives x', x'' at the nodes

    def curvature(self, pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Curvature at the nodes: signed in the plane (positive counterclockwise), magnitude in 3-d."""
        v = np.linalg.norm(a, axis=1)
        if a.shape[1] == 2:
            cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
            return cross / v**3
        return np.linalg.norm(np.cross(a, b), axis=1) / v**3

    def length_gradient(self, pts: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Gradient of the discrete length with respect to the sample points."""
        T = a / np.linalg.norm(a, axis=1, keepdims=True)
        return -(2.0 * np.pi / pts.shape[0]) * fourier.diff(T)

    def bending_gradient(self, pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """Gradient of the discrete bending energy, or None without a closed form."""
        v = np.linalg.norm(a, axis=1, keepdims=True)
        scale = 2.0 * np.pi / pts.shape[0]
        if a.shape[1] == 2:
            c = (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])[:, None]
            dEda = scale * (2.0 * c / v**5 * np.stack([b[:, 1], -b[:, 0]], axis=1)
                            - 5.0 * c**2 / v**7 * a)
            dEdb = scale * 2.0 * c / v**5 * np.stack([-a[:, 1], a[:, 0]], axis=1)
        else:
            wv = np.cross(a, b)
            w2 = np.sum(wv * wv, axis=1, keepdims=True)
            dEda = scale * (2.0 * np.cross(b, wv) / v**5 - 5.0 * w2 / v**7 * a)
            dEdb = scale * 2.0 * np.cross(wv, a) / v**5
        return -fourier.diff(dEda, 1) + fourier.diff(dEdb, 2)

    def strand_chords(self, pts: np.ndarray, winding, s: np.ndarray, L: float):
        """Yield (chord, arc) matrices over node pairs of a closed curve.

        s is the cumulative arclength at the nodes and L the length; arc
        is the along-curve distance of the pair, infinite for pairs on
        different strands.
        """
        arc = np.abs(s[:, None] - s[None, :])
        yield self.pairwise_dist(pts, pts), np.minimum(arc, L - arc)

    def killing_fields(self, center=None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Basis of Killing fields as affine maps (A, b): p -> A p + b.

        Translations along the axes, then rotations about center
        (default: the origin), as far as the space admits them.  Without
        translations, rotations are about the origin.
        """
        d = self.coord_dim
        c = np.zeros(d) if center is None or not self.translations else np.asarray(center, float)
        fields = [(np.zeros((d, d)), e) for e in np.eye(d)] if self.translations else []
        if self.rotations:
            fields += [(A, -A @ c) for A in _skew_basis(d)]
        return fields

    def to_spec(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    @staticmethod
    def from_spec(spec: dict) -> "AmbientSpace":
        kind = spec["kind"]
        if kind == "euclidean":
            return Euclidean(int(spec["dim"]))
        if kind == "flat_torus":
            return FlatTorus(int(spec["dim"]))
        if kind == "sphere2":
            return Sphere2()
        raise ValueError(f"unknown ambient kind {kind!r}")

    def __eq__(self, other):
        return (
            isinstance(other, AmbientSpace)
            and self.kind == other.kind
            and self.dim == other.dim
        )

    def __hash__(self):
        return hash((self.kind, self.dim))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Euclidean(AmbientSpace):
    """Euclidean space R^n: the base-class behaviour."""

    kind = "euclidean"


class FlatTorus(AmbientSpace):
    """R^n / Z^n with the flat metric of the unit lattice.

    Coordinates reduce to the fundamental domain [0, 1)^n.  The logarithm
    picks the shortest lattice representative; exact half-lattice ties
    resolve deterministically to the positive representative.  Curves
    carry a winding vector and store a continuous coordinate lift.
    """

    kind = "flat_torus"
    rotations = False

    def reduce(self, p):
        return np.mod(np.asarray(p, float), 1.0)

    def check_winding(self, winding):
        if winding is None:
            raise ValueError("flat-torus curves need a winding vector")
        winding = np.asarray(winding, dtype=int)
        if winding.shape != (self.dim,):
            raise ValueError("flat-torus winding vectors need one entry per dimension")
        return winding

    def exp(self, p, v):
        return self.reduce(np.asarray(p, float) + np.asarray(v, float))

    def exp_lift(self, p, v):
        # the lift moves with the section; reducing it would break continuity
        return np.asarray(p, float) + np.asarray(v, float)

    def log(self, p, q):
        d = np.asarray(q, float) - np.asarray(p, float)
        # shortest representative in (-1/2, 1/2]; ties go positive
        return 0.5 - np.mod(0.5 - d, 1.0)

    def injectivity_radius(self, p=None) -> float:
        return 0.5

    def strand_chords(self, pts, winding, s, L):
        """Chords to the nearest lattice translates of each node.

        A lattice offset that is an integer multiple m of the winding
        vector joins a strand to itself, m turns further along the curve;
        every other offset joins different strands.
        """
        P, n = pts.shape
        wind = winding.astype(float)
        diff0 = pts[:, None, :] - pts[None, :, :]
        arc0 = np.abs(s[:, None] - s[None, :])
        base = np.rint(diff0)
        shifts = np.stack(np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * n), indexing="ij"), axis=-1).reshape(-1, n)
        for sh in shifts:
            k = base + sh  # candidate lattice offset per pair
            chord = np.linalg.norm(diff0 - k, axis=2)
            if np.any(wind != 0.0):
                ax = int(np.argmax(np.abs(wind)))
                m = k[:, :, ax] / wind[ax]
                on_line = np.all(np.abs(k - m[:, :, None] * wind) < 1e-9, axis=2)
                m_int = np.abs(m - np.rint(m)) < 1e-9
                same_strand = on_line & m_int
                m_round = np.rint(m)
            else:
                same_strand = np.all(np.abs(k) < 1e-9, axis=2)
                m_round = np.zeros((P, P))
            arc = np.abs(s[:, None] - s[None, :] - m_round * L)
            arc = np.where(m_round == 0.0, np.minimum(arc0, L - arc0), arc)
            yield chord, np.where(same_strand, arc, np.inf)


class Sphere2(AmbientSpace):
    """Unit round sphere S^2, points stored as unit 3-vectors."""

    kind = "sphere2"
    translations = False

    _antipodal_tol = 1e-8

    def __init__(self):
        self.dim = 2
        self.coord_dim = 3

    def project_tangent(self, p, v):
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        return v - np.sum(p * v, axis=-1, keepdims=True) * p

    def check_point(self, p):
        p = np.asarray(p, float)
        if np.any(np.abs(np.linalg.norm(p, axis=-1) - 1.0) > _SPHERE_NORM_TOL):
            raise ValueError("sphere2 points must be unit vectors")
        return p

    def check_tangent(self, p, v):
        if np.any(np.abs(np.sum(np.asarray(p) * np.asarray(v), axis=-1)) > _SPHERE_TANGENT_TOL):
            raise ValueError("sphere2 tangent vectors must be orthogonal to the base point")

    def retract(self, vals):
        return vals / np.linalg.norm(vals, axis=-1, keepdims=True)

    def exp(self, p, v):
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        r = np.linalg.norm(v, axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            direction = np.where(r > 0.0, v / np.where(r == 0.0, 1.0, r), 0.0)
        return np.cos(r) * p + np.sin(r) * direction

    def dexp(self, p, v, w):
        # exp_p(v) = cos(r) p + f v with r = |v|, f = sin(r)/r.  The radial
        # coefficient k = (cos(r) - f)/r^2 -> -1/3 loses digits to
        # cancellation for small r, but it multiplies (v.w) v = O(r^2), so
        # the product keeps its absolute accuracy; at r = 0 any finite k will do.
        r = np.sqrt(np.einsum("...d,...d->...", v, v))[..., None]
        rs = np.where(r > 0.0, r, 1.0)
        f = np.where(r > 0.0, np.sin(rs) / rs, 1.0)
        k = (np.cos(rs) - f) / (rs * rs)
        vw = np.einsum("...d,...d->...", v, w)[..., None]
        return vw * (k * v - f * p) + f * w

    @staticmethod
    def _polar(p, q):
        """Angle between unit vectors p and q, q's component w orthogonal to p, and |w|.

        arctan2(|w|, p.q) keeps full relative accuracy at small angles,
        where arccos(p.q) loses half the digits.
        """
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        cosang = np.sum(p * q, axis=-1)
        w = q - cosang[..., None] * p
        nw = np.linalg.norm(w, axis=-1)
        return np.arctan2(nw, cosang), w, nw

    def log(self, p, q):
        ang, w, nw = self._polar(p, q)
        if np.any(ang > np.pi - self._antipodal_tol):
            raise CutLocusError("log undefined near antipodal points on sphere2")
        scale = np.where(nw > 0.0, ang / np.where(nw == 0.0, 1.0, nw), 0.0)
        return scale[..., None] * w

    def dist(self, p, q):
        return self._polar(p, q)[0]

    def pairwise_dist(self, p, q):
        # one matrix product instead of an (n, m, 3) temporary; arccos loses
        # half the digits near zero, which is fine for picking candidates
        return np.arccos(np.clip(p @ q.T, -1.0, 1.0))

    def injectivity_radius(self, p=None) -> float:
        return np.pi

    def normal_frame(self, p, T):
        nu = np.cross(p, T)
        nu = nu / np.linalg.norm(nu, axis=1, keepdims=True)
        return nu[None, :, :]

    def section_basis(self, T, frame):
        return np.concatenate([T[None], frame])

    def focal_distance(self, kmax):
        # normal geodesics focus at distance arccot(kappa_g) on the unit sphere
        return np.arctan2(1.0, kmax)

    def curvature(self, pts, a, b):
        """Signed geodesic curvature with respect to the normal p x T."""
        d = self.project_tangent(pts, a)
        sp = np.linalg.norm(d, axis=1)
        T = d / sp[:, None]
        # dT/ds projected off both the sphere normal and the tangent
        dT = fourier.diff(T) / sp[:, None]
        nu = np.cross(pts, T)
        return np.sum(dT * nu, axis=1)

    def length_gradient(self, pts, a):
        """Ambient R^3 gradient of the discrete length; meaningful against tangent vectors."""
        ya = np.sum(pts * a, axis=1, keepdims=True)
        T = a - ya * pts
        T = T / np.linalg.norm(T, axis=1, keepdims=True)
        return (2.0 * np.pi / pts.shape[0]) * (-fourier.diff(T, 1) - ya * T)

    def bending_gradient(self, pts, a, b):
        return None


@dataclass(frozen=True)
class AmbientPoint:
    """A single point of N, with backend invariants checked on creation."""

    space: AmbientSpace
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (self.space.coord_dim,):
            raise ValueError("coordinate length does not match ambient space")
        object.__setattr__(self, "coords", self.space.check_point(coords))


@dataclass(frozen=True)
class TangentVec:
    """A tangent vector of N at a base point."""

    base: AmbientPoint
    comp: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.comp, dtype=float)
        if comp.shape != self.base.coords.shape:
            raise ValueError("component length does not match base point")
        self.space.check_tangent(self.base.coords, comp)
        object.__setattr__(self, "comp", comp)

    @property
    def space(self) -> AmbientSpace:
        return self.base.space


def metric_inner(space: AmbientSpace, v: TangentVec, w: TangentVec) -> float:
    """g(v, w) for tangent vectors at a common base point."""
    if not np.array_equal(v.base.coords, w.base.coords):
        raise ValueError("metric_inner requires a common base point")
    return float(space.inner(v.base.coords, v.comp, w.comp))


def exp_map(space: AmbientSpace, v: TangentVec) -> AmbientPoint:
    """Riemannian exponential exp_{base}(v)."""
    return AmbientPoint(space, space.exp(v.base.coords, v.comp))


def log_map(space: AmbientSpace, p: AmbientPoint, q: AmbientPoint) -> TangentVec:
    """Riemannian logarithm: the vector v with exp_p(v) = q, shortest representative."""
    return TangentVec(p, space.log(p.coords, q.coords))


def injectivity_radius(space: AmbientSpace, p: AmbientPoint | None = None) -> float:
    """Injectivity radius at p (constant for every backend)."""
    return space.injectivity_radius(None if p is None else p.coords)
