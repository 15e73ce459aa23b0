"""Riemannian target manifolds (N, g) with closed-form exp/log.

Three backends: Euclidean R^n, the flat torus R^n/Z^n with the unit
lattice (n in {2, 3}), and the unit round sphere S^2 embedded in R^3.
All core operations are vectorized over arrays of points/vectors with
the coordinate dimension last.

Everything the other layers need to know about the ambient lives here.
The base class holds the flat behaviour (affine exp, coordinate axes as
tangent basis, intrinsic coordinates); a backend overrides only what
differs.  Every functional term (`length_term`, `area_term`,
`bending_term`) and every curve quantity (`curvature`, `normal_frame`) is
a backend method, pointwise in x, x', x'' at the nodes: no method here
differentiates spectrally, the callers pass the derivatives.  The
gradient-path methods (`exp`, `dexp` and the terms) take complex arrays
for complex-step derivatives, so they are complex-analytic: no
`np.linalg.norm` (norms are sqrt(v.v)), no `abs`, no float casts and no
ordered comparisons on values.
"""

from __future__ import annotations

import numpy as np

from .errors import CutLocusError, UnsupportedAmbientError

_SPHERE_NORM_TOL = 1e-12
_QUARTER_TURN = np.array([1.0, -1.0])  # (z0, z1) -> (z1, -z0) is z[..., ::-1] times these signs


def _integer(value, what: str) -> int:
    """An integer (an integral float too, a boolean not) as int; ValueError otherwise."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _rotate_about(v: np.ndarray, axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of v about unit axis by angle (vectorized)."""
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    return v * c + np.cross(axis, v) * s + axis * np.sum(axis * v, axis=-1, keepdims=True) * (1.0 - c)


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
    # the same at every point of each backend
    injectivity_radius = np.inf

    def __init__(self, dim: int):
        # frames, curvature and Killing fields exist for dimensions 2 and 3
        dim = _integer(dim, "dim")
        if dim not in (2, 3):
            raise ValueError(f"{self.kind} ambient needs dim 2 or 3")
        self.dim = dim
        self.coord_dim = dim

    def inner(self, p: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Metric g_p(v, w); induced dot product for every backend."""
        return np.einsum("...d,...d->...", v, w)

    def norm(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.sqrt(self.inner(p, v, v))

    def exp(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """exp_p(v) in the coordinates of a curve's stored lift (torus: not reduced)."""
        return p + v

    def dexp(self, p: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Derivative of v -> exp_p(v) at v in direction w."""
        return w

    def log(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.asarray(q, float) - np.asarray(p, float)

    def dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self.norm(p, self.log(p, q))

    def dist_and_log(self, p: np.ndarray, q: np.ndarray):
        """dist(p, q) and log_p q; where `log` would raise CutLocusError, a zero log on that row."""
        v = self.log(p, q)
        return self.norm(p, v), v

    def fiber_may_cross(self, p: np.ndarray, T: np.ndarray, m: np.ndarray, r) -> np.ndarray:
        """Whether a point within r of m may lie on the fiber g = 0 of node p, unit tangent T.

        g(q) = <log_p q, T> is 1-Lipschitz in a flat space, so no point of
        the ball has g = 0 where |g(m)| > r.  `chart_invert`'s bracket
        search drops the (node, arc) pairs that fail this.
        """
        return np.abs(self.inner(p, self.log(p, m), T)) <= r

    def project_tangent(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Project an ambient-coordinate vector onto T_p N."""
        return v

    def check_point(self, p: np.ndarray) -> np.ndarray:
        """Canonical coordinates of points of N; ValueError for points off N."""
        return self.reduce(p)

    def reduce(self, p: np.ndarray) -> np.ndarray:
        """Coordinates of p in the fundamental domain."""
        return np.asarray(p, dtype=float)

    def retract(self, vals: np.ndarray) -> np.ndarray:
        """Map interpolated coordinate values onto N."""
        return vals

    def check_winding(self, winding) -> np.ndarray | None:
        """Winding vector of a closed curve: None where N is simply connected, which rejects one."""
        if winding is not None:
            raise ValueError("winding vectors apply to flat-torus curves only")
        return None

    def normal_frame(self, p: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Orthonormal normal frame (rank, n, coord_dim) of a closed curve at p with unit tangents T.

        In the plane the rotated tangent; in three dimensions a
        rotation-minimizing frame, its holonomy spread evenly over the
        nodes.  Node i's normal is n_i, from the axis least aligned with
        T_i, turned by the sum of the turns d_j, j < i, of each n_j carried
        to node j + 1 against n_j+1 (Bishop 1975); all d_j sum to the holonomy.
        """
        if self.coord_dim == 2:
            # outward for counterclockwise curves
            return np.stack([T[:, 1], -T[:, 0]], axis=1)[None, :, :]
        seed = np.eye(3)[np.argmin(np.abs(T), axis=1)]
        n = seed - np.sum(seed * T, axis=1, keepdims=True) * T
        n = n / np.linalg.norm(n, axis=1, keepdims=True)
        T1, n1 = np.roll(T, -1, axis=0), np.roll(n, -1, axis=0)
        # n_i carried by the rotation about T_i ^ T_i+1 taking T_i to T_i+1 (closed form on T_i's normals)
        c = 1.0 + np.sum(T * T1, axis=1, keepdims=True)
        m = n - np.sum(n * T1, axis=1, keepdims=True) / c * (T + T1)
        d = np.arctan2(np.sum(m * np.cross(T1, n1), axis=1), np.sum(m * n1, axis=1))
        phi = np.cumsum(d)
        hol = np.arctan2(np.sin(phi[-1]), np.cos(phi[-1]))
        nus = _rotate_about(n, T, phi - d - hol * np.arange(len(T)) / len(T))
        return np.stack([nus, np.cross(T, nus)], axis=0)

    def section_basis(self, T: np.ndarray, frame: np.ndarray) -> np.ndarray:
        """Per-node basis (dim, n, coord_dim) of T_x N along a curve: the coordinate axes."""
        d = self.coord_dim
        return np.broadcast_to(np.eye(d)[:, None, :], (d,) + T.shape)

    def focal_distance(self, kmax: float) -> float:
        """Distance at which normal geodesics of a curve with curvature kmax focus."""
        return np.inf if kmax < 1e-14 else 1.0 / kmax

    # discrete-curve geometry: a, b are the theta-derivatives x', x'' at the
    # nodes, arrays (P, ..., coord_dim) with any batch axes between

    def curvature(self, pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Curvature at the nodes: signed in the plane (positive counterclockwise), magnitude in 3-d."""
        v = np.sqrt(np.sum(a * a, axis=-1))
        if a.shape[-1] == 2:
            cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
            return cross / v**3
        w = np.cross(a, b)
        return np.sqrt(np.sum(w * w, axis=-1)) / v**3

    # functional terms: the density at the nodes and its partials gx, ga, gb in x, x', x'' (or None)

    def length_term(self, pts: np.ndarray, a: np.ndarray, b=None):
        """(2 pi/P) |x'| and its partials."""
        v = np.sqrt(np.sum(a * a, axis=-1, keepdims=True))
        scale = 2.0 * np.pi / pts.shape[0]
        return scale * v[..., 0], None, scale * (a / v), None

    def bending_term(self, pts: np.ndarray, a: np.ndarray, b: np.ndarray):
        """(2 pi/P) k^2 |x'| = (2 pi/P) |w|^2 / |x'|^5 and its partials, w = x' ^ x''.

        k is the plane or space-curve curvature; in the plane w is the scalar cross product.
        """
        v2 = np.sum(a * a, axis=-1, keepdims=True)
        scale = 2.0 * np.pi / pts.shape[0]
        r5 = scale * v2 ** -2.5  # the scale over |x'|^5
        if a.shape[-1] == 2:
            w = (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])[..., None]
            ga, gb = w * (b[..., ::-1] * _QUARTER_TURN), -w * (a[..., ::-1] * _QUARTER_TURN)
        else:
            w = np.cross(a, b)
            ga, gb = np.cross(b, w), np.cross(w, a)
        density = np.sum(w * w, axis=-1, keepdims=True) * r5
        return density[..., 0], None, 2.0 * r5 * ga - 5.0 * density / v2 * a, 2.0 * r5 * gb

    def area_term(self, pts: np.ndarray, a: np.ndarray, b=None):
        """The signed enclosed area's term, (pi/P) x ^ x', and its partials: defined in the plane only."""
        raise UnsupportedAmbientError("signed area is defined only in the euclidean plane")

    def strand_images(self, pts: np.ndarray, winding):
        """Translates k that `separation` pairs strands across, and m with k = m * winding (NaN if none).

        m * winding joins a strand to itself m turns on, any other k distinct ones; only k = 0 here.
        """
        return np.zeros((1, self.coord_dim)), np.zeros(1)

    def image_chord(self, p: np.ndarray, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Distance from p to q moved by the translate k of `strand_images`: `dist` here."""
        return self.dist(p, q)

    def to_spec(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    @staticmethod
    def from_spec(spec: dict) -> "AmbientSpace":
        if not isinstance(spec, dict):
            raise ValueError(f"ambient spec must be an object, got {spec!r}")
        kind, dim = spec["kind"], _integer(spec["dim"], "ambient dim")
        if not isinstance(kind, str) or kind not in _BACKENDS:
            raise ValueError(f"unknown ambient kind {kind!r}")
        return _BACKENDS[kind](dim)

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
    """Euclidean space R^n: the base-class behaviour, and the signed area in the plane."""

    kind = "euclidean"

    def area_term(self, pts, a, b=None):
        if self.dim != 2:
            return super().area_term(pts, a, b)
        # the partial in x', (-x1, x0) / 2, moves onto x by parts, as D is antisymmetric
        scale = 2.0 * np.pi / pts.shape[0]
        return (0.5 * scale * (pts[..., 0] * a[..., 1] - pts[..., 1] * a[..., 0]),
                scale * np.stack([a[..., 1], -a[..., 0]], axis=-1), None, None)


class FlatTorus(AmbientSpace):
    """R^n / Z^n with the flat metric of the unit lattice.

    `reduce` maps coordinates to the fundamental domain [0, 1)^n.  The
    logarithm picks the shortest lattice representative; exact
    half-lattice ties resolve deterministically to the positive
    representative.  Curves carry a winding vector and store a continuous
    coordinate lift, which `exp` keeps: it returns p + v unreduced.
    Strands pair across lattice translates of the lift (`strand_images`).
    """

    kind = "flat_torus"
    rotations = False
    injectivity_radius = 0.5

    def reduce(self, p):
        return np.mod(np.asarray(p, float), 1.0)

    def check_winding(self, winding):
        if winding is None:
            raise ValueError("flat-torus curves need a winding vector")
        if any(isinstance(w, (bool, np.bool_)) for w in np.ravel(np.asarray(winding, dtype=object))):
            raise ValueError("flat-torus winding entries must be integers, not booleans")
        winding = np.asarray(winding, dtype=float)
        if winding.shape != (self.dim,):
            raise ValueError("flat-torus winding vectors need one entry per dimension")
        with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range entries cast to garbage
            ints = winding.astype(int)
        if not np.array_equal(ints, winding):
            raise ValueError("flat-torus winding entries must be integers")
        return ints

    def log(self, p, q):
        e = 0.5 - (np.asarray(q, float) - np.asarray(p, float))
        # shortest representative in (-1/2, 1/2]; ties go positive.  e - floor(e)
        # is np.mod(e, 1.0) bit for bit (both round the same exact value once),
        # at a fraction of its cost
        return 0.5 - (e - np.floor(e))

    def fiber_may_cross(self, p, T, m, r):
        """The flat test, and always true where the ball may reach past the wrap of `log`.

        Within dist(p, m) + r < 1/2 every component of log_p m + log_m q
        lies inside (-1/2, 1/2), so it is log_p q and g is the flat one.
        """
        v = self.log(p, m)
        return (np.abs(self.inner(p, v, T)) <= r) | (self.norm(p, v) + r >= 0.5)

    def strand_images(self, pts, winding):
        """Every lattice vector k within the lift's extent + 3/2 in each coordinate.

        They hold rint(d) + {-1, 0, 1}^n for every pair difference d.  Any
        other translate lies 3/2 or farther away, while of rint(d) and
        rint(d) +- e_c (c = 1, 2, signed as (d - rint(d))_c) one is off the
        winding line and within sqrt(1 + (n - 1) / 4) < 3/2.
        """
        r = np.floor(np.ptp(pts, axis=0) + 1.5).astype(int)
        k = np.indices(2 * r + 1).reshape(self.dim, -1).T - r
        m, rem = np.divmod(k @ winding, winding @ winding or 1)  # without a winding, only k = 0 has one
        same = (rem == 0) & np.all(k == m[:, None] * winding, axis=1)
        return k.astype(float), np.where(same, m, np.nan)

    def image_chord(self, p, q, k):
        return np.linalg.norm((p - q) - k, axis=-1)


class Sphere2(AmbientSpace):
    """Unit round sphere S^2, points stored as unit 3-vectors."""

    kind = "sphere2"
    translations = False
    injectivity_radius = np.pi

    _antipodal_tol = 1e-8

    def __init__(self, dim: int = 2):
        if dim != 2:
            raise ValueError(f"sphere2 ambient has dim 2, got {dim}")
        self.dim = 2
        self.coord_dim = 3

    def project_tangent(self, p, v):
        return v - np.sum(p * v, axis=-1, keepdims=True) * p

    def check_point(self, p):
        p = np.asarray(p, float)
        if np.any(np.abs(np.linalg.norm(p, axis=-1) - 1.0) > _SPHERE_NORM_TOL):
            raise ValueError("sphere2 points must be unit vectors")
        return p

    def retract(self, vals):
        return vals / np.linalg.norm(vals, axis=-1, keepdims=True)

    def exp(self, p, v):
        r = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
        with np.errstate(invalid="ignore", divide="ignore"):
            direction = np.where(r != 0.0, v / np.where(r == 0.0, 1.0, r), 0.0)
        return np.cos(r) * p + np.sin(r) * direction

    def dexp(self, p, v, w):
        # exp_p(v) = cos(r) p + f v with r = |v|, f = sin(r)/r.  The radial
        # coefficient k = (cos(r) - f)/r^2 -> -1/3 loses digits to
        # cancellation for small r, but it multiplies (v.w) v = O(r^2), so
        # the product keeps its absolute accuracy; at r = 0 any finite k will do.
        r = np.sqrt(np.einsum("...d,...d->...", v, v))[..., None]
        rs = np.where(r != 0.0, r, 1.0)
        f = np.where(r != 0.0, np.sin(rs) / rs, 1.0)
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
        ang, v = self.dist_and_log(p, q)
        if np.any(ang > np.pi - self._antipodal_tol):
            raise CutLocusError("log undefined near antipodal points on sphere2")
        return v

    def dist_and_log(self, p, q):
        """The angle, and log_p q: zero within _antipodal_tol of antipodal."""
        ang, w, nw = self._polar(p, q)
        ok = (nw > 0.0) & (ang <= np.pi - self._antipodal_tol)
        scale = np.where(ok, ang / np.where(nw == 0.0, 1.0, nw), 0.0)
        return ang, scale[..., None] * w

    def dist(self, p, q):
        return self._polar(p, q)[0]

    def fiber_may_cross(self, p, T, m, r):
        """sign g(q) = sign <q, T>, and the chord |q - m| is at most the arc r."""
        return np.abs(np.sum(m * T, axis=-1)) <= r

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
        """Signed geodesic curvature det(x, x', x'') / |d|^3 with respect to the normal x ^ T.

        d is the tangential part of x' (do Carmo 1976, 3-2).  It sets the
        focal distance, so the radius of every chart on S^2.
        """
        d = self.project_tangent(pts, a)
        return np.sum(pts * np.cross(a, b), axis=-1) / np.sqrt(np.sum(d * d, axis=-1)) ** 3

    def length_term(self, pts, a, b=None):
        """The flat term of d = x' - (x.x') x, the tangential part; gx holds for tangent variations."""
        ya = np.sum(pts * a, axis=-1, keepdims=True)
        f, _, ga, _ = super().length_term(pts, a - ya * pts)
        return f, -ya * ga, ga, None

    def bending_term(self, pts, a, b):
        """(2 pi/P) (k^2 - 1) |x'|, k^2 = k_g^2 + 1: the space curve's term less the flat length term."""
        f, _, ga, gb = super().bending_term(pts, a, b)
        fl, _, gla, _ = super().length_term(pts, a)
        return f - fl, None, ga - gla, gb


# kind -> backend class, for `AmbientSpace.from_spec`
_BACKENDS = {cls.kind: cls for cls in (Euclidean, FlatTorus, Sphere2)}
