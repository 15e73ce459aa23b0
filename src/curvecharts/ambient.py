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

import numpy as np

from . import fourier
from .errors import CutLocusError

_SPHERE_NORM_TOL = 1e-12
# probe rows per block of `AmbientSpace.nearest`
_BLOCK_ROWS = 256


def _integer(value, what: str) -> int:
    """A JSON integer (an integral float too, a boolean not) as int; ValueError otherwise."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _rotate_about(v: np.ndarray, axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of v about unit axis by angle (vectorized)."""
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    return v * c + np.cross(axis, v) * s + axis * np.sum(axis * v, axis=-1, keepdims=True) * (1.0 - c)


def _arc(ds: np.ndarray, L: float) -> np.ndarray:
    """Along-curve distance of nodes whose arclengths differ by ds on a loop of length L."""
    arc = np.abs(ds)
    return np.minimum(arc, L - arc)


def _transport(t_prev: np.ndarray, t_cur: np.ndarray, nu_prev: np.ndarray) -> np.ndarray:
    axis = np.cross(t_prev, t_cur)
    na = np.linalg.norm(axis)
    if na < 1e-14:
        return nu_prev
    angle = np.arctan2(na, np.dot(t_prev, t_cur))
    return _rotate_about(nu_prev, axis / na, np.array(angle))


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
    # whether the functional term `area` (the signed enclosed area) is defined
    has_signed_area = False
    # period of the `reduce`d coordinates, over which `nearest` wraps its cells
    cell_period = None

    def __init__(self, dim: int):
        # frames, curvature and Killing fields exist for dimensions 2 and 3
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
        return np.asarray(p, float) + np.asarray(v, float)

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

    def fiber_scan(self, p: np.ndarray, T: np.ndarray, q: np.ndarray, radius: float):
        """Distances and normal-fiber values of nodes p (unit tangents T) against samples q.

        Returns (dist, g), both (len(p), len(q)): dist[i, j] = dist(p_i, q_j)
        and g[i, j] = <log_{p_i} q_j, T_i>, which vanishes where q_j lies in
        the normal fiber of p_i; g is NaN where dist >= radius.  Both come
        from one `log` per pair.
        """
        v = self.log(p[:, None, :], q[None, :, :])
        dist = self.norm(p[:, None, :], v)
        g = self.inner(p[:, None, :], v, T[:, None, :])
        g[~(dist < radius)] = np.nan
        return dist, g

    def nearest(self, probes: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Index of each probe's nearest sample; the lowest index among equals, as `argmin`.

        samples are consecutive points of a closed curve.  They are hashed
        into a uniform cell list (Bentley & Friedman, 1979) over their
        `reduce`d coordinates, with cells twice the largest sample spacing
        wide, that wrap around every axis: with period `cell_period` where
        the space has one, and elsewhere past a ring of empty cells around
        the samples, so the wrap never makes distant cells neighbours.
        Those coordinates are never farther apart than the points themselves
        (on S^2 the chord is at most the arc), so a probe whose nearest
        sample among the 3^d cells around it lies within one cell width has
        found its nearest sample overall.  Every other probe falls back to
        the dense `pairwise_dist` scan.  Probes go in blocks of _BLOCK_ROWS,
        so no temporary grows with len(probes) times len(samples).
        """
        n, d = probes.shape
        out = np.zeros(n, dtype=np.intp)
        certified = np.zeros(n, dtype=bool)
        width = 2.0 * float(np.max(self.dist(samples, np.roll(samples, -1, axis=0))))
        if width > 0.0:
            q, p = self.reduce(samples), self.reduce(probes)
            if self.cell_period is None:
                # the cells the samples span, and an empty one above and (wrapped) below them
                lo = np.min(q, axis=0)
                ncell = np.floor((np.max(q, axis=0) - lo) / width).astype(np.int64) + 3
            else:
                lo = np.zeros(d)
                ncell = np.full(d, max(1, int(self.cell_period // width)), dtype=np.int64)
                width = self.cell_period / ncell[0]
            strides = np.cumprod(np.concatenate(([1], ncell[:-1])))
            keys = (np.floor((q - lo) / width).astype(np.int64) % ncell) @ strides
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            around = np.stack(np.meshgrid(*[[-1, 0, 1]] * d, indexing="ij"), axis=-1).reshape(-1, d)
            for i in range(0, n, _BLOCK_ROWS):
                cell = np.floor((p[i:i + _BLOCK_ROWS] - lo) / width).astype(np.int64)[:, None, :]
                key = (((cell + around) % ncell) @ strides).ravel()
                start = np.searchsorted(keys, key, side="left")
                count = np.searchsorted(keys, key, side="right") - start
                per_probe = count.reshape(-1, around.shape[0]).sum(axis=1)
                has = np.flatnonzero(per_probe)
                if has.size == 0:
                    continue
                # every candidate of the block, probe by probe: the sorted
                # positions start .. start + count - 1 of each of its cells
                first = np.cumsum(count) - count
                cand = order[np.repeat(start - first, count) + np.arange(count.sum())]
                owner = np.repeat(np.arange(per_probe.size), per_probe)
                dist = self.dist(probes[i + owner], samples[cand])
                seg = (np.cumsum(per_probe) - per_probe)[has]
                best = np.minimum.reduceat(dist, seg)
                at_best = dist == np.repeat(best, per_probe[has])
                out[i + has] = np.minimum.reduceat(np.where(at_best, cand, len(samples)), seg)
                certified[i + has] = best <= width
        rest = np.flatnonzero(~certified)
        for i in range(0, rest.size, _BLOCK_ROWS):
            rows = rest[i:i + _BLOCK_ROWS]
            out[rows] = np.argmin(self.pairwise_dist(probes[rows], samples), axis=1)
        return out

    def project_tangent(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Project an ambient-coordinate vector onto T_p N."""
        return np.asarray(v, dtype=float)

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
        rotation-minimizing frame transported around the loop, its
        holonomy distributed evenly over the nodes.
        """
        if self.coord_dim == 2:
            # outward for counterclockwise curves
            return np.stack([T[:, 1], -T[:, 0]], axis=1)[None, :, :]
        P = T.shape[0]
        seed = np.eye(3)[np.argmin(np.abs(T[0]))]
        nu0 = seed - np.dot(seed, T[0]) * T[0]
        nu0 = nu0 / np.linalg.norm(nu0)
        nus = np.empty((P, 3))
        nus[0] = nu0
        for i in range(P - 1):
            nus[i + 1] = _transport(T[i], T[i + 1], nus[i])
        closing = _transport(T[-1], T[0], nus[-1])
        b0 = np.cross(T[0], nu0)
        hol = np.arctan2(np.dot(closing, b0), np.dot(closing, nu0))
        angles = -hol * np.arange(P) / P
        nus = _rotate_about(nus, T, angles)
        nus = nus - np.sum(nus * T, axis=1, keepdims=True) * T
        nus = nus / np.linalg.norm(nus, axis=1, keepdims=True)
        second = np.cross(T, nus)
        return np.stack([nus, second], axis=0)

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
        v = np.linalg.norm(a, axis=-1)
        if a.shape[-1] == 2:
            cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
            return cross / v**3
        return np.linalg.norm(np.cross(a, b), axis=-1) / v**3

    def length_gradient(self, pts: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Gradient of the discrete length with respect to the sample points."""
        T = a / np.linalg.norm(a, axis=-1, keepdims=True)
        return -(2.0 * np.pi / pts.shape[0]) * fourier.diff(T)

    def bending_gradient(self, pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gradient of the discrete bending energy with respect to the sample points."""
        v = np.linalg.norm(a, axis=-1, keepdims=True)
        scale = 2.0 * np.pi / pts.shape[0]
        if a.shape[-1] == 2:
            c = (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])[..., None]
            dEda = scale * (2.0 * c / v**5 * np.stack([b[..., 1], -b[..., 0]], axis=-1)
                            - 5.0 * c**2 / v**7 * a)
            dEdb = scale * 2.0 * c / v**5 * np.stack([-a[..., 1], a[..., 0]], axis=-1)
        else:
            wv = np.cross(a, b)
            w2 = np.sum(wv * wv, axis=-1, keepdims=True)
            dEda = scale * (2.0 * np.cross(b, wv) / v**5 - 5.0 * w2 / v**7 * a)
            dEdb = scale * 2.0 * np.cross(wv, a) / v**5
        return -fourier.diff(dEda, 1) + fourier.diff(dEdb, 2)

    def strand_chords(self, pts: np.ndarray, winding, s: np.ndarray, L: float,
                      i: np.ndarray, j: np.ndarray, admissible) -> float:
        """Smallest chord between nodes i and j of a closed curve that `admissible` accepts.

        s is the cumulative arclength at the nodes and L the length.
        admissible(chord, arc) masks the chords to count, given the
        along-curve distance arc of each pair (infinite for pairs on
        different strands).  Returns inf when it accepts none.
        """
        chord = self.dist(np.take(pts, i, axis=0), np.take(pts, j, axis=0))
        ok = admissible(chord, _arc(np.take(s, i) - np.take(s, j), L))
        return float(np.min(chord, initial=np.inf, where=ok))

    def to_spec(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    @staticmethod
    def from_spec(spec: dict) -> "AmbientSpace":
        if not isinstance(spec, dict):
            raise ValueError(f"ambient spec must be an object, got {spec!r}")
        kind, dim = spec["kind"], _integer(spec["dim"], "ambient dim")
        if kind == "euclidean":
            return Euclidean(dim)
        if kind == "flat_torus":
            return FlatTorus(dim)
        if kind == "sphere2":
            if dim != 2:
                raise ValueError(f"sphere2 ambient has dim 2, got {dim}")
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

    @property
    def has_signed_area(self) -> bool:
        return self.dim == 2


class FlatTorus(AmbientSpace):
    """R^n / Z^n with the flat metric of the unit lattice.

    `reduce` maps coordinates to the fundamental domain [0, 1)^n.  The
    logarithm picks the shortest lattice representative; exact
    half-lattice ties resolve deterministically to the positive
    representative.  Curves carry a winding vector and store a continuous
    coordinate lift, which `exp` keeps: it returns p + v unreduced.
    """

    kind = "flat_torus"
    rotations = False
    injectivity_radius = 0.5
    cell_period = 1.0

    def reduce(self, p):
        return np.mod(np.asarray(p, float), 1.0)

    def check_winding(self, winding):
        if winding is None:
            raise ValueError("flat-torus curves need a winding vector")
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

    def strand_chords(self, pts, winding, s, L, i, j, admissible):
        """Smallest admissible chord from node i to a nearby lattice translate of node j.

        The translates are k + sh, where k = rint(d) is the nearest one to
        the difference d of the pair and sh runs over {-1, 0, 1}^n, nearest
        first.  A shift is evaluated only on pairs whose lower bound
        max_c |(d - k - sh)_c| lies below the smallest admissible chord
        found so far; every skipped chord is at least that large, so the
        minimum is that of all 3^n translates.  (d - k is exact, so the
        bound is formed from the same rounded components as the chord,
        and a rounded Euclidean norm is never below the largest of them.)
        An offset that is an integer multiple m of the winding vector
        joins a strand to itself, m turns further along the curve; every
        other offset joins different strands.
        """
        q = np.ascontiguousarray(pts.T)  # one row per coordinate
        d = np.take(q, i, axis=1) - np.take(q, j, axis=1)
        k0 = np.rint(d)
        # |(d - k0)_c - sh_c| for sh_c = -1, 0, 1; d - k0 is exact, as rint(d)
        # is 0 or within a factor 2 of d
        bound = np.abs((d - k0)[None] - np.array([-1.0, 0.0, 1.0])[:, None, None])
        n = d.shape[0]
        shifts = np.stack(np.meshgrid(*[[-1, 0, 1]] * n, indexing="ij"), axis=-1).reshape(-1, n)
        shifts = shifts[np.argsort(np.sum(shifts**2, axis=1), kind="stable")]
        ax = int(np.argmax(np.abs(winding)))
        step = winding[ax] or 1  # without a winding, only k = 0 joins a strand to itself
        ds = np.take(s, i) - np.take(s, j)
        best = np.inf
        for sh in shifts:
            rows = np.flatnonzero(np.logical_and.reduce([bound[sh[c] + 1, c] < best for c in range(n)]))
            k = np.take(k0, rows, axis=1) + sh[:, None]
            chord = np.linalg.norm(np.take(d, rows, axis=1) - k, axis=0)
            ki = k.astype(np.int64)
            m, rem = np.divmod(ki[ax], step)
            same = (rem == 0) & np.all(ki == m * winding[:, None], axis=0)
            dr = np.take(ds, rows)
            arc = np.where(m == 0, _arc(dr, L), np.abs(dr - m * L))
            ok = admissible(chord, np.where(same, arc, np.inf))
            best = min(best, float(np.min(chord, initial=np.inf, where=ok)))
        return best


class Sphere2(AmbientSpace):
    """Unit round sphere S^2, points stored as unit 3-vectors."""

    kind = "sphere2"
    translations = False
    injectivity_radius = np.pi

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
        # half the digits near zero, which is fine for picking candidates.
        # Near pi it cannot tell candidates apart at all (p.q rounds to -1
        # within ~1e-8 of antipodal), so those few entries are recomputed
        # from the explicit sum: |p + q| = 2 cos(theta / 2).
        dot = p @ q.T
        out = np.arccos(np.clip(dot, -1.0, 1.0))
        i, j = np.nonzero(dot < -1.0 + 1e-6)
        if i.size:
            out[i, j] = np.pi - 2.0 * np.arcsin(np.linalg.norm(p[i] + q[j], axis=1) / 2.0)
        return out

    def fiber_scan(self, p, T, q, radius):
        """`AmbientSpace.fiber_scan` with `pairwise_dist` for dist, and `log` on pairs within radius only.

        `log` raises at the cut locus, which lies outside every chart's tube.
        """
        dist = self.pairwise_dist(p, q)
        g = np.full(dist.shape, np.nan)
        i, j = np.nonzero(dist < radius)
        g[i, j] = self.inner(p[i], self.log(p[i], q[j]), T[i])
        return dist, g

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
        sp = np.linalg.norm(d, axis=-1)
        T = d / sp[..., None]
        # dT/ds projected off both the sphere normal and the tangent
        dT = fourier.diff(T) / sp[..., None]
        nu = np.cross(pts, T)
        return np.sum(dT * nu, axis=-1)

    def length_gradient(self, pts, a):
        """Ambient R^3 gradient of the discrete length; meaningful against tangent vectors."""
        ya = np.sum(pts * a, axis=-1, keepdims=True)
        T = a - ya * pts
        T = T / np.linalg.norm(T, axis=-1, keepdims=True)
        return (2.0 * np.pi / pts.shape[0]) * (-fourier.diff(T, 1) - ya * T)

    def bending_gradient(self, pts, a, b):
        """Ambient R^3 gradient of the discrete bending energy; meaningful against tangent vectors.

        With d = a - (p.a) p, T = d/|d|, nu = p x T and geodesic curvature
        k = (D T).nu / |d|, the energy is (2 pi/P) sum k^2 |d|.  The adjoint
        runs back through the spectral derivative D, which is antisymmetric
        under the plain sum inner product, and through the projection.
        """
        s = 2.0 * np.pi / pts.shape[0]
        ya = np.sum(pts * a, axis=-1, keepdims=True)
        d = a - ya * pts
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        T = d / n
        U = fourier.diff(T)
        nu = np.cross(pts, T)
        k = np.sum(U * nu, axis=-1, keepdims=True) / n
        # adjoints, back from k through (U, nu), T and d to (a, p)
        cb = 2.0 * s * k
        Tb = np.cross(cb * U, pts) - fourier.diff(cb * nu)
        db = (Tb - np.sum(Tb * T, axis=-1, keepdims=True) * T) / n - s * k**2 * T
        pd = np.sum(db * pts, axis=-1, keepdims=True)
        return cb * np.cross(T, U) - pd * a - ya * db - fourier.diff(db - pd * pts)
