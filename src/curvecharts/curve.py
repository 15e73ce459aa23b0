"""Discrete closed curves S^1 -> N and reparameterizations.

Curves are P uniform samples of a band-limited map.  A curve with a
winding vector (on the flat torus) stores a continuous coordinate lift:
a periodic part plus the drift theta * winding / (2 pi), so spectral
differentiation and interpolation act on periodic data.  Interpolated
values are mapped onto N by the space's `retract`; everything else that
depends on the ambient is a method of the space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import fourier
from .ambient import AmbientSpace
from .errors import NonMonotoneError

MIN_SPEED = 1e-8
MIN_SEPARATION = 1e-8


@dataclass(frozen=True)
class GridCircle:
    """Uniform periodic grid on S^1 with nodes theta_i = 2*pi*i/P."""

    P: int

    def __post_init__(self):
        if self.P < 16 or self.P % 2 != 0:
            raise ValueError("grid size must be an even integer >= 16")

    @property
    def nodes(self) -> np.ndarray:
        return fourier.nodes(self.P)


@dataclass(frozen=True)
class Embedding:
    """Sampled closed curve x: S^1 -> N.

    pts has shape (P, coord_dim).  Where the space has windings (the
    flat torus), pts holds a continuous coordinate lift (values need not
    lie in [0,1)) and winding gives the integer homotopy class; use
    `samples` for reduced fundamental-domain coordinates.
    """

    space: AmbientSpace
    pts: np.ndarray
    winding: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.space.coord_dim:
            raise ValueError("pts must have shape (P, coord_dim)")
        GridCircle(pts.shape[0])
        object.__setattr__(self, "pts", pts)
        object.__setattr__(self, "winding", self.space.check_winding(self.winding))

    @property
    def P(self) -> int:
        return self.pts.shape[0]

    @property
    def grid(self) -> GridCircle:
        return GridCircle(self.P)

    @property
    def samples(self) -> np.ndarray:
        """Point samples in canonical coordinates (torus: reduced mod 1)."""
        return self.space.reduce(self.pts)

    @property
    def drift(self) -> np.ndarray:
        """Slope of the lift's non-periodic part: winding / (2 pi), zero without a winding."""
        if self.winding is None:
            return np.zeros(self.space.coord_dim)
        return self.winding / (2.0 * np.pi)

    def periodic_part(self) -> np.ndarray:
        """Samples of the curve minus its winding drift; a periodic function."""
        if self.winding is None:
            return self.pts
        return self.pts - self.grid.nodes[:, None] * self.drift


@dataclass(frozen=True)
class SectionField:
    """A section of the pull-back bundle x^*(TN): one tangent vector per node."""

    base: Embedding
    vecs: np.ndarray

    def __post_init__(self):
        vecs = np.asarray(self.vecs, dtype=float)
        if vecs.shape != self.base.pts.shape:
            raise ValueError("vecs must match the base curve samples in shape")
        object.__setattr__(self, "vecs", vecs)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.vecs, axis=1)))


@dataclass(frozen=True)
class Reparam:
    """Monotone lift of a degree-one circle diffeomorphism, sampled at the nodes."""

    lift: np.ndarray

    def __post_init__(self):
        lift = np.asarray(self.lift, dtype=float)
        GridCircle(lift.shape[0])
        steps = np.diff(lift, append=lift[0] + 2.0 * np.pi)
        if np.any(steps <= 0.0):
            raise NonMonotoneError("reparameterization lift must be strictly increasing")
        object.__setattr__(self, "lift", lift)

    @property
    def P(self) -> int:
        return self.lift.shape[0]

    @staticmethod
    def identity(P: int) -> "Reparam":
        return Reparam(fourier.nodes(P))

    def __call__(self, t) -> np.ndarray:
        """Evaluate the lift at arbitrary parameters via trigonometric interpolation."""
        theta = fourier.nodes(self.P)
        per = self.lift - theta
        t = np.asarray(t, dtype=float)
        return fourier.interp(per, np.atleast_1d(t)) + np.atleast_1d(t)

    def slope(self, t) -> np.ndarray:
        theta = fourier.nodes(self.P)
        per = self.lift - theta
        return fourier.interp(per, np.atleast_1d(t), order=1) + 1.0


def reparam_inverse(phi: Reparam) -> Reparam:
    """Inverse circle diffeomorphism, sampled on the same grid."""
    P = phi.P
    theta = fourier.nodes(P)
    # generous bracket: the trig interpolant can overshoot node values
    bound = 4.0 * float(np.max(np.abs(phi.lift - theta))) + 1e-6
    out = np.empty(P)
    for j, target in enumerate(theta):
        f = lambda t: float(phi(t)[0]) - target
        b = bound
        for _ in range(4):
            try:
                out[j] = brentq(f, target - b, target + b, xtol=1e-14,
                                rtol=4 * np.finfo(float).eps)
                break
            except ValueError:
                b *= 4.0
        else:
            raise NonMonotoneError("could not bracket the inverse reparameterization")
    return Reparam(out)


def reparam_compose(outer: Reparam, inner: Reparam) -> Reparam:
    """Lift of outer∘inner."""
    return Reparam(outer(inner.lift))


def interp_curve(x: Embedding, t, order: int = 0) -> np.ndarray:
    """Evaluate the band-limited curve (order=0) or its theta-derivative (order=1) at t.

    Values are retracted onto N.  Where coordinates are extrinsic (the
    sphere in R^3), the derivative is projected to the tangent spaces at
    the interpolated points.  Torus results are lift coordinates.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    per = x.periodic_part()
    vals = fourier.interp(per, t, order=order)
    if order == 0:
        return x.space.retract(vals + t[:, None] * x.drift)
    if order == 1:
        vals = vals + x.drift
    if x.space.coord_dim == x.space.dim:
        # intrinsic coordinates: every vector is tangent
        return vals
    return x.space.project_tangent(interp_curve(x, t), vals)


def derivative(x: Embedding) -> SectionField:
    """Spectral derivative x'(theta) as a section of x^*(TN)."""
    d = fourier.diff(x.periodic_part()) + x.drift
    return SectionField(x, x.space.project_tangent(x.pts, d))


def speeds(x: Embedding) -> np.ndarray:
    return np.linalg.norm(derivative(x).vecs, axis=1)


def quadrature_weights(x: Embedding) -> np.ndarray:
    """Discrete arclength measure: w_i = |x'(theta_i)| * 2*pi/P."""
    return speeds(x) * (2.0 * np.pi / x.P)


def length(x: Embedding) -> float:
    return float(np.sum(quadrature_weights(x)))


def curvature(x: Embedding) -> np.ndarray:
    """Curvature at the nodes.

    Planar (euclidean/torus dim 2): signed, positive for a
    counterclockwise circle with the outward normal convention.
    Euclidean/torus dim 3: magnitude.  Sphere: signed geodesic
    curvature with respect to the normal p x T.
    """
    per = x.periodic_part()
    return x.space.curvature(x.pts, fourier.diff(per, 1) + x.drift, fourier.diff(per, 2))


def separation(x: Embedding, min_gap: int = 4) -> float:
    """Smallest distance between genuinely distinct strands of the curve.

    Node pairs closer than min_gap indices are skipped, and pairs whose
    chord is comparable to their along-curve arclength (chord >=
    (2/pi) * arc, the round-arc bound) are treated as same-strand and
    excluded.  Torus curves additionally compare against lattice
    translates: offsets off the winding line are always admissible
    (`AmbientSpace.strand_chords`).  Returns +inf when no admissible
    pair exists; near zero for self-intersecting curves.
    """
    P = x.P
    w = quadrature_weights(x)
    s = np.concatenate(([0.0], np.cumsum(w)))[:-1]
    L = float(np.sum(w))
    gap = np.abs(np.arange(P)[:, None] - np.arange(P)[None, :])
    gap = np.minimum(gap, P - gap)
    admissible_gap = gap > min_gap
    best = np.inf
    for chord, arc in x.space.strand_chords(x.pts, x.winding, s, L):
        mask = admissible_gap & (chord < (2.0 / np.pi) * arc)
        if np.any(mask):
            best = min(best, float(np.min(chord[mask])))
    return best


def is_immersion(x: Embedding) -> bool:
    return float(np.min(speeds(x))) > MIN_SPEED


def is_embedding(x: Embedding) -> bool:
    """True iff the sampled curve is an immersed, self-separated closed curve."""
    if not is_immersion(x):
        return False
    return separation(x) > MIN_SEPARATION


def resample(x: Embedding, phi: Reparam) -> Embedding:
    """Samples of x∘phi via trigonometric interpolation."""
    if phi.P != x.P:
        raise ValueError("reparameterization grid must match the curve grid")
    new_pts = interp_curve(x, phi.lift)
    if x.winding is not None:
        # keep the lift anchored near the fundamental domain
        new_pts = new_pts - np.floor(new_pts[0])
    return Embedding(x.space, new_pts, x.winding)


def _directed_hausdorff(space: AmbientSpace, probes: np.ndarray, target: Embedding,
                        dense: int) -> float:
    """sup over probe points of the distance to the interpolated target curve."""
    t_dense = np.linspace(0.0, 2.0 * np.pi, dense, endpoint=False)
    d = space.pairwise_dist(probes, interp_curve(target, t_dense))
    idx = np.argmin(d, axis=1)
    h = 2.0 * np.pi / dense
    lo = t_dense[idx] - h
    hi = t_dense[idx] + h

    def dist_at(t):
        return space.dist(probes, interp_curve(target, t))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1 = dist_at(c1)
    f2 = dist_at(c2)
    for _ in range(40):
        take1 = f1 < f2
        b = np.where(take1, c2, b)
        a = np.where(take1, a, c1)
        c1 = b - invphi * (b - a)
        c2 = a + invphi * (b - a)
        f1 = dist_at(c1)
        f2 = dist_at(c2)
    return float(np.max(np.minimum(f1, f2)))


def image_distance(x: Embedding, y: Embedding, dense: int | None = None) -> float:
    """Symmetric Hausdorff distance between the interpolated images of x and y.

    A pseudo-metric on embeddings: zero (up to interpolation error) iff
    the two curves parameterize the same submanifold.
    """
    if x.space != y.space:
        raise ValueError("image_distance requires a common ambient space")
    if dense is None:
        dense = 8 * max(x.P, y.P)
    tx = np.linspace(0.0, 2.0 * np.pi, dense, endpoint=False)
    px = x.space.reduce(interp_curve(x, tx))
    py = x.space.reduce(interp_curve(y, tx))
    d_xy = _directed_hausdorff(x.space, px, y, dense)
    d_yx = _directed_hausdorff(x.space, py, x, dense)
    return max(d_xy, d_yx)


def make_diffeo(seed: int, amplitude: float, P: int = 256) -> Reparam:
    """Deterministic band-limited test diffeomorphism theta + sum a_k sin(k theta + phi_k).

    Coefficients (4 harmonics) are drawn from the seed and rescaled so
    the lift slope stays above 0.2 everywhere.
    """
    if amplitude >= 0.5:
        raise ValueError("amplitude must be below 0.5")
    theta = fourier.nodes(P)
    if amplitude == 0.0:
        return Reparam(theta)
    rng = np.random.default_rng(seed)
    ks = np.arange(1, 5)
    a = amplitude * rng.uniform(-1.0, 1.0, size=4) / ks
    ph = rng.uniform(0.0, 2.0 * np.pi, size=4)
    fine = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    slope = 1.0 + np.sum(a[:, None] * ks[:, None] * np.cos(ks[:, None] * fine + ph[:, None]), axis=0)
    min_slope = float(np.min(slope))
    if min_slope < 0.2:
        a = a * (0.8 / (1.0 - min_slope))
    pert = np.sum(a[:, None] * np.sin(ks[:, None] * theta + ph[:, None]), axis=0)
    return Reparam(theta + pert)


def arclength_lift(x: Embedding) -> Reparam:
    """Reparam phi with x∘phi at (near-)constant speed."""
    sp = speeds(x)
    P = x.P
    mean, c = fourier.antiderivative_coeffs(sp)
    # cumulative arclength S(t) = mean*t + q(t) - q(0), strictly increasing
    q0 = fourier.interp_coeffs(c, P, np.array([0.0]))[0]

    def S(t):
        return mean * t + fourier.interp_coeffs(c, P, np.array([t]))[0] - q0

    L = mean * 2.0 * np.pi
    targets = L * np.arange(P) / P
    bound = 2.0 * np.pi * float(np.max(sp)) / mean  # crude Lipschitz bracket padding
    out = np.empty(P)
    for i, tau in enumerate(targets):
        guess = tau / mean
        lo, hi = guess - 0.6 * bound / P - 0.5, guess + 0.6 * bound / P + 0.5
        while S(lo) > tau:
            lo -= 0.5
        while S(hi) < tau:
            hi += 0.5
        out[i] = brentq(lambda t: S(t) - tau, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)
    return Reparam(out)
