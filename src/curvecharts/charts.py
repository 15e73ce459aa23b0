"""Quotient-space charts over the normal bundle of a closed curve.

A chart is a smooth (band-limited) center embedding x, an orthonormal
frame of the normal bundle x-perp, and a validity radius rho estimated
from curvature, strand separation, and the ambient injectivity radius.
chart_apply exponentiates a normal section; chart_invert projects a
nearby curve back to its unique normal section and the
reparameterization that aligns it with the chart fibers.  The code is
written once for every ambient: frames, focal distances, distances and
the exponential come from the AmbientSpace methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import fourier
from .curve import (
    Embedding,
    Reparam,
    SectionField,
    curvature,
    derivative,
    interp_curve,
    is_embedding,
    reparam_inverse,
    separation,
)
from .errors import (
    CutLocusError,
    DegenerateFrameError,
    NonMonotoneError,
    NotEmbeddingError,
    OutsideDomainError,
    OutsideTubeError,
    ProjectionFailedError,
)

_FRAME_TOL = 1e-10


@dataclass(frozen=True)
class NormalFrame:
    """Per-node orthonormal vectors spanning the normal space x'(theta_i)-perp.

    vectors has shape (rank, P, coord_dim) with rank = dim(N) - 1.
    """

    vectors: np.ndarray

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class NormalSection:
    """Frame coefficients of a section of the normal bundle: shape (P, rank)."""

    coeff: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coeff, dtype=float)
        if coeff.ndim != 2:
            raise ValueError("coeff must have shape (P, rank)")
        object.__setattr__(self, "coeff", coeff)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.coeff, axis=1)))

    @staticmethod
    def zero(P: int, rank: int) -> "NormalSection":
        return NormalSection(np.zeros((P, rank)))


@dataclass(frozen=True)
class Chart:
    """Quotient chart centered at a smooth embedding."""

    center: Embedding
    frame: NormalFrame
    rho: float

    @property
    def P(self) -> int:
        return self.center.P

    @property
    def rank(self) -> int:
        return self.frame.rank


def _unit_tangents(x: Embedding) -> np.ndarray:
    d = derivative(x).vecs
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _rotate_about(v: np.ndarray, axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of v about unit axis by angle (vectorized)."""
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    return v * c + np.cross(axis, v) * s + axis * np.sum(axis * v, axis=-1, keepdims=True) * (1.0 - c)


def _build_frame(x: Embedding) -> np.ndarray:
    T = _unit_tangents(x)
    frame = x.space.normal_frame(x.pts, T)
    if frame is not None:
        return frame
    # 3-d: rotation-minimizing frame around the loop, holonomy distributed
    P = x.P
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


def _transport(t_prev: np.ndarray, t_cur: np.ndarray, nu_prev: np.ndarray) -> np.ndarray:
    axis = np.cross(t_prev, t_cur)
    na = np.linalg.norm(axis)
    if na < 1e-14:
        return nu_prev
    angle = np.arctan2(na, np.dot(t_prev, t_cur))
    return _rotate_about(nu_prev, axis / na, np.array(angle))


def reach_estimate(x: Embedding) -> float:
    """Validity radius for the normal-exponential tube around x.

    Combines a focal-distance term from the maximum curvature, a
    strand-separation term, and the ambient injectivity radius, each
    with a conservative safety factor.  Returns 0 for self-intersecting
    curves.
    """
    sep = separation(x)
    if sep <= 0.0:
        return 0.0
    focal = x.space.focal_distance(float(np.max(np.abs(curvature(x)))))
    return float(min(0.9 * focal, 0.45 * sep, 0.9 * x.space.injectivity_radius()))


def make_chart(x: Embedding) -> Chart:
    """Build the quotient chart centered at the (band-limited) embedding x."""
    if not is_embedding(x):
        raise NotEmbeddingError("chart centers must be embeddings")
    vectors = _build_frame(x)
    T = _unit_tangents(x)
    for a in range(vectors.shape[0]):
        if np.max(np.abs(np.linalg.norm(vectors[a], axis=1) - 1.0)) > _FRAME_TOL:
            raise DegenerateFrameError("frame vectors not unit length")
        if np.max(np.abs(np.sum(vectors[a] * T, axis=1))) > _FRAME_TOL:
            raise DegenerateFrameError("frame vectors not normal to the curve")
        for b in range(a + 1, vectors.shape[0]):
            if np.max(np.abs(np.sum(vectors[a] * vectors[b], axis=1))) > _FRAME_TOL:
                raise DegenerateFrameError("frame vectors not orthogonal")
    rho = reach_estimate(x)
    if rho <= 0.0:
        raise NotEmbeddingError("vanishing reach estimate")
    return Chart(x, NormalFrame(vectors), rho)


def frame_at(c: Chart, t) -> np.ndarray:
    """Interpolated frame at arbitrary parameters: shape (rank, len(t), d)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = c.center
    dvec = interp_curve(x, t, order=1)
    T = dvec / np.linalg.norm(dvec, axis=1, keepdims=True)
    frame = x.space.normal_frame(interp_curve(x, t), T)
    if frame is not None:
        return frame
    # transported 3-d frame: interpolate it and re-orthonormalize
    nu = fourier.interp(c.frame.vectors[0], t)
    nu = nu - np.sum(nu * T, axis=1, keepdims=True) * T
    nu = nu / np.linalg.norm(nu, axis=1, keepdims=True)
    return np.stack([nu, np.cross(T, nu)], axis=0)


def section_to_field(c: Chart, u: NormalSection) -> SectionField:
    """Ambient-coordinate vectors W = sum_a u^a nu^a along the center."""
    W = np.einsum("ia,aid->id", u.coeff, c.frame.vectors)
    return SectionField(c.center, W)


def full_chart_apply(c: Chart, W: SectionField) -> Embedding:
    """Pointwise exponential of a full section of x^*(TN)."""
    if W.base.pts is not c.center.pts and not np.array_equal(W.base.pts, c.center.pts):
        raise ValueError("section is not based on the chart center")
    if W.sup_norm >= c.rho:
        raise OutsideDomainError("section exceeds the chart radius")
    x = c.center
    return Embedding(x.space, x.space.exp_lift(x.pts, W.vecs), x.winding)


def chart_apply(c: Chart, u: NormalSection) -> Embedding:
    """Curve represented by the normal section u in this chart."""
    if u.coeff.shape != (c.P, c.rank):
        raise ValueError("section shape does not match the chart")
    if u.sup_norm >= c.rho:
        raise OutsideDomainError("section exceeds the chart radius")
    return full_chart_apply(c, section_to_field(c, u))


def project_normal(c: Chart, V: SectionField) -> NormalSection:
    """Orthogonal projection of a full section onto the normal bundle, in frame coefficients."""
    if not np.array_equal(V.base.pts, c.center.pts):
        raise ValueError("section is not based on the chart center")
    coeff = np.einsum("aid,id->ia", c.frame.vectors, V.vecs)
    return NormalSection(coeff)


def chart_invert(c: Chart, y: Embedding) -> tuple[NormalSection, Reparam]:
    """Normal section and fiber reparameterization of a curve inside the tube.

    For each node i the returned lift value s_i solves
    <log(x(theta_i), Y(s_i)), x'(theta_i)> = 0 with Y the interpolated
    curve, and u_i holds the frame coefficients of that logarithm.
    """
    if y.space != c.center.space:
        raise ValueError("curve and chart live in different ambient spaces")
    x = c.center
    space = x.space
    P = x.P
    dvec = derivative(x).vecs
    h = 2.0 * np.pi / P

    yc = fourier.coeffs(y.periodic_part())
    drift = y.drift

    def Y(s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return space.retract(fourier.interp_coeffs(yc, y.P, s) + s[:, None] * drift)

    def g(i: int, s: float) -> float:
        pt = Y(s)[0]
        try:
            l = space.log(x.pts[i], pt)
        except CutLocusError as exc:
            raise ProjectionFailedError("fiber search strayed past the cut locus") from exc
        return float(np.dot(l, dvec[i]))

    # node 0: coarse global search over 4P samples inside the tube
    dense = np.linspace(0.0, 2.0 * np.pi, 4 * P, endpoint=False)
    ypts = Y(dense)
    dists = space.dist(np.broadcast_to(x.pts[0], ypts.shape), ypts)
    mask = dists < c.rho
    if not np.any(mask):
        raise OutsideTubeError("no interpolated point of y lies within rho of the chart center")
    gvals = np.full(4 * P, np.nan)
    idx = np.where(mask)[0]
    logs = space.log(np.broadcast_to(x.pts[0], (idx.size, space.coord_dim)), ypts[idx])
    gvals[idx] = logs @ dvec[0]
    best = None
    for k in range(4 * P):
        k2 = (k + 1) % (4 * P)
        if mask[k] and mask[k2] and gvals[k] * gvals[k2] <= 0.0:
            score = min(dists[k], dists[k2])
            if best is None or score < best[0]:
                lo = dense[k]
                hi = dense[k2] if k2 != 0 else 2.0 * np.pi
                best = (score, lo, hi)
    if best is None:
        raise OutsideTubeError("no fiber crossing found within the tube at node 0")

    s = np.empty(P)
    s[0] = _solve(lambda t: g(0, t), best[1], best[2])
    for i in range(1, P):
        guess = s[i - 1] + h
        try:
            s[i] = _continue_root(lambda t: g(i, t), guess, h)
        except ProjectionFailedError:
            # distinguish a genuine tube violation from a projection failure
            if np.min(space.pairwise_dist(x.pts, ypts), axis=0).max() > c.rho:
                raise OutsideTubeError(
                    "curve leaves the tube of radius rho around the chart center")
            raise

    # a lift is defined modulo 2 pi; pin the branch starting near node 0
    s -= 2.0 * np.pi * np.round(s[0] / (2.0 * np.pi))
    pts = Y(s)
    logs = space.log(x.pts, pts)
    norms = space.norm(x.pts, logs)
    if np.max(norms) >= c.rho:
        raise OutsideTubeError("projected section exceeds the chart radius")
    coeff = np.einsum("aid,id->ia", c.frame.vectors, logs)
    try:
        sigma = Reparam(s)
    except NonMonotoneError:
        raise NonMonotoneError("fiber assignment is not an orientation-preserving diffeomorphism")
    return NormalSection(coeff), sigma


def _solve(f, lo: float, hi: float) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        # an endpoint sitting on the root can flip sign by roundoff
        if min(abs(flo), abs(fhi)) < 1e-12:
            return lo if abs(flo) < abs(fhi) else hi
        raise ProjectionFailedError("fiber bracket lost its sign change")
    return brentq(f, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=100)


def _continue_root(f, guess: float, h: float) -> float:
    """Root near the continuation guess: expanding bracket, then local scan."""
    delta = 0.75 * h
    for _ in range(4):
        lo, hi = guess - delta, guess + delta
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi < 0.0:
            return _solve(f, lo, hi)
        delta *= 1.6
    scan = np.linspace(guess - 2.5 * h, guess + 2.5 * h, 64)
    vals = np.array([f(t) for t in scan])
    sign_change = np.where(vals[:-1] * vals[1:] <= 0.0)[0]
    if sign_change.size == 0:
        raise ProjectionFailedError("fiber projection found no nearby crossing")
    k = sign_change[np.argmin(np.abs(scan[sign_change] - guess))]
    return _solve(f, scan[k], scan[k + 1])


def transition(c1: Chart, c2: Chart, u: NormalSection) -> tuple[NormalSection, Reparam]:
    """Change of chart: section u in c1 re-expressed as (u', h) in c2.

    u' is the normal section of the same curve in c2 and h the base
    reparameterization adjustment; continuity only, no differentiability
    is claimed across charts.
    """
    y = chart_apply(c1, u)
    u2, sigma = chart_invert(c2, y)
    return u2, reparam_inverse(sigma)
