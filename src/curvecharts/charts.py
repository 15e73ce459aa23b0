"""Quotient-space charts over the normal bundle of a closed curve.

A chart is a smooth (band-limited) center embedding x, an orthonormal
frame of the normal bundle x-perp, a validity radius rho estimated
from curvature, strand separation, and the ambient injectivity radius,
and x's unit tangent and arclength weights (the L2(ds) metric).
chart_apply exponentiates a normal section; chart_invert projects a
nearby curve back to its unique normal section and the
reparameterization that aligns it with the chart fibers.  The code is
written once for every ambient: frames, focal distances, distances and
the exponential come from the AmbientSpace methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .curve import (
    MIN_SEPARATION,
    PROBES_PER_NODE,
    Embedding,
    Reparam,
    _curve_at,
    _derivative_grids,
    _directed_hausdorff,
    _grids,
    _illinois,
    curvature,
    derivative,
    is_immersion,
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
# nodes per block of chart_invert's dense fiber search at 4P samples
_BLOCK_NODES = 64
# chart_invert samples a curve at 4 to this many points per center node
_MAX_SAMPLES_PER_NODE = 64


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
    frame: np.ndarray  # orthonormal normal vectors at the nodes: (rank, P, coord_dim)
    rho: float
    tangent: np.ndarray  # unit tangent vectors at the nodes: (P, coord_dim)
    weights: np.ndarray  # arclength quadrature weights, quadrature_weights(center): (P,)

    @property
    def P(self) -> int:
        return self.center.P

    @property
    def rank(self) -> int:
        return self.frame.shape[0]


def reach_estimate(x: Embedding) -> float:
    """Validity radius for the normal-exponential tube around x.

    Combines a focal-distance term from the maximum curvature, a
    strand-separation term, and the ambient injectivity radius, each
    with a conservative safety factor.  Returns exactly 0 for curves
    that are not embeddings (see `is_embedding`).
    """
    return _reach(x, separation(x))


def _reach(x: Embedding, sep: float) -> float:
    """reach_estimate of x, given its separation."""
    if not is_immersion(x) or sep <= MIN_SEPARATION:
        return 0.0
    focal = x.space.focal_distance(float(np.max(np.abs(curvature(x)))))
    return float(min(0.9 * focal, 0.45 * sep, 0.9 * x.space.injectivity_radius))


def make_chart(x: Embedding) -> Chart:
    """Build the quotient chart centered at the (band-limited) embedding x."""
    rho = reach_estimate(x)
    if rho == 0.0:
        raise NotEmbeddingError("chart centers must be embeddings")
    d = derivative(x)
    speed = np.linalg.norm(d, axis=1)
    T = d / speed[:, None]
    vectors = x.space.normal_frame(x.pts, T)
    for a in range(vectors.shape[0]):
        if np.max(np.abs(np.linalg.norm(vectors[a], axis=1) - 1.0)) > _FRAME_TOL:
            raise DegenerateFrameError("frame vectors not unit length")
        if np.max(np.abs(np.sum(vectors[a] * T, axis=1))) > _FRAME_TOL:
            raise DegenerateFrameError("frame vectors not normal to the curve")
        for b in range(a + 1, vectors.shape[0]):
            if np.max(np.abs(np.sum(vectors[a] * vectors[b], axis=1))) > _FRAME_TOL:
                raise DegenerateFrameError("frame vectors not orthogonal")
    return Chart(x, vectors, rho, T, speed * (2.0 * np.pi / x.P))


def _full_section(c: Chart, V) -> np.ndarray:
    """V as a float array of one ambient vector per center node, shape (P, coord_dim)."""
    V = np.asarray(V, dtype=float)
    if V.shape != c.center.pts.shape:
        raise ValueError("a full section needs one ambient vector per chart-center node")
    return V


def _check_radius(c: Chart, W: np.ndarray):
    """OutsideDomainError unless every vector of W, shape (P, ..., coord_dim), is shorter than rho."""
    if np.max(np.linalg.norm(W, axis=-1)) >= c.rho:
        raise OutsideDomainError("section exceeds the chart radius")


def full_chart_apply(c: Chart, W) -> Embedding:
    """Pointwise exponential of a full section W of x^*(TN), shape (P, coord_dim)."""
    W = _full_section(c, W)
    _check_radius(c, W)
    x = c.center
    return Embedding(x.space, x.space.exp(x.pts, W), x.winding)


def chart_apply(c: Chart, u: NormalSection) -> Embedding:
    """Curve represented by the normal section u in this chart."""
    if u.coeff.shape != (c.P, c.rank):
        raise ValueError("section shape does not match the chart")
    # W = sum_a u^a nu^a has the pointwise norm of u: the frame is orthonormal
    return full_chart_apply(c, np.einsum("ia,aid->id", u.coeff, c.frame))


def project_normal(c: Chart, V) -> NormalSection:
    """Orthogonal projection of a full section V, shape (P, coord_dim), onto the normal bundle."""
    return NormalSection(np.einsum("aid,id->ia", c.frame, _full_section(c, V)))


def chart_invert(c: Chart, y: Embedding) -> tuple[NormalSection, Reparam]:
    """Normal section and fiber reparameterization of a curve inside the tube.

    For each node i the returned lift value s_i solves
    g_i(s) = <log(x(theta_i), Y(s)), T_i> = 0 with T the chart's unit
    tangent and Y = interp_curve(y, .) the interpolated curve, and u_i
    holds the frame coefficients of that logarithm.  Y comes onto one
    fine grid by a zero-padded FFT.  Every 2m-th node of it
    (m = ceil(y.P / P)) is one of n samples of Y: n = 4P, doubled with the
    grid until consecutive samples lie closer than rho / 2.  Each root is
    bracketed by the sign change of g_i on those samples that lies
    nearest x(theta_i) within the tube (`AmbientSpace.fiber_scan`).  All
    nodes are then refined together by `curve._illinois`, on Taylor sums
    about the grid (`fourier.taylor_nearest`).  A node without a bracket
    raises OutsideTubeError if some sample lies rho or farther from the
    continuous center, and ProjectionFailedError otherwise.
    """
    if y.space != c.center.space:
        raise ValueError("curve and chart live in different ambient spaces")
    x = c.center
    space = x.space
    P = x.P

    def fiber(i: np.ndarray, pts: np.ndarray) -> np.ndarray:
        try:
            l = space.log(x.pts[i], pts)
        except CutLocusError as exc:
            raise ProjectionFailedError("fiber search strayed past the cut locus") from exc
        return space.inner(x.pts[i], l, c.tangent[i])

    # n = 4P, 8P, ... samples of Y: every step-th node of a grid of at least PROBES_PER_NODE * y.P
    step, n, gap = PROBES_PER_NODE * -(-y.P // P) // 4, 2 * P, np.inf
    cy = fourier.coeffs(y.periodic_part())
    while gap >= 0.5 * c.rho and n < _MAX_SAMPLES_PER_NODE * P:
        n *= 2
        grids = _grids(cy, y.P, M=step * n)
        dense = np.linspace(0.0, 2.0 * np.pi, n + 1)
        ypts = space.retract(grids[0, ::step] + dense[:-1, None] * y.drift)
        gap = np.max(space.dist(ypts, np.roll(ypts, -1, axis=0)))
    k, glo, ghi = np.empty(P, dtype=int), np.empty(P), np.empty(P)
    block = _BLOCK_NODES * 4 * P // n  # a block scans as many pairs at every n
    for i0 in range(0, P, block):
        rows = np.arange(i0, min(i0 + block, P))
        dists, gvals = space.fiber_scan(x.pts[rows], c.tangent[rows], ypts, c.rho)
        k[rows] = _nearest_crossing(gvals, dists)
        row = np.arange(rows.size)
        glo[rows], ghi[rows] = gvals[row, k[rows]], gvals[row, (k[rows] + 1) % n]
    if np.any(k < 0):
        # a tube violation where some sample lies rho or farther from the continuous center
        gx = _derivative_grids(x, PROBES_PER_NODE * P)
        if _directed_hausdorff(space, space.reduce(ypts), gx, space.retract(gx[0])) >= c.rho:
            raise OutsideTubeError("curve leaves the tube of radius rho around the chart center")
        raise ProjectionFailedError("fiber projection found no nearby crossing")

    lo, hi = dense[k], dense[k + 1]
    # a bracket end with g = 0 is the root itself, and _illinois keeps it
    s = _illinois(lambda i, t: fiber(i, _curve_at(y, grids, t)), lo, hi, glo, ghi,
                  np.where(np.abs(glo) < np.abs(ghi), lo, hi))
    # a lift is defined modulo 2 pi: unwrap it from node 0, then pin the branch near node 0
    s = np.unwrap(s)
    s -= 2.0 * np.pi * np.round(s[0] / (2.0 * np.pi))
    logs = space.log(x.pts, _curve_at(y, grids, s))
    if np.max(space.norm(x.pts, logs)) >= c.rho:
        raise OutsideTubeError("projected section exceeds the chart radius")
    coeff = np.einsum("aid,id->ia", c.frame, logs)
    try:
        sigma = Reparam(s)
    except NonMonotoneError:
        raise NonMonotoneError("fiber assignment is not an orientation-preserving diffeomorphism")
    return NormalSection(coeff), sigma


def _nearest_crossing(gvals: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Per row (last axis), start k of the cyclic sample interval [k, k+1]
    nearest the center on which gvals changes sign; NaN marks samples outside the tube.

    Nearest means the smallest min(dists[k], dists[k+1]), the first k on
    ties; -1 where no interval has a sign change.
    """
    crossing = gvals * np.roll(gvals, -1, axis=-1) <= 0.0  # False next to a NaN
    score = np.where(crossing, np.minimum(dists, np.roll(dists, -1, axis=-1)), np.inf)
    return np.where(np.any(crossing, axis=-1), np.argmin(score, axis=-1), -1)


def transition(c1: Chart, c2: Chart, u: NormalSection) -> tuple[NormalSection, Reparam]:
    """Change of chart: section u in c1 re-expressed as (u', h) in c2.

    u' is the normal section of the same curve in c2 and h the base
    reparameterization adjustment; continuity only, no differentiability
    is claimed across charts.
    """
    y = chart_apply(c1, u)
    u2, sigma = chart_invert(c2, y)
    return u2, reparam_inverse(sigma)


def __getattr__(name: str):
    """Resolve `brentq` on first access, so importing the package skips scipy.optimize.

    No library path calls `brentq`; the benchmark tracer wraps the name
    by lookup.  ROADMAP item 1 (the benchmark refresh) deletes this hook.
    """
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
