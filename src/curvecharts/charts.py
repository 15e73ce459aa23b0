"""Quotient-space charts over the normal bundle of a closed curve.

A chart is a smooth (band-limited) center embedding x, an orthonormal
frame of the normal bundle x-perp, a validity radius rho estimated
from curvature, strand separation, and the ambient injectivity radius,
and x's unit tangent and arclength weights (the L2(ds) metric).
chart_apply exponentiates a normal section; chart_invert projects a
nearby curve back to its unique normal section and the
reparameterization that aligns it with the chart fibers.  This module
states the chart; `curve` searches the curve's samples for the fiber
crossings.  The code is written once for every ambient: frames, focal
distances, distances and the exponential come from AmbientSpace methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import (
    MIN_SEPARATION,
    Embedding,
    Reparam,
    _fiber_crossings,
    curvature,
    derivative,
    is_immersion,
    reparam_inverse,
    separation,
)
from .errors import (
    DegenerateFrameError,
    NonMonotoneError,
    NotEmbeddingError,
    OutsideDomainError,
    OutsideTubeError,
)

_FRAME_TOL = 1e-10


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
    # a NaN fails every test
    bad = ~(np.abs(np.einsum("aid,bid->iab", vectors, vectors) - np.eye(len(vectors))) <= _FRAME_TOL)
    if np.any(bad):
        raise DegenerateFrameError("frame vectors not unit length" if np.any(np.diagonal(bad, 0, 1, 2))
                                   else "frame vectors not orthogonal")
    if not np.all(np.abs(np.einsum("aid,id->ai", vectors, T)) <= _FRAME_TOL):
        raise DegenerateFrameError("frame vectors not normal to the curve")
    return Chart(x, vectors, rho, T, speed * (2.0 * np.pi / x.P))


def _full_section(x: Embedding, V, nodes: str = "chart-center node") -> np.ndarray:
    """V as a float array of one ambient vector per node of x, shape (P, coord_dim).

    nodes names those nodes in the error that a misshapen V raises.
    """
    V = np.asarray(V, dtype=float)
    if V.shape != x.pts.shape:
        raise ValueError(f"a full section needs one ambient vector per {nodes}")
    return V


def _check_radius(c: Chart, W: np.ndarray):
    """OutsideDomainError unless every vector of W, shape (P, coord_dim), is shorter than rho."""
    if not np.sqrt((W * W).sum(axis=-1).max()) < c.rho:
        raise OutsideDomainError("section exceeds the chart radius")


def full_chart_apply(c: Chart, W) -> Embedding:
    """Pointwise exponential of a full section W of x^*(TN), shape (P, coord_dim)."""
    W = _full_section(c.center, W)
    _check_radius(c, W)
    x = c.center
    return Embedding(x.space, x.space.exp(x.pts, W), x.winding)


def _check_section(c: Chart, coeff: np.ndarray):
    """ValueError unless coeff has one frame coefficient per node and normal direction, (P, rank)."""
    if np.shape(coeff) != (c.P, c.rank):
        raise ValueError("section shape does not match the chart")


def chart_apply(c: Chart, u: NormalSection) -> Embedding:
    """Curve represented by the normal section u in this chart."""
    _check_section(c, u.coeff)
    # W = sum_a u^a nu^a has the pointwise norm of u: the frame is orthonormal
    return full_chart_apply(c, np.einsum("ia,aid->id", u.coeff, c.frame))


def project_normal(c: Chart, V) -> NormalSection:
    """Orthogonal projection of a full section V, shape (P, coord_dim), onto the normal bundle."""
    return NormalSection(np.einsum("aid,id->ia", c.frame, _full_section(c.center, V)))


def chart_invert(c: Chart, y: Embedding) -> tuple[NormalSection, Reparam]:
    """Normal section and fiber reparameterization of a curve inside the tube.

    For each node i the returned lift value s_i solves
    g_i(s) = <log(x(theta_i), Y(s)), T_i> = 0 with T the chart's unit
    tangent and Y = interp_curve(y, .) the interpolated curve
    (`curve._fiber_crossings`), and u_i holds the frame coefficients of
    that logarithm.  A logarithm of length rho or more raises
    OutsideTubeError, and a lift that does not increase NonMonotoneError.
    """
    if y.space != c.center.space:
        raise ValueError("curve and chart live in different ambient spaces")
    x = c.center
    space = x.space
    s, ys = _fiber_crossings(y, x, c.tangent, c.rho)
    logs = space.log(x.pts, ys)
    if np.max(space.norm(x.pts, logs)) >= c.rho:
        raise OutsideTubeError("projected section exceeds the chart radius")
    coeff = np.einsum("aid,id->ia", c.frame, logs)
    try:
        sigma = Reparam(s)
    except NonMonotoneError:
        raise NonMonotoneError("fiber assignment is not an orientation-preserving diffeomorphism")
    return NormalSection(coeff), sigma


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
