"""Discrete closed curves S^1 -> N and reparameterizations.

Curves are P uniform samples of a band-limited map.  A curve with a
winding vector (on the flat torus) stores a continuous coordinate lift:
a periodic part plus the drift theta * winding / (2 pi), so spectral
differentiation and interpolation act on periodic data.  Interpolated
values are mapped onto N by the space's `retract`; everything else that
depends on the ambient is a method of the space.  Every search over a
curve's samples lives here, `charts.chart_invert`'s fiber crossings too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .ambient import AmbientSpace
from .errors import CutLocusError, NonMonotoneError, OutsideTubeError, ProjectionFailedError

MIN_SPEED = 1e-8
MIN_SEPARATION = 1e-8
# `separation` skips node pairs fewer than this many indices apart
MIN_GAP = 4
# `image_distance` probes each curve at this many points per node of the finer one
PROBES_PER_NODE = 8


def _check_grid(P: int):
    """Grids are uniform on S^1 (nodes `fourier.nodes(P)`) with an even P >= 16."""
    if P < 16 or P % 2 != 0:
        raise ValueError("grid size must be an even integer >= 16")


def _taylor_order(ratio: float) -> int:
    """Smallest N with ratio**(N+1) / (N+1)! below the unit roundoff 2**-53."""
    N, term = 0, ratio
    while term >= 2.0**-53:
        N += 1
        term *= ratio / (N + 1)
    return N


# Values between nodes are Taylor sums about the nodes of the grid of
# PROBES_PER_NODE * P nodes, at offsets |delta| up to its spacing h.  Mode
# k <= P/2 has |k delta| <= pi / PROBES_PER_NODE, so series of this order
# are exact to roundoff.
_TAYLOR_ORDER = _taylor_order(np.pi / PROBES_PER_NODE)


def _grids(c: np.ndarray, P: int, order: int = 0, M: int | None = None) -> np.ndarray:
    """Derivatives of orders order .. order + _TAYLOR_ORDER of an interpolant on a fine grid.

    c are the rfft coefficients of P samples; the grid has the M nodes
    `fourier.nodes(M)`, M = PROBES_PER_NODE * P unless given (a larger M
    keeps the sums exact).  The result is what `fourier.taylor_nearest`
    sums: every value of a curve, lift or reparameterization between
    nodes is evaluated this way, one zero-padded FFT per interpolant and
    O(_TAYLOR_ORDER) work per point.
    """
    M = PROBES_PER_NODE * P if M is None else M
    return fourier.upsample(c, P, M, order + _TAYLOR_ORDER + 1)[order:]


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
        if not np.all(np.isfinite(pts)):
            raise ValueError("curve samples must be finite")
        self.space.check_point(pts)  # validation only: on the torus it would reduce the lift
        _check_grid(pts.shape[0])
        object.__setattr__(self, "pts", pts)
        object.__setattr__(self, "winding", self.space.check_winding(self.winding))

    @property
    def P(self) -> int:
        return self.pts.shape[0]

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
        return self.pts - fourier.nodes(self.P)[:, None] * self.drift


@dataclass(frozen=True)
class Reparam:
    """Monotone lift of a degree-one circle diffeomorphism, sampled at the nodes."""

    lift: np.ndarray

    def __post_init__(self):
        lift = np.asarray(self.lift, dtype=float)
        if lift.ndim != 1:
            raise ValueError("reparameterization lift must be a 1-d array")
        _check_grid(lift.shape[0])
        if not np.all(np.isfinite(lift)):
            raise ValueError("reparameterization lift must be finite")
        steps = np.diff(lift, append=lift[0] + 2.0 * np.pi)
        if not np.all(steps > 0.0):
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
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return fourier.taylor_nearest(_grids(self._periodic, self.P), t) + t

    def slope(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return fourier.taylor_nearest(_grids(self._periodic, self.P, 1), t) + 1.0

    @property
    def _periodic(self) -> np.ndarray:
        """rfft coefficients of the lift minus the identity, a periodic function."""
        return fourier.coeffs(self.lift - fourier.nodes(self.P))


def reparam_inverse(phi: Reparam) -> Reparam:
    """Inverse circle diffeomorphism, sampled on the same grid."""
    theta = fourier.nodes(phi.P)
    return Reparam(_invert_monotone(1.0, fourier.coeffs(phi.lift - theta), theta))


def reparam_compose(outer: Reparam, inner: Reparam) -> Reparam:
    """Lift of outer∘inner."""
    return Reparam(outer(inner.lift))


def interp_curve(x: Embedding, t) -> np.ndarray:
    """The band-limited curve at t, retracted onto N; torus results are lift coordinates."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return _curve_at(x, _grids(fourier.coeffs(x.periodic_part()), x.P), t)


def _curve_at(x: Embedding, grids: np.ndarray, t: np.ndarray) -> np.ndarray:
    """interp_curve(x, t), given the `_grids` of x's periodic part."""
    return x.space.retract(fourier.taylor_nearest(grids, t) + t[..., None] * x.drift)


def derivative(x: Embedding) -> np.ndarray:
    """Spectral derivative x'(theta): tangent vectors at the nodes, shape (P, coord_dim)."""
    d = fourier.diff(x.periodic_part()) + x.drift
    return x.space.project_tangent(x.pts, d)


def speeds(x: Embedding) -> np.ndarray:
    return np.linalg.norm(derivative(x), axis=1)


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
    d1, d2 = fourier.diff(x.periodic_part(), (1, 2))
    return x.space.curvature(x.pts, d1 + x.drift, d2)


def _distinct_strands(chord: np.ndarray, arc: np.ndarray) -> np.ndarray:
    """Pairs on distinct strands: chord below the round-arc bound (2/pi) * arc; inf across strands."""
    return chord < (2.0 / np.pi) * arc


def separation(x: Embedding) -> float:
    """Smallest distance between genuinely distinct strands of the curve; +inf if none.

    Candidates are the `image_chord`s from node i to node j moved by each
    translate of `strand_images`, MIN_GAP < j - i < P - MIN_GAP, below (2/pi)
    times their along-curve arc (`_distinct_strands`).  A dual descent of the
    arc tree (`_arc_levels`; Gray & Moore, NIPS 2000) drops a pair of arcs
    A <= B per translate holding no i, j the gap apart, or whose bound
    d(m_A, m_B) - R_A - R_B on its chords reaches the best admissible middles'
    chord or (2/pi) times its arc bound (middles' arc plus both half-widths).
    R is the chain of `image_chord`s at k = 0 from m to either end, never
    across the seam, plus `_tree_margin`; so the result is the full scan's.
    """
    space, pts, P = x.space, x.pts, x.P
    w = quadrature_weights(x)
    s = np.concatenate(([0.0], np.cumsum(w)))[:-1]
    L = float(np.sum(w))
    images, turns = space.strand_images(pts, x.winding)
    chain = np.concatenate(([0.0], np.cumsum(space.image_chord(pts[:-1], pts[1:], 0.0))))
    margin = _tree_margin(pts, pts, chain[-1])

    def chords(i, j, k):
        """Chords from node i to node j moved by translate k, arcs m = turns[k] turns on, admissibility."""
        # np.take gathers rows about 10x faster than fancy indexing at d = 2, 3
        chord = space.image_chord(np.take(pts, i, axis=0), np.take(pts, j, axis=0),
                                  np.take(images, k, axis=0))
        m = turns[k]
        arc = np.abs(s[i] - s[j] - m * L)
        arc = np.where(np.isnan(m), np.inf, np.where(m == 0, np.minimum(arc, L - arc), arc))
        return chord, arc, (j - i > MIN_GAP) & (j - i < P - MIN_GAP) & _distinct_strands(chord, arc)

    best = np.inf
    a = b = np.zeros(len(images), dtype=int)  # one pair of whole loops per translate
    k = np.arange(len(images))
    for fan, start, end, mid in _arc_levels(P):
        ca, cb = np.divmod(np.arange(fan * fan), fan)
        a, b = (fan * a[:, None] + ca).ravel(), (fan * b[:, None] + cb).ravel()
        k = np.repeat(k, fan * fan)
        # some i in A and j in B with MIN_GAP < j - i < P - MIN_GAP
        ok = (np.maximum(start[b] - end[a] + 1, MIN_GAP + 1)
              <= np.minimum(end[b] - 1 - start[a], P - MIN_GAP - 1))
        a, b, k = a[ok], b[ok], k[ok]
        chord, arc, ok = chords(mid[a], mid[b], k)
        best = float(np.min(chord, initial=best, where=ok))
        R = np.maximum(chain[mid] - chain[start], chain[end - 1] - chain[mid]) + margin
        h = np.maximum(s[mid] - s[start], s[end - 1] - s[mid])
        lower = chord - R[a] - R[b]
        ok = (lower < best) & (lower < (2.0 / np.pi) * (arc + h[a] + h[b]))
        a, b, k = a[ok], b[ok], k[ok]
    # every node pair of every surviving leaf pair
    ci, cj = np.divmod(np.arange(_LEAF_SAMPLES**2), _LEAF_SAMPLES)
    i, j = start[a][:, None] + ci, start[b][:, None] + cj
    pair, col = np.nonzero((i < end[a][:, None]) & (j < end[b][:, None]))
    chord, _, ok = chords(i[pair, col], j[pair, col], k[pair])
    return float(np.min(chord, initial=best, where=ok))


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
        # keep the lift on x's own branch: node 0 within half a lattice vector of x's
        new_pts = new_pts - np.round(new_pts[0] - x.pts[0])
    return Embedding(x.space, new_pts, x.winding)


# root refinement: a root stops once its bracket or its step is below these
# widths, or after _MAX_STEPS secant steps
_BRACKET_TOL = 1e-12
_STEP_TOL = 1e-14
_MAX_STEPS = 60


def _illinois(fun, lo, hi, glo, ghi, start) -> np.ndarray:
    """Roots of many scalar functions at once, one bracket [lo, hi] each.

    fun(idx, t) evaluates the functions numbered idx at the points t; glo
    and ghi hold their values at the bracket ends, and start the current
    iterate of each root, one end of its bracket.  Only brackets across
    which the value changes sign are refined, by regula falsi with the
    Illinois modification (Dowell & Jarratt, BIT 1971) and a bisection
    fallback; the others keep their start.  A root stops when its bracket is
    narrower than _BRACKET_TOL, its next step would be shorter than
    _STEP_TOL, or its value vanishes.  Returns the secant point at which
    each root stopped, else its last iterate.  The live roots' state is
    kept compacted, numbered idx, and gathered again only when some stop.
    """
    sign = np.sign(glo)  # orient every bracket so that the value falls from + to -
    glo, ghi = sign * glo, sign * ghi
    idx = np.flatnonzero((glo > 0.0) & (ghi < 0.0))
    out = start.copy()
    lo, hi, glo, ghi, sign, last = (v[idx] for v in (lo, hi, glo, ghi, sign, start))
    side = np.zeros(idx.size)
    for _ in range(_MAX_STEPS):
        s = hi - ghi * (hi - lo) / (ghi - glo)
        going = (hi - lo >= _BRACKET_TOL) & (np.abs(s - last) >= _STEP_TOL)
        if not np.all(going):
            # a root that stops returns its final secant point, inside its bracket
            out[idx[~going]] = np.clip(s[~going], lo[~going], hi[~going])
            live = (idx, lo, hi, glo, ghi, sign, side, s)
            idx, lo, hi, glo, ghi, sign, side, s = (v[going] for v in live)
        if idx.size == 0:
            return out
        s = np.where((s > lo) & (s < hi), s, 0.5 * (lo + hi))
        gs = sign * fun(idx, s)
        up, down = gs > 0.0, gs < 0.0  # up: the root lies above s, which becomes the lower end
        # Illinois: halve the value kept at an end that survives twice running
        glo = np.where(up, gs, np.where(down & (side < 0.0), 0.5, 1.0) * glo)
        ghi = np.where(down, gs, np.where(up & (side > 0.0), 0.5, 1.0) * ghi)
        # a vanishing value closes the bracket at s, so the root stops there next step
        lo, hi = np.where(gs >= 0.0, s, lo), np.where(gs <= 0.0, s, hi)
        side = np.where(up, 1.0, -1.0)
        last = s
    out[idx] = last
    return out


def _invert_monotone(slope: float, c: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Solve slope * t + q(t) = targets, q the interpolant with rfft coefficients c.

    The roots are bracketed in closed form: |q| <= sum_k w_k |c_k| / P, with
    the weights w_k of the real interpolant, 1 for k = 0 and the Nyquist
    mode and 2 for the others.  q between nodes comes from `_grids`.
    """
    P = 2 * (c.shape[0] - 1)
    bound = (2.0 * np.sum(np.abs(c)) - np.abs(c[0]) - np.abs(c[-1])) / P
    lo, hi = (targets - bound) / slope, (targets + bound) / slope
    grids = _grids(c, P)

    def fun(idx, t):
        return slope * t + fourier.taylor_nearest(grids, t) - targets[idx]

    flo, fhi = fun(slice(None), lo), fun(slice(None), hi)
    return _illinois(fun, lo, hi, flo, fhi, np.where(np.abs(flo) < np.abs(fhi), lo, hi))


def _derivative_grids(x: Embedding, M: int) -> np.ndarray:
    """The lift of x and its theta-derivatives of orders 0 .. _TAYLOR_ORDER + 1 at fourier.nodes(M)."""
    g = fourier.upsample(fourier.coeffs(x.periodic_part()), x.P, M, _TAYLOR_ORDER + 2)
    g[0] += fourier.nodes(M)[:, None] * x.drift
    g[1] += x.drift
    return g


# the tree of sample arcs of `_arc_levels`: _ROOT_ARCS arcs at its root, each
# split into _SPLIT per level, down to leaves of at most _LEAF_SAMPLES samples
_ROOT_ARCS = 8
_SPLIT = 4
_LEAF_SAMPLES = 4


def _arc_levels(n: int):
    """The levels of a tree of arcs of n cyclic samples, root first: (fan, start, end, mid).

    Level l has N = _ROOT_ARCS * _SPLIT**l arcs [a n // N, (a + 1) n // N)
    down to leaves of at most _LEAF_SAMPLES samples (Gottschalk, Lin &
    Manocha, OBBTree, 1996); arc a splits into arcs fan * a + (0 .. fan - 1).
    """
    fan = N = _ROOT_ARCS
    while True:
        bounds = np.arange(N + 1) * n // N
        start, end = bounds[:-1], bounds[1:]
        yield fan, start, end, (start + end) // 2
        if np.max(end - start) <= _LEAF_SAMPLES:
            return
        fan, N = _SPLIT, _SPLIT * N


def _tree_margin(p: np.ndarray, q: np.ndarray, chain: float) -> float:
    """Margin of the arc radii of samples q searched from points p: a rounding bound.

    A computed distance of points of magnitude up to a is within 4 eps (1 + a);
    a partial sum of the chain's n links within (n - 1) eps / 2 times its length
    (Higham, Accuracy and Stability, 2002, §4.2), a radius within 2 eps n chain.
    """
    eps = np.finfo(float).eps
    return 4.0 * eps * (1.0 + np.max(np.abs(p)) + np.max(np.abs(q))) + 2.0 * eps * len(q) * chain


def _arc_tree(space: AmbientSpace, p: np.ndarray, q: np.ndarray, keep, past: int = 0):
    """The (point, sample) pairs left by a descent of the tree of arcs of the cyclic samples q.

    Each arc of `_arc_levels` is the ball about its middle sample m of
    radius R, the chain of samples from m to either end and to the sample
    just past it plus `_tree_margin`: it holds every interval [k, k + 1]
    that starts in the arc.  The descent goes breadth-first for all points
    at once: keep(i, m, d, R) gets the surviving pairs of a level as the
    point indices i, middle samples m, d = dist(p[i], q[m]) and radii R,
    and returns the mask of pairs whose children to visit.  Returns flat
    (owner, sample) pairs sorted by owner: every sample of each surviving
    leaf in order, then the past samples just after it, numbered past n - 1
    on the last leaf (take them mod n, as `np.take(..., mode="wrap")` does).
    """
    chain = np.concatenate(([0.0], np.cumsum(space.dist(q, np.roll(q, -1, axis=0)))))
    margin = _tree_margin(p, q, chain[-1])
    node, arc = np.arange(len(p)), np.zeros(len(p), dtype=int)
    for fan, start, end, mid in _arc_levels(len(q)):
        node, arc = np.repeat(node, fan), (fan * arc[:, None] + np.arange(fan)).ravel()
        R = np.maximum(chain[mid] - chain[start], chain[end] - chain[mid]) + margin
        m = mid[arc]
        ok = keep(node, m, space.dist(np.take(p, node, axis=0), np.take(q, m, axis=0)), R[arc])
        node, arc = node[ok], arc[ok]
    size = (end - start)[arc] + past
    owner = np.repeat(node, size)
    return owner, np.arange(owner.size) + np.repeat(start[arc] - np.cumsum(size) + size, size)


def _nearest_samples(space: AmbientSpace, probes: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Index of each probe's nearest sample; the lowest index among equals, as `argmin`.

    samples are consecutive points of a closed curve.  The descent of
    `_arc_tree` keeps a (probe, arc) pair while dist(p, m) - R is at most
    the distance of the nearest arc middle to p found so far: every sample
    of a dropped arc lies farther than a sample already seen.  The
    (probe, sample) pairs it hands back then reduce per probe.
    """
    best = np.full(len(probes), np.inf)

    def keep(i, m, d, R):
        np.minimum.at(best, i, d)
        return d - R <= best[i]

    owner, cand = _arc_tree(space, probes, samples, keep)
    dist = space.dist(np.take(probes, owner, axis=0), np.take(samples, cand, axis=0))
    seg = np.flatnonzero(np.diff(owner, prepend=-1))
    count = np.diff(seg, append=owner.size)
    at_best = dist == np.repeat(np.minimum.reduceat(dist, seg), count)
    return np.minimum.reduceat(np.where(at_best, cand, len(samples)), seg)


def _directed_hausdorff(space: AmbientSpace, probes: np.ndarray, grids: np.ndarray,
                        samples: np.ndarray) -> float:
    """sup over probe points of the distance to the interpolated target curve Y.

    grids holds Y and its derivatives on a uniform grid of M nodes t_j
    (`_derivative_grids`), and samples the points Y(t_j) on N.  The
    candidate for each probe p is its nearest sample Y(t_j), found by a
    descent of the arc tree (`_nearest_samples`), a few dozen to a few
    hundred distances per probe.  The closest point Y(s) of the continuous
    curve then solves the closest-point condition

        g(s) = <log_{Y(s)} p, Y'(s)> = -(1/2) d/ds dist(p, Y(s))^2 = 0,

    which changes sign from + to - across a minimum.  The solve starts from
    the bracket [t_j - h, t_j + h] of grid spacing h, split at t_j, and
    runs `_illinois` on every probe with such a crossing.  Y and Y' at the
    iterates are Taylor sums about t_j over the derivative grids, exact to
    roundoff for |s - t_j| <= h.  A probe's distance is the smallest one
    evaluated, bracket ends included.  Where p is antipodal to Y(s) (S^2),
    g is taken as zero and the probe stops.
    """
    n, d = probes.shape
    M = samples.shape[0]
    h = 2.0 * np.pi / M
    near = _nearest_samples(space, probes, samples)
    # value and derivative series side by side: one Horner sum serves both
    series = np.concatenate([grids[:-1], grids[1:]], axis=-1)

    def dist_and_slope(p, y, dy):
        # the unretracted derivative serves: log_y p is tangent at y, and on
        # S^2 it differs from Y' by a positive factor only
        dist, v = space.dist_and_log(y, p)
        return dist, np.sum(v * dy, axis=1)

    ends = np.concatenate([(near - 1) % M, near, (near + 1) % M])
    f, g = dist_and_slope(np.tile(probes, (3, 1)), np.take(samples, ends, axis=0),
                          np.take(grids[1], ends, axis=0))
    best = np.min(f.reshape(3, n), axis=0)
    ga, gm, gb = g.reshape(3, n)
    left, right = (gm < 0.0) & (ga > 0.0), (gm > 0.0) & (gb < 0.0)  # the crossing below or above t_j
    crossing = np.flatnonzero(left | right)
    j = near[crossing]
    t = fourier.nodes(M)[j]

    def slope(idx, s):
        i = crossing[idx]
        vals = fourier.taylor(series, j[idx], s - t[idx])
        fs, gs = dist_and_slope(np.take(probes, i, axis=0), space.retract(vals[:, :d]),
                                vals[:, d:])
        best[i] = np.minimum(best[i], fs)
        return gs

    glo, ghi = np.where(right, gm, ga)[crossing], np.where(left, gm, gb)[crossing]
    left, right = left[crossing], right[crossing]
    _illinois(slope, np.where(right, t, t - h), np.where(left, t, t + h), glo, ghi, t)
    return float(np.max(best))


def image_distance(x: Embedding, y: Embedding) -> float:
    """Symmetric Hausdorff distance between the interpolated images of x and y.

    A pseudo-metric on embeddings: zero (up to interpolation error) iff
    the two curves parameterize the same submanifold.  Each direction
    probes one curve at the M = PROBES_PER_NODE * max(P) nodes of a finer
    grid and takes the sup over probes of the distance to the other
    curve's continuous interpolant.  Both curves and their derivatives
    come onto that grid by zero-padded FFTs (`fourier.upsample`); each
    probe's nearest sample comes from a descent of a tree of sample arcs
    (`_nearest_samples`), and a closest-point solve on Taylor sums about
    it refines the distance (`_directed_hausdorff`).  No step costs
    O(M^2), whether the images coincide or lie apart: a probe visits only
    the arcs whose balls reach as near it as the nearest sample found so
    far.
    """
    if x.space != y.space:
        raise ValueError("image_distance requires a common ambient space")
    M = PROBES_PER_NODE * max(x.P, y.P)
    gx, gy = _derivative_grids(x, M), _derivative_grids(y, M)
    space = x.space
    xs, ys = space.retract(gx[0]), space.retract(gy[0])
    d_xy = _directed_hausdorff(space, space.reduce(xs), gy, ys)
    d_yx = _directed_hausdorff(space, space.reduce(ys), gx, xs)
    return max(d_xy, d_yx)


# `_fiber_crossings` samples a curve at 4 to this many points per center node
_MAX_SAMPLES_PER_NODE = 64


def _fiber_crossings(y: Embedding, x: Embedding, T: np.ndarray, rho: float):
    """Where the interpolated curve Y of y crosses the normal fibers of x: (s, Y(s)).

    x centers a tube of radius rho, with unit tangents T at its nodes; s_i
    solves g_i(s) = <log(x(theta_i), Y(s)), T_i> = 0.  Y comes onto one
    fine grid by a zero-padded FFT.  Every 2m-th node of it (m = ceil(y.P / P))
    is one of n samples of Y: n = 4P, doubled with the grid until
    consecutive samples lie closer than rho / 2.  Each root is bracketed by
    the sign change of g_i on those samples that lies nearest x(theta_i)
    within the tube, which a descent of the tree of sample arcs finds from
    a few dozen samples per node (`_fiber_brackets`).  `_illinois` refines
    all roots together on Taylor sums about the grid, and s is unwrapped
    onto the branch near node 0.  A node without a bracket raises
    OutsideTubeError if some sample lies rho or farther from the
    continuous center, and ProjectionFailedError otherwise.
    """
    space = x.space
    P = x.P

    def fiber(i: np.ndarray, pts: np.ndarray) -> np.ndarray:
        p = np.take(x.pts, i, axis=0)
        try:
            l = space.log(p, pts)
        except CutLocusError as exc:
            raise ProjectionFailedError("fiber search strayed past the cut locus") from exc
        return space.inner(p, l, np.take(T, i, axis=0))

    # n = 4P, 8P, ... samples of Y: every step-th node of a grid of at least PROBES_PER_NODE * y.P
    step, n, gap = PROBES_PER_NODE * -(-y.P // P) // 4, 2 * P, np.inf
    cy = fourier.coeffs(y.periodic_part())
    while gap >= 0.5 * rho and n < _MAX_SAMPLES_PER_NODE * P:
        n *= 2
        grids = _grids(cy, y.P, M=step * n)
        dense = np.linspace(0.0, 2.0 * np.pi, n + 1)
        ypts = space.retract(grids[0, ::step] + dense[:-1, None] * y.drift)
        gap = np.max(space.dist(ypts, np.roll(ypts, -1, axis=0)))
    k, glo, ghi = _fiber_brackets(space, x.pts, T, ypts, rho)
    if np.any(k < 0):
        # a tube violation where some sample lies rho or farther from the continuous center
        gx = _derivative_grids(x, PROBES_PER_NODE * P)
        if _directed_hausdorff(space, space.reduce(ypts), gx, space.retract(gx[0])) >= rho:
            raise OutsideTubeError("curve leaves the tube of radius rho around the chart center")
        raise ProjectionFailedError("fiber projection found no nearby crossing")

    lo, hi = dense[k], dense[k + 1]
    # a bracket end with g = 0 is the root itself, and _illinois keeps it
    s = _illinois(lambda i, t: fiber(i, _curve_at(y, grids, t)), lo, hi, glo, ghi,
                  np.where(np.abs(glo) < np.abs(ghi), lo, hi))
    # a lift is defined modulo 2 pi: unwrap it from node 0, then pin the branch near node 0
    s = np.unwrap(s)
    s -= 2.0 * np.pi * np.round(s[0] / (2.0 * np.pi))
    return s, _curve_at(y, grids, s)


def _fiber_brackets(space, p: np.ndarray, T: np.ndarray, q: np.ndarray, rho: float):
    """Bracket of each node's fiber crossing among the cyclic samples q: (k, g_k, g_k+1).

    With g = <log_p q, T> within rho of the node p, the bracket is the
    interval [k, k + 1] across which g changes sign nearest p, by
    min(dist(p, q_k), dist(p, q_k+1)) and then the lowest k, as a dense
    scan of every (node, sample) pair picks it; k = -1 where none.  The
    descent of `_arc_tree` keeps a (node, arc) pair only if the arc's
    ball reaches inside the tube, dist(p, m) - R < rho, and may meet the
    node's fiber (`AmbientSpace.fiber_may_cross`): a dropped pair holds no
    sign change of g, nor does an interval from a leaf's past sample to a
    later leaf.  The pairs it hands back, each leaf's samples and the one
    past its end (sample n is sample 0), take `dist`, and `log` only within
    rho; one sort by (node, score, k) picks each node's bracket.
    """

    def keep(i, m, d, R):
        ok = d - R < rho
        i, m = i[ok], m[ok]
        ok[ok] = space.fiber_may_cross(np.take(p, i, axis=0), np.take(T, i, axis=0),
                                       np.take(q, m, axis=0), R[ok])
        return ok

    owner, j = _arc_tree(space, p, q, keep, past=1)
    pr, qr = np.take(p, owner, axis=0), np.take(q, j, axis=0, mode="wrap")
    dist, g = space.dist(pr, qr), np.full(owner.size, np.nan)
    near = dist < rho
    g[near] = space.inner(pr[near], space.log(pr[near], qr[near]), np.take(T, owner[near], axis=0))
    # intervals [j_e, j_e+1] of one node across which g changes sign (False next to a NaN)
    e = np.flatnonzero((owner[1:] == owner[:-1]) & (j[1:] == j[:-1] + 1) & (g[:-1] * g[1:] <= 0.0))
    # per node, the lowest score and the lowest k among equal scores, first in the sort
    e = e[np.lexsort((j[e], np.minimum(dist[e], dist[e + 1]), owner[e]))]
    e = e[np.diff(owner[e], prepend=-1) != 0]
    k, glo, ghi = np.full(len(p), -1), np.full(len(p), np.nan), np.full(len(p), np.nan)
    k[owner[e]], glo[owner[e]], ghi[owner[e]] = j[e], g[e], g[e + 1]
    return k, glo, ghi


def make_diffeo(seed: int, amplitude: float, P: int = 256) -> Reparam:
    """Deterministic band-limited test diffeomorphism theta + sum a_k sin(k theta + phi_k).

    Coefficients (4 harmonics) are drawn from the seed and rescaled so
    the lift slope stays above 0.2 everywhere.
    """
    if not amplitude < 0.5:
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
    P = x.P
    mean, c = fourier.antiderivative_coeffs(speeds(x))
    # cumulative arclength S(t) = mean*t + q(t) - q(0), strictly increasing
    q0 = np.fft.irfft(c, n=P)[0]
    targets = mean * 2.0 * np.pi * np.arange(P) / P
    return Reparam(_invert_monotone(mean, c, targets + q0))


def __getattr__(name: str):
    """Resolve `brentq` on first access, so importing the package skips scipy.optimize.

    No library path calls `brentq`; the benchmark tracer wraps the name
    by lookup.  ROADMAP item 1 (the benchmark refresh) deletes this hook.
    """
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
