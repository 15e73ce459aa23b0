"""Parameterization-invariant functionals and their variations in charts.

Supported terms: curve length, signed enclosed area (planar only), and
bending energy (integral of squared curvature; on S^2 of the geodesic
curvature).  Each term kind is an AmbientSpace method (`TERM_KINDS`)
that gives its density at the nodes and its partials in x, x' and x'',
in closed form; a backend without the term raises UnsupportedAmbientError
(`area_term` off the plane).  One loop over the terms (`_terms`) gives
the value and the partials, and the chain rule through the spectral
derivatives runs once (`_by_parts`): two forward and two inverse real
FFTs per gradient and per Hessian column block.  Gradients are exact derivatives of
the discrete functionals, pulled back through the differential of the
exponential map.  The first variation needs no chart: any section of
x^*(TN) will do, on any curve.  Both variations use complex steps, df[e] = Im f(x + i h e) / h (Squire &
Trapp, SIAM Rev. 1998), exact to roundoff for any tiny h as nothing is
subtracted: the first variation steps the value, independently of the
closed-form gradient; the Hessian, the gradient's tangent-linear model,
steps the pointwise partials of the densities.

Arrays put the nodes first and the coordinates (or basis directions)
last: a section is (P, dim) in coefficients, (P, coord_dim) in the
ambient.  The densities also take batch axes between, (P, ..., d), so
the Hessian steps every input at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import fourier
from .ambient import AmbientSpace
from .charts import Chart, NormalSection, _check_radius, _check_section, _full_section
from .curve import Embedding

# each term kind and the AmbientSpace method of its density and partials
TERM_KINDS = {"length": "length_term", "area": "area_term", "bend": "bending_term"}

# the imaginary step of both variations
_STEP = 1e-30
# Hessian columns per real block of `_hessian`'s tangent-linear step
_BLOCK_COLUMNS = 32


@dataclass(frozen=True)
class Functional:
    """Affine combination of invariant terms: list of (kind, coefficient)."""

    terms: tuple[tuple[str, float], ...]

    def __post_init__(self):
        for kind, coef in self.terms:
            if kind not in TERM_KINDS:
                raise ValueError(f"unknown functional term {kind!r}")
            if not np.isfinite(coef):
                raise ValueError("coefficients must be finite")

    def coefficient(self, kind: str) -> float:
        return sum(c for k, c in self.terms if k == kind)


_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\*)?(" + "|".join(TERM_KINDS) + ")")


def parse_functional(text: str) -> Functional:
    """Parse the whitespace-free CLI grammar, e.g. 'length-1.0*area'.

    Every term after the first starts with its sign.
    """
    pos = 0
    terms = []
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or (terms and not m.group(1)):
            raise ValueError(f"cannot parse functional string {text!r} at position {pos}")
        sign, coef, kind = m.groups()
        value = float(coef) if coef is not None else 1.0
        if sign == "-":
            value = -value
        terms.append((kind, value))
        pos = m.end()
    if not terms:
        raise ValueError("empty functional string")
    return Functional(tuple(terms))


def evaluate(F: Functional, x: Embedding) -> float:
    """Value of the functional on a discrete curve (spectral quadrature)."""
    return float(_terms(F, x.space, x.pts, *_derivatives(F, x.pts, x.drift))[0])


def _derivatives(F: Functional, pts: np.ndarray, drift: np.ndarray):
    """x' and, where F bends, x'' at the nodes, from one forward and one inverse FFT.

    pts has shape (P, ..., coord_dim), any batch axes between; drift is
    the winding drift, as `Embedding.drift`, zero without a winding.
    """
    wound = np.any(drift)
    per = pts - fourier.nodes(len(pts)).reshape((-1,) + (1,) * (pts.ndim - 1)) * drift if wound else pts
    bends = any(kind == "bend" and coef != 0.0 for kind, coef in F.terms)
    a, b = fourier.diff(per, (1, 2)) if bends else (fourier.diff(per), None)
    return a + drift if wound else a, b


def _terms(F: Functional, space: AmbientSpace, pts: np.ndarray, a: np.ndarray, b):
    """F's value and its partials gx, ga, gb in x, x', x'' at the nodes, given `_derivatives` a, b.

    pts may be real or complex, shapes as `_derivatives`; the value sums
    the densities over the nodes, so it has the batch shape.  A partial
    that no term has is None.
    """
    f, partials = 0.0, (None, None, None)
    for kind, coef in F.terms:
        if coef == 0.0:
            continue
        value, *parts = getattr(space, TERM_KINDS[kind])(pts, a, b)
        value = value.sum(axis=0)
        if coef != 1.0:
            value, parts = coef * value, [t if t is None else coef * t for t in parts]
        f = f + value
        partials = tuple(t if g is None else g if t is None else g + t for g, t in zip(partials, parts))
    return (f,) + partials


def _by_parts(like: np.ndarray, gx, ga, gb) -> np.ndarray:
    """gx - D ga + D^2 gb, the sample-point gradient of partials in x, x', x''; None reads as zero.

    x' = D x + drift and x'' = D^2 x, D = `fourier.diff`; with gb (and so ga, as bending has both)
    one `fourier.adjoint_diff` gives -D ga + D^2 gb.  A zero is shaped like `like`.
    """
    if gb is not None:
        d = fourier.adjoint_diff(ga, gb)
        return d if gx is None else gx + d
    g = np.zeros_like(like) if gx is None else gx
    return g if ga is None else g - fourier.diff(ga)


def _grad_pts(F: Functional, space: AmbientSpace, pts: np.ndarray, drift: np.ndarray):
    """F's value and its sample-point gradient, shapes as `_terms`."""
    a, b = _derivatives(F, pts, drift)
    f, gx, ga, gb = _terms(F, space, pts, a, b)
    return f, _by_parts(pts, gx, ga, gb)


# ---------------------------------------------------------------------------
# chart derivatives


def _pullback_gradient(F: Functional, c: Chart, coeff: np.ndarray, basis: np.ndarray):
    """Value and L2(ds) gradient of coeff -> evaluate(F, exp_x(sum_a coeff^a basis^a)).

    coeff has shape (P, dim) for a basis of shape (dim, P, coord_dim), and
    so has the gradient: the sample-point gradient of the image curve
    pulled back through d exp at each node.
    """
    x = c.center
    W = np.einsum("ia,aid->id", coeff, basis)
    _check_radius(c, W)
    f, gp = _grad_pts(F, x.space, x.space.exp(x.pts, W), x.drift)
    G = np.einsum("aid,id->ia", x.space.dexp(x.pts, W, basis), gp)
    return f, G / c.weights[:, None]


def gradient_in_chart(F: Functional, c: Chart, u: NormalSection) -> NormalSection:
    """L2(ds) gradient of u -> evaluate(F, chart_apply(c, u)).

    The returned coefficients g satisfy
    d f(u)[delta] = sum_i <g_i, delta_i> w_i with w the chart-center
    arclength weights.
    """
    _check_section(c, u.coeff)
    return NormalSection(_pullback_gradient(F, c, u.coeff, c.frame)[1])


def value_and_gradient(F: Functional, c: Chart, coeff: np.ndarray) -> tuple[float, NormalSection]:
    """`evaluate(F, chart_apply(c, u))` and `gradient_in_chart(F, c, u)` for u of coefficients coeff.

    One exponential map and one spectral differentiation of the image
    curve serve both; each result equals its separate call bit for bit.
    """
    _check_section(c, coeff)
    f, G = _pullback_gradient(F, c, np.asarray(coeff, dtype=float), c.frame)
    return float(f), NormalSection(G)


def first_variation(F: Functional, x: Embedding, V) -> float:
    """dF_x[V] = Im F(exp_x(i h V)) / h for a full section V of x^*(TN), shape (P, coord_dim)."""
    V = _full_section(x, V, nodes=f"chart-center node of a chart at x, that is per node of the "
                                  f"curve x: shape {x.pts.shape}, got {np.shape(V)}")
    y = x.space.exp(x.pts, 1j * _STEP * V)
    return float(_terms(F, x.space, y, *_derivatives(F, y, x.drift))[0].imag / _STEP)


def grad_norm(c: Chart, g: NormalSection) -> float:
    """L2(ds) norm of a chart gradient."""
    return float(np.sqrt(np.sum(g.coeff**2 * c.weights[:, None])))


def is_critical(F: Functional, c: Chart, u: NormalSection, tol: float) -> bool:
    """True iff the chart gradient has L2(ds) norm at most tol."""
    return grad_norm(c, gradient_in_chart(F, c, u)) <= tol


def _hessian(F: Functional, c: Chart, basis: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Jacobian of the gradient over basis J, shape (dim, P, coord_dim), at coeff = 0, times V.

    The Jacobian is taken against the mass matrix of the chart weights; V is (P * dim, k), rows
    (node, direction) flattened row-major, as the product's.  At coeff = 0 exp acts node by node
    with derivative J, so a column v of V is the tangent-linear step of `_grad_pts`: the step
    dy = v.J at each node and its D dy, D^2 dy go through the densities' second partials R to
    steps of gx, ga, gb, which `_by_parts` joins and J^T contracts; C, the second derivative of
    exp along J[a], J[b] against the gradient, adds C v node by node.  R and C are complex steps
    at every node at once, as the densities are pointwise.
    """
    x, space = c.center, c.center.space
    p, P, dim, d = x.pts, c.P, basis.shape[0], x.pts.shape[1]
    J = basis.transpose(1, 0, 2)
    a, b = _derivatives(F, p, x.drift)
    gp = _by_parts(p, *_terms(F, space, p, a, b)[1:])
    # one step per input: x along J (tangent, for `Sphere2.length_term`'s gx), x' and x'' along axes
    orders = (1,) if b is None else (1, 2)
    S = 1j * _STEP * np.eye(dim + d * len(orders))
    R = [r if r is None else r.imag / _STEP for r in _terms(
        F, space, space.exp(p[:, None], S[:, :dim] @ J), a[:, None] + S[:, dim:dim + d],
        b if b is None else b[:, None] + S[:, dim + d:])[1:]]
    C = np.broadcast_to(np.einsum("iabd,id->iba", space.dexp(
        p[:, None, None], 1j * _STEP * J[:, :, None], J[:, None]).imag, gp) / _STEP, (P, dim, dim))
    blocks = []
    for j0 in range(0, V.shape[1], _BLOCK_COLUMNS):
        v = V[:, j0:j0 + _BLOCK_COLUMNS].reshape(P, dim, -1)
        dy = v.transpose(0, 2, 1) @ J
        inputs = np.concatenate((v.transpose(0, 2, 1),) + fourier.diff(dy, orders), axis=-1)
        dgp = _by_parts(dy, *(r if r is None else inputs @ r for r in R))
        blocks.append((J @ dgp.transpose(0, 2, 1) + C @ v).reshape(P * dim, -1))
    return np.concatenate(blocks, axis=1)


def hessian_in_chart(F: Functional, c: Chart) -> np.ndarray:
    """Second variation of the chart representative at u = 0.

    Q is the symmetrized Hessian in frame coefficients (flattened row-major
    over (node, frame index)); with M the chart weights repeated rank
    times, the pair (Q, diag(M)) defines the L2(ds) second-variation
    operator.
    """
    Q = _hessian(F, c, c.frame, np.eye(c.P * c.rank))
    return 0.5 * (Q + Q.T)


def hessian_full(F: Functional, c: Chart) -> np.ndarray:
    """Second variation over all sections of x^*(TN), at the zero section, symmetrized."""
    basis = c.center.space.section_basis(c.tangent, c.frame)
    Q = _hessian(F, c, basis, np.eye(c.P * basis.shape[0]))
    return 0.5 * (Q + Q.T)


def restriction_matrix(c: Chart) -> np.ndarray:
    """R embedding frame coefficients into the full-section coefficients.

    Block i holds the inner products <basis_b, frame_a> at node i.
    """
    P, rank = c.P, c.rank
    basis = c.center.space.section_basis(c.tangent, c.frame)
    dim = basis.shape[0]
    R = np.zeros((P, dim, P, rank))
    nodes = np.arange(P)
    R[nodes, :, nodes, :] = np.einsum("bid,aid->iba", basis, c.frame)
    return R.reshape(P * dim, P * rank)
