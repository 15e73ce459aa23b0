"""Parameterization-invariant functionals and their variations in charts.

Supported terms: curve length, signed enclosed area (planar only), and
bending energy (integral of squared curvature).  Gradients are exact
derivatives of the discrete functionals: the ambient space supplies the
sample-point gradient of each term, which is pulled back through the
differential of its exponential map.  A term whose space has no closed
form (bending on the sphere) falls back to finite differences.  Hessians
are Richardson-extrapolated central differences of the gradient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import fourier
from .charts import Chart, NormalSection, SectionField, full_chart_apply, make_chart
from .curve import Embedding, curvature, derivative, quadrature_weights
from .errors import UnsupportedAmbientError

TERM_KINDS = ("length", "area", "bend")

_GRAD_STEP = 1e-5
_HESS_STEP = 1e-4


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

    def __str__(self):
        parts = []
        for kind, coef in self.terms:
            sign = "-" if coef < 0 else ("+" if parts else "")
            parts.append(f"{sign}{abs(coef)}*{kind}")
        return "".join(parts) or "0*length"


_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\*)?(length|area|bend)")


def parse_functional(text: str) -> Functional:
    """Parse the whitespace-free CLI grammar, e.g. 'length-1.0*area'."""
    pos = 0
    terms = []
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None:
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


def _check_area_support(F: Functional, x: Embedding):
    if F.coefficient("area") != 0.0 and not (
        x.space.kind == "euclidean" and x.space.dim == 2
    ):
        raise UnsupportedAmbientError("signed area is defined only in the euclidean plane")


def evaluate(F: Functional, x: Embedding) -> float:
    """Value of the functional on a discrete curve (spectral quadrature)."""
    _check_area_support(F, x)
    total = 0.0
    w = None
    for kind, coef in F.terms:
        if coef == 0.0:
            continue
        if w is None:
            w = quadrature_weights(x)
        if kind == "length":
            total += coef * float(np.sum(w))
        elif kind == "area":
            d = derivative(x).vecs
            total += coef * 0.5 * (2.0 * np.pi / x.P) * float(
                np.sum(x.pts[:, 0] * d[:, 1] - x.pts[:, 1] * d[:, 0])
            )
        elif kind == "bend":
            k = curvature(x)
            total += coef * float(np.sum(k**2 * w))
    return total


# ---------------------------------------------------------------------------
# analytic gradients with respect to the sample points


def _grad_pts(F: Functional, y: Embedding):
    """Sum of analytic sample-point gradients, or None if a term needs finite differences."""
    _check_area_support(F, y)
    per = y.periodic_part()
    a = fourier.diff(per) + y.drift
    out = np.zeros_like(y.pts)
    for kind, coef in F.terms:
        if coef == 0.0:
            continue
        if kind == "length":
            g = y.space.length_gradient(y.pts, a)
        elif kind == "area":
            g = (2.0 * np.pi / y.P) * np.stack([a[:, 1], -a[:, 0]], axis=1)
        else:
            g = y.space.bending_gradient(y.pts, a, fourier.diff(per, 2))
        if g is None:
            return None
        out = out + coef * g
    return out


# ---------------------------------------------------------------------------
# chart derivatives


def _fd_gradient_coeff(fun, coeff: np.ndarray, step: float) -> np.ndarray:
    """Richardson central differences of a scalar function of a coefficient array."""
    out = np.zeros_like(coeff)
    it = np.nditer(coeff, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        vals = {}
        for h in (step, 0.5 * step):
            for sgn in (1.0, -1.0):
                pert = coeff.copy()
                pert[idx] += sgn * h
                vals[(h, sgn)] = fun(pert)
        d1 = (vals[(step, 1.0)] - vals[(step, -1.0)]) / (2.0 * step)
        d2 = (vals[(0.5 * step, 1.0)] - vals[(0.5 * step, -1.0)]) / step
        out[idx] = (4.0 * d2 - d1) / 3.0
    return out


def _section(c: Chart, coeff: np.ndarray, basis: np.ndarray) -> SectionField:
    """Full section sum_a coeff^a basis^a along the chart center."""
    return SectionField(c.center, np.einsum("ia,aid->id", coeff, basis))


def _pullback_gradient(F: Functional, c: Chart, coeff: np.ndarray,
                       basis: np.ndarray) -> np.ndarray:
    """L2(ds) gradient of coeff -> evaluate(F, exp_x(sum_a coeff^a basis^a)).

    The sample-point gradient is pulled back through d exp; without a
    closed-form sample-point gradient, finite differences in coeff.
    """
    x = c.center
    w = quadrature_weights(x)
    W = _section(c, coeff, basis)
    gp = _grad_pts(F, full_chart_apply(c, W))
    if gp is None:
        G = _fd_gradient_coeff(
            lambda cf: evaluate(F, full_chart_apply(c, _section(c, cf, basis))), coeff, _GRAD_STEP
        )
    else:
        G = np.einsum("aid,id->ia", x.space.dexp(x.pts, W.vecs, basis), gp)
    return G / w[:, None]


def gradient_in_chart(F: Functional, c: Chart, u: NormalSection) -> NormalSection:
    """L2(ds) gradient of u -> evaluate(F, chart_apply(c, u)).

    The returned coefficients g satisfy
    d f(u)[delta] = sum_i <g_i, delta_i> w_i with w the chart-center
    arclength weights.
    """
    return NormalSection(_pullback_gradient(F, c, u.coeff, c.frame.vectors))


def first_variation(F: Functional, x: Embedding, V: SectionField) -> float:
    """Directional derivative dF_x[V] along the vector-bundle chart at x."""
    c = make_chart(x)
    scale = max(1.0, V.sup_norm)
    h = _GRAD_STEP / scale

    def f(r: float) -> float:
        return evaluate(F, full_chart_apply(c, SectionField(x, r * V.vecs)))

    d1 = (f(h) - f(-h)) / (2.0 * h)
    d2 = (f(0.5 * h) - f(-0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def grad_norm(c: Chart, g: NormalSection) -> float:
    """L2(ds) norm of a chart gradient."""
    w = quadrature_weights(c.center)
    return float(np.sqrt(np.sum(g.coeff**2 * w[:, None])))


def is_critical(F: Functional, c: Chart, u: NormalSection, tol: float) -> bool:
    """True iff the chart gradient has L2(ds) norm at most tol."""
    return grad_norm(c, gradient_in_chart(F, c, u)) <= tol


@dataclass(frozen=True)
class HessianPair:
    """Coefficient Hessian Q with its diagonal mass matrix (as a vector)."""

    Q: np.ndarray
    mass: np.ndarray
    asymmetry: float


def _fd_hessian(c: Chart, dim: int, grad) -> HessianPair:
    """Symmetrized central-difference Jacobian of an L2(ds) gradient at coeff = 0.

    grad maps (P, dim) coefficients to their L2(ds) gradient; the pair
    is taken against the mass matrix of the chart-center weights.
    """
    w = quadrature_weights(c.center)
    n = c.P * dim

    def ell2_grad(flat: np.ndarray) -> np.ndarray:
        return (grad(flat.reshape(c.P, dim)) * w[:, None]).ravel()

    cols = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        d1 = (ell2_grad(_HESS_STEP * e) - ell2_grad(-_HESS_STEP * e)) / (2.0 * _HESS_STEP)
        d2 = (ell2_grad(0.5 * _HESS_STEP * e) - ell2_grad(-0.5 * _HESS_STEP * e)) / _HESS_STEP
        cols[:, j] = (4.0 * d2 - d1) / 3.0
    asym = float(np.max(np.abs(cols - cols.T)))
    return HessianPair(0.5 * (cols + cols.T), np.repeat(w, dim), asym)


def hessian_in_chart(F: Functional, c: Chart) -> HessianPair:
    """Second variation of the chart representative at u = 0.

    Q is the Hessian in frame coefficients (flattened row-major over
    (node, frame index)); the generalized pair (Q, diag(mass)) defines
    the L2(ds) second-variation operator.
    """
    return _fd_hessian(c, c.rank, lambda cf: gradient_in_chart(F, c, NormalSection(cf)).coeff)


def _full_basis(c: Chart) -> np.ndarray:
    """Per-node basis of x^*(TN) along the chart center: shape (dim, P, coord_dim)."""
    d = derivative(c.center).vecs
    T = d / np.linalg.norm(d, axis=1, keepdims=True)
    return c.center.space.section_basis(T, c.frame.vectors)


def hessian_full(F: Functional, c: Chart) -> HessianPair:
    """Second variation over all sections of x^*(TN), at the zero section."""
    basis = _full_basis(c)
    return _fd_hessian(c, basis.shape[0], lambda cf: _pullback_gradient(F, c, cf, basis))


def restriction_matrix(c: Chart) -> np.ndarray:
    """R embedding frame coefficients into the full-section coefficients.

    Block i holds the inner products <basis_b, frame_a> at node i.
    """
    P, rank = c.P, c.rank
    basis = _full_basis(c)
    dim = basis.shape[0]
    R = np.zeros((P, dim, P, rank))
    nodes = np.arange(P)
    R[nodes, :, nodes, :] = np.einsum("bid,aid->iba", basis, c.frame.vectors)
    return R.reshape(P * dim, P * rank)
