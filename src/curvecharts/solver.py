"""Critical-point search in quotient charts.

Gradient descent in the Sobolev H^s metric of the chart center: the
descent direction is K_s g, where g is the L2(ds) gradient and
K_s = (1 - d^2/ds^2)^(-s) is diagonal in the center's arclength Fourier
modes.  s = 1 for length/area functionals, which removes the k^2
stiffness of their Hessians, so the iteration count does not grow with
the grid size P.  s = 0 (plain L2(ds) descent) when the functional has
a bending term, where H^2 ends below the energy's continuous lower
bound.  H^1 would do better: from `perturbed_circle(P, 0.1, seed=3)`,
500 iterations of bend + length end at f - 4 pi = 0.05-0.09 (P = 64)
and 0.4-0.6 (P = 128) under L2(ds), moved by roundoff, and at 2.4e-9
and 1e-6 under H^1, which meets grad_tol 1e-8 at P = 128 after about
3000 iterations.  Steps come from Armijo backtracking
with Barzilai-Borwein trial lengths; each trial costs one fused value
and gradient, and the accepted trial's gradient serves the next
iterate.  The chart is re-centered once the section grows past a
fraction of the validity radius.

Newton refinement finds saddles as well as minima.  With it on, the
descent takes each frame component's weighted mean out of K_s g, as
Sobolev active contours treat the mean mode apart (Sundaramoorthi,
Yezzi & Mennucci, IJCV 2007): that mean is the unstable dilation of a
critical circle and the latitude shift of a great circle, along which
plain H^1 descent leaves the saddle.  Once the mean-free gradient is
small, Newton rounds alternate `newton_refine`, which drops the
components on the isometry-orbit kernel, with re-centering, until a
round begins on a chart re-centered at an already-critical curve.  A
round ends past the same fraction of rho as an Armijo step, so
re-centering carries the rounds across charts to a distant saddle.  The
spectrum of the second variation is reported separately.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import fourier
from .ambient import _integer
from .charts import Chart, NormalSection, chart_apply, chart_invert, make_chart
from .curve import Embedding, arclength_lift, is_embedding, resample
from .errors import (
    ChartBreakdownError,
    CurveChartsError,
    LineSearchFailedError,
    NotEmbeddingError,
    OutsideTubeError,
    SingularSystemError,
)
from .functionals import Functional, _hessian, grad_norm, value_and_gradient

# slack for the monotone-trace invariant: re-centering re-represents the
# curve with a truncated center, which may move f by roundoff
TRACE_SLACK = 1e-12
# chart centers keep the Fourier modes |k| <= P // CENTER_BAND_DIVISOR
CENTER_BAND_DIVISOR = 4
# the chart is re-centered once the section's sup norm passes this fraction of rho
RECENTER_FRACTION = 0.5
# Armijo sufficient-decrease constant and the first trial step
ARMIJO_C = 1e-4
STEP0 = 1.0
# Newton rounds in a row after which the solver stops short of the tolerance
NEWTON_ROUNDS = 5
# chord steps one `newton_refine` call takes at most
NEWTON_STEPS = 30


def _nyquist_complement(weights: np.ndarray, rank: int) -> np.ndarray:
    """Basis E of the Nyquist-free sections, E^T diag(M) E = I for M the weights per coefficient.

    The alternating grid mode has zero spectral derivative at the nodes,
    so the discrete second variation misreports it; eigenproblems and
    Newton systems are posed on its complement.  Scaled by M^(1/2), one
    Householder reflection per normal direction maps its alternating
    vector to node 0; the other reflected axes span the complement.
    """
    alt = (-1.0) ** np.arange(len(weights)) / np.sqrt(weights)
    v = np.kron(alt[:, None], np.eye(rank))
    v[:rank] += np.linalg.norm(alt) * np.eye(rank)
    H = np.eye(len(v), len(v) - rank, -rank) - v @ (2.0 * v[rank:].T / np.sum(v * v, axis=0)[:, None])
    return H / np.sqrt(np.repeat(weights, rank))[:, None]


def _drop_nyquist(coeff: np.ndarray) -> np.ndarray:
    """Remove the alternating grid mode from each normal direction.

    That mode is invisible to spectral differentiation, so functionals
    with undifferentiated terms see a spurious, never-stationary descent
    direction along it; the solver works on its complement.
    """
    P = coeff.shape[0]
    alt = _alternating(P)
    comp = (coeff * alt).sum(axis=0) / P
    return coeff - alt * comp


@lru_cache(maxsize=fourier._TABLES)
def _alternating(P: int) -> np.ndarray:
    """The alternating grid mode (-1)^i as a (P, 1) column, read-only as a broadcast view."""
    return np.broadcast_to(((-1.0) ** np.arange(P))[:, None], (P, 1))


def _value_and_filtered_gradient(F: Functional, c: Chart, u: NormalSection,
                                 trace: SolveTrace | None = None) -> tuple[float, NormalSection]:
    """F's value at u and its chart gradient without the alternating Nyquist mode, counted in trace."""
    if trace is not None:
        trace.evaluations += 1
    f, g = value_and_gradient(F, c, u.coeff)
    return f, NormalSection(_drop_nyquist(g.coeff))


def _mean_free(c: Chart, a: np.ndarray) -> np.ndarray:
    """(P, rank) coefficients a without each frame component's weighted mean."""
    return a - np.sum(a * c.weights[:, None], axis=0) / np.sum(c.weights)


def _inner(c: Chart, a: np.ndarray, b: np.ndarray) -> float:
    """L2(ds) inner product of two (P, rank) coefficient arrays in chart c."""
    return float(np.sum(a * b * c.weights[:, None]))


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 500
    grad_tol: float = 1e-8
    newton: bool = False
    newton_threshold: float = 1e-3  # mean-free gradient norm below which Newton takes over

    def __post_init__(self):
        object.__setattr__(self, "max_iter", _integer(self.max_iter, "max_iter"))
        if not all(v > 0 for v in (self.max_iter, self.grad_tol, self.newton_threshold)):
            raise ValueError("solver options must be positive")


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    f: float
    grad_norm: float
    step: float
    recenter: bool


@dataclass
class SolveTrace:
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False
    evaluations: int = 0  # value_and_gradient calls, Newton's included
    backtracks: int = 0  # evaluated Armijo trials rejected and halved

    @property
    def f_values(self) -> np.ndarray:
        return np.array([r.f for r in self.records])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("iter,f,grad_norm,step,recenter\n")
        for r in self.records:
            buf.write(f"{r.iter},{r.f!r},{r.grad_norm!r},{r.step!r},{int(r.recenter)}\n")
        return buf.getvalue()


def recenter(y: Embedding) -> tuple[Chart, NormalSection]:
    """Chart at y's near-arclength copy with modes |k| <= P // CENTER_BAND_DIVISOR, and y's
    Nyquist-free section there, shorter than rho; any CurveChartsError on the way is a ChartBreakdownError."""
    try:
        z = resample(y, arclength_lift(y))
        per = fourier.truncate(z.periodic_part(), y.P // CENTER_BAND_DIVISOR)
        pts = z.space.retract(per + fourier.nodes(z.P)[:, None] * z.drift)
        c = make_chart(Embedding(z.space, pts, z.winding))
        u = NormalSection(_drop_nyquist(chart_invert(c, y)[0].coeff))
        if u.sup_norm >= c.rho:  # dropping the alternating mode can lift it past rho
            raise OutsideTubeError("Nyquist-free section exceeds the chart radius")
    except CurveChartsError as exc:
        raise ChartBreakdownError(f"cannot build a chart at the curve: {exc}") from exc
    return c, u


def _reduced_hessian(F: Functional, c: Chart):
    """L2(ds)-orthonormal Nyquist complement E and the origin's symmetrized Hessian E^T (H E) on it."""
    E = _nyquist_complement(c.weights, c.rank)
    Qr = E.T @ _hessian(F, c, c.frame, E)
    return E, 0.5 * (Qr + Qr.T)


def newton_refine(F: Functional, c: Chart, u: NormalSection, opts: SolveOptions | None = None,
                  trace: SolveTrace | None = None, g: NormalSection | None = None) -> NormalSection:
    """Newton polish of a near-critical section.

    Solves the Newton system with the Hessian taken at the chart origin,
    through the eigendecomposition of `_reduced_hessian`, the Hessian on
    the Nyquist complement: components on the isometry-orbit kernel
    (relative magnitude below 1e-8) are dropped, all others inverted
    exactly.  Indefinite Hessians are handled, so saddle critical points
    can be refined as well as minima.  A section that already meets the
    tolerance is returned as it is, without a Hessian.

    The step needs every eigenvector, so the decomposition is LAPACK's
    divide and conquer (`driver="evd"`, Gu & Eisenstat 1995): it is
    several times faster than scipy's default MRRR for all eigenvectors,
    and at least as accurate (Demmel, Marques, Parlett & Vomel 2008).  The step V diag(1/lambda) V^T does not
    depend on the basis chosen inside a repeated eigenspace, so the
    driver moves the result by roundoff only.  One decomposition serves
    all chord steps.

    It returns at a section that meets the tolerance, at the first chord
    step past RECENTER_FRACTION * rho, where `minimize` re-centers, or
    after NEWTON_STEPS chord steps; callers check the gradient (`minimize`
    does, through its next trace record).  A given trace counts the
    evaluations.  A caller that holds u's filtered gradient passes it as
    g, which saves the first evaluation.
    """
    opts = opts or SolveOptions()
    P, rank = c.P, c.rank
    current, lam = u, None
    for step in range(NEWTON_STEPS):
        if step or g is None:
            _, g = _value_and_filtered_gradient(F, c, current, trace)
        if grad_norm(c, g) <= opts.grad_tol:
            return current
        if lam is None:
            E, Qr = _reduced_hessian(F, c)
            try:
                lam, V = scipy.linalg.eigh(Qr, driver="evd")
            except scipy.linalg.LinAlgError as exc:
                raise SingularSystemError("Hessian eigendecomposition failed") from exc
            scale = float(np.max(np.abs(lam)))
            live = np.abs(lam) > 1e-8 * max(scale, 1e-300)
            if not np.any(live):
                raise SingularSystemError("Hessian vanishes beyond the kernel tolerance")
        comp = V.T @ (E.T @ (g.coeff * c.weights[:, None]).ravel())
        a = np.zeros_like(comp)
        a[live] = -comp[live] / lam[live]
        delta = E @ (V @ a)
        if not np.all(np.isfinite(delta)):
            raise SingularSystemError("Newton step is not finite")
        # trust cap: near-kernel modes at a not-yet-critical center can
        # request arbitrarily large steps
        cap = 0.25 * c.rho
        dsup = float(np.max(np.abs(delta)))
        if dsup > cap:
            delta = delta * (cap / dsup)
        current = NormalSection(current.coeff + delta.reshape(P, rank))
        if current.sup_norm > RECENTER_FRACTION * c.rho:
            return current
    return current


def minimize(F: Functional, x0: Embedding, opts: SolveOptions | None = None
             ) -> tuple[Chart, NormalSection, SolveTrace]:
    """Descend F from x0 in quotient charts until the gradient norm meets grad_tol.

    Returns the final chart, the final section, and the iteration trace;
    trace.converged reports whether the tolerance was met within
    max_iter.  The tolerance applies to the L2(ds) gradient norm whatever
    the descent metric.  A Newton round that ends past the re-centering
    band moves the curve, as an accepted Armijo step does.  A chart that
    cannot be built, the first one or a re-centering, raises
    ChartBreakdownError; raised while iterating, it carries the trace so far.
    """
    opts = opts or SolveOptions()
    if not is_embedding(x0):
        raise NotEmbeddingError("starting curve is not an embedding")
    c, u = recenter(x0)
    trace = SolveTrace()
    try:
        return _descend(F, c, u, opts, trace)
    except CurveChartsError as exc:
        exc.trace = trace
        raise


def _descend(F: Functional, c: Chart, u: NormalSection, opts: SolveOptions,
             trace: SolveTrace) -> tuple[Chart, NormalSection, SolveTrace]:
    """The iteration loop of `minimize`, recording into trace; one value_and_gradient per trial."""
    # order of the descent metric H^s; the module docstring says why
    s = 0 if F.coefficient("bend") != 0.0 else 1

    def metric(c: Chart, v: np.ndarray) -> np.ndarray:
        # K_s v in the arclength of c's center; mean-free in Newton mode
        d = fourier.sobolev_inverse(v, float(np.sum(c.weights)), s) if s else v
        return _mean_free(c, d) if opts.newton else d

    last_step = 0.0
    moved = False  # the last iteration ended on a fresh chart
    prev_u = prev_g = None
    newton_gate = max(opts.newton_threshold, 10.0 * opts.grad_tol)
    rounds = 0
    f, g = _value_and_filtered_gradient(F, c, u, trace)

    for it in range(opts.max_iter + 1):
        gn = grad_norm(c, g)
        trace.records.append(TraceRecord(it, f, gn, last_step, moved))
        if gn <= opts.grad_tol:
            trace.converged = True
            return c, u, trace
        if it == opts.max_iter or rounds == NEWTON_ROUNDS:
            break
        if opts.newton and grad_norm(c, NormalSection(_mean_free(c, g.coeff))) <= newton_gate:
            # a Newton round refines on a chart re-centered at the curve
            # and re-centers at the result, so the next record tells
            # whether the curve is critical at a fresh chart's origin
            if not moved:
                c, u = recenter(chart_apply(c, u))
            # a fresh tail chart's gradient is the one the tail computed
            u = newton_refine(F, c, u, opts, trace, g if moved else None)
            last_step, moved = 0.0, True
            # only the rounds that stop short of the band count toward NEWTON_ROUNDS
            rounds = 0 if u.sup_norm > RECENTER_FRACTION * c.rho else rounds + 1
        else:
            # Armijo backtracking along d = K_s g, the gradient in the H^s
            # metric of the center's arclength; the predicted decrease is
            # <g, d>_w.  The trial step is the Barzilai-Borwein secant
            # estimate in the same metric, <du, dg>_w / <dg, K_s dg>_w, which
            # copes with the k^2 stiffness of length-type Hessians that s = 0
            # leaves in place
            d = metric(c, g.coeff)
            slope = _inner(c, g.coeff, d)
            step = STEP0
            if prev_u is not None:
                du = u.coeff - prev_u
                dg = g.coeff - prev_g
                denom = _inner(c, dg, metric(c, dg))
                if denom > 0.0:
                    step = float(np.clip(abs(_inner(c, du, dg)) / denom, 1e-8, 10.0))
            accepted = None
            # roundoff allowance: near the minimum the predicted decrease
            # drops below the precision of f itself
            slack = 1e-14 * max(1.0, abs(f))
            while step >= 1e-12:
                cand = NormalSection(u.coeff - step * d)
                if (sup := cand.sup_norm) < c.rho:
                    f_cand, g_cand = _value_and_filtered_gradient(F, c, cand, trace)
                    if f_cand <= f - ARMIJO_C * step * slope + slack:
                        accepted = cand
                        break
                    trace.backtracks += 1
                step *= 0.5
            if accepted is None:
                raise LineSearchFailedError("no Armijo step above the minimum step length")
            prev_u, prev_g = u.coeff, g.coeff
            u, f, g = accepted, f_cand, g_cand
            last_step, rounds = step, 0
            moved = sup > RECENTER_FRACTION * c.rho
        # a moved curve gets a fresh chart, which restarts the secant history
        if moved:
            c, u = recenter(chart_apply(c, u))
            prev_u = prev_g = None
            f, g = _value_and_filtered_gradient(F, c, u, trace)

    return c, u, trace


def spectrum(F: Functional, c: Chart, k: int) -> np.ndarray:
    """k smallest eigenvalues of the chart second variation on the Nyquist complement E.

    k = 0 gives an empty array.  A negative k, or one above the P * rank - rank
    dimensions of E, raises ValueError.
    """
    k = _integer(k, "k")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    available = c.P * c.rank - c.rank
    if k > available:
        raise ValueError(f"k must be at most {available} (P * rank - rank for this chart), got {k}")
    if k == 0:
        return np.empty(0)
    _, Qr = _reduced_hessian(F, c)
    vals = scipy.linalg.eigh(Qr, subset_by_index=[0, k - 1], eigvals_only=True)
    return np.asarray(vals)
