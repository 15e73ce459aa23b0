"""Critical-point search in quotient charts.

Gradient descent with Armijo backtracking on the L2(ds) gradient,
automatic chart re-centering once the section grows past a fraction of
the validity radius, optional Newton refinement with kernel-regularized
Levenberg shift, and spectrum reporting of the second variation.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import fourier
from .charts import Chart, NormalSection, chart_apply, chart_invert, make_chart
from .curve import Embedding, arclength_lift, is_embedding, quadrature_weights, resample
from .errors import (
    ChartBreakdownError,
    LineSearchFailedError,
    NotEmbeddingError,
    OutsideDomainError,
    SingularSystemError,
)
from .functionals import Functional, evaluate, grad_norm, gradient_in_chart, hessian_in_chart

# slack for the monotone-trace invariant: re-centering re-represents the
# curve with a truncated center, which may move f by roundoff
TRACE_SLACK = 1e-12


def _nyquist_complement(P: int, rank: int) -> np.ndarray:
    """Orthonormal basis of section coefficients with zero Nyquist mode.

    The alternating grid mode has zero spectral derivative at the nodes,
    so the discrete second variation misreports it; eigenproblems and
    Newton systems are posed on its complement.
    """
    nyq = np.zeros((rank, P * rank))
    alt = ((-1.0) ** np.arange(P)) / np.sqrt(P)
    for a in range(rank):
        nyq[a, a::rank] = alt
    return scipy.linalg.null_space(nyq)


def _drop_nyquist(coeff: np.ndarray) -> np.ndarray:
    """Remove the alternating grid mode from each normal direction.

    That mode is invisible to spectral differentiation, so functionals
    with undifferentiated terms see a spurious, never-stationary descent
    direction along it; the solver works on its complement.
    """
    P = coeff.shape[0]
    alt = (-1.0) ** np.arange(P)
    comp = (coeff * alt[:, None]).sum(axis=0) / P
    return coeff - alt[:, None] * comp


def _filtered_gradient(F: Functional, c: Chart, u: NormalSection) -> NormalSection:
    g = gradient_in_chart(F, c, u)
    return NormalSection(_drop_nyquist(g.coeff))


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 500
    grad_tol: float = 1e-8
    recenter_fraction: float = 0.5
    armijo_c: float = 1e-4
    step0: float = 1.0
    newton: bool = False
    newton_threshold: float = 1e-3  # gradient norm below which Newton takes over
    trunc_freq: int | None = None  # defaults to P // 4

    def __post_init__(self):
        if not (0.0 < self.recenter_fraction < 1.0):
            raise ValueError("recenter_fraction must lie in (0, 1)")
        if min(self.max_iter, self.grad_tol, self.armijo_c, self.step0,
               self.newton_threshold) <= 0:
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

    def append(self, rec: TraceRecord):
        self.records.append(rec)

    @property
    def f_values(self) -> np.ndarray:
        return np.array([r.f for r in self.records])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("iter,f,grad_norm,step,recenter\n")
        for r in self.records:
            buf.write(f"{r.iter},{r.f!r},{r.grad_norm!r},{r.step!r},{int(r.recenter)}\n")
        return buf.getvalue()


def smooth_center(x: Embedding, trunc_freq: int) -> Embedding:
    """Near-arclength, Fourier-truncated copy of x, suitable as a chart center."""
    z = resample(x, arclength_lift(x))
    per = fourier.truncate(z.periodic_part(), trunc_freq)
    pts = z.space.retract(per + z.grid.nodes[:, None] * z.drift)
    return Embedding(z.space, pts, z.winding)


def recenter(c: Chart, u: NormalSection, trunc_freq: int | None = None) -> Chart:
    """New chart centered at the smoothed curve currently represented by u."""
    y = chart_apply(c, u)
    kmax = trunc_freq if trunc_freq is not None else c.P // 4
    center = smooth_center(y, kmax)
    if not is_embedding(center):
        raise ChartBreakdownError("re-centered curve is not an embedding")
    return make_chart(center)


def _recenter_pair(c: Chart, u: NormalSection, trunc_freq: int | None):
    y = chart_apply(c, u)
    c_new = recenter(c, u, trunc_freq)
    u_new, _ = chart_invert(c_new, y)
    return c_new, NormalSection(_drop_nyquist(u_new.coeff))


def newton_refine(F: Functional, c: Chart, u: NormalSection,
                  opts: SolveOptions | None = None) -> NormalSection:
    """Newton polish of a near-critical section.

    Solves the Newton system with the Hessian taken at the chart origin,
    through its generalized eigendecomposition: components on the
    isometry-orbit kernel (relative magnitude below 1e-8) are dropped,
    all others inverted exactly.  Indefinite Hessians are handled, so
    saddle critical points can be refined as well as minima.
    """
    if opts is None:
        opts = SolveOptions()
    P, rank = c.P, c.rank
    hp = hessian_in_chart(F, c)
    E = _nyquist_complement(P, rank)
    Qr = E.T @ hp.Q @ E
    Mr = E.T @ (hp.mass[:, None] * E)
    try:
        lam, V = scipy.linalg.eigh(Qr, Mr)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError("Hessian eigendecomposition failed") from exc
    scale = float(np.max(np.abs(lam)))
    live = np.abs(lam) > 1e-8 * max(scale, 1e-300)
    if not np.any(live):
        raise SingularSystemError("Hessian vanishes beyond the kernel tolerance")
    current = u
    for _ in range(30):
        g = _filtered_gradient(F, c, current)
        if grad_norm(c, g) <= opts.grad_tol:
            return current
        comp = V.T @ (E.T @ (hp.mass * g.coeff.ravel()))
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
        if current.sup_norm >= c.rho:
            raise OutsideDomainError("Newton step left the chart domain")
    return current


def minimize(F: Functional, x0: Embedding, opts: SolveOptions | None = None
             ) -> tuple[Chart, NormalSection, SolveTrace]:
    """Descend F from x0 in quotient charts until the gradient norm meets grad_tol.

    Returns the final chart, the final section, and the iteration trace;
    trace.converged reports whether the tolerance was met within
    max_iter.
    """
    if opts is None:
        opts = SolveOptions()
    if not is_embedding(x0):
        raise NotEmbeddingError("starting curve is not an embedding")
    kmax = opts.trunc_freq if opts.trunc_freq is not None else x0.P // 4
    c = make_chart(smooth_center(x0, kmax))
    u, _ = chart_invert(c, x0)
    u = NormalSection(_drop_nyquist(u.coeff))
    w = quadrature_weights(c.center)
    trace = SolveTrace()
    last_step = 0.0
    did_recenter = False
    prev_u = prev_g = None
    newton_gate = max(opts.newton_threshold, 10.0 * opts.grad_tol)

    for it in range(opts.max_iter + 1):
        f = evaluate(F, chart_apply(c, u))
        g = _filtered_gradient(F, c, u)
        gn = grad_norm(c, g)
        trace.append(TraceRecord(it, f, gn, last_step, did_recenter))
        did_recenter = False
        if gn <= opts.grad_tol:
            trace.converged = True
            return c, u, trace
        if it == opts.max_iter:
            break
        if opts.newton and gn <= newton_gate:
            # refresh the chart between refinement rounds so the orbit
            # kernel of the frozen Hessian tightens as the center
            # approaches the critical shape
            failed = False
            for round_ in range(5):
                c, u = _recenter_pair(c, u, kmax)
                w = quadrature_weights(c.center)
                prev_u = prev_g = None
                try:
                    u = newton_refine(F, c, u, opts)
                except OutsideDomainError:
                    # quadratic model not trusted yet; resume descent
                    # and retry Newton once the gradient is 10x smaller
                    newton_gate = gn / 10.0
                    did_recenter = True
                    failed = True
                    break
                g = _filtered_gradient(F, c, u)
                gn = grad_norm(c, g)
                f = evaluate(F, chart_apply(c, u))
                trace.append(TraceRecord(it + 1 + round_, f, gn, 0.0, True))
                if gn <= opts.grad_tol:
                    break
            if failed:
                continue
            trace.converged = gn <= opts.grad_tol
            return c, u, trace

        # Armijo backtracking along the negative L2 gradient; the trial
        # step comes from the Barzilai-Borwein secant estimate, which
        # copes with the k^2 stiffness of length-type Hessians
        step = opts.step0
        if prev_u is not None:
            du = (u.coeff - prev_u).ravel()
            dg = (g.coeff - prev_g).ravel()
            ww = np.repeat(w, u.coeff.shape[1])
            denom = float(np.sum(dg * dg * ww))
            if denom > 0.0:
                step = float(np.clip(abs(np.sum(du * dg * ww)) / denom, 1e-8, 10.0))
        accepted = None
        # roundoff allowance: near the minimum the predicted decrease
        # drops below the precision of f itself
        slack = 1e-14 * max(1.0, abs(f))
        while step >= 1e-12:
            cand = NormalSection(u.coeff - step * g.coeff)
            if cand.sup_norm < c.rho:
                f_cand = evaluate(F, chart_apply(c, cand))
                if f_cand <= f - opts.armijo_c * step * gn**2 + slack:
                    accepted = cand
                    break
            step *= 0.5
        if accepted is None:
            raise LineSearchFailedError("no Armijo step above the minimum step length")
        prev_u, prev_g = u.coeff, g.coeff
        u = accepted
        last_step = step
        if u.sup_norm > opts.recenter_fraction * c.rho:
            c, u = _recenter_pair(c, u, kmax)
            w = quadrature_weights(c.center)
            prev_u = prev_g = None
            did_recenter = True

    return c, u, trace


def spectrum(F: Functional, c: Chart, k: int) -> np.ndarray:
    """k smallest generalized eigenvalues of the chart second variation."""
    if k <= 0:
        return np.empty(0)
    hp = hessian_in_chart(F, c)
    E = _nyquist_complement(c.P, c.rank)
    Qr = E.T @ hp.Q @ E
    Mr = E.T @ (hp.mass[:, None] * E)
    k = min(k, Qr.shape[0])
    vals = scipy.linalg.eigh(Qr, Mr, subset_by_index=[0, k - 1], eigvals_only=True)
    return np.asarray(vals)
