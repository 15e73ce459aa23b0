"""Spectral helpers on the uniform periodic grid theta_i = 2*pi*i/P.

All routines act along axis 0 of real-valued sample arrays; `diff` takes
complex ones too, for complex-step derivatives.  The Nyquist mode is
handled with the cosine convention, so interpolation and differentiation
agree at the grid nodes.

The interpolant is never summed as a dense matrix of complex
exponentials.  Off the grid it is evaluated in two steps (Boyd,
*Chebyshev and Fourier Spectral Methods*, 2001, ch. 2 and 11): one
zero-padded inverse FFT puts it and its derivatives on a finer grid
(`upsample`), and a Taylor sum about a node of that grid (`taylor`,
`taylor_nearest`) gives each value between nodes.

The multipliers of `diff` and the per-order table of `upsample` depend
on the grid size and the order only; each is built once per key, kept
in a bounded cache and returned read-only, so no call can change what a
later one reads.  `taylor` gathers all orders of each point's rows in
one `np.take`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# distinct (grid size, order) keys each table cache keeps
_TABLES = 64


def nodes(P: int) -> np.ndarray:
    """Grid nodes theta_i = 2*pi*i/P."""
    return 2.0 * np.pi * np.arange(P) / P


def diff(values: np.ndarray, order: int | tuple[int, ...] = 1):
    """Spectral derivative of periodic samples (d/dtheta)^order.

    A tuple of orders returns the tuple of those derivatives, from one
    forward and one inverse FFT.  Complex samples differentiate their real
    and imaginary parts, viewed as interleaved floats, in the same transforms.
    """
    orders = order if isinstance(order, tuple) else (order,)
    cplx = np.iscomplexobj(values)
    v = (np.ascontiguousarray(values).view(float).reshape(values.shape + (2,)) if cplx
         else np.asarray(values, dtype=float))
    mult = _diff_multiplier(v.shape[0], orders).reshape((len(orders), -1) + (1,) * (v.ndim - 1))
    d = np.fft.irfft(mult * np.fft.rfft(v, axis=0), n=v.shape[0], axis=1)
    out = [x.view(complex)[..., 0] for x in d] if cplx else d
    return tuple(out) if isinstance(order, tuple) else out[0]


def adjoint_diff(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """-D ga + D^2 gb for D = `diff` and ga, gb of one shape: the adjoint of x -> (D x, D^2 x)
    under the plain sum over the nodes, from one forward and one inverse FFT of real samples."""
    if np.iscomplexobj(ga) or np.iscomplexobj(gb):
        return adjoint_diff(ga.real, gb.real) + 1j * adjoint_diff(ga.imag, gb.imag)
    mult = _diff_multiplier(len(ga), (1, 2)).reshape((2, -1) + (1,) * (ga.ndim - 1))
    c = mult * np.fft.rfft(np.stack((ga, gb)), axis=1)
    return np.fft.irfft(c[1] - c[0], n=len(ga), axis=0)


@lru_cache(maxsize=_TABLES)
def _diff_multiplier(P: int, n: int | tuple[int, ...]) -> np.ndarray:
    """(ik)^n over the rfft modes k of P samples, read-only; a tuple of orders stacks one row each."""
    if isinstance(n, tuple):
        mult = np.stack([_diff_multiplier(P, m) for m in n])
    else:
        mult = (1j * np.arange(P // 2 + 1, dtype=float)) ** n
        if n % 2 == 1 and P % 2 == 0:
            mult[-1] = 0.0  # cosine convention: odd derivatives of the Nyquist mode vanish at nodes
    mult.flags.writeable = False
    return mult


def truncate(values: np.ndarray, kmax: int) -> np.ndarray:
    """Zero all Fourier modes with |k| > kmax."""
    v = np.asarray(values, dtype=float)
    P = v.shape[0]
    c = np.fft.rfft(v, axis=0)
    c[kmax + 1:] = 0.0
    return np.fft.irfft(c, n=P, axis=0)


def sobolev_inverse(values: np.ndarray, length: float, s: int) -> np.ndarray:
    """Apply (1 - d^2/ds^2)^(-s) to samples on a constant-speed grid.

    The grid is taken as arclength-uniform over a closed curve of the
    given length, so Fourier mode k is multiplied by
    (1 + (2*pi*k/length)^2)^(-s).  s = 0 returns the samples unchanged.
    """
    v = np.asarray(values, dtype=float)
    if s == 0:
        return v
    P = v.shape[0]
    k = np.arange(P // 2 + 1, dtype=float)
    mult = (1.0 + (2.0 * np.pi * k / length) ** 2) ** (-s)
    shape = (-1,) + (1,) * (v.ndim - 1)
    return np.fft.irfft(np.fft.rfft(v, axis=0) * mult.reshape(shape), n=P, axis=0)


def coeffs(values: np.ndarray) -> np.ndarray:
    """rfft coefficients, the input of `upsample`."""
    return np.fft.rfft(np.asarray(values, dtype=float), axis=0)


def upsample(c: np.ndarray, P: int, M: int, orders: int) -> np.ndarray:
    """The trigonometric interpolant and its derivatives on a finer grid.

    c are rfft coefficients of P real samples.  Returns the derivatives of
    orders 0 .. orders-1 at the M > P nodes `nodes(M)`, shape
    (orders, M) + c.shape[1:], from one zero-padded inverse FFT.  The
    Nyquist mode keeps half the weight of the others (the cosine
    convention).  The padded spectrum is c times the cached table of
    `_upsample_table`, one broadcast multiply for all orders.
    """
    if M <= P:
        raise ValueError("upsample needs a finer grid")
    table = _upsample_table(P, orders)
    X = np.zeros((orders, M // 2 + 1) + c.shape[1:], dtype=complex)
    X[:, :table.shape[1]] = table.reshape(table.shape + (1,) * (c.ndim - 1)) * c
    return np.fft.irfft(X, n=M, axis=1, norm="forward")


@lru_cache(maxsize=_TABLES)
def _upsample_table(P: int, orders: int) -> np.ndarray:
    """Row n = i^n k^n w / P over the rfft modes k of P samples, n < orders, read-only."""
    K = P // 2 + 1
    k = np.arange(K, dtype=float)
    w = np.ones(K)
    if P % 2 == 0:
        w[-1] = 0.5  # irfft doubles every mode below M/2, the Nyquist mode of P included
    table = np.empty((orders, K), dtype=complex)
    for n in range(orders):
        table[n] = (1j ** n) * k**n * w / P
    table.flags.writeable = False
    return table


def taylor(grids: np.ndarray, j: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Taylor sum over n of grids[n, j] * delta**n / n!, by Horner's rule.

    grids holds derivatives of orders 0 .. N at grid nodes (as from
    `upsample`); j and delta, of one shape that leads the result's, hold
    each point's node index and its offset from that node.  One `np.take`
    gathers every order of each point's rows before the sum.
    """
    delta = np.asarray(delta, dtype=float)
    scale = delta.reshape(delta.shape + (1,) * (grids.ndim - 2))
    rows = np.take(grids, j, axis=1)
    acc = rows[-1]
    for n in range(grids.shape[0] - 1, 0, -1):
        acc = rows[n - 1] + acc * (scale / n)
    return acc


def taylor_nearest(grids: np.ndarray, t) -> np.ndarray:
    """`taylor` about the node of `nodes(M)` nearest each t, M = grids.shape[1].

    t may be any real array; nodes repeat with period 2 pi.  The offsets
    are at most half a grid spacing.
    """
    t = np.asarray(t, dtype=float)
    M = grids.shape[1]
    n = np.rint(t * (M / (2.0 * np.pi)))
    return taylor(grids, n.astype(np.intp) % M, t - 2.0 * np.pi * n / M)


def antiderivative_coeffs(values: np.ndarray) -> tuple[float, np.ndarray]:
    """Split the antiderivative of periodic samples into mean slope + periodic part.

    Returns (mean, c) where the antiderivative is  mean * theta + q(theta)
    with q periodic, q given by rfft coefficients c (q has zero mean).
    """
    v = np.asarray(values, dtype=float)
    P = v.shape[0]
    c = np.fft.rfft(v, axis=0)
    mean = c[0].real / P
    k = np.arange(P // 2 + 1, dtype=float)
    out = np.zeros_like(c)
    out[1:] = c[1:] / (1j * k[1:])
    if P % 2 == 0:
        out[-1] = 0.0  # Nyquist: sin term integrates to zero-mean part already dropped
    return mean, out
