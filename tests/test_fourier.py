"""The spectral kernels against the plain expressions they replace, bit for bit.

The fused transforms (several orders of `diff` from one inverse FFT, the
adjoint `adjoint_diff` from one forward and one inverse FFT) are checked
as properties over grids, batch shapes and real or complex samples.

`diff` and `upsample` read cached read-only multiplier tables and `taylor`
gathers each point's rows once; the references below build the
multipliers inline on every call and gather one order at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecharts import curve, fourier

GRIDS = (16, 50, 64, 512)


def _diff_ref(values, order=1):
    """`diff` with its multiplier (ik)^n, the odd Nyquist mode zeroed, built inline."""
    cplx = np.iscomplexobj(values)
    v = (np.ascontiguousarray(values).view(float).reshape(values.shape + (2,)) if cplx
         else np.asarray(values, dtype=float))
    P = v.shape[0]
    c = np.fft.rfft(v, axis=0)
    k = np.arange(P // 2 + 1, dtype=float)
    shape = (-1,) + (1,) * (v.ndim - 1)
    out = []
    for n in order if isinstance(order, tuple) else (order,):
        mult = (1j * k) ** n
        if n % 2 == 1:
            mult[-1] = 0.0
        d = np.fft.irfft(c * mult.reshape(shape), n=P, axis=0)
        out.append(d.view(complex)[..., 0] if cplx else d)
    return tuple(out) if isinstance(order, tuple) else out[0]


def _upsample_ref(c, P, M, orders):
    """`upsample` filling its padded spectrum one order at a time."""
    K = P // 2 + 1
    k = np.arange(K, dtype=float)
    w = np.ones(K)
    if P % 2 == 0:
        w[-1] = 0.5
    shape = (-1,) + (1,) * (c.ndim - 1)
    X = np.zeros((orders, M // 2 + 1) + c.shape[1:], dtype=complex)
    for n in range(orders):
        X[n, :K] = ((1j ** n) * k**n * w / P).reshape(shape) * c
    return np.fft.irfft(X, n=M, axis=1, norm="forward")


def _taylor_ref(grids, j, delta):
    """`taylor` gathering each order's rows by fancy indexing inside the Horner loop."""
    scale = np.asarray(delta, dtype=float).reshape((-1,) + (1,) * (grids.ndim - 2))
    acc = grids[-1, j]
    for n in range(grids.shape[0] - 1, 0, -1):
        acc = grids[n - 1, j] + acc * (scale / n)
    return acc


def _samples(P, d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((P,) if d is None else (P, d))


@pytest.mark.parametrize("d", [None, 2, 3], ids=["1-d", "d2", "d3"])
@pytest.mark.parametrize("P", GRIDS)
def test_diff_equals_the_inline_multiplier(P, d):
    v = _samples(P, d, P)
    for order in (0, 1, 2, 3, 4):
        assert np.array_equal(fourier.diff(v, order), _diff_ref(v, order))
    for got, want in zip(fourier.diff(v, (1, 2)), _diff_ref(v, (1, 2))):
        assert np.array_equal(got, want)
    z = v + 1j * _samples(P, d, P + 1)
    for got, want in zip(fourier.diff(z, (1, 2)), _diff_ref(z, (1, 2))):
        assert np.iscomplexobj(got) and np.array_equal(got, want)


@pytest.mark.parametrize("d", [None, 2, 3], ids=["1-d", "d2", "d3"])
@pytest.mark.parametrize("P", GRIDS + (51,))
def test_upsample_equals_the_per_order_loop(P, d):
    # an odd P has no Nyquist mode, so every mode keeps its full weight
    c = fourier.coeffs(_samples(P, d, P))
    orders = curve._TAYLOR_ORDER + 2
    for M in (2 * P, curve.PROBES_PER_NODE * P):
        assert np.array_equal(fourier.upsample(c, P, M, orders), _upsample_ref(c, P, M, orders))
    assert np.array_equal(fourier.upsample(c, P, 4 * P, 1), _upsample_ref(c, P, 4 * P, 1))


@pytest.mark.parametrize("d", [None, 2, 3], ids=["1-d", "d2", "d3"])
@pytest.mark.parametrize("P", GRIDS)
def test_taylor_equals_the_fancy_index_horner(P, d):
    M = curve.PROBES_PER_NODE * P
    grids = fourier.upsample(fourier.coeffs(_samples(P, d, P)), P, M, curve._TAYLOR_ORDER + 2)
    rng = np.random.default_rng(P + 2)
    j = rng.integers(0, M, M)
    delta = rng.uniform(-np.pi / M, np.pi / M, M)
    assert np.array_equal(fourier.taylor(grids, j, delta), _taylor_ref(grids, j, delta))
    # and through the nearest-node entry, at points on both sides of the period
    t = rng.uniform(-2 * np.pi, 4 * np.pi, 200)
    n = np.rint(t * (M / (2.0 * np.pi)))
    want = _taylor_ref(grids, n.astype(np.intp) % M, t - 2.0 * np.pi * n / M)
    assert np.array_equal(fourier.taylor_nearest(grids, t), want)


@pytest.mark.parametrize("P", [15, 51])
def test_diff_of_the_top_mode_of_an_odd_grid(P):
    # an odd P has no Nyquist mode: its top mode k = (P - 1) / 2 differentiates like any other
    th, k = fourier.nodes(P), P // 2
    d1, d2 = fourier.diff(np.sin(k * th), (1, 2))
    np.testing.assert_allclose(d1, k * np.cos(k * th), rtol=0, atol=1e-12 * k)
    np.testing.assert_allclose(d2, -k * k * np.sin(k * th), rtol=0, atol=1e-12 * k * k)


def test_cached_tables_are_read_only():
    for table in (fourier._diff_multiplier(64, 1), fourier._upsample_table(64, 16)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_changing_a_result_changes_no_later_one():
    v = _samples(64, 2, 0)
    c = fourier.coeffs(v)
    first = fourier.diff(v, (0, 1, 2))
    grids = fourier.upsample(c, 64, 512, 16)
    values = fourier.taylor(grids, np.arange(512), np.full(512, 1e-3))
    for a in first + (grids, values):
        a[...] = 7.0
    for got, want in zip(fourier.diff(v, (0, 1, 2)), _diff_ref(v, (0, 1, 2))):
        assert np.array_equal(got, want)
    want = _upsample_ref(c, 64, 512, 16)
    assert np.array_equal(fourier.upsample(c, 64, 512, 16), want)
    assert np.array_equal(fourier.taylor(want, np.arange(512), np.full(512, 1e-3)),
                          _taylor_ref(want, np.arange(512), np.full(512, 1e-3)))


EPS = np.finfo(float).eps


@st.composite
def batched_samples(draw, count):
    """count sample arrays of one shape (P, *batch), with the alternating mode in;
    real, complex, or complex with a complex-step imaginary part."""
    P = draw(st.sampled_from((16, 24, 64, 128, 256)))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    imag = draw(st.sampled_from((0.0, 1.0, 1e-30)))
    alt = ((-1.0) ** np.arange(P)).reshape((P,) + (1,) * len(batch))
    out = []
    for _ in range(count):
        v = 10.0 ** rng.uniform(-3, 3) * (rng.standard_normal((P,) + batch) + alt)
        out.append(v + 1j * imag * rng.standard_normal(v.shape) if imag else v)
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batched_samples(1), st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_fused_orders_equal_the_per_order_transforms(samples, orders):
    [v] = samples
    got = fourier.diff(v, tuple(orders))
    for n, d in zip(orders, got):
        want = _diff_ref(v, n)
        assert d.dtype == want.dtype and np.array_equal(d, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batched_samples(2))
def test_fused_adjoint_equals_the_two_derivatives(samples):
    ga, gb = samples
    P = ga.shape[0]
    got = fourier.adjoint_diff(ga, gb)
    want = -fourier.diff(ga) + fourier.diff(gb, 2)
    ghat = max(np.max(np.abs(np.fft.fft(g, axis=0))) for g in (ga, gb))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 8 * EPS * (P / 2) ** 2 * ghat


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batched_samples(2))
def test_derivatives_are_skew_and_symmetric_under_the_node_sum(samples):
    # sum <D a, y> = -sum <a, D y> and sum <D^2 a, y> = sum <a, D^2 y>, the
    # alternating mode included: D's odd Nyquist multiplier is zero
    a, y = samples
    P = a.shape[0]
    for n, sign in ((1, -1.0), (2, 1.0)):
        gap = np.sum(fourier.diff(a, n) * y) - sign * np.sum(a * fourier.diff(y, n))
        assert abs(gap) <= 8 * EPS * (P / 2) ** n * a.size * np.max(np.abs(a)) * np.max(np.abs(y))


@pytest.mark.parametrize("M", [16, 8])
def test_upsample_needs_a_finer_grid(M):
    with pytest.raises(ValueError, match="finer grid"):
        fourier.upsample(fourier.coeffs(np.ones(16)), 16, M, 1)
