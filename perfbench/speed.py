"""Machine-speed probe for normalizing wall times.

The reference machine (a 2-vCPU VM) switches between two speed states
about 1.8x apart, each lasting from seconds to minutes, for reasons
outside the VM.  Wall times of identical work therefore drift by up to
40% between runs.  `probe` times a fixed piece of numpy and Python work
that does not touch curvecharts; the worker runs it before and after
every operation and divides the operation's wall time by the mean of
the two probes, in units of REF_PROBE_S.  The reported times are the
wall times the operation would have taken with the probe at
REF_PROBE_S: for the same program they stay put when the machine
changes state, and a slower program still reads slower.
"""

import time

import numpy as np

# the probe time that defines reference speed; on the reference machine the
# probe reads 24-47 ms depending on its speed state
REF_PROBE_S = 0.040

_K = 1j * np.arange(65)[:, None]
_X = np.random.default_rng(0).normal(size=(128, 3))


def probe() -> float:
    """Seconds taken by a fixed mix of small FFTs and interpreted arithmetic."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(1000):
        d = np.fft.irfft(np.fft.rfft(_X, axis=0) * _K, n=128, axis=0)
        acc += float(np.sum(d * _X)) + sum(j * 0.5 for j in range(100))
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Slowdown of the machine around one operation, relative to the reference."""
    return 0.5 * (before + after) / REF_PROBE_S
