"""Built-in curve generators used by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from . import fourier
from .ambient import Euclidean, FlatTorus, Sphere2
from .curve import Embedding


def circle(P: int = 64, radius: float = 1.0, center=(0.0, 0.0)) -> Embedding:
    """Counterclockwise circle in the euclidean plane."""
    theta = fourier.nodes(P)
    pts = np.stack([center[0] + radius * np.cos(theta),
                    center[1] + radius * np.sin(theta)], axis=1)
    return Embedding(Euclidean(2), pts)


def ellipse(P: int = 128, a: float = 2.0, b: float = 1.0) -> Embedding:
    theta = fourier.nodes(P)
    pts = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
    return Embedding(Euclidean(2), pts)


def lemniscate(P: int = 128) -> Embedding:
    """Gerono figure-eight; self-intersects at the origin."""
    theta = fourier.nodes(P)
    pts = np.stack([np.sin(theta), np.sin(theta) * np.cos(theta)], axis=1)
    return Embedding(Euclidean(2), pts)


def torus_geodesic(P: int = 64, winding=(1, 0), offset=0.0,
                   wiggle: float = 0.0, seed: int = 0) -> Embedding:
    """Straight closed geodesic on the unit flat torus of the winding's dimension, optionally perturbed.

    offset, a scalar or one value per coordinate, shifts the lift.  A
    nonzero wiggle (2-d windings only) adds a deterministic band-limited
    transverse displacement of that amplitude.  A winding entry that is not
    an integer raises ValueError, as in `FlatTorus.check_winding`.
    """
    space = FlatTorus(np.size(winding))
    w = space.check_winding(winding)
    if not np.any(w):
        raise ValueError("winding must be nonzero for a closed geodesic")
    theta = fourier.nodes(P)
    lift = np.asarray(offset, float) + theta[:, None] * (w / (2.0 * np.pi))
    if wiggle != 0.0:
        rng = np.random.default_rng(seed)
        normal = np.array([-w[1], w[0]], dtype=float) if w.size == 2 else None
        if normal is None:
            raise ValueError("wiggle supported for 2-d windings only")
        normal /= np.linalg.norm(normal)
        bump = np.zeros(P)
        ks = np.arange(1, 4)
        amps = rng.uniform(0.3, 1.0, size=3) / ks
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        for k, amp, ph in zip(ks, amps, phases):
            bump += amp * np.sin(k * theta + ph)
        bump *= wiggle / np.max(np.abs(bump))
        lift = lift + bump[:, None] * normal
    return Embedding(space, lift, w)


def great_circle(P: int = 128) -> Embedding:
    """Equatorial great circle on the unit sphere."""
    theta = fourier.nodes(P)
    pts = np.stack([np.cos(theta), np.sin(theta), np.zeros(P)], axis=1)
    return Embedding(Sphere2(), pts)


def perturbed_circle(P: int = 128, amplitude: float = 0.1, seed: int = 0,
                     radius: float = 1.0, kmax: int = 6) -> Embedding:
    """Circle plus a deterministic band-limited normal perturbation."""
    theta = fourier.nodes(P)
    rng = np.random.default_rng(seed)
    bump = np.zeros(P)
    for k in range(2, kmax + 1):
        a, ph = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)
        bump += a * np.cos(k * theta + ph) / k
    if np.max(np.abs(bump)) > 0:
        bump *= amplitude / np.max(np.abs(bump))
    r = radius * (1.0 + bump)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return Embedding(Euclidean(2), pts)


def random_band_limited(P: int = 256, seed: int = 0, amplitude: float = 0.15,
                        kmax: int = 6) -> Embedding:
    """Random smooth embedded planar curve: unit circle plus x/y Fourier noise."""
    theta = fourier.nodes(P)
    rng = np.random.default_rng(seed)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for axis in range(2):
        for k in range(0, kmax + 1):
            a, b = rng.uniform(-1.0, 1.0, size=2)
            pts[:, axis] += amplitude * (a * np.cos(k * theta) + b * np.sin(k * theta)) / max(k, 1)
    return Embedding(Euclidean(2), pts)
