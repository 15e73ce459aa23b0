"""Curve file I/O.

Curve file (JSON):
  {"version": 1,
   "ambient": {"kind": "euclidean"|"flat_torus"|"sphere2", "dim": n},
   "grid": P,
   "points": [[...], ...],          # torus: reduced to [0,1)^n
   "winding": [w1, ...]}            # torus only
"""

from __future__ import annotations

import json

import numpy as np

from .ambient import AmbientSpace, _integer
from .curve import Embedding

FORMAT_VERSION = 1


def curve_to_dict(x: Embedding) -> dict:
    out = {
        "version": FORMAT_VERSION,
        "ambient": x.space.to_spec(),
        "grid": x.P,
        "points": x.samples.tolist(),
    }
    if x.winding is not None:
        out["winding"] = x.winding.tolist()
    return out


def curve_from_dict(data: dict) -> Embedding:
    if not isinstance(data, dict):
        raise ValueError("a curve file holds a JSON object")
    version = _integer(data.get("version"), "curve file version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported curve file version {version}")
    space = AmbientSpace.from_spec(data["ambient"])
    pts = np.asarray(data["points"], dtype=float)
    P = _integer(data["grid"], "grid")
    if pts.shape != (P, space.coord_dim):
        raise ValueError("points array does not match grid size and ambient dimension")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    pts = space.check_point(pts)
    winding = space.check_winding(data.get("winding"))
    if winding is not None:
        pts = _unwrap(space, pts, winding)
    return Embedding(space, pts, winding)


def _unwrap(space: AmbientSpace, pts: np.ndarray, winding: np.ndarray) -> np.ndarray:
    """Continuous lift of reduced samples of a winding curve; steps must stay below 1/2."""
    steps = space.log(pts[:-1], pts[1:])
    closing = space.log(pts[-1], pts[0])
    total = np.rint(np.sum(steps, axis=0) + closing).astype(int)
    if not np.array_equal(total, winding):
        raise ValueError(
            f"winding {winding.tolist()} inconsistent with unwrapped samples {total.tolist()}; "
            "curve is under-resolved"
        )
    lift = np.empty_like(pts)
    lift[0] = pts[0]
    lift[1:] = pts[0] + np.cumsum(steps, axis=0)
    return lift


def save_curve(x: Embedding, path: str):
    with open(path, "w") as fh:
        json.dump(curve_to_dict(x), fh)
        fh.write("\n")


def load_curve(path: str) -> Embedding:
    with open(path) as fh:
        return curve_from_dict(json.load(fh))
