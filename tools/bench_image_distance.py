"""Time `image_distance` on same-image curve pairs across grid sizes.

    python tools/bench_image_distance.py OUT.json

Imports `src/curvecharts` of the checkout that holds this script.  For
each backend (the plane, the flat torus, S^2) and P in {64, 128, 256,
512, 1024} it builds a curve x and the resampling y = x∘phi of x by a
seeded diffeomorphism, the pair a `roundtrip` check compares.  It
records the minimum wall time of 3 calls of `image_distance(x, y)`, and
from one further, instrumented call:

- `illinois_steps`: the closest-point refinement's `_illinois` steps, and
  `illinois_points`, the roots they evaluate summed over those steps;
- `fallback_probes`: probe rows that reach a dense `pairwise_dist` scan
  (0 when every nearest sample comes from the cell list).

The JSON also holds the machine, Python, numpy and scipy versions, and
each backend's time ratio between P=1024 and P=256.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import numpy as np
import scipy

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import curvecharts as cc  # noqa: E402
from curvecharts import curve, shapes  # noqa: E402

GRIDS = (64, 128, 256, 512, 1024)
REPEATS = 3


def _tilted_circle(P: int) -> cc.Embedding:
    th = cc.fourier.nodes(P)
    pts = np.stack([np.cos(th), np.sin(th), 0.1 * np.sin(3 * th)], axis=1)
    return cc.Embedding(cc.Sphere2(), pts / np.linalg.norm(pts, axis=1, keepdims=True))


BACKENDS = {
    "plane": lambda P: shapes.perturbed_circle(P, amplitude=0.06, seed=0),
    "torus": lambda P: shapes.torus_geodesic(P, (1, 1), offset=(0.3, 0.7), wiggle=0.05, seed=1),
    "sphere": _tilted_circle,
}


def _counted(x: cc.Embedding, y: cc.Embedding) -> dict:
    """Run image_distance once with its root steps and dense scans counted."""
    counts = {"illinois_steps": 0, "illinois_points": 0, "fallback_probes": 0}
    illinois = curve._illinois
    dense = {cls: cls.__dict__["pairwise_dist"] for cls in (cc.AmbientSpace, cc.Sphere2)}

    def counted_illinois(fun, *args):
        def step(idx, t):
            counts["illinois_steps"] += 1
            counts["illinois_points"] += len(t)
            return fun(idx, t)
        return illinois(step, *args)

    def counted_dense(cls):
        def scan(self, p, q):
            counts["fallback_probes"] += len(p)
            return dense[cls](self, p, q)
        return scan

    curve._illinois = counted_illinois
    for cls in dense:
        setattr(cls, "pairwise_dist", counted_dense(cls))
    try:
        counts["image_distance"] = cc.image_distance(x, y)
    finally:
        curve._illinois = illinois
        for cls, fn in dense.items():
            setattr(cls, "pairwise_dist", fn)
    return counts


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tools/bench_image_distance.py OUT.json", file=sys.stderr)
        return 2
    rows = []
    for name, make in BACKENDS.items():
        for P in GRIDS:
            x = make(P)
            y = cc.resample(x, cc.make_diffeo(3, 0.25, P))
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                cc.image_distance(x, y)
                times.append(time.perf_counter() - t0)
            rows.append({"backend": name, "P": P, "probes": 2 * curve.PROBES_PER_NODE * P,
                         "time_s": min(times), **_counted(x, y)})
            print(f"{name:6s} P={P:5d} {min(times):.4f} s", file=sys.stderr)
    time_at = {(r["backend"], r["P"]): r["time_s"] for r in rows}
    record = {
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count(),
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repeats": REPEATS,
        "timing": "minimum wall time of the repeats",
        "image_distance": rows,
        "ratio_P1024_over_P256": {name: time_at[name, 1024] / time_at[name, 256]
                                  for name in BACKENDS},
    }
    with open(sys.argv[1], "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
