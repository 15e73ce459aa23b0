"""Time library layers across grid sizes on the plane, the flat torus and S^2.

    python tools/bench_layers.py OUT.json

Imports `src/curvecharts` of the checkout that holds this script, and
the analytic spectra of `perfbench/workloads.py` (read only).  Every
time is the minimum wall time of 3 calls.

`image_distance`: for P in {64, 128, 256, 512, 1024} it builds a curve x
and the resampling y = x∘phi of x by a seeded diffeomorphism, the pair a
`roundtrip` check compares.  It records the time of
`image_distance(x, y)`, and from one further, instrumented call:

- `illinois_steps`: the closest-point refinement's `_illinois` steps, and
  `illinois_points`, the roots they evaluate summed over those steps;
- `fallback_probes`: probe rows that reach a dense `pairwise_dist` scan
  (0 when every nearest sample comes from the cell list).

`second_variation`: for P in {64, 128, 256, 512} it builds a critical
curve with a known Jacobi spectrum (the unit circle under
length - area, a (1, 0) torus geodesic and a great circle under
length) and records the times of `hessian_in_chart` and of
`spectrum` (the Hessian, its reduction and eigh), with

- `columns`: the Hessian's columns, P times the frame rank;
- `gradient_calls`: the batched `_pullback_gradient` calls one
  `hessian_in_chart` makes;
- `eig_error`: the largest distance of the computed eigenvalues from
  the analytic ones.

`chart_setup`: for P in {64, 128, 256, 512, 1024} it records the times
of `separation` and `make_chart` on a perturbed circle, the (1, 1) and
(1, 0) wiggly torus geodesics and a pinched loop on S^2 (separation
0.1, where 0.45 times it binds the chart radius), with

- `chords`: the (pair, translate) chords `separation` evaluates, as
  counted by its admissibility test;
- `dense_s`, `dense_chords`, `dense_separation`: the time, chord count
  and result of the dense reference scan of `tests/test_curve.py`, every
  ordered node pair against all 3^n nearby lattice translates on the
  torus;
- `same_value`: whether both return the same float.

`chart_invert`: for P in {64, 128, 256, 512, 1024} it builds the chart
at each `image_distance` curve x, applies a seeded section of sup norm
0.49 rho and resamples the result by a diffeomorphism of amplitude
0.25, and records the time of `chart_invert` on that curve, with

- `illinois_steps`: the fiber refinement's `_illinois` steps;
- `in_tube_fraction`: the share of the (node, sample) pairs of the
  fiber scan that lie inside the tube, where the fiber value is taken;
- `dense_s`: the time of the reference scan of `tests/test_charts.py`
  (`pairwise_dist`, then a second `log` of each in-tube pair), run over
  the same samples in the same blocks of nodes;
- `same_brackets`: whether both scans pick the same bracket at every
  node.

The JSON also holds the machine, Python, numpy and scipy versions, and
each backend's time ratio between the largest grid and a quarter of it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
                os.path.join(ROOT, "tests")]

import curvecharts as cc  # noqa: E402
import workloads  # noqa: E402
from curvecharts import curve, functionals, shapes  # noqa: E402
from curvecharts import charts  # noqa: E402
from test_charts import dense_fiber_scan, random_section  # noqa: E402
from test_curve import dense_separation  # noqa: E402

GRIDS = (64, 128, 256, 512, 1024)
HESSIAN_GRIDS = (64, 128, 256, 512)
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

def _sphere_dumbbell(P: int) -> cc.Embedding:
    """A loop in longitude/latitude pinched to latitudes +-0.05, its separation 0.1."""
    th = cc.fourier.nodes(P)
    lon, lat = 0.6 * np.cos(th), np.sin(th) * (0.05 + 0.4 * np.cos(th) ** 2)
    return cc.Embedding(cc.Sphere2(), np.stack(
        [np.sin(lon) * np.cos(lat), -np.sin(lat), np.cos(lon) * np.cos(lat)], axis=1))


SETUP = {
    "plane": BACKENDS["plane"],
    "torus": BACKENDS["torus"],
    "torus-w10": lambda P: shapes.torus_geodesic(P, (1, 0), offset=(0.3, 0.7), wiggle=0.05, seed=1),
    "sphere": _sphere_dumbbell,
}

# backend -> (critical curve, functional, its smallest eigenvalues)
CRITICAL = {
    "plane": (shapes.circle, workloads.CIRCLE, workloads.SPEC_CIRCLE),
    "torus": (lambda P: shapes.torus_geodesic(P, (1, 0)), workloads.LENGTH, workloads.SPEC_TORUS),
    "sphere": (shapes.great_circle, workloads.LENGTH, workloads.SPEC_LENGTH_GREAT_CIRCLE),
}


def _min_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


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


def _chords(x: cc.Embedding) -> int:
    """(pair, translate) chords one separation call passes to its admissibility test."""
    count = [0]
    admissible = curve._distinct_strands

    def counted(chord, arc):
        count[0] += chord.size
        return admissible(chord, arc)

    curve._distinct_strands = counted
    try:
        cc.separation(x)
    finally:
        curve._distinct_strands = admissible
    return count[0]


def _counted_invert(c: cc.Chart, y: cc.Embedding) -> dict:
    """Run chart_invert once with its root steps, scan inputs and brackets recorded."""
    counts = {"illinois_steps": 0, "pairs": 0, "in_tube": 0}
    scans, brackets = [], []
    illinois, nearest = charts._illinois, charts._nearest_crossing
    cls = type(c.center.space)
    scan = cls.fiber_scan

    def counted_illinois(fun, *args):
        def step(idx, t):
            counts["illinois_steps"] += 1
            return fun(idx, t)
        return illinois(step, *args)

    def recorded_scan(self, p, T, q, radius):
        dist, g = scan(self, p, T, q, radius)
        counts["pairs"] += g.size
        counts["in_tube"] += int(np.count_nonzero(~np.isnan(g)))
        scans.append((p, T, q, radius))
        return dist, g

    def recorded_nearest(gvals, dists):
        k = nearest(gvals, dists)
        brackets.append(k)
        return k

    charts._illinois, charts._nearest_crossing = counted_illinois, recorded_nearest
    cls.fiber_scan = recorded_scan
    try:
        cc.chart_invert(c, y)
    finally:
        charts._illinois, charts._nearest_crossing = illinois, nearest
        cls.fiber_scan = scan
    space = c.center.space

    def dense():
        return np.concatenate([dense_fiber_scan(space, *args)[2] for args in scans])

    return {"illinois_steps": counts["illinois_steps"],
            "in_tube_fraction": counts["in_tube"] / counts["pairs"],
            "dense_s": _min_time(dense),
            "same_brackets": bool(np.array_equal(dense(), np.concatenate(brackets)))}


def _gradient_calls(F: cc.Functional, c: cc.Chart) -> int:
    """Batched gradients one hessian_in_chart makes."""
    count = [0]
    pullback = functionals._pullback_gradient

    def counted(*args):
        count[0] += 1
        return pullback(*args)

    functionals._pullback_gradient = counted
    try:
        cc.hessian_in_chart(F, c)
    finally:
        functionals._pullback_gradient = pullback
    return count[0]


def _image_distance_rows() -> list[dict]:
    rows = []
    for name, make in BACKENDS.items():
        for P in GRIDS:
            x = make(P)
            y = cc.resample(x, cc.make_diffeo(3, 0.25, P))
            t = _min_time(lambda: cc.image_distance(x, y))
            rows.append({"backend": name, "P": P, "probes": 2 * curve.PROBES_PER_NODE * P,
                         "time_s": t, **_counted(x, y)})
            print(f"image_distance {name:6s} P={P:5d} {t:.4f} s", file=sys.stderr)
    return rows


def _chart_setup_rows() -> list[dict]:
    rows = []
    for name, make in SETUP.items():
        for P in GRIDS:
            x = make(P)
            sep, dense = cc.separation(x), dense_separation(x)
            row = {"backend": name, "P": P, "separation": sep, "dense_separation": dense,
                   "separation_s": _min_time(lambda: cc.separation(x)), "chords": _chords(x),
                   "make_chart_s": _min_time(lambda: cc.make_chart(x)),
                   "dense_s": _min_time(lambda: dense_separation(x)),
                   "dense_chords": P * P * (3 ** x.pts.shape[1] if x.winding is not None else 1),
                   "same_value": sep == dense}
            rows.append(row)
            print(f"chart setup {name:9s} P={P:5d} separation {row['separation_s']:.4f} s"
                  f" (dense {row['dense_s']:.4f} s) make_chart {row['make_chart_s']:.4f} s",
                  file=sys.stderr)
    return rows


def _chart_invert_rows() -> list[dict]:
    rows = []
    for name, make in BACKENDS.items():
        for P in GRIDS:
            c = cc.make_chart(make(P))
            u = random_section(c, np.random.default_rng(P), 0.49 * c.rho)
            y = cc.resample(cc.chart_apply(c, u), cc.make_diffeo(3, 0.25, P))
            row = {"backend": name, "P": P, "time_s": _min_time(lambda: cc.chart_invert(c, y)),
                   **_counted_invert(c, y)}
            rows.append(row)
            print(f"chart_invert {name:6s} P={P:5d} {row['time_s']:.4f} s"
                  f" (dense scan {row['dense_s']:.4f} s)", file=sys.stderr)
    return rows


def _second_variation_rows() -> list[dict]:
    rows = []
    for name, (make, F, expected) in CRITICAL.items():
        for P in HESSIAN_GRIDS:
            c = cc.make_chart(make(P))
            vals = cc.spectrum(F, c, len(expected))
            row = {"backend": name, "P": P, "columns": P * c.rank,
                   "gradient_calls": _gradient_calls(F, c),
                   "hessian_in_chart_s": _min_time(lambda: cc.hessian_in_chart(F, c)),
                   "spectrum_s": _min_time(lambda: cc.spectrum(F, c, len(expected))),
                   "eig_error": float(np.max(np.abs(vals - np.asarray(expected))))}
            rows.append(row)
            print(f"second variation {name:6s} P={P:4d} hessian {row['hessian_in_chart_s']:.4f} s"
                  f" spectrum {row['spectrum_s']:.4f} s", file=sys.stderr)
    return rows


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tools/bench_layers.py OUT.json", file=sys.stderr)
        return 2
    rows = _image_distance_rows()
    hess = _second_variation_rows()
    setup = _chart_setup_rows()
    invert = _chart_invert_rows()
    sep_at = {(r["backend"], r["P"]): r["separation_s"] for r in setup}
    time_at = {(r["backend"], r["P"]): r["time_s"] for r in rows}
    spec_at = {(r["backend"], r["P"]): r["spectrum_s"] for r in hess}
    inv_at = {(r["backend"], r["P"]): r["time_s"] for r in invert}
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
        "second_variation": hess,
        "spectrum_ratio_P512_over_P128": {name: spec_at[name, 512] / spec_at[name, 128]
                                          for name in CRITICAL},
        "chart_setup": setup,
        "separation_ratio_P1024_over_P256": {name: sep_at[name, 1024] / sep_at[name, 256]
                                             for name in SETUP},
        "chart_invert": invert,
        "chart_invert_ratio_P1024_over_P256": {name: inv_at[name, 1024] / inv_at[name, 256]
                                               for name in BACKENDS},
    }
    with open(sys.argv[1], "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
