"""Time library layers across grid sizes on the plane, the flat torus and S^2.

    python tools/bench_layers.py OUT.json [SECTION ...]

Runs the named sections (the keys of SECTIONS), or all of them.

Imports `src/curvecharts` of the checkout that holds this script, and
the analytic spectra of `perfbench/workloads.py` and the speed probe of
`perfbench/speed.py` (read only).  Every time is the minimum of 3 calls,
each call's wall time divided by the machine's slowdown
(`speed.factor`) probed before and after it, as the perfbench worker
does: times read at the reference speed, so files written while the
machine runs in different speed states compare code, not machine.

`image_distance`: for P in {64, 128, 256, 512, 1024} it builds a curve x
and the resampling y = x∘phi of x by a seeded diffeomorphism, the pair a
`roundtrip` check compares.  It records the time of
`image_distance(x, y)`, and from one further, instrumented call:

- `illinois_steps`: the closest-point refinement's `_illinois` steps, and
  `illinois_points`, the roots they evaluate summed over those steps;
- `dists_per_probe`: the distances the nearest-sample search
  (`curve._nearest_samples`) evaluates per probe, the chain of the arc
  radii included.

`image_distance_distinct`: the same records for P in {64, ..., 1024}
on pairs of distinct images: a circle against its 1.05 scaling and
against its translate by (10, 10), two (1, 1) torus geodesics shifted
by (0.1, 0), and a great circle against its rotation by 0.1 rad.

`tiny_latitudes`: the same records at P=512 for latitude circles on S^2
at polar angles 1e-9 against pi - 1e-9 and 1e-4 against pi - 1e-4 (tiny
circles about antipodal poles), and 1e-7 against 0.5, where every probe
of the tiny circle sits at the centre of the other one and all its
samples tie to within 1e-7.

`second_variation`: for P in {64, 128, 256, 512} it builds a critical
curve with a known Jacobi spectrum (the unit circle under
length - area, a (1, 0) torus geodesic, and a great circle under
length and under bend) and records the times of `hessian_in_chart` and of
`spectrum` (the Hessian, its reduction and eigh), with

- `columns`: the Hessian's columns, P times the frame rank;
- `ffts`: the forward (rfft) and inverse (irfft) real FFTs one
  `hessian_in_chart` makes, counted apart;
- `eig_error`: the largest distance of the computed eigenvalues from
  the analytic ones.

`reduction_and_eigh`: for the same critical curves and grids, the time
of `solver._reduced_hessian` (`reduced_hessian_s`: the Hessian on the
Nyquist complement E, symmetrized; a checkout that forms the coefficient
Hessian Q spends it on Q and E^T Q E) and of it followed by the full
`eigh` the Newton step takes (`time_s`); `n` is the reduced size.  The
keyword arguments of that `eigh` (`newton_eigh`) are read off one
`newton_refine` call from a non-critical section, so each checkout is
timed on its own solver's decomposition.  On one fixed reduced Hessian,
`eigh_s` times that decomposition alone and `evr_s` scipy's MRRR driver
for all eigenvectors (`driver="evr"`, the default).

`descent`: `minimize` on the two Newton-mode problems of the `descent`
workload (`circle-newton`: `perturbed_circle(P, 0.1, seed=6)` under
length - area; `sphere-length-newton`: the tilted great circle under
length) for P in {64, 128, 256, 512, 1024}, on `bend-length-budget` at P=64,
unmoved, and on the workload's wiggly (1, 1) torus geodesic under
length (`torus-length`) for P in {512, 1024, 2048}.  Each row holds the
iterations, re-centerings, status and oracle error, the time, and from
one further, counted run the trace's `evaluations` (`value_and_gradient`
calls, Newton's included) and `backtracks` (rejected Armijo trials), the
calls the solver makes to `_reduced_hessian`, and `forward_ffts` and
`inverse_ffts`, the rfft and irfft calls of the whole run.  Per
iteration it gives the evaluations and both FFT counts, and
`time_per_evaluation_s` divides the time by the evaluations.

`iterate_cost`: the per-iterate cost of the descent's function calls at
a seeded section of sup norm 0.2 rho, on each backend's curve of
`image_distance`, for the functionals of ITERATE_COST at P in {64, 128,
256, 512}, and up to 1024 for `bend+length`: `separate_s`, the time of
`evaluate(F, chart_apply(c, u))` plus `gradient_in_chart(F, c, u)`, and
`fused_s`, that of `value_and_gradient(F, c, u.coeff)`, each the mean of
a block of INNER calls, with the forward and inverse FFTs of one call of
each.

`chart_setup`: for P in {64, 128, 256, 512, 1024, 2048} it records the
times of `separation` and `make_chart` on a perturbed circle, the (1, 1)
and (1, 0) wiggly torus geodesics, a pinched loop on S^2 (separation
0.1, where 0.45 times it binds the chart radius) and a trefoil knot in
R^3 (`euclidean3`, whose chart builds the 3-d normal frame), with

- `chords`: the (pair, translate) chords `separation` evaluates, as
  counted by its distinct-strand test (`curve._distinct_strands`);
- `dense_s`, `dense_chords`, `dense_separation`: the time, chord count
  and result of the dense reference scan of `tests/test_curve.py`, every
  ordered node pair against all 3^n nearby lattice translates on the
  torus; null above P = 1024, where its P x P x 3^n temporaries take
  hundreds of MB;
- `same_value`: whether both return the same float (null where the
  dense scan is not run).

`chart_invert`: for P in {64, 128, 256, 512, 1024} it builds the chart
at each `image_distance` curve x, applies a seeded section of sup norm
0.49 rho and resamples the result by a diffeomorphism of amplitude
0.25, and records the time of `chart_invert` on that curve, with

- `illinois_steps`: the fiber refinement's `_illinois` steps;
- `pairs_per_node`: the distances the bracket search
  (`curve._fiber_brackets`) evaluates per node, the arc radii, its
  (node, arc) tests and leaf samples together;
- `search_s`: the time of the bracket search alone;
- `dense_s`: the time of the reference scan of `tests/test_charts.py`
  (`dist` on broadcast pairs, then a second `log` of each in-tube
  pair) over the same samples, in blocks of DENSE_BLOCK nodes at
  n = 4P samples (fewer at larger n), so its temporaries stay small;
- `same_brackets`: whether both scans pick the same bracket at every
  node.

`recenter`: on the curve y of each `chart_invert` row it records the
times of `solver.recenter(y)` (`recenter_s`) and of its parts: the
arclength resampling `resample(y, arclength_lift(y))`
(`arclength_resample_s`), `make_chart` at the center `recenter` builds
(`make_chart_s`) and `chart_invert` of y into that chart
(`chart_invert_s`).

`spectral_kernels`: for P in {64, 128, 256, 512, 1024} and d in {2, 3}
it times, on seeded samples of shape (P, d), the kernels of
`curvecharts.fourier`: `diff` of order 1 (`diff1_s`) and of order 2
(`diff2_s`), `upsample` of the interpolant and its derivatives of
orders 0 .. `curve._TAYLOR_ORDER` onto the M = 8P nodes of the probe
grid (`upsample_s`), and `taylor_nearest` at M seeded points on those
grids (`taylor_s`).  Each is the mean of a block of KERNEL_INNER calls.

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
import pytest
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
                os.path.join(ROOT, "tests")]

import curvecharts as cc  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from curvecharts import curve, functionals, shapes, solver  # noqa: E402
from test_charts import _trefoil, dense_fiber_scan, random_section  # noqa: E402
from test_curve import count_distances, dense_separation  # noqa: E402

GRIDS = (64, 128, 256, 512, 1024)
SETUP_GRIDS = GRIDS + (2048,)
# the largest P of the dense reference separation scan
DENSE_MAX_P = 1024
HESSIAN_GRIDS = (64, 128, 256, 512)
NEWTON_GRIDS = HESSIAN_GRIDS + (1024,)
REPEATS = 3
# calls per timed block of `iterate_cost`
INNER = 20
# nodes per block of the dense reference fiber scan at 4P samples
DENSE_BLOCK = 64
# calls per timed block of `spectral_kernels`
KERNEL_INNER = 200


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
    "euclidean3": _trefoil,
}

# backend -> (critical curve, functional, its smallest eigenvalues)
CRITICAL = {
    "plane": (shapes.circle, workloads.CIRCLE, workloads.SPEC_CIRCLE),
    "torus": (lambda P: shapes.torus_geodesic(P, (1, 0)), workloads.LENGTH, workloads.SPEC_TORUS),
    "sphere": (shapes.great_circle, workloads.LENGTH, workloads.SPEC_LENGTH_GREAT_CIRCLE),
    "sphere-bend": (shapes.great_circle, workloads.BEND, workloads.SPEC_BEND_GREAT_CIRCLE),
}


def _min_time(fn) -> float:
    """Least probe-normalized time of REPEATS calls; one probe between calls serves both."""
    times = []
    before = speed.probe()
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        after = speed.probe()
        times.append(wall / speed.factor(before, after))
        before = after
    return min(times)


def _counted(x: cc.Embedding, y: cc.Embedding) -> dict:
    """Run image_distance once with its root steps and nearest-sample distances counted."""
    counts = {"illinois_steps": 0, "illinois_points": 0, "pairs": 0, "probes": 0}
    illinois, nearest = curve._illinois, curve._nearest_samples

    def counted_illinois(fun, *args):
        def step(idx, t):
            counts["illinois_steps"] += 1
            counts["illinois_points"] += len(t)
            return fun(idx, t)
        return illinois(step, *args)

    def counted_nearest(space, probes, samples):
        counts["probes"] += len(probes)
        with pytest.MonkeyPatch.context() as mp:
            pairs = count_distances(mp, space)
            out = nearest(space, probes, samples)
        counts["pairs"] += pairs[0]
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curve, "_illinois", counted_illinois)
        mp.setattr(curve, "_nearest_samples", counted_nearest)
        value = cc.image_distance(x, y)
    return {"illinois_steps": counts["illinois_steps"],
            "illinois_points": counts["illinois_points"],
            "dists_per_probe": counts["pairs"] / counts["probes"],
            "image_distance": value}


def _chords(x: cc.Embedding) -> int:
    """(pair, translate) chords one separation call passes to its distinct-strand test."""
    count = [0]
    distinct = curve._distinct_strands

    def counted(chord, arc):
        count[0] += chord.size
        return distinct(chord, arc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curve, "_distinct_strands", counted)
        cc.separation(x)
    return count[0]


def _counted_invert(c: cc.Chart, y: cc.Embedding) -> dict:
    """Run chart_invert once counting root steps, then count and check its bracket search."""
    counts = {"illinois_steps": 0}
    args = []
    illinois, search = curve._illinois, curve._fiber_brackets

    def counted_illinois(fun, *rest):
        def step(idx, t):
            counts["illinois_steps"] += 1
            return fun(idx, t)
        return illinois(step, *rest)

    def recorded_search(*a):
        args.append(a)
        return search(*a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curve, "_illinois", counted_illinois)
        mp.setattr(curve, "_fiber_brackets", recorded_search)
        cc.chart_invert(c, y)
    [(space, p, T, q, rho)] = args
    with pytest.MonkeyPatch.context() as mp:
        pairs = count_distances(mp, space)
        k = search(space, p, T, q, rho)[0]
    block = max(1, DENSE_BLOCK * 4 * len(p) // len(q))

    def dense():
        return np.concatenate([dense_fiber_scan(space, p[i:i + block], T[i:i + block], q, rho)[2]
                               for i in range(0, len(p), block)])

    return {"illinois_steps": counts["illinois_steps"],
            "pairs_per_node": pairs[0] / len(p),
            "search_s": _min_time(lambda: search(space, p, T, q, rho)),
            "dense_s": _min_time(dense),
            "same_brackets": bool(np.array_equal(dense(), k))}


def _newton_eigh(F, c: cc.Chart) -> dict:
    """Keyword arguments of the `eigh` that `newton_refine` calls in chart c at a non-critical section."""
    seen = []
    eigh = scipy.linalg.eigh

    def recorded(a, **kw):
        seen.append(kw)
        return eigh(a, **kw)

    th = cc.fourier.nodes(c.P)
    u = cc.NormalSection(np.outer(1e-3 * np.cos(2 * th), np.ones(c.rank)))
    scipy.linalg.eigh = recorded
    try:
        cc.newton_refine(F, c, u)
    except cc.CurveChartsError:
        pass  # the decomposition comes first; a failed step after it does not matter here
    finally:
        scipy.linalg.eigh = eigh
    return seen[0]


def _reduction_rows() -> list[dict]:
    rows = []
    for name, (make, F, _) in CRITICAL.items():
        for P in HESSIAN_GRIDS:
            c = cc.make_chart(make(P))
            kw = _newton_eigh(F, c)
            Qr = solver._reduced_hessian(F, c)[1]
            row = {"backend": name, "P": P, "n": P * c.rank - c.rank, "newton_eigh": kw,
                   "reduced_hessian_s": _min_time(lambda: solver._reduced_hessian(F, c)),
                   "time_s": _min_time(lambda: scipy.linalg.eigh(solver._reduced_hessian(F, c)[1], **kw)),
                   "eigh_s": _min_time(lambda: scipy.linalg.eigh(Qr, **kw)),
                   "evr_s": _min_time(lambda: scipy.linalg.eigh(Qr, driver="evr"))}
            rows.append(row)
            print(f"reduction and eigh {name:6s} P={P:4d} reduction {row['reduced_hessian_s']:.4f} s"
                  f" with eigh {row['time_s']:.4f} s, eigh {kw} {row['eigh_s']:.4f} s"
                  f" evr {row['evr_s']:.4f} s", file=sys.stderr)
    return rows


# solver-module functions whose calls `descent` counts
SOLVER_CALLS = ("_reduced_hessian",)


def _counted_call(fn, fn_names=SOLVER_CALLS):
    """fn() once, counting the calls to the named solver functions and numpy's forward
    (`forward_ffts`, rfft) and inverse (`inverse_ffts`, irfft) real FFTs.

    Returns (result, counts).
    """
    counts = dict.fromkeys(fn_names, 0)
    counts.update(forward_ffts=0, inverse_ffts=0)
    sites = [(solver, name, name) for name in fn_names]
    sites += [(np.fft, "rfft", "forward_ffts"), (np.fft, "irfft", "inverse_ffts")]
    undo = []
    try:
        for owner, attr, key in sites:
            orig = getattr(owner, attr)

            def counted(*args, _fn=orig, _key=key, **kw):
                counts[_key] += 1
                return _fn(*args, **kw)

            undo.append((owner, attr, orig))
            setattr(owner, attr, counted)
        return fn(), counts
    finally:
        for owner, attr, orig in undo:
            setattr(owner, attr, orig)


# descent problem -> (grids, functional, start at P, options, oracle error of the result)
DESCENT = {
    "circle-newton": (
        NEWTON_GRIDS, workloads.CIRCLE, lambda P: shapes.perturbed_circle(P, 0.1, seed=6),
        cc.SolveOptions(max_iter=3000, grad_tol=1e-10, newton=True, newton_threshold=0.05),
        lambda y: float(np.max(np.abs(cc.curvature(y) - 1.0)))),
    "sphere-length-newton": (
        NEWTON_GRIDS, workloads.LENGTH, lambda P: workloads._tilted_great_circle(P, 0.05),
        cc.SolveOptions(max_iter=2000, newton=True),
        lambda y: abs(cc.length(y) - 2.0 * np.pi)),
    "bend-length-budget": (
        (64,), workloads.BEND_LENGTH, lambda P: shapes.perturbed_circle(P, 0.1, seed=3),
        cc.SolveOptions(max_iter=workloads.BEND_LENGTH_BUDGET),
        lambda y: cc.evaluate(workloads.BEND_LENGTH, y) - 4.0 * np.pi),
    "torus-length": (
        (512, 1024, 2048), workloads.LENGTH, lambda P: workloads._torus(P, (1, 1)),
        workloads.TORUS_OPTS, lambda y: abs(cc.length(y) - np.sqrt(2.0))),
}


def _descent_rows() -> list[dict]:
    rows = []
    for name, (grids, F, make, opts, error) in DESCENT.items():
        for P in grids:
            x0 = make(P)
            (c, u, trace), counts = _counted_call(lambda: cc.minimize(F, x0, opts))
            iters = len(trace.records) - 1
            evals = trace.evaluations
            row = {"problem": name, "P": P,
                   "status": "converged" if trace.converged else "unconverged",
                   "iterations": iters, "recenters": sum(r.recenter for r in trace.records),
                   "evaluations": evals, "backtracks": trace.backtracks,
                   "error": error(cc.chart_apply(c, u)),
                   "time_s": _min_time(lambda: cc.minimize(F, x0, opts)), **counts,
                   "evaluations_per_iter": evals / iters,
                   "forward_ffts_per_iter": counts["forward_ffts"] / iters,
                   "inverse_ffts_per_iter": counts["inverse_ffts"] / iters}
            row["time_per_evaluation_s"] = row["time_s"] / evals
            rows.append(row)
            print(f"descent {name:20s} P={P:4d} {iters:4d} iterations {evals:4d} evaluations"
                  f" {row['time_s']:.4f} s", file=sys.stderr)
    return rows


def _fft_counts(fn) -> dict:
    """The forward and inverse real FFTs of one fn() call."""
    counts = _counted_call(fn, ())[1]
    return {"forward": counts["forward_ffts"], "inverse": counts["inverse_ffts"]}


# functionals of `iterate_cost` and their grids
ITERATE_COST = {"length": HESSIAN_GRIDS, "length-1.0*area": HESSIAN_GRIDS,
                "length+0.5*bend": HESSIAN_GRIDS, "bend+length": GRIDS}


def _iterate_cost_rows() -> list[dict]:
    rows = []
    for name, make in BACKENDS.items():
        for functional, grids in ITERATE_COST.items():
            F = cc.parse_functional(functional)
            if F.coefficient("area") != 0.0 and name != "plane":
                continue
            for P in grids:
                c = cc.make_chart(make(P))
                u = random_section(c, np.random.default_rng(P), 0.2 * c.rho)

                def separate():
                    return cc.evaluate(F, cc.chart_apply(c, u)), cc.gradient_in_chart(F, c, u)

                def fused():
                    return functionals.value_and_gradient(F, c, u.coeff)

                row = {"backend": name, "functional": functional, "P": P,
                       "separate_s": _min_time(lambda: [separate() for _ in range(INNER)]) / INNER,
                       "separate_ffts": _fft_counts(separate),
                       "fused_s": _min_time(lambda: [fused() for _ in range(INNER)]) / INNER,
                       "fused_ffts": _fft_counts(fused)}
                rows.append(row)
                print(f"iterate cost {name:6s} {functional:16s} P={P:4d}"
                      f" separate {row['separate_s'] * 1e3:.3f} ms"
                      f" fused {row['fused_s'] * 1e3:.3f} ms", file=sys.stderr)
    return rows


def _block_time(fn) -> float:
    """Mean time of one fn() over a timed block of KERNEL_INNER calls."""
    return _min_time(lambda: [fn() for _ in range(KERNEL_INNER)]) / KERNEL_INNER


def _spectral_kernel_rows() -> list[dict]:
    fourier = cc.fourier
    rows = []
    for d in (2, 3):
        for P in GRIDS:
            rng = np.random.default_rng(P + d)
            v = rng.standard_normal((P, d))
            c = fourier.coeffs(v)
            M = curve.PROBES_PER_NODE * P
            orders = curve._TAYLOR_ORDER + 1
            grids = fourier.upsample(c, P, M, orders)
            t = rng.uniform(0.0, 2.0 * np.pi, M)
            row = {"d": d, "P": P, "M": M, "orders": orders,
                   "diff1_s": _block_time(lambda: fourier.diff(v, 1)),
                   "diff2_s": _block_time(lambda: fourier.diff(v, 2)),
                   "upsample_s": _block_time(lambda: fourier.upsample(c, P, M, orders)),
                   "taylor_s": _block_time(lambda: fourier.taylor_nearest(grids, t))}
            rows.append(row)
            print(f"spectral kernels d={d} P={P:5d} diff {row['diff1_s'] * 1e6:.1f}"
                  f"/{row['diff2_s'] * 1e6:.1f} us upsample {row['upsample_s'] * 1e6:.1f} us"
                  f" taylor {row['taylor_s'] * 1e6:.1f} us", file=sys.stderr)
    return rows


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


def _turned_great_circle(P: int) -> cc.Embedding:
    c, s = np.cos(0.1), np.sin(0.1)
    pts = shapes.great_circle(P).pts @ np.array([[1, 0, 0], [0, c, -s], [0, s, c]]).T
    return cc.Embedding(cc.Sphere2(), pts)


# distinct images: pair -> P -> (x, y)
DISTINCT = {
    "scaled-circle": lambda P: (shapes.circle(P), shapes.circle(P, radius=1.05)),
    "translated-circle": lambda P: (shapes.circle(P), cc.Embedding(cc.Euclidean(2),
                                                                   shapes.circle(P).pts + 10.0)),
    "shifted-torus": lambda P: (shapes.torus_geodesic(P, (1, 1)),
                                shapes.torus_geodesic(P, (1, 1), offset=(0.1, 0.0))),
    "rotated-great-circle": lambda P: (shapes.great_circle(P), _turned_great_circle(P)),
}


def _distinct_rows() -> list[dict]:
    rows = []
    for name, make in DISTINCT.items():
        for P in GRIDS:
            x, y = make(P)
            t = _min_time(lambda: cc.image_distance(x, y))
            rows.append({"pair": name, "P": P, "probes": 2 * curve.PROBES_PER_NODE * P,
                         "time_s": t, **_counted(x, y)})
            print(f"image_distance {name:20s} P={P:5d} {t:.4f} s", file=sys.stderr)
    return rows


def _latitude_circle(P: int, polar: float) -> cc.Embedding:
    th = cc.fourier.nodes(P)
    return cc.Embedding(cc.Sphere2(), np.stack(
        [np.sin(polar) * np.cos(th), np.sin(polar) * np.sin(th), np.full(P, np.cos(polar))], axis=1))


# polar angles of the latitude circles of `tiny_latitudes`
TINY_LATITUDES = ((1e-9, np.pi - 1e-9), (1e-4, np.pi - 1e-4), (1e-7, 0.5))


def _tiny_latitude_rows() -> list[dict]:
    rows = []
    for a, b in TINY_LATITUDES:
        x, y = _latitude_circle(512, a), _latitude_circle(512, b)
        t = _min_time(lambda: cc.image_distance(x, y))
        rows.append({"polar": [a, b], "P": 512, "probes": 2 * curve.PROBES_PER_NODE * 512,
                     "time_s": t, **_counted(x, y)})
        print(f"image_distance latitudes {a:.3g} {b:.3g} P=512 {t:.4f} s", file=sys.stderr)
    return rows


def _chart_setup_rows() -> list[dict]:
    rows = []
    for name, make in SETUP.items():
        for P in SETUP_GRIDS:
            x = make(P)
            sep = cc.separation(x)
            row = {"backend": name, "P": P, "separation": sep,
                   "separation_s": _min_time(lambda: cc.separation(x)), "chords": _chords(x),
                   "make_chart_s": _min_time(lambda: cc.make_chart(x)),
                   "dense_separation": None, "dense_s": None, "dense_chords": None,
                   "same_value": None}
            if P <= DENSE_MAX_P:
                dense = dense_separation(x)
                row.update(dense_separation=dense, dense_s=_min_time(lambda: dense_separation(x)),
                           dense_chords=P * P * (3 ** x.pts.shape[1] if x.winding is not None else 1),
                           same_value=sep == dense)
            rows.append(row)
            print(f"chart setup {name:9s} P={P:5d} separation {row['separation_s']:.4f} s"
                  f" make_chart {row['make_chart_s']:.4f} s", file=sys.stderr)
    return rows


def _inverted_curve(make, P: int) -> tuple[cc.Chart, cc.Embedding]:
    """The chart at make(P) and a seeded section of sup 0.49 rho applied in it, resampled."""
    c = cc.make_chart(make(P))
    u = random_section(c, np.random.default_rng(P), 0.49 * c.rho)
    return c, cc.resample(cc.chart_apply(c, u), cc.make_diffeo(3, 0.25, P))


def _chart_invert_rows() -> list[dict]:
    rows = []
    for name, make in BACKENDS.items():
        for P in GRIDS:
            c, y = _inverted_curve(make, P)
            row = {"backend": name, "P": P, "time_s": _min_time(lambda: cc.chart_invert(c, y)),
                   **_counted_invert(c, y)}
            rows.append(row)
            print(f"chart_invert {name:6s} P={P:5d} {row['time_s']:.4f} s"
                  f" (search {row['search_s']:.4f} s, dense scan {row['dense_s']:.4f} s)",
                  file=sys.stderr)
    return rows


def _recenter_rows() -> list[dict]:
    rows = []
    for name, make in BACKENDS.items():
        for P in GRIDS:
            y = _inverted_curve(make, P)[1]
            c = solver.recenter(y)[0]
            row = {"backend": name, "P": P, "recenter_s": _min_time(lambda: solver.recenter(y)),
                   "arclength_resample_s": _min_time(lambda: cc.resample(y, cc.arclength_lift(y))),
                   "make_chart_s": _min_time(lambda: cc.make_chart(c.center)),
                   "chart_invert_s": _min_time(lambda: cc.chart_invert(c, y))}
            rows.append(row)
            print(f"recenter {name:6s} P={P:5d} {row['recenter_s']:.4f} s (resample"
                  f" {row['arclength_resample_s']:.4f} s, make_chart {row['make_chart_s']:.4f} s,"
                  f" chart_invert {row['chart_invert_s']:.4f} s)", file=sys.stderr)
    return rows


def _second_variation_rows() -> list[dict]:
    rows = []
    for name, (make, F, expected) in CRITICAL.items():
        for P in HESSIAN_GRIDS:
            c = cc.make_chart(make(P))
            vals = cc.spectrum(F, c, len(expected))
            row = {"backend": name, "P": P, "columns": P * c.rank,
                   "ffts": _fft_counts(lambda: cc.hessian_in_chart(F, c)),
                   "hessian_in_chart_s": _min_time(lambda: cc.hessian_in_chart(F, c)),
                   "spectrum_s": _min_time(lambda: cc.spectrum(F, c, len(expected))),
                   "eig_error": float(np.max(np.abs(vals - np.asarray(expected))))}
            rows.append(row)
            print(f"second variation {name:6s} P={P:4d} hessian {row['hessian_in_chart_s']:.4f} s"
                  f" spectrum {row['spectrum_s']:.4f} s", file=sys.stderr)
    return rows


SECTIONS = {
    "image_distance": _image_distance_rows,
    "image_distance_distinct": _distinct_rows,
    "tiny_latitudes": _tiny_latitude_rows,
    "second_variation": _second_variation_rows,
    "reduction_and_eigh": _reduction_rows,
    "chart_setup": _chart_setup_rows,
    "chart_invert": _chart_invert_rows,
    "recenter": _recenter_rows,
    "descent": _descent_rows,
    "iterate_cost": _iterate_cost_rows,
    "spectral_kernels": _spectral_kernel_rows,
}

# ratio -> (section, timed field, backends, larger P, smaller P)
RATIOS = {
    "ratio_P1024_over_P256": ("image_distance", "time_s", BACKENDS, 1024, 256),
    "spectrum_ratio_P512_over_P128": ("second_variation", "spectrum_s", CRITICAL, 512, 128),
    "separation_ratio_P1024_over_P256": ("chart_setup", "separation_s", SETUP, 1024, 256),
    "chart_invert_ratio_P1024_over_P256": ("chart_invert", "time_s", BACKENDS, 1024, 256),
    "recenter_ratio_P1024_over_P256": ("recenter", "recenter_s", BACKENDS, 1024, 256),
}


def main() -> int:
    names = sys.argv[2:] or list(SECTIONS)
    if len(sys.argv) < 2 or not set(names) <= set(SECTIONS):
        print("usage: python tools/bench_layers.py OUT.json [SECTION ...], sections "
              + ", ".join(SECTIONS), file=sys.stderr)
        return 2
    record = {
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count(),
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repeats": REPEATS,
        "timing": ("minimum over the repeats of wall time divided by perfbench speed.factor"
                   " of the probes before and after the call (seconds at the reference speed)"),
        "ref_probe_s": speed.REF_PROBE_S,
    }
    for name in names:
        record[name] = SECTIONS[name]()
    for ratio, (section, field, backends, big, small) in RATIOS.items():
        if section in record:
            at = {(r["backend"], r["P"]): r[field] for r in record[section]}
            record[ratio] = {b: at[b, big] / at[b, small] for b in backends}
    with open(sys.argv[1], "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
