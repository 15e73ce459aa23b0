"""Record a checkout's outputs on the benchmark inputs, and compare two records.

    python tools/compare_outputs.py dump OUT [--seeds 1 2]
    python tools/compare_outputs.py compare A B
    python tools/compare_outputs.py against REV [--seeds 1 2]

`dump` runs in the checkout given by the working directory: it imports
that checkout's `src/curvecharts` and `perfbench/workloads.py` (read
only) and runs every operation of the four benchmark workloads for each
seed.  It records, as JSON in OUT:

- each operation's status and oracle info (timings left out);
- for each `minimize` the workloads call: the trace CSV, the final
  center, frame, rho and section (or the error and its trace);
- for each `make_chart`, `chart_invert`, `transition`, `spectrum` and
  `orbit_rank` the workloads call: their results (or the error);
- `make_chart` frames and rho of 3-d curves on Euclidean(3) and
  FlatTorus(3), moved by the seed;
- `image_distance` between distinct images at P = 64 and 256, their
  offsets drawn from the seed: a circle against a scaling and against a
  translate of it, two shifted (1, 1) torus geodesics, a great circle
  against a rotation of it, and latitude circles on S^2 within 1e-2 to
  1e-9 rad of the north and of the south pole;
- the exit code, stdout, stderr and written files of each `cli`
  operation, plus a few `validate` runs on non-embeddings and on curves
  whose separation is finite on each backend, two of them at P = 1024,
  a `minimize` whose first chart cannot be built, and a Newton
  `minimize` from the radius-0.5 circle to the saddle of length - area.

`compare` prints equal/total per record kind and exits 1 if any record
differs or exists in one file only.  Records are compared as JSON text,
so floats must agree to the last bit.  For each kind with unequal
records it also prints the largest absolute difference between numeric
leaves at the same place in both records; a text leaf, such as a trace
CSV, a spectrum's stdout or a JSON report written as text, counts with
the numbers inside it when both texts agree apart from those numbers.
For each unequal `minimize` record it prints the difference in
iterations and in the final f, and the largest distance between the
final curves' nodes before and after the backend's best rigid motion
(Kabsch on the plane, in R^3 and on S^2, a translation on the torus),
which tells a drift along the isometry orbit from a change of shape.
Use it to check that a
refactoring leaves outputs unchanged: dump the parent commit's checkout
and the changed one, then compare.

`against` does all three from the root of a git checkout: it dumps the
revision REV (a commit, a branch or a tag) in a temporary `git worktree`
with this copy of the tool, so both sides record the same things, then
dumps the working tree, removes the worktree and compares the two
records, with the exit code of `compare`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import curvecharts as cc  # noqa: E402
from curvecharts import shapes  # noqa: E402
import workloads  # noqa: E402

# extra cli runs: validate reports of non-embeddings, and separations on
# every backend: (1, 1) and (1, 2) torus geodesics, a curve on FlatTorus(3)
# and a pinched curve on S^2 (the files of EXTRA_CURVES), at P = 1024,
# where the tree of `separation` is four levels deep, a minimize whose
# first chart cannot be built: the rough embedding leaves the tube of the
# chart at its smoothed copy, and a Newton minimize from the radius-0.5
# circle, whose rounds re-center at the band on the way to the saddle
EXTRA_CLI = [["validate", "--make", "lemniscate"],
             ["validate", "--make", "lemniscate", "--grid", "64"],
             ["validate", "--make", "torus-geodesic:wx=1,wy=1"],
             ["orbit", "--make", "lemniscate"],
             ["validate", "--make", "torus-geodesic:wx=1,wy=2"],
             ["validate", "--curve", "torus3.json"],
             ["validate", "--curve", "sphere-dumbbell.json"],
             ["validate", "--make", "torus-geodesic:wx=1,wy=1", "--grid", "1024"],
             ["validate", "--make", "lemniscate", "--grid", "1024"],
             ["minimize", "--make", "perturbed-circle:amplitude=0.2,seed=1,kmax=30", "--grid", "64",
              "--max-iter", "5"],
             ["minimize", "--make", "circle:radius=0.5", "--functional", "length-1.0*area",
              "--newton"]]


def _torus3(P: int = 96) -> cc.Embedding:
    th = cc.fourier.nodes(P)
    w = np.array([0, 1, 1])
    wiggle = 0.05 * np.stack([np.sin(2 * th), np.cos(3 * th), np.sin(th + 1.0)], axis=1)
    return cc.Embedding(cc.FlatTorus(3), th[:, None] / (2 * np.pi) * w + wiggle + 0.3, w)


def _sphere_dumbbell(P: int = 128) -> cc.Embedding:
    """A loop in longitude/latitude pinched to latitudes +-0.05, its separation 0.1."""
    th = cc.fourier.nodes(P)
    lon, lat = 0.6 * np.cos(th), np.sin(th) * (0.05 + 0.4 * np.cos(th) ** 2)
    return cc.Embedding(cc.Sphere2(), np.stack(
        [np.sin(lon) * np.cos(lat), -np.sin(lat), np.cos(lon) * np.cos(lat)], axis=1))


EXTRA_CURVES = {"torus3.json": _torus3, "sphere-dumbbell.json": _sphere_dumbbell}


def _plain(obj):
    """JSON-ready copy: arrays to nested lists, numpy scalars to Python ones."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _error(exc: Exception) -> dict:
    trace = getattr(exc, "trace", None)
    return {"error": type(exc).__name__, "message": str(exc),
            "trace": trace.to_csv() if trace is not None else None}


def _chart(c) -> dict:
    return {"center": c.center.pts, "frame": c.frame, "rho": c.rho}


# what to record of each library call the workloads make
RESULTS = {
    "make_chart": _chart,
    "chart_invert": lambda r: {"section": r[0].coeff, "lift": r[1].lift},
    "transition": lambda r: {"section": r[0].coeff, "lift": r[1].lift},
    "spectrum": lambda r: {"values": r},
    "orbit_rank": lambda r: {"rank": r},
    "minimize": lambda r: {"trace": r[2].to_csv(), "converged": r[2].converged,
                           "section": r[1].coeff, "space": r[0].center.space.to_spec(),
                           **_chart(r[0])},
}


class Recorder:
    def __init__(self):
        self.records: dict[str, dict] = {}
        self.prefix = ""
        self._seen: Counter = Counter()

    def add(self, kind: str, value):
        n = self._seen[(self.prefix, kind)]
        self._seen[(self.prefix, kind)] += 1
        self.records[f"{self.prefix}/{kind}#{n}"] = {"kind": kind, "value": _plain(value)}

    @contextlib.contextmanager
    def watching(self):
        """Record the results of the library calls the workloads make through `cc`."""
        saved = {name: getattr(cc, name) for name in RESULTS}

        def wrap(name, fn):
            def recorded(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except cc.CurveChartsError as exc:
                    self.add(name, _error(exc))
                    raise
                self.add(name, RESULTS[name](result))
                return result
            return recorded

        for name, fn in saved.items():
            setattr(cc, name, wrap(name, fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(cc, name, fn)


def _status(rec: Recorder, op):
    try:
        status, info = op.run(False)
    except Exception as exc:  # the worker counts these as failed operations
        rec.add("status", _error(exc))
        return
    rec.add("status", {"status": status, "expect": op.expect,
                       "info": {k: v for k, v in info.items() if k not in ("wall_s", "child")}})


def _files(workdir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


def _cli(rec: Recorder, argv: list[str], workdir: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    before = _files(workdir)
    proc = subprocess.run([sys.executable, "-m", "curvecharts.cli"] + argv, capture_output=True,
                          text=True, timeout=300, env=env, cwd=workdir)
    after = _files(workdir)
    written = {k: v.decode() for k, v in after.items() if before.get(k) != v}
    rec.add("cli", {"argv": [a.replace(workdir, "<workdir>") for a in argv],
                    "exit": proc.returncode,
                    "stdout": proc.stdout.replace(workdir, "<workdir>"),
                    "stderr": proc.stderr.replace(workdir, "<workdir>"),
                    "files": {k: v.replace(workdir, "<workdir>") for k, v in written.items()}})
    return proc


def _frames_3d(rec: Recorder, seed: int):
    rng = np.random.default_rng(seed)
    for P in (64, 128):
        th = cc.fourier.nodes(P)
        trefoil = np.stack([np.sin(th) + 2 * np.sin(2 * th), np.cos(th) - 2 * np.cos(2 * th),
                            -np.sin(3 * th)], axis=1)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rec.prefix = f"frames3d/seed{seed}/euclidean-trefoil-P{P}"
        rec.add("make_chart", _chart(cc.make_chart(
            cc.Embedding(cc.Euclidean(3), trefoil @ q.T + rng.uniform(-1, 1, 3)))))
        wiggle = 0.05 * np.stack([np.sin(2 * th), np.cos(3 * th), np.sin(th + 1.0)], axis=1)
        w = np.array([1, 1, 0])
        pts = th[:, None] / (2 * np.pi) * w + wiggle + rng.uniform(0, 1, 3)
        rec.prefix = f"frames3d/seed{seed}/torus-P{P}"
        rec.add("make_chart", _chart(cc.make_chart(cc.Embedding(cc.FlatTorus(3), pts, w))))


def _latitude_circle(P: int, polar: float) -> cc.Embedding:
    th = cc.fourier.nodes(P)
    return cc.Embedding(cc.Sphere2(), np.stack([np.sin(polar) * np.cos(th),
                                                np.sin(polar) * np.sin(th),
                                                np.full(P, np.cos(polar))], axis=1))


def _image_distances(rec: Recorder, seed: int):
    rng = np.random.default_rng(seed)
    for P in (64, 256):
        circle, great = shapes.circle(P), shapes.great_circle(P)
        angle = rng.uniform(0.05, 0.2)
        c, s = np.cos(angle), np.sin(angle)
        pairs = {
            "scaled-circle": (circle, shapes.circle(P, radius=rng.uniform(1.01, 1.1))),
            "translated-circle": (circle, cc.Embedding(cc.Euclidean(2),
                                                       circle.pts + rng.uniform(-10, 10, 2))),
            "shifted-torus": (shapes.torus_geodesic(P, (1, 1)),
                              shapes.torus_geodesic(P, (1, 1), offset=rng.uniform(0, 0.2, 2))),
            "rotated-great-circle": (great, cc.Embedding(cc.Sphere2(), great.pts @ np.array(
                [[1, 0, 0], [0, c, -s], [0, s, c]]).T)),
            "antipodal-circles": (_latitude_circle(P, 10.0 ** rng.uniform(-9, -2)),
                                  _latitude_circle(P, np.pi - 10.0 ** rng.uniform(-9, -2))),
        }
        for name, (x, y) in pairs.items():
            rec.prefix = f"image-distance/seed{seed}/{name}-P{P}"
            rec.add("image_distance", {"value": cc.image_distance(x, y)})


def dump(out: str, seeds: list[int]):
    rec = Recorder()
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for name, build in workloads.BUILDERS.items():
                wdir = os.path.join(workdir, f"{name}-{seed}")
                wl = build(seed, wdir)
                for i, op in enumerate(wl.ops):
                    rec.prefix = f"{name}/seed{seed}/{i}-{op.name}"
                    if name != "cli":
                        with rec.watching():
                            _status(rec, op)
                        continue
                    argv, check, _ = op.run.args
                    proc = _cli(rec, argv, wdir)
                    ok = proc.returncode == 0 and check(proc)
                    rec.add("status", {"status": "ok" if ok else "failed", "expect": op.expect})
            _frames_3d(rec, seed)
            _image_distances(rec, seed)
        for name, make in EXTRA_CURVES.items():
            cc.save_curve(make(), os.path.join(workdir, name))
        for i, argv in enumerate(EXTRA_CLI):
            rec.prefix = f"cli-extra/{i}"
            _cli(rec, argv, workdir)
    with open(out, "w") as fh:
        json.dump(rec.records, fh)
    print(f"{len(rec.records)} records written to {out}")


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _max_diff(a, b) -> float:
    """Largest |a - b| over the numeric leaves at the same place in two JSON values,
    counting the numbers at the same place in two texts with the same non-numeric parts."""
    if isinstance(a, dict) and isinstance(b, dict):
        return max((_max_diff(a[k], b[k]) for k in a.keys() & b.keys()), default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_max_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return 0.0 if a == b else abs(a - b)
    if isinstance(a, str) and isinstance(b, str) and _NUMBER.sub("", a) == _NUMBER.sub("", b):
        return _max_diff([float(v) for v in _NUMBER.findall(a)],
                         [float(v) for v in _NUMBER.findall(b)])
    return 0.0


def _final_curve(rec: dict):
    """The space and the nodes of a `minimize` record's final curve, exp of its section."""
    space = cc.AmbientSpace.from_spec(rec["space"])
    center, frame = np.array(rec["center"]), np.array(rec["frame"])
    return space, space.exp(center, np.einsum("ia,aid->id", np.array(rec["section"]), frame))


def _rigid_gap(space, p: np.ndarray, q: np.ndarray) -> float:
    """Largest |R p_i + t - q_i| over the nodes for the rigid motion of the backend that best
    maps p to q in least squares: a translation on the torus, else a rotation (Kabsch) with a
    translation where the backend has them."""
    if not space.rotations:
        d = space.log(p, q)
        return float(np.max(np.linalg.norm(d - d.mean(axis=0), axis=1)))
    mp, mq = (p.mean(axis=0), q.mean(axis=0)) if space.translations else (0.0, 0.0)
    U, _, Vt = np.linalg.svd((p - mp).T @ (q - mq))
    U[:, -1] *= np.sign(np.linalg.det(U @ Vt))
    return float(np.max(np.linalg.norm((p - mp) @ (U @ Vt) - (q - mq), axis=1)))


def _minimize_drift(a: dict, b: dict) -> str:
    """Iteration and final-f differences of two `minimize` records, and their final curves'
    largest node distance as given and modulo the backend's rigid motions."""
    out = []
    rows = [[line.split(",") for line in (r.get("trace") or "").splitlines()[1:]] for r in (a, b)]
    if all(rows):
        out.append(f"iterations {len(rows[1]) - len(rows[0]):+d}, "
                   f"final f {float(rows[1][-1][1]) - float(rows[0][-1][1]):+.3g}")
    if all("section" in r and "space" in r for r in (a, b)):
        (space, p), (_, q) = _final_curve(a), _final_curve(b)
        if p.shape == q.shape:
            out.append(f"curves {np.max(space.dist(p, q)):.3g} apart, "
                       f"{_rigid_gap(space, p, q):.3g} after the best rigid motion")
    return "; ".join(out) or "no trace or final curve in both"


def compare(a: str, b: str) -> int:
    with open(a) as fh:
        ra = json.load(fh)
    with open(b) as fh:
        rb = json.load(fh)
    equal, total, diff = Counter(), Counter(), {}
    for key in sorted(set(ra) | set(rb)):
        kind = (ra.get(key) or rb.get(key))["kind"]
        total[kind] += 1
        if key in ra and key in rb and json.dumps(ra[key]) == json.dumps(rb[key]):
            equal[kind] += 1
        else:
            print(f"differs: {key}" + ("" if key in ra and key in rb else " (in one file only)"))
            if key in ra and key in rb:
                diff[kind] = max(diff.get(kind, 0.0), _max_diff(ra[key], rb[key]))
                if kind == "minimize":
                    print(f"  {_minimize_drift(ra[key]['value'], rb[key]['value'])}")
    for kind in sorted(total):
        print(f"{kind}: {equal[kind]}/{total[kind]} equal"
              + (f", largest numeric difference {diff[kind]:.3g}" if kind in diff else ""))
    print(f"all: {sum(equal.values())}/{sum(total.values())} equal")
    return 0 if equal == total else 1


def against(rev: str, seeds: list[int]) -> int:
    """Dump rev in a temporary git worktree and the working tree in this process, then compare."""
    with tempfile.TemporaryDirectory() as tmp:
        tree, old, new = (os.path.join(tmp, name) for name in ("tree", "old.json", "new.json"))
        subprocess.run(["git", "worktree", "add", "--quiet", "--detach", tree, rev], cwd=ROOT,
                       check=True)
        try:
            tool = os.path.join(tree, "tools", os.path.basename(__file__))
            shutil.copyfile(os.path.abspath(__file__), tool)
            subprocess.run([sys.executable, tool, "dump", old, "--seeds", *map(str, seeds)],
                           cwd=tree, check=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT, check=True)
        dump(new, seeds)
        return compare(old, new)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="record the outputs of the checkout in the working directory")
    p.add_argument("out")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p = sub.add_parser("compare", help="compare two records; exit 1 on any difference")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("against", help="dump a git revision and the working tree, then compare")
    p.add_argument("rev")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.seeds)
        return 0
    if args.command == "against":
        return against(args.rev, args.seeds)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
