"""One benchmark process: set up a workload, run its batches, write raw results.

Started by run.py in a fresh interpreter.  It prints READY on stdout
once set-up (import and input generation) is done, so run.py can time
set-up from process start; with --setup-only it exits there.  Every
operation's wall time is divided by the machine's slowdown probed
around it (see speed.py).  Results
go to the --out JSON file: one record per operation and per batch and,
in a traced run, per-name span counts and self times of every traced
batch.  Traced runs alternate untraced and traced batches, starting
untraced, so the tracing overhead is measured in the same process.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import curvecharts  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        return {"name": None, "version": None}


def environment() -> dict:
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_batches(wl, n_batches: int, trace: bool, spans_path: str) -> dict:
    tracer = Tracer() if trace else None
    in_process = wl.name != "cli"  # cli operations are traced inside their own processes
    ops, batches, layers, elems = [], [], [], []
    for b in range(n_batches):
        traced = trace and b % 2 == 1
        gc.collect()
        if traced and in_process:
            tracer.clear()
            tracer.install(curvecharts)
        agg: dict[str, list] = {}
        agg_elems: dict[str, int] = {}
        batch_s = batch_wall = 0.0
        before = speed.probe()
        for op in wl.ops:
            t0 = time.perf_counter()
            try:
                status, info = op.run(traced)
            except Exception as exc:  # an operation that raises is a counted failure
                status, info = "failed", {"error": f"{type(exc).__name__}: {exc}"}
            if status == "unconverged" and op.expect != "unconverged":
                status, info["error"] = "failed", "did not converge within its budget"
            wall = time.perf_counter() - t0
            after = speed.probe()
            slowdown = speed.factor(before, after)
            before = after
            batch_s += wall / slowdown
            batch_wall += wall
            child = info.pop("child", None)
            if child is not None:
                for name, (calls, own) in child["layers"].items():
                    acc = agg.setdefault(name, [0, 0.0])
                    acc[0] += calls
                    acc[1] += own
                for name, count in child["elems"].items():
                    agg_elems[name] = agg_elems.get(name, 0) + count
                info.update(import_s=child["import_s"], main_s=child["main_s"])
            ops.append({"batch": b, "traced": traced, "name": op.name, "P": op.P,
                        "latency_s": wall / slowdown, "wall_s": wall, "slowdown": slowdown,
                        "status": status, "info": info})
        batches.append({"traced": traced, "seconds": batch_s, "wall_s": batch_wall})
        if traced and in_process:
            tracer.uninstall()
            spans = tracer.spans()
            if not layers:
                np.savez(spans_path, **spans)
            agg = {name: list(v) for name, v in self_times(**spans).items()}
            agg_elems = dict(tracer.elems)
        if traced:
            layers.append(agg)
            elems.append(agg_elems)
    return {"ops": ops, "batches": batches, "layers": layers, "elems": elems}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    # one CPU for the worker, its probes and its CLI processes alike
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    src = os.path.realpath("src")
    if not os.path.realpath(curvecharts.__file__).startswith(src + os.sep):
        print(f"curvecharts was imported from {curvecharts.__file__}, not from ./src",
              file=sys.stderr)
        return 3
    wl = workloads.BUILDERS[args.workload](args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    sys.stdout = sys.stderr  # run.py reads no further; keep its pipe from filling

    n = max(1, int(args.seconds / workloads.NOMINAL_BATCH_S[args.workload] + 0.5))
    if args.trace:
        n = max(2, n)
    result = run_batches(wl, n, bool(args.trace), args.out + ".spans.npz")
    usage = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    result.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  peak_rss_kb=max(usage), env=environment())
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
