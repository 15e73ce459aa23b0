"""curvecharts benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the library is imported from
./src).  Every operation is checked against an analytic oracle.  With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
A run record (machine, versions, seed, every operation with its P and
latency) is written to .perfbench_out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("descent", "roundtrip", "spectrum", "cli")
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 3   # fresh processes timed from start to READY; the median is setup_s
SETUP_PROBES = 3    # speed probes in this process before and after each set-up sample
# The whole run, set-up included, ends within DEADLINE_BASE_S + DEADLINE_PER_S
# * --seconds or fails: 175 s at --seconds 30, room for a program five times
# slower than the nominal batches.
DEADLINE_BASE_S = 25
DEADLINE_PER_S = 5
BLAS_THREADS = "1"  # tighter and faster than 2 threads on the 2-core reference machine

END_TO_END = [
    ("setup_s", "s"), ("batch_s", "s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
    ("peak_rss_mb", "MB"),
]

LAYER_CALLS = [
    "fourier.interp_coeffs", "fourier.diff", "ambient.log", "ambient.exp", "ambient.dist",
    "curve.image_distance", "curve.arclength_lift", "curve.is_embedding",
    "charts.make_chart", "charts.chart_apply", "charts.chart_invert", "charts.root.brentq",
    "functionals.evaluate", "functionals.gradient_in_chart", "functionals.hessian_in_chart",
    "solver.newton_refine", "symmetry.orbit_rank",
]
LAYER_SELF = [
    "fourier.interp_coeffs", "curve.image_distance", "curve.arclength_lift",
    "curve.reparam_inverse", "curve.resample", "curve.is_embedding",
    "charts.make_chart", "charts.chart_apply", "charts.chart_invert", "charts.root.brentq",
    "functionals.evaluate", "functionals.gradient_in_chart", "functionals.hessian_in_chart",
    "functionals.hessian_full", "solver.newton_refine", "solver.spectrum", "solver.eigh",
    "solver.minimize", "symmetry.orbit_rank", "files.save_curve", "files.load_curve",
    "cli.main",
]
LAYER_TOTALS = ["fourier", "ambient", "curve", "charts", "functionals"]
SOLVER_COUNTS = ["solver.iters", "solver.iters.P64", "solver.iters.P128", "solver.iters.P256",
                 "solver.recenters", "solver.unconverged"]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    out = [(f"{n}.calls", "count") for n in LAYER_CALLS]
    out += [("fourier.interp_coeffs.elems", "count")]
    out += [(f"{n}.self_s", "s") for n in LAYER_SELF]
    out += [(f"{n}.self_s", "s") for n in LAYER_TOTALS]
    out += [(n, "count") for n in SOLVER_COUNTS]
    out += [("solver.evals_per_iter", "evals/iter"), ("solver.grads_per_iter", "grads/iter"),
            ("cli.import_s", "s"), ("cli.process_s", "s"), ("trace.overhead", "ratio")]
    return out


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _kill(proc: subprocess.Popen):
    """Kill the worker and the CLI processes it started (its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def start_worker(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for set-up; returns it with the set-up wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            stdout=subprocess.PIPE, text=True, env=worker_env(),
                            start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _kill(proc)
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    if time.perf_counter() > deadline:
        _kill(proc)
        raise RuntimeError("set-up ran past the deadline")
    return proc, setup


def time_setup(argv: list[str], deadline: float) -> tuple[float, float]:
    """One set-up-only worker: (set-up wall s, slowdown probed around it).

    The probes run here, in a warm process, before the worker starts and
    after it exits.  A probe in the worker right after its set-up tracked
    set-up time worse: on the 2-vCPU reference VM the spread (interquartile
    range over median) of wall / slowdown over 30-40 set-ups was 0.26-0.40
    with that probe, in four sets, and 0.11 with the median of these six.
    """
    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    proc, setup = start_worker(argv + ["--setup-only"], deadline)
    finish(proc, deadline)
    probes += [speed.probe() for _ in range(SETUP_PROBES)]
    return setup, statistics.median(probes) / speed.REF_PROBE_S


def finish(proc: subprocess.Popen, deadline: float):
    """Wait for the worker; past the deadline, kill it and everything it started."""
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise RuntimeError("worker ran past the deadline")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD when the current directory is the top of a git work tree, else None."""
    # the ceiling keeps git from taking the commit of an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(res: dict, setups: list[tuple]) -> tuple[dict, dict]:
    ops = [op for op in res["ops"] if not op["traced"]]
    lat = stats.latency_summary([op["latency_s"] for op in ops])
    values = {
        "setup_s": statistics.median(wall / slowdown for wall, slowdown in setups),
        "batch_s": statistics.median(b["seconds"] for b in res["batches"] if not b["traced"]),
        "op_s.p50": lat["p50"],
        "op_s.tail": lat["tail"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    return values, lat


def _median(xs, default=0.0):
    xs = list(xs)
    return statistics.median(xs) if xs else default


def per_layer(res: dict) -> tuple[dict, dict]:
    layers = res["layers"]
    first = layers[0]
    values = {}
    for name in LAYER_CALLS:
        values[f"{name}.calls"] = first.get(name, [0, 0.0])[0]
    values["fourier.interp_coeffs.elems"] = res["elems"][0].get("fourier.interp_coeffs", 0)
    for name in LAYER_SELF:
        values[f"{name}.self_s"] = _median(b.get(name, [0, 0.0])[1] for b in layers)
    for layer in LAYER_TOTALS:
        values[f"{layer}.self_s"] = _median(
            sum(v[1] for n, v in b.items() if n.startswith(layer + ".")) for b in layers)

    traced_ops = [op for op in res["ops"] if op["traced"]]
    first_batch = [op for op in traced_ops if op["batch"] == traced_ops[0]["batch"]]
    iters = [op for op in first_batch if "iters" in op["info"]]
    total = sum(op["info"]["iters"] for op in iters)
    values["solver.iters"] = total
    for P in (64, 128, 256):
        values[f"solver.iters.P{P}"] = sum(op["info"]["iters"] for op in iters if op["P"] == P)
    values["solver.recenters"] = sum(op["info"]["recenters"] for op in iters)
    values["solver.unconverged"] = sum(1 for op in first_batch if op["status"] == "unconverged")
    values["solver.evals_per_iter"] = values["functionals.evaluate.calls"] / total if total else 0.0
    values["solver.grads_per_iter"] = (
        values["functionals.gradient_in_chart.calls"] / total if total else 0.0)
    cli_ops = [op for op in traced_ops if "import_s" in op["info"]]
    values["cli.import_s"] = _median(op["info"]["import_s"] for op in cli_ops)
    values["cli.process_s"] = _median(
        op["wall_s"] - op["info"]["import_s"] - op["info"]["main_s"] for op in cli_ops)
    traced = [b["seconds"] for b in res["batches"] if b["traced"]]
    plain = [b["seconds"] for b in res["batches"] if not b["traced"]]
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)

    repeat = all({n: v[0] for n, v in b.items()} == {n: v[0] for n, v in first.items()}
                 for b in layers)
    notes = {
        "calls_repeat_across_traced_batches": repeat,
        "evals_per_iter_base": "functionals.evaluate.calls / solver.iters (one traced batch)",
        "grads_per_iter_base": "functionals.gradient_in_chart.calls / solver.iters (one traced batch)",
        "trace_overhead_base": "median traced batch_s / median untraced batch_s, same process",
        "calls_and_counts": "per batch, from the first traced batch",
        "self_s": "per batch, median over traced batches; span time minus child spans",
        "interp_coeffs_elems": "computed from call arguments: len(t) * (P//2 + 1)",
    }
    return values, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_BASE_S + DEADLINE_PER_S * args.seconds

    if not os.path.isfile(os.path.join("src", "curvecharts", "__init__.py")):
        print("run from the root of a curvecharts checkout: src/curvecharts is missing",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out = os.path.join(OUT_DIR, f"raw-{tag}.json")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", os.path.join(OUT_DIR, f"work-{tag}")]
    try:
        setups = [time_setup(common, deadline) for _ in range(SETUP_SAMPLES)]
        proc, _ = start_worker(common + ["--out", out], deadline)
        finish(proc, deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    with open(out) as fh:
        res = json.load(fh)

    # fail_rate and the timings come from untraced operations; correct and
    # failed cover every operation, traced ones too
    outcome = stats.count_outcomes([op for op in res["ops"] if not op["traced"]])
    checked = stats.count_outcomes(res["ops"])
    e2e, lat = end_to_end(res, setups)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(res["env"], cpu_model=cpu_model(), nproc=os.cpu_count(),
                            affinity=len(os.sched_getaffinity(0)), git_commit=git_commit()),
        "closed_loop": "one client, one process, next operation after the previous one",
        "setup_samples": [{"wall_s": w, "slowdown": f} for w, f in setups],
        "batches": res["batches"],
        "outcomes": outcome,
        "outcomes_all_ops": checked,
        "tail": {"percentile": lat["tail_percentile"], "samples": lat["samples"]},
        "end_to_end": e2e,
        "ops": res["ops"],
    }
    if args.trace:
        metrics, notes = per_layer(res)
        units = dict(per_layer_names())
        record["per_layer"] = metrics
        record["per_layer_notes"] = notes
        spans = out + ".spans.npz"  # cli spans are in the CLI processes' own files
        record["spans_file"] = spans if os.path.exists(spans) else None
    else:
        metrics, units = e2e, dict(END_TO_END)
    with open(os.path.join(OUT_DIR, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for name, value in e2e.items():
        print(f"{name:<12} {value:12.6g} {dict(END_TO_END)[name]}")
    print(f"{'fail_rate':<12} {outcome['fail_rate']:12.6g} 1  "
          f"({outcome['failed']} failed + {outcome['unconverged']} unconverged "
          f"of {outcome['attempted']} attempted)")
    plain = [b for b in res["batches"] if not b["traced"]]
    print(f"wall clock before normalizing: batch {statistics.median(b['wall_s'] for b in plain):.6g} s, "
          f"median slowdown {statistics.median(op['slowdown'] for op in res['ops']):.4g}")
    print(f"op_s.tail is p{lat['tail_percentile']} of {lat['samples']} operations; "
          f"{len([b for b in res['batches'] if not b['traced']])} batches; "
          f"BLAS threads {res['env']['blas_threads']}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:<36} {value:14.6g} {units[name]}")
    failed_ops = sorted({op["name"] for op in res["ops"] if op["status"] == "failed"})
    if failed_ops:
        print(f"failed operations: {', '.join(failed_ops)}", file=sys.stderr)
    print(json.dumps({
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
