"""Traced CLI process: `python3 clichild.py TRACE_JSON SUBCOMMAND ARGS...`.

Behaves like `python -m curvecharts.cli SUBCOMMAND ARGS...` (same
stdout, stderr and exit code) and additionally writes TRACE_JSON: the
import time of curvecharts.cli, the duration of `main`, and per-name
counts and self times of the traced spans, whose raw arrays go to
TRACE_JSON.spans.npz.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import curvecharts
    import curvecharts.cli as cli
    import_s = time.perf_counter() - t0

    import numpy as np
    from tracer import Tracer, self_times

    tracer = Tracer()
    tracer.install(curvecharts)
    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        tracer.uninstall()
        spans = tracer.spans()
        np.savez(trace_path + ".spans.npz", **spans)
        with open(trace_path, "w") as fh:
            json.dump({
                "import_s": import_s,
                "main_s": main_s,
                "layers": self_times(**spans),
                "elems": tracer.elems,
                "spans": len(spans["start"]),
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
