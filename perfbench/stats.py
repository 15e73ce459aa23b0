"""Arithmetic of the end-to-end metrics: percentiles, tail rule, failures."""

from __future__ import annotations

import math

import numpy as np

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it.

    q samples beyond percentile p means n * (1 - p/100) >= q, so
    p = floor(100 * (n - q) / n).  None below 2q samples, where that
    percentile would fall under the median.
    """
    if n < 2 * TAIL_BEYOND:
        return None
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def latency_summary(latencies) -> dict:
    """op_s.p50 and op_s.tail of per-operation latencies, with the tail's percentile.

    With fewer than twenty samples the tail is the maximum, and
    `tail_percentile` is reported as 100.
    """
    lat = np.asarray(latencies, dtype=float)
    if lat.size == 0:
        raise ValueError("no operation completed")
    p = tail_percentile(lat.size)
    return {
        "p50": float(np.percentile(lat, 50)),
        "tail": float(np.percentile(lat, 100 if p is None else p)),
        "tail_percentile": 100 if p is None else p,
        "samples": int(lat.size),
    }


def count_outcomes(ops) -> dict:
    """Attempted, failed and unconverged operations, and the fail rate.

    An op record's status is "ok", "failed" (raised, or its oracle
    rejected the result) or "unconverged" (returned within its budget
    without meeting its tolerance).  `fail_rate` counts both failed
    and unconverged operations against those attempted.
    """
    attempted = len(ops)
    failed = sum(1 for op in ops if op["status"] == "failed")
    unconverged = sum(1 for op in ops if op["status"] == "unconverged")
    return {
        "attempted": attempted,
        "failed": failed,
        "unconverged": unconverged,
        "fail_rate": (failed + unconverged) / attempted if attempted else 0.0,
    }
