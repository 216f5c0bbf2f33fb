"""CPU speed: pin to the fastest CPU, and measure its speed around each job.

On a shared virtual machine each vCPU switches between a fast and a slow
state (about 1.4x apart, up to 1.8x for float formatting) every few
seconds, and the vCPUs do so independently: often one is fast while the
other is slow.  Slow phases can also cover both vCPUs for minutes, which
is longer than a run.  Two things keep job times comparable anyway:

* ``pin_fastest`` times a short loop on every allowed CPU and pins the
  process to the fastest one before a job starts.  The kernel cannot see
  these states, so it would not move the process off a slow vCPU.
* ``probe`` times three fixed kernels (a bytecode loop, float formatting
  and a numpy sort) on that CPU just before and just after the job.
  ``slowdown`` turns the probe times into one factor against the
  reference in design.json.  A job's time divided by that factor is its
  time at the reference speed.

Both run outside the timed region.  Where CPU affinity is not supported,
pinning does nothing and only the probes remain.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

PIN_ITERATIONS = 150_000  # about 15 ms of bytecode on a 2-core x86-64 VM
PROBE_REPEATS = 2  # each side of a job
KERNELS = ("loop", "format", "sort")

_rng = np.random.default_rng(0)
_SORT_INPUT = _rng.random(500_000)
_FLOATS = (_rng.random(10_000) * 1e3).tolist()


def allowed_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def _loop(n: int) -> float:
    t = time.perf_counter()
    s = 0
    for k in range(n):
        s += k * k % 7
    return time.perf_counter() - t


def pin_fastest(cpus: list[int]) -> None:
    """Pin this process to whichever of ``cpus`` runs the loop fastest."""
    if len(cpus) < 2:
        return
    best = None
    for cpu in cpus:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            continue
        t = min(_loop(PIN_ITERATIONS), _loop(PIN_ITERATIONS))
        if best is None or t < best[0]:
            best = (t, cpu)
    if best is not None:
        os.sched_setaffinity(0, {best[1]})


def unpin(cpus: list[int]) -> None:
    if cpus:
        os.sched_setaffinity(0, set(cpus))


def probe() -> list[list[float]]:
    """Times of the three kernels, ``PROBE_REPEATS`` times each."""
    out = []
    for _ in range(PROBE_REPEATS):
        loop = _loop(100_000)
        t = time.perf_counter()
        "".join([f"{x:.17g}\n" for x in _FLOATS])
        fmt = time.perf_counter() - t
        t = time.perf_counter()
        np.sort(_SORT_INPUT)
        out.append([loop, fmt, time.perf_counter() - t])
    return out


def slowdown(probes: list[list[float]], reference: dict) -> float:
    """How much slower than at the reference speed a job ran during ``probes``.

    The probe slowdown is the geometric mean of the kernels' median time
    over their reference time.  Jobs slow down less than the probes do, so
    the result is the probe slowdown raised to ``reference["exponent"]``.
    """
    logs = [math.log(statistics.median(row[i] for row in probes) / reference[k])
            for i, k in enumerate(KERNELS)]
    return math.exp(reference["exponent"] * sum(logs) / len(logs))
