"""One workload run in a fresh interpreter; started by perfbench/run.py.

Setup imports latdir and writes the workload's inputs, then prints "ready"
on stdout.  A warm-up pass follows, then timed passes in a closed loop (one
client; each job starts when the previous one has finished) until
--seconds have elapsed.  Around each job the worker pins itself to the
fastest CPU and probes its speed (speed.py), outside the timed region.
With --trace 1 untraced and traced passes alternate.  Outputs are checked
after the loop, and the raw timings go to result.json in --run-dir.  CLI
summary lines are captured, never printed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import latdir as ld  # noqa: E402
from latdir import cli  # noqa: E402

from checks import check_job, output_names  # noqa: E402
from speed import allowed_cpus, pin_fastest, probe, slowdown  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

SMALL_FILE = 1 << 20  # outputs up to this size are kept as text for the checks
CPUS = allowed_cpus()


def derive_inputs(workload: dict, seed: int) -> list[dict]:
    """The workload's jobs with {seed} and the window pairs filled in from ``seed``."""
    jobs = []
    for j, job in enumerate(workload["jobs"]):
        job = dict(job)
        rng = np.random.default_rng([seed, j])
        if "{seed}" in job.get("argv", []):
            job["seed"] = int(rng.integers(2**31))
            job["argv"] = [str(job["seed"]) if a == "{seed}" else a for a in job["argv"]]
        if job.get("library") == "pair_integral":
            job["pairs"] = window_pairs(rng)
        jobs.append(job)
    return jobs


def window_pairs(rng) -> list:
    """One overlapping and one disjoint window pair, at random positions.

    Both branches of pair_correlation_integral run every pass (it adds a
    third window count when the windows overlap), so pass time does not
    depend on which kind the seed happens to draw.
    """
    a, w1, w2 = rng.uniform(-2.0, 1.5), rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
    start = a + 0.9 * rng.random() * w1
    overlapping = [[a, a + w1], [start, start + w2]]
    b, v1, v2 = rng.uniform(-2.0, 1.5), rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
    start = b + v1 + rng.uniform(0.05, 1.0)
    disjoint = [[b, b + v1], [start, start + v2]]
    return [[[float(x) for x in iv] for iv in pair] for pair in (overlapping, disjoint)]


def pair_integral(job) -> list[float]:
    """Library job: directions at T, then the two-window pair integral per pair."""
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (ld.CBRT4, ld.CBRT2))
    shape = ld.Annulus(0.0)
    T = float(job["T"])
    dirs = ld.directions(ld.enumerate_points(lat, shape, T), T, shape)
    return [ld.pair_correlation_integral(dirs, I1, I2) for I1, I2 in job["pairs"]]


def run_job(job, tracer):
    """Run one job; returns (ok, value).  Failures are reported on stderr."""
    span = contextlib.nullcontext()
    if tracer:
        span = tracer.span("library" if "library" in job else "cli")
    try:
        if "library" in job:
            with span:
                return True, pair_integral(job)
        out, err = io.StringIO(), io.StringIO()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job["argv"]))
        if rc != 0:
            print(f"perfbench: {job['id']} exited {rc}: {err.getvalue().strip()}", file=sys.stderr)
        return rc == 0, None
    except Exception:  # a failed job is counted, and the loop goes on
        print(f"perfbench: {job['id']} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return False, None


def run_pass(jobs, out_dir: Path, reference: dict, tracer=None) -> dict:
    """One pass; ``jobs`` holds each job's time at the reference speed, ``wall`` its wall time.

    Pinning and probes are untimed; see speed.py.
    """
    for p in out_dir.iterdir():
        p.unlink()
    times, wall, slow, ok, values = {}, {}, {}, {}, {}
    for job in jobs:
        jid = job["id"]
        pin_fastest(CPUS)
        before = probe()
        t = time.perf_counter()
        ok[jid], values[jid] = run_job(job, tracer)
        wall[jid] = time.perf_counter() - t
        slow[jid] = slowdown(before + probe(), reference)
        times[jid] = wall[jid] / slow[jid]
    return {"pass_s": sum(times.values()), "jobs": times, "wall": wall, "slowdown": slow,
            "ok": ok, "values": values}


def at_reference_speed(spans, slowdowns) -> list[list]:
    """Spans with each job's time axis divided by that job's slowdown.

    Each root span is one job, in pass order, and the spans inside a job
    follow its root span, so durations and self times come out at the
    reference speed like the job times.
    """
    out, jobs = [], iter(slowdowns)
    for name, start, end, parent in spans:
        if parent < 0:
            origin, f = start, next(jobs)
        out.append([name, origin + (start - origin) / f, origin + (end - origin) / f, parent])
    return out


def snapshot(out_dir: Path) -> dict:
    """Digests, sizes and line counts of every output; text of the small ones.

    ``body_sha256`` skips a leading '# latdir ...' header line.
    """
    files = {}
    for p in sorted(out_dir.iterdir()):
        full, body, lines = hashlib.sha256(), hashlib.sha256(), 0
        with open(p, "rb") as fh:
            first = fh.readline()
            full.update(first)
            lines += first.count(b"\n")
            if not first.startswith(b"# latdir"):
                body.update(first)
            for chunk in iter(lambda: fh.read(SMALL_FILE), b""):
                full.update(chunk)
                body.update(chunk)
                lines += chunk.count(b"\n")
        size = p.stat().st_size
        files[p.name] = {
            "sha256": full.hexdigest(),
            "body_sha256": body.hexdigest(),
            "size": size,
            "lines": lines,
            "text": p.read_text(encoding="utf-8") if size <= SMALL_FILE else None,
        }
    return files


def job_files(job, files) -> dict:
    return {n: files[n] for n in output_names(job["argv"]) if n in files} if "argv" in job else {}


def job_digests(job, files) -> dict:
    return {n: f["sha256"] for n, f in job_files(job, files).items()}


def check_passes(jobs, passes, design, seed) -> tuple[list[dict], list[str], dict]:
    """Per pass, which jobs failed; identical outputs are checked once."""
    failed, problems, extra, seen = [], [], {}, {}
    for pas in passes:
        failed.append({})
        for job in jobs:
            jid = job["id"]
            files = job_files(job, pas["files"])
            key = (jid, repr(job_digests(job, files)), repr(pas["values"][jid]))
            if key not in seen:
                ctx = {"values": pas["values"][jid]}
                digests = design["digests"].get(jid)
                if "seed" in job and seed != design["default_seed"]:
                    digests = None  # recorded for the default seed only
                seen[key] = check_job(job, files, ctx, digests)
                problems += seen[key]
                extra.update((k, v) for k, v in ctx.items() if k != "values")
            failed[-1][jid] = not pas["ok"][jid] or bool(seen[key])
    return failed, problems, extra


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    jobs = derive_inputs(design["workloads"][args.workload], args.seed)
    out_dir = args.run_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (args.run_dir / "inputs.json").write_text(json.dumps(jobs, indent=1), encoding="utf-8")
    os.chdir(out_dir)  # fixed relative --out paths keep the header bytes the same
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = design["speed_reference_s"]
    run_pass(jobs, out_dir, reference)  # warm-up: file cache, lazy imports, allocator
    passes, traced = [], []
    tracer = Tracer() if args.trace else None
    t_loop = time.perf_counter()
    while True:
        pas = run_pass(jobs, out_dir, reference)
        pas["files"] = snapshot(out_dir)
        passes.append(pas)
        if tracer:
            tracer.install()
            try:
                tpas = run_pass(jobs, out_dir, reference, tracer)
            finally:
                tracer.restore()
            tfiles = snapshot(out_dir)
            for job in jobs:
                jid = job["id"]
                same = job_digests(job, tfiles) == job_digests(job, pas["files"])
                if not (same and tpas["values"][jid] == pas["values"][jid]):
                    tpas["ok"][jid] = False
                    tpas["differs"] = True
            spans = at_reference_speed(tracer.spans, list(tpas["slowdown"].values()))
            tpas["layers"] = layer_metrics(spans, tracer.counts)
            roots = [i for i, sp in enumerate(spans) if sp[3] < 0]
            tpas["self"] = dict(zip(tpas["jobs"], self_times(spans, roots)))
            del tpas["values"]
            traced.append(tpas)
            tracer.reset()
        if time.perf_counter() - t_loop >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems, extra = check_passes(jobs, passes, design, args.seed)
    # A traced pass is paired with the untraced pass before it: its outputs
    # are byte-identical to that pass's, so they share its check results.
    failed += [{j: bad or not t["ok"][j] for j, bad in f.items()} for f, t in zip(failed, traced)]
    attempted = len(jobs) * (len(passes) + len(traced))
    if any(t.get("differs") for t in traced):
        problems.append("traced outputs differ from untraced outputs")
    result = {
        "inputs": jobs,
        "passes": [{k: p[k] for k in ("pass_s", "jobs", "wall", "slowdown")} for p in passes],
        "traced": [{k: t[k] for k in ("pass_s", "jobs", "wall", "slowdown", "self", "layers")}
                   for t in traced],
        "out_bytes": sum(f["size"] for f in passes[0]["files"].values()),
        "attempted": attempted,
        "failed": sum(sum(f.values()) for f in failed),
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": sys.version.split()[0], "numpy": np.__version__, "latdir": ld.__version__
        },
        **extra,
    }
    (args.run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
