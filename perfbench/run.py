"""latdir benchmark: one workload, end to end through latdir.cli.main.

    python3 perfbench/run.py --workload finite-scale --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts a fresh worker process
(perfbench/worker.py) with BLAS/OpenMP threads pinned to 1, in a temporary
directory under .perfbench_runs/ that is removed afterwards.  With
--trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer metrics of a traced run.
Job and setup times are reported at a fixed reference CPU speed, measured
around each job by speed.py; the report lines give wall times too.  The
lines before it are a readable report.  Exit code 0 means a result was
printed (its "correct" field says whether every output passed its check);
anything else means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from speed import allowed_cpus, pin_fastest, probe, slowdown, unpin

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, workers included


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def summary(values) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} (n={n}"
    if n > 10:
        pct = int(100 * (n - 10) / n)
        text += f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"
    return text + ")"


def run_worker(args, run_dir: Path, env, deadline, setup_only=False) -> float:
    """Run one worker to completion; returns its wall time from spawn to 'ready'."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--run-dir", str(run_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv + ["--setup-only"] * setup_only, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if rc != 0 or not ready:
        raise RuntimeError(f"worker exited with code {rc}")
    return setup_s


def best(passes, key) -> dict:
    """Each entry's smallest value over the passes."""
    return {k: min(p[key].get(k, 0) for p in passes) for k in passes[0][key]}


def typical(passes, key="jobs") -> dict:
    """Each entry's median over the passes."""
    return {k: statistics.median(p[key][k] for p in passes) for k in passes[0][key]}


def per_job_metrics(design, workload, job_s) -> dict:
    """Summed time of each job kind that has a metric name."""
    out = {}
    for job in design["workloads"][workload]["jobs"]:
        if "metric" in job:
            out[job["metric"]] = out.get(job["metric"], 0.0) + job_s[job["id"]]
    return out


def report(args, res, setups):
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} versions={res['versions']}")
    for job in res["inputs"]:
        extra = {k: job[k] for k in ("seed", "pairs") if k in job}
        what = " ".join(job["argv"]) if "argv" in job else f"library {job['library']}"
        print(f"  job {job['id']}: {what} {extra or ''}")
    if setups:
        print(f"  setup_s at reference speed: {summary([s for s, _ in setups])}; "
              f"wall {summary([s * f for s, f in setups])}")
    for label, passes in (("untraced", res["passes"]), ("traced", res["traced"])):
        if not passes:
            continue
        print(f"  {label} pass_s at reference speed: {summary([p['pass_s'] for p in passes])}, "
              f"sum of per-job medians {sum(typical(passes).values()):.4f}; wall "
              f"{summary([sum(p['wall'].values()) for p in passes])}")
        for jid in passes[0]["jobs"]:
            wall = [p["wall"][jid] for p in passes]
            slow = [p["slowdown"][jid] for p in passes]
            line = (f"    {jid}: {summary([p['jobs'][jid] for p in passes])}; wall "
                    f"{summary(wall)}, slowdown {min(slow):.2f}-{max(slow):.2f}")
            if "self" in passes[0]:
                own = statistics.median(p["self"][jid] for p in passes)
                share = own / statistics.median(p["jobs"][jid] for p in passes)
                line += f", outside traced layers {own:.4f} s ({share:.0%})"
            print(line)
    print(f"  checks: {res['attempted'] - res['failed']}/{res['attempted']} jobs passed")
    for p in res["problems"]:
        print(f"    FAILED {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still kills its worker and removes its directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    started = time.monotonic()
    for need in (ROOT / "src" / "latdir" / "__init__.py", ROOT / "tests" / "oracles.py",
                 ROOT / "BENCHMARK.json"):
        if not need.is_file():
            print(f"perfbench: {need.relative_to(ROOT)} not found; run from a latdir checkout",
                  file=sys.stderr)
            return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    design = load_json(HERE / "design.json")
    if args.workload not in design["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = design["default_seed"]
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    env = dict(os.environ, **design["thread_pins"])
    deadline = started + DEADLINE_S
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        run_worker(args, run_dir / "run", env, deadline)
        res = load_json(run_dir / "run" / "result.json")
        setups = []
        if not args.trace:
            # Each setup worker inherits the pin; the probes around it
            # measure the same CPU (see speed.py).
            cpus, reference = allowed_cpus(), design["speed_reference_s"]
            for i in range(SETUP_SAMPLES):
                pin_fastest(cpus)
                try:
                    before = probe()
                    wall = run_worker(args, run_dir / f"setup{i}", env, deadline, True)
                    slow = slowdown(before + probe(), reference)
                finally:
                    unpin(cpus)
                setups.append((wall / slow, slow))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass

    job_s = typical(res["passes"])
    pass_s = sum(job_s.values())
    if args.trace:
        traced_s = sum(typical(res["traced"]).values())
        values = {
            **best(res["traced"], "layers"),
            **per_job_metrics(design, args.workload, job_s),
            "pass_wall_s": sum(typical(res["passes"], "wall").values()),
            "slowdown": statistics.median(p["slowdown"][j] for p in res["passes"] for j in job_s),
            "traced_pass_s": traced_s,
            "trace_overhead_s": traced_s - pass_s,
            "cli.out_bytes": res["out_bytes"],
            "moment_rel_err": res.get("moment_rel_err", 0.0),
            "fail_ratio": res["failed"] / res["attempted"],
        }
        wanted = bench["per_layer"]
    else:
        values = {"setup_s": statistics.median(s for s, _ in setups), "pass_s": pass_s,
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = bench["end_to_end"]

    report(args, res, setups)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
