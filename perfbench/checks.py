"""Output checks, one per job kind, run outside the timed region.

Tolerances are the acceptance gate's (tests/test_acceptance.py), named by
criterion number.  Each check returns a list of problems; an empty list
means the output is correct.  References that cost a lattice enumeration
are computed once per run and cached.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

import numpy as np

import latdir as ld
from latdir import cli

# A tied direction pair of a rational shift may round to either side of a
# bin edge, so histograms of the same point set built from two bases agree
# only up to a few pairs per bin.
MAX_MOVED_PAIRS = 8


def parse_argv(argv):
    return cli.build_parser().parse_args(cli._merge_negative_values(list(argv)))


def output_names(argv) -> list[str]:
    """The files a CLI job writes, following cmd_spacings' naming rule."""
    args = parse_argv(argv)
    ks = cli.parse_krange(args.k) if args.command == "spacings" else [None]
    if len(ks) == 1:
        return [args.out]
    stem, dot, suffix = args.out.rpartition(".")
    return [f"{stem}_k{k:02d}.{suffix}" if dot else f"{args.out}_k{k:02d}" for k in ks]


def _rows(text):
    """Numeric CSV rows after the comment header and the column header."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# latdir v"):
        raise ValueError("missing '# latdir v...' header")
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]], dtype=float)


def _masses(text):
    return _rows(text)[:, 2]


def check_dioph(job, files, ctx):
    args = parse_argv(job["argv"])
    obj = json.loads(files[args.out]["text"])
    problems = []
    if obj["radius"] != args.radius or len(obj["argmin"]) != 3:
        problems.append(f"dioph: unexpected report {obj}")
    if not 0.0 < obj["min_value"] < math.inf:
        problems.append(f"dioph: min_value {obj['min_value']} is not positive")
    return problems


def check_enumerate(job, files, ctx):
    """Criterion 1: N within 0.5% of the leading-order count."""
    args = parse_argv(job["argv"])
    info = files[args.out]
    n = info["lines"] - 2
    expected = ld.expected_count(cli.parse_shape(args.shape), args.T)
    rel = abs(n / expected - 1.0)
    return [] if rel <= 0.005 else [f"enumerate: N={n}, rel dev {rel:.2e} > 0.005"]


def check_histograms(job, files, ctx):
    args = parse_argv(job["argv"])
    edges = cli.parse_bins(args.bins)
    problems = []
    for name in output_names(job["argv"]):
        rows = _rows(files[name]["text"])
        if rows.shape != (edges.size - 1, 3) or not np.all(np.isfinite(rows)):
            problems.append(f"{name}: malformed histogram")
        elif np.any(rows[:, 2] < 0):
            problems.append(f"{name}: negative density")
    return problems


def check_paircorr_poisson(job, files, ctx):
    """Criterion 2: density flat at level 1 on a Diophantine shift."""
    dev = np.abs(_masses(files[parse_argv(job["argv"]).out]["text"]) - 1.0)
    if dev.max() <= 0.15 and dev.mean() <= 0.05:
        return []
    return [f"paircorr: max dev {dev.max():.3f}, mean dev {dev.mean():.3f}"]


def mixed_moment_target(args) -> float:
    """E[N1 N2] of the limit law for two windows: |I1 & I2| + |I1| |I2|."""
    (a1, b1), (a2, b2) = (cli.parse_interval(s) for s in args.I)
    return max(0.0, min(b1, b2) - max(a1, a2)) + (b1 - a1) * (b2 - a2)


def check_moments(job, files, ctx):
    """Criterion 3: relative error of the second mixed moment at most 0.07."""
    args = parse_argv(job["argv"])
    if args.s != "1,1" or len(args.I) != 2:
        return [f"moments: check supports --s 1,1 with two windows, got {args.s}"]
    target = mixed_moment_target(args)
    rel = abs(json.loads(files[args.out]["text"])["value_re"] - target) / target
    ctx["moment_rel_err"] = rel
    return [] if rel <= 0.07 else [f"moments: rel dev {rel:.3f} > 0.07"]


@functools.lru_cache(maxsize=None)
def _cbrt_dirs(T):
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (ld.CBRT4, ld.CBRT2))
    shape = ld.Annulus(0.0)
    return ld.directions(ld.enumerate_points(lat, shape, T), T, shape)


def check_pair_integral(job, files, ctx):
    """Criterion 10: agreement with the overlap-sum oracle to 1e-9."""
    from oracles import pair_overlap_sum

    dirs = _cbrt_dirs(float(job["T"]))
    problems = []
    for (I1, I2), got in zip(job["pairs"], ctx["values"]):
        want = pair_overlap_sum(dirs, I1, I2)
        rel = abs(got - want) / max(1e-12, abs(want))
        if rel > 1e-9:
            problems.append(f"pair_integral {I1} {I2}: {got!r} vs oracle {want!r}")
    return problems


def _exact(tok):
    try:
        return Fraction(tok.strip())
    except ValueError:
        return cli.parse_real(tok)


@functools.lru_cache(maxsize=None)
def _skewed_reference(xi_text, basis_text, shape_text, T):
    """Directions of (Z^2 + xi) M0 and of the identity lattice shifted by xi M0.

    For an integer unimodular basis M0 both are the same point set, so the
    identity-basis enumeration is an independent reference for the skewed one.
    """
    from oracles import circular_match

    xi = [_exact(t) for t in xi_text.split(",")]
    g = [int(float(t)) for t in basis_text.split(",")]
    shift = (xi[0] * g[0] + xi[1] * g[2], xi[0] * g[1] + xi[1] * g[3])
    shift = tuple(float(s % 1) for s in shift)
    shape = cli.parse_shape(shape_text)
    skew = ld.AffineLatticeSpec(
        ld.Mat2.from_array(np.array(g, dtype=float).reshape(2, 2)), tuple(float(x) for x in xi)
    )
    plain = ld.AffineLatticeSpec(ld.Mat2.identity(), shift)
    a = ld.directions(ld.enumerate_points(skew, shape, T), T, shape)
    b = ld.directions(ld.enumerate_points(plain, shape, T), T, shape)
    return b, circular_match(a.alphas, b.alphas, 1e-9)


def check_skewed(job, files, ctx):
    """Skewed-basis histograms against the identity-basis enumeration of xi M0."""
    args = parse_argv(job["argv"])
    ref, dist = _skewed_reference(args.xi, args.basis, args.shape, args.T)
    if dist > 1e-9:
        return [f"{job['id']}: skewed directions off the identity-basis set by {dist:.2e}"]
    edges = cli.parse_bins(args.bins)
    if args.command == "paircorr":
        want = [ld.pair_correlation(ref, edges, fold=args.fold)]
    else:
        want = [ld.spacing_histogram(ref, k, edges) for k in cli.parse_krange(args.k)]
    problems = []
    for name, hist in zip(output_names(job["argv"]), want):
        got = _masses(files[name]["text"])
        moved = np.max(np.abs(got - hist.masses) * ref.N * hist.widths)
        if got.shape != hist.masses.shape or moved > MAX_MOVED_PAIRS:
            problems.append(f"{name}: {moved:.1f} pairs per bin off the identity-basis histogram")
    return problems


def check_singular_probe(job, files, ctx):
    """Criterion 9: counts double with T along the rational direction."""
    counts = _rows(files[parse_argv(job["argv"]).out]["text"])[:, 1]
    ratios = counts[1:] / counts[:-1]
    if np.all(np.abs(ratios - 2.0) <= 0.5):
        return []
    return [f"singular-probe: counts {counts.tolist()}, ratios {ratios.tolist()}"]


def check_limit_sample(job, files, ctx):
    args = parse_argv(job["argv"])
    rows = _rows(files[args.out]["text"])
    if rows.shape[1] != len(args.I) + 1 or int(rows[:, -1].sum()) != args.n:
        return [f"limit-sample: table of shape {rows.shape} does not hold {args.n} samples"]
    return []


def check_limit_moments(job, files, ctx):
    """Criterion 5: median-of-means second moment within 10% of 2."""
    obj = json.loads(files[parse_argv(job["argv"]).out]["text"])
    rel = abs(obj["estimate"] - obj["exact"]) / obj["exact"]
    return [] if rel <= 0.10 else [f"limit-moments: rel dev {rel:.3f} > 0.10"]


def check_tails(job, files, ctx):
    """Criterion 6: tail exponent within 0.3 of -2 (integer) or -3 (random shift)."""
    args = parse_argv(job["argv"])
    want = -3.0 if args.xi_class == "irrational" else -2.0
    slope = json.loads(files[args.out]["text"])["slope"]
    return [] if abs(slope - want) <= 0.3 else [f"tails: slope {slope:.3f}, want {want}"]


def check_siegel(job, files, ctx):
    """Criterion 7: estimate within 3 standard errors of the exact mean value."""
    obj = json.loads(files[parse_argv(job["argv"]).out]["text"])
    if abs(obj["estimate"] - obj["exact"]) <= 3.0 * obj["se"]:
        return []
    return [f"siegel {obj['which']}: {obj['estimate']} +- {obj['se']} vs {obj['exact']}"]


def check_cusp_sum(job, files, ctx):
    args = parse_argv(job["argv"])
    rows = _rows(files[args.out]["text"])
    n = len(cli.parse_reals(args.R)) * len(cli.parse_reals(args.v))
    if rows.shape != (n, 3) or not np.all(np.isfinite(rows)) or np.any(rows[:, 2] < 0):
        return [f"cusp-sum: expected {n} finite nonnegative rows, got shape {rows.shape}"]
    return []


CHECKS = {
    "dioph": check_dioph,
    "enumerate": check_enumerate,
    "histograms": check_histograms,
    "paircorr_poisson": check_paircorr_poisson,
    "moments": check_moments,
    "pair_integral": check_pair_integral,
    "skewed": check_skewed,
    "singular_probe": check_singular_probe,
    "limit_sample": check_limit_sample,
    "limit_moments": check_limit_moments,
    "tails": check_tails,
    "siegel": check_siegel,
    "cusp_sum": check_cusp_sum,
}


def check_job(job, files, ctx, digests) -> list[str]:
    """Digest comparison (where one is recorded) plus the job's own check."""
    problems = []
    names = output_names(job["argv"]) if "argv" in job else []
    missing = [n for n in names if n not in files]
    if missing:
        return [f"{job['id']}: missing output {missing}"]
    for name, want in (digests or {}).items():
        if files[name]["body_sha256"] != want:
            problems.append(f"{name}: body digest changed")
    try:
        problems += CHECKS[job["check"]](job, files, ctx)
    except (AttributeError, KeyError, ValueError, IndexError, TypeError) as exc:
        problems.append(f"{job['id']}: unreadable output ({type(exc).__name__}: {exc})")
    return problems
