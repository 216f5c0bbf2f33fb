"""Command-line front end: reproducible experiments with CSV/JSON output.

Each command takes only the options it reads, and refuses any other with
exit 2.  The four that draw random samples, ``limit-sample``,
``limit-moments``, ``tails`` and ``siegel``, take ``--seed`` and record it
in their output; the other seven are deterministic.  CSV files start with
a comment header ``# latdir v<version>, seed=<seed>, cmd=<command line>``,
with ``seed=none`` for a deterministic command, so runs are
self-describing.  Exit codes: 0 success, 2 invalid input or an unreadable
or unwritable file, 3 capacity.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import re
import shlex
import sys
from fractions import Fraction

import numpy as np

from . import __version__, lattice
from .diophantine import (
    CBRT2,
    CBRT4,
    GOLDEN,
    SQRT2,
    dioph_scan,
    rational_divergence_probe,
)
from .errors import CapacityError, LatdirError
from .escape import horocycle_escape_integral
from .lattice import (
    AffineLatticeSpec,
    Annulus,
    DomainShape,
    Mat2,
    Square,
    _check_budget,
    direction_stream,
    expected_count,
    lattice_from_json,
)
from .limit import (
    exact_limit_moment,
    sample_count_distribution,
    siegel_average,
    tail_exponent,
)
from .stats import (
    IntervalBox,
    MeasureSpec,
    MomentSpec,
    mixed_moment,
    pair_correlation,
    spacing_histogram,
)

CONSTANTS = {"cbrt2": CBRT2, "cbrt4": CBRT4, "sqrt2": SQRT2, "golden": GOLDEN}

# rows per formatted block of a CSV body: bounds the text held in memory, and
# keeps a block's arrays small enough to be reused from block to block.  A
# block's "%.17g" slot is cut past the leading NULs all its rows share; in a
# sorted column the zeros after the point change only at the decade edges, so
# only a block that crosses one keeps leading NULs to delete
_CSV_CHUNK_ROWS = 16_384


def _digit_quads():
    """``"%04d" % i`` for i < 10**4 as native uint32s of ASCII digits, then with trailing '0's as NULs."""
    digits = (np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    trailing = np.cumprod(digits[:, ::-1] == ord("0"), axis=1, dtype=bool)[:, ::-1]
    return np.concatenate([digits, np.where(trailing, 0, digits)]).view(np.uint32)[:, 0]


# _g17 looks up the quad of digits i at i, or at 10**4 + i while every digit
# to its right is a trailing zero, which "%.17g" drops: 0 gives four NULs
_DIGIT_QUADS = _digit_quads()
# word 0 of a slot, for z = 0..3 zeros after the point: 5 - z NULs, "0.", the
# z zeros and a '0' that the lead digit is added to, as one native uint64.  A
# block whose rows have at most z zeros has NULs in its first 5 - z columns
_FIXED_PREFIX = np.frombuffer(
    b"".join(("0." + "0" * z).rjust(7, "\0").encode() + b"0" for z in range(4)), np.uint64
)


def _split(a):
    """Veltkamp's split a = hi + lo, each half of at most 26 significant bits."""
    t = a * 134_217_729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


# rows 10^(17 + z), an exact double, and its two halves, for z = 0..3 zeros after the point
_POW10 = np.array([1e17, 1e18, 1e19, 1e20])
_POW10 = np.vstack([_POW10, *_split(_POW10)])


def parse_real(tok: str) -> float:
    """Real number, fraction p/q, or one of the symbolic constants."""
    t = tok.strip()
    sign = 1.0
    if t.startswith("-"):
        sign, t = -1.0, t[1:]
    elif t.startswith("+"):
        t = t[1:]
    if t.lower() in CONSTANTS:
        return sign * CONSTANTS[t.lower()]
    if "/" in t:
        return sign * float(_ratio(t))
    return sign * float(t)


def _ratio(tok: str) -> Fraction:
    """The exact fraction p/q; a zero q is a ValueError that names the token."""
    num, den = (int(x) for x in tok.split("/", 1))
    if den == 0:
        raise ValueError(f"zero denominator in {tok!r}")
    return Fraction(num, den)


def parse_count(s: str) -> int:
    """A count such as 100000 or 1e6; inf, nan and 1e400 (inf as a float) are a ValueError."""
    x = float(s)
    if not np.isfinite(x):
        raise ValueError(f"count {s!r} is not finite")
    return int(x)


def parse_reals(s: str, n: int | None = None):
    vals = [parse_real(t) for t in s.split(",") if t.strip()]
    if n is not None and len(vals) != n:
        raise ValueError(f"expected {n} comma-separated values, got {len(vals)}")
    return vals


def parse_fractions(s: str):
    out = []
    for t in s.split(","):
        t = t.strip()
        out.append(_ratio(t) if "/" in t else Fraction(int(t)))
    return out


def parse_interval(s: str):
    a, b = s.split(":")
    return (parse_real(a), parse_real(b))


def parse_bins(s: str) -> np.ndarray:
    lo, hi, step = (parse_real(t) for t in s.split(":"))
    if not np.all(np.isfinite((lo, hi, step))):
        raise ValueError(f"bin spec {s!r} needs a finite lo, hi and step")
    if step <= 0 or hi <= lo:
        raise ValueError(f"bad bin spec {s!r}")
    steps = (hi - lo) / step
    if not np.isfinite(steps):
        raise ValueError(f"bin spec {s!r} has no finite number of steps")
    n = int(round(steps))
    if n + 1 > lattice.DEFAULT_MAX_POINTS:  # the budget as the module holds it at the call
        raise ValueError(f"bin spec {s!r} needs {n + 1:.6g} edges, more than {lattice.DEFAULT_MAX_POINTS}")
    if n < 1 or abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
        raise ValueError(f"bin range {s!r} is not a whole number of steps")
    return lo + step * np.arange(n + 1)

def parse_complex_list(s: str):
    """Comma-separated finite complex numbers; a trailing i or j is the imaginary unit."""
    out = []
    for t in s.split(","):
        t = t.strip()
        try:
            z = complex(t[:-1] + "j" if t.endswith(("i", "I")) else t)
        except ValueError:
            raise ValueError(f"exponent {t!r} is not a complex number") from None
        if not cmath.isfinite(z):
            raise ValueError(f"exponent {t!r} must be finite")
        out.append(z)
    return out


def parse_shape(s: str) -> DomainShape:
    t = s.strip().lower()
    if t == "square":
        return Square()
    if t == "annulus":
        return Annulus(0.0)
    if t.startswith("annulus:"):
        return Annulus(parse_real(t.split(":", 1)[1]))
    raise ValueError(f"unknown shape {s!r}")


def parse_krange(s: str) -> range:
    """A single k or a range lo..hi, as a range; empty or k < 1 is a ValueError."""
    lo, _, hi = s.partition("..")
    ks = range(int(lo), int(hi or lo) + 1)
    if not ks or ks[0] < 1:
        raise ValueError(f"--k {s!r} must be k or lo..hi with 1 <= lo <= hi")
    return ks


def _is_negative_value(tok: str) -> bool:
    """'-1:2', '-cbrt4,cbrt2', '-inf' or '-1+2i': a value, not a flag."""
    if not tok.startswith("-"):
        return False
    try:
        parse_real(re.split("[,:]", tok, maxsplit=1)[0])
        return True
    except ValueError:
        return tok[1:2].isdigit() or tok[1:2] == "."  # complex exponents such as -1+2i


def _merge_negative_values(argv):
    """Join '--flag -1:2' into '--flag=-1:2' so argparse keeps the value."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_negative_value(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _lattice_from_args(args):
    if args.spec_json:
        with open(args.spec_json, encoding="utf-8") as fh:
            return lattice_from_json(fh.read())
    basis = Mat2.from_array(np.array(parse_reals(args.basis, 4)).reshape(2, 2))
    xi = parse_reals(args.xi, 2)
    shape = parse_shape(args.shape)
    return AffineLatticeSpec(basis, (xi[0], xi[1])), shape, args.T


def _stream_from_args(args):
    """The direction stream of the lattice flags or --spec-json: what the four lattice commands read."""
    return direction_stream(*_lattice_from_args(args))


class _Out:
    """Output sink: stdout, or --out written through a temporary sibling file.

    ``write`` takes text or UTF-8 bytes: the file is binary and gets CSV
    rows as formatted, stdout (any text stream) gets text.  The temporary
    file replaces --out only when the block exits cleanly; on any exception
    it is deleted, so a failed run leaves neither a partial file nor a
    clobbered earlier one.
    """

    def __init__(self, path):
        self.path = path
        self.tmp = f"{path}.{os.getpid()}.tmp"

    def __enter__(self):
        self.fh = open(self.tmp, "wb") if self.path else sys.stdout
        return self

    def write(self, data):
        data = data.encode() if isinstance(data, str) else data
        self.fh.write(data if self.path else data.decode())

    def __exit__(self, exc_type, *exc):
        if not self.path:
            return False
        renamed = False
        try:
            self.fh.close()
            if exc_type is None:
                os.replace(self.tmp, self.path)
                renamed = True
        finally:
            if not renamed:
                os.unlink(self.tmp)
        return False


def _header(args) -> str:
    """The CSV comment line: version, the seed of a sampling command (else none) and the argv."""
    cmd = shlex.join(args._argv)
    return f"# latdir v{__version__}, seed={getattr(args, 'seed', 'none')}, cmd={cmd}"


def _g17(x, out):
    """Write ``"%.17g" % v`` for each float v of x into a slot; return the slot's cut column.

    ``out`` is one field's slot of a block, (n, 4) native uint64, whose
    first three words, 24 bytes, take a row's text.  A value in [1e-4, 1),
    which every direction angle is in practice, takes an exact float path.
    With z zeros after the point, the 17 digits are
    D = round_half_even(x P) for P = 10^(17 + z), an exact double.  Dekker's
    product with Veltkamp's split (Numer. Math. 18, 1971) gives x P = hi + lo
    exactly, hi = fl(x P).  As x P > 10^16 > 2^53, hi is an even integer,
    and |lo| <= ulp(hi) / 2 <= 8 since x P < 2^57.  As x >= 2^-14 and 2^17
    divides P, lo is a multiple of 2^-49, so its floor and fraction are
    exact and so is rint(lo), which rounds half to even; hi being even,
    D = hi + rint(lo).  D < 10^17 always: the largest doubles below 1, 0.1,
    0.01 and 0.001 lie at least 8e-17 of the power below it, far more than
    the 5e-18 that would round up into an 18th digit.  The three words are
    written in place, right-aligned: 5 - z NULs, "0.", z zeros and D,
    whose trailing zeros are NULs, as their quads are looked up among
    those with trailing NULs.  Any other value (zero, negative, exponent
    form, subnormal, inf or nan) is formatted by Python and written
    left-aligned by ``_put_text``.  The decade is decided once per chunk
    where it can be: when the least and the greatest value of x lie in one
    decade of [1e-4, 1), so does every value between them, and the chunk
    takes its z, its prefix word and its power from those two values, with
    no per-value test.  Any other chunk decides each value alone.

    The cut column is 5 - (the most zeros after the point of any row), the
    number of leading columns that are NUL in every row, or 0 when some row
    was formatted by Python.
    """
    x = np.asarray(x, dtype=np.float64)
    ends = np.array([x.min(), x.max()])
    zeros = _zeros_after_point(ends)
    # a chunk of one decade, as all but a few chunks of a sorted column are; a NaN makes both
    # ends NaN, which fails the test
    if 1e-4 <= ends[0] and ends[1] < 1.0 and zeros[0] == zeros[1]:
        a, zeros, slow = x, zeros[0], ()
        p, ph, pl = _POW10[:, zeros]
    else:
        fast = (x >= 1e-4) & (x < 1.0)
        a = np.where(fast, x, 0.5)
        zeros = _zeros_after_point(a)
        p, ph, pl = _POW10.take(zeros, axis=1)
        slow = np.flatnonzero(~fast)
    top = int(zeros.max())
    ah, al = _split(a)
    hi = a * p
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    text, quads = out.view(np.uint8), out.view(np.uint32)
    out[:, 0] = _FIXED_PREFIX.take(zeros)
    # four digits at a time from the right; the last quad is looked up among those with trailing
    # NULs, and only the rows where it reads 0000 carry that on to the quads before it
    upper = d // 10**4
    d -= upper * 10**4
    quads[:, 5] = _DIGIT_QUADS.take(d + 10**4)
    zero = np.flatnonzero(d == 0)
    rest, d = upper[zero], upper
    for j in (4, 3, 2):
        upper = d // 10**4
        d -= upper * 10**4
        quads[:, j] = _DIGIT_QUADS.take(d)
        d = upper
    trim = np.full(zero.size, 10**4)
    for j in (4, 3, 2):
        upper = rest // 10**4
        rest -= upper * 10**4
        quads[zero, j] = _DIGIT_QUADS.take(rest + trim)
        trim *= rest == 0
        rest = upper
    text[:, 7] += d.astype(np.uint8)  # the lead digit, never '0', ends every run of zeros
    if len(slow):
        _put_text(out, slow, [format(v, ".17g") for v in x[slow].tolist()])
        return 0
    return 5 - top


def _zeros_after_point(a):
    """How many zeros "%.17g" writes after the point of each value of a in [1e-4, 1): 0 to 3."""
    return (a < 0.1).astype(np.intp) + (a < 0.01) + (a < 0.001)


def _str_field(col, out):
    """Write ``str`` of each value of an integer column into a slot; its cut column is 0."""
    _put_text(out, slice(None), list(map(str, np.asarray(col).tolist())))
    return 0


def _put_text(out, rows, strings):
    """Write ASCII strings into the text of the given rows of a slot, left-aligned and NUL-padded."""
    raw = np.array(strings, dtype="S")
    if raw.itemsize > 24:
        raise ValueError(f"a CSV field of {raw.itemsize} characters is too wide")
    out.view(np.uint8)[rows, :24] = raw.astype("S24").view(np.uint8).reshape(-1, 24)


_FIELDS = {"{:.17g}": _g17, "{}": _str_field}


def _write_rows(fh, fmt, *columns):
    """One line ``fmt.format(*row)`` per row of the columns, in chunks, as bytes.

    ``fmt`` joins ``{:.17g}`` and ``{}`` fields with commas.  Each chunk is
    laid out in one uint64 row buffer, the same for every chunk, with an
    8-byte-aligned slot of four words per field: 24 bytes of NUL-padded
    text (the longest "%.17g" is -2.2250738585072014e-308; an int64 takes
    at most 20), then its comma or newline, then 7 bytes that are never
    read.  ``{:.17g}`` slots are filled in place by ``_g17``, which
    computes Python's exact digits in float arithmetic instead of one call
    per value; ``{}`` slots (small integer columns) by ``str``.  Each fill
    returns its cut column, before which every row of the slot is NUL.  The slots, cut there and taken
    through their separators, are one strided slice or one concatenation,
    and one ``bytes.replace`` deletes every NUL of it.  No field contains a
    NUL and the cut drops only NULs, so that leaves exactly the chunk's
    lines, as deleting every NUL of the whole buffer would.  The cut leaves
    few NULs for ``replace`` to find in a sorted column: the trailing zeros,
    in about one row in ten, and the leading NULs of a chunk that crosses a
    decade edge.
    """
    fills = [_FIELDS[field] for field in fmt.split(",")]
    buf = np.empty((min(len(columns[0]), _CSV_CHUNK_ROWS), 4 * len(fills)), np.uint64)
    text = buf.view(np.uint8)
    text[:, 24:-8:32] = ord(",")  # the fills write only the text, so one buffer serves every chunk
    text[:, -8] = ord("\n")
    for first in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        rows = slice(first, first + _CSV_CHUNK_ROWS)
        n = len(columns[0][rows])
        slots = [text[:n, 32 * i + fill(col[rows], buf[:n, 4 * i:4 * i + 4]):32 * i + 25]
                 for i, (fill, col) in enumerate(zip(fills, columns))]
        lines = slots[0] if len(slots) == 1 else np.concatenate(slots, axis=1)
        fh.write(lines.tobytes().replace(b"\0", b""))


def _write_histogram(path, args, hist):
    with _Out(path) as fh:
        fh.write(_header(args) + "\n")
        fh.write("bin_lo,bin_hi,density\n")
        _write_rows(fh, "{:.17g},{:.17g},{:.17g}", hist.bin_edges[:-1], hist.bin_edges[1:], hist.masses)


def _write_json(path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)  # NaN or inf is no JSON
    with _Out(path) as fh:
        fh.write(text + "\n")


def cmd_enumerate(args) -> int:
    dirs = _stream_from_args(args)
    with _Out(args.out) as fh:
        fh.write(_header(args) + "\n")
        fh.write("alpha\n")
        for sector in dirs.chunks():  # each written as it is formed: no direction set is held
            _write_rows(fh, "{:.17g}", sector)
    print(f"enumerate: N={dirs.N} directions at T={dirs.T} -> {args.out or 'stdout'}")
    return 0


def cmd_spacings(args) -> int:
    ks = parse_krange(args.k)
    dirs = _stream_from_args(args)
    _check_budget(expected_count(dirs.shape, dirs.T), "points expected about the domain's area")  # before N is solved
    if ks[-1] >= dirs.N:
        raise ValueError(f"--k {args.k!r} needs k < N = {dirs.N}")
    # every k in one sweep, with N per k checked against the budget, before the first file
    for k, hist in zip(ks, spacing_histogram(dirs, ks, parse_bins(args.bins))):
        if args.out and len(ks) > 1:
            stem, dot, suffix = args.out.rpartition(".")
            path = f"{stem}_k{k:02d}.{suffix}" if dot else f"{args.out}_k{k:02d}"
        else:
            path = args.out
        _write_histogram(path, args, hist)
    print(f"spacings: N={dirs.N}, k={ks[0]}..{ks[-1]}, {len(ks)} histogram(s)")
    return 0


def cmd_paircorr(args) -> int:
    dirs = _stream_from_args(args)
    edges = parse_bins(args.bins)
    hist = pair_correlation(dirs, edges, fold=args.fold)
    _write_histogram(args.out, args, hist)
    dev = float(np.mean(np.abs(hist.masses - 1.0)))
    print(f"paircorr: N={dirs.N}, {hist.masses.size} bins, mean |density-1| = {dev:.4f}")
    return 0


def cmd_moments(args) -> int:
    dirs = _stream_from_args(args)
    box = _box_from_args(args)
    exps = parse_complex_list(args.s)
    spec = MomentSpec(tuple(exps), cap=args.K)
    lam = MeasureSpec.uniform(args.grid)
    # every window at every grid point from one sweep over the sectors, with no direction set
    val = mixed_moment(dirs, box, spec, lam, shifted=args.shifted)
    obj = {
        "s": [[z.real, z.imag] for z in exps],
        "K": args.K,
        "value_re": val.real,
        "value_im": val.imag,
        "shifted": bool(args.shifted),
    }
    _write_json(args.out, obj)
    print(f"moments: value = {val.real:.6f}{val.imag:+.6f}i (shifted={args.shifted})")
    return 0


def _box_from_args(args) -> IntervalBox:
    return IntervalBox(tuple(parse_interval(s) for s in args.I))


def _count_law(args):
    """The cone-count law of --c, --xi-class, --pq, --I and --n, drawn with --seed.

    --pq goes to the sampler whenever it is given, which refuses it outside
    the rational class.
    """
    kw = {}
    if args.pq:
        p1, p2, q = (int(t) for t in args.pq.split(","))
        kw = {"p": (p1, p2), "q": q}
    elif args.xi_class == "rational":
        raise LatdirError("rational class needs --pq p1,p2,q")
    rng = np.random.default_rng(args.seed)
    return sample_count_distribution(args.c, args.xi_class, _box_from_args(args), args.n, rng, **kw)


def cmd_limit_sample(args) -> int:
    dist = _count_law(args)
    m = dist.rows.shape[1]
    with _Out(args.out) as fh:
        fh.write(_header(args) + "\n")
        fh.write(",".join(f"k{j + 1}" for j in range(m)) + ",count\n")
        _write_rows(fh, ",".join(["{}"] * (m + 1)), *dist.rows.T, dist.counts)
    mean = dist.moment([1.0] + [0.0] * (m - 1))
    print(f"limit-sample: n={args.n}, classes={len(dist.rows)}, mean k1 = {mean.estimate:.4f}")
    return 0


def cmd_limit_moments(args) -> int:
    powers = parse_reals(args.powers)
    exact = exact_limit_moment(powers, _box_from_args(args))  # the powers are checked before any draw
    dist = _count_law(args)
    heavy_at = 1.5 if args.xi_class in ("integer", "rational") else 2.0
    if sum(powers) >= heavy_at:
        res = dist.moment_mom(powers)
        method = "median_of_means"
    else:
        res = dist.moment(powers)
        method = "mean"
    obj = {
        "estimate": res.estimate,
        "se": res.se,
        "exact": exact,
        "n": args.n,
        "seed": args.seed,
        "powers": powers,
        "method": method,
    }
    _write_json(args.out, obj)
    print(f"limit-moments: {res.estimate:.5f} +- {res.se:.5f} (exact {exact}, {method})")
    return 0


def cmd_tails(args) -> int:
    slope = tail_exponent(_count_law(args), args.kmin)
    obj = {
        "slope": slope,
        "k_min": args.kmin,
        "n": args.n,
        "seed": args.seed,
        "xi_class": args.xi_class,
    }
    _write_json(args.out, obj)
    print(f"tails: slope = {slope:.3f} ({args.xi_class} class, n={args.n})")
    return 0


def cmd_siegel(args) -> int:
    rng = np.random.default_rng(args.seed)
    res = siegel_average(args.which, args.n, rng)
    obj = {
        "estimate": res.estimate,
        "se": res.se,
        "exact": res.exact,
        "n": res.n,
        "seed": args.seed,
        "which": args.which,
    }
    _write_json(args.out, obj)
    print(f"siegel {args.which}: {res.estimate:.6f} +- {res.se:.6f} (exact {res.exact:.6f})")
    return 0


def cmd_cusp_sum(args) -> int:
    xi = parse_reals(args.xi, 2)
    M = Mat2.from_array(np.array(parse_reals(args.basis, 4)).reshape(2, 2))
    support = parse_interval(args.support)
    Rs = parse_reals(args.R)
    vs = parse_reals(args.v)
    rows = []
    for R in Rs:
        for v in vs:
            val = horocycle_escape_integral(
                M, xi, args.beta, R, v, support, n_quad=args.n_quad
            )
            rows.append((R, v, val))
    with _Out(args.out) as fh:
        fh.write(_header(args) + "\n")
        fh.write("R,v,integral\n")
        _write_rows(fh, "{:.17g},{:.17g},{:.17g}", *np.array(rows, dtype=float).reshape(-1, 3).T)
    print(f"cusp-sum: {len(rows)} (R, v) points, beta={args.beta}")
    return 0


def cmd_dioph(args) -> int:
    xi = parse_fractions(args.xi) if args.exact else parse_reals(args.xi, 2)
    report = dioph_scan(xi, args.kappa, args.radius)
    obj = {
        "kappa": report.kappa,
        "radius": report.search_radius,
        "min_value": report.min_value,
        "argmin": list(report.argmin),
    }
    _write_json(args.out, obj)
    print(f"dioph: min = {report.min_value:.6g} at r={report.argmin[:2]}, m={report.argmin[2]}")
    return 0


def cmd_singular_probe(args) -> int:
    xi = parse_fractions(args.xi)
    r = [int(t) for t in args.r.split(",")]
    Ts = parse_reals(args.T_list)
    counts = rational_divergence_probe(xi, r, args.eps, Ts, c=args.c)
    with _Out(args.out) as fh:
        fh.write(_header(args) + "\n")
        fh.write("T,count\n")
        _write_rows(fh, "{:.17g},{}", np.array(Ts, dtype=float), np.array(counts, dtype=np.int64))
    print(f"singular-probe: counts {counts} at T={Ts}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latdir",
        description="Fine-scale statistics of directions in affine planar lattices.",
    )
    parser.add_argument("--version", action="version", version=f"latdir {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="output path (default: stdout)")

    def add_lattice_flags(p):
        p.add_argument("--xi", default="0,0", help="shift vector, e.g. cbrt4,cbrt2 or 1/2,1/2")
        p.add_argument("--basis", default="1,0,0,1", help="row-major basis a,b,c,d (det 1)")
        p.add_argument("--shape", default="annulus:0", help="annulus[:c] or square")
        p.add_argument("--T", type=parse_real, default=1000.0)
        p.add_argument("--spec-json", help="JSON file with basis/shift/shape/T")
        add_common(p)

    p = sub.add_parser("enumerate", help="emit the sorted direction angles as CSV")
    add_lattice_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("spacings", help="k-th neighbor spacing histograms")
    add_lattice_flags(p)
    p.add_argument("--k", default="1", help="single k or a range like 1..15")
    p.add_argument("--bins", default="0:6:0.1")
    p.set_defaults(func=cmd_spacings)

    p = sub.add_parser("paircorr", help="two-point correlation histogram")
    add_lattice_flags(p)
    p.add_argument("--bins", default="-10:10:0.5")
    p.add_argument("--fold", action="store_true", help="histogram |difference| instead")
    p.set_defaults(func=cmd_paircorr)

    p = sub.add_parser("moments", help="mixed window-count moments")
    add_lattice_flags(p)
    p.add_argument("--I", action="append", required=True, help="interval a:b (repeatable)")
    p.add_argument("--s", default="1", help="comma-separated exponents, complex as re+imi")
    p.add_argument("--K", type=int, default=None, help="restrict to max count <= K")
    p.add_argument("--shifted", action="store_true", help="use the (count+1) convention")
    p.add_argument("--grid", type=int, default=20_001)
    p.set_defaults(func=cmd_moments)

    def add_limit_flags(p):
        add_common(p)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--c", type=parse_real, default=0.0)
        p.add_argument("--xi-class", choices=("integer", "rational", "irrational"),
                       default="irrational", dest="xi_class")
        p.add_argument("--pq", help="p1,p2,q for the rational class")
        p.add_argument("--I", action="append", required=True)
        p.add_argument("--n", type=parse_count, default=100_000)

    p = sub.add_parser("limit-sample", help="Monte Carlo law of cone counts")
    add_limit_flags(p)
    p.set_defaults(func=cmd_limit_sample)

    p = sub.add_parser("limit-moments", help="moments of the limiting counts")
    add_limit_flags(p)
    p.add_argument("--powers", default="1")
    p.set_defaults(func=cmd_limit_moments)

    p = sub.add_parser("tails", help="tail exponent of the limiting counts")
    add_limit_flags(p)
    p.add_argument("--kmin", type=int, default=5)
    p.set_defaults(func=cmd_tails)

    p = sub.add_parser("siegel", help="Gaussian lattice-sum mean values")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--which", choices=("classic", "affine_pair"), default="classic")
    p.add_argument("--n", type=parse_count, default=100_000)
    p.set_defaults(func=cmd_siegel)

    p = sub.add_parser("cusp-sum", help="horocycle averages of the cusp sum")
    add_common(p)
    p.add_argument("--xi", default="0,0")
    p.add_argument("--basis", default="1,0,0,1")
    p.add_argument("--beta", type=parse_real, default=0.9)
    p.add_argument("--R", default="2,8,32", help="comma-separated cutoffs")
    p.add_argument("--v", default="1e-2,1e-3,1e-4", help="comma-separated heights")
    p.add_argument("--support", default="-1:1")
    p.add_argument("--n-quad", type=int, default=4096, dest="n_quad")
    p.set_defaults(func=cmd_cusp_sum)

    p = sub.add_parser("dioph", help="Diophantine-type scan")
    add_common(p)
    p.add_argument("--xi", required=True)
    p.add_argument("--kappa", type=parse_real, default=2.0)
    p.add_argument("--radius", type=int, default=100)
    p.add_argument("--exact", action="store_true", help="treat xi entries as exact fractions")
    p.set_defaults(func=cmd_dioph)

    p = sub.add_parser("singular-probe", help="linear count growth along a rational direction")
    add_common(p)
    p.add_argument("--xi", required=True, help="exact rational shift, e.g. 1/2,1/2")
    p.add_argument("--r", required=True, help="integer direction r1,r2")
    p.add_argument("--eps", type=parse_real, default=0.5)
    p.add_argument("--c", type=parse_real, default=0.0)
    p.add_argument("--T-list", default="250,500,1000", dest="T_list")
    p.set_defaults(func=cmd_singular_probe)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _merge_negative_values(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = argv
    try:
        return args.func(args)
    except (CapacityError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (LatdirError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
