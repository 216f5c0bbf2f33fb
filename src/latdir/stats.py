"""Finite-scale observables of a direction sequence.

Window counts, k-th neighbor spacing histograms, the two-point correlation
of scaled direction differences, mixed moments against a measure on the
circle, and an exact two-window pair statistic.

All operations are read-only over a DirectionSet, whose ``alphas`` array is
sorted.  Window counts reduce to binary searches.  The d-th neighbour
differences alpha_{j+d} - alpha_j of all j are one contiguous offset pass
over two slices of that array (``_cyclic_gaps``): spacings take one such
pass, and the two-point correlation takes one per d while more than a
quarter of the j still have their d-th neighbour within the bins' reach,
then gathers only those j.  Mixed moments evaluate window counts on the
measure's quadrature grid.  The pair statistic is an exact event
sweep instead: as the window slides around the circle its count changes by
+-1 at the shifted directions A_j - b/N and A_j - a/N, so one sort of those
breakpoints and a cumulative sum give the piecewise-constant integrand on
every segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .lattice import DirectionSet, _frac


@dataclass(frozen=True)
class IntervalBox:
    """Product of bounded intervals used as test windows."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise InvalidInputError("need at least one interval")
        for a, b in ivs:
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise InvalidInputError(f"bad interval ({a}, {b})")

    @property
    def m(self) -> int:
        return len(self.intervals)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([b - a for a, b in self.intervals])


def as_box(box) -> IntervalBox:
    if isinstance(box, IntervalBox):
        return box
    if np.ndim(box) == 1 and len(box) == 2:
        return IntervalBox((tuple(box),))
    return IntervalBox(tuple(tuple(iv) for iv in box))


@dataclass(frozen=True)
class MeasureSpec:
    """Probability measure on the circle given by a continuous density.

    The density is evaluated on a uniform grid of ``quadrature_points``;
    the grid must integrate it to 1 within 1e-6.
    """

    density: Callable
    quadrature_points: int = 20_001

    def __post_init__(self):
        if self.quadrature_points < 2:
            raise InvalidInputError("quadrature_points must be at least 2")
        total = float(np.sum(self.weights()))
        if abs(total - 1.0) > 1e-6:
            raise InvalidInputError(f"density integrates to {total}, not 1")

    @classmethod
    def uniform(cls, quadrature_points: int = 20_001) -> "MeasureSpec":
        return cls(lambda a: np.ones_like(np.asarray(a, dtype=float)), quadrature_points)

    def grid(self) -> np.ndarray:
        n = self.quadrature_points
        return np.arange(n, dtype=float) / n

    def weights(self) -> np.ndarray:
        g = self.grid()
        return np.asarray(self.density(g), dtype=float) / self.quadrature_points


@dataclass(frozen=True)
class MomentSpec:
    """Moment exponents s = (s_1, ..., s_m), optionally capped at count K."""

    exponents: tuple[complex, ...]
    cap: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(complex(s) for s in self.exponents))
        if self.cap is not None and self.cap < 0:
            raise InvalidInputError("cap must be nonnegative")

    @property
    def positive_real_sum(self) -> float:
        return float(sum(max(s.real, 0.0) for s in self.exponents))

    def requires_diophantine(self) -> bool:
        """True when convergence of the uncapped moment needs a shift of
        Diophantine type (positive real parts sum to 2 or more)."""
        return self.positive_real_sum >= 2.0


@dataclass(frozen=True, eq=False)
class Histogram:
    """Bin edges plus per-bin masses; ``normalization`` is density or count."""

    bin_edges: np.ndarray
    masses: np.ndarray
    normalization: str = "density"

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "masses", masses)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise InvalidInputError("bin edges must be strictly increasing")
        if masses.shape != (edges.size - 1,):
            raise InvalidInputError("need one mass per bin")

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    def total_mass(self) -> float:
        if self.normalization == "density":
            return float(np.sum(self.masses * self.widths))
        return float(np.sum(self.masses))


def window_counts(dirs: DirectionSet, interval, alphas) -> np.ndarray:
    """Number of directions in the shrunk window N^-1 * interval + alpha.

    The window is the half-open arc [alpha + a/N, alpha + b/N) on the
    circle; wrap-around is handled, and a window of length >= 1 returns N.
    Vectorized over ``alphas``.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise InvalidInputError(f"bad interval ({a}, {b})")
    N = dirs.N
    if N == 0:
        raise InvalidInputError("empty direction set")
    al = np.asarray(alphas, dtype=float)
    width = (b - a) / N
    if width >= 1.0:
        return np.full(al.shape, N, dtype=np.int64)
    A = dirs.alphas
    lo = _frac(al + a / N)
    hi = lo + width
    below = np.searchsorted(A, lo, side="left")
    wraps = hi > 1.0
    cnt = np.where(
        wraps,
        (N - below) + np.searchsorted(A, np.where(wraps, hi - 1.0, 0.0), side="left"),
        np.searchsorted(A, np.where(wraps, 1.0, hi), side="left") - below,
    )
    return cnt.astype(np.int64)


def counting_stat(dirs: DirectionSet, interval, alpha: float) -> int:
    """Scalar window count at a single circle position."""
    return int(window_counts(dirs, interval, np.array([alpha]))[0])


def spacing_histogram(dirs: DirectionSet, k: int, edges) -> Histogram:
    """Histogram of scaled k-th neighbor spacings N*(alpha_{j+k} - alpha_j).

    Spacings are cyclic (the last entries wrap past 1) and the histogram is
    density-normalized so the in-range mass is 1.  The spacings are one
    contiguous offset pass (``_cyclic_gaps``); those outside
    [edges[0], edges[-1]] are dropped before binning, and the rest are
    binned as ``np.histogram`` bins them (last bin closed), so the counts
    are the same.
    """
    N = dirs.N
    if not 1 <= k < N:
        raise InvalidInputError(f"need 1 <= k < N, got k={k}, N={N}")
    scaled = _cyclic_gaps(dirs.alphas, k, np.empty(N))
    scaled *= N
    edges = np.asarray(edges, dtype=float)
    counts, _ = _bin_sums(scaled[(scaled >= edges[0]) & (scaled <= edges[-1])], edges, None, False)
    total = counts.sum()
    widths = np.diff(edges)
    masses = counts / (total * widths) if total > 0 else np.zeros(counts.shape)
    return Histogram(edges, masses, "density")


def _cyclic_gaps(A, d, out):
    """out[j] = alpha_{j+d} - alpha_j for every j, the last d wrapping past 1.

    Bit for bit ``concat(A, A + 1)[j + d] - A[j]``, from contiguous slices of
    A: no index array, no gather, no doubled copy of A.
    """
    n = A.size - d
    np.subtract(A[d:], A[:n], out=out[:n])
    np.add(A[:d], 1.0, out=out[n:])
    np.subtract(out[n:], A[n:], out=out[n:])
    return out


def _ahead(A, idx):
    """Entries ``idx`` (sorted, in [0, 2N)) of concat(A, A + 1), without building it."""
    out = A.take(idx, mode="wrap")
    out[np.searchsorted(idx, A.size):] += 1.0
    return out


_HIST_BLOCK = 65536


def _bin_sums(vals, edges, weights, mirrored: bool):
    """``np.histogram(vals, edges, weights=weights)[0]`` and, if ``mirrored``, that of -vals.

    Each block of _HIST_BLOCK values is sorted once.  Bins are [e_i, e_{i+1})
    with the last one closed, as in np.histogram, so the values below each
    edge end at a left search (a right one at the last edge).  Since -v < e
    means v > -e, the -vals below each edge are the values above -e: those
    from a right search at -e (a left one at the last edge) to the end of
    the block.  Without ``mirrored`` the second result is None.
    """
    cut = edges[:-1], edges[-1:]
    neg = -edges[:-1], -edges[-1:]
    zero = np.zeros(1)
    plus = np.zeros(edges.size, dtype=np.intp if weights is None else float)
    minus = np.zeros_like(plus)
    buf = np.empty(min(vals.size, _HIST_BLOCK))  # sorted in place: no allocation per block
    for i in range(0, vals.size, _HIST_BLOCK):
        block = vals[i : i + _HIST_BLOCK]
        if weights is None:
            sv = buf[: block.size]
            sv[:] = block
            sv.sort()
            cum = None
        else:
            order = np.argsort(block)
            sv = block[order]
            cum = np.concatenate((zero, weights[i : i + _HIST_BLOCK][order].cumsum()))
        below = np.concatenate((sv.searchsorted(cut[0], "left"), sv.searchsorted(cut[1], "right")))
        plus += below if cum is None else cum[below]
        if mirrored:
            above = np.concatenate((sv.searchsorted(neg[0], "right"), sv.searchsorted(neg[1], "left")))
            minus += sv.size - above if cum is None else cum[-1] - cum[above]
    return np.diff(plus), (np.diff(minus) if mirrored else None)


def pair_correlation(
    dirs: DirectionSet,
    edges,
    density: Callable | None = None,
    fold: bool = False,
) -> Histogram:
    """Two-point correlation histogram of scaled direction differences.

    Counts ordered pairs j1 != j2 with N*(alpha_j1 - alpha_j2 + m) in each
    bin, divides by N and by the bin width.  Differences are signed; with
    ``fold=True`` each pair lands at its absolute difference instead (edges
    must then be nonnegative).  If ``density`` is given, every pair is
    weighted by 1/(rho(alpha_j1)*rho(alpha_j2)), which renormalizes a
    non-uniform direction density back to unit level.

    Implemented as neighbour passes over the sorted angles: pass d takes the
    differences alpha_{j+d} - alpha_j, keeps those within the bins' reach,
    and stops when none is left, so the cost is O(N * W) for bins inside
    [-W, W].  The kept j shrink from pass to pass (the difference grows with
    d).  While more than a quarter of them survive, a pass is one contiguous
    ``_cyclic_gaps`` over all j into one reused buffer; after that it
    gathers only the surviving j.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise InvalidInputError("bin edges must be strictly increasing")
    if fold and edges[0] < 0:
        raise InvalidInputError("folded histogram needs nonnegative edges")
    N = dirs.N
    if N < 2:
        raise InvalidInputError("need at least two directions")
    W = max(abs(edges[0]), abs(edges[-1]))
    if W >= N / 2:
        raise InvalidInputError(f"window reach {W} must be below N/2 = {N / 2}")
    A = dirs.alphas
    thresh = W / N
    counts = np.zeros(edges.size - 1)
    gaps = np.empty(N)
    near = np.empty(N, dtype=bool)
    active = None  # the surviving j once the passes gather; None while they are dense
    for d in range(1, N):
        if active is None:
            np.less_equal(_cyclic_gaps(A, d, gaps), thresh, out=near)
            vals = gaps[near]
            if 4 * vals.size < N:
                active = np.flatnonzero(near)
                del gaps, near
        else:
            diff = _ahead(A, active + d)
            diff -= A[active]
            keep = diff <= thresh
            active = active[keep]
            vals = diff[keep]
            del diff, keep
        if not vals.size:
            break
        vals *= N
        w = None
        if density is not None:
            j = np.flatnonzero(near) if active is None else active
            w = 1.0 / (np.asarray(density(A[j])) * np.asarray(density(_frac(_ahead(A, j + d)))))
        plus, minus = _bin_sums(vals, edges, w, mirrored=not fold)
        if fold:
            counts += 2.0 * plus
        else:
            counts += plus
            counts += minus
    masses = counts / (N * np.diff(edges))
    return Histogram(edges, masses, "density")


def _power(base: np.ndarray, s: complex) -> np.ndarray:
    # (k)^s with the principal log; 0^0 = 1, 0^s = 0 for s != 0.
    if s == 0:
        return np.ones(base.shape, dtype=complex)
    out = np.zeros(base.shape, dtype=complex)
    pos = base > 0
    out[pos] = np.exp(s * np.log(base[pos]))
    return out


def mixed_moment(
    dirs: DirectionSet,
    box,
    spec: MomentSpec,
    lam: MeasureSpec | None = None,
    shifted: bool = True,
) -> complex:
    """Quadrature of prod_j (count_j + 1)^{s_j} over the measure ``lam``.

    ``shifted=False`` drops the +1 offset and integrates the raw product
    prod_j count_j^{s_j}.  With ``spec.cap = K`` set, grid points where any
    window holds more than K directions are zeroed (restricted moment).
    The integrand is piecewise constant in alpha, so the uniform-grid error
    scales like N * |I| / quadrature_points.
    """
    box = as_box(box)
    if len(spec.exponents) != box.m:
        raise InvalidInputError("one exponent per interval required")
    lam = lam if lam is not None else MeasureSpec.uniform()
    grid = lam.grid()
    weights = lam.weights()
    offset = 1.0 if shifted else 0.0
    vals = np.ones(grid.shape, dtype=complex)
    max_count = np.zeros(grid.shape, dtype=np.int64)
    for interval, s in zip(box.intervals, spec.exponents):
        cnt = window_counts(dirs, interval, grid)
        np.maximum(max_count, cnt, out=max_count)
        vals *= _power(cnt + offset, s)
    if spec.cap is not None:
        vals = np.where(max_count <= spec.cap, vals, 0.0)
    return complex(np.sum(weights * vals))


def pair_correlation_integral(dirs: DirectionSet, interval1, interval2) -> float:
    """Exact circle average of the two-window ordered-pair count.

    Integrates, over the window position alpha, the number of ordered pairs
    j1 != j2 whose scaled differences place alpha_j1 in window 1 and
    alpha_j2 in window 2, i.e. n1 * n2 - n12 with n12 the number of
    directions in both windows.  A window of length >= N holds every
    direction, so n12 is then the other window's count.  Otherwise a
    direction lies in both windows through exactly one circle image
    (a2 + kN, b2 + kN) of window 2, and n12 sums the counts in the line
    overlaps (max(a1, a2 + kN), min(b1, b2 + kN)) that are non-empty; only
    k = 0 can be while the two windows together span less than N.

    Each count is a step function of alpha: direction A_j enters the window
    [alpha + a/N, alpha + b/N) at alpha = A_j - b/N and leaves it at
    A_j - a/N.  One sweep over the 4N sorted breakpoints takes cumulative
    sums of these +-1 events, anchored by one binary-search count on the
    longest segment; the overlap window's events are a subset of the same
    breakpoints, and a window with b - a >= N has no events (its count is
    constantly N).  The integral is the finite sum of segment length times
    integrand (no quadrature).
    """
    a1, b1 = float(interval1[0]), float(interval1[1])
    a2, b2 = float(interval2[0]), float(interval2[1])
    if not (a1 < b1 and a2 < b2):
        raise InvalidInputError("intervals must be nondegenerate")
    N = dirs.N
    if N == 0:
        raise InvalidInputError("empty direction set")
    # breakpoint blocks: 0 enters window 1, 1 leaves it, 2 and 3 likewise for window 2
    pts = np.empty(4 * N)
    for blk, e in zip(pts.reshape(4, N), (b1, a1, b2, a2)):
        _frac(np.subtract(dirs.alphas, e / N, out=blk), out=blk)
    order = np.argsort(pts, kind="stable")  # 8 presorted runs: each block is a rotation
    pts = pts[order]
    block = (order // N).astype(np.int8)
    del order
    lens = np.empty(pts.shape)
    lens[:-1] = np.diff(pts)
    lens[-1] = pts[0] + 1.0 - pts[-1]
    i = int(np.argmax(lens))  # lens[-1] > 0, so this segment has positive length
    mid = _frac(pts[i] + lens[i] / 2.0)

    def sweep(a, b, enter, leave):
        # count in [alpha + a/N, alpha + b/N) on every segment
        anchor = float(window_counts(dirs, (a, b), [mid])[0])
        if (b - a) / N >= 1.0:
            return anchor
        cum = np.cumsum(np.subtract(block == enter, block == leave, dtype=np.int8), dtype=float)
        cum += anchor - cum[i]
        return cum

    n1 = sweep(a1, b1, 0, 1)
    n2 = sweep(a2, b2, 2, 3)
    if (b1 - a1) / N >= 1.0:
        diag = n2
    elif (b2 - a2) / N >= 1.0:
        diag = n1
    else:
        diag = 0.0
        for k in range(math.floor((a1 - b2) / N), math.ceil((b1 - a2) / N) + 1):
            c2, d2 = a2 + k * N, b2 + k * N
            lo, hi = max(a1, c2), min(b1, d2)
            if lo < hi:  # the image has window 2's breakpoints, mod 1
                diag = diag + sweep(lo, hi, 0 if b1 <= d2 else 2, 1 if a1 >= c2 else 3)
    return float(np.sum(lens * (n1 * n2 - diag)))
