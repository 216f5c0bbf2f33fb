"""Finite-scale observables of a direction sequence.

Window counts, k-th neighbor spacing histograms, the two-point correlation
of scaled direction differences, mixed moments against a measure on the
circle, and an exact two-window pair statistic.

All operations are read-only over a DirectionSet, whose ``alphas`` array A
is sorted, so the lifted sequence L(k) = A[k mod N] + k div N is
nondecreasing.  Window counts are two binary searches on it.  Spacings
are one offset pass L(j + k) - L(j) over all j.  The two-point
correlation bins, and the pair statistic sums window overlaps over, the
same close pairs: the neighbour passes d = 1, 2, ... of ``_near_pairs``.
Mixed moments evaluate window counts on the measure's quadrature grid
(``_grid_moment``, which also takes the counts of
``lattice.count_in_window``).

Every pass is cache-blocked.  It walks j in blocks of ``_BLOCK`` = 2^16
(``_gap_blocks``: contiguous slices of A, the last d entries wrapping
past 1), and each block is filtered, scaled and binned (``_bin_sums``)
while it is in cache.  Once a neighbour pass keeps fewer than N/4 of the
j, the passes after it gather only the survivors, again 2^16 at a time.
So no pass allocates an N-long temporary: memory is O(2^16 + survivors)
beside the direction set.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, InvalidInputError
from .lattice import DirectionSet, _check_budget, _frac, _window_count

# Values that ``mixed_moment`` holds per quadrature point at its peak (about 13 measured): a
# ``MeasureSpec`` grid is checked against the budget at this weight.
GRID_VALUES = 16


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
    the grid must integrate it to 1 within 1e-6.  A grid whose
    ``GRID_VALUES`` values a point pass the budget raises CapacityError
    before the density is evaluated.
    """

    density: Callable
    quadrature_points: int = 20_001

    def __post_init__(self):
        if self.quadrature_points < 2:
            raise InvalidInputError("quadrature_points must be at least 2")
        _check_budget(GRID_VALUES * self.quadrature_points, f"{self.quadrature_points} quadrature points")
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
        if not all(cmath.isfinite(s) for s in self.exponents):
            raise InvalidInputError("exponents must be finite")
        if self.cap is not None and self.cap < 0:
            raise InvalidInputError("cap must be nonnegative")


@dataclass(frozen=True, eq=False)
class Histogram:
    """Bin edges plus per-bin masses, as densities (mass per unit length)."""

    bin_edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        edges = _checked_edges(self.bin_edges)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "masses", masses)
        if masses.shape != (edges.size - 1,):
            raise InvalidInputError("need one mass per bin")

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    def total_mass(self) -> float:
        return float(np.sum(self.masses * self.widths))


def _checked_edges(edges) -> np.ndarray:
    """``edges`` as a float array, if they are finite and strictly increasing."""
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2 or not (np.all(np.isfinite(e)) and np.all(np.diff(e) > 0)):
        raise InvalidInputError("bin edges must be finite and strictly increasing")
    return e


def window_counts(dirs: DirectionSet, interval, alphas) -> np.ndarray:
    """Number of directions in the shrunk window N^-1 * interval + alpha.

    The window is the half-open arc [alpha + a/N, alpha + b/N) on the
    circle; a window of length >= 1 returns N.  Vectorized over ``alphas``,
    and over windows: an ``interval`` of shape (m, 2) gives the counts of
    window j in row j.  The ends are formed by ``lattice._window_count``,
    and the directions under each are found by ``searchsorted``.  A
    position that is not finite raises InvalidInputError.
    """
    if dirs.N == 0:
        raise InvalidInputError("empty direction set")
    return _window_count(interval, dirs.N, alphas, lambda x: np.searchsorted(dirs.alphas, x, side="left"))


def spacing_histogram(dirs: DirectionSet, k: int, edges) -> Histogram:
    """Histogram of scaled k-th neighbor spacings N*(alpha_{j+k} - alpha_j).

    Spacings are cyclic (the last entries wrap past 1) and the histogram is
    density-normalized so the in-range mass is 1.  The spacings are one
    offset pass over j in blocks of ``_BLOCK`` (``_gap_blocks``); in each
    block those outside [edges[0], edges[-1]] are dropped and the rest are
    binned as ``np.histogram`` bins them (last bin closed), so the counts
    are the same.  Memory is O(``_BLOCK``) beside the direction set.
    """
    N = dirs.N
    if not 1 <= k < N:
        raise InvalidInputError(f"need 1 <= k < N, got k={k}, N={N}")
    edges = _checked_edges(edges)
    counts = np.zeros(edges.size - 1, dtype=np.intp)
    for _, scaled in _gap_blocks(dirs.alphas, k):
        scaled *= N
        keep = scaled <= edges[-1]
        if edges[0] > 0:  # cyclic spacings are never negative
            keep &= scaled >= edges[0]
        counts += _bin_sums(np.compress(keep, scaled), edges, None, False)[0]
    total = counts.sum()
    widths = np.diff(edges)
    masses = counts / (total * widths) if total > 0 else np.zeros(counts.shape)
    return Histogram(edges, masses)


_BLOCK = 65536  # values per block of every pass: sorted, filtered and binned while in cache


def _gap_blocks(A, d):
    """Yields ``(start, gaps)``: gaps[i] = alpha_{j+d} - alpha_j for j = start + i, 0 < d < N.

    The blocks of ``_BLOCK`` consecutive j cover 0..N-1 in order; the last
    d entries wrap past 1.  Bit for bit ``concat(A, A + 1)[j + d] - A[j]``,
    from contiguous slices of A, into one reused buffer that the caller
    may change but that the next block overwrites.
    """
    N = A.size
    buf = np.empty(min(N, _BLOCK))
    for start in range(0, N, _BLOCK):
        stop = min(start + _BLOCK, N)
        out = buf[: stop - start]
        flat = min(max(N - d - start, 0), out.size)  # the j + d < N of the block
        np.subtract(A[start + d : start + d + flat], A[start : start + flat], out=out[:flat])
        wrap = out[flat:]
        np.add(A[start + flat + d - N : stop + d - N], 1.0, out=wrap)
        np.subtract(wrap, A[start + flat : stop], out=wrap)
        yield start, out


def _ahead(A, idx):
    """Entries ``idx`` (sorted, nonnegative) of the lifted sequence A[k mod N] + k div N.

    Bit for bit ``concat(A, A + 1, A + 2, ...)[idx]``, without building it:
    the indices in turn q are one slice of the sorted ``idx``, and q is added
    to that slice once (adding an integer array would cast every entry).
    """
    out = A.take(idx, mode="wrap")
    q, start = 1, np.searchsorted(idx, A.size)
    while start < idx.size:
        stop = np.searchsorted(idx, (q + 1) * A.size)
        out[start:stop] += q
        q, start = q + 1, stop
    return out


def _near_pairs(A, reach):
    """Neighbour passes over the lifted sequence L(k) = A[k mod N] + k div N.

    Pass d = 1, 2, ... yields, block by block, ``(d, start, keep, vals)``:
    ``vals`` are, in order of j, the scaled differences N * (L(j + d) -
    L(j)) with L(j + d) - L(j) <= reach / N, and ``_rows(start, keep)``
    their j.  Passes with d = 0 (mod N) are skipped, since a direction is
    never a pair with its own image, and the passes end at the first one
    that keeps nothing, so the cost is O(N * (1 + reach)).  Needs N >= 2.

    The kept j shrink from pass to pass (the difference grows with d).
    While more than a quarter of them survive, a pass walks all j in the
    blocks of ``_gap_blocks``, and ``keep`` is the block's mask, valid
    until the next block.  The pass after the first that keeps fewer than
    N/4 (or pass N - 1) also writes its kept j into one array, int32 while
    N < 2^31; from then on each pass gathers only those j, ``_BLOCK`` at a
    time, compacts the array in place, and ``keep`` is the kept j of the
    chunk.  Memory is O(``_BLOCK`` + N/4) beside A, with no N-long
    temporary.
    """
    N = A.size
    thresh = reach / N
    mask = np.empty(min(N, _BLOCK), dtype=bool)
    d, kept, active = 0, N, None
    while active is None:  # d < N, as _gap_blocks needs: pass N - 1 starts the gathering
        d += 1
        if 4 * kept < N or d == N - 1:
            active = np.empty(kept, dtype=np.int32 if N < 2**31 else np.int64)
        kept = 0
        for start, gaps in _gap_blocks(A, d):
            near = np.less_equal(gaps, thresh, out=mask[: gaps.size])
            vals = np.compress(near, gaps)
            if active is not None:
                active[kept : kept + vals.size] = np.flatnonzero(near) + start
            kept += vals.size
            if vals.size:
                vals *= N
                yield d, start, near, vals
        if not kept:
            return
    while True:
        d += 1
        if d % N == 0:
            continue
        n, kept = kept, 0
        for i in range(0, n, _BLOCK):
            j = active[i : min(i + _BLOCK, n)].astype(np.int64)
            diff = _ahead(A, j + d)
            diff -= A[j]
            near = diff <= thresh
            j, vals = np.compress(near, j), np.compress(near, diff)
            active[kept : kept + j.size] = j  # kept <= i: the unread chunks stay intact
            kept += j.size
            if vals.size:
                vals *= N
                yield d, 0, j, vals
        if not kept:
            return


def _rows(start, keep):
    """The j of one block that ``_near_pairs`` yields."""
    return start + np.flatnonzero(keep) if keep.dtype == bool else keep


def _bin_sums(vals, edges, weights, mirrored: bool):
    """``np.histogram(vals, edges, weights=weights)[0]`` and, if ``mirrored``, that of -vals.

    ``vals`` (one block) is sorted once, in place when there are no
    weights.  Bins are [e_i, e_{i+1}) with the last one closed, as in
    np.histogram, so the values below each edge end at a left search (a
    right one at the last edge).  Since -v < e means v > -e, the -vals
    below each edge are the values above -e: those from a right search at
    -e (a left one at the last edge) to the end of the block.  Without
    ``mirrored`` the second result is None.
    """
    if weights is None:
        vals.sort()
        sv, cum = vals, None
    else:
        order = np.argsort(vals)
        sv = vals[order]
        cum = np.concatenate((np.zeros(1), weights[order].cumsum()))
    below = np.concatenate((sv.searchsorted(edges[:-1], "left"), sv.searchsorted(edges[-1:], "right")))
    plus = np.diff(below if cum is None else cum[below])
    if not mirrored:
        return plus, None
    above = np.concatenate((sv.searchsorted(-edges[:-1], "right"), sv.searchsorted(-edges[-1:], "left")))
    return plus, np.diff(sv.size - above if cum is None else cum[-1] - cum[above])


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

    Implemented as the neighbour passes of ``_near_pairs`` up to the bins'
    reach W, each block binned while in cache, so the cost is O(N * W) for
    bins inside [-W, W] and the memory O(2^16 + N/4).  N (1 + W) past the
    budget raises CapacityError before the first pass.
    """
    edges = _checked_edges(edges)
    if fold and edges[0] < 0:
        raise InvalidInputError("folded histogram needs nonnegative edges")
    N = dirs.N
    if N < 2:
        raise InvalidInputError("need at least two directions")
    W = max(abs(edges[0]), abs(edges[-1]))
    if W >= N / 2:
        raise InvalidInputError(f"window reach {W} must be below N/2 = {N / 2}")
    _check_budget(N * (1.0 + W), f"N = {N} directions times 1 + the reach {W:g}")
    A = dirs.alphas
    counts = np.zeros(edges.size - 1)
    for d, start, keep, vals in _near_pairs(A, W):
        w = None
        if density is not None:
            j = _rows(start, keep)
            w = 1.0 / (np.asarray(density(A[j])) * np.asarray(density(_frac(_ahead(A, j + d)))))
        plus, minus = _bin_sums(vals, edges, w, mirrored=not fold)
        if fold:
            counts += 2.0 * plus
        else:
            counts += plus
            counts += minus
    masses = counts / (N * np.diff(edges))
    return Histogram(edges, masses)


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
    scales like N * |I| / quadrature_points.  The counts of every window
    at every grid point are one ``window_counts`` call.  The rule, with its
    budget and float-range checks (CapacityError), is ``_grid_moment``'s,
    which ``latdir moments`` applies to the counts of
    ``lattice.count_in_window`` with the same bytes.  A zero base follows
    ``_power``: 0^0 = 1 and 0^s = 0 for s != 0.
    """
    return _grid_moment(lambda windows, grid: window_counts(dirs, windows, grid), box, spec, lam, shifted)


def _grid_moment(count, box, spec: MomentSpec, lam: MeasureSpec | None = None, shifted: bool = True) -> complex:
    """The quadrature rule of ``mixed_moment``, given the window counts as ``count(windows, grid)``.

    ``count`` gets the (m, 2) array of the box's windows and the measure's
    grid and returns the (m, grid) counts.  Window counts (windows times
    quadrature points) past the budget raise CapacityError before
    ``count`` is called, and so does a moment whose terms pass the float
    range once they are summed.  A zero base follows ``_power``: 0^0 = 1
    and 0^s = 0 for s != 0.
    """
    box = as_box(box)
    if len(spec.exponents) != box.m:
        raise InvalidInputError("one exponent per interval required")
    lam = lam if lam is not None else MeasureSpec.uniform()
    _check_budget(box.m * lam.quadrature_points, f"{box.m} windows x {lam.quadrature_points} quadrature points")
    grid = lam.grid()
    weights = lam.weights()
    counts = count(np.array(box.intervals), grid)
    offset = 1.0 if shifted else 0.0
    vals = np.ones(grid.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a term past the float range is refused below
        for cnt, s in zip(counts, spec.exponents):
            vals *= _power(cnt + offset, s)
        if spec.cap is not None:
            vals = np.where(counts.max(axis=0) <= spec.cap, vals, 0.0)
        value = complex(np.sum(weights * vals))
    if not cmath.isfinite(value):
        raise CapacityError(f"moment of exponents {list(spec.exponents)} passes the float range")
    return value


def pair_correlation_integral(dirs: DirectionSet, interval1, interval2) -> float:
    """Exact circle average of the two-window ordered-pair count.

    Integrates, over the window position alpha, the number of ordered pairs
    j1 != j2 whose scaled differences place alpha_j1 in window 1 and
    alpha_j2 in window 2.  A window of length >= N holds every direction,
    so the integral is then N - 1 times the other window's length, or
    N (N - 1) when both windows are that long.

    Otherwise it is 1/N times the sum, over ordered pairs j1 != j2 and
    circle images m, of the overlap of window 1 with window 2 moved by
    s = N (alpha_j1 - alpha_j2 + m); only s in (a1 - b2, b1 - a2) count.
    Moving window 2 by a whole number of turns kN only renumbers m, so it
    is first moved to put that support near 0.  The pairs are the
    neighbour passes of ``_near_pairs`` up to reach
    max(|a1 - b2|, |b1 - a2|), each giving s for one order of the pair and
    -s for the other; the cost is O(N * (1 + reach)), as for
    ``pair_correlation``, and past the budget it raises CapacityError
    before the first pass.  The result is a finite sum (no quadrature).
    """
    a1, b1 = float(interval1[0]), float(interval1[1])
    a2, b2 = float(interval2[0]), float(interval2[1])
    if not (a1 < b1 and a2 < b2):
        raise InvalidInputError("intervals must be nondegenerate")
    N = dirs.N
    if N == 0:
        raise InvalidInputError("empty direction set")
    wide1, wide2 = (b1 - a1) / N >= 1.0, (b2 - a2) / N >= 1.0
    if wide1:
        return (N - 1) * (float(N) if wide2 else b2 - a2)
    if wide2:
        return (N - 1) * (b1 - a1)
    if N == 1:
        return 0.0  # no pairs
    k = round((a1 + b1 - a2 - b2) / (2 * N))
    a2, b2 = a2 + k * N, b2 + k * N
    reach = max(abs(a1 - b2), abs(b1 - a2))
    _check_budget(N * (1.0 + reach), f"N = {N} directions times 1 + the reach {reach:g}")

    def overlap(s):
        return np.maximum(np.minimum(b1, b2 + s) - np.maximum(a1, a2 + s), 0.0)

    total = 0.0
    for *_, s in _near_pairs(dirs.alphas, reach):
        total += overlap(s).sum() + overlap(-s).sum()
    return total / N
