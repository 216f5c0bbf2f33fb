"""Finite-scale observables of a direction sequence.

Window counts, k-th neighbor spacing histograms, the two-point correlation
of scaled direction differences, mixed moments against a measure on the
circle, and an exact two-window pair statistic.

The N sorted angles A come as a DirectionSet, one array, or as a
``lattice.DirectionStream``, its sectors one at a time.  The lifted
sequence L(k) = A[k mod N] + k div N is nondecreasing.  Window counts,
and the mixed moments on the measure's quadrature grid that are built on
them, take the counts of their windows from the source's one
``window_counter``: a set searches its array (``lattice._below``), and a
stream counts each window on the reduced strips of a frame that maps its
sector onto a triangle, or walks its sectors once where those cost more.
Spacings L(j + k) - L(j), and the close pairs that the two-point correlation bins
and the pair statistic sums window overlaps over, need only the values
near each other, so they take A as an iterator of sorted chunks: one
sweep (``_sweep``) in blocks of ``_BLOCK`` = 2^16 values, each after the
values carried from before it that it can pair with (the last k for
spacings, those within reach for pairs), and at the end the pairs that
wrap past 1, against the head of A lifted by whole turns.  Each block is
paired, filtered, scaled and binned (``_bin_sums``) while it is in cache,
and every difference is the same float operation however A is chunked,
so the counts do not depend on the chunks.  No pass allocates an N-long
temporary: memory is O(2^16 + the values within reach of a block's end
and of 0) beside the chunks.

A block is binned by sorting float32 keys of its values, half the bytes
of the float64 values, and searching them for the keys of the edges.
The float64 -> float32 cast rounds to nearest, so it is monotone, also
where it overflows to +-inf or underflows to 0: key(v) < key(e) implies
v < e, and key(v) > key(e) implies v > e.  Only the values whose key
equals an edge's key are compared with that edge in float64, with the
rule of ``np.histogram`` (v < e at each left end, v <= e at the closed
last edge).  So the counts are those of the float64 values, whatever
the sort kernel.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, InvalidInputError
from . import strips
from .lattice import DirectionSet, DirectionStream, _check_budget, _frac

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

    The density is evaluated on a uniform grid of ``quadrature_points``,
    and its values are broadcast to the grid, so a constant may be one
    scalar.  They must be finite and nonnegative, and the grid must
    integrate them to 1 within 1e-6; else InvalidInputError names what
    failed.  A grid whose ``GRID_VALUES`` values a point pass the budget
    raises CapacityError before the density is evaluated.
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
        rho = _density_values(self.density, self.grid(), "grid point")
        if not np.all(np.isfinite(rho) & (rho >= 0)):
            raise InvalidInputError("density must be finite and nonnegative at every grid point")
        return rho / self.quadrature_points


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


def _density(counts, scale, edges) -> np.ndarray:
    """``counts / (scale * width)`` per bin; a density that is not finite raises InvalidInputError.

    A bin narrower than about 1e-308 / ``scale`` (a subnormal width) would
    overflow with any count in it.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = counts / (scale * np.diff(edges))
    bad = np.flatnonzero(~np.isfinite(out))[:1]
    if bad.size:
        raise InvalidInputError(f"bin {edges[bad[0]:bad[0] + 2].tolist()} is too narrow for a finite density")
    return out


def window_counts(dirs: DirectionSet | DirectionStream, interval, alphas) -> np.ndarray:
    """Number of directions in the shrunk window N^-1 * interval + alpha.

    The window is the half-open arc [alpha + a/N, alpha + b/N) on the
    circle; a window of length >= 1 returns N.  Vectorized over ``alphas``,
    and over windows: an ``interval`` of shape (m, 2) gives the counts of
    window j in row j, in shape (m, *alphas.shape).  With lo = frac(alpha +
    a/N) and hi = lo + (b - a)/N the count is J(hi) - J(lo), where J(x)
    counts the lifted sequence under x, the directions under frac(x) plus
    N floor(x), so wrap-around needs no branch.  The counts of every window
    shorter than 1 come from one call to ``dirs.window_counter(lo, hi)``:
    a ``DirectionSet`` searches its array, and a ``DirectionStream``
    counts on the reduced strips of each window's frame, or sweeps its
    sectors where those would cost more, with budget checks of its arcs
    and strips before it forms them.  The counts are the same integers
    either way.  Raises InvalidInputError unless a < b for every
    window and every position is finite, and on an empty set.
    """
    iv = np.asarray(interval, dtype=float)
    if iv.shape[-1:] != (2,) or iv.ndim > 2:
        raise InvalidInputError(f"an interval must have shape (2,) or (m, 2), got {iv.shape}")
    a, b = iv.reshape(-1, 2).T
    bad = np.flatnonzero(~(a < b))
    if bad.size:
        raise InvalidInputError(f"bad interval ({a[bad[0]]}, {b[bad[0]]})")
    al = np.asarray(alphas, dtype=float)
    if not np.all(np.isfinite(al)):
        raise InvalidInputError("window positions must be finite")
    N = dirs.N
    if N == 0:
        raise InvalidInputError("empty direction set")
    counts = np.full((a.size, *al.shape), N, dtype=np.int64)
    short = np.flatnonzero((b - a) / N < 1.0)
    if short.size:
        per_window = (-1,) + (1,) * al.ndim
        lo = _frac(al + (a[short] / N).reshape(per_window))
        counts[short] = dirs.window_counter(lo, lo + ((b - a)[short] / N).reshape(per_window))
    return counts if iv.ndim == 2 else counts[0]


def spacing_histogram(dirs: DirectionSet | DirectionStream, k, edges) -> Histogram | list[Histogram]:
    """Histogram of scaled k-th neighbor spacings N*(alpha_{j+k} - alpha_j).

    Spacings are cyclic (the last entries wrap past 1) and the histogram is
    density-normalized so the in-range mass is 1.  ``k`` is one offset,
    which gives one Histogram, or a sequence of them, which gives a list
    in the same order from one sweep (``_spacings``) over ``dirs``: a
    ``DirectionSet`` or the sectors of a ``DirectionStream``.  Each pass
    of a block is binned as ``np.histogram`` bins it (last bin closed), on
    float32 sort keys decided in float64 where a spacing shares an edge's
    key (``_bin_sums``), so the counts are the same.  The spacings under
    edges[0] or over edges[-1] fall in no bin, so a pass is binned whole,
    unless fewer than half of it lie in [edges[0], edges[-1]]: then those
    are copied out, and the sort skips the rest.  Memory is O(``_BLOCK`` + k)
    beside the directions.  Each k is one pass over the N directions, so N
    times the offsets past the budget raises CapacityError before the
    sweep.
    """
    chunks, N = dirs.chunks(), dirs.N  # a stream checks its sweep before it solves its strips
    ks = [int(x) for x in np.atleast_1d(k)]
    if not ks or any(x != y for x, y in zip(ks, np.atleast_1d(k))):
        raise InvalidInputError(f"k must be an integer or a nonempty sequence of integers, got {k!r}")
    for x in ks:
        if not 1 <= x < N:
            raise InvalidInputError(f"need 1 <= k < N, got k={x}, N={N}")
    edges = _checked_edges(edges)
    _check_budget(len(ks) * N, f"{len(ks)} spacing passes over N = {N} directions")
    counts = np.zeros((len(ks), edges.size - 1), dtype=np.intp)
    keys = _keys(edges)
    for i, scaled in _spacings(N, chunks, ks):
        keep = scaled <= edges[-1]
        if edges[0] > 0:  # cyclic spacings are never negative
            keep &= scaled >= edges[0]
        if 2 * np.count_nonzero(keep) < keep.size:  # a sparse pass: sort only the spacings in range
            scaled = np.compress(keep, scaled)
        counts[i] += _bin_sums(scaled, edges, keys, None, False)[0]
    hists = [Histogram(edges, _density(c, max(c.sum(), 1), edges)) for c in counts]
    return hists[0] if np.ndim(k) == 0 else hists


_BLOCK = 65536  # values per block of the sweep: paired with the values carried before it while in cache
# Slack of the searches for the values within reach: far above the roundoff of a difference of
# two values below 4, far below any reach.  They find a superset, which the exact predicate filters.
_SLACK = 2.0**-40
# A pass over every value of a block stops once it keeps fewer than 1 in _SPARSE of them: the
# pairs left are then gathered row by row.
_SPARSE = 16
# Thresholds that share their float32 key with a value and are each decided by one float64 count
# over the block in ``_under``: past this many, one sort of the values in their cells is cheaper.
_FEW = 4


def _sweep(N: int, chunks, thresh: float, count: int = 0):
    """The sorted sequence A of N directions in blocks, each after the values before it that it can pair with.

    ``chunks`` yields sorted arrays, each valid until the next is drawn,
    that lay A end to end.  Yields ``(Y, c, wrap)``: the first c values of
    Y are carried from before, the rest are the next ``_BLOCK`` or fewer
    values of a chunk.  Y is a view of the chunk where the carry lies in
    it, and of one reused buffer elsewhere: it is read only, and valid
    until the next yield.  Carried are the last ``count`` values and those
    within ``thresh`` of the block's last value: every later value is at
    least that one, and float subtraction is monotone.  So a pair j < l of
    the lifted sequence L(i) = A[i mod N] + i div N, with l < N and
    L(l) - L(j) <= thresh or l - j <= ``count``, lies in one Y with its l
    past the carry.

    The last Y, with ``wrap`` set, holds the carry, the last c entries of
    A, and the lifted head L(N), L(N + 1), ..., each A[i] + q formed as one
    float addition of q = 1 + i div N, as far as a pair with the carry
    reaches: the first ``count``, and all within ``thresh`` of the last
    value.  So Y is the stretch L(N - c), ... of L, and its pairs are
    those with j < c.  The head is kept while the chunks go by: the first
    ``count`` values and those within ``thresh`` of 0.  With ``thresh`` =
    -inf only ``count`` decides.
    """
    buf = np.empty(0)  # the carry, where it does not lie in the chunk just before the block
    c, head, held, last = 0, [], 0, None
    for X in chunks:
        front = max(min(count - held, X.size), int(np.searchsorted(X, thresh + _SLACK, side="right")))
        if front:  # a prefix of A: a later chunk has no value within reach of 0 once this one has one past it
            head.append(X[:front].copy())
            held += front
        for start in range(0, X.size, _BLOCK):
            stop = min(start + _BLOCK, X.size)
            if start >= c:
                Y = X[start - c:stop]
            else:
                Y = buf[:c + stop - start]
                Y[c:] = X[start:stop]
            yield Y, c, False
            last = Y[-1]
            p = min(int(np.searchsorted(Y, last - (thresh + _SLACK), side="left")), Y.size - min(count, Y.size))
            c = Y.size - p
            if stop == X.size or stop < c:  # the next block's carry is not in the chunk before it
                if buf.size < c + _BLOCK:
                    buf, Y = np.empty(2 * c + _BLOCK), Y[p:].copy()
                buf[:c] = Y[Y.size - c:]
    if last is None:
        return
    head = np.concatenate(head) if head else np.empty(0)
    lifted, q = [], 1
    while True:  # turn q + 1 is reached only past all of turn q
        n = int(np.searchsorted(head, last + (thresh + _SLACK) - q, side="right"))
        n = min(max(n, count if q == 1 else 0), head.size)
        if n:
            lifted.append(head[:n] + float(q))
        if n < N:
            break
        q += 1
    if lifted:
        yield np.concatenate([buf[:c], *lifted]), c, True


def _near_pairs(N: int, chunks, reach: float, ends: bool | None = False):
    """Scaled differences N * (L(l) - L(j)) <= reach of the lifted sequence, j < N, j < l.

    L(i) = A[i mod N] + i div N for the N sorted directions A that
    ``chunks`` lays end to end (``_sweep``).  Pairs l - j = 0 (mod N), a
    direction and its own image, are skipped.  Each difference is computed
    as ``A[l] - A[j]``, or ``(A[l - qN] + q) - A[j]`` past the end, and then
    multiplied by N, so the values are the same however A is chunked.  A
    difference is kept when its scaled value is within reach, decided as
    one compare of the unscaled value with the greatest float whose scaled
    value is: rounding is monotone.  Yields them in batches; with ``ends``
    True, each comes with the pairs' two values A[j] and L(l) (else None).
    With ``ends`` None the caller bins the values and nothing else, so a
    dense block pass may come whole (``_close``), with values past the
    reach: they lie past every edge within the reach and fall in no bin.
    The cost is O(N * (1 + reach)), the memory O(``_BLOCK``) beside the
    values carried and the head of A within reach of the wrap, which is
    all of A only when reach >= N.

    In a block (``_close``) pass d = 1, 2, ... takes L(l) - L(l - d) over
    every l of the block, while cache-resident, until a pass keeps fewer
    than 1 in ``_SPARSE``; the pairs of the l it kept are then gathered
    row by row (``_gathered``).  The pairs of the last block of
    ``_sweep``, those that wrap past 1, are gathered directly.
    """
    thresh = reach / N
    while N * thresh > reach:
        thresh = np.nextafter(thresh, -np.inf)
    while N * np.nextafter(thresh, np.inf) <= reach:
        thresh = np.nextafter(thresh, np.inf)
    work = np.empty(_BLOCK), np.empty(_BLOCK, dtype=bool)  # reused by every block
    for Y, c, wrap in _sweep(N, chunks, thresh):
        pairs = _gathered(Y, np.arange(c, Y.size), c, thresh, N, ends) if wrap else _close(Y, c, thresh, ends, work)
        for vals, pair in pairs:
            vals *= N
            yield vals, pair


def _close(Y, c: int, thresh: float, ends: bool | None, work):
    """Differences Y[l] - Y[j] <= thresh, c <= l, j < l: passes d = 1, 2, ... , then ``_gathered``.

    The passes write into ``work``, a float and a bool array of at least
    Y.size - c values.  With ``ends`` None a pass that keeps more than 3
    in 4 of its values is yielded whole, as a view of ``work`` that holds
    the differences past ``thresh`` too: only a caller that bins may ask
    for that, as compacting them would cost more than binning them.
    """
    gaps, mask = work
    n = Y.size
    d = 0
    while True:
        d += 1
        lo = max(c, d)
        if lo >= n:
            return
        m = n - lo
        near = np.less_equal(np.subtract(Y[lo:], Y[lo - d:n - d], out=gaps[:m]), thresh, out=mask[:m])
        kept = np.count_nonzero(near)
        dense = 4 * kept > 3 * m
        if dense and ends is None:
            yield gaps[:m], None
        elif kept:
            vals = _kept(near, gaps[:m], dense)
            yield vals, (_kept(near, Y[lo - d:n - d], dense), _kept(near, Y[lo:], dense)) if ends else None
        if _SPARSE * kept < m:  # the values past pass d of the few l it kept
            rows = lo + np.flatnonzero(near)
            yield from _gathered(Y, rows, rows - d, thresh, None, ends)
            return


def _kept(mask, x, dense: bool):
    """``x[mask]``: a boolean index where the mask keeps most values (``dense``), ``np.compress`` elsewhere.

    The boolean copy loop predicts well on a dense mask and badly on a
    mixed one; ``np.compress`` gathers through an index array, which is
    cheap when it is short.  They cross over at about 3 in 4 kept.
    """
    return x[mask] if dense else np.compress(mask, x)


def _gathered(Y, rows, top, thresh: float, N: int | None, ends: bool | None):
    """Differences Y[l] - Y[j] <= thresh for l in ``rows`` and j < ``top``, skipping l - j = 0 (mod N).

    Each row's j start at a search for Y[l] - thresh, less ``_SLACK``, and
    the rows are expanded into pairs about ``_BLOCK`` at a time
    (``strips.runs``), so the memory is O(``_BLOCK`` + the longest row).
    Without N no pair is skipped.
    """
    first = np.searchsorted(Y, Y[rows] - (thresh + _SLACK), side="left")
    width = np.maximum(top - first, 0)
    for i, k in strips.runs(width, _BLOCK):
        j, l = strips.expand(first[i:k], width[i:k], rows[i:k])
        vals = Y.take(l)
        vals -= Y.take(j)
        near = vals <= thresh
        if N is not None:
            near &= (l - j) % N != 0
        vals = vals[near]
        if vals.size:
            yield vals, (Y.take(j[near]), Y.take(l[near])) if ends else None


def _spacings(N: int, chunks, ks):
    """``(i, gaps)`` batches: the scaled spacings N * (L(j + k) - L(j)), k = ks[i], of every j < N.

    One ``_sweep`` that carries and lifts the last and first max(ks)
    values; each difference is ``A[j + k] - A[j]`` or, past the end,
    ``(A[j + k - N] + 1.0) - A[j]``, then multiplied by N.  The batches
    are views of one reused buffer, valid until the next.
    """
    work = np.empty(max(_BLOCK, *ks))  # a block, or the k lifted values of the wrap
    for Y, c, wrap in _sweep(N, chunks, -np.inf, max(ks)):
        n = Y.size
        top = c if wrap else n
        for i, k in enumerate(ks):
            lo, hi = max(c, k), min(n, top + k)
            if lo < hi:
                gaps = np.subtract(Y[lo:hi], Y[lo - k:hi - k], out=work[:hi - lo])
                gaps *= N
                yield i, gaps


def _keys(x):
    """float32 sort keys of float64 values: the cast rounds to nearest, so it never reverses an order."""
    with np.errstate(over="ignore"):  # past the float32 range the key is +-inf
        return x.astype(np.float32)


def _bin_sums(vals, edges, keys, weights, mirrored: bool):
    """``np.histogram(vals, edges, weights=weights)[0]`` and, if ``mirrored``, that of -vals.

    ``keys`` are ``_keys(edges)``.  Bins are [e_i, e_{i+1}) with the last
    one closed, as in np.histogram, so the values below each edge are
    those under a left search (a right one at the last edge).  Since
    -v < e means v > -e, the -vals below each edge are the values above
    -e: all but those under a right search at -e (a left one at the last
    edge).  Without weights the searches run on the sorted float32 keys of
    ``vals`` (``_under``), half the bytes of the values to sort; ``vals``
    is left as it is.  With weights ``vals`` is argsorted in float64 and
    the sums are differences of the weights' cumulative sum.  Without
    ``mirrored`` the second result is None.
    """
    if weights is None:
        sk = _keys(vals)
        sk.sort()
        plus = np.diff(_under(sk, vals, edges, keys, "left"))
        if not mirrored:
            return plus, None
        return plus, np.diff(vals.size - _under(sk, vals, -edges, -keys, "right"))
    order = np.argsort(vals)
    sv = vals[order]
    cum = np.concatenate((np.zeros(1), weights[order].cumsum()))
    below = np.concatenate((sv.searchsorted(edges[:-1], "left"), sv.searchsorted(edges[-1:], "right")))
    plus = np.diff(cum[below])
    if not mirrored:
        return plus, None
    above = np.concatenate((sv.searchsorted(-edges[:-1], "right"), sv.searchsorted(-edges[-1:], "left")))
    return plus, np.diff(cum[-1] - cum[above])


def _under(sk, vals, t, kt, side: str):
    """``np.sort(vals).searchsorted(t, side)``, with the other side at the last threshold, from ``sk``.

    ``sk`` are the sorted ``_keys(vals)`` and ``kt`` = ``_keys(t)``.  The
    cast is monotone, so key(v) < key(t) implies v < t and key(v) > key(t)
    implies v > t: a threshold whose key no value shares has the values
    under it at a search of ``sk`` for its key.  A threshold whose key some
    value shares (an edge at 0 against exact zeros, say) is decided in
    float64: by one count over ``vals`` each, where ``_FEW`` or fewer are.
    Past that (many edges inside one float32 cell), every threshold whose
    key lies between the least and the greatest shared key, k0 and k1, lies
    strictly between the float32 values a just below k0 and b just past
    k1, so the values under it are those under a and those it passes in
    the sorted cell [a, b].
    """
    under = sk.searchsorted(kt, "left")
    tied = np.flatnonzero(sk.searchsorted(kt, "right") > under)
    if tied.size <= _FEW:
        for i in tied:
            strict = (side == "left") != (i == t.size - 1)
            under[i] = np.count_nonzero(vals < t[i] if strict else vals <= t[i])
        return under
    k0, k1 = np.min(kt[tied]), np.max(kt[tied])
    inside = np.flatnonzero((kt >= k0) & (kt <= k1))
    past = vals < np.nextafter(k0, -np.inf)
    cell = np.sort(vals[~past & (vals <= np.nextafter(k1, np.inf))])
    under[inside] = np.count_nonzero(past) + cell.searchsorted(t[inside], side)
    if inside[-1] == t.size - 1:  # the values equal to the last threshold go to its other side
        equal = cell.searchsorted(t[-1], "right") - cell.searchsorted(t[-1], "left")
        under[-1] += equal if side == "left" else -equal
    return under


def pair_correlation(
    dirs: DirectionSet | DirectionStream,
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
    non-uniform direction density back to unit level; its values, broadcast
    to the directions' shape (a constant may be a scalar), must be finite
    and positive, else InvalidInputError.

    Implemented as one sweep of ``_near_pairs`` up to the bins' reach W,
    over a ``DirectionSet`` or the sectors of a ``DirectionStream``, each
    batch binned while in cache (``_bin_sums``: float32 sort keys without
    a density, a float64 argsort with one).  A pair is counted when its
    scaled difference, rounded, lies in a bin, so a difference that rounds
    onto the outermost edge is counted.  Without a density a neighbour pass
    that keeps more than 3 in 4 of its block is binned whole, uncompacted:
    its values past W lie past the outermost edge (below -W once
    mirrored), so they fall in no bin and the counts are those of the kept
    values.  With a density the pass is compacted, as the weights need
    the pairs' ends.  The cost is O(N * W) for bins inside
    [-W, W] and the memory O(2^16 + the values within W / N of each block
    and of 0) beside the directions.  N (1 + W) past the budget raises
    CapacityError before the sweep.
    """
    edges = _checked_edges(edges)
    if fold and edges[0] < 0:
        raise InvalidInputError("folded histogram needs nonnegative edges")
    chunks, N = dirs.chunks(), dirs.N  # a stream checks its sweep before it solves its strips
    if N < 2:
        raise InvalidInputError("need at least two directions")
    W = max(abs(edges[0]), abs(edges[-1]))
    if W >= N / 2:
        raise InvalidInputError(f"window reach {W} must be below N/2 = {N / 2}")
    _check_budget(N * (1.0 + W), f"N = {N} directions times 1 + the reach {W:g}")
    counts = np.zeros(edges.size - 1)
    keys = _keys(edges)
    for vals, pair in _near_pairs(N, chunks, W, ends=None if density is None else True):
        w = None
        if pair is not None:
            w = 1.0 / (_density_at(density, pair[0]) * _density_at(density, _frac(pair[1])))
        plus, minus = _bin_sums(vals, edges, keys, w, mirrored=not fold)
        if fold:
            counts += 2.0 * plus
        else:
            counts += plus
            counts += minus
    return Histogram(edges, _density(counts, N, edges))


def _density_values(density, alphas, where) -> np.ndarray:
    """``density(alphas)`` as floats broadcast to the shape of alphas; InvalidInputError unless real."""
    values = np.asarray(density(alphas))
    if not np.iscomplexobj(values):
        try:
            return np.broadcast_to(values.astype(float), alphas.shape)
        except (TypeError, ValueError):
            pass
    raise InvalidInputError(f"density must give one real value per {where}")


def _density_at(density, alphas) -> np.ndarray:
    """``density(alphas)`` broadcast to the directions' shape; InvalidInputError unless finite and positive."""
    rho = _density_values(density, alphas, "direction")
    if not np.all(np.isfinite(rho) & (rho > 0)):
        raise InvalidInputError("density must be finite and positive at every direction")
    return rho


def _power(base: np.ndarray, s: complex) -> np.ndarray:
    # (k)^s with the principal log; 0^0 = 1, 0^s = 0 for s != 0.
    if s == 0:
        return np.ones(base.shape, dtype=complex)
    out = np.zeros(base.shape, dtype=complex)
    pos = base > 0
    out[pos] = np.exp(s * np.log(base[pos]))
    return out


def mixed_moment(
    dirs: DirectionSet | DirectionStream,
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
    at every grid point are one ``window_counts`` call, over a
    ``DirectionSet`` or, without the N-long array, a ``DirectionStream``
    (``latdir moments``), which counts the windows on reduced strips, or
    sweeps its sectors where those would cost more, with the same bytes.
    Window counts (windows times quadrature points) past the budget raise
    CapacityError before any is counted, and so does a moment whose terms
    pass the float range once they are summed.  A zero base follows
    ``_power``: 0^0 = 1 and 0^s = 0 for s != 0.
    """
    box = as_box(box)
    if len(spec.exponents) != box.m:
        raise InvalidInputError("one exponent per interval required")
    lam = lam if lam is not None else MeasureSpec.uniform()
    _check_budget(box.m * lam.quadrature_points, f"{box.m} windows x {lam.quadrature_points} quadrature points")
    grid = lam.grid()
    weights = lam.weights()
    counts = window_counts(dirs, np.array(box.intervals), grid)
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


def pair_correlation_integral(dirs: DirectionSet | DirectionStream, interval1, interval2) -> float:
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
    is first moved to put that support near 0.  The pairs are one sweep
    of ``_near_pairs`` up to reach max(|a1 - b2|, |b1 - a2|), which can
    pass one turn (N), each giving s for one order of the pair and -s for
    the other; the cost is O(N * (1 + reach)), as for ``pair_correlation``,
    and past the budget it raises CapacityError before the sweep.  The
    result is a finite sum (no quadrature).
    """
    a1, b1 = float(interval1[0]), float(interval1[1])
    a2, b2 = float(interval2[0]), float(interval2[1])
    if not (a1 < b1 and a2 < b2):
        raise InvalidInputError("intervals must be nondegenerate")
    chunks, N = dirs.chunks(), dirs.N  # a stream checks its sweep before it solves its strips
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
    for s, _ in _near_pairs(N, chunks, reach):
        total += overlap(s).sum() + overlap(-s).sum()
    return total / N
