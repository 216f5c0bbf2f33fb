"""Monte Carlo on the space of (affine) planar lattices.

Samples the Iwasawa coordinates (u, v, phi) of a random unimodular lattice
from the standard fundamental domain, counts affine lattice points inside
cone-shaped test regions, and estimates the limiting distribution of
window counts together with its moments, tail exponents and the classical
Siegel mean-value identities.

Cone counts work on the m1-strips that cross the pull-back of the cone
polygon, whose corners are (x, 2 x a / (1 - c^2)) and (x, 2 x b / (1 - c^2))
for x in {c, 1}.  Each strip's m2 range comes in closed form from the two
x-bounds and the two slope bounds, from factors formed once per sample;
where a bound lies within roundoff of an integer, the float test of
``ConeRegion.contains`` decides that end of the range, so a count is the
number of lattice points the exact filter keeps.  A zero slope
coefficient (a22 = s a21 in floats) makes that edge the level line p1 = 0;
the strips next to it are counted point by point with the same float
test.  The counter walks its samples in passes of whole samples, about
``strips.CHUNK`` strips each, so a Haar block of the sampler is usually
one pass.  A congruence coset acts on the shift, not on the matrix:
(Z^2 + p/q) gamma A is counted as (Z^2 + (p gamma mod q) / q) A, with the
shift rounded once.

Counts are integers, so a merged run is reproducible regardless of how
sample blocks are scheduled.  A count law is the sorted distinct count
vectors plus a per-block histogram over them, built by ranking the count
columns, without sorting the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import strips
from .errors import InsufficientDataError, InvalidInputError, UnsupportedError
from .lattice import (
    AffineLatticeSpec,
    Annulus,
    DirectionSet,
    _check_budget,
    count_in_window,
    rotation,
)
from .stats import as_box, counting_stat

TWO_PI = 2.0 * math.pi
# s y1 <= y2 for a window's lower slope, s y1 >= y2 for its upper one
_SIDE = np.array([[1.0], [-1.0]])
V_FLOOR = math.sqrt(3.0) / 2.0
# Siegel sums drop the m1-strips whose factor exp(-v p1^2) is below 1e-16:
# exp(-r^2) < 1e-16 for r > RCUT.  Each kept strip is summed whole.
RCUT = math.sqrt(16.0 * math.log(10.0))
MOM_BLOCKS = 32
# samples per Haar block of ``siegel_average``
SIEGEL_BATCH = 50_000
# samples per sub-chunk of a Siegel batch: about 8.5k strips, so the
# per-strip arrays stay in a core's cache
SIEGEL_CHUNK = 1024


@dataclass(frozen=True)
class IwasawaPoint:
    """Coordinates (u, v, phi) of n(u) a(v) k(phi); v > 0."""

    u: float
    v: float
    phi: float = 0.0

    def __post_init__(self):
        if not self.v > 0:
            raise InvalidInputError("v must be positive")

    def in_fundamental_domain(self) -> bool:
        return abs(self.u) <= 0.5 and self.u**2 + self.v**2 >= 1.0


@dataclass(frozen=True)
class HomSample:
    """A point of the space of affine lattices: Iwasawa part plus shift.

    ``coset`` carries an integer unimodular representative when sampling a
    congruence cover (rational shift classes).
    """

    point: IwasawaPoint
    xi: tuple[float, float] = (0.0, 0.0)
    coset: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "xi", (float(self.xi[0]), float(self.xi[1])))
        if not (0.0 <= self.xi[0] < 1.0 and 0.0 <= self.xi[1] < 1.0):
            raise InvalidInputError("xi components must lie in [0, 1)")
        if self.coset is not None:
            co = np.asarray(self.coset)
            if co.shape != (2, 2) or not np.issubdtype(co.dtype, np.integer):
                raise InvalidInputError("coset must be an integer 2x2 matrix")
            if round(float(co[0, 0] * co[1, 1] - co[0, 1] * co[1, 0])) != 1:
                raise InvalidInputError("coset must have determinant 1")


@dataclass(frozen=True)
class ConeRegion:
    """Planar region {c < x < 1, (1-c^2) y in 2x * interval}; area = |interval|.

    The x-constraints are strict and the y-interval is closed, so a point
    with y exactly on the scaled interval edge counts as inside.
    """

    c: float
    interval: tuple[float, float]

    def __post_init__(self):
        if not 0.0 <= self.c < 1.0:
            raise InvalidInputError(f"c must be in [0, 1), got {self.c}")
        a, b = float(self.interval[0]), float(self.interval[1])
        object.__setattr__(self, "interval", (a, b))
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise InvalidInputError(f"bad interval ({a}, {b})")

    @property
    def area(self) -> float:
        a, b = self.interval
        return b - a

    def contains(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        a, b = self.interval
        om = 1.0 - self.c**2
        return (x > self.c) & (x < 1.0) & (om * y >= 2.0 * x * a) & (om * y <= 2.0 * x * b)

    def shifted(self, r: float) -> "ConeRegion":
        a, b = self.interval
        return ConeRegion(self.c, (a + r, b + r))


@dataclass
class MCResult:
    """A stochastic estimate with its standard error and sample size."""

    estimate: float
    se: float
    n: int
    exact: float | None = None

    def within(self, k_se: float = 3.0) -> bool:
        if self.exact is None:
            raise InvalidInputError("no exact reference attached")
        return abs(self.estimate - self.exact) <= k_se * self.se


# ---------------------------------------------------------------------------
# Haar sampling on the fundamental domain


def _haar_batch(rng, n: int):
    """Arrays (u, v, phi) of n fundamental-domain samples.

    u is uniform on [-1/2, 1/2]; v follows the 1/v^2 profile on
    [sqrt(3)/2, inf) by inverse CDF; proposals with u^2 + v^2 < 1 are
    rejected, which leaves exactly the normalized hyperbolic-area measure
    on the fundamental domain.  phi is uniform on [0, 2*pi).
    """
    us = np.empty(n)
    vs = np.empty(n)
    have = 0
    while have < n:
        m = int((n - have) * 1.25) + 16
        u = rng.uniform(-0.5, 0.5, m)
        v = V_FLOOR / (1.0 - rng.uniform(0.0, 1.0, m))
        acc = u * u + v * v >= 1.0
        take = min(int(acc.sum()), n - have)
        us[have : have + take] = u[acc][:take]
        vs[have : have + take] = v[acc][:take]
        have += take
    phi = rng.uniform(0.0, TWO_PI, n)
    return us, vs, phi


def _haar_blocks(rng, sizes, xi_class: str, p=None, q=None):
    """Yield (u, v, phi, shift) for Haar blocks of the given sizes, in order.

    Each block is drawn from its own child of ``rng.spawn``, keyed by its
    index, so results merged over blocks do not depend on how blocks are
    scheduled.  Within a block ``_haar_batch`` draws first, then the (n, 2)
    shift by ``xi_class``: zeros for "integer", uniform on the unit torus
    for "irrational", and for "rational" the shift (p gamma mod q) / q of a
    uniform congruence coset gamma (``coset_reps``).  The class, p and q
    are checked before any stream is spawned.
    """
    if xi_class == "rational":
        if q is None or p is None:
            raise InvalidInputError("rational class needs p and q")
        reps = np.array(coset_reps(q))
    elif xi_class not in ("integer", "irrational"):
        raise InvalidInputError(f"unknown xi_class {xi_class!r}")
    for stream, nb in zip(rng.spawn(len(sizes)), sizes):
        u, v, phi = _haar_batch(stream, nb)
        if xi_class == "integer":
            shift = np.zeros((nb, 2))
        elif xi_class == "irrational":
            shift = stream.uniform(0.0, 1.0, (nb, 2))
        else:
            shift = _coset_shift(p, q, reps[stream.integers(0, len(reps), nb)])
        yield u, v, phi, shift


def haar_sample(rng) -> IwasawaPoint:
    """One Haar-distributed Iwasawa point in the fundamental domain."""
    u, v, phi = _haar_batch(rng, 1)
    return IwasawaPoint(float(u[0]), float(v[0]), float(phi[0]))


def haar_v_cdf(v):
    """Closed-form CDF of the v-marginal of the fundamental-domain measure."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)

    def anti(w):
        # antiderivative of (1 - 2 sqrt(1-w^2)) / w^2
        return -1.0 / w + 2.0 * np.sqrt(np.maximum(1.0 - w * w, 0.0)) / w + 2.0 * np.arcsin(
            np.minimum(w, 1.0)
        )

    mid = (v > V_FLOOR) & (v <= 1.0)
    out[mid] = (3.0 / math.pi) * (anti(v[mid]) - 2.0 * math.pi / 3.0)
    top = v > 1.0
    out[top] = 1.0 - 3.0 / (math.pi * v[top])
    return out


def _iwasawa_entries(u, v, phi):
    """Entries (a11, a12, a21, a22) of n(u) a(v) k(phi), each an array over the samples."""
    sv = np.sqrt(v)
    w = u / sv
    c, s = np.cos(phi), np.sin(phi)
    return sv * c + w * s, -sv * s + w * c, s / sv, c / sv


def iwasawa_matrix(u, v, phi) -> np.ndarray:
    """Matrices n(u) a(v) k(phi), vectorized: returns shape (n, 2, 2)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return np.stack(_iwasawa_entries(u, v, phi), axis=-1).reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# Exact lattice-point counts in cone regions


def _cone_kernel(A, xi1, xi2, c: float, intervals) -> np.ndarray:
    """Counts (n, m): per sample, the m in Z^2 with (m + xi) A in ConeRegion(c, I_j).

    ``A`` holds the entries (a11, a12, a21, a22) of one |det| = 1 matrix per
    sample.  The m1-strips span the pull-back of the hull polygon of the
    windows.  The samples go through ``_cone_pass`` in passes of whole
    samples, each cut where its strips reach ``strips.CHUNK``
    (``strips.runs``); a pass forms the per-sample factors once for every
    window and bounds all windows at once.

    A zero slope coefficient k = a22 - s a21 makes its edge the level line
    p1 = 0, where the polygon's p1 range ends, and its bound a test of the
    whole strip, the sign of s e - g.  Such a sample gets one more strip at
    each end of its m1 range, so a point that rounds onto the edge from
    beyond is a candidate, and a strip whose test lies within ``tol`` of 0
    is counted point by point (see ``_cone_pass``).

    Raises CapacityError before the first pass when an m1 bound does not fit
    int64 (``strips.integer_range``) or when the strips times the windows
    pass the budget.
    """
    a11, a12, a21, a22 = A
    if np.any((a21 == 0.0) & (a22 == 0.0)):
        raise InvalidInputError("the matrix must have |det| = 1")
    om = 1.0 - c**2
    slopes = np.array([(2.0 * a / om, 2.0 * b / om) for a, b in intervals])
    k = a22 - slopes[..., None] * a21  # (m, 2, n)
    # p1 = y1 a22 - y2 a21 is extreme at a corner (x, s x) of the hull polygon, x in {c, 1}
    ka, kb = k[np.argmin(slopes[:, 0]), 0], k[np.argmax(slopes[:, 1]), 1]
    kmin, kmax = np.minimum(ka, kb), np.maximum(ka, kb)
    m1lo, m1hi = strips.integer_range(np.minimum(kmin, c * kmin), np.maximum(kmax, c * kmax), xi1)
    del kmin, kmax  # freed before the passes
    zero = (k == 0.0).any(axis=(0, 1))
    if zero.any():
        m1lo[zero] -= 1
        m1hi[zero] += 1
    rows = strips.widths(m1lo, m1hi)
    _check_budget(rows.sum(dtype=float) * len(intervals), "cone strips times windows")
    out = np.zeros((a11.size, len(intervals)), dtype=np.int64)
    for i, j in strips.runs(rows, strips.CHUNK):
        part = [a[i:j] for a in A]
        out[i:j] = _cone_pass(part, xi1[i:j], xi2[i:j], c, intervals, slopes, k[..., i:j], m1lo[i:j], m1hi[i:j])
    return out


def _cone_factors(A, xi1, xi2, c: float, slopes, k, m1lo, m1hi) -> np.ndarray:
    """Per-sample factors of ``_cone_pass``, one row each: step, x0lo, x0hi, tol, then the
    m x 2 slope bounds' factors as lower bounds and as upper bounds, nan where the bound has
    the other role."""
    a11, a12, a21, a22 = A
    m, n = len(slopes), a11.size
    f = np.empty((4 + 4 * m, n))
    step, x0lo, x0hi, tol = f[:4]
    qlo, qhi = f[4:].reshape(2, m, 2, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the x-bounds are x0 - p1 step: x0 in {c / a21, 1 / a21}, step = a11 / a21
        r = 1.0 / a21
        np.multiply(a11, r, out=step)
        np.multiply(c, r, out=x0lo)
        np.maximum(x0lo, r, out=x0hi)
        np.minimum(x0lo, r, out=x0lo)
        flat = a21 == 0.0  # y1 = e on the whole strip
        if np.any(flat):
            step[flat], x0lo[flat], x0hi[flat] = 0.0, -strips.LIMIT, strips.LIMIT
        # q = (s a11 - a12) / k, formed in the rows of qhi; 0 / False adds the nan of the other role
        q = np.multiply(slopes[..., None], a11, out=qhi)
        q -= a12
        q /= k
        sk = _SIDE * k
        np.divide(0.0, sk > 0.0, out=qlo)
        qlo += q
        q += np.divide(0.0, sk < 0.0)
        # z = (1 + |xi2| + reach) (1 + max |s|) inv (|a11| + |a12| + |a21| + |a22|), with inv =
        # 1 / |a21| + the sum of 1 / |k|, bounds the size, in p2 units, of every term of a bound
        # and of the predicate, so their rounding stays below about 1e-15 z^2; tol = 1e-9 z (1 + z)
        # is far above that and reaches 1 (every end is settled) near z = 3e4
        inv = np.abs(r)
        for t in np.divide(1.0, np.abs(k.reshape(2 * m, n), out=sk.reshape(2 * m, n))):
            inv += t
        z = m1lo + xi1
        np.abs(z, out=z)
        reach = m1hi + xi1
        np.abs(reach, out=reach)
        np.maximum(z, reach, out=reach)
        np.abs(xi2, out=z)
        z += 1.0
        z += reach
        z *= 1.0 + np.abs(slopes).max()
        z *= inv
        size = np.abs(a11, out=inv)
        size += np.abs(a12, out=reach)
        size += np.abs(a21, out=reach)
        size += np.abs(a22, out=reach)
        z *= size
        np.multiply(z, 1e-9, out=tol)
        z += 1.0
        tol *= z
        np.minimum(tol, 1.0, out=tol)
    return f


def _cone_pass(A, xi1, xi2, c: float, intervals, slopes, k, m1lo, m1hi) -> np.ndarray:
    """``_cone_kernel`` on a run of samples with m1-strips [m1lo, m1hi]: counts (n, m).

    The windows share the m1-strips and the x-bounds.  On the strip of m1,
    with p1 = m1 + xi1, e = p1 a11 and g = p1 a12, the point of p2 = m2 +
    xi2 is y = (e + a21 p2, g + a22 p2).  So c < y1 < 1 puts p2 strictly
    between (c - e) / a21 and (1 - e) / a21, and s y1 <= y2 with s = 2a /
    (1 - c^2) reads k p2 >= s e - g with k = a22 - s a21 (<= for the upper
    slope s = 2b / (1 - c^2)).  Every bound is p1 times a per-sample
    factor, plus a per-sample offset for the x-bounds; the sign of a21 or k
    fixes per sample whether it is a lower or an upper bound.  Rounding
    moves a bound by far less than ``tol``; where one lies within ``tol``
    of an integer, the float predicate of ``ConeRegion.contains`` decides
    the range end (``strips.settle``).

    A zero coefficient k makes its bound a test of the whole strip, the
    sign of s e - g.  Where the test lies within ``tol`` of 0 (tol is 1 on
    such a sample: z is infinite), the strip is counted point by point over
    the candidate m2 range of its x-bounds, finite because a21 != 0 where
    k == 0.

    The per-sample factors (``_cone_factors``) are formed once.  Every
    sample's first strip is bounded straight from them; the factors are
    gathered only to the other strips.
    """
    a11, a12, a21, a22 = A
    n, m = a11.size, len(intervals)
    f = _cone_factors(A, xi1, xi2, c, slopes, k, m1lo, m1hi)
    flat = a21 == 0.0
    flat = flat if flat.any() else None
    zero = k == 0.0
    zero = zero if zero.any() else None

    def widths(g, p1, xi2, s):
        """Per window, the number of m2 on the strips (m, len(p1)); strip i has p1[i], xi2[i] and the
        factors g[:, i] of its sample s[i]."""
        step, x0lo, x0hi, tol = g[:4]
        bound = np.empty((2, m, p1.size))
        lower, upper = bound
        t = np.multiply(p1, g[4:4 + 2 * m].reshape(m, 2, -1))
        np.fmax(t[:, 0], t[:, 1], out=lower)  # fmax and fmin skip nan
        np.multiply(p1, g[4 + 2 * m:].reshape(m, 2, -1), out=t)
        np.fmin(t[:, 0], t[:, 1], out=upper)
        shift, x = t.reshape(2 * m, -1)[:2]  # t's buffer is free until the near test
        np.multiply(p1, step, out=shift)
        np.fmax(lower, np.subtract(x0lo, shift, out=x), out=lower)
        np.fmin(upper, np.subtract(x0hi, shift, out=x), out=upper)
        if flat is not None and flat[s].any():
            on = np.flatnonzero(flat[s])
            e = p1[on] * a11[s[on]]
            lower[:, on[~((e > c) & (e < 1.0))]] = np.inf
        pointwise = []
        if zero is not None:
            for w, b in zip(*np.nonzero(zero.any(axis=-1))):
                on = np.flatnonzero(zero[w, b, s])
                test = _SIDE[b, 0] * (slopes[w, b] * (p1[on] * a11[s[on]]) - p1[on] * a12[s[on]])
                lower[w, on[test >= tol[on]]] = np.inf  # 0 >= side (s e - g) fails on the strip
                pointwise.append((w, on[np.abs(test) < tol[on]]))
        # the origin y = 0 is never inside, so on a strip through it (p1 = 0, xi2 in Z) a bound
        # of exactly 0 moves half a step: it then decides the integers without rounding
        apex = np.flatnonzero(p1 == 0.0)
        apex = apex[xi2[apex] == np.rint(xi2[apex])]
        if apex.size:
            for end, half in ((lower, 0.5), (upper, -0.5)):
                at = end[:, apex]
                at[at == 0.0] = half
                end[:, apex] = at
        bound -= xi2
        np.clip(bound, -strips.LIMIT, strips.LIMIT, out=bound)
        off = np.rint(bound, out=t.reshape(bound.shape))
        off -= bound
        near = np.abs(off, out=off) < tol
        del t, off
        lo, hi = np.ceil(lower, out=lower).astype(np.int64), np.floor(upper, out=upper).astype(np.int64)
        del bound, lower, upper
        for w, (interval, near_w) in enumerate(zip(intervals, near[0] | near[1])):
            on = np.flatnonzero(near_w)
            if on.size:
                at = s[on]
                inside = partial(_inside, ConeRegion(c, interval), p1[on], xi2[on], [a[at] for a in A])
                lo[w, on], hi[w, on] = strips.settle(lo[w, on], hi[w, on], inside)
        count = strips.widths(lo, hi)
        for w, on in pointwise:
            shift = p1[on] * step[on]
            cand = np.clip(np.stack((x0lo[on] - shift, x0hi[on] - shift)) - xi2[on], -strips.LIMIT, strips.LIMIT)
            count[w, on] = _count_inside(ConeRegion(c, intervals[w]), np.ceil(cand[0]).astype(np.int64) - 1,
                                         np.floor(cand[1]).astype(np.int64) + 1, p1[on], xi2[on],
                                         [a[s[on]] for a in A])
        return count

    rows = strips.widths(m1lo, m1hi)
    count = widths(f, m1lo + xi1, xi2, np.arange(n))  # the first strip, m1lo, of every sample
    none, more = np.flatnonzero(rows == 0), np.flatnonzero(rows > 1)
    extra = rows[more] - 1  # the other strips, with the factors gathered to them
    m1, s = strips.expand(m1lo[more] + 1, extra, more)
    sums = strips.totals(widths(f.take(s, axis=1), m1 + xi1[s], xi2[s], s), extra)
    for row, add in zip(count, sums):  # row by row: 1-d fancy indexing is the fast kind
        row[none] = 0
        row[more] += add
    return count.T


def _inside(region: ConeRegion, p1, xi2, A, m2) -> np.ndarray:
    """``region.contains`` at the points (p1, m2 + xi2) A, for an integer array m2 of strips."""
    a11, a12, a21, a22 = A
    p2 = m2 + xi2
    y = np.stack((p1 * a11 + p2 * a21, p1 * a12 + p2 * a22), axis=-1)
    return region.contains(y).reshape(m2.shape)


def _count_inside(region: ConeRegion, lo, hi, p1, xi2, A) -> np.ndarray:
    """Per strip, the m2 in [lo, hi] that ``_inside`` keeps, testing each one.

    Raises CapacityError when the candidates pass the budget.
    """
    width = strips.widths(lo, hi)
    _check_budget(width.sum(dtype=float), "zero-coefficient strip candidates")
    out = np.zeros(lo.size, dtype=np.int64)
    for m2, row in strips.expand_pieces(lo, width, 0.0, np.arange(lo.size)):
        keep = _inside(region, p1[row], xi2[row], [a[row] for a in A], m2)
        out += np.bincount(row[keep], minlength=lo.size)
    return out


def cone_counts(A: np.ndarray, shift: np.ndarray, region: ConeRegion) -> np.ndarray:
    """Count m in Z^2 with (m + shift) A inside the region, per sample.

    ``A`` is (n, 2, 2) with |det A| = 1, ``shift`` is (n, 2).  The m1-strips
    span the pull-back of the region's polygon, whose corners are (x, 2 x a
    / (1 - c^2)) and (x, 2 x b / (1 - c^2)) for x in {c, 1}.  On each strip
    the two x-bounds and the two slope bounds give the m2 range in closed
    form, and ``ConeRegion.contains`` -- the float test of (m + shift) A --
    decides the integers at both ends of it, so the count is the number of
    lattice points the exact filter keeps.
    """
    A = np.asarray(A, dtype=float).reshape(-1, 2, 2)
    shift = np.broadcast_to(np.asarray(shift, dtype=float).reshape(-1, 2), (A.shape[0], 2))
    entries = A.reshape(-1, 4).T
    return _cone_kernel(entries, shift[:, 0], shift[:, 1], region.c, [region.interval])[:, 0]


def _coset_shift(p, q: int, coset) -> np.ndarray:
    """(p gamma mod q) / q for integer cosets gamma (..., 2, 2): the shift of (Z^2 + p/q) gamma."""
    pg = np.einsum("i,...ij->...j", np.asarray(p, dtype=np.int64), coset)
    return np.mod(pg, q) / q


def count_in_region(sample: HomSample, regions, xi_mode: str = "generic", pq=None) -> np.ndarray:
    """Window counts of one affine-lattice sample in each cone region.

    ``xi_mode="generic"`` counts (m + xi) n(u) a(v) k(phi); with
    ``xi_mode="fixed_rational"`` and ``pq=(p1, p2, q)`` the lattice is
    (Z^2 + p/q) gamma n(u) a(v) k(phi) for the sample's integer coset gamma,
    counted as (Z^2 + (p gamma mod q) / q) n(u) a(v) k(phi).
    """
    regions = [regions] if isinstance(regions, ConeRegion) else list(regions)
    if not regions:
        raise InvalidInputError("need at least one region")
    pt = sample.point
    A = _iwasawa_entries(*(np.array([t]) for t in (pt.u, pt.v, pt.phi)))
    if xi_mode == "generic":
        shift = np.array(sample.xi)
    elif xi_mode == "fixed_rational":
        if pq is None:
            raise InvalidInputError("fixed_rational mode needs pq=(p1, p2, q)")
        p1, p2, q = pq
        coset = np.eye(2, dtype=np.int64) if sample.coset is None else sample.coset
        shift = _coset_shift((p1, p2), q, coset)
    else:
        raise InvalidInputError(f"unknown xi_mode {xi_mode!r}")
    xi1, xi2 = shift[:1], shift[1:]
    return np.array([int(_cone_kernel(A, xi1, xi2, reg.c, [reg.interval])[0, 0]) for reg in regions])


# ---------------------------------------------------------------------------
# Congruence coset representatives


def coset_reps(q: int) -> list[np.ndarray]:
    """Integer representatives of the level-q congruence cosets.

    Breadth-first search over words in the standard generators
    S = [[0,-1],[1,0]] and T = [[1,1],[0,1]] inside SL(2, Z/q), keeping one
    integer product per residue class.  Supported for 2 <= q <= 5.
    """
    if not 2 <= q <= 5:
        raise UnsupportedError(f"coset enumeration supports 2 <= q <= 5, got {q}")
    order = q**3
    for p in {f for f in (2, 3, 5) if q % f == 0}:
        order = order * (p * p - 1) // (p * p)
    S = np.array([[0, -1], [1, 0]], dtype=np.int64)
    Sinv = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    T = np.array([[1, 1], [0, 1]], dtype=np.int64)
    Tinv = np.array([[1, -1], [0, 1]], dtype=np.int64)
    gens = [S, Sinv, T, Tinv]
    ident = np.eye(2, dtype=np.int64)
    reps = {tuple(ident.flatten() % q): ident}
    queue = [ident]
    while queue and len(reps) < order:
        g = queue.pop(0)
        for h in gens:
            ng = g @ h
            key = tuple(ng.flatten() % q)
            if key not in reps:
                reps[key] = ng
                queue.append(ng)
    if len(reps) != order:
        raise RuntimeError(f"coset search found {len(reps)} of {order} classes")
    return list(reps.values())


# ---------------------------------------------------------------------------
# Count-distribution estimation


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Empirical distribution of count vectors over Monte Carlo samples.

    ``rows`` holds the distinct count vectors as an int64 array of shape
    (K, m), sorted lexicographically; ``block_hist[b, i]`` is the number of
    samples of block b with count vector ``rows[i]``.  The block split lets
    heavy-tailed moments be estimated by median-of-means.
    """

    rows: np.ndarray
    block_hist: np.ndarray

    def __post_init__(self):
        rows, hist = np.asarray(self.rows), np.asarray(self.block_hist)
        if not (rows.ndim == hist.ndim == 2 and rows.shape[1] > 0 and hist.shape[1] == len(rows)
                and rows.dtype.kind == hist.dtype.kind == "i"):
            raise InvalidInputError("rows and block_hist must be integer arrays (K, m) and (blocks, K)")
        if np.any(hist < 0) or hist.sum() <= 0:
            raise InvalidInputError("block counts must be nonnegative with a positive total")
        step = np.diff(rows, axis=0)
        if np.any(step[np.arange(len(step)), np.argmax(step != 0, axis=1)] <= 0):
            raise InvalidInputError("rows must be distinct and sorted lexicographically")
        object.__setattr__(self, "rows", rows.astype(np.int64))
        object.__setattr__(self, "block_hist", hist.astype(np.int64))

    @property
    def counts(self) -> np.ndarray:
        return self.block_hist.sum(axis=0)

    @property
    def total(self) -> int:
        return int(self.block_hist.sum())

    @property
    def m(self) -> int:
        return self.rows.shape[1]

    def probabilities(self) -> np.ndarray:
        return self.counts / self.total

    def _values(self, powers) -> np.ndarray:
        powers = np.atleast_1d(np.asarray(powers, dtype=float))
        if powers.size != self.m:
            raise InvalidInputError("one power per component required")
        if not np.all(np.isfinite(powers)):
            raise InvalidInputError("powers must be finite")
        ks = self.rows.astype(float)
        return np.prod(np.where((ks == 0) & (powers == 0), 1.0, ks**powers), axis=1)

    def moment(self, powers) -> MCResult:
        """Plain-mean estimate of E[prod_j k_j^{p_j}] with its standard error."""
        vals = self._values(powers)
        cnt = self.counts.astype(float)
        mean = float(np.sum(vals * cnt) / self.total)
        var = float(np.sum(vals**2 * cnt) / self.total - mean**2)
        return MCResult(mean, math.sqrt(max(var, 0.0) / self.total), self.total)

    def moment_mom(self, powers) -> MCResult:
        """Median-of-means estimate over the stored sample blocks.

        Block means add count * value over the rows present, in row order
        (a cumsum: a BLAS dot would reorder the sum).  The standard error is
        1.4826 * MAD / sqrt(blocks), the MAD taken over the block means.
        """
        vals = self._values(powers)
        hist = self.block_hist
        terms = np.where(hist > 0, hist * vals, 0.0)
        means = np.cumsum(terms, axis=1)[:, -1] / hist.sum(axis=1)
        med = float(np.median(means))
        mad = float(np.median(np.abs(means - med)))
        return MCResult(med, 1.4826 * mad / math.sqrt(means.size), self.total)

    def survival(self, k_values) -> np.ndarray:
        """P(N >= k) for scalar count distributions, vectorized over k."""
        if self.m != 1:
            raise InvalidInputError("survival needs a scalar count distribution")
        ks = self.rows[:, 0]
        tail = np.cumsum(self.counts[::-1].astype(float))[::-1]
        idx = np.searchsorted(ks, np.asarray(k_values))
        out = np.where(idx < ks.size, tail[np.minimum(idx, ks.size - 1)], 0.0)
        return out / self.total


def _count_table(rows):
    """The distinct rows of an (n, m) int64 array in lexicographic order, their numbers, and
    each row's index among them.

    A key is refined column by column: the key of the columns so far times
    the column's span, plus the column's value above its minimum, is ranked
    among its distinct values.  The rank is one bincount over the key's
    span, or ``np.unique`` where that span is more than 4n; a column spread
    over more than 4n values is ranked among its distinct values first, so
    the key stays below 4 n^2.  The distinct rows are decoded from each
    column's distinct keys by ``divmod``, so no row is scattered.
    """
    n = len(rows)
    index, K, levels = 0, 1, []
    for col in rows.T:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if span > 4 * n:
            values, digit = np.unique(col, return_inverse=True)
        else:
            values, digit = np.arange(lo, lo + span), col - lo
        key = index * values.size + digit
        if K * values.size > 4 * n:
            keys, index, numbers = np.unique(key, return_inverse=True, return_counts=True)
        else:
            numbers = np.bincount(key)
            keys = np.flatnonzero(numbers)
            index = (np.cumsum(numbers > 0) - 1)[key]
            numbers = numbers[keys]
        levels.append((keys, values))
        K = keys.size
    distinct = np.empty((K, len(levels)), dtype=np.int64)
    at = np.arange(K)
    for j, (keys, values) in reversed(list(enumerate(levels))):
        at, digit = np.divmod(keys[at], values.size)
        distinct[:, j] = values[digit]
    return distinct, numbers, index


def _merge_tables(tables) -> CountDistribution:
    """Count law of per-block (distinct rows, numbers) tables, block 0 first."""
    distinct, _, index = _count_table(np.concatenate([r for r, _ in tables]))
    hist = np.zeros((len(tables), len(distinct)), dtype=np.int64)
    block = np.repeat(np.arange(len(tables)), [len(r) for r, _ in tables])
    hist[block, index] = np.concatenate([f for _, f in tables])  # a row occurs once per table
    return CountDistribution(distinct, hist)


def sample_count_distribution(
    c: float,
    xi_class: str,
    box,
    n: int,
    rng,
    q: int | None = None,
    p=None,
    blocks: int = MOM_BLOCKS,
) -> CountDistribution:
    """Monte Carlo law of the cone-region count vector of a random lattice.

    ``xi_class`` selects the ensemble: "integer" counts the plain lattice
    (shift zero) under the Haar measure; "rational" fixes shift p/q and
    additionally draws a uniform congruence coset gamma, counted as the
    shift (p gamma mod q) / q; "irrational" draws the shift uniformly from
    the unit torus.  Sampling runs in ``blocks``
    independent substreams derived from ``rng`` (``_haar_blocks``), so the
    merged result does not depend on scheduling and heavy-tailed moments
    can use median-of-means over the same blocks.  Each block's counts are
    reduced to its distinct rows and their numbers as soon as they are
    counted (``_count_table``), and the tables are merged at the end.

    CapacityError is raised before anything is drawn when the most cone
    strips the samples can need, times the windows, pass the budget.  A
    fundamental-domain sample has v >= sqrt(3) / 2 and a slope coefficient
    |k| <= (1 + s) / sqrt(v), s = 2 max |a|, |b| / (1 - c^2), so its m1
    range is at most 2.15 (1 + s) long, and holds at most 2.15 (1 + s) + 3
    strips with the two that a zero coefficient adds.
    """
    if n < 1:
        raise InvalidInputError("need at least one sample")
    box = as_box(box)
    intervals = [ConeRegion(c, iv).interval for iv in box.intervals]  # validates c and the windows
    # in Python floats an overflow is inf, which fails the check, not a RuntimeWarning
    s = 2.0 * max(abs(x) for iv in intervals for x in iv) / (1.0 - float(c) ** 2)
    _check_budget(n * len(intervals) * (2.15 * (1.0 + s) + 3.0), f"{n} samples x {len(intervals)} windows")
    blocks = min(blocks, n)
    sizes = [n // blocks + (1 if i < n % blocks else 0) for i in range(blocks)]
    tables = []
    for u, v, phi, shift in _haar_blocks(rng, sizes, xi_class, p, q):
        counts = _cone_kernel(_iwasawa_entries(u, v, phi), shift[:, 0], shift[:, 1], c, intervals)
        tables.append(_count_table(counts)[:2])
    return _merge_tables(tables)


def tail_exponent(dist: CountDistribution, k_min: int, min_tail_count: int = 10) -> float:
    """Least-squares slope of log P(N >= k) against log k for k >= k_min.

    Only integers whose tail still holds at least ``min_tail_count``
    samples enter the fit (beyond that the empirical tail is noise).
    Raises InsufficientDataError with fewer than three usable points.
    """
    if dist.m != 1:
        raise InvalidInputError("tail fit needs a scalar count distribution")
    if k_min < 1:
        raise InvalidInputError("k_min must be at least 1")
    k_max = int(dist.rows[-1, 0])
    ks = np.arange(k_min, k_max + 1)
    if ks.size == 0:
        raise InsufficientDataError("no mass at or above k_min")
    surv = dist.survival(ks)
    usable = surv * dist.total >= min_tail_count
    ks, surv = ks[usable], surv[usable]
    if ks.size < 3:
        raise InsufficientDataError(f"only {ks.size} usable tail points")
    slope = np.polyfit(np.log(ks.astype(float)), np.log(surv), 1)[0]
    return float(slope)


def exact_limit_moment(powers, box) -> float | None:
    """Exact limit moment, else None: E[N] = |I|, E[N^2] = |I| + |I|^2,
    E[N1 N2] = |I1 & I2| + |I1| |I2|."""
    box = as_box(box)
    powers = [float(p) for p in powers]
    if len(powers) != box.m:
        raise InvalidInputError("need one power per interval")
    if not all(map(math.isfinite, powers)):
        raise InvalidInputError("powers must be finite")
    lengths = box.lengths
    if powers == [1.0]:
        return float(lengths[0])
    if powers == [2.0]:
        return float(lengths[0] + lengths[0] ** 2)
    if powers == [1.0, 1.0]:
        (a1, b1), (a2, b2) = box.intervals
        inter = max(0.0, min(b1, b2) - max(a1, a2))
        return float(inter + lengths[0] * lengths[1])
    return None


# ---------------------------------------------------------------------------
# Gaussian lattice sums (Siegel identities)


def disc_count(A: np.ndarray, shift: np.ndarray, r: float) -> np.ndarray:
    """Number of points (m + shift) A inside the closed disc of radius r, |det A| = 1.

    Raises CapacityError before any strip is formed when an m1 bound does
    not fit int64 (``strips.integer_range``) or the strips pass the budget.
    """
    A = np.asarray(A, dtype=float).reshape(-1, 2, 2)
    shift = np.broadcast_to(np.asarray(shift, dtype=float).reshape(-1, 2), (A.shape[0], 2))
    m1lo, m1hi, q12, q22 = strips.ellipse_span(*A.reshape(-1, 4).T, r, shift[:, 0])
    rows = strips.widths(m1lo, m1hi)
    _check_budget(rows.sum(dtype=float), "disc strips")
    m1, xi1, q12, q22, xi2 = strips.expand(m1lo, rows, shift[:, 0], q12, q22, shift[:, 1])
    m2lo, m2hi, disc = strips.root_pair(q12, q22, m1 + xi1, xi2, r)
    m2hi = np.where(disc >= 0.0, m2hi, m2lo - 1)
    return strips.totals(strips.widths(m2lo, m2hi), rows)


def _gauss_sums(u, v, shift, squares: bool):
    """Per sample, the sum of exp(-|x|^2) over x = (m + shift) n(u) a(v) k(phi), |p1| <= RCUT / sqrt(v).

    |(p1, p2) n(u) a(v) k(phi)|^2 = v p1^2 + (p2 + u p1)^2 / v, so phi drops
    out and each m1-strip is exp(-v p1^2) times the sum over all m2 of
    exp(-(m2 + c)^2 / v), c = shift_2 + u p1.  By Poisson summation that sum
    is sqrt(pi v) (1 + 2 sum_k exp(-pi^2 v k^2) cos 2 pi k c), and that of
    exp(-2 (m2 + c)^2 / v) is sqrt(pi v / 2) (1 + 2 sum_k exp(-pi^2 v k^2 / 2)
    cos 2 pi k c).  For v >= V_FLOOR the terms past k = 2 (past k = 3 for the
    second) are below 2e-33 (1e-29) relative, so each strip takes one cosine
    of c mod 1 and its Chebyshev multiples.  The strips are summed per
    sample.  With ``squares`` the sums of exp(-2 |x|^2) come second;
    otherwise None.
    """
    n = u.size
    reach = RCUT / np.sqrt(v)
    m1lo, m1hi = strips.integer_range(-reach, reach, shift[:, 0])
    q = np.exp(-0.5 * math.pi**2 * v)  # exp(-pi^2 v k^2 / 2) = q^(k^2)
    m1, xi1, us, vs, c, q, sample = strips.expand(
        m1lo, strips.widths(m1lo, m1hi), shift[:, 0], u, v, shift[:, 1], q, np.arange(n)
    )
    p1 = m1 + xi1
    c += us * p1
    c -= np.floor(c)
    cos1 = np.cos(TWO_PI * c)
    cos2 = 2.0 * cos1 * cos1 - 1.0
    f = np.exp(-vs * p1 * p1)
    q2 = q * q
    q4 = q2 * q2
    s = np.bincount(sample, weights=f * (1.0 + 2.0 * (q2 * cos1 + q4 * q4 * cos2)), minlength=n)
    s = s * np.sqrt(math.pi * v)  # not in place: without strips, bincount gives int64
    if not squares:
        return s, None
    cos3 = 2.0 * cos1 * cos2 - cos1
    f *= f
    s2 = np.bincount(sample, weights=f * (1.0 + 2.0 * (q * cos1 + q4 * cos2 + q4 * q4 * q * cos3)),
                     minlength=n)
    return s, s2 * np.sqrt(0.5 * math.pi * v)


def siegel_average(which: str, n: int, rng) -> MCResult:
    """Monte Carlo check of the Gaussian lattice-sum mean values.

    ``which="classic"``: the Haar average of sum_{m != 0} exp(-|m M|^2)
    equals pi.  ``which="affine_pair"``: averaging, additionally over a
    uniform torus shift, the sum over ordered pairs m1 != m2 of
    exp(-|x1|^2 - |x2|^2) at x_i = (m_i + shift) M equals pi^2, i.e.
    S^2 - S_2 with S the sum of exp(-|x|^2) and S_2 that of exp(-2 |x|^2).
    For M = n(u) a(v) k(phi) the m-sums run over the m1-strips whose
    Gaussian factor exp(-v p1^2) is 1e-16 or more, each strip's sum over m2
    taken whole in closed form, which holds for v >= V_FLOOR
    (``_gauss_sums``).  The samples come in Haar blocks of SIEGEL_BATCH
    (``_haar_blocks``), each summed in sub-chunks of SIEGEL_CHUNK samples.
    Samples past the budget raise CapacityError before anything is drawn.
    """
    if which not in ("classic", "affine_pair"):
        raise InvalidInputError(f"unknown variant {which!r}")
    if n < 2:
        raise InvalidInputError("need at least two samples")
    _check_budget(n, "samples")
    sizes = [min(SIEGEL_BATCH, n - i) for i in range(0, n, SIEGEL_BATCH)]
    xi_class = "integer" if which == "classic" else "irrational"
    vals = np.empty(n)
    done = 0
    for u, v, _, shift in _haar_blocks(rng, sizes, xi_class):  # k(phi) leaves |x| unchanged
        for i in range(0, u.size, SIEGEL_CHUNK):
            j = min(i + SIEGEL_CHUNK, u.size)
            s, s2 = _gauss_sums(u[i:j], v[i:j], shift[i:j], which == "affine_pair")
            vals[done + i : done + j] = s - 1.0 if s2 is None else s * s - s2  # classic drops m = 0
        done += u.size
    exact = math.pi if which == "classic" else math.pi**2
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n))
    return MCResult(est, se, n, exact)


# ---------------------------------------------------------------------------
# Bound checks


def crude_bound_min_T(interval, theta: float) -> float:
    """Desk-scale heuristic for the scale above which the cone bound is
    safe to assert; the bound itself is asymptotic in T."""
    reach = max(abs(interval[0]), abs(interval[1])) + theta
    return 10.0 * (1.0 + reach) / theta


def crude_bound_holds(
    lat: AffineLatticeSpec,
    alpha: float,
    T: float,
    interval,
    theta: float,
    c: float = 0.0,
    dirs: DirectionSet | None = None,
) -> bool:
    """Window count at scale T bounded by a padded cone count.

    The left side counts directions in the shrunk window; the right side
    counts lattice points of (m + shift) M0 k(2*pi*alpha) diag(1/T, T)
    inside the c = 0 cone over the theta-padded interval.  Requires
    T >= crude_bound_min_T(interval, theta); theta > 0.
    """
    if theta <= 0:
        raise InvalidInputError("theta must be positive")
    if T < crude_bound_min_T(interval, theta):
        raise InvalidInputError("T below the safe scale for this window padding")
    if dirs is None:
        lhs, N = count_in_window(lat, Annulus(c), T, interval, alpha)
        if N == 0:
            raise InvalidInputError("empty direction set")
    else:
        lhs = counting_stat(dirs, interval, alpha)
    flow = np.array([[1.0 / T, 0.0], [0.0, T]])
    A = lat.basis.array() @ rotation(TWO_PI * alpha).array() @ flow
    region = ConeRegion(0.0, (interval[0] - theta, interval[1] + theta))
    rhs = int(cone_counts(A[None], np.array(lat.shift), region)[0])
    return lhs <= rhs


def cusp_bound_holds(sample: HomSample, r: float, sigmas=(1.5, 2.0, 2.5)) -> bool:
    """High-cusp count bound for the disc of radius r.

    For v >= 1 the number of affine lattice points in the closed disc is
    at most (2 r sqrt(v) + 1) times the number of shifted integers in
    [-r/sqrt(v), r/sqrt(v)]; for v > 4 r^2 the same holds with both sides
    raised to each sigma (the integer factor is then 0 or 1).
    """
    pt = sample.point
    if pt.v < 1.0:
        raise InvalidInputError("cusp bound requires v >= 1")
    if r < 0:
        raise InvalidInputError("radius must be nonnegative")
    A = iwasawa_matrix(pt.u, pt.v, pt.phi)
    lhs = int(disc_count(A, np.array(sample.xi), r)[0])
    half = r / math.sqrt(pt.v)
    n_int = int(strips.widths(*strips.integer_range(-half, half, sample.xi[0])))
    factor = 2.0 * r * math.sqrt(pt.v) + 1.0
    if lhs > factor * n_int:
        return False
    if pt.v > 4.0 * r * r and r > 0:
        for sigma in sigmas:
            if float(lhs) ** sigma > factor**sigma * n_int:
                return False
    return True
