"""Affine planar lattices: point enumeration and direction sequences.

A unimodular basis ``M0`` and a shift ``xi`` define the point set
``(Z^2 + xi) M0`` (row vectors act on the right).  This module enumerates
the nonzero points inside an open annulus ``c*T < |y| < T`` or an open
square ``(-T, T)^2`` and turns them into the sorted sequence of direction
angles, measured in turns (angle / 2*pi, mod 1), with multiplicity.

Points are enumerated one m1-strip at a time, and each strip is a line,
so its angles are monotone in m2.  ``direction_set`` uses that to build
the sorted sequence in sector order: it cuts every strip where it crosses
the K sector rays k/K (K from the point count), writes the angles sector
by sector and sorts each sector in cache.  The pieces partition the kept
points, and the points within roundoff of a ray get the sector of their
own angle, so the result is exact by construction; a check of the sector
boundaries would send any misplaced angle to one global sort.

``count_in_window`` uses the same cut (``_cut``) at the two rays of a
window's ends: a window count is a sum of piece widths, in O(strips)
time and memory, with no direction set at all.  It has no sort to fall
back on, so it tests the first and last point of every piece by their
own angle and decides a range that fails point by point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import strips
from .errors import CapacityError, InvalidInputError

TWO_PI = 2.0 * math.pi
DET_TOL = 1e-12
# The one size budget: every entry point estimates the values it would hold or walk and
# passes the estimate to ``_check_budget`` before it allocates them.
DEFAULT_MAX_POINTS = 200_000_000
# Relative margin by which the enumerator shrinks the outer radius and the
# square, and grows the inner radius, to solve each strip's certified
# interior: far above the roundoff of y and |y|^2 on a reduced basis.
MARGIN = 1e-9
# The smallest inner radius the interior is solved with.  A strip that
# misses this disc holds no point that rounds to the origin, and the
# squares of radii above it are normal floats.
ORIGIN_RADIUS = 2.0**-500
# Target angles per sector of ``direction_set``.  A sector of 2^17 values
# (1 MB) sorts in cache at about 8 ns a value; smaller sectors sort barely
# faster per value and need more cuts.
SECTOR = 2 * strips.CHUNK
# Values that ``count_in_window`` holds per m1-strip at its peak (about 60 to 80 measured): its
# strips are checked against the budget at this weight, as a point is by the enumerator.
STRIP_VALUES = 96
# Roundoff of a computed sector-ray crossing along a strip, per unit of its
# scale |y|^2 / |p1| + |r1| |y| + |t| + 1: about 1e-14, times a margin of a
# thousand.  The integers this close to a crossing are decided by ``_turns``.
# It is an estimate, not a proven bound: ``count_in_window`` checks the ends
# of its pieces, and ``direction_set`` the order of its sectors.
CUT_TOL = 2.0**-36


@dataclass(frozen=True)
class Mat2:
    """Row-major 2x2 real matrix with entries a, b / c, d."""

    a: float
    b: float
    c: float
    d: float

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    @classmethod
    def from_array(cls, m) -> "Mat2":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise InvalidInputError(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1]))

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    def require_unimodular(self) -> "Mat2":
        if not abs(self.det - 1.0) <= DET_TOL:  # a NaN determinant fails too
            raise InvalidInputError(f"matrix must have determinant 1, got {self.det!r}")
        return self

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2.from_array(self.array() @ other.array())


def rotation(phi: float) -> Mat2:
    """Rotation matrix k(phi) = [[cos, -sin], [sin, cos]].

    Acting on row vectors from the right, k(phi) moves a point at angle phi
    onto the positive x-axis.
    """
    c, s = math.cos(phi), math.sin(phi)
    return Mat2(c, -s, s, c)


@dataclass(frozen=True)
class Annulus:
    """Open annulus c*T < |y| < T; c = 0 gives the punctured open disc."""

    c: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.c < 1.0:
            raise InvalidInputError(f"annulus ratio must be in [0, 1), got {self.c}")


@dataclass(frozen=True)
class Square:
    """Open square (-T, T)^2 with the origin removed."""


DomainShape = Annulus | Square


@dataclass(frozen=True)
class AffineLatticeSpec:
    """Unimodular basis plus real shift: the point set (Z^2 + shift) basis."""

    basis: Mat2
    shift: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        self.basis.require_unimodular()
        if len(self.shift) != 2:
            raise InvalidInputError("shift must be a 2-vector")
        shift = (float(self.shift[0]), float(self.shift[1]))
        if not all(math.isfinite(x) for x in shift):
            raise InvalidInputError(f"shift must be finite, got {shift}")
        object.__setattr__(self, "shift", shift)


@dataclass(frozen=True, eq=False)
class DirectionSet:
    """Sorted multiset of direction angles in [0, 1) for points at scale T."""

    alphas: np.ndarray
    T: float
    shape: DomainShape

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        object.__setattr__(self, "alphas", a)
        if a.ndim != 1:
            raise InvalidInputError("alphas must be one-dimensional")
        # the order is checked in CHUNK-sized slices that overlap by one: no N-sized temporary
        blocks = (a[i:i + strips.CHUNK + 1] for i in range(0, a.size, strips.CHUNK))
        if a.size and (a[0] < 0.0 or a[-1] >= 1.0 or any(np.any(b[1:] < b[:-1]) for b in blocks)):
            raise InvalidInputError("alphas must be sorted and lie in [0, 1)")
        _require_scale(self.T)

    @property
    def N(self) -> int:
        return int(self.alphas.size)


def _check_budget(values, what: str) -> None:
    """Raise CapacityError when ``values`` (an int or a float; NaN fails) pass the budget.

    The budget is ``DEFAULT_MAX_POINTS`` as the module holds it at the call,
    so setting that one name moves every cap of the package at once.
    """
    if not values <= DEFAULT_MAX_POINTS:
        raise CapacityError(f"{what}: {values:.6g} values, more than the budget of {DEFAULT_MAX_POINTS}")


def _require_scale(T) -> None:
    if not (math.isfinite(T) and T > 0):  # NaN fails both tests
        raise InvalidInputError(f"T must be finite and positive, got {T!r}")


def expected_count(shape: DomainShape, T: float) -> float:
    """Leading-order point count: pi*(1-c^2)*T^2 (annulus) or 4*T^2 (square)."""
    _require_scale(T)
    if isinstance(shape, Annulus):
        return math.pi * (1.0 - shape.c**2) * T * T
    return 4.0 * T * T


def _affine_combo(p1, p2, c1, c2):
    # y = c1*p1 + c2*p2, skipping zero terms (identity bases are common)
    if c2 == 0.0:
        return p1 if c1 == 1.0 else p1 * c1
    if c1 == 0.0:
        return p2 if c2 == 1.0 else p2 * c2
    return p1 * c1 + p2 * c2


def _reduced(basis: Mat2, shift):
    """Lagrange-Gauss reduction: the same point set on a basis with a shortest row 2.

    Returns (gamma M0, xi gamma^-1) for a gamma in SL(2, Z) that makes
    |<r1, r2>| <= |r2|^2 / 2 and |r2| <= |r1| for the new rows r1, r2.
    Both are computed exactly from the float inputs and rounded once; the
    new shift is taken mod 1 into [-1/2, 1/2].  An already reduced basis
    (gamma = I) comes back as the caller's own basis, and its own shift
    unless a component is 2^53 or more in size: such a float is an integer,
    which m + xi could not keep apart from m, so it becomes 0.0 (mod 1).
    """
    rows = [(Fraction(basis.a), Fraction(basis.b)), (Fraction(basis.c), Fraction(basis.d))]
    gamma = [(1, 0), (0, 1)]

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1]

    while True:  # reduce the longer row against the shorter until neither moves
        norms = dot(rows[0], rows[0]), dot(rows[1], rows[1])
        short = 0 if norms[0] <= norms[1] else 1
        q = round(dot(*rows) / norms[short])
        if not q:
            break
        for m in (rows, gamma):
            m[1 - short] = (m[1 - short][0] - q * m[short][0], m[1 - short][1] - q * m[short][1])
    if norms[0] < norms[1]:  # a quarter turn moves the shorter row to row 2, det gamma = 1
        for m in (rows, gamma):
            m[:] = [(-m[1][0], -m[1][1]), m[0]]
    if gamma == [(1, 0), (0, 1)]:
        if all(abs(x) < 2.0**53 for x in shift):
            return basis, shift
        return basis, tuple(x if abs(x) < 2.0**53 else 0.0 for x in shift)
    (g11, g12), (g21, g22) = gamma
    x1, x2 = Fraction(shift[0]), Fraction(shift[1])
    s1 = x1 * g22 - x2 * g21  # xi gamma^-1, gamma^-1 = [[g22, -g12], [-g21, g11]]
    s2 = x2 * g11 - x1 * g12
    return (
        Mat2(*(float(x) for row in rows for x in row)),
        (float(s1 - round(s1)), float(s2 - round(s2))),
    )


def _kept_ranges(lat: AffineLatticeSpec, shape: DomainShape, T: float, count_only: bool = False):
    """Validate the input, solve the m1-strips and return their kept m2 ranges.

    Every error is raised before anything point-sized is allocated.  Each
    strip's candidate m2 range (its chord, minus the inner-disc chord
    shrunk by one integer on an annulus with c > 0) splits into a certified
    interior, taken whole, and a few boundary candidates near the range
    ends, the inner circle or the origin, which ``_inside`` decides
    (``_zones``).  Returns the reduced basis B, the shift's xi2, each
    strip's p1 and the kept ranges as ``_zones`` gives them.

    The budget (``_check_budget``) caps the boundary candidates and the
    strips, these at ``STRIP_VALUES`` each when ``count_only`` (the ranges
    are only counted); otherwise it caps the points and the candidates as
    well.
    """
    _require_scale(T)
    lat.basis.require_unimodular()
    if not count_only:
        _check_budget(expected_count(shape, T), "points expected about the domain's area")
    B, (xi1, xi2) = _reduced(lat.basis, lat.shift)
    if isinstance(shape, Annulus):
        m1lo, m1hi, q12, q22 = strips.ellipse_span(B.a, B.b, B.c, B.d, T, xi1)
    else:
        q12, q22 = B.a * B.c + B.b * B.d, B.c**2 + B.d**2
        p1max = T * (abs(B.d) + abs(B.c))
        m1lo, m1hi = strips.integer_range(-p1max, p1max, xi1)
    # A strip's chord, at most 2 T (annulus) or 2 sqrt(2) T (square) long, spans about that
    # over |r2| = sqrt(q22) integers, whose int64 bounds overflow past strips.LIMIT; q22
    # underflows to 0 for a basis as skewed as (1e300, 0, 0, 1e-300).
    chord = 2.0 * T * (1.0 if isinstance(shape, Annulus) else math.sqrt(2.0))
    per_strip = chord / math.sqrt(q22) if q22 > 0.0 else math.inf
    if per_strip > strips.LIMIT:
        raise CapacityError(f"a strip would span about {per_strip:.3g} integers, more than int64 can hold")
    rows = m1hi - m1lo + 1
    _check_budget(rows * (STRIP_VALUES if count_only else 1), f"{rows} m1-strips")
    p1 = np.arange(m1lo, m1hi + 1, dtype=np.int64) + xi1
    if isinstance(shape, Annulus):
        lo, hi = strips.root_pair(q12, q22, p1, xi2, T)[:2]
        ilo, ihi = strips.root_pair(q12, q22, p1, xi2, T * (1.0 - MARGIN))[:2]
        r = shape.c * T
    else:
        lo, hi = _square_range(B, p1, xi2, T)
        ilo, ihi = _square_range(B, p1, xi2, T * (1.0 - MARGIN))
        r = 0.0
    clo, chi, disc = strips.root_pair(q12, q22, p1, xi2, max(r * (1.0 + MARGIN), ORIGIN_RADIUS))
    if r > 0:  # the candidates skip the inner chord shrunk by one integer at each end
        rlo, rhi = strips.root_pair(q12, q22, p1, xi2, r)[:2]
        rlo += 1
        rhi -= 1
    else:
        rlo, rhi = lo, lo - 1
    if not count_only:
        candidates = (strips.widths(lo, hi).sum()
                      - strips.widths(np.maximum(rlo, lo), np.minimum(rhi, hi)).sum())
        _check_budget(int(candidates), "candidates")
    # the interior is narrowed by one integer, the excluded chord widened by one
    ilo += 1
    ihi -= 1
    meets = disc >= 0.0
    clo = np.where(meets, clo - 1, ihi + 1)
    chi = np.where(meets, chi + 1, ihi)
    ranges = _zones(lo, hi, ilo, ihi, clo, chi, rlo, rhi,
                    lambda m2, k: _inside(B, xi2, shape, T, m2, p1[k]))
    return (B, xi2, p1, *ranges)


def _zones(lo, hi, ilo, ihi, clo, chi, rlo, rhi, inside):
    """Kept m2 ranges of every strip, unordered, with a key that orders them.

    Per strip, [lo, hi] is the candidate range, [ilo, ihi] minus [clo, chi]
    the certified interior and [rlo, rhi] a part known to be outside.
    Breakpoints cut [lo, hi] into seven zones: boundary, interior,
    boundary, outside, boundary, interior, boundary.  Interior zones are
    kept whole, outside zones dropped, and the boundary candidates kept
    where ``inside(m2, strip)`` holds, each as a range of one.  Returns the
    start, length and key 8 strip + zone of every kept range; a stable
    argsort of the key puts them in (strip, m2) order.  Boundary candidates
    past the budget raise CapacityError before they are formed.
    """
    top = np.maximum(hi + 1, lo)
    b1 = np.clip(ilo, lo, top)
    b2 = np.clip(np.minimum(ihi, clo - 1) + 1, b1, top)
    b3 = np.clip(rlo, b2, top)
    b4 = np.clip(rhi + 1, b3, top)
    b5 = np.clip(np.maximum(ilo, chi + 1), b4, top)
    b6 = np.clip(ihi + 1, b5, top)
    key = 8 * np.arange(lo.size, dtype=np.int64)[:, None]
    first = np.column_stack([lo, b2, b4, b6])
    width = (np.column_stack([b1, b3, b5, top]) - first).ravel()
    _check_budget(int(width.sum()), "boundary candidates")
    m2, bkey = strips.expand(first.ravel(), width, (key + [0, 2, 4, 6]).ravel())
    keep = inside(m2, bkey >> 3)
    first = np.column_stack([b1, b5])
    starts = np.concatenate([first.ravel(), m2[keep]])
    counts = np.concatenate([(np.column_stack([b2, b6]) - first).ravel(),
                             np.ones(np.count_nonzero(keep), dtype=np.int64)])
    return starts, counts, np.concatenate([(key + [1, 5]).ravel(), bkey[keep]])


def _cut(B: Mat2, xi2, p1, starts, counts, key, edges, reach: float, check: bool = False):
    """Cut the kept m2 ranges at the rays of turns ``edges`` into pieces of one sector each.

    ``edges`` is sorted, starts at 0.0 and has K entries; sector k holds the
    angles t (``_turns``) with edges[k] <= t < edges[k + 1], the last one
    those from edges[K - 1] on.  Along a strip y = p1 r1 + t r2, t = m2 +
    xi2, the angle runs from the direction of -r2 (t -> -inf) through half
    a turn, increasing when p1 > 0 and decreasing when p1 < 0 (det B = 1),
    and it crosses the ray u_k at t = |p1| w_k, w_k = -sign(p1) (r1 x u_k) /
    (r2 x u_k).  The crossed rays and their order come from the edges alone
    (``_crossed``), so the sector between two crossings is known whatever
    the roundoff of w.  A p1 = 0 strip passes through the origin and is cut
    there, exactly, between the directions of -r2 and r2.

    Within roundoff of a crossing (``CUT_TOL`` times the strip's scale) the
    float predicate decides: every integer in that band gets the sector of
    its own ``_turns`` value.  Bands and the pieces between them are clipped
    into each range and made nondecreasing, so the pieces partition the
    ranges.  A range whose band would be as long as the range, and a p1 = 0
    strip whose direction lies within ``CUT_TOL`` of a ray, is decided point
    by point, unless r2 lies on an axis: then each half of that strip has
    one exact ``_turns`` value and is decided whole.  So each point lands in
    the sector of its own ``_turns`` value.
    ``reach`` bounds |y| on the domain; points to decide past the budget
    raise CapacityError before they are formed.

    ``CUT_TOL`` is an estimate of the roundoff of w.  With ``check``, the
    first and last point of every piece are tested by ``_turns``, in O(pieces);
    a range with a piece that fails is cut again, point by point.  A piece
    is then wrong only if ``_turns`` is not monotone between its two ends.

    Returns the start, length, p1 and sector of every piece, in no
    particular order; some are empty.
    """
    K = edges.size
    ray = np.arange(K if K > 1 else 0)
    cos, sin = np.cos(TWO_PI * edges[ray]), np.sin(TWO_PI * edges[ray])
    a1, a2 = B.a * sin - B.b * cos, B.c * sin - B.d * cos  # r1 x u_k, r2 x u_k
    q = p1[key >> 3]
    r1 = math.hypot(B.a, B.b)
    down, up = _turns_of([-B.c, B.c], [-B.d, B.d])  # the directions of -r2 and r2

    def sector_of(turns):
        return np.searchsorted(edges, turns, side="right") - 1

    groups = []
    for sign in (1, -1):
        rays, past = _crossed(edges[ray], down, sign)
        with np.errstate(over="ignore", divide="ignore"):
            w = -sign * a1[rays] / a2[rays]
        # a ray within roundoff of -r2 or r2 is crossed at the start or at the end of the strip
        odd = sign * a2[rays] >= 0.0
        w[odd] = np.where(past[odd] < 0.25, -strips.LIMIT, strips.LIMIT)
        w = np.maximum.accumulate(np.clip(w, -strips.LIMIT, strips.LIMIT))
        # sector[j]: the sector of a strip's points past its first j crossings
        if rays.size:
            sector = np.concatenate([rays[:1] - int(sign > 0), rays - int(sign < 0)]) % K
        else:  # no ray is crossed: every point lies in the sector of p1 r1
            sector = sector_of(_turns_of([sign * B.a], [sign * B.b]))
        groups.append((sign * q > 0, sign, w, sector, False))
    gap = _frac(edges[ray, None] - [down, up])
    # with r2 on an axis, every point of each half of the p1 = 0 strip has the exact turns
    # of -r2 or r2: arctan2 of (0, y2) or (y1, 0) is a multiple of a quarter turn
    on_ray = B.c != 0.0 and B.d != 0.0 and bool(np.any(np.minimum(gap, 1.0 - gap) < CUT_TOL))
    groups.append((q == 0, 0, np.zeros(1), sector_of(np.array([down, up])), on_ray))
    pieces, decided = [], 0
    for mask, sign, w, sector, on_ray in groups:
        rows = np.flatnonzero(mask & (counts > 0))
        s, n, pr = starts[rows], counts[rows], q[rows]
        a = np.abs(pr) if sign else np.ones(rows.size)  # the p1 = 0 strip: t = 1 w
        with np.errstate(over="ignore", divide="ignore"):
            tol = CUT_TOL * (reach * reach / a + r1 * reach + np.abs(s) + n + 1.0)
        if not sign:
            tol[:] = np.inf if on_ray else 0.0  # the cut at t = 0 is exact
        while True:
            first, size, rp, jp, lo, bands, owner = _slots(s, n, a, tol, w, xi2)
            if not check:
                break
            # a piece whose first or last point has a turns value outside its sector sends its
            # whole range to be decided point by point; the second pass finds no such piece
            full = np.flatnonzero(size > 0)
            ends = np.concatenate([first[full], first[full] + size[full] - 1])
            at = np.tile(rp[full], 2)
            miss = sector_of(_point_turns(B, xi2, pr[at], ends)) != np.tile(sector[jp[full]], 2)
            if not miss.any():
                break
            tol[at[miss]] = np.inf
        decided += int(bands.sum())
        _check_budget(decided, "points to decide at the cuts")
        m2, owner = strips.expand(lo, bands, owner)
        pieces.append((first, size, pr[rp], sector[jp]))
        pieces.append((m2, np.ones(m2.size, dtype=np.int64), pr[owner],
                       sector_of(_point_turns(B, xi2, pr[owner], m2))))
    return tuple(np.concatenate(x) for x in zip(*pieces))


def _slots(s, n, a, tol, w, xi2):
    """Split the ranges [s, s + n) of one p1 sign at their crossings t = a w[j], with bands.

    ``w`` is nondecreasing; a range with ``tol >= n`` is one band.  Slot k
    of range r holds the points past its crossing at w[j - 1], j = j0 + k,
    and after that crossing's band (slot 0 starts at the range).  Returns
    the start, length, range and j of every slot, and the first m2, length
    and range of every band, whose points the caller forms.
    """
    whole = tol >= n
    with np.errstate(over="ignore"):  # the crossings whose bands reach into each range
        lo_w, hi_w = ((s - 1) - tol + xi2) / a, ((s + n) + tol + xi2) / a
    j0 = np.searchsorted(w, lo_w, side="left")
    per = np.where(whole, 1, np.searchsorted(w, hi_w, side="right") - j0 + 1)
    jp, rp = strips.expand(j0, per, np.arange(s.size))
    head = np.cumsum(per) - per
    m2 = a[rp] * np.concatenate([[0.0], w])[jp] - xi2
    band = tol[rp]
    m2[head] = s
    band[head] = 0.0
    cut = m2 + band
    np.floor(cut, out=cut)  # the last integer of the band
    m2 -= band
    del band
    cut[head] = np.where(whole, s + n - 1, s - 1)
    held = np.flatnonzero(m2 <= cut)  # the bands that hold an integer
    first = np.ceil(m2[held])
    del m2
    cut += 1.0
    # positions in the ranges laid end to end, clipped and made nondecreasing
    end = np.cumsum(n)
    off = end - n - s
    pos = cut.astype(np.int64)
    del cut
    pos += off[rp]
    np.minimum(pos, end[rp], out=pos)
    np.maximum.accumulate(pos, out=pos)
    size = np.diff(pos, append=end[-1] if end.size else 0)
    # a band ends where its slot's points start, and starts no earlier than the slot before
    owner = rp[held]
    lo = np.maximum(first.astype(np.int64) + off[owner], np.where(held > 0, pos[held - 1], 0))
    np.minimum(lo, pos[held], out=lo)
    bands = pos[held] - lo
    size[held[held > 0] - 1] -= bands[held > 0]
    return pos - off[rp], size, rp, jp, lo - off[owner], bands, owner


def _crossed(edges, down, sign: int):
    """The rays crossed by the strips of one sign of p1, in the order they are crossed.

    A strip's angle runs through the open half turn after ``down`` (the
    direction of -r2), forwards for sign 1 and backwards for sign -1.  The
    crossed rays are those whose turns lie strictly inside, ordered by
    their distance from ``down`` along the way; rays of equal float
    distance keep the order of their edges along the way.  Returns the
    rays and those distances.
    """
    past = _frac(sign * (edges - down))
    rays = np.flatnonzero((past > 0.0) & (past < 0.5))[::sign]
    rays = rays[np.argsort(past[rays], kind="stable")]
    return rays, past[rays]


def _sector_pieces(B: Mat2, xi2, p1, starts, counts, key, K: int, reach: float):
    """Cut the kept m2 ranges at the K sector rays k/K into pieces, sector by sector.

    ``_cut`` with the edges k/K.  Returns the start, length and p1 of every
    piece, and the number of points in each sector.  The pieces come sector
    by sector (within a sector, in no particular order); some are empty.
    """
    starts, counts, p1, sector = _cut(B, xi2, p1, starts, counts, key, np.arange(K) / K, reach)
    order = np.argsort(sector.astype(np.min_scalar_type(K)), kind="stable")
    sizes = np.bincount(sector, weights=counts, minlength=K).astype(np.int64)
    return starts[order], counts[order], p1[order], sizes


def _turns_of(y1, y2):
    """``_turns`` of a few points given as lists."""
    out = np.empty(len(y1))
    _turns(np.array(y1, dtype=float), np.array(y2, dtype=float), out)
    return out


def _point_turns(B: Mat2, xi2, p1, m2):
    """``_turns`` of the points (p1, m2 + xi2) B, bit for bit as ``direction_set`` stores them."""
    p2 = m2 + xi2
    out = np.empty(p2.shape)
    _turns(_affine_combo(p1, p2, B.a, B.c), _affine_combo(p1, p2, B.b, B.d), out)
    return out


def _in_order(alphas, sizes) -> bool:
    """Whether each nonempty sector's last angle is <= the first angle of the next one."""
    end = np.cumsum(sizes)[sizes > 0]
    first = (end - sizes[sizes > 0])[1:]
    return bool(np.all(alphas[end[:-1] - 1] <= alphas[first]))


def _square_range(B: Mat2, p1, xi2, t):
    """Each strip's m2 range of the closed square |y1|, |y2| <= t.

    Per axis, with (r, q) = (B.a, B.c) or (B.b, B.d), the closed slab
    -t <= p1 r + (m2 + xi2) q <= t puts m2 between (-t - p1 r) / q - xi2
    and (t - p1 r) / q - xi2, saturated at ``strips.LIMIT``.  A zero q makes
    the slab a test of the whole strip, -t - p1 r <= 0 <= t - p1 r; a strip
    that fails it gets the empty range [1, 0].  det B = 1, so the other q is
    nonzero and bounds the range.
    """
    lo, hi, ok = -strips.LIMIT, strips.LIMIT, True
    for r, q in ((B.a, B.c), (B.b, B.d)):
        below, above = -t - p1 * r, t - p1 * r
        if q == 0.0:
            ok = ok & (below <= 0.0) & (above >= 0.0)
            continue
        with np.errstate(over="ignore"):  # a tiny q gives inf, which the clip saturates
            ends = np.clip([below / q - xi2, above / q - xi2], -strips.LIMIT, strips.LIMIT)
        lo, hi = np.maximum(lo, ends.min(axis=0)), np.minimum(hi, ends.max(axis=0))
    return np.where(ok, np.ceil(lo), 1).astype(np.int64), np.where(ok, np.floor(hi), 0).astype(np.int64)


def _inside(B: Mat2, xi2, shape: DomainShape, T: float, m2, p1):
    """The float domain test: is the point (p1, m2 + xi2) B strictly inside and nonzero?"""
    p2 = m2 + xi2
    y1 = _affine_combo(p1, p2, B.a, B.c)
    y2 = _affine_combo(p1, p2, B.b, B.d)
    if isinstance(shape, Annulus):
        r2 = y1 * y1 + y2 * y2
        # r2 underflows to 0 near the origin, so c = 0 tests the coordinates
        inner = r2 > (shape.c * T) ** 2 if shape.c > 0 else (y1 != 0.0) | (y2 != 0.0)
        return (r2 < T * T) & inner
    return (np.abs(y1) < T) & (np.abs(y2) < T) & ((y1 != 0.0) | (y2 != 0.0))


def _points(B: Mat2, xi2, starts, counts, p1):
    """The points (y1, y2) of the kept ranges, ``strips.CHUNK`` at a time."""
    for p2, p1 in strips.expand_pieces(starts, counts, xi2, p1):
        yield _affine_combo(p1, p2, B.a, B.c), _affine_combo(p1, p2, B.b, B.d)


def enumerate_points(lat: AffineLatticeSpec, shape: DomainShape, T: float) -> np.ndarray:
    """All nonzero points of the affine lattice inside the open domain.

    Returns an (n, 2) array of points y = (m + shift) basis with
    c*T < |y| < T (annulus, both inequalities strict) or y in (-T, T)^2
    (square), in (m1, m2) order of the reduced basis.  The basis is
    Lagrange-Gauss reduced first (``_reduced``), so row 2 is a shortest
    lattice vector and iteration runs over at most about 2.15 T + 1
    m1-strips of the domain preimage, whatever the entries of the caller's
    basis; the cost is proportional to the domain area.  A reduced basis,
    the identity in particular, is used as given.

    Each strip's certified interior is taken whole; the float domain test
    decides only a few boundary candidates per strip (``_kept_ranges``), so
    the result is exactly the points that pass that test.  The kept ranges,
    put in (strip, m2) order, are expanded in pieces straight into the
    exactly sized result.  Use ``direction_set`` when only the directions
    are needed.

    Raises InvalidInputError unless T is finite and positive.  Raises
    CapacityError, before allocating anything, when the expected point
    count passes the budget (``_check_budget``); when the m1-strips do (a
    thin annulus, c near 1, holds few points on many strips); or when the
    candidates do.
    """
    B, xi2, p1, starts, counts, key = _kept_ranges(lat, shape, T)
    order = np.argsort(key, kind="stable")
    out = np.empty((int(counts.sum()), 2))
    n = 0
    for y1, y2 in _points(B, xi2, starts[order], counts[order], p1[key[order] >> 3]):
        out[n:n + y1.size, 0] = y1
        out[n:n + y1.size, 1] = y2
        n += y1.size
    return out


def _frac(x, out=None):
    """x - floor(x): bit for bit ``np.mod(x, 1.0)`` for every float64, at under half its cost.

    ``np.mod`` takes ``fmod(x, 1)``, which is exact, and adds 1 when that is
    negative; both round the same exact value x - floor(x) once.  So a tiny
    negative x wraps to 1.0 in both, -0.0 and integers map to +0.0, and inf
    and nan map to nan.
    """
    return np.subtract(x, np.floor(x), out=out)


def _turns(y1, y2, out):
    """Direction angles of the points (y1, y2) in turns, in [0, 1), written to ``out``."""
    np.arctan2(y2, y1, out=out)
    out /= TWO_PI
    _frac(out, out=out)
    out[out >= 1.0] = 0.0  # tiny negative angles round up to 1.0


def directions(points, T: float, shape: DomainShape) -> DirectionSet:
    """Sorted direction angles (turns in [0, 1)) of the given nonzero points.

    Multiplicities are preserved: k points sharing a direction produce k
    equal entries.  The branch point at angle zero maps to 0.0.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if np.any((pts[:, 0] == 0.0) & (pts[:, 1] == 0.0)):
        raise InvalidInputError("zero vector has no direction")
    alphas = np.empty(len(pts))
    _turns(pts[:, 0], pts[:, 1], alphas)
    alphas.sort()  # values only, no NaN or -0.0: any sort gives the same bytes
    return DirectionSet(alphas, float(T), shape)


def direction_set(lat: AffineLatticeSpec, shape: DomainShape, T: float) -> DirectionSet:
    """Sorted directions of the lattice points in the domain, without the points.

    Bit for bit ``directions(enumerate_points(lat, shape, T), T, shape)``,
    with the same errors, but no (n, 2) array is built: the kept
    strip ranges are cut at K = N // SECTOR sector rays k/K
    (``_sector_pieces``) and their angles written sector by sector, one
    cache-sized piece at a time, into one exactly sized array.  Each sector
    is then sorted in place, in cache.

    Exact by construction, in two parts.  The multiset: the cuts are
    clipped into each range and made nondecreasing, so the pieces
    partition the kept ranges whatever the float decisions at the cuts
    are.  The order: each sector is sorted, and an O(K) check that every
    nonempty sector's last angle is <= the next one's first (``_in_order``)
    either passes, so the whole array is sorted, or the whole array is
    sorted again.  ``_turns`` yields no NaN and no -0.0, so any sort of the
    same multiset gives the same bytes.  ``_cut`` puts every point in the
    sector of its own angle, so the fallback is only a safety net.  N < 2
    SECTOR gives K = 1: no ray to cut at, and one sort.
    """
    B, xi2, p1, starts, counts, key = _kept_ranges(lat, shape, T)
    total = int(counts.sum())
    K = max(total // SECTOR, 1)
    starts, counts, p1, sizes = _sector_pieces(B, xi2, p1, starts, counts, key, K,
                                               math.sqrt(2.0) * T)
    assert int(counts.sum()) == total
    alphas = np.empty(total)
    n = 0
    for y1, y2 in _points(B, xi2, starts, counts, p1):
        _turns(y1, y2, alphas[n:n + y1.size])
        n += y1.size
    end = np.cumsum(sizes)
    for a, b in zip(end - sizes, end):
        alphas[a:b].sort()
    if not _in_order(alphas, sizes):
        alphas.sort()
    return DirectionSet(alphas, float(T), shape)


def count_in_window(
    lat: AffineLatticeSpec,
    shape: DomainShape,
    T: float,
    interval,
    alpha: float,
) -> tuple[int, int]:
    """The window count at alpha and N, without the direction set.

    Returns exactly ``(counting_stat(dirs, interval, alpha), dirs.N)`` for
    ``dirs = direction_set(lat, shape, T)``, with count 0 when N = 0, in
    O(strips) time and memory.  N is the total width of the kept ranges.
    The window ends are those of ``stats.window_counts`` (``_window_count``),
    and the directions under each end come from the kept ranges cut at the
    rays of the window ends (``_cut``): piece widths, plus the float
    predicate turns < end on the points within roundoff of a ray, where
    ``_turns`` gives the value that ``direction_set`` would store.  The cut
    checks the two ends of every piece by ``_turns`` as well, and cuts a
    range that fails point by point.

    The budget (``_check_budget``) caps the strips, at ``STRIP_VALUES``
    each, and the points decided one by one (the boundary candidates and the
    points next to the rays), not N: T = 1e5 (N about 3.1e10) holds about
    0.1 GB, and T goes up to about 1e6 on a unit-square lattice.  Raises
    CapacityError past it, before allocating, and InvalidInputError on a bad
    interval or scale.
    """
    _window_count(interval, 0, alpha, None)  # checks the interval before any strip is solved
    B, xi2, p1, starts, counts, key = _kept_ranges(lat, shape, T, count_only=True)
    N = int(counts.sum())

    def below(ends):
        edges = np.unique(np.concatenate([[0.0], ends[(ends > 0.0) & (ends < 1.0)]]))
        sizes = np.array([N])
        if edges.size > 1:
            pieces = _cut(B, xi2, p1, starts, counts, key, edges, math.sqrt(2.0) * T, check=True)
            sizes = np.bincount(pieces[3], weights=pieces[1], minlength=edges.size).astype(np.int64)
        under = np.concatenate([[0], np.cumsum(sizes)])  # under[k]: the turns under edges[k], N under 1
        return under[np.searchsorted(edges, ends, side="left")]

    return int(_window_count(interval, N, alpha, below)), N


def _window_count(interval, N: int, alphas, below):
    """Directions in the shrunk windows N^-1 * interval + alpha, one count per alpha.

    The window is the half-open arc [alpha + a/N, alpha + b/N) on the
    circle.  With lo = frac(alpha + a/N) and hi = lo + (b - a)/N the count
    is J(hi) - J(lo), where J(x) = below(frac(x)) + N floor(x) counts the
    lifted sequence under x, so wrap-around needs no branch.  ``below``
    takes the ends stacked as (lo, frac(hi)) and returns the number of the
    N directions under each.  A window of length >= 1, and N = 0, give N.
    Raises InvalidInputError unless a < b.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise InvalidInputError(f"bad interval ({a}, {b})")
    al = np.asarray(alphas, dtype=float)
    width = (b - a) / N if N else math.inf
    if width >= 1.0:
        return np.full(al.shape, N, dtype=np.int64)
    lo = _frac(al + a / N)
    hi = lo + width
    turns = np.floor(hi)
    low, high = below(np.stack([lo, hi - turns]))
    return high - low + N * turns.astype(np.int64)


def rho_square(alpha):
    """Limiting direction density on the circle for the square domain.

    The density is pi / (4 cos^2(2 pi (alpha - nu))) on the sector around
    the nearest axis direction nu in {0, 1/4, 1/2, 3/4}; it integrates to 1
    and its square integrates to pi/3.
    """
    a = np.asarray(alpha, dtype=float)
    delta = a - np.round(a * 4.0) / 4.0
    out = math.pi / (4.0 * np.cos(TWO_PI * delta) ** 2)
    return float(out) if np.isscalar(alpha) else out


def lattice_from_json(text: str):
    """Parse a lattice experiment from its JSON form.

    Expected fields: ``basis`` (2x2 row-major), ``shift`` (2-vector),
    ``shape`` (either {"annulus": c} or "square"), ``T``.  Returns
    ``(AffineLatticeSpec, DomainShape, T)``.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad lattice JSON: {exc}") from exc
    try:
        basis = Mat2.from_array(obj["basis"])
        shift = tuple(float(x) for x in obj.get("shift", (0.0, 0.0)))
        shape_obj = obj.get("shape", {"annulus": 0.0})
        T = float(obj["T"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad lattice JSON: {exc}") from exc
    if shape_obj == "square":
        shape: DomainShape = Square()
    elif isinstance(shape_obj, dict) and "annulus" in shape_obj:
        shape = Annulus(float(shape_obj["annulus"]))
    else:
        raise InvalidInputError(f"bad shape field: {shape_obj!r}")
    return AffineLatticeSpec(basis, shift), shape, T
