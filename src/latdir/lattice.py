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
by sector and sorts each sector in cache.  The result is exact by
construction, whatever the float decisions at the cuts: the pieces
partition the kept points, and a check of the sector boundaries sends any
misplaced angle to one global sort.
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
# Roundoff of a computed sector-ray crossing along a strip, per unit of its
# scale |y|^2 / |p1| + |r1| |y| + |t| + 1: about 1e-14, times a margin of a
# thousand.  A crossing closer than this to an integer is decided by ``_turns``.
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
        if a.size and (a[0] < 0.0 or a[-1] >= 1.0 or np.any(a[1:] < a[:-1])):
            raise InvalidInputError("alphas must be sorted and lie in [0, 1)")
        _require_scale(self.T)

    @property
    def N(self) -> int:
        return int(self.alphas.size)


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


def _kept_chunks(lat: AffineLatticeSpec, shape: DomainShape, T: float, max_points: int):
    """The strip loop behind ``enumerate_points``.

    Returns the number of kept points and an iterator over (y1, y2) of the
    kept points in (strip, m2) order, ``strips.CHUNK`` points at a time.
    """
    B, xi2, p1, starts, counts, key = _kept_ranges(lat, shape, T, max_points)
    order = np.argsort(key, kind="stable")
    return int(counts.sum()), _points(B, xi2, starts[order], counts[order], p1[key[order] >> 3])


def _kept_ranges(lat: AffineLatticeSpec, shape: DomainShape, T: float, max_points: int):
    """Validate the input, solve the m1-strips and return their kept m2 ranges.

    Every error is raised before anything point-sized is allocated.  Each
    strip's candidate m2 range (its chord, minus the inner-disc chord
    shrunk by one integer on an annulus with c > 0) splits into a certified
    interior, taken whole, and a few boundary candidates near the range
    ends, the inner circle or the origin, which ``_inside`` decides
    (``_zones``).  Returns the reduced basis B, the shift's xi2, each
    strip's p1 and the kept ranges as ``_zones`` gives them.
    """
    _require_scale(T)
    lat.basis.require_unimodular()
    if expected_count(shape, T) > max_points:
        raise CapacityError(
            f"expected about {expected_count(shape, T):.3g} points, cap is {max_points}"
        )
    B, (xi1, xi2) = _reduced(lat.basis, lat.shift)
    if isinstance(shape, Annulus):
        m1lo, m1hi, q12, q22 = strips.ellipse_span(B.a, B.b, B.c, B.d, T, xi1)
    else:
        q12, q22 = B.a * B.c + B.b * B.d, B.c**2 + B.d**2
        p1max = T * (abs(B.d) + abs(B.c))
        m1lo, m1hi = strips.integer_range(-p1max, p1max, xi1)
    if m1hi - m1lo + 1 > max_points:
        raise CapacityError(f"enumeration needs {m1hi - m1lo + 1} strips, cap is {max_points}")
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
    candidates = int(strips.widths(lo, hi).sum()
                     - strips.widths(np.maximum(rlo, lo), np.minimum(rhi, hi)).sum())
    if candidates > max_points:
        raise CapacityError(f"enumeration needs {candidates} candidates, cap is {max_points}")
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
    argsort of the key puts them in (strip, m2) order.
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
    m2, bkey = strips.expand(first.ravel(), (np.column_stack([b1, b3, b5, top]) - first).ravel(),
                             (key + [0, 2, 4, 6]).ravel())
    keep = inside(m2, bkey >> 3)
    first = np.column_stack([b1, b5])
    starts = np.concatenate([first.ravel(), m2[keep]])
    counts = np.concatenate([(np.column_stack([b2, b6]) - first).ravel(),
                             np.ones(np.count_nonzero(keep), dtype=np.int64)])
    return starts, counts, np.concatenate([(key + [1, 5]).ravel(), bkey[keep]])


def _sector_pieces(B: Mat2, xi2, p1, starts, counts, key, K: int, reach: float):
    """Cut the kept m2 ranges at the K sector rays k/K into pieces, sector by sector.

    Along a strip y = p1 r1 + t r2, t = m2 + xi2, the angle increases with
    t when p1 > 0 and decreases when p1 < 0 (det B = 1).  The strip crosses
    the ray u_k at t = |p1| w_k, w_k = -sign(p1) (r1 x u_k) / (r2 x u_k):
    the rays with r2 x u_k < 0 when p1 > 0, those with r2 x u_k > 0 when
    p1 < 0, in the order of w.  A p1 = 0 strip passes through the origin
    and is cut there, exactly, between the directions of -r2 and r2.  The
    first integer past a crossing starts the next sector's piece; where the
    crossing lies within roundoff of an integer (``CUT_TOL``), the sectors
    floor(K turns) of the two integers next to it, by ``_turns``, decide
    instead.  The cuts are clipped into each range and made nondecreasing,
    so the pieces partition the ranges whatever those decisions are.
    ``reach`` bounds |y| on the domain.

    Returns the start, length and p1 of every piece, and the number of
    points in each sector.  The pieces come sector by sector (within a
    sector, in no particular order); some are empty.
    """
    ray = np.arange(K if K > 1 else 0)
    cos, sin = np.cos(TWO_PI * ray / K), np.sin(TWO_PI * ray / K)
    a1, a2 = B.a * sin - B.b * cos, B.c * sin - B.d * cos  # r1 x u_k, r2 x u_k
    q = p1[key >> 3]
    r1 = math.hypot(B.a, B.b)
    groups = []
    for sign in (1, -1):
        rays = ray[sign * a2 < 0]
        with np.errstate(over="ignore"):
            w = np.clip(-sign * a1[rays] / a2[rays], -strips.LIMIT, strips.LIMIT)
        order = np.argsort(w)
        w, rays = w[order], rays[order]
        # sector[j]: the sector of a strip's points past its first j crossings
        if rays.size:
            sector = np.concatenate([rays[:1] - int(sign > 0), rays - int(sign < 0)]) % K
        else:  # no ray is crossed: every point lies in the sector of p1 r1
            sector = _sector(_turns_of([sign * B.a], [sign * B.b]), K)
        groups.append((sign * q > 0, sign, w, sector))
    groups.append((q == 0, 0, np.zeros(1), _sector(_turns_of([-B.c, B.c], [-B.d, B.d]), K)))
    pieces = []
    for mask, sign, w, sector in groups:
        rows = np.flatnonzero(mask & (counts > 0))
        s, n, pr = starts[rows], counts[rows], q[rows]
        a = np.abs(pr) if sign else np.ones(rows.size)  # the p1 = 0 strip: t = 1 w
        with np.errstate(over="ignore"):
            # the crossings within one integer of each range
            lo_w, hi_w = ((s - 1) + xi2) / a, ((s + n) + xi2) / a
            lim = 0.5 - CUT_TOL * (reach * reach / a + r1 * reach + np.abs(s) + n + 1.0)
        if not sign:
            lim[:] = 0.5  # the cut at t = 0 is exact
        j0 = np.searchsorted(w, lo_w, side="left")
        per = np.searchsorted(w, hi_w, side="right") - j0 + 1
        # piece k of range r: its points past j = j0 + k crossings, the last at w[j - 1]
        jp, rp = strips.expand(j0, per, np.arange(rows.size))
        head = np.cumsum(per) - per
        m2 = a[rp] * np.concatenate([[0.0], w])[jp] - xi2
        m2[head] = 0.5  # a range's first piece starts at the range
        cut = np.floor(m2)
        m2 -= cut
        near = np.flatnonzero(np.abs(m2 - 0.5) > lim[rp])
        del m2
        cut += 1.0  # the first integer past the crossing
        if near.size:  # unless the two integers next to it decide otherwise
            c = cut[near]
            p2 = np.stack([c - 1.0, c]) + xi2
            pn = pr[rp[near]]
            turns = np.empty(p2.shape)
            _turns(_affine_combo(pn, p2, B.a, B.c), _affine_combo(pn, p2, B.b, B.d), turns)
            # past the crossing: within half a turn of its next sector, onwards
            past = 2 * ((sign * (_sector(turns, K) - sector[jp[near]])) % K) < K
            cut[near] = c + 1.0 - past[0] - (past[0] | past[1])
        # positions in the ranges laid end to end, clipped and made nondecreasing
        end = np.cumsum(n)
        off = end - n - s
        pos = cut.astype(np.int64)
        del cut
        pos += off[rp]
        np.minimum(pos, end[rp], out=pos)
        pos[head] = end - n
        np.maximum.accumulate(pos, out=pos)
        size = np.diff(pos, append=end[-1] if end.size else 0)
        pos -= off[rp]
        pieces.append((pos, size, pr[rp], sector[jp]))
    starts, counts, p1, sector = (np.concatenate(x) for x in zip(*pieces))
    order = np.argsort(sector.astype(np.min_scalar_type(K)), kind="stable")
    sizes = np.bincount(sector, weights=counts, minlength=K).astype(np.int64)
    return starts[order], counts[order], p1[order], sizes


def _turns_of(y1, y2):
    """``_turns`` of a few points given as lists."""
    out = np.empty(len(y1))
    _turns(np.array(y1, dtype=float), np.array(y2, dtype=float), out)
    return out


def _sector(turns, K: int):
    """The sector floor(K turns) of each angle, K - 1 where K turns rounds up to K."""
    return np.minimum((turns * K).astype(np.int64), K - 1)


def _in_order(alphas, sizes) -> bool:
    """Whether each nonempty sector's last angle is <= the first angle of the next one."""
    end = np.cumsum(sizes)[sizes > 0]
    first = (end - sizes[sizes > 0])[1:]
    return bool(np.all(alphas[end[:-1] - 1] <= alphas[first]))


def _square_range(B: Mat2, p1, xi2, t):
    """Each strip's m2 range of the closed square |y1|, |y2| <= t."""
    return strips.halfplanes(xi2, [
        (B.c, -t - p1 * B.a, ">="), (B.c, t - p1 * B.a, "<="),
        (B.d, -t - p1 * B.b, ">="), (B.d, t - p1 * B.b, "<="),
    ])


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


def enumerate_points(
    lat: AffineLatticeSpec,
    shape: DomainShape,
    T: float,
    max_points: int = DEFAULT_MAX_POINTS,
) -> np.ndarray:
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
    decides only a few boundary candidates per strip (``_kept_chunks``), so
    the result is exactly the points that pass that test.  The kept ranges
    are expanded in pieces straight into the exactly sized result.  Use
    ``direction_set`` when only the directions are needed.

    Raises InvalidInputError unless T is finite and positive.  Raises
    CapacityError when the expected point count exceeds ``max_points``,
    before allocating anything; when the m1-strips do (a thin annulus, c
    near 1, holds few points on many strips); or when the candidates do.
    """
    total, chunks = _kept_chunks(lat, shape, T, max_points)
    out = np.empty((total, 2))
    n = 0
    for y1, y2 in chunks:
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


def direction_set(
    lat: AffineLatticeSpec,
    shape: DomainShape,
    T: float,
    max_points: int = DEFAULT_MAX_POINTS,
) -> DirectionSet:
    """Sorted directions of the lattice points in the domain, without the points.

    Bit for bit ``directions(enumerate_points(lat, shape, T, max_points), T,
    shape)``, with the same errors, but no (n, 2) array is built: the kept
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
    same multiset gives the same bytes; the decisions at the cuts only
    decide how often that fallback runs.  N < 2 SECTOR gives K = 1: no ray
    to cut at, and one sort.
    """
    B, xi2, p1, starts, counts, key = _kept_ranges(lat, shape, T, max_points)
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
