"""Affine planar lattices: point enumeration and direction sequences.

A unimodular basis ``M0`` and a shift ``xi`` define the point set
``(Z^2 + xi) M0`` (row vectors act on the right).  This module enumerates
the nonzero points inside an open annulus ``c*T < |y| < T`` or an open
square ``(-T, T)^2`` and turns them into the sorted sequence of direction
angles, measured in turns (angle / 2*pi, mod 1), with multiplicity.

One rule decides which points are in the domain: the strict float test
``_inside``.  Every path takes its candidates from the domain grown by
``MARGIN``, takes whole a certified interior solved on the domain shrunk
by it, and lets ``_inside`` decide the rest, so each keeps exactly the
points that ``_inside`` keeps.  Points are enumerated one m1-strip at a
time, the domain test deciding the few candidates near each strip's ends
(``DirectionStream._kept``).  Which kept points have a direction in an
arc [x, y) is answered by one engine.  At scale T the directions in an
arc come from the lattice points in a thin sector, and a linear frame,
the rotation k(alpha) followed by a diagonal flow, maps that sector onto
a fixed triangle, as the limit law maps its cones (Marklof and
Strombergsson, Annals of Math. 173, 2010).  Each arc of at most 1/8 turn
(``_split_arcs``) has its frame Gauss-reduced with its integer change of
basis kept exactly (``_frames``); the reduced strips that meet the
triangle hold the candidates, whose certified interior is taken whole and
the rest decided by ``_inside`` and the point's own float angle
(``DirectionStream._arc_ranges``).  A long strip costs O(1).

The sorted sequence is formed in sector order (``_sorted_sectors``):
each of the K = N // SECTOR sectors [k/K, (k+1)/K) is split into arcs,
the arcs' ranges are expanded into points, and each sector's angles are
written into one reused buffer and sorted there, in cache.  Every point
lies in the sector of its own angle, so the result is exact by
construction.  Time is O(N log SECTOR), and memory one sector plus the
reduced strips of a few thousand at a time.  ``direction_stream`` hands
the sectors on one at a time (a ``DirectionStream``, which checks that
each sector starts at or after the end of the one before), and
``direction_set`` copies them end to end into one array of N angles.
The statistics that walk the directions once in order, spacings and
pair sums, take a stream as they take a ``DirectionSet``, so their
memory is about one sector.

Both count windows [lo, hi) with one method, ``window_counter``.  A set
searches its array (``_searched``).  A stream solves its strips on first
use, so it can count where N is far past the budget, and counts each
window's arcs on their reduced strips without forming a direction: O(1)
strips for a window that holds O(1) directions.  Where the reduced
strips would cost more than the N directions, the stream walks its
sectors with ``_below`` instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import strips
from .errors import CapacityError, InvalidInputError, LatdirError

TWO_PI = 2.0 * math.pi
DET_TOL = 1e-12
# The one size budget: every entry point estimates the values it would hold or walk and
# passes the estimate to ``_check_budget`` before it allocates them.
DEFAULT_MAX_POINTS = 200_000_000
# Relative margin by which every strip solve grows the domain to take its
# candidates, and shrinks the outer radius and the square, and grows the
# inner radius, to solve each strip's certified interior: far above the
# roundoff of y and |y|^2 on a reduced basis.
MARGIN = 1e-9
# The smallest inner radius the interior is solved with.  A strip that
# misses this disc holds no point that rounds to the origin, and the
# squares of radii above it are normal floats.
ORIGIN_RADIUS = 2.0**-500
# Target angles per sector of ``_sorted_sectors``.  A sector of 2^17 values
# (1 MB) sorts in cache at about 8 ns a value; smaller sectors sort barely
# faster per value and need more reduced strips.
SECTOR = 2 * strips.CHUNK
# Values that a stream holds per m1-strip at its peak, and the window counter per reduced strip:
# every path checks its strips against the budget at this weight before any is solved.
STRIP_VALUES = 96
# Directions of a sector sweep that take about as long to form and search as one reduced strip
# of the window counter (about 1 us against 15 to 50 ns measured at T = 500 and 2000): the counter
# sweeps where its strips weigh more than the N directions at this rate, and the sweep, which holds
# its own reduced strips 4 BLOCK at a time (about 60 values each), checks them at this weight.
STRIP_COST = 32
# Values that the window counter holds per arc of at most 1/8 turn, with its window's (about 17
# measured, beside one block of frames and strips): the arcs are checked at this weight before
# any is formed.
ARC_VALUES = 64
# Turns by which the window counter widens each arc before it maps the arc's sector onto a
# triangle, and narrows it to certify an interior: far above the roundoff of ``_turns`` and of the
# frame (a few 1e-16), and below the half-width, 5e-14, of a window 2 / N wide at N = 2e13.
ARC_TOL = 2.0**-46
# Arcs, and reduced strips, that the window counter takes at a time, and a quarter of the reduced
# strips the sector sweep takes: their temporaries stay a few MB.
BLOCK = 1 << 12
# Steps after which a frame's Gauss reduction that has not settled raises LatdirError.
GAUSS_STEPS = 256


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

    def chunks(self):
        """The sorted angles as one chunk, the form the statistics' sweeps take."""
        yield self.alphas

    def window_counter(self, lo, hi):
        """The directions in each window [lo, hi) of the lifted circle: a search of the array (``_searched``)."""
        return _searched(self.chunks(), self.N, lo, hi)


@dataclass(frozen=True, eq=False)
class DirectionStream:
    """The sorted directions of the lattice points in the domain at scale T, formed one sector at a time.

    The strips are solved on first use (``N``, ``chunks()`` or
    ``window_counter``), so a stream can exist, and count, where N is far
    past the budget.  Each ``chunks()`` sweeps the sectors
    (``_sorted_sectors``), each formed from the reduced strips of its
    arcs' frames, the window counter's engine, and yields each one's
    sorted angles, a view of one reused buffer that is valid until the
    next is drawn.  A sweep forms the N directions, so it checks the
    points expected (before any strip is solved), the candidates and the
    reduced strips against the budget.  A sector that starts below the end
    of the one before, or an angle outside [0, 1), raises LatdirError: the
    check that ``DirectionSet`` makes over its whole array.
    """

    lat: AffineLatticeSpec
    shape: DomainShape
    T: float

    @cached_property
    def _span(self):
        """Validate the input and span the m1-strips of the domain grown by ``MARGIN``, without solving any.

        Returns the reduced basis B, the shift (xi1, xi2) it takes, the
        first and last m1 and the Gram entries q12, q22 of B.  A strip that
        would span past int64, and strips past the budget at
        ``STRIP_VALUES`` each, raise CapacityError.
        """
        _require_scale(self.T)
        self.lat.basis.require_unimodular()
        B, (xi1, xi2) = _reduced(self.lat.basis, self.lat.shift)
        grown = self.T * (1.0 + MARGIN)
        if isinstance(self.shape, Annulus):
            m1lo, m1hi, q12, q22 = strips.ellipse_span(B.a, B.b, B.c, B.d, grown, xi1)
        else:
            q12, q22 = B.a * B.c + B.b * B.d, B.c**2 + B.d**2
            p1max = grown * (abs(B.d) + abs(B.c))
            m1lo, m1hi = strips.integer_range(-p1max, p1max, xi1)
        # A strip's chord, at most 2 T (annulus) or 2 sqrt(2) T (square) long, spans about that
        # over |r2| = sqrt(q22) integers, whose int64 bounds overflow past strips.LIMIT; q22
        # underflows to 0 for a basis as skewed as (1e300, 0, 0, 1e-300).
        chord = 2.0 * self.T * (1.0 if isinstance(self.shape, Annulus) else math.sqrt(2.0))
        per_strip = chord / math.sqrt(q22) if q22 > 0.0 else math.inf
        if per_strip > strips.LIMIT:
            raise CapacityError(f"a strip would span about {per_strip:.3g} integers, more than int64 can hold")
        _check_budget((m1hi - m1lo + 1) * STRIP_VALUES, f"{m1hi - m1lo + 1} m1-strips")
        return B, xi1, xi2, m1lo, m1hi, q12, q22

    @cached_property
    def _kept(self):
        """Solve the m1-strips and return their kept m2 ranges, and the candidates.

        Each strip's candidate m2 range (its chord in the domain grown by
        ``MARGIN``, minus the inner-disc chord shrunk by one integer on an
        annulus with c > 0) splits into a certified interior, taken whole,
        and a few boundary candidates near the range ends, the inner circle
        or the origin, which ``_inside`` decides (``_zones``, which checks
        the boundary candidates against the budget).  So the kept points are
        exactly those that ``_inside`` keeps.  Returns the kept ranges as
        ``_zones`` gives them, and the candidates: the total width of the
        candidate ranges, which a pass that forms every point checks against
        the budget.  The boundary candidates' budget keeps that total far
        below 2^63.
        """
        B, xi1, xi2, m1lo, m1hi, q12, q22 = self._span
        p1 = np.arange(m1lo, m1hi + 1, dtype=np.int64) + xi1
        lo, hi = _candidates(self._span, self.shape, p1, self.T * (1.0 + MARGIN))
        ilo, ihi = _candidates(self._span, self.shape, p1, self.T * (1.0 - MARGIN))
        r = self.shape.c * self.T if isinstance(self.shape, Annulus) else 0.0
        clo, chi, disc = strips.root_pair(q12, q22, p1, xi2, max(r * (1.0 + MARGIN), ORIGIN_RADIUS))
        candidates = int(strips.widths(lo, hi).sum())
        if r > 0:  # the candidates skip the inner chord shrunk by one integer at each end
            rlo, rhi = strips.root_pair(q12, q22, p1, xi2, r)[:2]
            rlo += 1
            rhi -= 1
            candidates -= int(strips.widths(np.maximum(rlo, lo), np.minimum(rhi, hi)).sum())
        else:
            rlo, rhi = lo, lo - 1
        # the interior is narrowed by one integer, the excluded chord widened by one
        ilo += 1
        ihi -= 1
        meets = disc >= 0.0
        clo = np.where(meets, clo - 1, ihi + 1)
        chi = np.where(meets, chi + 1, ihi)
        zones = _zones(lo, hi, ilo, ihi, clo, chi, rlo, rhi,
                       lambda m2, k: _inside(B, xi2, self.shape, self.T, m2, p1[k]))
        return zones, candidates

    @cached_property
    def N(self) -> int:
        return int(self._kept[0][1].sum())

    def _formed(self):
        """The kept ranges of a pass that forms the N directions, with its budget checks."""
        _check_budget(expected_count(self.shape, self.T), "points expected about the domain's area")
        _check_budget(self._kept[1], "candidates")
        return self._kept[0]

    def chunks(self):
        # the points and candidates are checked at the call, the reduced strips at the first draw
        self._formed()
        return _in_order(_sorted_sectors(self))

    def window_counter(self, lo, hi):
        """The directions in each window [lo, hi) of the lifted circle, counted without forming them.

        ``lo`` lies in [0, 1) and lo <= hi < lo + 1.  With h = hi -
        floor(hi), a window holds N floor(hi) directions plus those in
        [lo, h), or less those in [h, lo) where h < lo; an arc longer than
        half a turn counts its complement, so every arc to count is at most
        half a turn long.  The arcs are split into arcs of at most 1/8 turn
        (``_split_arcs``), whose frames map their sectors onto a triangle
        (``_frames``), and each is counted on the reduced strips of its
        frame (``_arc_ranges``, the sweep's own engine): O(1) strips for a
        window that holds O(1) directions.  Every point is decided as the
        sweep decides it, by ``_inside`` and ``_turns`` against the float
        ends, so the counts are the integers the direction set gives.  The
        arcs are reduced and counted ``BLOCK`` at a time; once the reduced strips so far, at
        ``STRIP_COST`` directions each, outweigh the N directions, the
        sectors are swept instead (``_searched``), so the strips wasted
        cost no more than one sweep.  The arcs and the reduced strips are
        checked against the budget before they are formed, and the
        candidates in ``_zones``.
        """
        N = self.N
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        turns = np.floor(hi)
        h = (hi - turns).ravel()
        x, y = np.minimum(lo.ravel(), h), np.maximum(lo.ravel(), h)
        sign = np.where(h < lo.ravel(), -1, 1)
        flip = y - x > 0.5  # [x, y) holds N less the directions in its complement, [y, 1) and [0, x)
        base = N * turns.ravel().astype(np.int64) + np.where(flip, sign * N, 0)
        sign[flip] *= -1
        x, y, owner = _split_arcs(np.where(flip, y, x), np.where(flip, x, y))
        counts = np.zeros(base.size, dtype=np.int64)
        rows = 0
        for i in range(0, x.size, BLOCK):
            frame = _frames(self._span, self.shape, self.T, x[i:i + BLOCK], y[i:i + BLOCK])
            rows += int(frame[-1].sum())
            if rows * STRIP_COST > N:
                return _searched(self.chunks(), N, lo, hi)
            _check_budget(rows * STRIP_VALUES, f"{rows} reduced strips")
            for a, b in strips.runs(frame[-1], BLOCK):
                part = slice(i + a, i + b)
                arc, _, n = self._arc_ranges(x[part], y[part], [v[..., a:b] for v in frame])
                np.add.at(counts, owner[part][arc], n)
        return (base + sign * counts).reshape(lo.shape)

    def _arc_ranges(self, x, y, frame):
        """The kept points in each arc [x, y) of at most 1/8 turn, as ranges on the reduced strips of its frame (``_frames``).

        Along strip k1 the points are z = P + (k2 + eta2) g2, P = (k1 +
        eta1) g1.  Its candidate range is the widened triangle and the
        domain grown by ``MARGIN`` and e; its certified interior the arc
        narrowed by ``ARC_TOL`` on each side and the domain shrunk by
        ``MARGIN`` and e, less the inner chord grown by one integer:
        ``_zones`` takes it whole and decides the rest point by point, at m
        = (k - s) gamma in int64, by ``_inside`` and ``_turns`` against the
        float ends.  The first and last point of every interior range are
        decided too, and a strip where one fails is decided point by point:
        the arc and each side of the domain meet a strip in an interval, so
        an interior range that reaches past one holds a point past it at an
        end.  So a long strip costs
        O(1), and the ranges hold exactly the points that ``_inside`` keeps
        whose turns lie in the arc.

        Returns the arc, the first point m (two int64 arrays) and the length
        of every kept range, nonempty and in no particular order; the
        points of a range step by its arc's gamma row 2, m + j (gamma21,
        gamma22).
        """
        B, xi1, xi2 = self._span[:3]
        t, left, gam, s, eta, g, det, e, R, k1lo, rows = frame
        k1, arc = strips.expand(k1lo, rows, np.arange(x.size))
        p = k1 + eta[0][arc]
        P1, P2, g1, g2, tt, ee = p * g[0][arc], p * g[1][arc], g[2][arc], g[3][arc], t[arc], e[arc]
        pD = p * det[arc]
        annulus = isinstance(self.shape, Annulus)
        c = self.shape.c if annulus else 0.0
        if not annulus:  # per axis, the square is the slab |y_i| <= T, |n . z| <= T / R in the frame
            u1, u2 = np.cos(TWO_PI * (x - ARC_TOL))[arc], np.sin(TWO_PI * (x - ARC_TOL))[arc]
            axes, half = ((u1, -tt * u2), (u2, tt * u1)), (self.T / R)[arc]

        def solved(lo, hi):
            return strips.integer_range(np.clip(lo, -strips.LIMIT, strips.LIMIT),
                                        np.clip(hi, -strips.LIMIT, strips.LIMIT), eta[1][arc])

        def domain(lo, hi, grow):
            if annulus:
                clo, chi, meets = _chord(P1, P2, g1, g2, tt, pD, 1.0 + grow)
                np.maximum(lo, clo, out=lo)
                np.minimum(hi, np.where(meets, chi, -np.inf), out=hi)
                return
            for n1, n2 in axes:
                _side(lo, hi, P1, P2, g1, g2, n1, n2, (1.0 + grow) * half, slab=True)

        lo, hi = np.full(p.size, -np.inf), np.full(p.size, np.inf)
        for n1, n2, bound in ((0.0, -1.0, ee), (1.0, 0.0, 1.0 + MARGIN + ee), (-1.0, 1.0, ee), (-1.0, 0.0, -left[arc])):
            _side(lo, hi, P1, P2, g1, g2, n1, n2, bound)
        domain(lo, hi, MARGIN + ee)
        ilo, ihi = np.full(p.size, -np.inf), np.full(p.size, np.inf)
        slope = np.tan(TWO_PI * np.stack([np.full(x.size, 2.0 * ARC_TOL), _frac(y - x)])) / t
        for n1, n2, bound in ((slope[0][arc], -1.0, -ee), (-slope[1][arc], 1.0, -ee), (-1.0, 0.0, 0.0)):
            _side(ilo, ihi, P1, P2, g1, g2, n1, n2, bound)
        domain(ilo, ihi, -MARGIN - ee)
        # r2 on an axis: each half of the p1 = 0 strip, which needs an integral xi1, has one exact turns value
        if (B.c == 0.0 or B.d == 0.0) and xi1 == math.floor(xi1):
            on = np.flatnonzero((gam[2][arc] == 0) & ((k1 - s[0][arc]) * gam[0][arc] + xi1 == 0.0))
            if on.size:  # so it keeps its candidates, and its interior is the domain's, on the halves in the arc
                a, (up, down) = arc[on], _point_turns(B, 0.0, np.zeros(2), np.array([1.0, -1.0]))  # of r2, -r2
                ahead = _in_arc(np.where(gam[3][a] > 0, up, down), x[a], y[a])  # s > 0, where p2 gam22 > 0
                behind = _in_arc(np.where(gam[3][a] > 0, down, up), x[a], y[a])
                dlo, dhi = np.full(p.size, -np.inf), np.full(p.size, np.inf)
                domain(dlo, dhi, -MARGIN - ee)
                for first, last, start, end in ((lo, hi, lo[on], hi[on]), (ilo, ihi, dlo[on], dhi[on])):
                    first[on] = np.where(behind, start, np.where(ahead, np.maximum(start, 0.0), np.inf))
                    last[on] = np.where(ahead, end, np.where(behind, np.minimum(end, 0.0), -np.inf))
        lo, hi = solved(lo, hi)
        ilo, ihi = solved(ilo, ihi)
        clo, chi, meets = _chord(P1, P2, g1, g2, tt, pD, np.maximum(c * (1.0 + MARGIN), ORIGIN_RADIUS / R[arc]) + ee)
        clo, chi = solved(clo, chi)
        clo = np.where(meets, clo - 1, ihi + 1)
        chi = np.where(meets, chi + 1, ihi)
        if c > 0.0:  # the inner chord shrunk by one integer at each end holds no point
            rlo, rhi, meets = _chord(P1, P2, g1, g2, tt, pD, c * (1.0 - MARGIN) - ee)
            rlo, rhi = solved(rlo, rhi)
            rlo, rhi = np.where(meets, rlo + 1, lo), np.where(meets, rhi - 1, lo - 1)
        else:
            rlo, rhi = lo, lo - 1

        # the int64 point m = (k - s) gamma of each strip at k2 = 0, and its step along the strip
        base = [(k1 - s[0][arc]) * gam[i][arc] - s[1][arc] * gam[i + 2][arc] for i in (0, 1)]
        step = gam[2][arc], gam[3][arc]

        def point(k2, strip):  # the arc and the point m of each k2 on its strip
            return arc[strip], [b[strip] + k2 * g[strip] for b, g in zip(base, step)]

        def decide(k2, strip):
            a, (m1, m2) = point(k2, strip)
            p1 = m1 + xi1
            return _inside(B, xi2, self.shape, self.T, m2, p1) & _in_arc(_point_turns(B, xi2, p1, m2), x[a], y[a])

        while True:
            starts, counts, key = _zones(lo, hi, ilo, ihi, clo, chi, rlo, rhi, decide)
            inner = np.flatnonzero(((key & 3) == 1) & (counts > 0))  # the interior zones 1 and 5
            ends = np.concatenate([starts[inner], starts[inner] + counts[inner] - 1])
            at = np.tile(key[inner] >> 3, 2)
            miss = at[~decide(ends, at)]
            if not miss.size:
                break
            ihi[miss] = ilo[miss] - 1
        full = counts > 0
        a, m = point(starts[full], key[full] >> 3)
        return a, m, counts[full]


def _in_order(sectors):
    """The nonempty ``sectors``, each checked to start at or after the end of the one before, in [0, 1)."""
    end = 0.0
    for vals in sectors:
        if vals.size:
            if vals[0] < end or vals[-1] >= 1.0:
                raise LatdirError(f"sector of angles [{vals[0]!r}, {vals[-1]!r}] after {end!r}: "
                                  "the sectors must follow each other in [0, 1)")
            end = vals[-1]
            yield vals


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


def _zones(lo, hi, ilo, ihi, clo, chi, rlo, rhi, inside):
    """Kept m2 ranges of every strip, unordered, with a key that orders them.

    Per strip, [lo, hi] is the candidate range, [ilo, ihi] minus [clo, chi]
    the certified interior and [rlo, rhi] a part known to be outside.
    Breakpoints cut [lo, hi] into seven zones: boundary, interior,
    boundary, outside, boundary, interior, boundary.  Interior zones are
    kept whole, outside zones dropped, and the boundary candidates kept
    where ``inside(m2, strip)`` holds, each as a range of one.  Returns the
    start, length and key 8 strip + zone of every kept range: the two
    interior zones of each strip first, in strip order, some of them
    empty, then the kept boundary candidates in (strip, m2) order; a
    stable argsort of the key puts them all in (strip, m2) order.
    Boundary candidates past the budget raise CapacityError before they
    are formed.
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


def _sorted_sectors(stream: DirectionStream):
    """The directions of the stream's kept points, sector by sector, each sector sorted in place.

    Sector k of the K = N // SECTOR sectors holds the angles t (``_turns``)
    with k / K <= t < (k + 1) / K; K = 1, the whole circle, is taken as its
    two halves.  Each sector splits into arcs of at most 1/8 turn
    (``_split_arcs``), which as predicates on t partition it, and the
    kept points of each arc come from the reduced strips of its frame
    (``_frames``, ``DirectionStream._arc_ranges``), the window counter's
    engine: so every kept point lies in the sector of its own ``_turns``
    value.  The reduced strips past the budget (``STRIP_COST`` each) raise
    CapacityError before any is solved.  The strips of whole sectors are
    solved about 4 ``BLOCK`` at a time, and each sector's angles are
    written, one arc and one cache-sized piece at a time, into one reused
    buffer, stepping along each range by its arc's gamma row
    (``strips.expand_steps``), and sorted there.  Yields each sector's
    sorted angles, a view of the buffer, valid until the next sector.
    """
    B, xi1, xi2 = stream._span[:3]
    K = max(stream.N // SECTOR, 1)
    ends = np.arange(max(K, 2) + 1) / max(K, 2)
    x, y, sector = _split_arcs(ends[:-1], ends[1:])
    sector = sector * K // max(K, 2)
    frame = _frames(stream._span, stream.shape, stream.T, x, y)
    rows = frame[-1]
    _check_budget(int(rows.sum()) * STRIP_COST, f"{int(rows.sum())} reduced strips")
    first = np.searchsorted(sector, np.arange(K + 1))  # the arcs of sector k: first[k]:first[k + 1]
    for a, b in strips.runs(np.add.reduceat(rows, first[:-1]), 4 * BLOCK):
        i, j = first[a], first[b]
        arc, m, n = stream._arc_ranges(x[i:j], y[i:j], [v[..., i:j] for v in frame])
        size = np.bincount(sector[i + arc] - a, weights=n, minlength=b - a).astype(np.int64)
        buf = np.empty(size.max())  # one buffer for the run's sectors
        order = np.argsort(arc, kind="stable")  # the ranges grouped by arc: arc c's are held[c]:held[c + 1]
        m1, m2, n = m[0][order], m[1][order], n[order]
        held = np.concatenate([[0], np.cumsum(np.bincount(arc, minlength=j - i))])
        for k in range(a, b):
            vals, at = buf[:size[k - a]], 0
            for c in range(first[k], first[k + 1]):
                r = slice(held[c - i], held[c - i + 1])
                for y1, y2 in _points(B, (m1[r], m2[r]), n[r], frame[2][2:, c], (xi1, xi2)):
                    _turns(y1, y2, vals[at:at + y1.size], x[c], y[c])
                    at += y1.size
            vals.sort()  # values only, no NaN or -0.0: any sort gives the same bytes
            yield vals


def _point_turns(B: Mat2, xi2, p1, m2):
    """``_turns`` of the points (p1, m2 + xi2) B, bit for bit as ``direction_set`` stores them."""
    p2 = m2 + xi2
    out = np.empty(p2.shape)
    _turns(_affine_combo(p1, p2, B.a, B.c), _affine_combo(p1, p2, B.b, B.d), out)
    return out


def _candidates(span, shape: DomainShape, p1, t):
    """The m2 range of each m1-strip p1 in the closed domain at scale t, elementwise: the same bits for any p1."""
    B, _, xi2, _, _, q12, q22 = span
    if isinstance(shape, Annulus):
        return strips.root_pair(q12, q22, p1, xi2, t)[:2]
    return _square_range(B, p1, xi2, t)


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


def _points(B: Mat2, first, counts, step, shift):
    """The points (y1, y2) = (m + xi) B of ranges m = first + j step, ``strips.CHUNK`` at a time (``strips.expand_steps``)."""
    for p1, p2 in strips.expand_steps(first, counts, step, shift):
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

    Each strip's candidates come from the domain grown by ``MARGIN`` and
    its certified interior is taken whole; the float domain test
    (``_inside``) decides only a few boundary candidates per strip
    (``DirectionStream._kept``), so the result is exactly the points that
    pass that test.  The kept ranges, put in (strip, m2) order, are
    expanded in pieces straight into the exactly sized result.  Use
    ``direction_set`` when only the directions are needed.

    Raises InvalidInputError unless T is finite and positive.  Raises
    CapacityError, before allocating anything, when the expected point
    count passes the budget (``_check_budget``); when the m1-strips do (a
    thin annulus, c near 1, holds few points on many strips); or when the
    candidates do.
    """
    stream = DirectionStream(lat, shape, T)
    starts, counts, key = stream._formed()
    order = np.argsort(key, kind="stable")
    B, xi1, xi2, m1lo = stream._span[:4]
    out = np.empty((int(counts.sum()), 2))
    n = 0
    for y1, y2 in _points(B, ((key[order] >> 3) + m1lo, starts[order]), counts[order], (0, 1), (xi1, xi2)):
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


def _turns(y1, y2, out, x=0.0, y=1.0):
    """Direction angles of the points (y1, y2) in turns, in [0, 1), written to ``out``.

    Points known to have turns in the arc [x, y), x < y, skip the wrap where
    the arc decides it: arctan2 / 2 pi lies in (-1/2, 1/2], so on an arc
    inside (0, 1/2) it is the turns value itself, and on an arc inside
    (1/2, 1) it is negative and the turns value is it plus 1, bit for bit.
    """
    np.arctan2(y2, y1, out=out)
    out /= TWO_PI
    if 0.5 < x < y:
        out += 1.0
    elif not 0.0 < x < y <= 0.5:
        _frac(out, out=out)
        out[out >= 1.0] = 0.0  # tiny negative angles round up to 1.0


def directions(points, T: float, shape: DomainShape) -> DirectionSet:
    """Sorted direction angles (turns in [0, 1)) of the given nonzero points.

    Multiplicities are preserved: k points sharing a direction produce k
    equal entries.  The branch point at angle zero maps to 0.0.  The zero
    check and the angles run ``strips.CHUNK`` points at a time, so their
    temporaries stay cache-sized.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    alphas = np.empty(len(pts))
    for i in range(0, len(pts), strips.CHUNK):
        y1, y2 = pts[i:i + strips.CHUNK].T
        if np.any((y1 == 0.0) & (y2 == 0.0)):
            raise InvalidInputError("zero vector has no direction")
        _turns(y1, y2, alphas[i:i + strips.CHUNK])
    alphas.sort()  # values only, no NaN or -0.0: any sort gives the same bytes
    return DirectionSet(alphas, float(T), shape)


def direction_set(lat: AffineLatticeSpec, shape: DomainShape, T: float) -> DirectionSet:
    """Sorted directions of the lattice points in the domain, without the points.

    Bit for bit ``directions(enumerate_points(lat, shape, T), T, shape)``,
    with the same errors, but no (n, 2) array is built: the sorted sectors
    of a ``DirectionStream`` (``chunks()``, which forms each of the K = N
    // SECTOR sectors from the reduced strips of its arcs' frames and
    sorts it in cache) are copied end to end into one exactly sized array.

    Exact by construction, in two parts.  The multiset: the arcs of a
    sector, as predicates on a float angle, partition it, and each arc's
    ranges hold exactly the points that ``_inside`` keeps whose ``_turns``
    value lies in the arc, each point formed from its int64 m as the
    enumerator forms it: the points ``enumerate_points`` lists.  The
    order: so every point lies in the sector of its own angle, and the
    sorted sectors follow each other in order.
    ``_turns`` yields no NaN and no -0.0, so any sort of the same multiset
    gives the same bytes.  ``DirectionSet`` checks the order once more.
    The reduced strips are checked against the budget at ``STRIP_COST``
    each; they number about N / 300 past 2 SECTOR points, and a few times
    the m1-strips below.
    """
    stream = DirectionStream(lat, shape, T)
    sectors = stream.chunks()  # the budget checks run here, before N is solved
    alphas, n = np.empty(stream.N), 0
    for vals in sectors:
        alphas[n:n + vals.size] = vals
        n += vals.size
    return DirectionSet(alphas, float(T), shape)


def direction_stream(lat: AffineLatticeSpec, shape: DomainShape, T: float) -> DirectionStream:
    """The directions of ``direction_set``, bit for bit and in order, one sorted sector at a time.

    Checks the input and spans the m1-strips, with the errors of
    ``direction_set`` and its budget check of the strips, and returns a
    ``DirectionStream`` that solves them on first use.  No direction is
    formed until ``chunks()`` is called: then the points expected, the
    candidates and the reduced strips of the K sectors' frames are
    checked, and as it is iterated each sector's angles are formed and
    sorted in one reused buffer.  A sweep holds one sector and the reduced
    strips of a few sectors, instead of the 8 N bytes of the direction
    set: the statistics that walk the directions once, in order
    (``pair_correlation``, ``spacing_histogram``, ``window_counts`` and
    ``mixed_moment``), take either.  ``window_counts`` on a stream
    counts on reduced strips without forming the directions, so it counts
    where N is far past the budget (``window_counter``).
    """
    stream = DirectionStream(lat, shape, T)
    stream._span  # the strips are checked against the budget when the stream is made
    return stream


def _below(chunks, N: int, ends) -> np.ndarray:
    """The number of the N sorted directions under each of ``ends``, in the shape of ``ends``.

    ``chunks`` yields nonempty sorted arrays that lay the N directions end
    to end (``chunks()`` of a ``DirectionSet`` or a ``DirectionStream``).  The
    distinct ends are sorted once; each chunk takes those not yet taken up
    to its last value, and gives each the directions before the chunk plus
    a left search in the chunk, as every later direction is at least that
    last value.  The ends past the last chunk get N.  So each count is
    ``np.searchsorted(A, end, side="left")`` of the whole sequence A.
    """
    edges = np.unique(ends)
    under = np.full(edges.size, N, dtype=np.int64)
    i = n = 0
    for vals in chunks:
        j = np.searchsorted(edges, vals[-1], side="right")
        under[i:j] = n + np.searchsorted(vals, edges[i:j], side="left")
        i, n = j, n + vals.size
    return under[np.searchsorted(edges, ends, side="left")]


def _searched(chunks, N: int, lo, hi) -> np.ndarray:
    """The directions in each window [lo, hi), lo in [0, 1), of the N sorted ones that ``chunks`` lays out.

    J(hi) - J(lo), where J(x) counts the lifted sequence under x: the
    directions under frac(x), found by one walk (``_below``), plus N floor(x).
    """
    turns = np.floor(hi)
    low, high = _below(chunks, N, np.stack([lo, hi - turns]))
    return high - low + N * turns.astype(np.int64)


def _split_arcs(x, y):
    """Split each arc [x, y) of the circle, at most half a turn long, into arcs of at most 1/8 turn.

    An arc with x > y wraps past 1: it is t >= x or t < y, as for every
    piece.  The pieces of an arc end at its own float ends x, y and at
    frac(x + j L / n) between, for its length L and n = ceil(8 L), in
    order along it, so as predicates on a float t they partition it.
    Returns the start, end and arc of every piece; an empty arc has none.
    Pieces past the budget (``ARC_VALUES`` each) raise CapacityError before
    any is formed.
    """
    length = _frac(y - x)
    n = np.where(length > 0.0, np.ceil(8.0 * length), 0).astype(np.int64)
    _check_budget(int(n.sum()) * ARC_VALUES, f"{int(n.sum())} window arcs")
    j, arc = strips.expand(np.zeros(n.size, dtype=np.int64), n, np.arange(x.size))
    step = (length / np.maximum(n, 1))[arc]
    at, end = _frac(x[arc] + j * step), _frac(x[arc] + (j + 1) * step)
    last = j == n[arc] - 1
    end[last] = y[arc[last]]
    return at, end, arc


def _gauss(g):
    """Lagrange-Gauss reduction of the float bases with rows (g[0], g[1]) and (g[2], g[3]).

    Returns gamma, a (4, n) float64 array of the entries of gamma in SL(2, Z),
    row-major, each an exact integer below 2^52.  The rows a, b take turns:
    each step subtracts rint(mu) b from a, mu = <a, b> / |b|^2, and then a
    and b change roles, so |mu| <= 1/2 after every step; a basis stops when
    its new a is no shorter than b, with its shorter row second.  It stops
    partly reduced where a step would take gamma to 2^52, past the integers
    float64 holds.  A basis still moving after ``GAUSS_STEPS`` steps raises
    LatdirError.
    """
    n = g.shape[1]
    # rows 0-3: the first basis row and its gamma row, rows 4-7 the second
    m = np.zeros((8, n))
    m[[0, 1, 4, 5]] = g
    m[2] = m[7] = 1.0
    nb = m[4] * m[4] + m[5] * m[5]
    out, live = np.zeros((4, n)), np.arange(n)
    done, odd = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    bound = 1.0  # at least max |gamma| over the live bases
    for step in range(GAUSS_STEPS):
        a, b = (m[:4], m[4:]) if step % 2 == 0 else (m[4:], m[:4])  # the row reduced now, and the other
        q = a[0] * b[0]
        q += a[1] * b[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            q /= nb
        np.rint(q, out=q)
        np.copyto(q, 0.0, where=done)
        top = float(np.abs(q).max(initial=0.0))
        if bound * (1.0 + top) >= 2.0**52:
            bound = float(np.abs(m[[2, 3, 6, 7]]).max(initial=1.0))
            far = np.abs(q) * np.maximum(np.abs(b[2]), np.abs(b[3])) + np.maximum(np.abs(a[2]), np.abs(a[3])) >= 2.0**52
            np.copyto(q, 0.0, where=far)
            done |= far
            if step % 2:
                odd |= far
            top = float(np.abs(q).max(initial=0.0))
        bound *= 1.0 + top
        a -= q * b
        na = a[0] * a[0] + a[1] * a[1]
        new = na >= nb
        new &= ~done
        done |= new
        if step % 2:
            odd |= new
        nb = na
        if 2 * np.count_nonzero(done) >= done.size:  # write the settled bases out, shorter row second
            gam = m[[2, 3, 6, 7]][:, done]
            flip = odd[done]
            gam[:, flip] = np.concatenate([-gam[2:, flip], gam[:2, flip]])
            out[:, live[done]] = gam
            keep = ~done
            live = live[keep]
            if not live.size:
                return out
            m, nb, done, odd = m[:, keep], nb[keep], done[keep], odd[keep]
    raise LatdirError(f"the reduction of {live.size} window frames did not settle in {GAUSS_STEPS} steps")


def _frames(span, shape: DomainShape, T: float, x, y):
    """The reduced frame of each arc [x, y) of at most 1/8 turn, and its strips.

    With u the direction of x - ``ARC_TOL``, u' = u turned a quarter, the
    width w = y - x + 2 ``ARC_TOL`` and t = tan(2 pi w), the map y ->
    (y.u / R, y.u' / (R t)) takes the sector of the widened arc inside the
    disc of radius R onto the triangle (0, 0), (1, 0), (1, 1).  R is T on
    an annulus; on the square it is the square's farthest reach in the
    arc, T / max(|cos|, |sin|) at the arc end nearer a diagonal, or sqrt(2)
    T where the arc holds one, so no strip is spent past the square.  It takes the points (m + xi) B to (k + eta) g
    on the Gauss-reduced basis g = gamma B map (``_gauss``), k = m
    gamma^-1 + s with s = rint(xi gamma^-1).  The triangle, cut at z1 =
    c cos 2 pi w on an annulus, is widened by ``MARGIN`` on its far side and
    by e on every side, where e bounds the roundoff of (k + eta) g: of eta,
    which grows with gamma, and of the products.  The strips k1 that meet
    it hold every candidate.  Returns t, the cut (less the widening), gamma,
    s, eta, g, det g, e, R and the first k1 and number of strips of each
    arc.
    """
    B, xi1, xi2 = span[:3]
    phi, w = TWO_PI * (x - ARC_TOL), TWO_PI * (_frac(y - x) + 2.0 * ARC_TOL)
    near = np.minimum(*(np.maximum(np.abs(np.cos(a)), np.abs(np.sin(a))) for a in (phi, phi + w)))
    near[np.mod(0.25 * math.pi - phi, 0.5 * math.pi) <= w] = math.sqrt(0.5)  # a diagonal in the arc
    R = np.full(x.size, T) if isinstance(shape, Annulus) else T / near
    u1, u2, t = np.cos(phi), np.sin(phi), np.tan(w)
    base = np.stack([(B.a * u1 + B.b * u2) / R, (B.b * u1 - B.a * u2) / (R * t),
                     (B.c * u1 + B.d * u2) / R, (B.d * u1 - B.c * u2) / (R * t)])
    G = _gauss(base)
    g = np.stack([G[0] * base[0] + G[1] * base[2], G[0] * base[1] + G[1] * base[3],
                  G[2] * base[0] + G[3] * base[2], G[2] * base[1] + G[3] * base[3]])
    det = g[0] * g[3] - g[1] * g[2]
    v = np.stack([xi1 * G[3] - xi2 * G[2], xi2 * G[0] - xi1 * G[1]])  # xi gamma^-1
    s = np.rint(v)
    eta = v - s
    far = 1.0 + MARGIN
    # |k1 + eta1| on the strips that meet the triangle, and the roundoff of eta and of (k + eta) g
    reach = (far + 1.0) * np.hypot(g[2], g[3]) / det
    norm1, norm2 = np.abs(g[0]) + np.abs(g[1]), np.abs(g[2]) + np.abs(g[3])
    e = 2.0**-50 * ((np.abs(xi1 * G[3]) + np.abs(xi2 * G[2])) * norm1 + (np.abs(xi2 * G[0]) + np.abs(xi1 * G[1])) * norm2)
    e += 2.0**-47 * (2.0 + 2.0 * reach * norm1)
    cut = shape.c * np.cos(w) if isinstance(shape, Annulus) else np.zeros(x.size)
    left = np.maximum(cut * (1.0 - MARGIN) - e, -2.0 * e)  # z1 >= left on the widened triangle
    f = [(z1 * g[3] - z2 * g[2]) / det for z1, z2 in  # k1 + eta1 at the corners
         ((left, -e), (far + e, -e), (far + e, far + 2.0 * e), (left, left + e))]
    k1lo, k1hi = strips.integer_range(np.minimum.reduce(f), np.maximum.reduce(f), eta[0])
    return t, left, G.astype(np.int64), s.astype(np.int64), eta, g, det, e, R, k1lo, strips.widths(k1lo, k1hi)


def _side(lo, hi, P1, P2, g1, g2, n1, n2, c, slab=False):
    """Narrow each strip's range [lo, hi] of s to the half-plane n . (P + s g) <= c, in place.

    With ``slab`` also to -n . (P + s g) <= c, from the same n . g and n . P:
    negating them is exact, so the bounds are those of the two half-planes.
    """
    d = n1 * g1 + n2 * g2
    nP = n1 * P1 + n2 * P2
    for d, r in ((d, c - nP), (-d, c + nP)) if slab else ((d, c - nP),):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b = r / d
        np.maximum(lo, np.where(d < 0.0, b, -np.inf), out=lo)
        np.minimum(hi, np.where(d > 0.0, b, np.inf), out=hi)
        if not d.all():  # a strip parallel to the side lies inside it whole or not at all
            np.minimum(hi, -np.inf, out=hi, where=(d == 0.0) & (r < 0.0))


def _chord(P1, P2, g1, g2, t, pD, rho):
    """Each strip's range of s in the disc z1^2 + (t z2)^2 <= rho^2 of z = P + s g, and whether it meets it.

    In the metric of y / R the strip lies at distance |t pD| / |g| from the
    origin, pD = P x g, so the half-chord needs no difference of squares.
    """
    tg2 = t * g2
    a = g1 * g1 + tg2 * tg2
    mid = -(P1 * g1 + t * P2 * tg2) / a
    disc = rho * rho - (t * pD) ** 2 / a
    half = np.sqrt(np.maximum(disc, 0.0) / a)
    return mid - half, mid + half, disc >= 0.0


def _in_arc(turns, x, y):
    """Is each turns value in its arc [x, y), which wraps past 1 where x > y?"""
    after, before = turns >= x, turns < y
    return np.where(x > y, after | before, after & before)


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
        basis = Mat2.from_array(obj["basis"])
        shift = tuple(float(x) for x in obj.get("shift", (0.0, 0.0)))
        shape_obj = obj.get("shape", {"annulus": 0.0})
        shape: DomainShape = Square() if shape_obj == "square" else Annulus(float(shape_obj["annulus"]))
        T = float(obj["T"])
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError and InvalidInputError are ValueErrors
        raise InvalidInputError(f"bad lattice JSON (basis, shift, T and a shape \"square\" or {{\"annulus\": c}}): "
                                f"{exc}") from exc
    return AffineLatticeSpec(basis, shift), shape, T
