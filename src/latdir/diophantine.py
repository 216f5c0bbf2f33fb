"""Numeric Diophantine-type scans and the special shift vectors.

The scan measures how well integer linear forms r . xi + m approximate
zero, weighted by (|r1| + |r2|)^kappa.  A vanishing minimum certifies a
rational relation; a stable positive floor under growing search radius is
numeric evidence (not proof) of the corresponding Diophantine type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import strips
from .errors import CapacityError, InvalidConstructionError, InvalidInputError
from .lattice import AffineLatticeSpec, Annulus, Mat2, _check_budget, count_in_window


# the doubles nearest to 2^(1/3), 4^(1/3), sqrt(2) and (1 + sqrt(5)) / 2
CBRT2 = 1.2599210498948732
CBRT4 = 1.5874010519681996
SQRT2 = 1.4142135623730951
GOLDEN = 1.618033988749895


@dataclass(frozen=True)
class DiophReport:
    """Result of an exhaustive linear-form scan.

    ``min_value`` is the least |r . xi + m| * (|r1| + |r2|)^kappa over all
    0 < |r1| + |r2| <= search_radius with m the nearest integer to -r . xi;
    ``argmin`` records the minimizing (r1, r2, m).
    """

    kappa: float
    search_radius: int
    min_value: float
    argmin: tuple[int, int, int]


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def dioph_scan(xi, kappa: float, radius: int) -> DiophReport:
    """Exhaustive scan of the weighted linear forms up to the given radius.

    With Fraction (or int) components the scan runs in exact integer
    arithmetic over their common denominator (``_exact_scan``), so a
    rational relation reports min_value exactly 0 and every value is the
    float of the exact one; it raises CapacityError when radius times the
    denominator reaches 2^53.  Float components use
    vectorized double precision; the roundoff on r . xi is below
    (|r1|+|r2|) ulp, far under the floors met in practice.

    Both paths scan half of the diamond 0 < |r1| + |r2| <= radius: r1 < 0,
    or r1 = 0 and r2 < 0.  The value at -r equals the value at r bit for
    bit (negation is exact and rounding to nearest even is odd), and of r
    and -r the half holds the one met first in row-major order, so the
    first minimum of the full diamond lies in it.

    The rows r1 = -radius..0 are taken in blocks of whole rows, about
    ``strips.CHUNK`` values each (``strips.runs``).  Each block
    keeps its first minimum, and a block's minimum replaces the running
    best only when strictly less, so ties resolve to the first (r1, r2) in
    row-major order.  Memory is O(radius) whatever the radius: the row
    bounds, one block, and a table of the weights h^kappa, h <= radius,
    which each value looks up by h = |r1| + |r2|.  The float path's table
    is numpy's power of a float64 array, the exact path's is Python's
    ``float(h) ** kappa``: the two differ in the last bit for some h and
    kappa, so the paths do not share one table.

    Raises InvalidInputError, before anything is allocated, for a float
    xi component that is not finite, for a radius * |xi| that overflows,
    and for radius^kappa that is not a finite float, so no scanned value
    is NaN or infinite; and CapacityError when the radius (radius + 1)
    values of the half diamond pass the budget.
    """
    if radius < 1:
        raise InvalidInputError("radius must be at least 1")
    if len(xi) != 2:
        raise InvalidInputError("xi must be a 2-vector")
    if not math.isfinite(kappa):
        raise InvalidInputError(f"kappa must be finite, got {kappa!r}")
    try:
        top = float(radius) ** kappa
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise InvalidInputError(f"radius ** kappa must be a finite float, got {radius} ** {kappa!r}")
    _check_budget(radius * (radius + 1), f"the half diamond of radius {radius}")
    if _is_exact(xi[0]) and _is_exact(xi[1]):
        x1, x2 = Fraction(xi[0]), Fraction(xi[1])
        values = _exact_scan(x1, x2, kappa, radius)
    else:
        x1, x2 = float(xi[0]), float(xi[1])
        if not math.isfinite(radius * (abs(x1) + abs(x2))):  # NaN fails too
            raise InvalidInputError(f"xi must be finite and radius * |xi| must not overflow, got {(x1, x2)}")
        values = _float_scan(x1, x2, kappa, radius)
    # rows r1 = -radius..0 of the half diamond, r2 from -(radius + r1); row r1 = 0 stops at -1
    row = np.arange(-radius, 1)
    width = 2 * (radius + row) + 1
    width[-1] = radius
    best, arg = math.inf, None
    for a, b in strips.runs(width, strips.CHUNK):
        r2, r1 = strips.expand(-(radius + row[a:b]), width[a:b], row[a:b])
        val = values(r1, r2)
        i = int(np.argmin(val))
        if val[i] < best:
            best, arg = float(val[i]), (int(r1[i]), int(r2[i]))
    r1, r2 = arg
    # the nearest integer to r . xi, ties to even, as the block computed it
    return DiophReport(float(kappa), radius, best, (r1, r2, -round(r1 * x1 + r2 * x2)))


def _float_scan(x1: float, x2: float, kappa: float, radius: int):
    """The values of one block of (r1, r2) for float xi: |r . xi - rint(r . xi)| * (|r1| + |r2|)^kappa."""
    weight = np.empty(radius + 1)
    weight[0] = 0.0  # h = 0 never occurs
    weight[1:] = np.arange(1, radius + 1, dtype=float) ** kappa

    def values(r1, r2):
        t = r1 * x1 + r2 * x2
        t -= np.rint(t)
        return np.abs(t) * weight[np.abs(r1) + np.abs(r2)]

    return values


def _exact_scan(x1: Fraction, x2: Fraction, kappa: float, radius: int):
    """The values of one block of (r1, r2) for exact xi, in int64 over a common denominator D.

    Writes xi_i = k_i + X_i / D with 0 <= X_i < D, so r . xi = r . k + N / D
    with |N| <= radius D.  While radius D < 2^53, N and the remainder
    R = r . xi - round(r . xi), times D, are exact in float64, so R / D
    rounds like ``float(Fraction(R, D))``.  Ties go to the even integer, as
    Python's round does on a Fraction; that depends on the parity of r . k.
    Raises CapacityError past that limit; else returns the function that
    maps int64 arrays r1, r2 to the values |R| / D * (|r1| + |r2|)^kappa.
    """
    D = math.lcm(x1.denominator, x2.denominator)
    if radius * D >= 2**53:
        raise CapacityError(f"exact scan needs radius * denominator < 2^53, got {radius} * {D}")
    k1, k2 = math.floor(x1), math.floor(x2)
    X1, X2 = int((x1 - k1) * D), int((x2 - k2) * D)
    weight = np.array([0.0] + [float(h) ** kappa for h in range(1, radius + 1)])  # h = 0 never occurs

    def values(r1, r2):
        N = r1 * X1 + r2 * X2
        q, rem = np.divmod(N, D)
        odd = (q + r1 * (k1 % 2) + r2 * (k2 % 2)) % 2 == 1  # floor(r . xi) is odd
        q += (2 * rem > D) | ((2 * rem == D) & odd)  # round(r . xi) - r . k, ties to even
        N -= q * D
        return np.abs(N).astype(float) / float(D) * weight[np.abs(r1) + np.abs(r2)]

    return values


def singular_vector(n, omega: float, l):
    """Shift vector n * omega + l, valid only when det(n, l) is not integer.

    ``l`` may carry Fraction components, in which case the determinant test
    is exact; float components use a 1e-9 distance-to-integer tolerance.
    Raises InvalidConstructionError when det(n, l) lands in Z.
    """
    n1, n2 = int(n[0]), int(n[1])
    if n1 == 0 and n2 == 0:
        raise InvalidInputError("n must be nonzero")
    l1, l2 = l
    if _is_exact(l1) and _is_exact(l2):
        det = Fraction(n1) * Fraction(l2) - Fraction(n2) * Fraction(l1)
        if det.denominator == 1:
            raise InvalidConstructionError(f"det(n, l) = {det} is an integer")
    else:
        det = n1 * float(l2) - n2 * float(l1)
        if abs(det - round(det)) <= 1e-9:
            raise InvalidConstructionError(f"det(n, l) = {det} is within 1e-9 of an integer")
    return np.array([n1 * omega + float(l1), n2 * omega + float(l2)])


def rational_divergence_probe(xi, r, eps: float, T_list, c: float = 0.0) -> list[int]:
    """Window counts along the rational direction fixed by r, one per T.

    Requires an exact rational relation r . (xi + m) = 0 for some integer
    m (verified in exact arithmetic); the returned counts grow linearly in
    T because a full line of lattice points shares that direction.  Each
    count comes from ``count_in_window``, in O(T) strips without a
    direction set, so T may go far past the point budget.
    """
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    r1, r2 = int(r[0]), int(r[1])
    if r1 == 0 and r2 == 0:
        raise InvalidInputError("r must be nonzero")
    try:
        x1, x2 = Fraction(xi[0]), Fraction(xi[1])
    except (TypeError, ValueError) as exc:
        raise InvalidInputError("xi must have exact rational components") from exc
    g = math.gcd(abs(r1), abs(r2))
    t = r1 * x1 + r2 * x2
    if t.denominator != 1 or int(t) % g != 0:
        raise InvalidInputError("no integer m solves r . (xi + m) = 0")
    alpha_r = math.atan2(r1, -r2) / (2.0 * math.pi) % 1.0
    lat = AffineLatticeSpec(Mat2.identity(), (float(x1), float(x2)))
    shape = Annulus(c)
    return [count_in_window(lat, shape, T, (-eps, eps), alpha_r)[0] for T in T_list]
