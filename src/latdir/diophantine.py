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

import mpmath
import numpy as np

from . import strips
from .errors import InvalidConstructionError, InvalidInputError
from .lattice import AffineLatticeSpec, Annulus, Mat2, direction_set
from .stats import counting_stat


# Evaluated at 40 significant digits, then rounded once to float.
with mpmath.workdps(40):
    CBRT2 = float(mpmath.cbrt(2))
    CBRT4 = float(mpmath.cbrt(4))
    SQRT2 = float(mpmath.sqrt(2))
    GOLDEN = float((1 + mpmath.sqrt(5)) / 2)


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

    With Fraction (or int) components the scan runs in exact arithmetic, so
    a rational relation reports min_value exactly 0.  Float components use
    vectorized double precision; the roundoff on r . xi is below
    (|r1|+|r2|) ulp, far under the floors met in practice.  Ties resolve to
    the first (r1, r2) in row-major scan order.

    Both paths scan half of the diamond 0 < |r1| + |r2| <= radius: r1 < 0,
    or r1 = 0 and r2 < 0.  The value at -r equals the value at r bit for
    bit (negation is exact and rounding to nearest even is odd), and of r
    and -r the half holds the one met first in row-major order, so the
    first minimum of the full diamond lies in it.
    """
    if radius < 1:
        raise InvalidInputError("radius must be at least 1")
    if len(xi) != 2:
        raise InvalidInputError("xi must be a 2-vector")
    if _is_exact(xi[0]) and _is_exact(xi[1]):
        x1, x2 = Fraction(xi[0]), Fraction(xi[1])
        best = None
        for r1 in range(-radius, 1):
            w = radius + r1
            for r2 in range(-w, w + 1 if r1 else 0):
                t = r1 * x1 + r2 * x2
                m = -round(t)
                val = abs(float(t + m)) * float(abs(r1) + abs(r2)) ** kappa
                if best is None or val < best[0]:
                    best = (val, (r1, r2, int(m)))
        return DiophReport(float(kappa), radius, best[0], best[1])
    x1, x2 = float(xi[0]), float(xi[1])
    # rows r1 = -radius..0 of the half diamond, r2 from -(radius + r1); row r1 = 0 stops at -1
    row = np.arange(-radius, 1)
    width = 2 * (radius + row) + 1
    width[-1] = radius
    r2, r1 = strips.expand(-(radius + row), width, row)
    t = r1 * x1 + r2 * x2
    m = -np.rint(t)
    val = np.abs(t + m) * (np.abs(r1) + np.abs(r2)).astype(float) ** kappa
    i = int(np.argmin(val))
    return DiophReport(float(kappa), radius, float(val[i]), (int(r1[i]), int(r2[i]), int(m[i])))


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
    T because a full line of lattice points shares that direction.
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
    counts = []
    for T in T_list:
        dirs = direction_set(lat, shape, T)
        counts.append(counting_stat(dirs, (-eps, eps), alpha_r) if dirs.N else 0)
    return counts
