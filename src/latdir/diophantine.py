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
from .errors import CapacityError, InvalidConstructionError, InvalidInputError
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

    With Fraction (or int) components the scan runs in exact integer
    arithmetic over their common denominator (``_exact_scan``), so a
    rational relation reports min_value exactly 0 and every value is the
    float of the exact one; it raises CapacityError when radius times the
    denominator reaches 2^53.  Float components use
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
    if not math.isfinite(kappa):
        raise InvalidInputError(f"kappa must be finite, got {kappa!r}")
    # rows r1 = -radius..0 of the half diamond, r2 from -(radius + r1); row r1 = 0 stops at -1
    row = np.arange(-radius, 1)
    width = 2 * (radius + row) + 1
    width[-1] = radius
    r2, r1 = strips.expand(-(radius + row), width, row)
    if _is_exact(xi[0]) and _is_exact(xi[1]):
        return _exact_scan(Fraction(xi[0]), Fraction(xi[1]), kappa, radius, r1, r2)
    x1, x2 = float(xi[0]), float(xi[1])
    t = r1 * x1 + r2 * x2
    m = -np.rint(t)
    val = np.abs(t + m) * (np.abs(r1) + np.abs(r2)).astype(float) ** kappa
    i = int(np.argmin(val))
    return DiophReport(float(kappa), radius, float(val[i]), (int(r1[i]), int(r2[i]), int(m[i])))


def _exact_scan(x1: Fraction, x2: Fraction, kappa: float, radius: int, r1, r2) -> DiophReport:
    """The scan over (r1, r2) for exact xi, in int64 over a common denominator D.

    Writes xi_i = k_i + X_i / D with 0 <= X_i < D, so r . xi = r . k + N / D
    with |N| <= radius D.  While radius D < 2^53, N and the remainder
    R = r . xi - round(r . xi), times D, are exact in float64, so R / D
    rounds like ``float(Fraction(R, D))``.  Ties go to the even integer, as
    Python's round does on a Fraction; that depends on the parity of r . k.
    Raises CapacityError past that limit.
    """
    D = math.lcm(x1.denominator, x2.denominator)
    if radius * D >= 2**53:
        raise CapacityError(f"exact scan needs radius * denominator < 2^53, got {radius} * {D}")
    k1, k2 = math.floor(x1), math.floor(x2)
    N = r1 * int((x1 - k1) * D) + r2 * int((x2 - k2) * D)
    q, rem = np.divmod(N, D)
    odd = (q + r1 * (k1 % 2) + r2 * (k2 % 2)) % 2 == 1  # floor(r . xi) is odd
    q += (2 * rem > D) | ((2 * rem == D) & odd)  # round(r . xi) - r . k, ties to even
    R = N - q * D
    weight = np.array([0.0] + [float(h) ** kappa for h in range(1, radius + 1)])  # h = 0 never occurs
    val = np.abs(R).astype(float) / float(D) * weight[np.abs(r1) + np.abs(r2)]
    i = int(np.argmin(val))
    m = -(int(q[i]) + int(r1[i]) * k1 + int(r2[i]) * k2)
    return DiophReport(float(kappa), radius, float(val[i]), (int(r1[i]), int(r2[i]), m))


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
