"""Affine planar lattices: point enumeration and direction sequences.

A unimodular basis ``M0`` and a shift ``xi`` define the point set
``(Z^2 + xi) M0`` (row vectors act on the right).  This module enumerates
the nonzero points inside an open annulus ``c*T < |y| < T`` or an open
square ``(-T, T)^2`` and turns them into the sorted sequence of direction
angles, measured in turns (angle / 2*pi, mod 1), with multiplicity.
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
        object.__setattr__(self, "shift", (float(self.shift[0]), float(self.shift[1])))


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
        if self.T <= 0:
            raise InvalidInputError("T must be positive")

    @property
    def N(self) -> int:
        return int(self.alphas.size)


def expected_count(shape: DomainShape, T: float) -> float:
    """Leading-order point count: pi*(1-c^2)*T^2 (annulus) or 4*T^2 (square)."""
    if T <= 0:
        raise InvalidInputError("T must be positive")
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
    (gamma = I) comes back as the caller's own basis and shift objects.
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
        return basis, shift
    (g11, g12), (g21, g22) = gamma
    x1, x2 = Fraction(shift[0]), Fraction(shift[1])
    s1 = x1 * g22 - x2 * g21  # xi gamma^-1, gamma^-1 = [[g22, -g12], [-g21, g11]]
    s2 = x2 * g11 - x1 * g12
    return (
        Mat2(*(float(x) for row in rows for x in row)),
        (float(s1 - round(s1)), float(s2 - round(s2))),
    )


def _kept_chunks(lat: AffineLatticeSpec, shape: DomainShape, T: float, max_points: int):
    """The strip loop behind ``enumerate_points`` and ``direction_set``.

    Validates the input and solves the m1-strips at once, so every error is
    raised before anything point-sized is allocated.  Returns the candidate
    count, an upper bound on the points kept, and an iterator over (y1, y2)
    of the kept points, one chunk of whole strips at a time.
    """
    if T <= 0:
        raise InvalidInputError("T must be positive")
    lat.basis.require_unimodular()
    if expected_count(shape, T) > max_points:
        raise CapacityError(
            f"expected about {expected_count(shape, T):.3g} points, cap is {max_points}"
        )
    B, (xi1, xi2) = _reduced(lat.basis, lat.shift)
    if isinstance(shape, Annulus):
        m1lo, m1hi, q12, q22 = strips.ellipse_span(B.a, B.b, B.c, B.d, T, xi1)
    else:
        p1max = T * (abs(B.d) + abs(B.c))
        m1lo, m1hi = strips.integer_range(-p1max, p1max, xi1)
    if m1hi - m1lo + 1 > max_points:
        raise CapacityError(f"enumeration needs {m1hi - m1lo + 1} strips, cap is {max_points}")
    p1 = np.arange(m1lo, m1hi + 1, dtype=np.int64) + xi1
    if isinstance(shape, Annulus):
        m2lo, m2hi = strips.root_pair(q12, q22, p1, xi2, T)[:2]
        if shape.c > 0:
            m2lo, m2hi, p1 = _outside_inner_chord(m2lo, m2hi, q12, q22, p1, xi2, shape.c * T)
    else:
        # |p1 a + p2 c| <= T and |p1 b + p2 d| <= T; the exact filter makes them strict
        m2lo, m2hi = strips.halfplanes(xi2, [
            (B.c, -T - p1 * B.a, ">="), (B.c, T - p1 * B.a, "<="),
            (B.d, -T - p1 * B.b, ">="), (B.d, T - p1 * B.b, "<="),
        ])
    counts = strips.widths(m2lo, m2hi)
    total = int(counts.sum())
    if total > max_points:
        raise CapacityError(f"enumeration needs {total} candidates, cap is {max_points}")
    return total, _filtered(B, xi2, shape, T, m2lo, counts, p1)


def _outside_inner_chord(m2lo, m2hi, q12, q22, p1, xi2, r):
    """Each strip's m2 range minus its chord of the inner disc |y| <= r, as two ranges.

    The removed part is shrunk by one integer at each end, so the exact
    filter still decides every point near the inner circle.  Returns the
    ranges interleaved (left, right per strip) and p1 repeated to match.
    """
    cut_lo, cut_hi = strips.root_pair(q12, q22, p1, xi2, r)[:2]
    cut_lo += 1
    cut_hi -= 1
    cut = cut_lo <= cut_hi
    left_hi = np.where(cut, np.minimum(m2hi, cut_lo - 1), m2hi)
    right_lo = np.where(cut, np.maximum(m2lo, cut_hi + 1), 1)
    right_hi = np.where(cut, m2hi, 0)
    return (np.column_stack([m2lo, right_lo]).ravel(),
            np.column_stack([left_hi, right_hi]).ravel(),
            np.repeat(p1, 2))


def _filtered(B: Mat2, xi2, shape: DomainShape, T: float, m2lo, counts, p1):
    """Expand the strips in chunks and keep the points strictly inside the domain."""
    for p2, p1 in strips.expand_chunks(m2lo, counts, p1):
        p2 = p2 + xi2  # m2 -> p2; rebinding frees the int64 array
        y1 = _affine_combo(p1, p2, B.a, B.c)
        y2 = _affine_combo(p1, p2, B.b, B.d)
        if isinstance(shape, Annulus):
            r2 = y1 * y1 + y2 * y2
            # r2 underflows to 0 near the origin, so c = 0 tests the coordinates
            inner = r2 > (shape.c * T) ** 2 if shape.c > 0 else (y1 != 0.0) | (y2 != 0.0)
            keep = (r2 < T * T) & inner
        else:
            keep = (np.abs(y1) < T) & (np.abs(y2) < T) & ((y1 != 0.0) | (y2 != 0.0))
        yield y1[keep], y2[keep]


def enumerate_points(
    lat: AffineLatticeSpec,
    shape: DomainShape,
    T: float,
    max_points: int = DEFAULT_MAX_POINTS,
) -> np.ndarray:
    """All nonzero points of the affine lattice inside the open domain.

    Returns an (n, 2) array of points y = (m + shift) basis with
    c*T < |y| < T (annulus, both inequalities strict) or y in (-T, T)^2
    (square).  The basis is Lagrange-Gauss reduced first (``_reduced``), so
    row 2 is a shortest lattice vector and iteration runs over at most
    about 2.15 T + 1 m1-strips of the domain preimage, whatever the entries
    of the caller's basis; the cost is proportional to the domain area.  A
    reduced basis, the identity in particular, is used as given.  On an
    annulus with c > 0 each strip skips its chord of the inner disc, so the
    candidates follow the annulus, not the disc.

    The strips are expanded and filtered in chunks by ``_kept_chunks``, the
    one loop that ``direction_set`` also reads; this function stacks the
    chunks.  Use ``direction_set`` when only the directions are needed.

    Raises CapacityError when the expected point count exceeds
    ``max_points``, before allocating anything; when the m1-strips do (a
    thin annulus, c near 1, holds few points on many strips); or when the
    candidates do.
    """
    _, chunks = _kept_chunks(lat, shape, T, max_points)
    out = [np.column_stack(chunk) for chunk in chunks]
    if not out:
        return np.empty((0, 2))
    return np.concatenate(out)


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
    shape)``, with the same errors, but each chunk of kept points goes
    straight into one preallocated angle array: no (n, 2) array is built.
    """
    total, chunks = _kept_chunks(lat, shape, T, max_points)
    alphas = np.empty(total)
    n = 0
    for y1, y2 in chunks:
        _turns(y1, y2, alphas[n:n + y1.size])
        n += y1.size
    alphas = alphas[:n]  # the slots of rejected candidates, a few per strip, stay unused
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
