"""Property tests for every counter built on the strip solver (latdir.strips).

Each consumer is checked against its brute-force oracle on random and
heavily skewed integer bases (shears up to 1e3; up to 1e7 for the
enumerator, which reduces its basis first) with rational and real shifts.
A skewed basis gamma in SL(2, Z) is checked through the identity
(Z^2 + xi) gamma A0 = (Z^2 + xi gamma) A0, so the oracle scans a small box
around the moderate matrix A0 while the code under test walks the skewed one.
The two float representations may round a point on a boundary differently,
so radii, windows, R and A0 are moved off simple values by JIGGLE, and real
shifts stay 1e-9 away from integers: then no lattice point lies within
roundoff of a boundary or of the cone apex.  The near-integer shifts put a
point within roundoff of the apex on purpose; there the oracle scans the
same matrix, and the float predicate decides.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import latdir as ld
from latdir import lattice, strips
from latdir.limit import _coset_shift

from oracles import brute_cone_count, brute_cusp_sum, brute_disc_count, brute_points

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=40)
JIGGLE = math.sqrt(2) / 97
SHAPES = [ld.Annulus(0.0), ld.Annulus(0.4), ld.Square()]


@contextmanager
def small_budget():
    """The package's one size budget shrunk to 10,000 values, so no example can grow large."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "DEFAULT_MAX_POINTS", 10_000)
        yield

rational = st.fractions(min_value=-1, max_value=1, max_denominator=12).map(float)
real = st.floats(-1.0, 1.0).map(lambda x: x if abs(x - round(x)) > 1e-9 else float(round(x)))
shifts = st.tuples(rational, rational) | st.tuples(real, real)


@st.composite
def unimodular(draw):
    """Integer matrix of determinant 1: a short random word, or a shear up to 1e3."""
    g = np.eye(2, dtype=np.int64)
    for k in draw(st.lists(st.integers(-2, 2), max_size=3)):
        g = g @ np.array([[1, k], [0, 1]]) @ np.array([[0, -1], [1, 0]])
    if draw(st.booleans()):
        s = draw(st.integers(-1000, 1000))
        g = g @ np.array([[1, 0], [s, 1]] if draw(st.booleans()) else [[1, s], [0, 1]])
    return g


@st.composite
def moderate_matrix(draw):
    """Real determinant-1 matrix n(u) a(v) k(phi) of moderate shape."""
    u = draw(st.floats(-2.0, 2.0)) + JIGGLE
    v = draw(st.floats(0.1, 8.0))
    phi = draw(st.floats(0.0, 2 * math.pi)) + JIGGLE
    return ld.iwasawa_matrix(u, v, phi)[0]


def _moved_shift(xi, g):
    """xi g reduced mod 1, exactly: the same affine lattice with a small oracle box."""
    s = [Fraction(xi[0]) * int(c0) + Fraction(xi[1]) * int(c1) for c0, c1 in np.asarray(g).T]
    return np.array([float(t - round(t)) for t in s])


def _box(reach, A):
    """Half-width M of an m-box holding every point with |y_i| <= reach."""
    return int(reach * np.abs(np.linalg.inv(A)).sum(axis=0).max()) + 2


def _same_points(got, want, tol=1e-6):
    # distinct points are at least 1 apart; roundoff grows with the entries of g
    got = got.view(complex).ravel()
    want = want.view(complex).ravel()
    assert got.size == want.size
    if got.size:
        gap = np.abs(got[:, None] - want[None, :])
        assert gap.min(axis=1).max() < tol and gap.min(axis=0).max() < tol


@PROPS
@given(unimodular(), shifts, st.floats(1.0, 3.0), st.sampled_from(SHAPES))
def test_enumerate_points_matches_brute(g, xi, t, shape):
    T = t + JIGGLE
    lat = ld.AffineLatticeSpec(ld.Mat2.from_array(g), xi)
    got = ld.enumerate_points(lat, shape, T)
    if np.abs(g).max() <= 30:  # the oracle scans the skewed basis itself
        want = brute_points(lat, shape, T, _box(T, g.astype(float)))
        _same_points(got, want)
    plain = ld.AffineLatticeSpec(ld.Mat2.identity(), tuple(_moved_shift(xi, g)))
    _same_points(got, brute_points(plain, shape, T, int(T) + 2))


@PROPS
@given(st.tuples(unimodular(), moderate_matrix()), shifts, st.floats(1.0, 8.0),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_annulus_enumeration_matches_brute(gA0, xi, t, c):
    # each strip skips its inner chord; the exact filter decides the points beside it
    g, A0 = gA0
    T = t + JIGGLE
    basis = ld.Mat2.from_array(g @ A0)
    assume(abs(basis.det - 1.0) <= 1e-12)
    with small_budget():
        got = ld.enumerate_points(ld.AffineLatticeSpec(basis, xi), ld.Annulus(c), T)
    plain = ld.AffineLatticeSpec(ld.Mat2.from_array(A0), tuple(_moved_shift(xi, g)))
    _same_points(got, brute_points(plain, ld.Annulus(c), T, _box(T, A0)))


domains = st.sampled_from([ld.Annulus(0.0), ld.Square()]) | st.floats(0.01, 0.99).map(ld.Annulus)


@PROPS
@given(st.tuples(unimodular(), moderate_matrix()) | st.tuples(st.just(np.eye(2)), moderate_matrix()),
       shifts, st.floats(1.0, 30.0), domains)
def test_direction_set_is_directions_of_points(gA0, xi, T, shape):
    g, A0 = gA0
    basis = ld.Mat2.from_array(g @ A0)
    assume(abs(basis.det - 1.0) <= 1e-12)
    lat = ld.AffineLatticeSpec(basis, xi)
    with small_budget():
        want = ld.directions(ld.enumerate_points(lat, shape, T), T, shape)
        got = ld.direction_set(lat, shape, T)
    assert got.T == want.T and got.shape == want.shape
    assert got.alphas.tobytes() == want.alphas.tobytes()


@st.composite
def long_words(draw):
    """Integer matrix of determinant 1: a word in S and T^k, |k| <= 50, times a shear up to 1e7.

    The shear is capped so that a d and b c stay below 2^53: then the float
    determinant is exactly 1 and the basis passes the unimodularity check.
    """
    g = np.eye(2, dtype=np.int64)
    for k in draw(st.lists(st.integers(-50, 50), max_size=4)):
        g = g @ np.array([[1, k], [0, 1]]) @ np.array([[0, -1], [1, 0]])
    cap = min(10**7, 2**50 // int(np.abs(g).max()) ** 2)
    s = draw(st.integers(-cap, cap))
    return g @ np.array([[1, 0], [s, 1]] if draw(st.booleans()) else [[1, s], [0, 1]])


@st.composite
def real_shears(draw):
    """(gamma, A0) with gamma A0 = [[1, 0], [s, 1]] or [[1, s], [0, 1]], s real up to 1e7."""
    s = draw(st.floats(-1e7, 1e7))
    n = round(s)
    f = s - n  # exact: n is 0 or within a factor of two of s
    if draw(st.booleans()):
        return np.array([[1, 0], [n, 1]]), np.array([[1.0, 0.0], [f, 1.0]])
    return np.array([[1, n], [0, 1]]), np.array([[1.0, f], [0.0, 1.0]])


@PROPS
@given(long_words(), shifts, st.floats(1.0, 6.0), st.sampled_from(SHAPES))
def test_enumerate_points_reduces_integer_bases(g, xi, t, shape):
    # strips follow the rows of g: a shear of 1e7 would walk 1e7 T of them unreduced
    T = t + JIGGLE
    lat = ld.AffineLatticeSpec(ld.Mat2.from_array(g), xi)
    with small_budget():
        got = ld.enumerate_points(lat, shape, T)
    plain = ld.AffineLatticeSpec(ld.Mat2.identity(), tuple(_moved_shift(xi, g)))
    _same_points(got, brute_points(plain, shape, T, int(T) + 2))


@PROPS
@given(st.tuples(unimodular(), moderate_matrix()) | real_shears(), shifts, st.floats(1.0, 4.0),
       st.sampled_from(SHAPES))
def test_enumerate_points_reduces_real_bases(gA0, xi, t, shape):
    g, A0 = gA0
    T = t + JIGGLE
    basis = ld.Mat2.from_array(g @ A0)
    assume(abs(basis.det - 1.0) <= 1e-12)  # else the float product is not unimodular enough
    with small_budget():
        got = ld.enumerate_points(ld.AffineLatticeSpec(basis, xi), shape, T)
    plain = ld.AffineLatticeSpec(ld.Mat2.from_array(A0), tuple(_moved_shift(xi, g)))
    _same_points(got, brute_points(plain, shape, T, _box(T, A0)))


@PROPS
@given(
    unimodular(),
    moderate_matrix(),
    shifts,
    st.sampled_from([0.0, 0.3, 0.7]),
    st.floats(-3.0, 2.0),
    st.floats(0.1, 3.0),
)
def test_cone_counts_match_brute(g, A0, xi, c, a, width):
    a += JIGGLE
    region = ld.ConeRegion(c, (a, a + width))
    got = int(ld.cone_counts((g @ A0)[None], np.array(xi), region)[0])
    reach = 1.0 + 2.0 * max(abs(a), abs(a + width)) / (1.0 - c * c)
    assert got == brute_cone_count(A0, _moved_shift(xi, g), region, _box(reach, A0))


# a component within 1e-300 to 1e-200 of an integer: the offset itself, or the integer it rounds to
near_integer = st.tuples(st.integers(-1, 1), st.floats(1e-300, 1e-200), st.booleans()).map(
    lambda t: t[0] + (t[1] if t[2] else -t[1]))


@PROPS
@given(moderate_matrix(), st.tuples(near_integer, near_integer), st.sampled_from([0.0, 0.3, 0.7]),
       st.floats(-3.0, 2.0), st.floats(0.1, 3.0))
def test_cone_counts_decide_points_at_the_apex(A0, xi, c, a, width):
    # a point within 1e-200 of the apex sits on every bound's roundoff; the float predicate decides it
    a += JIGGLE
    region = ld.ConeRegion(c, (a, a + width))
    got = int(ld.cone_counts(A0[None], np.array(xi), region)[0])
    reach = 1.0 + 2.0 * max(abs(a), abs(a + width)) / (1.0 - c * c)
    assert got == brute_cone_count(A0, np.array(xi), region, _box(reach, A0))
    # a component that rounded to an integer is the same shift as 0
    plain = np.array([x if abs(x) < 0.5 else 0.0 for x in xi])
    assert int(ld.cone_counts(A0[None], plain, region)[0]) == got


def test_cone_counts_point_at_the_apex():
    # m = (0, -1) lands on y = (4.2e-255, 4.2e-255), inside the cone and 1e-255 from its apex
    A = np.array([[1.0, 1.0], [0.5, 1.5]])
    region = ld.ConeRegion(0.0, (JIGGLE, 1.0 + JIGGLE))
    for xi2 in (1.0, 0.0):
        xi = np.array([4.2e-255, xi2])
        assert int(ld.cone_counts(A[None], xi, region)[0]) == brute_cone_count(A, xi, region, 8) == 1


def test_cone_counts_oracle_rounds_entrywise():
    # (m + xi) A taken as a matrix product rounds 89 of these 441 points differently; one of them
    # then leaves the window (0, 0.5), though the entrywise point, which cone_counts uses, is inside
    A = np.array([[1.0, 1.0], [0.5, 1.5]])
    xi = np.array([0.0, 1.0 / 3.0])
    region = ld.ConeRegion(0.0, (0.0, 0.5))
    assert int(ld.cone_counts(A[None], xi, region)[0]) == brute_cone_count(A, xi, region, 10) == 1


@st.composite
def zero_coefficient_cones(draw):
    """(A, region): a22 = s a21 exactly for one slope s of the window, |det A| about 1.

    The slope-s edge is then the level line p1 = 0, so its bound is a test
    of the whole strip.
    """
    c = draw(st.sampled_from([0.0, 0.3, 0.7]))
    a = draw(st.floats(-2.0, 1.0)) + JIGGLE
    region = ld.ConeRegion(c, (a, a + draw(st.floats(0.2, 2.0))))
    s = 2.0 * region.interval[draw(st.integers(0, 1))] / (1.0 - c**2)  # the kernel's slope, bit for bit
    a21 = draw(st.floats(0.2, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    a11 = draw(st.floats(-1.0, 1.0))
    a22 = s * a21
    return np.array([[a11, (a11 * a22 - 1.0) / a21], [a21, a22]]), region


@PROPS
@given(zero_coefficient_cones(), st.lists(st.tuples(near_integer | real, near_integer | real), min_size=6,
                                          max_size=6))
def test_cone_counts_zero_slope_coefficient(cone, shifts):
    # the strips next to the level edge, on either side, and a point that rounds onto it are
    # decided by the float predicate
    A, region = cone
    a, b = region.interval
    reach = 1.0 + 2.0 * max(abs(a), abs(b)) / (1.0 - region.c**2)
    M = _box(reach, A)
    for xi in shifts:
        got = int(ld.cone_counts(A[None], np.array(xi), region)[0])
        assert got == brute_cone_count(A, np.array(xi), region, M)


@st.composite
def rational_samples(draw):
    """(p1, p2, q, coset) for every supported level q, with a random coset representative."""
    q = draw(st.integers(2, 5))
    reps = ld.coset_reps(q)
    coset = reps[draw(st.integers(0, len(reps) - 1))]
    return draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1)), q, coset


@PROPS
@given(rational_samples(), st.floats(-1.0, 1.0), st.floats(0.3, 8.0), st.floats(0.0, 2 * math.pi),
       st.sampled_from([0.0, 0.3, 0.7]), st.lists(st.tuples(st.floats(-3.0, 2.0), st.floats(0.1, 3.0)),
                                                 min_size=1, max_size=3))
def test_fixed_rational_counts_move_the_coset_into_the_shift(pq, u, v, phi, c, windows):
    # (Z^2 + p/q) gamma A is counted as (Z^2 + (p gamma mod q) / q) A
    p1, p2, q, gamma = pq
    A = ld.iwasawa_matrix(u + JIGGLE, v, phi + JIGGLE)
    regions = [ld.ConeRegion(c, (a + JIGGLE, a + JIGGLE + w)) for a, w in windows]
    got = [int(ld.cone_counts(A, _coset_shift((p1, p2), q, gamma), reg)[0]) for reg in regions]
    want = [int(ld.cone_counts(gamma.astype(float) @ A[0], np.array([p1 / q, p2 / q]), reg)[0]) for reg in regions]
    assert got == want


@PROPS
@given(unimodular(), moderate_matrix(), shifts, st.floats(0.3, 5.0))
def test_disc_count_matches_brute(g, A0, xi, r):
    r += JIGGLE
    got = int(ld.disc_count((g @ A0)[None], np.array(xi), r)[0])
    assert got == brute_disc_count(A0, _moved_shift(xi, g), r, _box(r, A0))


@PROPS
@given(
    unimodular(),
    st.floats(-1.0, 1.0),
    st.floats(0.2, 4.0),
    st.tuples(rational, rational),
    st.floats(0.0, 2.0),
    st.floats(1.0, 4.0),
)
def test_cusp_window_sum_matches_brute(g, u0, v0, xi, beta, R):
    # tau = g^-1 . tau0, so the skewed g sends tau back to a moderate tau'
    (a, b), (c, d) = g.tolist()
    tau0 = complex(u0, v0)
    tau = (d * tau0 - b) / (-c * tau0 + a)
    M = ld.Mat2.from_array(g)
    R += JIGGLE
    spec = ld.CuspSpec(beta, R)
    taup = (M.a * tau + M.b) / (M.c * tau + M.d)
    if taup.imag <= 0:  # roundoff on a large shear; nothing to compare
        return
    reach = math.sqrt(taup.imag / R)
    cmax = int(reach / taup.imag * (1.0 + abs(taup.real)) + reach) + 2
    val = ld.cusp_window_sum(tau, xi, M, spec)
    ref = brute_cusp_sum(tau, xi, M, spec, cmax)
    assert val == pytest.approx(ref, abs=1e-12 * max(1.0, ref))


def test_settle_moves_each_end_by_the_predicate():
    inside = lambda m: (m >= 2) & (m <= 5)  # noqa: E731
    lo, hi = strips.settle(np.array([3, 1, 2, 6, 7]), np.array([4, 6, 5, 5, 6]), inside)
    # one short at both ends; one long at both ends; exact; empty but 5 is inside; empty
    assert lo.tolist() == [2, 2, 2, 5, 8] and hi.tolist() == [5, 5, 5, 5, 5]
    assert strips.widths(lo, hi).tolist() == [4, 4, 4, 1, 0]


def test_square_range_solves_closed_slabs():
    # -t <= p1 r + (m2 + xi2) q <= t per axis: closed, so ends on an integer are kept
    p1 = np.array([-3.0, -1.0, 0.0, 1.5, 3.0])
    for basis, xi2, t in [(ld.Mat2.identity(), 0.0, 2.0), (ld.Mat2(0.0, -1.0, 1.0, 0.0), 0.5, 2.5),
                          (ld.Mat2(1.0, 0.5, -2.0, 0.0), 0.5, 4.5), (ld.Mat2(2.0, 1.0, 1.0, 1.0), 0.25, 3.25)]:
        lo, hi = lattice._square_range(basis, p1, xi2, t)
        for k, x in enumerate(p1):
            m2 = np.arange(-40, 41)
            y1, y2 = x * basis.a + (m2 + xi2) * basis.c, x * basis.b + (m2 + xi2) * basis.d
            inside = m2[(np.abs(y1) <= t) & (np.abs(y2) <= t)]
            assert strips.widths(lo[k], hi[k]) == inside.size
            if inside.size:
                assert (lo[k], hi[k]) == (inside[0], inside[-1])
    # a zero coefficient q (here B.c = 0) tests the whole strip: |p1 B.a| <= t, else the range is [1, 0]
    lo, hi = lattice._square_range(ld.Mat2.identity(), np.array([2.0, -2.0, 2.5]), 0.0, 2.0)
    assert lo.tolist() == [-2, -2, 1] and hi.tolist() == [2, 2, 0]
