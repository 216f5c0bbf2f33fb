"""The rotation's cosine and sine in ``limit._sincos``, against mpmath at 120 bits.

The kernel reduces phi to a cell of 2 pi / STEPS, takes the cell's
cosine and sine from a table and corrects them by short polynomials, with
IEEE basic operations only.  Its outputs must be within 2 ulp of the
exact values, exact at phi = 0 and at the quarter turns of the table, and
its bits must not depend on the CPU: the digest below was recorded with
numpy's AVX-512 kernels on and holds with them off.
"""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import latdir as ld
from latdir import limit
from latdir.limit import PHI_MAX, STEPS, TWO_PI, V_FLOOR

mp = pytest.importorskip("mpmath")
mp.mp.prec = 120

STEP = 2 * mp.pi / STEPS


def sincos(phi):
    phi = np.asarray(phi, dtype=float)
    return limit._sincos(phi, np.empty((6, phi.size)))


def ulp_errors(got, phi, f):
    """|got - f(phi)| in ulps of the double nearest f(phi), per value."""
    errs = []
    for g, p in zip(got.tolist(), phi.tolist()):
        exact = f(mp.mpf(p))
        errs.append(float(abs(mp.mpf(g) - exact) / math.ulp(float(exact))))
    return np.array(errs)


def assert_within(phi, ulps):
    c, s = sincos(phi)
    worst = max(ulp_errors(c, phi, mp.cos).max(), ulp_errors(s, phi, mp.sin).max())
    assert worst <= ulps, worst


def test_uniform_draw_within_two_ulp():
    phi = np.random.default_rng(20_000).uniform(0.0, TWO_PI, 20_000)
    c, s = sincos(phi)
    ec, es = ulp_errors(c, phi, mp.cos), ulp_errors(s, phi, mp.sin)
    assert max(ec.max(), es.max()) <= 2.0
    assert max(ec.mean(), es.mean()) <= 0.4  # about 0.31 for each


def edge_points():
    pts = [0.0, math.nextafter(TWO_PI, 0.0), TWO_PI, PHI_MAX, -PHI_MAX]
    pts += [float(k * mp.pi / 2) for k in list(range(-8, 9)) + [20_859, -20_860]]
    pts += [float((j + d) * STEP) for j in range(-2, STEPS + 2) for d in (-0.5, 0.5)]
    pts += [float((j + 0.5) * STEP) for j in (2**20, -(2**20), 1_335_087, -1_335_088)]
    pts += [math.nextafter(p, d) for p in pts for d in (-math.inf, math.inf)]
    return np.array([p for p in pts if abs(p) <= PHI_MAX])


def test_edge_points_within_two_ulp():
    # 0, the float below 2 pi, the doubles nearest k pi / 2 (cos or sin near 0 there), the cell
    # edges (j +- 1/2) 2 pi / STEPS where |r| is largest, the range ends, and the floats next to each
    assert_within(edge_points(), 2.0)


def test_draw_over_the_whole_range_within_two_ulp():
    assert_within(np.random.default_rng(15).uniform(-PHI_MAX, PHI_MAX, 2000), 2.0)


def test_reduction_is_exact_on_the_range():
    # j H1 and j H2 are exact for |j| < 2^21, and so is phi - j H1, at every edge point
    for h in (limit._H1, limit._H2):
        assert (math.frexp(h)[0] * 2.0**32).is_integer()
    total = mp.mpf(limit._H1) + mp.mpf(limit._H2) + mp.mpf(limit._H3)
    assert abs(total - STEP) <= STEP * mp.mpf(2) ** -125
    assert abs(np.rint(PHI_MAX * limit._PER_TURN)) < 2**21 - 1
    for p in edge_points().tolist():
        j = float(np.rint(p * limit._PER_TURN))
        jh = j * limit._H1
        assert Fraction(jh) == Fraction(j) * Fraction(limit._H1)
        assert Fraction(j * limit._H2) == Fraction(j) * Fraction(limit._H2)
        assert Fraction(p - jh) == Fraction(p) - Fraction(jh)


def test_zero_and_the_quarter_turns_are_exact():
    c, s = sincos([0.0, -0.0])
    assert c.tolist() == [1.0, 1.0] and s.tolist() == [0.0, 0.0]
    assert not np.signbit(s).any()
    assert np.array_equal(ld.iwasawa_matrix(0.0, 1.0, 0.0)[0], np.eye(2))


def test_table_holds_the_correctly_rounded_values():
    quarters = np.arange(0, STEPS, STEPS // 4)
    assert limit._COS[quarters].tolist() == [1.0, 0.0, -1.0, 0.0]
    assert limit._SIN[quarters].tolist() == [0.0, 1.0, 0.0, -1.0]
    assert not np.signbit(limit._COS[quarters[1::2]]).any() and not np.signbit(limit._SIN[quarters[::2]]).any()
    for j in sorted(set(range(STEPS)) - set(quarters.tolist())):
        assert limit._COS[j] == float(mp.cos(j * STEP)), j
        assert limit._SIN[j] == float(mp.sin(j * STEP)), j


def test_bits_do_not_depend_on_the_cpu():
    # recorded with numpy's AVX-512 kernels; the kernel uses IEEE basic operations, rint, casts
    # and takes only, so the same bits must come out with those kernels off
    c, s = sincos(np.random.default_rng(20_000).uniform(0.0, TWO_PI, 20_000))
    data = c.astype("<f8").tobytes() + s.astype("<f8").tobytes()
    assert hashlib.sha256(data).hexdigest()[:32] == "8920d74c17adff40426bf9703f049617"


def test_iwasawa_matrix_has_unit_determinant():
    rng = np.random.default_rng(9)
    n = 2000
    A = ld.iwasawa_matrix(rng.uniform(-0.5, 0.5, n), V_FLOOR / rng.uniform(0.0, 1.0, n) ** 0.5,
                          rng.uniform(0.0, TWO_PI, n))
    worst = max(abs(Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c) - 1)
                for (a, b), (c, d) in A.tolist())
    assert worst <= 4 * np.finfo(float).eps, float(worst)


def test_iwasawa_matrix_broadcasts():
    phi = np.array([[0.5, 1.0], [2.0, 3.0]])
    A = ld.iwasawa_matrix(0.25, 2.0, phi)
    assert A.shape == (4, 2, 2)
    for a, p in zip(A, phi.ravel()):
        assert np.array_equal(a, ld.iwasawa_matrix(0.25, 2.0, p)[0])


@pytest.mark.parametrize("u, v, phi", [
    (0.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, -0.0, 0.0), (0.0, math.inf, 0.0), (0.0, math.nan, 0.0),
    (math.inf, 1.0, 0.0), (math.nan, 1.0, 0.0), (0.0, 1.0, math.inf), (0.0, 1.0, -math.inf),
    (0.0, 1.0, math.nan), (0.0, 1.0, math.nextafter(PHI_MAX, math.inf)),
    (0.0, 1.0, -math.nextafter(PHI_MAX, math.inf)), (0.0, [1.0, 0.0], 0.0), (0.0, 1.0, [0.0, 1e300]),
])
def test_iwasawa_matrix_refuses_bad_input(u, v, phi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ld.InvalidInputError):
            ld.iwasawa_matrix(u, v, phi)


def test_iwasawa_matrix_takes_the_range_ends():
    A = ld.iwasawa_matrix([0.0, 0.0], [1.0, 1e-300], [PHI_MAX, -PHI_MAX])
    assert np.isfinite(A).all()
