"""The enumerator and ``disc_count`` against boundary-exact brute-force scans, points on the boundary included.

``enumerate_points`` takes each strip's certified interior whole and runs
the float domain test only on a few boundary candidates.  So its result
must be exactly the points of an m-box that pass that test, in (m1, m2)
order, and ``direction_set`` exactly their sorted angles, also when it
frames many sectors.  Unlike the property tests in test_strips.py
nothing is moved off the boundary here: Pythagorean radii, half-integer
and integer shifts and integer square sizes put lattice points exactly on
the circles, edges and sector rays, and the strict float test must drop
them from the domain; a scale at a lattice point's own radius, or the
next float up, puts a point within an ulp of the boundary on either side,
where the float test alone decides.  ``disc_count`` keeps exactly the
points that its closed float test keeps, radii at lattice points included.
"""

import math

import numpy as np
import pytest

import latdir as ld
from latdir import lattice
from latdir.diophantine import CBRT2, CBRT4
from latdir.lattice import _reduced

from oracles import brute_disc_count, brute_kept_points, brute_turns

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=40)

half_integers = st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.5])
# c = 0.6 puts c T = 3, 15, 39, 195 on a lattice circle too
pythagorean = st.tuples(st.sampled_from([5.0, 25.0, 65.0, 325.0]),
                        st.sampled_from([ld.Annulus(0.0), ld.Annulus(0.6), ld.Square()]))
integer_squares = st.tuples(st.integers(1, 40).map(float), st.just(ld.Square()))


def _sector_targets(N):
    """The sector targets that cut N angles into K = 8, 16, 32 or 64 sectors, where one exists.

    A K divisible by 8 puts sector rays on the axes and the diagonals.
    """
    return [N // K for K in (8, 16, 32, 64) if N >= K and N // (N // K) == K]


def _assert_exact(basis, shift, shape, T):
    lat = ld.AffineLatticeSpec(basis, shift)
    want = brute_kept_points(basis.array(), lat.shift, shape, T)
    got = ld.enumerate_points(lat, shape, T)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    turns = brute_turns(want).tobytes()
    assert ld.direction_set(lat, shape, T).alphas.tobytes() == turns
    for target in _sector_targets(len(want)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "SECTOR", target)
            assert ld.direction_set(lat, shape, T).alphas.tobytes() == turns


@PROPS
@given(st.tuples(half_integers, half_integers), pythagorean | integer_squares)
def test_identity_lattice_points_on_the_boundary(shift, case):
    T, shape = case
    _assert_exact(ld.Mat2.identity(), shift, shape, T)


@st.composite
def reduced_bases(draw):
    """A Lagrange-Gauss reduced basis of moderate shape: n(u) a(v) k(phi), reduced."""
    u = draw(st.floats(-2.0, 2.0))
    v = draw(st.floats(0.1, 8.0))
    phi = draw(st.floats(0.0, 2 * math.pi))
    basis = _reduced(ld.Mat2.from_array(ld.iwasawa_matrix(u, v, phi)[0]), (0.0, 0.0))[0]
    assume(abs(basis.det - 1.0) <= 1e-12 and _reduced(basis, (0.0, 0.0))[0] is basis)
    return basis


# an integer first component puts a strip through the origin
shifts = st.tuples(st.integers(-2, 2).map(float) | st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
domains = st.sampled_from([ld.Annulus(0.0), ld.Square()]) | st.floats(0.0, 0.95).map(ld.Annulus)


@PROPS
@given(reduced_bases(), shifts, st.floats(0.5, 60.0), domains)
def test_reduced_bases_match_the_scan(basis, shift, T, shape):
    # T up to 60 gives the strips long certified interiors
    _assert_exact(basis, shift, shape, T)


# A reduced basis and a scale T, the next float above the radius of the point at m = (16, 9), that
# puts the point y = (25.125117043161314, 1.8093561770183664) just inside the circle: y1^2 + y2^2
# is 634.5452762078696 and T^2 is 634.5452762078697.  Its strip's m2 range solved at exactly T ends
# at m2 = 8, so a solve that took its candidates from the domain at T dropped it.
SKEWED = ld.Mat2(1.4705107433098359, -0.24691973238088374, 0.09720609989130768, 0.6637135432497867)
SKEWED_SHIFT = (0.5, -0.13543512688470505)
SKEWED_T = 25.19018213923571


def test_a_point_just_inside_the_circle_past_its_strip_solve():
    shape = ld.Annulus(0.0)
    _assert_exact(SKEWED, SKEWED_SHIFT, shape, SKEWED_T)
    lat = ld.AffineLatticeSpec(SKEWED, SKEWED_SHIFT)
    want = brute_kept_points(SKEWED.array(), lat.shift, shape, SKEWED_T)
    point = np.array([25.125117043161314, 1.8093561770183664])
    assert len(want) == 1999 and np.any(np.all(want == point, axis=1))
    stream = ld.direction_stream(lat, shape, SKEWED_T)
    assert stream.N == 1999
    # windows 2 / N and 20 / N wide around the point's turn count it, on the stream as in the scan
    turn = brute_turns(point[None])[0]
    windows = [(-1.0, 1.0), (-10.0, 10.0)]
    got = ld.window_counts(stream, windows, turn)
    assert got.tolist() == ld.window_counts(ld.DirectionSet(brute_turns(want), SKEWED_T, shape), windows, turn).tolist()
    assert got.min() >= 1


@st.composite
def det_one_bases(draw):
    """A skewed reduced basis of determinant 1 up to rounding, d = (1 + b c) / a, used as given.

    Row 2 is drawn of squared length s <= 1 and row 1 as mu (c, d) + (d, -c) / s with |mu| <= 1/2,
    a reduced pair up to 10 times longer; d is then formed from a, b and c.
    """
    s, theta, mu = draw(st.floats(0.1, 1.0)), draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(-0.5, 0.5))
    c, d = math.sqrt(s) * math.cos(theta), math.sqrt(s) * math.sin(theta)
    a, b = mu * c + d / s, mu * d - c / s
    assume(abs(a) >= 0.1)
    basis = ld.Mat2(a, b, c, (1.0 + b * c) / a)
    assume(_reduced(basis, (0.0, 0.0))[0] is basis)
    return basis


exact_shifts = st.tuples(*2 * [st.sampled_from([0.0, 0.5, 1.0 / 3.0]) | st.floats(-0.5, 0.5)])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(det_one_bases(), exact_shifts, st.tuples(st.integers(-14, 14), st.integers(-14, 14)), st.booleans(),
       st.sampled_from([ld.Annulus(0.0), ld.Square()]))
@example(SKEWED, SKEWED_SHIFT, (16, 9), True, ld.Annulus(0.0))
def test_scale_at_a_lattice_points_radius(basis, shift, m, up, shape):
    # T is the radius of the point at m (its max |y_i| on the square), formed as the float test
    # forms y, or the next float up: the point lies within an ulp of the boundary, on either side
    p1, p2 = m[0] + shift[0], m[1] + shift[1]
    y1, y2 = p1 * basis.a + p2 * basis.c, p1 * basis.b + p2 * basis.d
    T = math.sqrt(y1 * y1 + y2 * y2) if isinstance(shape, ld.Annulus) else max(abs(y1), abs(y2))
    # below about 1e-154 the frames of direction_set overflow, and it raises LatdirError (a FOUND
    # line in CHANGES.md); test_points_at_and_next_to_the_origin takes T down to 2^-490
    assume(T >= 2.0**-490)
    _assert_exact(basis, shift, shape, math.nextafter(T, math.inf) if up else T)


def test_disc_count_at_a_lattice_points_radius():
    # the float roots alone counted 46 here: two points the closed float test keeps lay past them
    A = ld.iwasawa_matrix(-0.13211926108848326, 2.8956789499470528, 2.5096629348683193)
    r = 3.771137789527344
    assert int(ld.disc_count(A, (0.0, 0.5), r)[0]) == brute_disc_count(A[0], (0.0, 0.5), r, 20) == 48


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.floats(-2.0, 2.0), st.floats(0.1, 8.0), st.floats(0.0, 2 * math.pi), exact_shifts,
       st.tuples(st.integers(-6, 6), st.integers(-6, 6)), st.sampled_from([-1, 0, 1]))
def test_disc_count_keeps_what_the_float_test_keeps(u, v, phi, shift, m, ulps):
    # r is the radius of the point at m, formed entry by entry as disc_count's test forms it, moved
    # by at most one ulp, so that point and any on its circle lie within roundoff of the boundary
    A = ld.iwasawa_matrix(u, v, phi)[0]
    p1, p2 = m[0] + shift[0], m[1] + shift[1]
    y1, y2 = p1 * A[0][0] + p2 * A[1][0], p1 * A[0][1] + p2 * A[1][1]
    r = math.sqrt(y1 * y1 + y2 * y2)
    if ulps:
        r = max(math.nextafter(r, ulps * math.inf), 0.0)
    box = int(r * np.abs(np.linalg.inv(A)).sum(axis=0).max()) + 2
    assert int(ld.disc_count(A, shift, r)[0]) == brute_disc_count(A, shift, r, box)


@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.0, 9.7e-170), (1e-300, -1e-300), (2.0, -1.0)])
@pytest.mark.parametrize("shape", [ld.Annulus(0.0), ld.Annulus(1e-200), ld.Square()])
@pytest.mark.parametrize("T", [1.0, 1.01, 2.0**-490, 3.0])
def test_points_at_and_next_to_the_origin(shift, shape, T):
    # the origin strip: y = (0, 0) is dropped, and a nonzero y of 1e-170 is kept
    _assert_exact(ld.Mat2.identity(), shift, shape, T)


@pytest.mark.parametrize("shape, per_strip", [(ld.Annulus(0.0), 2), (ld.Annulus(0.5), 4),
                                              (ld.Square(), 2)])
def test_domain_test_sees_a_few_candidates_per_strip(monkeypatch, shape, per_strip):
    # the N solve decides two range ends per m1-strip, two more beside the inner chord on an
    # annulus; the sweep of direction_set decides a few points per reduced strip of its frames
    seen, rows = [], []
    inside, frames = lattice._inside, lattice._frames

    def counted_frames(*args):
        frame = frames(*args)
        rows.append(int(frame[-1].sum()))
        return frame

    monkeypatch.setattr(lattice, "_inside", lambda *args: seen.append(args[4].size) or inside(*args))
    monkeypatch.setattr(lattice, "_frames", counted_frames)
    T = 1000.0
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    assert ld.direction_stream(lat, shape, T).N > 2_000_000
    strips = math.floor(T - CBRT4) - math.ceil(-T - CBRT4) + 1
    solve = sum(seen)
    assert solve <= per_strip * strips and not rows
    seen.clear()
    ld.direction_set(lat, shape, T)  # its own stream solves N again, then sweeps
    assert len(rows) == 1 and sum(seen) - solve <= 3 * rows[0]


@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5), (0.0, 1e-12),
                                   (2.0, -1e-12)])
@pytest.mark.parametrize("shape, T", [(ld.Annulus(0.0), 25.0), (ld.Annulus(0.6), 65.0),
                                      (ld.Square(), 20.0), (ld.Square(), 7.5)])
def test_rays_through_lattice_points(monkeypatch, shift, shape, T):
    # with K divisible by 8 the axes and diagonals are sector rays, and lattice points lie
    # on them; an integer first shift component puts a strip through the origin, and a
    # tiny second one puts its points next to the origin on both sides.  The frames put every
    # point in its own sector at once: the check of the interior ends decides no strip again, so
    # each sweep solves the zones of its reduced strips once
    solves, active = [], []
    arc_ranges, zones = ld.DirectionStream._arc_ranges, lattice._zones

    def counted_arcs(self, *args):
        active.append(0)
        try:
            return arc_ranges(self, *args)
        finally:
            solves.append(active.pop())

    def counted_zones(*args):
        if active:
            active[-1] += 1
        return zones(*args)

    monkeypatch.setattr(ld.DirectionStream, "_arc_ranges", counted_arcs)
    monkeypatch.setattr(lattice, "_zones", counted_zones)
    _assert_exact(ld.Mat2.identity(), shift, shape, T)
    assert len(solves) > 2
    assert set(solves) == {1}


@pytest.mark.parametrize("shape", [ld.Annulus(0.0), ld.Square()])
def test_subnormal_basis_entries(shape):
    # T / 5e-324 overflows in the square's strip bounds, which saturate it without a warning
    _assert_exact(ld.Mat2(1.0, -5e-324, 5e-324, 1.0), (0.0, 0.5), shape, 3.0)
