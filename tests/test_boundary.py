"""The enumerator against a boundary-exact brute-force scan, points on the boundary included.

``enumerate_points`` takes each strip's certified interior whole and runs
the float domain test only on a few boundary candidates.  So its result
must be exactly the points of an m-box that pass that test, in (m1, m2)
order, and ``direction_set`` exactly their sorted angles, also when it cuts
the strips into many sectors.  Unlike the property tests in test_strips.py
nothing is moved off the boundary here: Pythagorean radii, half-integer
and integer shifts and integer square sizes put lattice points exactly on
the circles, edges and sector rays, and the strict float test must drop
them from the domain.
"""

import math

import pytest

import latdir as ld
from latdir import lattice
from latdir.diophantine import CBRT2, CBRT4
from latdir.lattice import _reduced

from oracles import brute_kept_points, brute_turns

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
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


@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.0, 9.7e-170), (1e-300, -1e-300), (2.0, -1.0)])
@pytest.mark.parametrize("shape", [ld.Annulus(0.0), ld.Annulus(1e-200), ld.Square()])
@pytest.mark.parametrize("T", [1.0, 1.01, 2.0**-490, 3.0])
def test_points_at_and_next_to_the_origin(shift, shape, T):
    # the origin strip: y = (0, 0) is dropped, and a nonzero y of 1e-170 is kept
    _assert_exact(ld.Mat2.identity(), shift, shape, T)


@pytest.mark.parametrize("shape, per_strip", [(ld.Annulus(0.0), 2), (ld.Annulus(0.5), 4),
                                              (ld.Square(), 2)])
def test_domain_test_sees_a_few_candidates_per_strip(monkeypatch, shape, per_strip):
    # two range ends per strip, two more beside the inner chord on an annulus
    seen = []
    inside = lattice._inside
    monkeypatch.setattr(lattice, "_inside", lambda *args: seen.append(args[4].size) or inside(*args))
    T = 1000.0
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    dirs = ld.direction_set(lat, shape, T)
    strips = math.floor(T - CBRT4) - math.ceil(-T - CBRT4) + 1
    assert dirs.N > 2_000_000
    assert sum(seen) <= per_strip * strips


@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5), (0.0, 1e-12),
                                   (2.0, -1e-12)])
@pytest.mark.parametrize("shape, T", [(ld.Annulus(0.0), 25.0), (ld.Annulus(0.6), 65.0),
                                      (ld.Square(), 20.0), (ld.Square(), 7.5)])
def test_rays_through_lattice_points(monkeypatch, shift, shape, T):
    # with K divisible by 8 the axes and diagonals are sector rays, and lattice points lie
    # on them; an integer first shift component puts a strip through the origin, and a
    # tiny second one puts its points next to the origin on both sides
    seen = []
    in_order = lattice._in_order
    monkeypatch.setattr(lattice, "_in_order", lambda *args: seen.append(in_order(*args)) or seen[-1])
    _assert_exact(ld.Mat2.identity(), shift, shape, T)
    assert len(seen) > 2 and all(seen)


@pytest.mark.parametrize("shape", [ld.Annulus(0.0), ld.Square()])
def test_subnormal_basis_entries(shape):
    # T / 5e-324 overflows in the square's strip bounds, which saturate it without a warning
    _assert_exact(ld.Mat2(1.0, -5e-324, 5e-324, 1.0), (0.0, 0.5), shape, 3.0)
