import json
import math
from fractions import Fraction

import numpy as np
import pytest

import latdir as ld
from latdir import lattice
from latdir.diophantine import CBRT2, CBRT4
from latdir.lattice import _reduced

from oracles import brute_points, circular_match


def test_eight_points_at_T_1_5():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity())
    pts = ld.enumerate_points(lat, ld.Annulus(0.0), 1.5)
    assert len(pts) == 8
    norms = np.linalg.norm(pts, axis=1)
    assert set(np.round(norms**2).astype(int)) == {1, 2}


def test_open_disc_has_no_point_at_T_1():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity())
    assert len(ld.enumerate_points(lat, ld.Annulus(0.0), 1.0)) == 0


def test_half_shift_four_points():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.5, 0.5))
    pts = ld.enumerate_points(lat, ld.Annulus(0.0), 1.0)
    assert len(pts) == 4
    assert np.allclose(np.abs(pts), 0.5)


def test_square_domain_open_boundary():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity())
    assert len(ld.enumerate_points(lat, ld.Square(), 1.0)) == 0
    assert len(ld.enumerate_points(lat, ld.Square(), 1.5)) == 8


def test_directions_basic_angles():
    d = ld.directions([(1.0, 1.0)], 2.0, ld.Annulus(0.0))
    assert d.alphas[0] == pytest.approx(0.125, abs=1e-15)
    d = ld.directions([(-1.0, 0.0)], 2.0, ld.Annulus(0.0))
    assert d.alphas[0] == pytest.approx(0.5, abs=1e-15)


def test_regular_eight_direction_set():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity())
    pts = ld.enumerate_points(lat, ld.Annulus(0.0), 1.5)
    d = ld.directions(pts, 1.5, ld.Annulus(0.0))
    assert d.N == 8
    assert np.allclose(d.alphas, np.arange(8) / 8, atol=1e-14)


def test_zero_vector_rejected():
    with pytest.raises(ld.InvalidInputError):
        ld.directions([(0.0, 0.0)], 1.0, ld.Annulus(0.0))


def test_non_unimodular_basis_rejected():
    with pytest.raises(ld.InvalidInputError):
        ld.AffineLatticeSpec(ld.Mat2(2.0, 0.0, 0.0, 1.0))


@pytest.mark.parametrize("basis", [ld.Mat2(math.nan, 0.0, 0.0, 1.0), ld.Mat2(1.0, math.inf, 0.0, 1.0)])
def test_non_finite_basis_rejected(basis):
    # the determinant is NaN, which no tolerance comparison may let through
    with pytest.raises(ld.InvalidInputError):
        ld.AffineLatticeSpec(basis)


@pytest.mark.parametrize("shift", [(math.nan, 0.0), (0.3, math.inf), (-math.inf, 0.5)])
def test_non_finite_shift_rejected(shift):
    with pytest.raises(ld.InvalidInputError):
        ld.AffineLatticeSpec(ld.Mat2.identity(), shift)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_scale_rejected(T):
    # NaN compares false both ways, so only an explicit test for a finite T > 0 rejects it
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.1))
    for shape in (ld.Annulus(0.0), ld.Annulus(0.5), ld.Square()):
        for call in (ld.enumerate_points, ld.direction_set):
            with pytest.raises(ld.InvalidInputError, match="finite and positive"):
                call(lat, shape, T)
        with pytest.raises(ld.InvalidInputError):
            ld.expected_count(shape, T)
        with pytest.raises(ld.InvalidInputError):
            ld.directions([(1.0, 0.0)], T, shape)


def test_capacity_cap(monkeypatch):
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 1000)
    lat = ld.AffineLatticeSpec(ld.Mat2.identity())
    with pytest.raises(ld.CapacityError):
        ld.enumerate_points(lat, ld.Annulus(0.0), 100.0)


@pytest.mark.parametrize("basis", [(1e300, 0.0, 0.0, 1e-300), (1e-300, 0.0, 0.0, 1e300),
                                   (1e100, 0.0, 0.0, 1e-100), (0.0, 1e200, -1e-200, 0.0)])
@pytest.mark.parametrize("shape", [ld.Annulus(0.0), ld.Annulus(0.5), ld.Square()])
def test_overflowing_strip_is_a_capacity_error(basis, shape):
    # about 1e101 to 1e301 points on the strip m1 = 0; at 1e300 its squared length underflows to 0
    # and the strip solve once returned the point (0, -9.2e-282) from an int64 cast of NaN
    lat = ld.AffineLatticeSpec(ld.Mat2(*basis))
    for build in (ld.enumerate_points, ld.direction_set):
        with pytest.raises(ld.CapacityError, match="int64"):
            build(lat, shape, 5.0)


def test_shear_enumerates_the_identity_point_set(monkeypatch):
    # the shear's rows span 2e5 m1-strips; reduced, it is the identity basis
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 100_000)
    lat = ld.AffineLatticeSpec(ld.Mat2(1.0, 0.0, 1000.0, 1.0))
    got = ld.enumerate_points(lat, ld.Annulus(0.0), 100.0)
    want = ld.enumerate_points(ld.AffineLatticeSpec(ld.Mat2.identity()), ld.Annulus(0.0), 100.0)
    assert np.array_equal(got, want)


def test_strip_cap_before_allocating(monkeypatch):
    # a thin annulus holds ~630 points on ~2e4 strips: the strip count hits the cap
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 1000)
    lat = ld.AffineLatticeSpec(ld.Mat2.identity())
    with pytest.raises(ld.CapacityError, match="strips"):
        ld.enumerate_points(lat, ld.Annulus(0.999999), 1e4)


@pytest.mark.parametrize("shape, T", [(ld.Annulus(0.0), 800.0), (ld.Annulus(0.7), 900.0),
                                      (ld.Square(), 600.0)])
def test_direction_set_over_several_chunks(shape, T):
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    want = ld.directions(ld.enumerate_points(lat, shape, T), T, shape)
    assert want.N > 1_000_000  # more than one chunk of strips
    assert ld.direction_set(lat, shape, T).alphas.tobytes() == want.alphas.tobytes()


@pytest.mark.parametrize("shape, T, budget, what", [
    (ld.Annulus(0.0), 1e9, lattice.DEFAULT_MAX_POINTS, "expected about"),  # 3e18 points: no allocation
    (ld.Annulus(0.999999), 1e4, 1000, "strips"),
    (ld.Annulus(0.5), 100.0, 23_600, "candidates"),  # 23 562 expected, 23 767 candidates
])
def test_direction_set_capacity(monkeypatch, shape, T, budget, what):
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", budget)
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7))
    for build in (ld.enumerate_points, ld.direction_set):
        with pytest.raises(ld.CapacityError, match=what):
            build(lat, shape, T)


def test_thin_annulus_candidates_follow_the_annulus(monkeypatch):
    # the whole disc chord gave 282 752 candidates for 5 622 points here
    seen = []
    inside = lattice._inside
    monkeypatch.setattr(lattice, "_inside", lambda *args: seen.append(args[4].size) or inside(*args))
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7))
    kept = len(ld.enumerate_points(lat, ld.Annulus(0.99), 300.0))
    assert kept == 5622 and sum(seen) < kept


@pytest.mark.parametrize("basis", [
    ld.Mat2.identity(),
    ld.rotation(0.3),
    ld.rotation(2.0),
    ld.Mat2(0.0, -1.0, 1.0, 0.0),
    ld.Mat2.from_array(ld.iwasawa_matrix(0.4, 1.5, 0.9)[0]),
])
def test_reduced_basis_is_used_as_given(basis):
    shift = (CBRT4, -7.25)
    got_basis, got_shift = _reduced(basis, shift)
    assert got_basis is basis and got_shift is shift


@pytest.mark.parametrize("shift, same_as", [
    ((1e17, 0.25), (0.0, 0.25)),
    ((2.0**60, 0.5), (0.0, 0.5)),
    ((0.3, -(2.0**53)), (0.3, 0.0)),
    ((-1e300, 1e17), (0.0, 0.0)),
])
@pytest.mark.parametrize("shape", [ld.Annulus(0.0), ld.Annulus(0.5), ld.Square()])
def test_huge_shift_components_are_integers_mod_1(shift, same_as, shape):
    # a float of 2^53 or more is an integer, so Z^2 + shift is Z^2 + same_as
    got = ld.enumerate_points(ld.AffineLatticeSpec(ld.Mat2.identity(), shift), shape, 3.0)
    want = ld.enumerate_points(ld.AffineLatticeSpec(ld.Mat2.identity(), same_as), shape, 3.0)
    assert got.tobytes() == want.tobytes()
    if shift == (1e17, 0.25) and shape == ld.Annulus(0.0):
        assert len(got) == 26


def test_reduction_is_exact_on_a_huge_shear():
    # gamma = [[1, 0], [-1e7, 1]]: basis I, shift (xi1 + 1e7 xi2, xi2) mod 1, exactly
    basis, shift = _reduced(ld.Mat2(1.0, 0.0, 1e7, 1.0), (0.1, CBRT2))
    assert basis == ld.Mat2(1.0, 0.0, 0.0, 1.0)
    want = Fraction(0.1) + 10**7 * Fraction(CBRT2)
    assert shift == (float(want - round(want)), CBRT2 - 1.0)


def test_expected_count_values():
    assert ld.expected_count(ld.Annulus(0.0), 1000.0) == pytest.approx(math.pi * 1e6)
    assert ld.expected_count(ld.Annulus(0.5), 100.0) == pytest.approx(math.pi * 0.75 * 1e4)
    assert ld.expected_count(ld.Annulus(0.0), 1.0) == pytest.approx(math.pi)
    assert ld.expected_count(ld.Square(), 10.0) == 400.0


def test_brute_points_keeps_tiny_nonzero_point():
    # |y|^2 underflows to 0 for y = (0, 9.7e-170); the point is still nonzero
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.0, 9.7e-170))
    got = ld.enumerate_points(lat, ld.Square(), 1.01)
    want = brute_points(lat, ld.Square(), 1.01, 3)
    assert len(got) == len(want) == 9
    assert np.array_equal(np.sort(got.view(complex).ravel()), np.sort(want.view(complex).ravel()))


def test_punctured_disc_keeps_tiny_nonzero_point():
    # same point in the disc |y| < 1.01: it and its four unit neighbours
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.0, 9.7e-170))
    got = ld.enumerate_points(lat, ld.Annulus(0.0), 1.01)
    want = brute_points(lat, ld.Annulus(0.0), 1.01, 3)
    assert len(got) == len(want) == 5
    assert np.array_equal(np.sort(got.view(complex).ravel()), np.sort(want.view(complex).ravel()))


def test_counts_match_brute_force_small_T():
    rng = np.random.default_rng(5)
    lat0 = ld.AffineLatticeSpec(ld.Mat2.identity())
    for T in (2.5, 7.0, 13.2, 26.0, 50.0):
        got = len(ld.enumerate_points(lat0, ld.Annulus(0.0), T))
        want = len(brute_points(lat0, ld.Annulus(0.0), T, int(T) + 1))
        assert got == want
    # general bases, both shapes, random shifts
    for _ in range(25):
        u, v, phi = rng.uniform(-1.5, 1.5), rng.uniform(0.3, 3.0), rng.uniform(0, 2 * np.pi)
        B = ld.iwasawa_matrix(u, v, phi)[0]
        lat = ld.AffineLatticeSpec(ld.Mat2.from_array(B), tuple(rng.uniform(-1, 1, 2)))
        shape = ld.Annulus(float(rng.choice([0.0, 0.4, 0.8]))) if rng.random() < 0.7 else ld.Square()
        T = float(rng.uniform(2, 12))
        got = np.sort(ld.enumerate_points(lat, shape, T).view(complex).ravel())
        want = np.sort(brute_points(lat, shape, T, 80).view(complex).ravel())
        assert got.shape == want.shape
        assert np.allclose(got, want)


def test_count_asymptotics():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    for T in (200.0, 500.0, 1000.0):
        n = len(ld.enumerate_points(lat, ld.Annulus(0.0), T))
        assert abs(n / ld.expected_count(ld.Annulus(0.0), T) - 1.0) <= 10.0 / T


def test_rotation_equivariance():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7))
    shape = ld.Annulus(0.0)
    base = ld.directions(ld.enumerate_points(lat, shape, 40.0), 40.0, shape)
    for theta in (0.3, 0.77, 2.0):
        rot = ld.AffineLatticeSpec(lat.basis @ ld.rotation(theta), lat.shift)
        got = ld.directions(ld.enumerate_points(rot, shape, 40.0), 40.0, shape)
        # right-multiplying the basis by k(theta) turns every angle by -theta
        assert circular_match(base.alphas - theta / (2 * math.pi), got.alphas, 1e-12) < 1e-12


def test_uniform_distribution(dirs_1000):
    d = dirs_1000
    for lo, hi in ((0.0, 0.05), (0.3, 0.5), (0.77, 1.0), (0.111, 0.913)):
        frac = np.mean((d.alphas >= lo) & (d.alphas < hi))
        assert abs(frac - (hi - lo)) <= 0.01


def test_rho_square_values_and_integrals():
    assert ld.rho_square(0.0) == pytest.approx(math.pi / 4, rel=1e-14)
    assert ld.rho_square(0.125) == pytest.approx(math.pi / 2, rel=1e-12)
    assert ld.rho_square(0.375) == pytest.approx(math.pi / 2, rel=1e-12)
    grid = (np.arange(400_000) + 0.5) / 400_000
    vals = ld.rho_square(grid)
    assert np.mean(vals) == pytest.approx(1.0, abs=1e-6)
    assert np.mean(vals**2) == pytest.approx(math.pi / 3, abs=1e-4)


def test_direction_set_validation():
    with pytest.raises(ld.InvalidInputError):
        ld.DirectionSet(np.array([0.5, 0.2]), 1.0, ld.Annulus(0.0))
    with pytest.raises(ld.InvalidInputError):
        ld.DirectionSet(np.array([0.5, 1.2]), 1.0, ld.Annulus(0.0))


@pytest.mark.parametrize("at", [1, ld.strips.CHUNK - 1, ld.strips.CHUNK, 2 * ld.strips.CHUNK + 1])
def test_direction_set_order_checked_across_slices(at):
    # the order check runs slice by slice; a descent on either side of a slice edge is still seen
    a = np.linspace(0.0, 0.5, 2 * ld.strips.CHUNK + 3)
    ld.DirectionSet(a, 1.0, ld.Annulus(0.0))
    a[at - 1], a[at] = a[at], a[at - 1]
    with pytest.raises(ld.InvalidInputError):
        ld.DirectionSet(a, 1.0, ld.Annulus(0.0))


def test_annulus_ratio_validation():
    with pytest.raises(ld.InvalidInputError):
        ld.Annulus(1.0)


def test_lattice_from_json():
    spec = {
        "basis": [[1, 0], [0, 1]],
        "shift": [0.5, 0.5],
        "shape": {"annulus": 0.25},
        "T": 12.5,
    }
    lat, shape, T = ld.lattice_from_json(json.dumps(spec))
    assert lat.shift == (0.5, 0.5)
    assert isinstance(shape, ld.Annulus) and shape.c == 0.25
    assert T == 12.5
    lat, shape, T = ld.lattice_from_json(json.dumps({"basis": [[1, 0], [0, 1]], "shape": "square", "T": 3}))
    assert isinstance(shape, ld.Square)
    with pytest.raises(ld.InvalidInputError):
        ld.lattice_from_json("{bad json")
    with pytest.raises(ld.InvalidInputError):
        ld.lattice_from_json(json.dumps({"basis": [[2, 0], [0, 1]], "shape": "square", "T": 3}))
