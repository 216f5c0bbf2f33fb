"""Property tests for the SL(2, Z) reduction behind ``latdir.escape``.

``cusp_window_sum`` proposes four rows per node, +-(c, d) and +-(a, b) of the
matrix that reduces tau' = M . tau to the standard fundamental domain.
Its sums must equal, bit for bit, the ellipse reference that scans every
coprime row c^2 v'^2 + (c u' + d)^2 <= v'/R, for random M, xi, R in
[1, 64], v' in [1e-9, 3] and every coset filter, including nodes on
|tau'| = 1 and at tau' = i + k, where R = 1 is an exact tie.
"""

import math
import signal

import numpy as np
import pytest

import latdir as ld
from latdir import escape

from oracles import ellipse_cusp_sums

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

S = np.array([[0, -1], [1, 0]])


def _word(draw, length):
    """An integer matrix of SL(2, Z) as a word in S and powers of T."""
    g = np.eye(2, dtype=np.int64)
    for k in draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length)):
        g = g @ (S if k == 0 else np.array([[1, k], [0, 1]]))
    return g


def _boundary_points(draw, count):
    """Points on |tau| = 1 (the arc of F and its translates), i + k and rho + k, and images of i."""
    out = []
    for kind in draw(st.lists(st.sampled_from(["arc", "i", "rho", "orbit"]), min_size=count, max_size=count)):
        k = draw(st.integers(-2, 2))
        if kind == "arc":
            theta = draw(st.floats(math.pi / 3, 2 * math.pi / 3))
            out.append(complex(math.cos(theta) + k, math.sin(theta)))
        elif kind == "i":
            out.append(complex(k, 1.0))
        elif kind == "rho":
            out.append(complex(k + 0.5, math.sqrt(3) / 2))
        else:
            g = _word(draw, draw(st.integers(1, 6)))
            out.append((int(g[0, 0]) * 1j + int(g[0, 1])) / (int(g[1, 0]) * 1j + int(g[1, 1])))
    return [t for t in out if t.imag > 0]


@st.composite
def cusp_cases(draw):
    """M, xi, a spec, a coset filter and nodes tau whose images tau' = M . tau have v' in [1e-9, 3].

    With M = I the nodes are the points tau' themselves, so the boundary
    and tie points are exact; with a random M they are pulled back
    through M^-1 and land within rounding of the chosen tau'.
    """
    identity = draw(st.booleans())
    if identity:
        M = ld.Mat2.identity()
    else:
        shear = ld.Mat2(1.0, draw(st.floats(-1, 1)), 0.0, 1.0)
        M = ld.Mat2.from_array(_word(draw, draw(st.integers(1, 5))).astype(float)) @ shear
    xi = (draw(st.floats(-1, 2)), draw(st.floats(-1, 2)))
    R = draw(st.one_of(st.just(1.0), st.just(1.0 + 1e-12), st.floats(1.0, 64.0)))
    spec = ld.CuspSpec(draw(st.floats(0, 2)), R, draw(st.floats(0.5, 2)))
    cosets = draw(st.sampled_from(escape.COSET_FILTERS))
    heights = draw(st.lists(st.floats(-9, math.log10(3)), min_size=1, max_size=12))
    targets = [complex(draw(st.floats(-3, 3)), 10.0**h) for h in heights]
    targets += _boundary_points(draw, draw(st.integers(0, 8)))
    if identity:
        return M, xi, spec, cosets, targets
    taus = [(M.d * t - M.b) / (-M.c * t + M.a) for t in targets]
    return M, xi, spec, cosets, [t for t in taus if t.imag > 0]


@settings(derandomize=True, deadline=None, max_examples=120)
@given(case=cusp_cases())
def test_reduction_equals_the_ellipse_bit_for_bit(case):
    M, xi, spec, cosets, taus = case
    got = ld.cusp_window_sum(taus, xi, M, spec, cosets)
    want = ellipse_cusp_sums(taus, xi, M, spec, cosets)
    assert got.tobytes() == want.tobytes()


class _Hang(Exception):
    pass


def _raise_hang(signum, frame):
    raise _Hang


@pytest.mark.parametrize("R", [1.0, 1.0 + 1e-12, 1.5])
def test_reduction_ends_on_boundary_nodes(R):
    # |tau'| = 1 rounds either way in floats; a flip that does not raise v is not taken,
    # so these nodes end in F instead of flipping back and forth (the alarm fails a loop
    # that never ends), and their sums equal the ellipse's
    theta = np.linspace(math.pi / 3, 2 * math.pi / 3, 401)
    taus = [complex(math.cos(t) + k, math.sin(t)) for t in theta for k in (0, 3)]
    taus += [complex(k, 1.0) for k in range(-3, 4)]  # R = 1 ties: v_g = 1.0 on +-(0, 1) and +-(1, -k)
    taus += [0.5 + 1j * math.sqrt(3) / 2, -0.5 + 1j * math.sqrt(3) / 2, 0.6 + 0.8j]
    g = np.eye(2, dtype=np.int64)
    for k in (2, -1, 0, 3, 0, -2, 1, 0, 5, 0, -1, 0, 2, 0, 1, 0, -3, 0, 1):
        g = g @ (S if k == 0 else np.array([[1, k], [0, 1]]))
        taus.append((int(g[0, 0]) * 1j + int(g[0, 1])) / (int(g[1, 0]) * 1j + int(g[1, 1])))
    taus = [t for t in taus if t.imag >= 1e-6]
    spec = ld.CuspSpec(1.0, R)
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    signal.alarm(20)
    try:
        got = ld.cusp_window_sum(taus, (0.3, 0.1), ld.Mat2.identity(), spec, "all")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got.tobytes() == ellipse_cusp_sums(taus, (0.3, 0.1), ld.Mat2.identity(), spec, "all").tobytes()
