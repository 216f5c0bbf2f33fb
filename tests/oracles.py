"""Independent brute-force references used by the tests.

Everything here recomputes results by direct enumeration or direct
summation, sharing no code path with the implementations under test.
"""

import math

import numpy as np

import latdir as ld


def brute_points(lat, shape, T, M):
    """All lattice points in the domain by scanning the full [-M, M]^2 box."""
    B = lat.basis.array()
    m1, m2 = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    p = np.stack([m1.ravel() + lat.shift[0], m2.ravel() + lat.shift[1]], 1)
    y = p @ B
    r2 = y[:, 0] ** 2 + y[:, 1] ** 2
    nonzero = (y[:, 0] != 0.0) | (y[:, 1] != 0.0)  # r2 > 0 underflows near the origin
    if isinstance(shape, ld.Annulus):
        keep = (r2 < T * T) & ((r2 > (shape.c * T) ** 2) if shape.c > 0 else nonzero)
    else:
        keep = (np.abs(y[:, 0]) < T) & (np.abs(y[:, 1]) < T) & nonzero
    return y[keep]


def brute_kept_points(basis, shift, shape, T):
    """Every point (m + shift) basis that the float domain test keeps, in (m1, m2) order.

    ``basis`` (2x2, row-major) must already be Lagrange-Gauss reduced, so
    the enumerator walks its strips as given.  The m-box holds every point
    with |y_i| <= T.  y is formed entry by entry as the enumerator forms
    it, y_i = p1 a_1i + p2 a_2i, with the term of a zero entry left out
    (adding 0.0 would turn a -0.0 into +0.0).  The test is strict:
    cT < |y| < T, or |y_1|, |y_2| < T, and c = 0 and the square drop
    y = (0, 0) by its coordinates, since |y|^2 underflows.
    """
    A = np.asarray(basis, dtype=float)
    inv = np.abs(np.linalg.inv(A))
    M1, M2 = (int(T * inv[:, j].sum() + abs(shift[j])) + 2 for j in range(2))
    m1, m2 = np.meshgrid(np.arange(-M1, M1 + 1), np.arange(-M2, M2 + 1), indexing="ij")
    p1 = m1.ravel() + shift[0]
    p2 = m2.ravel() + shift[1]

    def coordinate(a1, a2):
        if a2 == 0.0:
            return p1 * a1
        if a1 == 0.0:
            return p2 * a2
        return p1 * a1 + p2 * a2

    y1, y2 = coordinate(A[0, 0], A[1, 0]), coordinate(A[0, 1], A[1, 1])
    nonzero = (y1 != 0.0) | (y2 != 0.0)
    if isinstance(shape, ld.Annulus):
        r2 = y1 * y1 + y2 * y2
        keep = (r2 < T * T) & ((r2 > (shape.c * T) ** 2) if shape.c > 0 else nonzero)
    else:
        keep = (np.abs(y1) < T) & (np.abs(y2) < T) & nonzero
    return np.column_stack([y1[keep], y2[keep]])


def brute_turns(points):
    """Sorted direction angles in turns, arctan2 / 2 pi wrapped into [0, 1)."""
    a = np.arctan2(points[:, 1], points[:, 0]) / (2.0 * math.pi)
    a = a - np.floor(a)
    a[a >= 1.0] = 0.0  # a tiny negative angle wraps to 1.0
    return np.sort(a)


def brute_cone_count(A, shift, region, M):
    """Points of (Z^2 + shift) A in the region, scanning the [-M, M]^2 box of m.

    y = (m + shift) A is formed entry by entry, y_i = p1 a_1i + p2 a_2i, the
    rounding the cone counter promises: ``p @ A`` rounds some points of a
    simple matrix differently and can move one across a window edge.
    """
    m1, m2 = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    p1 = m1.ravel() + shift[0]
    p2 = m2.ravel() + shift[1]
    y = np.stack([p1 * A[0][0] + p2 * A[1][0], p1 * A[0][1] + p2 * A[1][1]], 1)
    return int(np.sum(region.contains(y)))


def brute_disc_count(A, shift, r, M):
    m1, m2 = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    p = np.stack([m1.ravel() + shift[0], m2.ravel() + shift[1]], 1)
    y = p @ A
    return int(np.sum(y[:, 0] ** 2 + y[:, 1] ** 2 <= r * r))


def pair_overlap_sum(dirs, I1, I2):
    """Two-window pair statistic as a direct sum of interval overlaps.

    For each ordered pair the contribution is the length of the overlap of
    the two position windows, summed with a sorted sliding scan.
    """
    a1, b1 = I1
    a2, b2 = I2
    N = dirs.N
    A = dirs.alphas
    aug = np.concatenate([A, A + 1.0])
    reach = max(abs(a1 - b2), abs(b1 - a2))

    def overlap(s):
        lo = np.maximum(a1, a2 + s)
        hi = np.minimum(b1, b2 + s)
        return np.maximum(hi - lo, 0.0)

    total = 0.0
    active = np.arange(N)
    d = 1
    while active.size and d < N:
        diff = (aug[active + d] - A[active]) * N
        near = diff <= reach
        active = active[near]
        vals = diff[near]
        total += overlap(vals).sum() + overlap(-vals).sum()
        d += 1
    return total / N


def brute_pair_integral(dirs, I1, I2, m_range=3):
    """O(N^2) version of the same statistic, for tiny direction sets."""
    N = dirs.N
    A = dirs.alphas
    total = 0.0
    for j1 in range(N):
        for j2 in range(N):
            if j1 == j2:
                continue
            for m in range(-m_range, m_range + 1):
                s = N * (A[j1] - A[j2] + m)
                lo = max(I1[0], I2[0] + s)
                hi = min(I1[1], I2[1] + s)
                total += max(hi - lo, 0.0)
    return total / N


def brute_cusp_sum(tau, xi, M, spec, cmax):
    """Cusp sum by scanning all coprime pairs |c|, |d| <= cmax."""
    from latdir.escape import XMAX

    den = M.c * tau + M.d
    taup = (M.a * tau + M.b) / den
    up, vp = taup.real, taup.imag
    total = 0.0
    for c in range(-cmax, cmax + 1):
        for d in range(-cmax, cmax + 1):
            if math.gcd(abs(c), abs(d)) != 1:
                continue
            vg = vp / ((c * up + d) ** 2 + (c * vp) ** 2)
            if vg < spec.R:
                continue
            w = d * xi[0] - c * xi[1]
            scale = math.sqrt(vg) / spec.f_width
            reach = XMAX / scale
            msum = 0.0
            for m in range(math.ceil(-w - reach), math.floor(-w + reach) + 1):
                msum += math.exp(-(((w + m) * scale) ** 2))
            total += vg**spec.beta * msum
    return total


def circular_match(a, b, tol):
    """Max distance between two sorted angle multisets on the circle."""
    a = np.sort(np.mod(a, 1.0))
    b = np.sort(np.mod(b, 1.0))
    if a.shape != b.shape:
        return np.inf
    best = np.inf
    for roll in (-1, 0, 1):
        d = np.abs(np.roll(a, roll) - b)
        d = np.minimum(d, 1.0 - d)
        best = min(best, float(d.max()))
    return best


def random_unimodular(rng, length=None):
    """Random integer unimodular matrix as a short word in the generators."""
    S = np.array([[0, -1], [1, 0]])
    T = np.array([[1, 1], [0, 1]])
    g = np.eye(2, dtype=int)
    for _ in range(int(length if length is not None else rng.integers(2, 6))):
        if rng.random() < 0.5:
            g = g @ S
        else:
            g = g @ np.linalg.matrix_power(T, int(rng.integers(-2, 3)))
    return g
