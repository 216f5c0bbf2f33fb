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
    """Points of (Z^2 + shift) A in the closed disc of radius r, scanning the [-M, M]^2 box of m.

    y = (m + shift) A is formed entry by entry, y_i = p1 a_1i + p2 a_2i, as
    the float test of ``disc_count`` forms it; ``p @ A`` rounds some points
    differently and can move one across the circle.
    """
    m1, m2 = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    p1 = m1.ravel() + shift[0]
    p2 = m2.ravel() + shift[1]
    y1, y2 = p1 * A[0][0] + p2 * A[1][0], p1 * A[0][1] + p2 * A[1][1]
    return int(np.sum(y1 * y1 + y2 * y2 <= r * r))


def histogram_spacings(dirs, k, edges):
    """Reference: every scaled spacing binned by np.histogram."""
    A, N = dirs.alphas, dirs.N
    counts, _ = np.histogram(N * (np.concatenate([A[k:], A[:k] + 1.0]) - A), bins=edges)
    total = counts.sum()
    return counts / (total * np.diff(edges)) if total > 0 else np.zeros(counts.shape)


def two_histogram_pair_correlation(dirs, edges, density=None, fold=False):
    """Reference: every neighbour pass histograms vals and -vals with np.histogram."""
    N, A = dirs.N, dirs.alphas
    aug = np.concatenate([A, A + 1.0])
    reach = max(abs(edges[0]), abs(edges[-1]))
    counts = np.zeros(edges.size - 1)
    active = np.arange(N)
    d = 1
    while active.size and d < N:
        scaled = N * (aug[active + d] - A[active])
        near = scaled <= reach  # a difference that rounds onto the outermost edge is in its bin
        active = active[near]
        vals = scaled[near]
        if vals.size:
            w = None
            if density is not None:
                w = 1.0 / (density(A[active]) * density(np.mod(aug[active + d], 1.0)))
            counts += np.histogram(vals, bins=edges, weights=w)[0] * (2.0 if fold else 1.0)
            if not fold:
                counts += np.histogram(-vals, bins=edges, weights=w)[0]
        d += 1
    return counts / (N * np.diff(edges))


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


def strip_gauss_sums(u, v, phi, shift):
    """Sums of exp(-|x|^2) and exp(-2 |x|^2), x = (m + shift) A, term by term.

    A = n(u) a(v) k(phi) is gathered whole.  The m1-strips are those that
    ``limit._gauss_sums`` keeps, |p1| <= RCUT / sqrt(v); each is scanned over
    |m2 + shift_2 + u p1| <= RCUT sqrt(v) + 1, past which every term is below
    1e-16 of the strip's largest, so the strip is summed whole, not cut at a
    disc.
    """
    from latdir.limit import RCUT

    A = ld.iwasawa_matrix(u, v, phi)
    s = np.empty(u.size)
    s2 = np.empty(u.size)
    for i in range(u.size):
        xi1, xi2 = shift[i]
        reach = RCUT / math.sqrt(v[i])
        p1 = np.arange(math.ceil(-reach - xi1), math.floor(reach - xi1) + 1) + xi1
        c = xi2 + u[i] * p1
        if not c.size:
            s[i] = s2[i] = 0.0
            continue
        half = RCUT * math.sqrt(v[i]) + 1.0
        p2 = np.arange(math.floor(-half - c.max()), math.ceil(half - c.min()) + 1) + xi2
        y = np.stack(np.broadcast_arrays(p1[:, None], p2[None, :]), -1) @ A[i]
        w = np.exp(-(y[..., 0] ** 2 + y[..., 1] ** 2))
        s[i], s2[i] = w.sum(), (w * w).sum()
    return s, s2


def ellipse_cusp_sums(taus, xi, M, spec, cosets):
    """Cusp sums at M . tau over every coprime row in the coset ellipse.

    Candidates fill c^2 v'^2 + (c u' + d)^2 <= v'/R by c-strips, each widened
    by one on both sides so the exact v_g >= R test decides ties; a gcd
    filter keeps the coprime rows.  A node's terms are added in (c, d)
    order (bincount), and the inner integer sums are formed as in
    ``latdir.escape``, so the result is the reference bit for bit.
    """
    from latdir import strips
    from latdir.escape import XMAX

    images = [(M.a * tau + M.b) / (M.c * tau + M.d) for tau in taus]
    up = np.array([t.real for t in images])
    vp = np.array([t.imag for t in images])
    xi1, xi2 = float(xi[0]), float(xi[1])
    budget = vp / spec.R
    cmax = np.floor(np.sqrt(budget) / vp) + 1
    assert np.all(cmax <= 1 << 20), "the coset ellipse spans over 2^21 c-strips"
    cmax = cmax.astype(np.int64)
    out = np.zeros(vp.size)
    nodes, strip_counts = np.arange(vp.size), 2 * cmax + 1
    for i, j in strips.runs(strip_counts, 1 << 13):
        c, node = strips.expand(-cmax[i:j], strip_counts[i:j], nodes[i:j])
        half = np.sqrt(np.maximum(budget[node] - (c * vp[node]) ** 2, 0.0))
        dlo, dhi = strips.integer_range(-half, half, c * up[node])
        d, c, node = strips.expand(dlo - 1, strips.widths(dlo - 1, dhi + 1), c, node)
        keep = np.gcd(np.abs(c), np.abs(d)) == 1
        if cosets == "identity":
            keep &= c == 0
        elif cosets == "inverted":
            keep &= d == 0
        c, d, node = c[keep], d[keep], node[keep]
        vg = vp[node] / ((c * up[node] + d) ** 2 + (c * vp[node]) ** 2)
        ok = vg >= spec.R
        c, d, node, vg = c[ok], d[ok], node[ok], vg[ok]
        w = d * xi1 - c * xi2
        scale = np.sqrt(vg) / spec.f_width
        reach = XMAX / scale
        mlo, mhi = strips.integer_range(-reach, reach, w)
        mm, wm, sm, owner = strips.expand(mlo, strips.widths(mlo, mhi), w, scale, np.arange(c.size))
        arg = (wm + mm) * sm
        msum = np.bincount(owner, weights=np.exp(-(arg**2)), minlength=c.size)
        out += np.bincount(node, weights=vg**spec.beta * msum, minlength=vp.size)
    return out


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


def merge_blocks(rows, sizes):
    """Count law of (n, m) count rows, the first sizes[0] of block 0 and so on, in one pass.

    Each column is ranked among its distinct values (``np.unique``), and
    the row classes are refined column by column (class * K_j + rank_j,
    ranked again), so class order is lexicographic row order; every row is
    then scattered into the distinct rows and the block histogram.
    """
    def rank(values):
        distinct, inverse = np.unique(values, return_inverse=True)
        return inverse.ravel(), distinct.size

    block = np.repeat(np.arange(len(sizes)), sizes)
    cls, K = rank(rows[:, 0])
    for col in rows.T[1:]:
        r, k = rank(col)
        cls, K = rank(cls * k + r)
    distinct = np.empty((K, rows.shape[1]), dtype=np.int64)
    distinct[cls] = rows
    hist = np.bincount(block * K + cls, minlength=len(sizes) * K).reshape(-1, K)
    return ld.CountDistribution(distinct, hist)


def moebius_py311(M, x, y):
    """``(M.a * tau + M.b) / (M.c * tau + M.d)`` at tau = x + iy as CPython 3.10/3.11 computes it.

    Spelled out in Python floats, one scalar at a time: a float factor is
    the complex (a + 0j) in a full complex product, a float term is
    (b + 0j), and the quotient is ``_Py_c_quot`` (Smith's method, scaled by
    the larger part of the denominator, the real part on a tie; nan when a
    part is nan).  Returns (re, im), or None where Python raises
    ZeroDivisionError.  Later interpreters may skip the 0 * y terms.
    """
    def affine(a, b):  # (a + 0j)(x + iy) + (b + 0j)
        return (a * x - 0.0 * y) + b, (a * y + 0.0 * x) + 0.0

    (nr, ni), (dr, di) = affine(M.a, M.b), affine(M.c, M.d)
    if abs(dr) >= abs(di):
        if dr == 0.0:
            return None
        ratio = di / dr
        denom = dr + di * ratio
        return (nr + ni * ratio) / denom, (ni - nr * ratio) / denom
    if abs(di) >= abs(dr):
        ratio = dr / di
        denom = dr * ratio + di
        return (nr * ratio + ni) / denom, (ni * ratio - nr) / denom
    return math.nan, math.nan


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
