"""Monte Carlo on the space of (affine) planar lattices.

Samples the Iwasawa coordinates (u, v, phi) of a random unimodular lattice
from the standard fundamental domain, takes the rotation's cosine and sine,
and the Siegel sums' cosines, from a table-driven kernel of IEEE basic
operations (``_sincos``), counts affine lattice points inside cone-shaped
test regions, and estimates the limiting distribution of window counts,
a ``stats.CountDistribution`` of integer sample numbers, together with its
moments, tail exponents and the classical Siegel mean-value identities.

Cone counts work on the m1-strips that cross the pull-back of the cone
polygon, whose corners are (x, 2 x a / (1 - c^2)) and (x, 2 x b / (1 - c^2))
for x in {c, 1}.  Each strip's m2 range comes in closed form from the two
x-bounds and the two slope bounds, from factors formed once per sample in
the first columns of a per-strip table and gathered only to the strips
past each sample's first; the whole table is bounded, rounded and counted
in one sweep, in place.  Where a bound lies within roundoff of an
integer, the float test of ``ConeRegion.contains`` decides that end of
the range, for every window in one call per pass, so a count is the
number of lattice points the exact filter keeps.  A zero slope
coefficient (a22 = s a21 in floats) makes that edge the level line p1 = 0;
the strips next to it are counted point by point with the same float
test.  The counter walks its samples in passes of whole samples, about
``strips.CHUNK`` strips each, so a Haar block of the sampler is usually
one pass.  A congruence coset acts on the shift, not on the matrix:
(Z^2 + p/q) gamma A is counted as (Z^2 + (p gamma mod q) / q) A, with the
shift rounded once.

A sampler call holds one workspace (``_Workspace``), sized by its largest
Haar block, that every block reuses: the draws u, v, phi, made in place
with the bits of ``Generator.uniform``; the shift rows, drawn straight
into them or looked up in a table of one shift per coset; the rows of
the Iwasawa entries; and one scratch buffer that holds a draw's
proposals and then each cone pass's factor table and pass arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import stats, strips
from .errors import CapacityError, InsufficientDataError, InvalidInputError, UnsupportedError
from .lattice import MARGIN, AffineLatticeSpec, Annulus, _check_budget, _chord, direction_stream, rotation
from .stats import CountDistribution, MCResult, as_box, window_counts

TWO_PI = 2.0 * math.pi
# s y1 <= y2 for a window's lower slope, s y1 >= y2 for its upper one
_SIDE = np.array([[1.0], [-1.0]])
V_FLOOR = math.sqrt(3.0) / 2.0
# Siegel sums drop the m1-strips whose factor exp(-v p1^2) is below 1e-16:
# exp(-r^2) < 1e-16 for r > RCUT.  Each kept strip is summed whole.
RCUT = math.sqrt(16.0 * math.log(10.0))
MOM_BLOCKS = 32
# samples per Haar block of ``siegel_average``
SIEGEL_BATCH = 50_000
# samples per sub-chunk of a Siegel batch: about 8.5k strips, so the
# per-strip arrays stay in a core's cache
SIEGEL_CHUNK = 1024


@dataclass(frozen=True)
class ConeRegion:
    """Planar region {c < x < 1, (1-c^2) y in 2x * interval}; area = |interval|.

    The x-constraints are strict and the y-interval is closed, so a point
    with y exactly on the scaled interval edge counts as inside.
    """

    c: float
    interval: tuple[float, float]

    def __post_init__(self):
        if not 0.0 <= self.c < 1.0:
            raise InvalidInputError(f"c must be in [0, 1), got {self.c}")
        a, b = float(self.interval[0]), float(self.interval[1])
        object.__setattr__(self, "interval", (a, b))
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise InvalidInputError(f"bad interval ({a}, {b})")

    @property
    def area(self) -> float:
        a, b = self.interval
        return b - a

    def contains(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return _in_cone(self.c, *self.interval, pts[:, 0], pts[:, 1])

    def shifted(self, r: float) -> "ConeRegion":
        a, b = self.interval
        return ConeRegion(self.c, (a + r, b + r))


# ---------------------------------------------------------------------------
# Haar sampling on the fundamental domain


class _Workspace:
    """The arrays of one sampler call, reused by each of its Haar blocks of up to n samples.

    ``draws`` holds the rows u, v, phi of ``haar``; ``shift`` the rows
    xi1, xi2 of a block's shift (zeros unless drawn); ``entries`` the six
    rows of ``_iwasawa_entries``.  One flat ``scratch`` buffer serves one
    step at a time: a draw's proposals, the irrational shift's raw draws,
    each cone pass's factor table and pass arrays.  So the blocks after the
    first reuse the memory of their draws and cone tables, and a cone pass
    shares its memory with the draws.
    """

    def __init__(self, n: int):
        self.draws = np.empty((3, n))
        self.shift = np.zeros((2, n))
        self.entries = np.empty((6, n))
        self._scratch = np.empty(0)

    def scratch(self, size: int) -> np.ndarray:
        """A flat float64 buffer of ``size`` values, which the next call overwrites.

        It grows to 1/32 more than asked, the old buffer freed first,
        so later blocks that need a little more do not allocate again.
        """
        if size > self._scratch.size:
            self._scratch = None
            self._scratch = np.empty(size + size // 32)
        return self._scratch[:size]

    def haar(self, rng, n: int):
        """Arrays (u, v, phi) of n fundamental-domain samples: views of ``draws``.

        u is uniform on [-1/2, 1/2]; v follows the 1/v^2 profile on
        [sqrt(3)/2, inf) by inverse CDF; proposals with u^2 + v^2 < 1 are
        rejected, which leaves exactly the normalized hyperbolic-area
        measure on the fundamental domain.  phi is uniform on [0, 2*pi).
        Each is drawn in place as ``Generator.uniform(low, high)`` draws,
        low + (high - low) r for r from ``Generator.random``: -0.5 + r,
        then r for 1 - r, then 2 pi r, with the same bits.
        """
        u, v, phi = self.draws[:, :n]
        have = 0
        while have < n:
            m = int((n - have) * 1.25) + 16
            buf = self.scratch(4 * m + -(-m // 8))
            pu, pv, t, t2 = buf[: 4 * m].reshape(4, m)
            acc = buf[4 * m :].view(bool)[:m]
            rng.random(out=pu)
            pu -= 0.5
            rng.random(out=pv)
            np.divide(V_FLOOR, np.subtract(1.0, pv, out=pv), out=pv)
            np.multiply(pu, pu, out=t)
            t += np.multiply(pv, pv, out=t2)
            keep = np.flatnonzero(np.greater_equal(t, 1.0, out=acc))[: n - have]
            np.take(pu, keep, out=u[have : have + keep.size])
            np.take(pv, keep, out=v[have : have + keep.size])
            have += keep.size
        rng.random(out=phi)
        phi *= TWO_PI
        return u, v, phi

    def torus(self, rng, n: int):
        """Rows (xi1, xi2) of n shifts uniform on the unit torus: views of ``shift``.

        ``Generator.uniform(0, 1, (n, 2))`` draws one sample's pair after the
        other, each 0 + 1 r: the draws of ``Generator.random`` themselves.
        """
        r = self.scratch(2 * n)
        rng.random(out=r)
        xi = self.shift[:, :n]
        np.copyto(xi, r.reshape(n, 2).T)
        return xi


def _haar_batch(rng, n: int):
    """Arrays (u, v, phi) of n fundamental-domain samples (``_Workspace.haar``), in a fresh workspace."""
    return _Workspace(n).haar(rng, n)


def _haar_blocks(rng, sizes, xi_class: str, p=None, q=None, ws=None):
    """Yield (u, v, phi, xi) for Haar blocks of the given sizes, in order.

    Each block is drawn from its own child of ``rng.spawn``, keyed by its
    index, so results merged over blocks do not depend on how blocks are
    scheduled.  Within a block ``_Workspace.haar`` draws first, then the
    shift by ``xi_class``, as the rows xi = (xi1, xi2) of n samples: zeros
    for "integer", uniform on the unit torus for "irrational"
    (``_Workspace.torus``), and for "rational" the shift
    (p gamma mod q) / q of a uniform congruence coset gamma
    (``coset_reps``), looked up in the table of its shifts (``_coset_table``).
    The class, p and q are checked before any stream is spawned: p and q
    are needed by the rational class and refused by the others.

    Every block is drawn into the workspace ``ws`` (a new one for the
    largest block if None): the arrays yielded are views that the next
    block overwrites, so a consumer uses them before it asks for the next.
    """
    if xi_class == "rational":
        if q is None or p is None:
            raise InvalidInputError("rational class needs p and q")
        table = _coset_table(p, q)
    elif xi_class not in ("integer", "irrational"):
        raise InvalidInputError(f"unknown xi_class {xi_class!r}")
    elif p is not None or q is not None:
        raise InvalidInputError(f"p and q fix the rational class's shift, not the {xi_class} class's")
    ws = _Workspace(max(sizes)) if ws is None else ws
    for stream, nb in zip(rng.spawn(len(sizes)), sizes):
        u, v, phi = ws.haar(stream, nb)
        xi = ws.torus(stream, nb) if xi_class == "irrational" else ws.shift[:, :nb]
        if xi_class == "rational":
            coset = stream.integers(0, table.shape[1], nb)
            for row, values in zip(xi, table):
                np.take(values, coset, out=row)
        yield u, v, phi, xi


def haar_v_cdf(v):
    """Closed-form CDF of the v-marginal of the fundamental-domain measure."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)

    def anti(w):
        # antiderivative of (1 - 2 sqrt(1-w^2)) / w^2
        return -1.0 / w + 2.0 * np.sqrt(np.maximum(1.0 - w * w, 0.0)) / w + 2.0 * np.arcsin(
            np.minimum(w, 1.0)
        )

    mid = (v > V_FLOOR) & (v <= 1.0)
    out[mid] = (3.0 / math.pi) * (anti(v[mid]) - 2.0 * math.pi / 3.0)
    top = v > 1.0
    out[top] = 1.0 - 3.0 / (math.pi * v[top])
    return out


# ``_sincos`` cuts the turn into STEPS cells of h = 2 pi / STEPS.  h = H1 + H2 + H3 to about 2^-129:
# H1 and H2 carry 32 bits each, so j H1 and j H2 are exact for |j| < 2^21, and H3 the rest
STEPS = 256
_PER_TURN = STEPS / TWO_PI
_H1, _H2, _H3 = 0.024543692605220713, 9.495469541099947e-13, 3.159791013743673e-23
# |phi| <= PHI_MAX keeps |j| below 2^21
PHI_MAX = 2.0**15
# cos(2 pi j / STEPS) for j = 0 .. STEPS / 4, each the double nearest the exact value
_QUARTER = np.array([
    1.0, 0.9996988186962042, 0.9987954562051724, 0.9972904566786902, 0.9951847266721969, 0.99247953459871,
    0.989176509964781, 0.9852776423889412, 0.9807852804032304, 0.9757021300385286, 0.970031253194544,
    0.9637760657954398, 0.9569403357322088, 0.9495281805930367, 0.9415440651830208, 0.9329927988347388,
    0.9238795325112867, 0.9142097557035307, 0.9039892931234433, 0.8932243011955153, 0.881921264348355,
    0.8700869911087115, 0.8577286100002721, 0.8448535652497071, 0.8314696123025452, 0.8175848131515837,
    0.8032075314806449, 0.7883464276266062, 0.773010453362737, 0.7572088465064846, 0.7409511253549591,
    0.7242470829514669, 0.7071067811865476, 0.6895405447370669, 0.6715589548470184, 0.6531728429537768,
    0.6343932841636455, 0.6152315905806268, 0.5956993044924334, 0.5758081914178453, 0.5555702330196022,
    0.5349976198870973, 0.5141027441932218, 0.49289819222978404, 0.47139673682599764, 0.4496113296546066,
    0.4275550934302821, 0.40524131400498986, 0.3826834323650898, 0.35989503653498817, 0.33688985339222005,
    0.31368174039889146, 0.2902846772544624, 0.26671275747489837, 0.2429801799032639, 0.2191012401568698,
    0.19509032201612828, 0.17096188876030122, 0.14673047445536175, 0.1224106751992162, 0.0980171403295606,
    0.07356456359966743, 0.049067674327418015, 0.024541228522912288, 0.0,
])
# the whole turn by symmetry, with exact sign flips (+ 0.0 turns -0.0 into 0.0): sin is cos a quarter back
_COS = np.concatenate((_QUARTER[:-1], -_QUARTER[:0:-1], -_QUARTER[:-1], _QUARTER[:0:-1])) + 0.0
_SIN = np.roll(_COS, STEPS // 4)
# (sin r - r) / r and cos r - 1 as r2 times a polynomial in r2 = r^2, highest power first
_SIN_TAYLOR = (-1.0 / 5040.0, 1.0 / 120.0, -1.0 / 6.0)
_COS_TAYLOR = (-1.0 / 720.0, 1.0 / 24.0, -0.5)


def _sincos(phi, out):
    """cos phi and sin phi for |phi| <= PHI_MAX, written to out[0] and out[1] of a (6, n) array.

    Cody-Waite reduction: j = rint(phi STEPS / 2 pi) and r = phi - j H1 -
    j H2 - j H3, where j H1 and j H2 are exact and so is phi - j H1 (both
    are multiples of 2^-59 and differ by less than 2^-6, or j = 0), so |r|
    <= pi / STEPS up to rounding.  C, S = cos, sin of 2 pi j / STEPS come
    from ``_COS`` and ``_SIN`` at j mod STEPS; sr = sin r and cm = cos r - 1
    are Taylor polynomials to r^7 and r^6, and c = C + (C cm - S sr), s = S
    + (S cm + C sr).  Only IEEE basic operations, rint, casts and takes are
    used, so the bits do not depend on the CPU or the C library.  Against
    mpmath the error is within 2 ulp, 0.3 ulp on average, and phi = 0 gives
    (1, 0) exactly.  Every step writes into the rows of ``out`` (rows 2-5
    are scratch), since a fresh temporary per step costs more than the
    arithmetic.
    """
    c, s, j, r, x, y = out
    np.multiply(phi, _PER_TURN, out=j)
    np.rint(j, out=j)
    np.subtract(phi, np.multiply(j, _H1, out=r), out=r)
    r -= np.multiply(j, _H2, out=x)
    r -= np.multiply(j, _H3, out=x)
    k = x.view(np.int64)
    np.copyto(k, j, casting="unsafe")
    k &= STEPS - 1
    np.take(_COS, k, out=c)
    np.take(_SIN, k, out=s)
    r2 = np.multiply(r, r, out=j)
    sr, cm = x, y
    for p, taylor in ((sr, _SIN_TAYLOR), (cm, _COS_TAYLOR)):  # Horner in r2, times r2
        np.multiply(r2, taylor[0], out=p)
        for a in taylor[1:]:
            p += a
            p *= r2
    sr *= r
    sr += r
    dc = np.multiply(c, cm, out=j)
    dc -= np.multiply(s, sr, out=r)
    ds = np.multiply(s, cm, out=r)
    ds += np.multiply(c, sr, out=cm)
    c += dc
    s += ds
    return c, s


def _iwasawa_entries(u, v, phi, e=None):
    """Entries (a11, a12, a21, a22) of n(u) a(v) k(phi), each an array over the samples.

    The entries are rows of one (6, n) array ``e`` (a new one if None)
    that ``_sincos`` uses first; the other rows hold sqrt(v) and u / sqrt(v).
    """
    e = np.empty((6, phi.size)) if e is None else e
    c, s = _sincos(phi, e)
    a11, a12, sv, w = e[2:]
    np.sqrt(v, out=sv)
    np.divide(u, sv, out=w)
    np.multiply(sv, c, out=a11)
    a11 += np.multiply(w, s, out=a12)
    np.negative(sv, out=a12)
    a12 *= s
    a12 += np.multiply(w, c, out=w)  # w is free from here
    return a11, a12, np.divide(s, sv, out=s), np.divide(c, sv, out=c)


def iwasawa_matrix(u, v, phi) -> np.ndarray:
    """Matrices n(u) a(v) k(phi), vectorized over the broadcast inputs: returns shape (n, 2, 2).

    Raises InvalidInputError unless u, v and phi are finite, v > 0 and
    |phi| <= PHI_MAX = 2^15, the range on which the argument reduction of
    the rotation's cosine and sine is exact (``_sincos``).
    """
    u, v, phi = (np.ravel(x) for x in np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (u, v, phi))))
    if not (np.isfinite(u).all() and np.isfinite(v).all() and np.isfinite(phi).all()):
        raise InvalidInputError("u, v and phi must be finite")
    if not (v > 0.0).all():
        raise InvalidInputError("v must be positive")
    if not (np.abs(phi) <= PHI_MAX).all():
        raise InvalidInputError(f"|phi| must be at most {PHI_MAX:g}, where the reduction is exact")
    return np.stack(_iwasawa_entries(u, v, phi), axis=-1).reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# Exact lattice-point counts in cone regions


def _cone_kernel(A, xi1, xi2, c: float, intervals, ws=None) -> np.ndarray:
    """Counts (n, m): per sample, the m in Z^2 with (m + xi) A in ConeRegion(c, I_j).

    ``A`` holds the entries (a11, a12, a21, a22) of one |det| = 1 matrix per
    sample.  The m1-strips span the pull-back of the hull polygon of the
    windows.  The slope coefficients, the strip ranges and the masks of the
    flat and zero-coefficient samples are formed once, here; the samples
    then go through ``_cone_pass`` in passes of whole samples, each cut
    where its strips reach ``strips.CHUNK`` (``strips.runs``).  Each pass
    forms its per-strip table in the scratch of the workspace ``ws`` (a new
    one if None), the memory of the draws of a sampler call.

    A zero slope coefficient k = a22 - s a21 makes its edge the level line
    p1 = 0, where the polygon's p1 range ends, and its bound a test of the
    whole strip, the sign of s e - g.  Such a sample gets one more strip at
    each end of its m1 range, so a point that rounds onto the edge from
    beyond is a candidate, and a strip whose test lies within ``tol`` of 0
    is counted point by point (see ``_cone_pass``).

    Raises CapacityError before the first pass when an m1 bound does not fit
    int64 (``strips.integer_range``) or when the strips times the windows
    pass the budget.
    """
    a11, a12, a21, a22 = A
    flat = None if a21.all() else a21 == 0.0  # y1 = e on the whole strip
    if flat is not None and np.any(flat & (a22 == 0.0)):
        raise InvalidInputError("the matrix must have |det| = 1")
    om = 1.0 - c**2
    slopes = np.array([(2.0 * a / om, 2.0 * b / om) for a, b in intervals])
    k = a22 - slopes[..., None] * a21  # (m, 2, n)
    # p1 = y1 a22 - y2 a21 is extreme at a corner (x, s x) of the hull polygon, x in {c, 1}
    ka, kb = k[np.argmin(slopes[:, 0]), 0], k[np.argmax(slopes[:, 1]), 1]
    lo, hi = np.minimum(ka, kb), np.maximum(ka, kb)
    m1lo, m1hi = strips.integer_range(np.minimum(lo, c * lo, out=lo), np.maximum(hi, c * hi, out=hi), xi1)
    del lo, hi  # freed before the passes
    zero = None if k.all() else (k == 0.0).any(axis=(0, 1))
    if zero is not None:
        m1lo[zero] -= 1
        m1hi[zero] += 1
    rows = strips.widths(m1lo, m1hi)
    _check_budget(rows.sum(dtype=float) * len(intervals), "cone strips times windows")
    out = np.zeros((len(intervals), a11.size), dtype=np.int64).T  # one contiguous column per window
    ws = _Workspace(0) if ws is None else ws
    for i, j in strips.runs(rows, strips.CHUNK):
        masks = [None if x is None or not x[i:j].any() else x[i:j] for x in (flat, zero)]
        out[i:j] = _cone_pass([a[i:j] for a in A], xi1[i:j], xi2[i:j], c, intervals, slopes, k[..., i:j],
                              m1lo[i:j], m1hi[i:j], rows[i:j], *masks, ws)
    return out


def _cone_factors(A, xi1, xi2, c: float, slopes, k, p1, m1hi, flat, f) -> None:
    """Per-sample factors of ``_cone_pass``, written to the first n columns of a table f (4 + 4m, width),
    one row each: step, x0lo, x0hi, tol, then per window the factors of its lower slope's bound as
    a lower and as an upper bound, nan where the bound has the other role, and those of its upper
    slope's bound: rows (side, role, window).  p1 = m1lo + xi1 is each sample's first strip."""
    a11, a12, a21, a22 = A
    m, n = len(slopes), a11.size
    step, x0lo, x0hi, tol = f[:4, :n]
    roles = f[4:].reshape(2, 2, m, -1)[..., :n]
    q, ks = roles[:, 1], k.transpose(1, 0, 2)  # (side, window, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the x-bounds are x0 - p1 step: x0 in {c / a21, 1 / a21}, step = a11 / a21
        r = 1.0 / a21
        np.multiply(a11, r, out=step)
        np.multiply(c, r, out=x0lo)
        np.maximum(x0lo, r, out=x0hi)
        np.minimum(x0lo, r, out=x0lo)
        if flat is not None:
            step[flat], x0lo[flat], x0hi[flat] = 0.0, -strips.LIMIT, strips.LIMIT
        # z = (1 + |xi2| + reach) (1 + max |s|) inv (|a11| + |a12| + |a21| + |a22|), with reach the
        # largest |p1| of the sample's strips and inv = 1 / |a21| + the sum of 1 / |k|, bounds the
        # size, in p2 units, of every term of a bound and of the predicate, so their rounding stays
        # below about 1e-15 z^2; tol = 1e-9 z (1 + z) is far above that and reaches 1 (every end is
        # settled) near z = 3e4
        inv = np.abs(r, out=r)
        rk = np.divide(1.0, ks)
        for t in rk.reshape(2 * m, n):
            inv += np.abs(t, out=tol)
        # q = (s a11 - a12) / k bounds p2 from below where side k > 0, from above where side k < 0
        # (side = 1 for a window's lower slope, -1 for its upper one): gate g / g is 1 in the role
        # and nan outside it, for g = max(side k, 0) and min(side k, 0); q itself goes last
        np.multiply(slopes.T[..., None], a11, out=q)
        q -= a12
        q *= rk
        gate = rk  # free from here
        for out, (gate_a, gate_b) in ((roles[:, 0], (np.fmax, np.fmin)), (q, (np.fmin, np.fmax))):
            gate_a(ks[0], 0.0, out=gate[0])
            gate_b(ks[1], 0.0, out=gate[1])
            gate /= gate
            np.multiply(q, gate, out=out)
        # reach = max(-p1, p1 of the last strip) where the sample has a strip
        reach = np.add(m1hi, xi1, out=gate[0, 0])
        np.maximum(reach, np.negative(p1, out=gate[1, 0]), out=reach)
        z = np.abs(xi2, out=tol)
        z += 1.0
        z += reach
        z *= 1.0 + np.abs(slopes).max()
        z *= inv
        size = np.abs(a11, out=inv)
        for a in (a12, a21, a22):
            size += np.abs(a, out=reach)
        z *= size
        z *= np.add(z, 1.0, out=size)
        np.minimum(np.multiply(z, 1e-9, out=z), 1.0, out=tol)


def _cone_pass(A, xi1, xi2, c: float, intervals, slopes, k, m1lo, m1hi, rows, flat, zero, ws) -> np.ndarray:
    """``_cone_kernel`` on a run of samples with m1-strips [m1lo, m1hi], ``rows`` of them: counts (n, m).

    The windows share the m1-strips and the x-bounds.  On the strip of m1,
    with p1 = m1 + xi1, e = p1 a11 and g = p1 a12, the point of p2 = m2 +
    xi2 is y = (e + a21 p2, g + a22 p2).  So c < y1 < 1 puts p2 strictly
    between (c - e) / a21 and (1 - e) / a21, and s y1 <= y2 with s = 2a /
    (1 - c^2) reads k p2 >= s e - g with k = a22 - s a21 (<= for the upper
    slope s = 2b / (1 - c^2)).  Every bound is p1 times a per-sample
    factor, plus a per-sample offset for the x-bounds; the sign of a21 or k
    fixes per sample whether it is a lower or an upper bound.  Rounding
    moves a bound by far less than ``tol``; where one lies within ``tol``
    of an integer, the float predicate of ``ConeRegion.contains`` decides
    the range end: one ``strips.settle`` call takes those ends of every
    window and strip of the pass.

    A zero coefficient k makes its bound a test of the whole strip, the
    sign of s e - g.  Where the test lies within ``tol`` of 0 (tol is 1 on
    such a sample: z is infinite), the strip is counted point by point over
    the candidate m2 range of its x-bounds, finite because a21 != 0 where
    k == 0.  ``flat`` and ``zero`` mark the samples with a21 = 0 and with a
    zero k, or are None.

    All strips are bounded in one sweep over a table of per-strip factors
    (``_cone_factors``): its first n columns, each sample's first strip,
    are formed straight from the samples, and the factors are gathered only
    to the other strips, which follow.  The table, the strips' p1 and the
    masks of the apex strips and the near-integer ends are views of the
    scratch of ``ws``; the counts (n, m) returned are too, valid until the
    scratch is used again.
    """
    a11, a12, a21, a22 = A
    n, m = a11.size, len(intervals)
    more, most = np.flatnonzero(rows > 1), np.flatnonzero(rows > 2)
    m1, s = strips.expand(m1lo[most] + 2, rows[most] - 2, most)  # the third strips and on
    m1, s = np.concatenate((m1lo[more] + 1, m1)), np.concatenate((more, s))  # the second strips first
    width = n + s.size
    buf = ws.scratch((5 + 4 * m) * width + -(-max(m, 2) * width // 8))
    p1, f = buf[:width], buf[width : (5 + 4 * m) * width].reshape(4 + 4 * m, width)
    flags = buf[(5 + 4 * m) * width :].view(bool)  # the apex strips, then the near-integer ends
    np.add(m1lo, xi1, out=p1[:n])
    np.add(m1, xi1[s], out=p1[n:])
    del m1, more, most  # freed before the table is filled
    _cone_factors(A, xi1, xi2, c, slopes, k, p1[:n], m1hi, flat, f)
    for row in f:  # row by row: 1-d takes are the fast kind (s is in range, so "wrap" never wraps)
        np.take(row[:n], s, out=row[n:], mode="wrap")
    step, x0lo, x0hi, tol = f[:4]

    def owner(j):  # the sample of each strip in j
        return np.where(j < n, j, s[np.maximum(j - n, 0)]) if s.size else j
    bound, other = np.multiply(p1, f[4:], out=f[4:]).reshape(2, 2, m, -1)  # (role, window, strip)
    lower, upper = bound
    np.fmax(lower, other[0], out=lower)  # fmax and fmin skip nan
    np.fmin(upper, other[1], out=upper)
    shift, x = other.reshape(2 * m, -1)[:2]  # other's rows are free from here
    np.multiply(p1, step, out=shift)
    np.fmax(lower, np.subtract(x0lo, shift, out=x), out=lower)
    np.fmin(upper, np.subtract(x0hi, shift, out=x), out=upper)
    if flat is not None:
        on = np.flatnonzero(flat[owner(np.arange(p1.size))])
        e = p1[on] * a11[owner(on)]
        lower[:, on[~((e > c) & (e < 1.0))]] = np.inf
    pointwise = []
    if zero is not None:
        zk = k == 0.0
        for w, b in zip(*np.nonzero(zk.any(axis=-1))):
            on = np.flatnonzero(zk[w, b, owner(np.arange(p1.size))])
            at = owner(on)
            test = _SIDE[b, 0] * (slopes[w, b] * (p1[on] * a11[at]) - p1[on] * a12[at])
            lower[w, on[test >= tol[on]]] = np.inf  # 0 >= side (s e - g) fails on the strip
            pointwise.append((w, on[np.abs(test) < tol[on]]))
    # the origin y = 0 is never inside, so on a strip through it (p1 = 0, xi2 in Z) a bound of
    # exactly 0 moves half a step: it then decides the integers without rounding
    whole = xi2 == np.rint(xi2)
    if whole.any():
        apex, hit = flags[: 2 * width].reshape(2, width)
        np.equal(p1, 0.0, out=apex)
        if not whole.all():
            apex[:n] &= whole
            apex[n:] &= whole[s]
        for end, half in zip(bound.reshape(2 * m, -1), np.repeat([0.5, -0.5], m)):  # shift is free here
            end += np.multiply(np.logical_and(apex, np.equal(end, 0.0, out=hit), out=hit), half, out=shift)
    strip_xi2 = x  # each strip's xi2
    strip_xi2[:n] = xi2
    np.take(xi2, s, out=strip_xi2[n:])
    bound -= strip_xi2
    if not -strips.LIMIT <= bound.min() <= bound.max() <= strips.LIMIT:  # NaN fails too
        np.clip(bound, -strips.LIMIT, strips.LIMIT, out=bound)
    off = np.abs(np.subtract(np.rint(bound, out=other), bound, out=other), out=other)
    near = flags[: m * width].reshape(m, width)
    np.less(np.minimum(off[0], off[1], out=off[0]), tol, out=near)  # window w on strip j is entry w W + j
    np.ceil(lower, out=lower)
    np.floor(upper, out=upper)
    on = np.flatnonzero(near)
    lo, hi = lower.reshape(-1)[on].astype(np.int64), upper.reshape(-1)[on].astype(np.int64)
    # where no end lies within tol of an integer, tol < 1, so z < 3.2e4 and every bound is below
    # 4 z in size: there upper - lower + 1 counts exactly in floats
    upper -= np.subtract(lower, 1.0, out=other[1])
    count = other[0].view(np.int64)  # other's rows are free again
    np.copyto(count, np.maximum(upper, 0.0, out=upper), casting="unsafe")
    if on.size:
        w, j = np.divmod(on, p1.size)
        at = owner(j)
        inside = partial(_inside, c, np.array(intervals)[w], p1[j], xi2[at], [a[at] for a in A])
        count.reshape(-1)[on] = strips.widths(*strips.settle(lo, hi, inside))
    for w, on in pointwise:
        at = owner(on)
        cand = np.stack((x0lo[on], x0hi[on])) - p1[on] * step[on] - xi2[at]
        np.clip(cand, -strips.LIMIT, strips.LIMIT, out=cand)
        lo, hi = np.ceil(cand[0]).astype(np.int64) - 1, np.floor(cand[1]).astype(np.int64) + 1
        count[w, on] = _count_inside(c, intervals[w], lo, hi, p1[on], xi2[at], [a[at] for a in A])
    np.multiply(count[:, :n], rows > 0, out=count[:, :n])  # a sample without strips has no first one
    for row in count:  # the other strips' counts, to their sample's first strip
        np.add.at(row, s, row[n:])
    return count[:, :n].T


def _in_cone(c: float, a, b, x, y) -> np.ndarray:
    """The test of ``ConeRegion.contains`` at the points (x, y); the window ends a, b may be arrays."""
    oy, tx = (1.0 - c**2) * y, 2.0 * x
    return (x > c) & (x < 1.0) & (oy >= tx * a) & (oy <= tx * b)


def _inside(c: float, interval, p1, xi2, A, m2) -> np.ndarray:
    """``ConeRegion(c, interval).contains`` at the points (p1, m2 + xi2) A, for an integer array m2 of
    strips; ``interval`` is one (a, b), or one per strip as an array (n, 2)."""
    a11, a12, a21, a22 = A
    p2 = m2 + xi2
    a, b = np.asarray(interval, dtype=float).T
    return _in_cone(c, a, b, p1 * a11 + p2 * a21, p1 * a12 + p2 * a22)


def _count_inside(c: float, interval, lo, hi, p1, xi2, A) -> np.ndarray:
    """Per strip, the m2 in [lo, hi] that ``_inside`` keeps, testing each one.

    Raises CapacityError when the candidates pass the budget.
    """
    width = strips.widths(lo, hi)
    _check_budget(width.sum(dtype=float), "zero-coefficient strip candidates")
    out = np.zeros(lo.size, dtype=np.int64)
    for m2, row in strips.expand_steps((lo, np.arange(lo.size)), width, (1, 0), (0.0, 0.0)):
        row = row.astype(np.int64)
        keep = _inside(c, interval, p1[row], xi2[row], [a[row] for a in A], m2)
        out += np.bincount(row[keep], minlength=lo.size)
    return out


def cone_counts(A: np.ndarray, shift: np.ndarray, region: ConeRegion) -> np.ndarray:
    """Count m in Z^2 with (m + shift) A inside the region, per sample.

    ``A`` is (n, 2, 2) with |det A| = 1, ``shift`` is (n, 2).  The m1-strips
    span the pull-back of the region's polygon, whose corners are (x, 2 x a
    / (1 - c^2)) and (x, 2 x b / (1 - c^2)) for x in {c, 1}.  On each strip
    the two x-bounds and the two slope bounds give the m2 range in closed
    form, and ``ConeRegion.contains`` -- the float test of (m + shift) A --
    decides the integers at both ends of it, so the count is the number of
    lattice points the exact filter keeps.
    """
    A, shift = _samples(A, shift)
    entries = A.reshape(-1, 4).T
    return _cone_kernel(entries, *np.ascontiguousarray(shift.T), region.c, [region.interval])[:, 0]


def _samples(A, shift):
    """``A`` as (n, 2, 2) and ``shift`` broadcast to (n, 2); InvalidInputError unless both are finite."""
    A = np.asarray(A, dtype=float).reshape(-1, 2, 2)
    shift = np.broadcast_to(np.asarray(shift, dtype=float).reshape(-1, 2), (A.shape[0], 2))
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("the matrix must be finite")
    if not np.all(np.isfinite(shift)):
        raise InvalidInputError("the shift must be finite")
    return A, shift


def _coset_shift(p, q: int, gamma) -> np.ndarray:
    """(p gamma mod q) / q for integer cosets gamma (..., 2, 2): the shift of (Z^2 + p/q) gamma."""
    pg = np.einsum("i,...ij->...j", np.asarray(p, dtype=np.int64), gamma)
    return np.mod(pg, q) / q


def _coset_table(p, q: int) -> np.ndarray:
    """Rows (xi1, xi2): the shift ``_coset_shift`` of each level-q coset, in ``coset_reps`` order."""
    return np.ascontiguousarray(_coset_shift(p, q, np.array(coset_reps(q))).T)


# ---------------------------------------------------------------------------
# Congruence coset representatives


def coset_reps(q: int) -> list[np.ndarray]:
    """Integer representatives of the level-q congruence cosets.

    Breadth-first search over words in the standard generators
    S = [[0,-1],[1,0]] and T = [[1,1],[0,1]] inside SL(2, Z/q), keeping one
    integer product per residue class.  Supported for 2 <= q <= 5.
    """
    if not 2 <= q <= 5:
        raise UnsupportedError(f"coset enumeration supports 2 <= q <= 5, got {q}")
    order = q**3
    for p in {f for f in (2, 3, 5) if q % f == 0}:
        order = order * (p * p - 1) // (p * p)
    S = np.array([[0, -1], [1, 0]], dtype=np.int64)
    Sinv = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    T = np.array([[1, 1], [0, 1]], dtype=np.int64)
    Tinv = np.array([[1, -1], [0, 1]], dtype=np.int64)
    gens = [S, Sinv, T, Tinv]
    ident = np.eye(2, dtype=np.int64)
    reps = {tuple(ident.flatten() % q): ident}
    queue = [ident]
    while queue and len(reps) < order:
        g = queue.pop(0)
        for h in gens:
            ng = g @ h
            key = tuple(ng.flatten() % q)
            if key not in reps:
                reps[key] = ng
                queue.append(ng)
    if len(reps) != order:
        raise RuntimeError(f"coset search found {len(reps)} of {order} classes")
    return list(reps.values())


# ---------------------------------------------------------------------------
# Count-distribution estimation


def sample_count_distribution(
    c: float,
    xi_class: str,
    box,
    n: int,
    rng,
    q: int | None = None,
    p=None,
    blocks: int = MOM_BLOCKS,
) -> CountDistribution:
    """Monte Carlo law of the cone-region count vector of a random lattice.

    ``xi_class`` selects the ensemble: "integer" counts the plain lattice
    (shift zero) under the Haar measure; "rational" fixes shift p/q and
    additionally draws a uniform congruence coset gamma, counted as the
    shift (p gamma mod q) / q; "irrational" draws the shift uniformly from
    the unit torus.  Sampling runs in ``blocks``
    independent substreams derived from ``rng`` (``_haar_blocks``), so the
    merged result does not depend on scheduling and heavy-tailed moments
    can use median-of-means over the same blocks.  The blocks are drawn,
    formed and counted in one workspace (``_Workspace``), made after the
    budget check for the largest block.  Each block's counts are reduced to
    its distinct rows and their numbers as soon as they are counted
    (``stats._count_table``), and the tables are merged at the end.

    CapacityError is raised before anything is drawn when the most cone
    strips the samples can need, times the windows, pass the budget.  A
    fundamental-domain sample has v >= sqrt(3) / 2 and a slope coefficient
    |k| <= (1 + s) / sqrt(v), s = 2 max |a|, |b| / (1 - c^2), so its m1
    range is at most 2.15 (1 + s) long, and holds at most 2.15 (1 + s) + 3
    strips with the two that a zero coefficient adds.
    """
    if n < 1:
        raise InvalidInputError("need at least one sample")
    box = as_box(box)
    intervals = [ConeRegion(c, iv).interval for iv in box.intervals]  # validates c and the windows
    # in Python floats an overflow is inf, which fails the check, not a RuntimeWarning
    s = 2.0 * max(abs(x) for iv in intervals for x in iv) / (1.0 - float(c) ** 2)
    _check_budget(n * len(intervals) * (2.15 * (1.0 + s) + 3.0), f"{n} samples x {len(intervals)} windows")
    blocks = min(blocks, n)
    sizes = [n // blocks + (1 if i < n % blocks else 0) for i in range(blocks)]
    ws = _Workspace(sizes[0])  # the largest block
    tables = []
    for u, v, phi, xi in _haar_blocks(rng, sizes, xi_class, p, q, ws):
        counts = _cone_kernel(_iwasawa_entries(u, v, phi, ws.entries[:, : u.size]), *xi, c, intervals, ws)
        tables.append(stats._count_table(counts)[:2])
    return stats._merge_tables(tables)


def tail_exponent(dist: CountDistribution, k_min: int, min_tail_count: int = 10) -> float:
    """Least-squares slope of log P(N >= k) against log k for k >= k_min.

    Only integers whose tail still holds at least ``min_tail_count``
    samples enter the fit (beyond that the empirical tail is noise).
    Raises InsufficientDataError with fewer than three usable points.
    """
    if dist.m != 1:
        raise InvalidInputError("tail fit needs a scalar count distribution")
    if k_min < 1:
        raise InvalidInputError("k_min must be at least 1")
    k_max = int(dist.rows[-1, 0])
    ks = np.arange(k_min, k_max + 1)
    if ks.size == 0:
        raise InsufficientDataError("no mass at or above k_min")
    surv = dist.survival(ks)
    usable = surv * dist.total >= min_tail_count
    ks, surv = ks[usable], surv[usable]
    if ks.size < 3:
        raise InsufficientDataError(f"only {ks.size} usable tail points")
    slope = np.polyfit(np.log(ks.astype(float)), np.log(surv), 1)[0]
    return float(slope)


def exact_limit_moment(powers, box) -> float | None:
    """Exact limit moment, else None: E[N] = |I|, E[N^2] = |I| + |I|^2,
    E[N1 N2] = |I1 & I2| + |I1| |I2|."""
    box = as_box(box)
    powers = [float(p) for p in powers]
    if len(powers) != box.m:
        raise InvalidInputError("need one power per interval")
    if not all(map(math.isfinite, powers)):
        raise InvalidInputError("powers must be finite")
    lengths = box.lengths
    if powers == [1.0]:
        return float(lengths[0])
    if powers == [2.0]:
        return float(lengths[0] + lengths[0] ** 2)
    if powers == [1.0, 1.0]:
        (a1, b1), (a2, b2) = box.intervals
        inter = max(0.0, min(b1, b2) - max(a1, a2))
        return float(inter + lengths[0] * lengths[1])
    return None


# ---------------------------------------------------------------------------
# Gaussian lattice sums (Siegel identities)


def disc_count(A: np.ndarray, shift: np.ndarray, r: float) -> np.ndarray:
    """Number of points (m + shift) A inside the closed disc of radius r, |det A| = 1.

    The float test y1^2 + y2^2 <= r^2 decides, with y = (m + shift) A formed
    entry by entry, y_i = p1 a_1i + p2 a_2i.  The m1-strips span the disc
    grown by ``MARGIN``, and each strip's m2 range, its chord in the disc
    (``lattice._chord``, with p1 for the cross product P x (a21, a22) as
    |det A| = 1), has both ends decided by that test (``strips.settle``);
    a strip that misses the disc keeps its centre for the test to decide.

    Raises InvalidInputError unless r >= 0 and A and the shift are finite,
    and CapacityError before any strip is formed when an m1 bound does not
    fit int64 (``strips.integer_range``) or the strips pass the budget.
    """
    if not r >= 0:  # NaN fails too
        raise InvalidInputError(f"the radius must be nonnegative, got {r!r}")
    A, shift = _samples(A, shift)
    a = A.reshape(-1, 4).T
    m1lo, m1hi = strips.ellipse_span(a[2], a[3], r * (1.0 + MARGIN), shift[:, 0])
    rows = strips.widths(m1lo, m1hi)
    _check_budget(rows.sum(dtype=float), "disc strips")
    m1, xi1, xi2, a11, a12, a21, a22 = strips.expand(m1lo, rows, shift[:, 0], shift[:, 1], *a)
    p1 = m1 + xi1
    m2lo, m2hi = strips.integer_range(*_chord(p1 * a11, p1 * a12, a21, a22, 1.0, p1, r)[:2], xi2)

    def inside(m2):
        p2 = m2 + xi2
        y1, y2 = p1 * a11 + p2 * a21, p1 * a12 + p2 * a22
        return y1 * y1 + y2 * y2 <= r * r

    return strips.totals(strips.widths(*strips.settle(m2lo, m2hi, inside)), rows)


def _gauss_sums(u, v, shift, squares: bool):
    """Per sample, the sum of exp(-|x|^2) over x = (m + shift) n(u) a(v) k(phi), |p1| <= RCUT / sqrt(v).

    |(p1, p2) n(u) a(v) k(phi)|^2 = v p1^2 + (p2 + u p1)^2 / v, so phi drops
    out and each m1-strip is exp(-v p1^2) times the sum over all m2 of
    exp(-(m2 + c)^2 / v), c = shift_2 + u p1.  By Poisson summation that sum
    is sqrt(pi v) (1 + 2 sum_k exp(-pi^2 v k^2) cos 2 pi k c), and that of
    exp(-2 (m2 + c)^2 / v) is sqrt(pi v / 2) (1 + 2 sum_k exp(-pi^2 v k^2 / 2)
    cos 2 pi k c).  For v >= V_FLOOR the terms past k = 2 (past k = 3 for the
    second) are below 2e-33 (1e-29) relative, so each strip takes one cosine
    of c mod 1 (``_sincos``) and its Chebyshev multiples.  The strips are
    summed per sample.  With ``squares`` the sums of exp(-2 |x|^2) come
    second; otherwise None.
    """
    n = u.size
    reach = RCUT / np.sqrt(v)
    m1lo, m1hi = strips.integer_range(-reach, reach, shift[:, 0])
    q = np.exp(-0.5 * math.pi**2 * v)  # exp(-pi^2 v k^2 / 2) = q^(k^2)
    m1, xi1, us, vs, c, q, sample = strips.expand(
        m1lo, strips.widths(m1lo, m1hi), shift[:, 0], u, v, shift[:, 1], q, np.arange(n)
    )
    p1 = m1 + xi1
    c += us * p1
    c -= np.floor(c)
    cos1 = _sincos(TWO_PI * c, np.empty((6, c.size)))[0]
    cos2 = 2.0 * cos1 * cos1 - 1.0
    f = np.exp(-vs * p1 * p1)
    q2 = q * q
    q4 = q2 * q2
    s = np.bincount(sample, weights=f * (1.0 + 2.0 * (q2 * cos1 + q4 * q4 * cos2)), minlength=n)
    s = s * np.sqrt(math.pi * v)  # not in place: without strips, bincount gives int64
    if not squares:
        return s, None
    cos3 = 2.0 * cos1 * cos2 - cos1
    f *= f
    s2 = np.bincount(sample, weights=f * (1.0 + 2.0 * (q * cos1 + q4 * cos2 + q4 * q4 * q * cos3)),
                     minlength=n)
    return s, s2 * np.sqrt(0.5 * math.pi * v)


def siegel_average(which: str, n: int, rng) -> MCResult:
    """Monte Carlo check of the Gaussian lattice-sum mean values.

    ``which="classic"``: the Haar average of sum_{m != 0} exp(-|m M|^2)
    equals pi.  ``which="affine_pair"``: averaging, additionally over a
    uniform torus shift, the sum over ordered pairs m1 != m2 of
    exp(-|x1|^2 - |x2|^2) at x_i = (m_i + shift) M equals pi^2, i.e.
    S^2 - S_2 with S the sum of exp(-|x|^2) and S_2 that of exp(-2 |x|^2).
    For M = n(u) a(v) k(phi) the m-sums run over the m1-strips whose
    Gaussian factor exp(-v p1^2) is 1e-16 or more, each strip's sum over m2
    taken whole in closed form, which holds for v >= V_FLOOR
    (``_gauss_sums``).  The samples come in Haar blocks of SIEGEL_BATCH
    (``_haar_blocks``), each summed in sub-chunks of SIEGEL_CHUNK samples.
    Samples past the budget raise CapacityError before anything is drawn.
    """
    if which not in ("classic", "affine_pair"):
        raise InvalidInputError(f"unknown variant {which!r}")
    if n < 2:
        raise InvalidInputError("need at least two samples")
    _check_budget(n, "samples")
    sizes = [min(SIEGEL_BATCH, n - i) for i in range(0, n, SIEGEL_BATCH)]
    xi_class = "integer" if which == "classic" else "irrational"
    vals = np.empty(n)
    done = 0
    for u, v, _, xi in _haar_blocks(rng, sizes, xi_class):  # k(phi) leaves |x| unchanged
        for i in range(0, u.size, SIEGEL_CHUNK):
            j = min(i + SIEGEL_CHUNK, u.size)
            s, s2 = _gauss_sums(u[i:j], v[i:j], xi[:, i:j].T, which == "affine_pair")
            vals[done + i : done + j] = s - 1.0 if s2 is None else s * s - s2  # classic drops m = 0
        done += u.size
    exact = math.pi if which == "classic" else math.pi**2
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n))
    return MCResult(est, se, n, exact)


# ---------------------------------------------------------------------------
# Bound checks


def crude_bound_min_T(interval, theta: float) -> float:
    """Desk-scale heuristic for the scale above which the cone bound is
    safe to assert; the bound itself is asymptotic in T."""
    reach = max(abs(interval[0]), abs(interval[1])) + theta
    return 10.0 * (1.0 + reach) / theta


def crude_bound_holds(lat: AffineLatticeSpec, alphas, T: float, interval, theta: float) -> np.ndarray:
    """Window counts at scale T bounded by padded cone counts, one bool per position.

    At each position alpha of ``alphas`` the left side counts directions in
    the shrunk window (``window_counts`` on ``direction_stream``, one call
    for all positions, which counts on reduced strips and refuses an
    empty lattice); the
    right side counts lattice points of (m + shift) M0 k(2*pi*alpha)
    diag(1/T, T) inside the c = 0 cone over the theta-padded interval
    (``cone_counts``, one call over the stacked matrices).  Requires
    T >= crude_bound_min_T(interval, theta); theta > 0.
    """
    if theta <= 0:
        raise InvalidInputError("theta must be positive")
    if T < crude_bound_min_T(interval, theta):
        raise InvalidInputError("T below the safe scale for this window padding")
    alphas = np.asarray(alphas, dtype=float)
    lhs = window_counts(direction_stream(lat, Annulus(0.0), T), interval, alphas)
    flow = np.array([[1.0 / T, 0.0], [0.0, T]])
    A = [lat.basis.array() @ rotation(TWO_PI * a).array() @ flow for a in alphas.ravel().tolist()]
    region = ConeRegion(0.0, (interval[0] - theta, interval[1] + theta))
    return lhs <= cone_counts(np.array(A), np.array(lat.shift), region).reshape(alphas.shape)


def cusp_bound_holds(u: float, v: float, phi: float, xi, r: float, sigmas=(1.5, 2.0, 2.5)) -> bool:
    """High-cusp count bound for the disc of radius r, at (m + xi) n(u) a(v) k(phi).

    For v >= 1 the number of affine lattice points in the closed disc is
    at most (2 r sqrt(v) + 1) times the number of shifted integers in
    [-r/sqrt(v), r/sqrt(v)]; for v > 4 r^2 the same holds with both sides
    raised to each sigma (the integer factor is then 0 or 1).  The shift
    xi must lie in [0, 1)^2, and ``iwasawa_matrix`` refuses |phi| > PHI_MAX.
    """
    xi = (float(xi[0]), float(xi[1]))
    if not (0.0 <= xi[0] < 1.0 and 0.0 <= xi[1] < 1.0):  # NaN and inf fail too
        raise InvalidInputError("xi components must lie in [0, 1)")
    if not v >= 1.0:
        raise InvalidInputError("cusp bound requires v >= 1")
    A = iwasawa_matrix(u, v, phi)  # disc_count refuses a negative or NaN radius
    lhs = int(disc_count(A, np.array(xi), r)[0])
    half = r / math.sqrt(v)
    n_int = int(strips.widths(*strips.integer_range(-half, half, xi[0])))
    factor = 2.0 * r * math.sqrt(v) + 1.0
    if lhs > factor * n_int:
        return False
    if v > 4.0 * r * r and r > 0:
        for sigma in sigmas:
            if float(lhs) ** sigma > factor**sigma * n_int:
                return False
    return True
