"""Cusp excursion sums and their averages along low horocycles.

The central object is a sum over cusp neighborhoods: for each coprime
bottom row (c, d), the level v_g = v' / |c tau' + d|^2 of the transformed
point enters through an indicator v_g >= R, a weight v_g^beta, and a
rapidly decaying factor f evaluated on the shifted first coordinate of the
transported torus variable.  For R >= 1 at most four rows pass the
indicator, +- the rows of the matrix that reduces tau' to the standard
fundamental domain, and the inner integer sum stops where f drops below
1e-16, so the evaluation is exact up to floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import strips
from .errors import CapacityError, InvalidInputError
from .lattice import Mat2, _check_budget

# exp(-x^2) < 1e-16 beyond this point
XMAX = math.sqrt(16.0 * math.log(10.0))

COSET_FILTERS = ("all", "identity", "inverted")

@dataclass(frozen=True)
class CuspSpec:
    """Weight exponent, cusp height cutoff and Gaussian width.

    The decay profile is fixed to f(x) = exp(-(x / f_width)^2), which is
    even, nonincreasing in |x| and satisfies f(r x) <= f(x) for r >= 1.
    """

    beta: float
    R: float
    f_width: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise InvalidInputError("beta must be finite and nonnegative")
        if not self.R >= 1.0:
            raise InvalidInputError("R must be at least 1")
        if not (math.isfinite(self.f_width) and self.f_width > 0):
            raise InvalidInputError("f_width must be finite and positive")


# The largest image height v' that is summed: r = u^2 + v^2 and |c tau' + d|^2 stay below
# 2^1001, since |c| <= 1 where v' >= 1.  The weights v_g^beta stay below 2^1000.
V_CEIL = 2.0**500


def _moebius(M: Mat2, u, v):
    """The image M . tau of tau = u + i v, bit for bit as Python complex arithmetic gives it.

    ``(M.a * tau + M.b) / (M.c * tau + M.d)`` on CPython 3.10 and 3.11: a
    float factor a is the complex (a + 0j) in a full complex product, a
    float term b is (b + 0j), and the quotient is Smith's method
    (``_Py_c_quot``), which scales by the part of the denominator that is
    larger in size, the real part on a tie.  A zero denominator, where
    Python raises ZeroDivisionError, is a CapacityError.  Returns the
    arrays u' and v'; overflow is left as inf or nan for the caller.
    """
    with np.errstate(all="ignore"):
        nr, ni = (M.a * u - 0.0 * v) + M.b, (M.a * v + 0.0 * u) + 0.0
        dr, di = (M.c * u - 0.0 * v) + M.d, (M.c * v + 0.0 * u) + 0.0
        by_real = np.abs(dr) >= np.abs(di)  # false where a part is nan: then so is the result
        if np.any(by_real & (dr == 0.0)):
            raise CapacityError("M . tau lies beyond the float range: c tau + d underflows to 0")
        ratio = np.where(by_real, di / dr, dr / di)
        denom = np.where(by_real, dr + di * ratio, dr * ratio + di)
        re = np.where(by_real, (nr + ni * ratio) / denom, (nr * ratio + ni) / denom)
        im = np.where(by_real, (ni - nr * ratio) / denom, (ni * ratio - nr) / denom)
    return re, im


def cusp_window_sum(taus, xi, M: Mat2, spec: CuspSpec, cosets: str = "all") -> np.ndarray:
    """Exact finite evaluation of the cusp excursion sum at M n(u) a(v), one per node.

    Each complex node ``tau = u + i v`` of ``taus`` fixes the horocycle
    coordinates; the Iwasawa level of the composed matrix is the Moebius
    image tau' = M . tau (``_moebius``).  Each surviving coprime pair (c, d)
    contributes v_g^beta * sum_m f((d xi_1 - c xi_2 + m) sqrt(v_g)) with
    v_g = v' / |c tau' + d|^2 >= R.  Returns the sums in the shape of
    ``taus`` (a 0-d array for one node).  ``cosets`` restricts the sum:
    "identity" keeps only the rows (0, +-1), "inverted" only (+-1, 0) --
    the leading term of the horocycle average.

    g in SL(2, Z), one per node, moves tau' = u + i v into F: a step
    translates, u <- u - rint(u), then flips, (u, v) <- (-u / r, v / r) with
    r = u^2 + v^2, where that raises the float v.  A flip starts from v < 1
    and strictly raises v; a node that does not flip keeps |u| <= 1/2 and
    stays, so the loop ends.  In F a row (c', d') with c' != 0 reaches
    v_g >= 1 only at tau' = i, row (+-1, 0), so the candidates are +-(c, d)
    and +-(a, b) of g (the same four on |tau'| = 1, however r rounds), and
    the exact v_g >= R test decides them.  A node's terms add in (c, d) order.
    Nodes past the budget raise CapacityError before the reduction; so does
    an image above ``V_CEIL``, or a weight v_g^beta above 2^1000, before
    anything overflows, and inner m-sum terms past the budget (their number
    grows with ``spec.f_width``) before they are formed.
    """
    if cosets not in COSET_FILTERS:
        raise InvalidInputError(f"cosets must be one of {COSET_FILTERS}")
    if not np.all(np.isfinite(np.asarray(xi, dtype=float))):
        raise InvalidInputError("xi must be finite")
    M.require_unimodular()  # a non-finite entry fails it too
    taus = np.asarray(taus, dtype=complex)
    if not np.all(np.isfinite(taus) & (taus.imag > 0)):
        raise InvalidInputError("tau must be a finite point of the upper half plane")
    _check_budget(taus.size, "cusp nodes")
    up, vp = _moebius(M, taus.real.ravel(), taus.imag.ravel())
    if not np.all(np.isfinite(up) & np.isfinite(vp)):
        raise CapacityError("M . tau lies beyond the float range")
    # the floor keeps g's entries below (1 + |u'|) / min(v', 1) <= 2^52, exact; NaN fails it too
    if not np.all(np.minimum(vp, 1.0) >= 2.0**-52 * (1.0 + np.abs(up))):
        raise CapacityError(f"v' = {vp.min():.3g} lies below the height floor 2^-52 (1 + |u'|)")
    if np.any(vp > V_CEIL):
        raise CapacityError(f"v' = {vp.max():.3g} lies above the height ceiling 2^500")
    g = np.tile(np.eye(2, dtype=np.int64), (vp.size, 1, 1))
    u, v = up, vp
    while True:
        n = np.rint(u)
        u = u - n
        g[:, 0] -= n.astype(np.int64)[:, None] * g[:, 1]  # T^-n
        r = u * u + v * v
        flip = v / r > v
        if not flip.any():
            break
        u = np.where(flip, -u / r, u)
        v = np.where(flip, v / r, v)
        g[flip] = g[flip, ::-1] * np.array([[-1], [1]])  # S = [[0, -1], [1, 0]]
    node = np.repeat(np.arange(vp.size), 4)
    rows = np.concatenate([g, -g], axis=1).reshape(-1, 2)
    c, d = rows[np.lexsort((rows[:, 1], rows[:, 0], node))].T
    vg = vp[node] / ((c * up[node] + d) ** 2 + (c * vp[node]) ** 2)
    keep = vg >= spec.R
    if cosets == "identity":
        keep &= c == 0
    elif cosets == "inverted":
        keep &= d == 0
    c, d, node, vg = c[keep], d[keep], node[keep], vg[keep]
    if vg.size and spec.beta * math.log2(vg.max()) > 1000.0:
        raise CapacityError(f"the weight v_g^beta = {vg.max():.3g}^{spec.beta:g} passes 2^1000")
    xi1, xi2 = float(xi[0]), float(xi[1])
    w = d * xi1 - c * xi2
    scale = np.sqrt(vg) / spec.f_width
    reach = XMAX / scale
    mlo, mhi = strips.integer_range(-reach, reach, w)
    terms = strips.widths(mlo, mhi)
    _check_budget(int(terms.sum()), "inner m-sum terms")
    mm, wm, sm, owner = strips.expand(mlo, terms, w, scale, np.arange(c.size))
    arg = (wm + mm) * sm
    msum = np.bincount(owner, weights=np.exp(-(arg**2)), minlength=c.size)
    return np.bincount(node, weights=vg**spec.beta * msum, minlength=vp.size).reshape(taus.shape)


def bump_window(u, support) -> np.ndarray:
    """Smooth bump exp(1 - 1/(1 - t^2)) on the support interval, 0 outside.

    ``t`` is the affine coordinate of u in the support (-1 at the left
    edge, +1 at the right edge).
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise InvalidInputError("support must be a nondegenerate interval")
    u = np.asarray(u, dtype=float)
    t = 2.0 * (u - lo) / (hi - lo) - 1.0
    inside = np.abs(t) < 1.0
    out = np.zeros(u.shape)
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def horocycle_escape_integral(
    M: Mat2,
    xi,
    beta: float,
    R: float,
    v: float,
    h_support,
    n_quad: int = 4096,
    f_width: float = 1.0,
    cosets: str = "all",
) -> float:
    """Midpoint quadrature of the cusp sum along the horocycle at height v.

    Integrates cusp_window_sum(u + i v) against the smooth bump supported
    on ``h_support``.  Midpoint rule is used on purpose: the integrand has
    jump sets where coset membership flips, which defeat high-order rules.
    Nodes past the budget raise CapacityError before any node array is
    allocated.
    """
    if not (math.isfinite(v) and v > 0):
        raise InvalidInputError("v must be finite and positive")
    if n_quad < 1:
        raise InvalidInputError("n_quad must be positive")
    _check_budget(n_quad, "quadrature nodes")
    lo, hi = float(h_support[0]), float(h_support[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidInputError("h_support must be a finite nondegenerate interval")
    spec = CuspSpec(beta, R, f_width)
    du = (hi - lo) / n_quad
    us = lo + (np.arange(n_quad) + 0.5) * du
    hs = bump_window(us, (lo, hi))
    live = hs != 0.0
    taus = np.empty(np.count_nonzero(live), dtype=complex)
    taus.real, taus.imag = us[live], v
    sums = cusp_window_sum(taus, xi, M, spec, cosets)
    # nodes are added one after another (cumsum), as a running total would
    total = np.cumsum(hs[live] * sums)
    return float(total[-1] if total.size else 0.0) * du
