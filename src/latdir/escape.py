"""Cusp excursion sums and their averages along low horocycles.

The central object is a sum over cusp neighborhoods: for each coprime
bottom row (c, d), the level v_g = v' / |c tau' + d|^2 of the transformed
point enters through an indicator v_g >= R, a weight v_g^beta, and a
rapidly decaying factor f evaluated on the shifted first coordinate of the
transported torus variable.  At fixed (tau, R) only finitely many (c, d)
survive the indicator (an ellipse), and the inner integer sum is truncated
where the Gaussian f drops below 1e-16, so the evaluation is exact up to
floating point.  All nodes of a horocycle average, or the one node of a
single cusp sum, go through one vectorized evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import strips
from .errors import CapacityError, InvalidInputError
from .lattice import Mat2

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
        if self.beta < 0:
            raise InvalidInputError("beta must be nonnegative")
        if self.R < 1.0:
            raise InvalidInputError("R must be at least 1")
        if self.f_width <= 0:
            raise InvalidInputError("f_width must be positive")


def _cusp_sums(taus, xi, M: Mat2, spec: CuspSpec, cosets: str) -> np.ndarray:
    """Cusp sums at M . tau for each tau of ``taus`` (Python complex Moebius maps).

    Coset candidates fill the ellipse c^2 v'^2 + (c u' + d)^2 <= v'/R by
    c-strips, widened by one on each side so the exact v_g >= R test decides
    ties.  A node's terms are added in (c, d) order (bincount): the ellipse
    has area pi / R, so at most six coprime rows, and numpy sums fewer than
    eight values in order too.  Chunks of whole nodes (~8k c-strips) stay in cache.
    """
    if cosets not in COSET_FILTERS:
        raise InvalidInputError(f"cosets must be one of {COSET_FILTERS}")
    images = [(M.a * tau + M.b) / (M.c * tau + M.d) for tau in taus]
    up = np.array([t.real for t in images])
    vp = np.array([t.imag for t in images])
    if np.any(vp <= 0):
        raise InvalidInputError("transformed point left the upper half plane")
    xi1, xi2 = float(xi[0]), float(xi[1])
    budget = vp / spec.R
    cmax = np.floor(np.sqrt(budget) / vp) + 1
    if np.any(cmax > 1 << 20):  # bounds one node's arrays and keeps int64 exact
        raise CapacityError(f"the coset ellipse at v' = {vp.min():.3g} spans over 2^21 c-strips")
    cmax = cmax.astype(np.int64)
    out = np.zeros(vp.size)
    for c, node in strips.expand_chunks(-cmax, 2 * cmax + 1, np.arange(vp.size), size=1 << 13):
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


def cusp_window_sum(
    tau: complex,
    xi,
    M: Mat2,
    spec: CuspSpec,
    cosets: str = "all",
) -> float:
    """Exact finite evaluation of the cusp excursion sum at M n(u) a(v).

    ``tau = u + i v`` fixes the horocycle coordinates; the Iwasawa level of
    the composed matrix is the Moebius image tau' = M . tau.  Each
    surviving coprime pair (c, d) contributes
    v_g^beta * sum_m f((d xi_1 - c xi_2 + m) sqrt(v_g)) with
    v_g = v' / |c tau' + d|^2 >= R.

    ``cosets`` restricts the sum: "identity" keeps only the rows (0, +-1),
    "inverted" only (+-1, 0) — the leading term of the horocycle average.
    """
    if tau.imag <= 0:
        raise InvalidInputError("tau must lie in the upper half plane")
    return float(_cusp_sums([tau], xi, M, spec, cosets)[0])


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
    """
    if v <= 0:
        raise InvalidInputError("v must be positive")
    if n_quad < 1:
        raise InvalidInputError("n_quad must be positive")
    lo, hi = float(h_support[0]), float(h_support[1])
    if not lo < hi:
        raise InvalidInputError("h_support must be a nondegenerate interval")
    spec = CuspSpec(beta, R, f_width)
    du = (hi - lo) / n_quad
    us = lo + (np.arange(n_quad) + 0.5) * du
    hs = bump_window(us, (lo, hi))
    live = hs != 0.0
    sums = _cusp_sums([complex(u, v) for u in us[live].tolist()], xi, M, spec, cosets)
    # nodes are added one after another (cumsum), as a running total would
    total = np.cumsum(hs[live] * sums)
    return float(total[-1] if total.size else 0.0) * du
