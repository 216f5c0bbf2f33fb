"""Affine lattice points p = m + xi in a convex region, one m1-strip at a time.

Per integer m1, the admissible m2 form one inclusive int64 range
(``integer_range``; ``ellipse_span`` spans the m1-strips of an ellipse,
whose chords ``lattice._chord`` solves).
Counters sum the ranges (``widths``, ``totals``); enumerators expand them
into points (``expand``, and ``expand_steps`` in cache-sized pieces for rows
of points that step by one integer vector).  ``runs`` cuts the rows into
passes of whole rows of about ``CHUNK`` values.

Invariant: every consumer takes its candidates from the region grown a
little, so that no point its float predicate keeps lies outside them, and
lets that predicate decide the candidates near a boundary.  The lattice
enumerator and the window frames solve each strip twice: on the domain
grown by a small relative margin, for the candidate range, and on the
domain shrunk by it, for an interior that they narrow by one more
integer.  Every point of that certified interior passes the predicate,
so it is taken whole; the predicate runs only on the few candidates
between the two ranges and beside the inner circle or the origin.  The
cone counter and ``disc_count`` let the predicate decide the integers at
both ends of a closed-form range and the one past each (``settle``).
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError

# Solved bounds are saturated here, so hi - lo + 1 always fits in int64.
LIMIT = 2.0**61
# Values per piece of ``expand_steps``: a few float64 arrays of this length fit in cache.
CHUNK = 1 << 16
# 0.0, 1.0, ..., CHUNK - 1: the offsets that ``expand_steps`` adds to each piece, built once
_RAMP = np.arange(CHUNK, dtype=float)
_RAMP.flags.writeable = False


def integer_range(lo, hi, xi):
    """Inclusive int64 range of the integers m with lo <= m + xi <= hi, for bounds lo <= hi.

    Raises CapacityError unless every bound lies within about +-LIMIT: a
    NaN, infinite or 2^63-sized bound fails the int64 cast itself, and the
    least lower and the greatest upper integer are checked after it, which
    bounds the others since lo <= hi.  No pass over the bounds is added to
    the cast but the two integer reductions.
    """
    with np.errstate(invalid="raise"):
        try:
            lo, hi = np.asarray(lo - xi, dtype=float), np.asarray(hi - xi, dtype=float)
            lo, hi = np.ceil(lo, out=lo).astype(np.int64), np.floor(hi, out=hi).astype(np.int64)
        except FloatingPointError:
            lo = None
    if lo is None or np.size(lo) and not (np.min(lo) >= -LIMIT and np.max(hi) <= LIMIT):
        raise CapacityError("an integer range reaches past +-2^61, beyond what int64 bounds can hold")
    return lo, hi


def widths(lo, hi):
    """Number of integers in each inclusive range [lo, hi]; 0 where hi < lo."""
    w = np.asarray(hi - lo)
    w += 1
    return np.maximum(w, 0, out=w)


def expand(lo, counts, *per_row):
    """Flatten rows of consecutive integers lo_i, ..., lo_i + counts_i - 1.

    Returns the int64 values row by row, then each array of ``per_row``
    with its i-th entry repeated ``counts_i`` times.
    """
    first = np.cumsum(counts)
    np.subtract(counts, first, out=first)  # minus where each row starts in the output
    first += lo
    values = np.repeat(first, counts)
    values += np.arange(values.size, dtype=np.int64)
    return (values, *(np.repeat(v, counts) for v in per_row))


def runs(counts, size):
    """Slices (i, j) of consecutive rows that hold about ``size`` values each.

    A run is whole rows, at least one: it ends at the first row that brings
    it to ``size`` values or more.  Runs without values are skipped.
    """
    if np.sum(counts) < size:  # one run, without the cumulative sums
        if np.any(counts):
            yield 0, len(counts)
        return
    cum = np.concatenate([[0], np.cumsum(counts)])
    i = 0
    while i < len(counts):
        j = min(max(int(np.searchsorted(cum, cum[i] + size, side="left")), i + 1), len(counts))
        if cum[j] > cum[i]:
            yield i, j
        i = j


def expand_steps(first, counts, step, shift):
    """The points first_i + j step + shift, j < counts_i, of rows that share one integer step, as float64.

    ``first`` holds an int64 array, ``step`` an integer and ``shift`` a
    float per coordinate.  Yields one array per coordinate for each piece of
    at most CHUNK points, row by row; a row that crosses a piece edge is
    split there.  A piece is short enough that j step stays below 2^52,
    so each value is the integer first_i + j step, exact in float64 while
    it is below 2^52 in size, plus ``shift``, rounded once: bit for bit
    what adding ``shift`` to the int64 coordinate gives.  A coordinate of
    step 0 is shifted once per row.
    """
    end = np.cumsum(counts)
    begin = end - counts
    total = int(end[-1]) if end.size else 0
    size = min(CHUNK, 2**52 // max(1, *(abs(int(g)) for g in step)))
    # each row's value at position 0 of the ramp, first_i - begin_i step, and shifted at step 0
    base = [f - begin * g if g else f + x for f, g, x in zip(first, step, shift)]
    for a in range(0, total, size):
        b = min(a + size, total)
        i = int(np.searchsorted(end, a, side="right"))  # the row holding value a
        j = int(np.searchsorted(end, b, side="left")) + 1  # one past the row holding value b - 1
        count = np.minimum(end[i:j], b) - np.maximum(begin[i:j], a)
        pieces = []
        for v, g, x in zip(base, step, shift):
            if not g:
                pieces.append(np.repeat(v[i:j], count))
                continue
            values = np.repeat((v[i:j] + a * g).astype(float), count)
            values += _RAMP[:b - a] if g == 1 else _RAMP[:b - a] * g
            values += x
            pieces.append(values)
        yield pieces


def totals(per_value, rows):
    """Exact int64 sums of ``per_value`` over consecutive runs of lengths ``rows``, along its last axis."""
    per_value = np.asarray(per_value)
    cum = np.zeros((*per_value.shape[:-1], per_value.shape[-1] + 1), dtype=np.int64)
    np.cumsum(per_value, axis=-1, dtype=np.int64, out=cum[..., 1:])
    end = np.cumsum(rows)
    return cum.take(end, axis=-1) - cum.take(end - rows, axis=-1)


def ellipse_span(c, d, r, xi1):
    """m1-strips of |(m + xi) A| <= r, for A with |det A| = 1 and second row (c, d): |p1| <= r |(c, d)|."""
    p1max = r * np.sqrt(c**2 + d**2)
    return integer_range(-p1max, p1max, xi1)


def settle(lo, hi, inside):
    """Let the exact predicate decide both ends of each inclusive range [lo, hi].

    A closed-form range may be one integer off at an end whose bound lies
    within roundoff of an integer.  Each end moves by at most one: lo - 1
    joins where ``inside`` holds there, else lo leaves where it fails there;
    likewise hi + 1 and hi.  ``inside(m)`` evaluates the float predicate at
    an int64 array of shape (4, len(lo)).
    """
    ends = inside(np.stack([lo - 1, lo, hi, hi + 1]))
    lo = np.where(ends[0], lo - 1, np.where(ends[1], lo, lo + 1))
    hi = np.where(ends[3], hi + 1, np.where(ends[2], hi, hi - 1))
    return lo, hi
