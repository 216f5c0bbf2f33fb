"""The CSV row formatter against Python's own "%.17g" and str.

``cli._write_rows`` computes the digits of "%.17g" with an exact float
two-product for values in [1e-4, 1) and hands every other value to
Python, so Python's formatting is a complete oracle: random float64 bit
patterns reach every exponent, subnormals, signed zeros, inf and nan.
Every output is also checked for the NUL padding the formatter deletes
and for blanks, which no field contains.  A chunk's "%.17g" slots are cut
at the column before which every row is NUL, so in a chunk of one decade
the bytes left to compact hold no NUL but the trailing-zero padding.
"""

import io
import math

import numpy as np
import pytest

from latdir import cli

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _ties():
    """x = j 2^-(18+z) with j odd and z zeros after the point: its 18th digit is a final 5."""
    out = set()
    for z in range(4):
        j = math.ceil(2 ** (18 + z) / 10 ** (z + 1)) | 1
        out.update((j + 2 * i) * 2.0 ** -(18 + z) for i in range(8))
    return out


def _ulp_steps(centre, k):
    """The float64 k ulps above centre (below it for k < 0)."""
    return float((np.array(centre).view(np.int64) + k).view(np.float64))


# the fast path's decade edges, where the zeros after the point and the power change
DECADE_EDGES = (1e-4, 0.001, 0.01, 0.1, 1.0)

# float64 values that stress "%.17g": every decade edge, both ends of [1e-4, 1) and
# 64 ulps around the fast path's decade edges, rounding ties, signed zeros,
# subnormals, the largest finite values, inf and nan
EDGE_FLOATS = sorted(
    _ties()
    | {_ulp_steps(c, k) for c in DECADE_EDGES for k in range(-64, 65)}
    | {float(np.nextafter(10.0**j, side)) for j in range(-20, 21) for side in (0.0, np.inf)}
    | {10.0**j for j in range(-20, 21)}
    | {0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
       1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, 0.5, 0.1,
       float(np.nextafter(1.0, 0.0)), float(np.nextafter(1e-4, 0.0)), 1e-4},
    key=str,
) + [math.nan]


def _trailing_zeros(v):
    """How many of the 17 significant digits of v "%.17g" drops as trailing zeros."""
    digits = ("%.16e" % v).partition("e")[0].replace(".", "")
    return len(digits) - len(digits.rstrip("0"))


def _one_decade(z):
    """Sorted values of [10^-(z+1), 10^-z) whose digits end in each count 0..16 of zeros, two each."""
    rng = np.random.default_rng(z)
    out = []
    for zeros in range(17):
        k = 17 - zeros  # digits up to the last nonzero one
        fit = [v for v in (float(f"{j}e-{k + z}") for j in rng.integers(10 ** (k - 1), 10**k, 200))
               if 10.0 ** -(z + 1) <= v < 10.0**-z and _trailing_zeros(v) == zeros]
        assert len(fit) >= 2, (z, zeros)
        out += fit[:2]
    return sorted(out)


# one decade per count z = 0..3 of zeros after the point: the fast path's four layouts
ONE_DECADE = {z: _one_decade(z) for z in range(4)}


def _bits_to_floats(words):
    return np.array(words, dtype=np.uint64).view(np.float64)


def _written(fmt, *columns):
    """The text ``cli._write_rows`` writes, checked to hold no NUL and no blank."""
    out = io.BytesIO()
    cli._write_rows(out, fmt, *columns)
    data = out.getvalue()
    assert b"\0" not in data and b" " not in data
    return data.decode("ascii")


def test_row_formatter_edge_values():
    x = np.array(EDGE_FLOATS)
    assert _written("{:.17g}", x) == "".join("%.17g\n" % v for v in EDGE_FLOATS)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300),
       st.lists(st.floats(1e-4, 1.0, exclude_max=True), min_size=1, max_size=300),
       st.lists(st.floats(1e-7, 1.0, exclude_max=True) | st.sampled_from(EDGE_FLOATS),
                min_size=1, max_size=300))
def test_row_formatter_matches_python(words, alphas, mixed):
    # random bit patterns hit every exponent, nan payloads and subnormals
    for x in (_bits_to_floats(words), np.array(alphas), np.array(mixed)):
        assert _written("{:.17g}", x) == "".join("%.17g\n" % v for v in x.tolist())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.builds(_ulp_steps, st.sampled_from(DECADE_EDGES), st.integers(-64, 64))
                | st.sampled_from(sorted(_ties()))
                | st.floats(1e-4, 1.0, exclude_max=True), min_size=1, max_size=300))
def test_two_product_digits_match_python(values):
    x = np.array(values)
    assert _written("{:.17g}", x) == "".join("%.17g\n" % v for v in values)


def test_slow_path_rows_in_every_layout():
    slow = np.array([-0.25, 1e300, 1.5e-7, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 0.0])
    ints = np.arange(-4, 5, dtype=np.int64) * 10**18
    assert _written("{:.17g}", slow) == "".join(f"{v:.17g}\n" for v in slow)
    assert _written("{:.17g},{},{:.17g}", slow, ints, slow[::-1]) == "".join(
        f"{a:.17g},{k},{b:.17g}\n" for a, k, b in zip(slow, ints.tolist(), slow[::-1]))
    assert _written("{},{}", ints, ints[::-1]) == "".join(
        f"{j},{k}\n" for j, k in zip(ints.tolist(), ints[::-1].tolist()))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.floats(allow_nan=True), st.integers(-2**63, 2**63 - 1),
                          st.floats(1e-4, 1.0, exclude_max=True), st.floats(0.1, 1.0, exclude_max=True)),
                min_size=1, max_size=50))
def test_row_formatter_multi_column(rows):
    # the last column lies in one decade, so its slot is cut past column 0 beside uncut ones
    a, k, b, c = (np.array(col) for col in zip(*rows))
    written = _written("{:.17g},{},{:.17g},{:.17g}", a, k.astype(np.int64), b, c)
    assert written == "".join(f"{x:.17g},{j},{y:.17g},{w:.17g}\n" for x, j, y, w in rows)


def _compacted_slots(x, monkeypatch):
    """The cut column ``_g17`` returns for each chunk of x, and the slot bytes compacted after it."""
    slots = []

    def recording(col, out):
        cut = cli._g17(col, out)
        slots.append((cut, out.view(np.uint8)[:, cut:25]))
        return cut

    monkeypatch.setitem(cli._FIELDS, "{:.17g}", recording)
    assert _written("{:.17g}", np.array(x)) == "".join("%.17g\n" % v for v in x)
    return slots


# sorted chunks of one decade, with the zeros after the point of their values: the chunk's two
# ends decide its decade, also at the ends of [1e-4, 1)
ONE_DECADE_CHUNKS = {
    **{z: (ONE_DECADE[z], z) for z in sorted(ONE_DECADE)},
    "min-1e-4": (sorted({1e-4, *ONE_DECADE[3]}), 3),
    "max-below-1": (ONE_DECADE[0] + [float(np.nextafter(1.0, 0.0))], 0),
}


@pytest.mark.parametrize("case", list(ONE_DECADE_CHUNKS))
def test_one_decade_chunk_leaves_only_trailing_zeros_to_compact(case, monkeypatch):
    x, z = ONE_DECADE_CHUNKS[case]
    ((cut, compacted),) = _compacted_slots(x, monkeypatch)
    assert cut == 5 - z
    assert compacted.shape[1] == 25 - (5 - z)  # "0.", z zeros, 17 digits and the newline
    assert np.count_nonzero(compacted == 0) == sum(map(_trailing_zeros, x))


@pytest.mark.parametrize("x, z", [([0.09999999999999999, 0.1], 1), ([0.009999999999999998, 0.01], 2)])
def test_chunk_across_a_decade_edge_decides_each_value(x, z, monkeypatch):
    # the lower end has z zeros after the point, one more than the upper end, which keeps one
    # leading NUL past the cut
    ((cut, compacted),) = _compacted_slots(x, monkeypatch)
    assert cut == 5 - z
    assert np.count_nonzero(compacted == 0) == 1 + sum(map(_trailing_zeros, x))


@pytest.mark.parametrize("slow", [0.0, 1.0, 5e-324, math.nan])
@pytest.mark.parametrize("z", sorted(ONE_DECADE))
def test_slow_value_inside_a_one_decade_chunk(z, slow, monkeypatch):
    # a slow value, a NaN too, sends the chunk to the per-value path, which cuts no column
    x = ONE_DECADE[z][:17] + [slow] + ONE_DECADE[z][17:]
    assert [cut for cut, _ in _compacted_slots(x, monkeypatch)] == [0]


def test_row_formatter_chunks_and_empty_columns(monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 7)
    x = np.random.default_rng(3).random(30) * 1e-3
    assert _written("{},{:.17g}", np.arange(30), x) == "".join(
        f"{j},{v:.17g}\n" for j, v in enumerate(x))
    # sorted runs whose chunks cross 1e-3, 1e-2 and 0.1, so the rows of one chunk differ in z
    run = sorted(_ulp_steps(c, k) for c in (1e-3, 1e-2, 0.1) for k in range(-10, 11))
    run += sorted(ONE_DECADE[3][-4:] + ONE_DECADE[2] + ONE_DECADE[1][:5] + ONE_DECADE[0][:3])
    assert _written("{:.17g}", np.array(run)) == "".join("%.17g\n" % v for v in run)
    assert _written("{:.17g}", np.empty(0)) == ""
    # many integer fields, as limit-sample writes for many windows
    k = np.array([[-2**63, 2**63 - 1, 0, 7, -1, 10**18, 3, 99]] * 5)
    assert _written(",".join(["{}"] * 8), *k.T) == "".join(
        ",".join(map(str, row)) + "\n" for row in k.tolist())
