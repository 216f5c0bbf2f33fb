import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import latdir as ld
from latdir import cli
from latdir.cli import (
    _CSV_CHUNK_ROWS,
    main,
    parse_bins,
    parse_complex_list,
    parse_real,
    parse_reals,
)
from latdir.diophantine import CBRT2, CBRT4, GOLDEN


def test_parse_real():
    assert parse_real("1.5") == 1.5
    assert parse_real("-2") == -2.0
    assert parse_real("1/2") == 0.5
    assert parse_real("-3/4") == -0.75
    assert parse_real("cbrt4") == CBRT4
    assert parse_real("-golden") == -GOLDEN


def test_parse_bins_and_complex():
    edges = parse_bins("-10:10:0.5")
    assert len(edges) == 41 and edges[0] == -10 and edges[-1] == pytest.approx(10)
    assert parse_complex_list("1,1") == [1 + 0j, 1 + 0j]
    assert parse_complex_list("0.5+0.25i") == [0.5 + 0.25j]


def test_parse_bins_reads_the_budget_at_the_call(tmp_path, capsys, monkeypatch):
    # one setattr of the budget moves the cap on --bins too; it stays an input error
    assert len(parse_bins("0:1:0.0001")) == 10_001
    monkeypatch.setattr(ld.lattice, "DEFAULT_MAX_POINTS", 5000)
    with pytest.raises(ValueError, match="10001 edges, more than 5000"):
        parse_bins("0:1:0.0001")
    out = tmp_path / "p.csv"
    assert main(["paircorr", "--T", "5", "--bins", "0:1:0.0001", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "10001 edges" in err and not out.exists()


def test_bin_spec_past_the_budget_names_a_short_count(tmp_path, capsys):
    # the edge count was printed with all its 301 digits
    out = tmp_path / "p.csv"
    assert main(["paircorr", "--T", "5", "--bins=-5:5:1e-300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "needs 1e+301 edges" in err and len(err) < 200
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["paircorr", "--xi", "1/2,1/2", "--T", "20", "--fold", "--bins=0:1e-320:1e-321"],
    ["spacings", "--xi", "1/2,1/2", "--T", "20", "--bins=0:1e-320:1e-321"],
])
def test_subnormal_bin_widths_are_an_input_error(tmp_path, argv):
    # a count over a bin 1e-321 wide is no finite density: it was written as inf, and under
    # -W error::RuntimeWarning it ended in a traceback at the division
    out = tmp_path / "h.csv"
    src = str(Path(ld.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "latdir", *argv, "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    lines = run.stderr.splitlines()
    assert run.returncode == 2 and len(lines) == 1 and "too narrow" in lines[0], run.stderr
    assert lines[0].startswith("error: ") and not out.exists()
    dirs = ld.direction_set(ld.AffineLatticeSpec(ld.Mat2.identity(), (0.5, 0.5)), ld.Annulus(0.0), 20.0)
    with pytest.raises(ld.InvalidInputError, match="too narrow"):
        ld.pair_correlation(dirs, parse_bins("0:1e-320:1e-321"), fold=True)


def test_enumerate_csv(tmp_path):
    out = tmp_path / "dirs.csv"
    rc = main(["enumerate", "--xi", "1/2,1/2", "--T", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# latdir v")
    assert "seed=none" in lines[0] and "cmd=" in lines[0]
    assert lines[1] == "alpha"
    vals = [float(x) for x in lines[2:]]
    assert len(vals) == 32
    assert vals == sorted(vals)
    assert all(0 <= v < 1 for v in vals)


def test_spec_json_input(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"basis": [[1, 0], [0, 1]], "shift": [0.5, 0.5], "shape": {"annulus": 0}, "T": 3})
    )
    out = tmp_path / "dirs.csv"
    assert main(["enumerate", "--spec-json", str(spec), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 34


def test_moments_json(tmp_path):
    out = tmp_path / "m.json"
    rc = main(
        ["moments", "--xi", "cbrt4,cbrt2", "--T", "150", "--I", "0:1", "--I", "0.5:2",
         "--s", "1,1", "--out", str(out)]
    )
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["s"] == [[1.0, 0.0], [1.0, 0.0]]
    assert obj["K"] is None and obj["shifted"] is False
    assert abs(obj["value_re"] - 2.0) < 0.5
    assert obj["value_im"] == 0.0


def test_siegel_json(tmp_path):
    out = tmp_path / "s.json"
    assert main(["siegel", "--which", "classic", "--n", "4000", "--seed", "7", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["exact"] == pytest.approx(math.pi)
    assert obj["n"] == 4000 and obj["seed"] == 7
    assert abs(obj["estimate"] - math.pi) <= 4 * obj["se"]


def test_limit_sample_csv_and_determinism(tmp_path):
    out = tmp_path / "k.csv"
    args = ["limit-sample", "--I", "0:1", "--n", "4000", "--seed", "9", "--out", str(out)]
    assert main(args) == 0
    first = out.read_text()
    assert main(args) == 0
    assert out.read_text() == first
    lines = first.splitlines()
    assert lines[1] == "k1,count"
    total = sum(int(row.split(",")[1]) for row in lines[2:])
    assert total == 4000


def test_limit_sample_rational_class(tmp_path):
    out = tmp_path / "kq.csv"
    rc = main(["limit-sample", "--xi-class", "rational", "--pq", "1,1,2", "--I", "0:1",
               "--n", "20000", "--seed", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    ks = np.array([[int(t) for t in row.split(",")] for row in lines[2:]])
    mean = (ks[:, 0] * ks[:, 1]).sum() / 20000
    assert mean == pytest.approx(1.0, abs=0.1)
    # rational class without --pq is an input error
    assert main(["limit-sample", "--xi-class", "rational", "--I", "0:1", "--n", "100"]) == 2


def test_moments_shifted_flag(tmp_path):
    out = tmp_path / "ms.json"
    rc = main(["moments", "--xi", "1/2,1/2", "--T", "40", "--I", "0:1", "--s", "1",
               "--shifted", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["shifted"] is True
    assert obj["value_re"] == pytest.approx(2.0, abs=0.2)


@pytest.mark.parametrize("flags", [
    ["--xi", "cbrt4,cbrt2", "--T", "150", "--I", "0:1", "--I", "0.5:2", "--s", "1,1"],
    ["--xi", "cbrt4,cbrt2", "--T", "120", "--I=-1:1", "--I", "0:3", "--s", "1,2", "--K", "4"],
    ["--xi", "1/2,1/3", "--T", "90", "--I", "0:1", "--s", "2", "--shifted"],
    ["--xi", "golden,sqrt2", "--T", "80", "--I", "0:1", "--I=-2:0.5", "--s", "0.5+0.25i,-1-1i",
     "--shifted"],
    ["--xi", "1/2,1/2", "--shape", "square", "--T", "70", "--I", "0:2", "--s", "1"],
    ["--xi", "1/3,1/4", "--basis", "1,0,37,1", "--shape", "annulus:0.3", "--T", "100",
     "--I", "0:1", "--I", "0.5:1e9", "--s", "1,1", "--grid", "997"],
])
def test_moments_writes_the_bytes_of_the_direction_set_path(tmp_path, flags):
    # latdir moments counts its windows from the lattice, in one sweep; the moment of the full
    # direction set, written the same way, has the same bytes
    out = tmp_path / "m.json"
    assert main(["moments", *flags, "--out", str(out)]) == 0
    args = cli.build_parser().parse_args(["moments", *flags])
    lat, shape, T = cli._lattice_from_args(args)
    exps = parse_complex_list(args.s)
    val = ld.mixed_moment(ld.direction_set(lat, shape, T), cli._box_from_args(args),
                          ld.MomentSpec(tuple(exps), cap=args.K), ld.MeasureSpec.uniform(args.grid),
                          shifted=args.shifted)
    want = tmp_path / "want.json"
    cli._write_json(str(want), {"s": [[z.real, z.imag] for z in exps], "K": args.K,
                                "value_re": val.real, "value_im": val.imag, "shifted": bool(args.shifted)})
    assert out.read_bytes() == want.read_bytes()


def test_moments_at_T_2000_without_the_direction_set(tmp_path):
    # the benchmark's moments job: 12.6M directions are 100 MB as one array, but the sweep holds
    # one sector and its pieces, with the same value
    out = tmp_path / "m.json"
    argv = ["moments", "--xi", "cbrt4,cbrt2", "--T", "2000", "--I", "0:1", "--I", "0.5:2", "--s", "1,1",
            "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out.read_text())["value_re"] == 1.906604669766512
    assert peak < 32 * 2**20


def test_moments_past_the_point_budget_exit_before_solving_strips(tmp_path):
    # N = 3.1e14 at T = 1e7: refused on its 2e7 m1-strips, before any strip is solved (at T = 1e6
    # the reduced strips of its 40,002 windows fit the budget, and the N solve is what costs)
    out = tmp_path / "m.json"
    tracemalloc.start()
    try:
        assert main(["moments", "--T", "1e7", "--I", "0:1", "--out", str(out)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--basis", "2,0,0,1", "--T", "1e6"], "determinant 1"),
    (["--basis", "2,0,0,1", "--T", "1e6", "--s", "1,1"], "determinant 1"),
    (["--T", "nan", "--s", "1,1"], "T must be finite"),
])
def test_moments_checks_the_lattice_before_the_budget_and_the_exponents(tmp_path, capsys, flags, named):
    # the lattice is checked first, as when the direction set was built before the moment
    out = tmp_path / "m.json"
    assert main(["moments", *flags, "--I", "0:1", "--out", str(out)]) == 2
    assert named in capsys.readouterr().err and not out.exists()


def test_tails_json(tmp_path):
    out = tmp_path / "t.json"
    rc = main(["tails", "--xi-class", "integer", "--I", "0:1", "--n", "100000",
               "--kmin", "4", "--seed", "2", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert -2.7 < obj["slope"] < -1.4


def test_dioph_json(tmp_path):
    out = tmp_path / "d.json"
    assert main(["dioph", "--xi", "1/2,1/2", "--exact", "--radius", "3", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["min_value"] == 0.0
    assert len(obj["argmin"]) == 3


@pytest.mark.parametrize("argv", [
    ["--xi", "1/2,1/4", "--exact", "--kappa", "400"],  # 10.0 ** 400 overflows
    ["--xi", "0.5,0.25", "--kappa", "400"],
    ["--xi", "nan,0.5"],
    ["--xi", "0.5,inf"],
])
def test_dioph_input_errors_write_nothing(tmp_path, capsys, argv):
    out = tmp_path / "d.json"
    assert main(["dioph", *argv, "--radius", "10", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_enumerate_body_matches_per_line_format(tmp_path, capsys):
    _check_enumerate_body(tmp_path, capsys, "1,0,0,1", "annulus:0", 150.0)


@pytest.mark.parametrize("basis, shape, T", [
    ("1,0,0,1", "annulus:0.5", 170.0),
    ("1,0,1000,1", "square", 130.0),  # skewed: reduced to the identity before enumerating
])
def test_enumerate_body_matches_per_line_format_other_domains(tmp_path, capsys, basis, shape, T):
    _check_enumerate_body(tmp_path, capsys, basis, shape, T)


def _check_enumerate_body(tmp_path, capsys, basis, shape, T):
    # N is above the chunk size and not a multiple of it
    lat = ld.AffineLatticeSpec(ld.Mat2(*parse_reals(basis, 4)), (CBRT4, CBRT2))
    domain = cli.parse_shape(shape)
    alphas = ld.directions(ld.enumerate_points(lat, domain, T), T, domain).alphas
    assert alphas.size > _CSV_CHUNK_ROWS and alphas.size % _CSV_CHUNK_ROWS
    want = "alpha\n" + "".join(f"{a:.17g}\n" for a in alphas)
    argv = ["enumerate", "--xi", "cbrt4,cbrt2", "--basis", basis, "--shape", shape, "--T", str(T)]
    out = tmp_path / "dirs.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text().partition("\n")[2] == want
    capsys.readouterr()
    assert main(argv) == 0
    body = capsys.readouterr().out.partition("\n")[2]
    assert body[: len(want)] == want
    assert body[len(want):].startswith(f"enumerate: N={alphas.size} ")


def test_histogram_body_matches_per_line_format(tmp_path):
    out = tmp_path / "pc.csv"
    assert main(["paircorr", "--xi", "cbrt4,cbrt2", "--T", "60", "--out", str(out)]) == 0
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    dirs = ld.directions(ld.enumerate_points(lat, ld.Annulus(0.0), 60.0), 60.0, ld.Annulus(0.0))
    hist = ld.pair_correlation(dirs, parse_bins("-10:10:0.5"))
    rows = zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.masses)
    want = "bin_lo,bin_hi,density\n" + "".join(f"{lo:.17g},{hi:.17g},{m:.17g}\n" for lo, hi, m in rows)
    assert out.read_text().partition("\n")[2] == want


def test_spacings_multi_file(tmp_path):
    out = tmp_path / "sp.csv"
    rc = main(["spacings", "--xi", "cbrt4,cbrt2", "--T", "60", "--k", "1..3", "--out", str(out)])
    assert rc == 0
    for k in (1, 2, 3):
        assert (tmp_path / f"sp_k{k:02d}.csv").exists()


def test_paircorr_negative_bins(tmp_path):
    out = tmp_path / "pc.csv"
    rc = main(["paircorr", "--xi", "cbrt4,cbrt2", "--T", "60", "--bins", "-3:3:0.5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "bin_lo,bin_hi,density"
    assert len(lines) == 2 + 12


def test_exit_codes():
    assert main(["definitely-not-a-command"]) == 2
    assert main(["enumerate", "--shape", "annulus:1.5", "--T", "10"]) == 2
    assert main(["enumerate", "--T", "1e6"]) == 3
    assert main(["singular-probe", "--xi", "1/3,1/2", "--r", "1,1", "--T-list", "50"]) == 2
    assert main(["enumerate", "--no-such-flag"]) == 2
    assert main(["limit-moments", "--I", "0:1", "--powers", "1,1", "--n", "10"]) == 2


@pytest.mark.parametrize("flags", [["--xi", "0.3,0.1", "--T", "nan"], ["--T", "inf"], ["--T=-inf"],
                                   ["--xi", "nan,0.1", "--T", "5"], ["--xi", "0.3,inf", "--T", "5"]])
def test_non_finite_scale_or_shift_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "e.csv"
    assert main(["enumerate", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["enumerate", "--T", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_spec_json_exits_2(tmp_path, capsys):
    assert main(["enumerate", "--spec-json", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("ratio", [[0.5], None, "x"])
def test_spec_json_ratio_that_is_no_number_exits_2(tmp_path, capsys, ratio):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"basis": [[1, 0], [0, 1]], "shape": {"annulus": ratio}, "T": 3}))
    out = tmp_path / "dirs.csv"
    assert main(["enumerate", "--spec-json", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad lattice JSON") and "Traceback" not in err
    assert not out.exists()


def test_threads_flag_removed():
    assert main(["enumerate", "--T", "3", "--threads", "2"]) == 2


def test_max_points_flag_removed(capsys):
    assert main(["enumerate", "--T", "3", "--max-points", "nan"]) == 2
    assert "unrecognized arguments: --max-points" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["siegel", "--n", "inf"],
    ["limit-sample", "--I", "0:1", "--n", "1e400"],
    ["limit-moments", "--I", "0:1", "--n", "nan"],
    ["tails", "--I", "0:1", "--n=-inf"],
    # a fractional count is refused, not truncated to the count below it
    ["limit-sample", "--I", "0:1", "--n", "2.9"],
    ["siegel", "--n", "0.5"],
    ["limit-moments", "--I", "0:1", "--n", "1e-3"],
])
def test_non_finite_sample_count_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert "argument --n: invalid parse_count value" in capsys.readouterr().err
    assert not out.exists()


def test_whole_counts_parse_in_any_float_spelling():
    assert [cli.parse_count(s) for s in ("100000", "1e6", "2.0", "3e0")] == [100_000, 1_000_000, 2, 3]


@pytest.mark.parametrize("argv, code", [
    (["siegel", "--n", "3e8"], 3),
    (["siegel", "--n", "1e12"], 3),
    (["moments", "--T", "10", "--I", "0:1", "--s", "nan"], 2),
    (["moments", "--T", "10", "--I", "0:1", "--s", "1+nani"], 2),
    (["limit-moments", "--I", "0:1", "--n", "1000", "--powers", "nan"], 2),
    (["limit-moments", "--I", "0:1", "--I", "0.5:2", "--n", "1000", "--powers", "1,inf"], 2),
    (["enumerate", "--xi", "0,0", "--T", "5", "--basis", "1e100,0,0,1e-100"], 3),
    (["enumerate", "--xi", "0,0", "--T", "5", "--basis", "1e-300,0,0,1e300", "--shape", "square"], 3),
    (["cusp-sum", "--basis", "0,-1e200,1e-200,0", "--v", "1e-200", "--support=-1:1", "--n-quad", "1",
      "--R", "2"], 3),
    (["cusp-sum", "--basis", "0,-1e150,1e-150,0", "--v", "1e-150", "--support=-1:1", "--n-quad", "1",
      "--R", "2"], 3),
])
def test_out_of_range_input_leaves_no_file(tmp_path, capsys, argv, code):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1+infi", "infj"])
def test_non_finite_exponent_is_named(tmp_path, capsys, value):
    out = tmp_path / "m.json"
    assert main(["moments", "--T", "10", "--I", "0:1", "--s", f"1,{value}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: exponent {value!r} must be finite\n"
    assert not out.exists()


def test_exponents_take_i_or_j(tmp_path):
    got = []
    for s in ("2-0.5i", "2-0.5j", "2-0.5I"):
        out = tmp_path / f"{s}.json"
        assert main(["moments", "--T", "10", "--I", "0:1", "--s", s, "--out", str(out)]) == 0
        got.append(json.loads(out.read_text()))
    assert got[0]["s"] == [[2.0, -0.5]] and got[0] == got[1] == got[2]


@pytest.mark.parametrize("beta", [None, "2", "11"])
def test_cusp_sum_past_the_float_range_exits_3(tmp_path, beta):
    # v' = 1e200 would overflow u^2 + v^2 and |c tau' + d|^2; v' = 1e100 with beta = 11 the weight
    v, basis = ("1e-200", "1e200,0,0,1e-200") if beta != "11" else ("1", "1e50,0,0,1e-50")
    out = tmp_path / "c.csv"
    src = str(Path(ld.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "latdir", "cusp-sum", "--basis", basis,
         "--v", v, "--support=-1:1", "--n-quad", "1", "--R", "2", *(["--beta", beta] if beta else []),
         "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 3 and run.stderr.startswith("error: ") and "Traceback" not in run.stderr
    assert not out.exists()


def test_cusp_sum_csv(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["cusp-sum", "--beta", "0.9", "--R", "2,8", "--v", "1e-3",
               "--support", "-1:1", "--n-quad", "128", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "R,v,integral"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2
    assert float(rows[0][2]) >= float(rows[1][2])


@pytest.mark.parametrize("flags", [
    ["--basis", "1,0,0,0"],
    ["--basis", "2,0,0,1"],
    ["--v", "nan"],
    ["--xi", "nan,0"],
    ["--basis", "nan,0,0,1"],
    ["--v", "inf"],
    ["--support=-inf:1"],
    ["--beta", "nan"],
    ["--R", "nan"],
])
def test_cusp_sum_invalid_input_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "c.csv"
    assert main(["cusp-sum", *flags, "--n-quad", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cusp_sum_at_small_heights(tmp_path, capsys):
    # the reduction takes a few steps per node even at v = 1e-10; 1e-300 is below the float floor
    out = tmp_path / "c.csv"
    assert main(["cusp-sum", "--R", "1,2", "--v", "1e-8,1e-10", "--n-quad", "256", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 4
    out.unlink()
    assert main(["cusp-sum", "--R", "2", "--v", "1e-300", "--n-quad", "16", "--out", str(out)]) == 3
    assert "below the height floor" in capsys.readouterr().err
    assert not out.exists()


# SHA-256 of each output body (the text after the "# latdir ..." header line
# of a CSV; the whole JSON) at small n and fixed seeds, pinned so that a
# change to sampling, merging, moments or the cusp quadrature that moves a
# single output byte fails here.
PINNED_BODIES = {
    "limit-sample-irrational": (
        ["limit-sample", "--I", "0:1", "--n", "20000", "--seed", "3"],
        "3e8f042db03308e5cb9df70a9fd8c8f542bb0c7662211fdcb22246d3e63ad7c6",
    ),
    "limit-sample-rational": (
        ["limit-sample", "--xi-class", "rational", "--pq", "1,1,3", "--I", "0:1", "--I", "0.5:2",
         "--n", "20000", "--seed", "4"],
        "d249deec934034f1e91388d0c2b1a9c36f7dd01e21925fc4871481c1d1a512d4",
    ),
    # the coset acts on the shift: pin every level the sampler supports, and a c > 0 cone
    "limit-sample-rational-q2": (
        ["limit-sample", "--xi-class", "rational", "--pq", "1,0,2", "--I", "0:1", "--I", "0.5:2",
         "--n", "20000", "--seed", "12"],
        "ee9a17834524051c09ffab859c0b3871d579973b3e6a14bb76a3fc21291f6d48",
    ),
    "limit-sample-rational-q4": (
        ["limit-sample", "--xi-class", "rational", "--pq", "1,3,4", "--I", "0:1", "--n", "20000",
         "--seed", "13"],
        "44493079fedad5bb6135249a2918f289c47d1b9244db8475f104940e0aa1f95e",
    ),
    "limit-sample-rational-q5": (
        ["limit-sample", "--xi-class", "rational", "--pq", "2,1,5", "--I", "-1:0.5", "--I", "0.25:1.25",
         "--n", "20000", "--seed", "14"],
        "9fb8095c6cbfa9784effa4adc80c0ab4d2b66c370efbc0450f21b476a5bb759a",
    ),
    "limit-sample-rational-c": (
        ["limit-sample", "--xi-class", "rational", "--pq", "1,1,3", "--c", "0.5", "--I", "0:1",
         "--I", "0.5:2", "--n", "20000", "--seed", "15"],
        "9a62d2ce6a1986d9b460a307bc3263044ad5a521d251699703eb95739b84974c",
    ),
    "limit-sample-three-windows": (
        ["limit-sample", "--xi-class", "integer", "--I", "0:1", "--I", "0.5:2", "--I", "-1:0.25",
         "--n", "5000", "--seed", "6"],
        "732c5f62379e88968822e3ebb7399110b5a5ced91c5a62c2432e41c4223c62a7",
    ),
    "limit-moments-mom": (
        ["limit-moments", "--I", "0:1", "--powers", "2", "--n", "20000", "--seed", "1"],
        "f4e6a5506b10f21ddf127c78e52aa5191dd5b4b3060eb65d9562c85f0dbe90e5",
    ),
    "limit-moments-mean": (
        ["limit-moments", "--I", "0:1", "--I", "0.5:2", "--powers", "1,1", "--n", "20000",
         "--seed", "2"],
        "3e35c540e164e79d0c9d73603cc235c2aad6f7c382e78396fa5dc25f12611f1f",
    ),
    "limit-moments-mom-two-windows": (
        ["limit-moments", "--xi-class", "integer", "--I", "0:1", "--I", "0.5:2", "--powers", "1,1",
         "--n", "20000", "--seed", "8"],
        "5557638ad71a9f1898914fee271760f1a89dd8202ffbf458bd838bd068d03b82",
    ),
    # a fractional power makes the block sums depend on their order
    "limit-moments-mom-fractional": (
        ["limit-moments", "--xi-class", "integer", "--I", "0:1", "--powers", "1.5", "--n", "20000",
         "--seed", "10"],
        "ab7861a5597c3eaafd35cf2442d75ef668841d5236bf867d18fa99b19899fcc3",
    ),
    "limit-moments-mean-fractional": (
        ["limit-moments", "--I", "0:1", "--I", "-0.5:0.5", "--powers", "0.5,0.5", "--n", "20000",
         "--seed", "11"],
        "83357fd003e36c0db0e86bdec48fc97f7aa015c32502fa5d591456e65c101594",
    ),
    "tails": (
        ["tails", "--xi-class", "integer", "--I", "0:1", "--n", "50000", "--seed", "5", "--kmin", "3"],
        "eb50967425ba6465c1d0b9ff173670f1d3955b8fb5ef5502d7f788244393a3eb",
    ),
    "cusp-sum": (
        ["cusp-sum", "--R", "2,8", "--v", "1e-2,1e-3", "--n-quad", "256"],
        "1bac164432ab5d2f7cd0a33cfa9ed60359f6dae4a2882a822c32a4f87bac2eaf",
    ),
    "cusp-sum-cbrt": (
        ["cusp-sum", "--xi", "cbrt4,cbrt2", "--beta", "0.5", "--R", "2,8", "--v", "1e-3",
         "--support=-0.5:0.5", "--n-quad", "300"],
        "7f241eb8d6a03700a77e65e18fd19c38e772f1150f04fea13f0d388e717c8e72",
    ),
    "cusp-sum-low-R": (
        ["cusp-sum", "--xi", "golden,sqrt2", "--beta", "1.3", "--R", "1,1.1", "--v", "1e-2,0.3",
         "--n-quad", "400"],
        "1f8d6519fbbe601e5dd248e5b1f2585a7b9100a56257469c516664090100bfe8",
    ),
}


@pytest.mark.parametrize("job", sorted(PINNED_BODIES))
def test_output_body_digest(job, tmp_path):
    argv, digest = PINNED_BODIES[job]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    if data.startswith(b"#"):
        data = data.partition(b"\n")[2]
    assert hashlib.sha256(data).hexdigest() == digest


def _fail_mid_write(fh, fmt, *columns):
    fh.write("0.125\n")
    raise OSError("disk full")


@pytest.mark.parametrize("earlier", [None, b"# an earlier run\nalpha\n0.5\n"])
def test_failed_write_leaves_out_untouched(tmp_path, monkeypatch, earlier):
    out = tmp_path / "dirs.csv"
    if earlier is not None:
        out.write_bytes(earlier)
    monkeypatch.setattr(cli, "_write_rows", _fail_mid_write)
    assert main(["enumerate", "--T", "3", "--out", str(out)]) == 2
    # no partial file and no leftover temporary file; an earlier --out keeps its bytes
    assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["dirs.csv"])
    if earlier is not None:
        assert out.read_bytes() == earlier


def _out_of_memory_mid_write(fh, fmt, *columns):
    fh.write("0.125\n")
    raise MemoryError()


def test_memory_error_exits_3_and_keeps_out(tmp_path, monkeypatch, capsys):
    out = tmp_path / "dirs.csv"
    earlier = b"# an earlier run\nalpha\n0.5\n"
    out.write_bytes(earlier)
    monkeypatch.setattr(cli, "_write_rows", _out_of_memory_mid_write)
    assert main(["enumerate", "--T", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory\n" and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["dirs.csv"] and out.read_bytes() == earlier


def test_python_dash_m_runs_the_cli():
    src = str(Path(ld.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "latdir", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    ok = run("--help")
    assert ok.returncode == 0 and "singular-probe" in ok.stdout
    bad = run("enumerate", "--bogus")
    assert bad.returncode == 2 and "--bogus" in bad.stderr


def _enumerate_t20_body(tmp_path):
    out = tmp_path / "dirs.csv"
    assert main(["enumerate", "--T", "20", "--out", str(out)]) == 0
    body = out.read_text().partition("\n")[2]
    assert body.startswith("alpha\n") and body.count("\n") > 1000
    return body


def _stdout_body(text):
    """The CSV body of an enumerate run on stdout: between the header and the summary line."""
    body, _, summary = text.partition("\n")[2].rstrip("\n").rpartition("\n")
    assert summary.startswith("enumerate: N=")
    return body + "\n"


def test_enumerate_on_redirected_stdout_writes_the_out_body(tmp_path):
    # a text stream with no binary buffer, as a caller capturing the output passes
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert main(["enumerate", "--T", "20"]) == 0
    assert _stdout_body(captured.getvalue()) == _enumerate_t20_body(tmp_path)


def test_enumerate_on_a_pipe_writes_the_out_body(tmp_path):
    src = str(Path(ld.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "latdir", "enumerate", "--T", "20"], env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0
    assert _stdout_body(run.stdout.decode("ascii")) == _enumerate_t20_body(tmp_path)


@pytest.mark.parametrize("xi", ["-cbrt4,cbrt2", "-golden,-sqrt2"])
def test_negative_shift_follows_a_flag_with_a_space(xi, capsys):
    assert main(["enumerate", "--xi", xi, "--T", "5"]) == 0
    spaced = capsys.readouterr().out
    assert main(["enumerate", f"--xi={xi}", "--T", "5"]) == 0
    assert spaced == capsys.readouterr().out
    assert xi != "-cbrt4,cbrt2" or "enumerate: N=81 " in spaced


def test_negative_interval_follows_a_flag_with_a_space(tmp_path):
    spaced, joined = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["moments", "--T", "30", "--s", "1"]
    assert main([*flags, "--I", "-1/2:1", "--out", str(spaced)]) == 0
    assert main([*flags, "--I=-1/2:1", "--out", str(joined)]) == 0
    assert json.loads(spaced.read_text()) == json.loads(joined.read_text())


def test_negative_infinite_scale_after_a_space_is_latdirs_error(capsys):
    assert main(["enumerate", "--T", "-inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and "expected one argument" not in err


def test_merge_keeps_flags_and_joins_values():
    merge = cli._merge_negative_values
    assert merge(["paircorr", "--fold", "--bins=-3:3:0.5"]) == ["paircorr", "--fold", "--bins=-3:3:0.5"]
    assert merge(["paircorr", "--fold", "--T", "5"]) == ["paircorr", "--fold", "--T", "5"]
    assert merge(["moments", "--I", "-1/2:1"]) == ["moments", "--I=-1/2:1"]
    assert merge(["enumerate", "--xi", "-cbrt4,cbrt2"]) == ["enumerate", "--xi=-cbrt4,cbrt2"]
    assert merge(["enumerate", "--T", "-inf"]) == ["enumerate", "--T=-inf"]
    # complex exponents are values too, as before
    assert merge(["moments", "--s", "-1+2i"]) == ["moments", "--s=-1+2i"]
    assert merge(["moments", "--s", "-h"]) == ["moments", "--s", "-h"]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--T", "1/0"],
    ["enumerate", "--xi", "1/0,0", "--T", "3"],
    ["enumerate", "--basis", "1/0,0,0,1", "--T", "3"],
    ["singular-probe", "--xi", "1/0,1/2", "--r", "1,1"],
])
def test_zero_denominator_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert "1/0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bins", ["0:inf:1", "-inf:0:1", "0:1e300:1e-300", "0:1:nan"])
def test_non_finite_bins_exit_2(tmp_path, capsys, bins):
    # (hi - lo) / step overflows to inf for the third: no whole number of steps
    out = tmp_path / "s.csv"
    assert main(["spacings", "--xi", "cbrt4,cbrt2", "--T", "20", "--k", "1", f"--bins={bins}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: bin spec ")
    assert not out.exists()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_moments_grid_past_the_budget_exits_before_the_measure_is_built(tmp_path, capsys):
    # three windows at 12.5M grid points are 6e8 values of the count law, past the 2e8 budget,
    # while the measure's own 3 values a point fit it: refused before its 300 MB grid is made
    out = tmp_path / "m.json"
    argv = ["moments", "--xi", "cbrt4,cbrt2", "--T", "20", "--I", "0:1", "--I", "0.5:2", "--I", "1:3",
            "--s", "1,1,1", "--grid", "12500000", "--out", str(out)]
    codes = []
    assert _peak_bytes(lambda: codes.append(main(argv))) < 2**20
    assert codes == [3] and not out.exists()
    assert "12500000 quadrature points" in capsys.readouterr().err


def test_huge_bin_count_exits_2_without_allocating(tmp_path, capsys):
    # 1e18 edges: checked against the point budget before any array is made
    out = tmp_path / "s.csv"
    argv = ["spacings", "--xi", "cbrt4,cbrt2", "--T", "20", "--k", "1", "--bins=0:1e12:1e-6", "--out", str(out)]
    codes = []
    assert _peak_bytes(lambda: codes.append(main(argv))) < 20e6
    assert codes == [2]
    err = capsys.readouterr().err
    assert err.startswith("error: bin spec ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["limit-sample"], ["limit-moments", "--powers", "2"], ["tails"]])
def test_huge_sample_count_exits_3_without_allocating(tmp_path, capsys, command):
    # 1e12 samples would need an 8 TB count array.  The first call of a process also pays its
    # one-time imports and caches (about 1 MB): an untraced call first leaves only this call's peak
    out = tmp_path / "out"
    argv = [*command, "--I", "0:1", "--n", "1e12", "--out", str(out)]
    codes = [main(argv)]
    peak = _peak_bytes(lambda: codes.append(main(argv)))
    assert codes == [3, 3] and peak < 1e6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_huge_node_count_exits_3_without_allocating(tmp_path, capsys):
    out = tmp_path / "c.csv"
    codes = []
    peak = _peak_bytes(lambda: codes.append(main(["cusp-sum", "--n-quad", "1000000000000", "--out", str(out)])))
    assert codes == [3] and peak < 1e6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--k", "5..2"],
    ["--k", "0..3"],
    ["--T", "1.5", "--k", "1..9"],  # N = 8
    ["--T", "1.5", "--k", "8"],
    ["--T", "1.5", "--k", "1.." + "9" * 30],
])
def test_spacings_k_is_checked_before_any_output(tmp_path, capsys, argv):
    assert main(["spacings", *argv, "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: --k ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sector", [16, 64, 512])
@pytest.mark.parametrize("lattice_flags", [
    ["--xi", "1/2,1/3", "--basis", "1,0,1000,1", "--shape", "square", "--T", "25"],
    ["--xi", "cbrt4,cbrt2", "--basis", "2,1,1,1", "--shape", "annulus:0.5", "--T", "30"],
    ["--xi", "1/2,1/2", "--T", "20"],
])
def test_stream_commands_write_the_direction_set_bytes(monkeypatch, tmp_path, sector, lattice_flags):
    # enumerate, spacings and paircorr sweep the sectors of a DirectionStream; with small sectors
    # (many of them, and pairs and spacings across most sector ends) each must write the bytes
    # that the same command writes from the whole direction set
    monkeypatch.setattr(ld.lattice, "SECTOR", sector)
    commands = [["enumerate"], ["spacings", "--k", "1..5", "--bins=0:4:0.25"],
                ["paircorr", "--bins=-3:3:0.25"], ["paircorr", "--bins=0:3:0.25", "--fold"]]
    for command in commands:
        argv = [*command, *lattice_flags, "--out", str(tmp_path / "out.csv")]
        runs = []
        for source in (ld.direction_stream, ld.direction_set):
            monkeypatch.setattr(cli, "direction_stream", source)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())})
            for p in tmp_path.iterdir():
                p.unlink()
        assert runs[0] == runs[1] and len(runs[0]) == (5 if command[0] == "spacings" else 1)


def test_stream_commands_hold_no_direction_set(tmp_path):
    # N = 3.1M at T = 1000: the direction set alone is 25 MB, and the three commands peaked at
    # 27.6 to 30.2 MiB with it; on the sector stream they hold one sector and the pieces
    flags = ["--xi", "cbrt4,cbrt2", "--T", "1000", "--out", str(tmp_path / "out.csv")]
    for command in (["enumerate"], ["spacings", "--k", "1..15"], ["paircorr", "--bins=-10:10:0.5"]):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            peak = _peak_bytes(lambda: codes.append(main([*command, *flags])))
        assert codes == [0] and peak < 12 * 2**20, (command, peak)


SAMPLING = ("limit-sample", "limit-moments", "tails", "siegel")
# a small argv that each deterministic command runs to exit 0
DETERMINISTIC = {
    "enumerate": ["--T", "2"],
    "spacings": ["--T", "3"],
    "paircorr": ["--T", "3"],
    "moments": ["--T", "3", "--I", "0:1", "--grid", "11"],
    "cusp-sum": ["--R", "2", "--v", "1e-2", "--n-quad", "16"],
    "dioph": ["--xi", "cbrt4,cbrt2", "--radius", "10"],
    "singular-probe": ["--xi", "1/2,1/2", "--r", "1,1", "--T-list", "10"],
}


def test_seed_is_an_option_of_the_sampling_commands_only(capsys):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SAMPLING) | set(DETERMINISTIC)
    for command in sub.choices:
        assert main([command, "--help"]) == 0
        assert ("--seed" in capsys.readouterr().out) == (command in SAMPLING), command


@pytest.mark.parametrize("command", sorted(DETERMINISTIC))
def test_deterministic_commands_refuse_a_seed(tmp_path, capsys, command):
    # a seed that nothing reads is refused, not written as seed=none beside the argv that set it
    out = tmp_path / "out"
    assert main([command, *DETERMINISTIC[command], "--seed", "5", "--out", str(out)]) == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, *DETERMINISTIC[command], "--out", str(out)]) == 0
    assert out.exists()


def _readme_argvs():
    """The ``latdir ...`` lines of the README's bash blocks, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in text.split("```bash\n")[1:] for line in block.split("```", 1)[0].splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("latdir ")]


def _design_argvs():
    """The argv of every command job of the benchmark design, its seed placeholder set."""
    design = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "design.json").read_text())
    jobs = [job for workload in design["workloads"].values() for job in workload["jobs"]]
    return [[tok.replace("{seed}", "1") for tok in job["argv"]] for job in jobs if "argv" in job]


@pytest.mark.parametrize("argv", _readme_argvs() + _design_argvs(), ids=" ".join)
def test_every_shipped_argv_parses(argv):
    # the README's examples and the benchmark's jobs use only options their commands take
    args = cli.build_parser().parse_args(cli._merge_negative_values(argv))
    assert args.command == argv[0] and hasattr(args, "seed") == (argv[0] in SAMPLING)


def test_shipped_argvs_cover_every_command():
    assert len(_readme_argvs()) >= 11 and len(_design_argvs()) >= 10
    assert {argv[0] for argv in _readme_argvs()} == set(SAMPLING) | set(DETERMINISTIC)


@pytest.mark.parametrize("argv", [
    ["singular-probe", "--xi", "1/2,1/2,9", "--r", "1,1,4", "--T-list", "10"],
    ["singular-probe", "--xi", "1/2,1/2,9", "--r", "1,1", "--T-list", "10"],
    ["singular-probe", "--xi", "1/2,1/2", "--r", "1,1,4", "--T-list", "10"],
    ["limit-sample", "--xi-class", "irrational", "--pq", "1,1,3", "--I", "0:1", "--n", "100"],
    ["limit-sample", "--xi-class", "integer", "--pq", "1,1,3", "--I", "0:1", "--n", "100"],
    ["limit-moments", "--pq", "1,1,3", "--I", "0:1", "--n", "100"],
    ["tails", "--xi-class", "integer", "--pq", "1,1,3", "--I", "0:1", "--n", "100"],
])
def test_input_a_command_would_drop_is_refused(tmp_path, capsys, argv):
    # a third shift or direction component, or --pq outside the rational class, would be ignored
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_moments_of_windows_longer_than_N_run_at_T_1e5(tmp_path):
    # N = 31,415,926,932: every window of length 1e11 holds all N directions, so the command
    # solves the strips for N and counts no window end; all 20,000 would pass the cut's budget
    out = tmp_path / "m.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["moments", "--xi", "1/2,1/2", "--T", "1e5", "--I", "0:1e11", "--grid", "10000",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["value_re"] == pytest.approx(31_415_926_932, rel=1e-9)
