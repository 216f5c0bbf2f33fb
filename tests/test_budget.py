"""The one size budget: every entry point checks its size against ``lattice.DEFAULT_MAX_POINTS``.

Each entry point estimates the values it would hold or walk and passes
the estimate to ``lattice._check_budget`` before it allocates them, so a
size past the budget is a CapacityError (CLI exit 3) that costs almost no
memory, and shrinking the one module global shrinks every cap at once.
The argv in ``over_budget_argv.txt`` are run here, and by CI under
``ulimit -v``, as a user would run them.
"""

import os
import resource
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import latdir as ld
from latdir import lattice, stats
from latdir.cli import main
from latdir.limit import disc_count

ARGV = [shlex.split(line) for line in (Path(__file__).parent / "over_budget_argv.txt").read_text().splitlines()]
A = ld.iwasawa_matrix(0.1, 1.2, 0.3)


def _peak(fn, *args, **kw):
    """``fn(*args, **kw)``, which must raise CapacityError, and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        with pytest.raises(ld.CapacityError):
            fn(*args, **kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _budget(monkeypatch, values):
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", values)


def test_checker_reads_the_budget_at_call_time(monkeypatch):
    lattice._check_budget(lattice.DEFAULT_MAX_POINTS, "values")
    with pytest.raises(ld.CapacityError, match=r"^strips: 2\.5e\+08 values, more than the budget of 200000000$"):
        lattice._check_budget(2.5e8, "strips")
    with pytest.raises(ld.CapacityError):
        lattice._check_budget(float("nan"), "values")
    _budget(monkeypatch, 10)
    lattice._check_budget(10, "values")
    with pytest.raises(ld.CapacityError, match="budget of 10$"):
        lattice._check_budget(11, "values")


def test_one_global_shrinks_every_cap(monkeypatch):
    # sizes far below the default budget, each refused once the one global is 100
    _budget(monkeypatch, 100)
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7))
    rng = np.random.default_rng(0)
    calls = [
        (ld.enumerate_points, lat, ld.Annulus(0.0), 10.0),
        (ld.direction_set, lat, ld.Annulus(0.0), 10.0),
        (ld.count_in_window, lat, ld.Annulus(0.0), 10.0, (-1.0, 1.0), 0.1),
        (ld.sample_count_distribution, 0.0, "irrational", [(0.0, 1.0)], 20, rng),
        (ld.siegel_average, "classic", 101, rng),
        (ld.horocycle_escape_integral, ld.Mat2.identity(), (0.3, 0.7), 1.0, 2.0, 1e-2, (-1, 1), 101),
        (ld.dioph_scan, (0.3, 0.7), 2.0, 10),
        (ld.MeasureSpec.uniform, 7),
        (ld.cone_counts, A, np.zeros(2), ld.ConeRegion(0.0, (0.0, 1000.0))),
        (disc_count, A, np.zeros(2), 100.0),
    ]
    for fn, *args in calls:
        with pytest.raises(ld.CapacityError):
            fn(*args)


def test_direction_statistics_check_their_passes(monkeypatch):
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7))
    dirs = ld.direction_set(lat, ld.Annulus(0.0), 20.0)
    N = dirs.N
    edges = np.linspace(-3.0, 3.0, 7)
    # pair_correlation walks N (1 + W) differences, pair_correlation_integral N (1 + reach)
    _budget(monkeypatch, N * 4)
    ld.pair_correlation(dirs, edges)
    ld.pair_correlation_integral(dirs, (0.0, 1.0), (-1.0, 1.0))  # reach 2
    _budget(monkeypatch, N * 4 - 1)
    with pytest.raises(ld.CapacityError, match="reach 3"):
        ld.pair_correlation(dirs, edges)
    _budget(monkeypatch, N * 3 - 1)
    with pytest.raises(ld.CapacityError, match="reach 2"):
        ld.pair_correlation_integral(dirs, (0.0, 1.0), (-1.0, 1.0))
    # mixed_moment makes one window count per window and grid point
    _budget(monkeypatch, stats.GRID_VALUES * 100)
    lam = ld.MeasureSpec.uniform(100)
    ld.mixed_moment(dirs, [(0.0, 1.0)] * stats.GRID_VALUES, ld.MomentSpec((1,) * stats.GRID_VALUES), lam)
    m = stats.GRID_VALUES + 1
    with pytest.raises(ld.CapacityError, match="windows"):
        ld.mixed_moment(dirs, [(0.0, 1.0)] * m, ld.MomentSpec((1,) * m), lam)


def test_large_statistics_are_refused_before_allocating():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7))
    dirs = ld.direction_set(lat, ld.Annulus(0.0), 100.0)
    # a reach of 0.4 N is accepted as input, but N (1 + 0.4 N) is about 4e8 differences
    W = 0.4 * dirs.N
    assert dirs.N * (1.0 + W) > 2e8
    assert _peak(ld.pair_correlation, dirs, [-W, 0.0, W]) < 1e6
    assert _peak(ld.pair_correlation_integral, dirs, (0.0, 1.0), (W, W + 1.0)) < 1e6
    assert _peak(ld.MeasureSpec.uniform, 10**8) < 1e6  # 1e8 points hold about 1.3e9 values
    assert _peak(ld.dioph_scan, (0.3, 0.7), 2.0, 10**6) < 1e6  # 1e12 values of the half diamond


def test_spacings_check_every_k_before_the_first_file(monkeypatch, tmp_path):
    # each k is one pass over the N directions: k = 1..2 fit in 2 N values, k = 1..3 write nothing
    N = ld.direction_set(ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7)), ld.Annulus(0.0), 20.0).N
    _budget(monkeypatch, 2 * N)
    argv = ["spacings", "--xi", "0.3,0.7", "--T", "20", "--out", str(tmp_path / "s.csv")]
    assert main([*argv, "--k", "1..3"]) == 3
    assert list(tmp_path.iterdir()) == []
    assert main([*argv, "--k", "1..2"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s_k01.csv", "s_k02.csv"]


def test_dioph_radius_budget(monkeypatch):
    _budget(monkeypatch, 20 * 21)
    assert ld.dioph_scan((0.3, 0.7), 2.0, 20).search_radius == 20
    with pytest.raises(ld.CapacityError, match="radius 21"):
        ld.dioph_scan((0.3, 0.7), 2.0, 21)


@pytest.mark.parametrize("r", [1e300, 1e10])
def test_disc_count_past_int64_or_the_budget(r):
    # r = 1e300 counted [1] once (an int64 cast of the strip bounds); r = 1e10 asked for 149 GiB
    assert _peak(disc_count, A, np.array([0.3, 0.4]), r) < 1e6
    sample = ld.HomSample(ld.IwasawaPoint(0.1, 1.2, 0.3), (0.3, 0.4))
    assert _peak(ld.cusp_bound_holds, sample, r) < 1e6


@pytest.mark.parametrize("interval", [(0.0, 1e300), (0.0, 1e12), (-1e12, 0.0)])
def test_cone_counts_past_int64_or_the_budget(interval):
    # (0, 1e300) once gave every count 0 from an int64 cast; (0, 1e12) asked for TiBs
    assert _peak(ld.cone_counts, A, np.zeros(2), ld.ConeRegion(0.0, interval)) < 1e6


@pytest.mark.parametrize("c, interval, n", [(0.0, (0.0, 1e300), 100), (0.999999999, (0.0, 1.0), 100),
                                            (0.999999, (0.0, 1.0), 1000)])
def test_sampler_bounds_its_strips_before_drawing(c, interval, n):
    # a fundamental-domain sample needs at most 2.15 (1 + s) + 3 strips, s = 2 max |a|, |b| / (1 - c^2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert _peak(ld.sample_count_distribution, c, "irrational", [interval], n, rng) < 1e6
    assert rng.bit_generator.state == state and rng.bit_generator.seed_seq.n_children_spawned == 0


def _address_cap():
    cap = 2_000_000 * 1024  # ulimit -v 2000000
    resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.parametrize("argv", ARGV, ids=[" ".join(a) for a in ARGV])
def test_over_budget_command_exits_3(tmp_path, argv):
    # a fresh process under a 2 GB address-space cap, with every RuntimeWarning an error
    out = tmp_path / "out"
    src = str(Path(ld.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "latdir", *argv, "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=30, preexec_fn=_address_cap)
    assert run.returncode == 3, run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in run.stderr
    assert not out.exists() and list(tmp_path.iterdir()) == []
