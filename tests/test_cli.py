import contextlib
import hashlib
import io
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rumourlab
from rumourlab import continuum, exact, lattice, reporting, stats
from rumourlab.cli import main, run_diagnose
from rumourlab.distributions import Constant, ParetoTail, PowerTail, parse_distribution
from rumourlab.reporting import (
    ExperimentResult,
    ExperimentSpec,
    clean_row,
    parse_result_json,
    render_json,
)


def run(tmp_path, *args, out=None, formats=()):
    argv = list(args)
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    for f in formats:
        argv.append(f"--{f}")
    return main(argv)


class TestExact:
    def test_dp_row(self, tmp_path, capsys):
        code = main(["exact", "--dim", "1", "--dist", "const:r=1", "--p", "0.5",
                     "--k", "2", "--sites", "3", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines()[0] == "i,p,k,prob,method"
        assert captured.out.splitlines()[1] == "3,0.5,2,0.75,dp"

    def test_paper_divergence_exit_3(self, tmp_path):
        code = main(["exact", "--dim", "2", "--dist", "const:r=1", "--p", "0.5",
                     "--k", "2", "--sites", "2,2", "--method", "paperEq11", "--seed", "1"])
        assert code == 3

    def test_paper_divergence_allowed(self, tmp_path, capsys):
        code = main(["exact", "--dim", "2", "--dist", "const:r=1", "--p", "0.5",
                     "--k", "2", "--sites", "2,2", "--method", "paperEq11",
                     "--allow-paper-formula-divergence", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "0.1875" in captured.out
        assert "0.3125" in captured.err  # flagged against the dp value

    def test_p_zero_all_one(self, capsys):
        code = main(["exact", "--dim", "1", "--dist", "geom:q=0.5", "--p", "0",
                     "--k", "2", "--sites", "1,4,9", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        probs = [line.split(",")[3] for line in captured.out.splitlines()[1:]]
        assert probs == ["1.0", "1.0", "1.0"]

    def test_methods_agree(self, capsys):
        code = main(["exact", "--dim", "1", "--dist", "const:r=2", "--p", "0.4",
                     "--k", "2", "--sites", "4", "--method", "dp,closedForm,oracle",
                     "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        vals = {line.split(",")[4]: line.split(",")[3] for line in lines}
        assert vals["dp"] == vals["closedForm"] == vals["oracle"]

    def test_oracle_bound_exceeded_is_usage_error(self):
        code = main(["exact", "--dim", "1", "--dist", "const:r=1", "--p", "0.5",
                     "--k", "1", "--sites", "40", "--method", "oracle", "--seed", "1"])
        assert code == 2

    @pytest.mark.parametrize("extra", [[], ["--allow-paper-formula-divergence"]])
    @pytest.mark.parametrize("methods", ["paperEq11", "dp,paperEq11"])
    def test_paper_formula_undefined_is_usage_error(self, methods, extra, capsys):
        # p*G(0) = 1 makes the printed formula divide by zero
        code = main(["exact", "--dim", "2", "--dist", "const:r=1", "--p", "1", "--k", "2",
                     "--sites", "2,2", "--method", methods, *extra, "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err == ("error: g(t) = 1 - p*G(t) vanishes at t=0 "
                                           "(p*G(t)=1); the printed formula is undefined\n")

    def test_closed_form_2d_needs_k1(self, capsys):
        code = main(["exact", "--dim", "2", "--dist", "const:r=1", "--p", "0.5", "--k", "2",
                     "--sites", "2,2", "--method", "closedForm", "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err == ("error: closedForm in 2D exists for k=1 only "
                                           "(use paperEq11 or dp)\n")


class TestSimulate:
    def test_site_rows_and_summary(self, tmp_path, capsys):
        code = main(["simulate", "--dim", "1", "--dist", "const:r=1", "--p", "0.5",
                     "--k", "2", "--n", "6", "--sites", "3", "--trials", "500",
                     "--seed", "7"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "site,freqUnderCovered,ciLow,ciHigh"
        labels = [line.split(",")[0] for line in out[1:]]
        assert labels == ["3", "window", "lastUnderCovered"]

    def test_deterministic_full_cover(self, capsys):
        code = main(["simulate", "--dim", "1", "--dist", "const:r=2", "--p", "1",
                     "--k", "1", "--n", "10", "--trials", "5", "--seed", "3"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        window = next(line for line in out if line.startswith("window"))
        assert window.split(",")[1] == "0.0"


class TestScan:
    def test_p_grid_monotone(self, capsys):
        code = main(["scan", "--dim", "1", "--model", "firework", "--dist",
                     "pareto:alpha=4", "--p-grid", "0.1,0.3,0.5,0.7,0.9",
                     "--k", "2", "--n", "300", "--trials", "8", "--seed", "21"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        stats = [float(line.split(",")[1]) for line in out[1:]]
        assert len(stats) == 5
        assert all(a >= b for a, b in zip(stats, stats[1:]))  # coupled seeds

    def test_single_point_grid(self, capsys):
        code = main(["scan", "--dim", "1", "--dist", "pareto:alpha=4", "--p-grid", "0.5",
                     "--k", "2", "--n", "100", "--trials", "3", "--seed", "2"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and len(out) == 2

    def test_needs_exactly_one_grid(self):
        code = main(["scan", "--dist", "pareto:alpha=4", "--n", "10", "--seed", "1"])
        assert code == 2

    @pytest.mark.parametrize("grid,kind", [(["--p-grid", "0.1,0.2", "--n", "10"], "p"),
                                           (["--lambda-grid", "0.1,0.2", "--T", "10"], "lambda")])
    def test_grid_without_dist(self, capsys, grid, kind):
        code = main(["scan", *grid, "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [f"error: a {kind} scan needs --dist"]

    def test_beta_grid_reverse_dichotomy(self, capsys):
        # heavy tail (beta <= 1) leaves almost nothing uncovered; light tails
        # leave a positive density outside the sceptic region
        code = main(["scan", "--dim", "1", "--model", "reverse", "--beta-grid",
                     "0.5,1.5,2.5", "--p", "0.5", "--k", "2", "--n", "2000",
                     "--cushion", "10", "--trials", "3", "--initiators", "--seed", "31"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        stats = {line.split(",")[0]: float(line.split(",")[1]) for line in out[1:]}
        assert stats["0.5"] < 0.01
        assert stats["1.5"] > 0.1
        assert stats["2.5"] > 0.1

    def test_beta_grid_runs_the_printed_betas(self, capsys, monkeypatch):
        # betas with more than 6 significant digits reach the law unrounded
        betas = [0.5, 1.23456789, 2.000000001]
        configs = []

        def record(grid, trials, workers=1, sites=None):
            configs.extend(grid)
            return [lattice.WindowStats(np.zeros(trials), np.zeros(trials), 0) for _ in grid]

        monkeypatch.setattr(lattice, "simulate_windows", record)
        code = main(["scan", "--model", "reverse", "--beta-grid", ",".join(map(repr, betas)),
                     "--p", "0.5", "--n", "10", "--trials", "2", "--seed", "1"])
        assert code == 0
        assert [c.dist for c in configs] == [PowerTail(b) for b in betas]
        params = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert params == [repr(b) for b in betas]

    @pytest.mark.parametrize("grid", [["--p-grid", "0.5,1.5", "--dist", "const:r=1"],
                                      ["--beta-grid", "1.5,-1", "--p", "0.5"]])
    def test_bad_grid_point_rejected_before_any_trial(self, grid, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("ran a grid point's trials")

        monkeypatch.setattr(lattice, "simulate_windows", no_trials)
        code = main(["scan", *grid, "--n", "10", "--trials", "3", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "does not read" not in err

    # each grid refuses the flags it does not read, before any trial
    GRIDS = {"p": ["--p-grid", "0.1,0.2", "--dist", "const:r=1", "--n", "10"],
             "beta": ["--beta-grid", "1,2", "--p", "0.5", "--n", "10"],
             "lambda": ["--lambda-grid", "0.5,1", "--dist", "pareto:alpha=4", "--T", "20"]}

    @pytest.mark.parametrize("kind, flag", [
        ("p", ["--p", "0.9"]), ("p", ["--T", "7"]),
        ("beta", ["--dist", "geom:q=0.5"]), ("beta", ["--T", "7"]),
        ("lambda", ["--p", "0.5"]), ("lambda", ["--n", "10"]),
        ("p", ["--resolution", "0.25"]), ("beta", ["--resolution", "0.25"]),
        ("lambda", ["--model", "reverse"]), ("lambda", ["--cushion", "3"]),
        ("lambda", ["--initiators"]),
    ])
    def test_unread_flag_rejected(self, kind, flag, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("ran a trial")

        monkeypatch.setattr(lattice, "_trial_range", no_trials)
        code = main(["scan", *self.GRIDS[kind], *flag, "--trials", "3", "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: a {kind} scan does not read {flag[0]}\n"

    def test_lambda_grid(self, capsys):
        code = main(["scan", "--dim", "1", "--dist", "pareto:alpha=4", "--lambda-grid",
                     "0.1,2.0", "--T", "1000", "--k", "2", "--trials", "5", "--seed", "32"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        stats = [float(line.split(",")[1]) for line in out[1:]]
        assert len(stats) == 2
        assert stats[0] > stats[1]  # deficiency shrinks with intensity


class TestDiagnose:
    def test_rows(self, capsys):
        code = main(["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5", "--k", "1",
                     "--imin", "1", "--imax", "50", "--seed", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "n,partialSum,growthRatio,decayExponent"
        assert len(out) == 51

    @pytest.mark.parametrize("imin,imax", [(1, 40), (5, 6)])
    def test_bulk_rows_equal_clean_row(self, imin, imax, monkeypatch):
        # (5, 6) has no doubling point: growthRatio is NaN, written as None
        spec = ExperimentSpec(subcommand="diagnose", seed=1, dist="pareto:alpha=4", p=0.5,
                              k=2, i_min=imin, i_max=imax)
        diag = exact.series_diagnostics(0.5, parse_distribution("pareto:alpha=4"), 2, imin, imax)
        want = [clean_row([i, diag.partial_sums[pos], diag.growth_ratio, diag.decay_exponent])
                for pos, i in enumerate(diag.site_indices.tolist())]
        table = run_diagnose(spec)[0]
        assert len(table) == len(want)
        for size in (7, reporting.BLOCK_ROWS):
            monkeypatch.setattr(reporting, "BLOCK_ROWS", size)
            rows = [list(row) for block in table.blocks() for row in zip(*block)]
            assert rows == want
            assert [[type(v) for v in r] for r in rows] == [[type(v) for v in r] for r in want]


class TestContinuumCmd:
    def test_rows(self, capsys):
        code = main(["continuum", "--dim", "1", "--dist", "pareto:alpha=4",
                     "--lambda", "1.0", "--T", "100", "--k", "2", "--trials", "4",
                     "--seed", "5"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "trial,statistic,witness"
        assert len(out) == 5

    @pytest.mark.parametrize("dim", ["1", "2"])
    def test_covered_trials_have_an_empty_witness(self, dim, capsys, monkeypatch):
        # points at the origin with long radii cover the whole window
        monkeypatch.setattr(continuum, "sample_ppp", lambda config: continuum.PointSet(
            np.zeros((2, config.dimension)), np.array([300.0, 300.0])))
        assert main(["continuum", "--dim", dim, "--dist", "pareto:alpha=4", "--lambda", "1.0",
                     "--T", "20", "--trials", "2", "--seed", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["0,0.0,", "1,0.0,"]

    def test_const_radius_takes_a_float(self, capsys):
        code = main(["continuum", "--dist", "const:r=2.5", "--lambda", "1.0", "--T", "20",
                     "--trials", "2", "--seed", "5"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize("dist,token", [("geom:q=0.5", "geom"),
                                            ("trunc:const:r=1:cap=3", "trunc")])
    def test_lattice_only_law_rejected(self, dist, token, capsys):
        code = main(["continuum", "--dist", dist, "--lambda", "1.0", "--T", "20", "--seed", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and repr(token) in err

    @pytest.mark.parametrize("argv", [
        ["continuum", "--lambda", "1.0", "--T", "20", "--trials", "0"],
        ["continuum", "--lambda", "1.0", "--T", "20", "--trials", "-3"],
        ["scan", "--lambda-grid", "0.5,1", "--T", "20", "--trials", "0"],
    ])
    def test_trials_must_be_positive(self, argv, capsys):
        assert main(argv + ["--dist", "pareto:alpha=4", "--seed", "5"]) == 2
        assert capsys.readouterr().err == "error: trials must be >= 1\n"


class TestSeedHandling:
    def test_strict_without_seed(self):
        env = os.environ.pop("RUMOURLAB_SEED", None)
        try:
            code = main(["exact", "--dim", "1", "--dist", "const:r=1", "--p", "0.5",
                         "--sites", "2", "--strict"])
            assert code == 2
        finally:
            if env is not None:
                os.environ["RUMOURLAB_SEED"] = env

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("RUMOURLAB_SEED", "99")
        code = main(["simulate", "--dim", "1", "--dist", "const:r=1", "--p", "0.5",
                     "--k", "1", "--n", "4", "--trials", "3", "--strict"])
        assert code == 0

    def test_generated_seed_is_reported_and_reproduces(self, capsys, monkeypatch):
        monkeypatch.delenv("RUMOURLAB_SEED", raising=False)
        argv = ["simulate", "--dist", "geom:q=0.5", "--p", "0.5", "--n", "6", "--trials", "20"]
        assert main(argv) == 0
        generated = capsys.readouterr()
        line = generated.err.splitlines()[0]
        prefix, suffix = "seed: ", " (generated; pass --seed to reproduce)"
        assert line.startswith(prefix) and line.endswith(suffix), line
        seed = line[len(prefix):-len(suffix)]
        assert seed.isdigit()
        assert main(argv + ["--seed", seed]) == 0
        assert capsys.readouterr().out == generated.out


class TestWorkers:
    @pytest.mark.parametrize("workers", ["0", "-4"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--dist", "const:r=1", "--p", "0.5", "--n", "8", "--trials", "4"],
        ["continuum", "--dist", "pareto:alpha=4", "--lambda", "1.0", "--T", "20"],
    ])
    def test_below_one_rejected(self, argv, workers, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a process pool")

        monkeypatch.setattr(lattice, "ProcessPoolExecutor", no_pool)
        assert main(argv + ["--workers", workers, "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"

    # every call's trials, all points of a scan included, share one pool:
    # its tasks are jobs x chunks, and a firework p or beta scan is one job
    @pytest.mark.parametrize("argv, tasks", [
        (["continuum", "--dist", "pareto:alpha=4", "--lambda", "1.0", "--T", "20",
          "--trials", "4"], 2),
        (["scan", "--dist", "pareto:alpha=4", "--lambda-grid", "0.5,1", "--T", "20",
          "--trials", "4"], 4),
        (["scan", "--dist", "pareto:alpha=4", "--p-grid", "0.2,0.5", "--n", "300",
          "--trials", "4"], 2),
        (["scan", "--model", "reverse", "--beta-grid", "0.8,1.5", "--p", "0.5", "--n", "30",
          "--cushion", "2", "--trials", "4"], 4),
    ])
    def test_continuum_and_scan_trials_share_one_pool(self, argv, tasks, inline_pools,
                                                      monkeypatch):
        monkeypatch.setattr(lattice.os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(argv + ["--workers", "2", "--seed", "1"]) == 0
        assert [(p.max_workers, p.tasks) for p in inline_pools] == [(2, tasks)]

    def test_pool_capped_by_the_memory_budget(self, tmp_path, inline_pools, monkeypatch):
        # results plus two trials pass a budget that admits results plus one:
        # --workers 2 runs without a pool, and the bytes do not move
        monkeypatch.setattr(lattice.os, "sched_getaffinity", lambda pid: {0, 1})
        argv = ["simulate", "--dist", "geom:q=0.5", "--p", "0.5", "--n", "300", "--trials", "40",
                "--sites", "3,7", "--seed", "5", "--csv", "--json"]
        trial = lattice.LatticeConfig(1, lattice.FIREWORK, 0.5, 2, 300, parse_distribution(
            "geom:q=0.5"), 5).trial_bytes()
        results = 40 * lattice._summary_dtype(2).itemsize
        outputs, pools = [], []
        for name, workers, budget in (("one", 1, None), ("two", 2, None),
                                      ("capped", 2, results + 2 * trial - 1)):
            if budget is not None:
                monkeypatch.setattr(stats, "MAX_BYTES", budget)
            inline_pools.clear()
            assert run(tmp_path, *argv, "--workers", str(workers), out=name) == 0
            pools.append([p.max_workers for p in inline_pools])
            outputs.append([(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("csv", "json")])
        assert pools == [[], [2], []]
        assert outputs[0] == outputs[1] == outputs[2]


class TestOversizedRequests:
    # each would allocate tebibytes; the byte checks refuse them first
    def test_diagnose_imax(self, capsys, monkeypatch):
        def no_series(self, j):
            raise AssertionError("allocated the series arrays")

        monkeypatch.setattr(ParetoTail, "survival_vec", no_series)
        assert main(["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5",
                     "--imax", "10000000000000", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "series arrays" in err

    # the series arrays bound a diagnose run, which writes its rows in blocks;
    # _dp_width is the first call past the byte check, before any allocation
    LAST_IMAX = stats.MAX_BYTES // exact._SERIES_BYTES_PER_SITE

    class PastTheCheck(Exception):
        pass

    @pytest.fixture
    def past_the_check(self, monkeypatch):
        def sentinel(*args):
            raise self.PastTheCheck

        monkeypatch.setattr(exact, "_dp_width", sentinel)

    def test_diagnose_first_imax_past_the_series_estimate(self, capsys, past_the_check):
        assert main(["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5",
                     "--imax", str(self.LAST_IMAX + 1), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "series arrays" in err

    def test_diagnose_last_imax_inside_the_series_estimate(self, past_the_check):
        with pytest.raises(self.PastTheCheck):
            main(["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5",
                  "--imax", str(self.LAST_IMAX), "--seed", "1"])

    def test_oracle_sources(self, capsys, monkeypatch):
        def no_list(q):
            raise AssertionError("built the source list")

        monkeypatch.setattr(exact, "_candidate_sources", no_list)
        assert main(["exact", "--dim", "2", "--dist", "const:r=1", "--p", "0.5", "--k", "1",
                     "--sites", "1000,1000", "--method", "oracle", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "enumeration budget" in err

    def test_simulate_trials(self, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("allocated the trial results")

        monkeypatch.setattr(lattice, "_trial_range", no_trials)
        assert main(["simulate", "--dist", "const:r=1", "--p", "0.5", "--n", "3",
                     "--trials", "1000000000000", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "bytes of results" in err

    @pytest.mark.parametrize("argv", [
        # 16 bytes per 1D trial: 3.2e9 bytes, past 2^31 at 8 bytes a trial it was not
        ["continuum", "--dim", "1", "--lambda", "1.0", "--T", "20", "--trials", "200000000"],
        ["continuum", "--dim", "2", "--lambda", "1.0", "--T", "20", "--trials", "100000000"],
        ["scan", "--dim", "1", "--lambda-grid", "0.5,1", "--T", "20", "--trials", "100000000"],
    ])
    def test_continuum_trials(self, argv, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("allocated the trial results")

        monkeypatch.setattr(lattice, "_trial_range", no_trials)
        assert main(argv + ["--dist", "pareto:alpha=4", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "bytes of results" in err


class TestOversizedTrials:
    # the configs' byte estimates refuse one trial of each (the reverse one at
    # ~4.4 GB, past the 2D edge of n = 13793 at cushion 5), so neither a trial
    # nor a sample starts
    @pytest.mark.parametrize("argv", [
        ["simulate", "--dim", "2", "--model", "reverse", "--dist", "power:beta=1.5", "--p", "0.5",
         "--n", "20000", "--cushion", "5", "--trials", "1"],
        ["simulate", "--dim", "2", "--dist", "power:beta=1.5", "--p", "0.5", "--n", "46000",
         "--trials", "1"],
        ["continuum", "--dim", "1", "--dist", "pareto:alpha=4", "--lambda", "2", "--T", "1e9",
         "--trials", "1"],
    ])
    def test_refused_before_any_allocation(self, argv, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("started a trial")

        monkeypatch.setattr(lattice, "_trial_range", no_trials)
        monkeypatch.setattr(continuum, "sample_ppp", no_trials)
        assert main(argv + ["--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert err.endswith(f" bytes (> {stats.MAX_BYTES})\n")


class TestCountDPBound:
    # sources * min(k, sources + 1) DP updates above 2^31 are refused before the DP runs
    @pytest.mark.parametrize("argv, sources", [
        (["exact", "--dim", "2", "--dist", "const:r=1", "--p", "0.5", "--k", "2",
          "--sites", "40000,40000"], 1_600_000_000),
        (["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5", "--k", "100000",
          "--imax", "300000"], 300_000),
    ])
    def test_refused_before_the_dp(self, argv, sources, capsys, monkeypatch):
        def no_dp(*args):
            raise AssertionError("entered the count DP")

        monkeypatch.setattr(exact, "_count_dp", no_dp)
        assert main(argv + ["--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: the count DP over {sources} ")

    @pytest.mark.parametrize("argv, width", [
        (["exact", "--dim", "1", "--dist", "const:r=2", "--p", "0.5", "--sites", "3"], 4),
        (["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5", "--imax", "1000"], 1001),
    ])
    def test_huge_k_allocates_no_k_long_list(self, argv, width, capsys, monkeypatch):
        # the DP list is capped at sources + 1 entries, so --k 10^7 costs nothing extra
        widths = []
        count_dp = exact._count_dp

        def record(shells, width):
            widths.append(width)
            return count_dp(shells, width)

        monkeypatch.setattr(exact, "_count_dp", record)
        assert main(argv + ["--k", "10000000", "--seed", "1"]) == 0
        assert widths == [width]


class TestShellBytesBound:
    # an exact query whose shell list would pass the byte budget is refused
    # before any shell is built; 10^8 shells would take ~11 GB
    @pytest.mark.parametrize("argv, shells", [
        (["exact", "--dist", "const:r=1", "--p", "0.5", "--sites", "100000000"], 100_000_000),
        (["exact", "--dist", "power:beta=1.5", "--p", "0.5", "--initiators", "--sites",
          "20000000"], 20_000_002),
        (["exact", "--dim", "2", "--dist", "const:r=1", "--p", "0.5", "--sites",
          "1,100000000"], 100_000_000),
    ])
    def test_refused_before_the_shells(self, argv, shells, capsys, monkeypatch):
        def no_shells(*args):
            raise AssertionError("built the shell list")

        monkeypatch.setattr(exact, "_shells", no_shells)
        assert main(argv + ["--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"needs {shells} shells, ~{shells * 112} bytes (> " in err


def _lattice_trial(monkeypatch, dim, model, n, cushion=1, chunk_cells=None, dist=PowerTail(1.5)):
    """A one-trial group of _summaries at p = 1, the most sources, and its estimate."""
    if chunk_cells is not None:
        monkeypatch.setattr(lattice, "_CHUNK_CELLS", chunk_cells)
    c = lattice.LatticeConfig(dim, model, 1.0, 2, n, dist, 3, cushion=cushion,
                              include_initiators=model == lattice.REVERSE and dim == 1)
    assert chunk_cells is None or len(lattice._row_blocks(c.extent(), dim)) > 2
    seeds = np.array([5], dtype=np.uint64)
    return c.trial_bytes(), lambda: lattice._summaries(c, seeds, lattice._site_indices(c, []))


def _lattice_grid(monkeypatch, dim, n, ps, laws=None, chunk_cells=None):
    """A one-trial group of a firework grid job, its points at ps (and laws), and
    the estimate of its config, the point of largest p."""
    if chunk_cells is not None:
        monkeypatch.setattr(lattice, "_CHUNK_CELLS", chunk_cells)
    points = tuple(lattice.LatticeConfig(dim, lattice.FIREWORK, p, 2, n, law, 3)
                   for p, law in zip(ps, laws or [PowerTail(1.5)] * len(ps)))
    c = max(points, key=lambda point: point.p)
    seeds = np.array([5], dtype=np.uint64)
    return c.trial_bytes(), lambda: lattice._summaries(c, seeds, lattice._site_indices(c, []),
                                                       points)


def _realize(monkeypatch):
    """realize of a 2D window, with the estimate realize checks."""
    c = lattice.LatticeConfig(2, lattice.FIREWORK, 1.0, 2, 1500, PowerTail(1.5), 3)
    needs = []
    check = lattice.check_bytes
    monkeypatch.setattr(lattice, "check_bytes", lambda need, *args: needs.append(need)
                        or check(need, *args))
    lattice.realize(c)
    return needs[0], lambda: lattice.realize(c)


def _continuum(dim, lam, T):
    c = continuum.ContinuumConfig(dim, lam, T, parse_distribution("pareto:alpha=4", True), 2, 3)
    return c.trial_bytes(), lambda: continuum.trial_records(c, np.array([5], dtype=np.uint64))


def _shells(method, dim=1):
    q = exact.ExactQuery(dim, 20_000 if dim == 1 else (20_000, 20_000), 0.5, 2, Constant(1))
    return 20_000 * exact._SHELL_BYTES, lambda: exact.METHODS[method](q)


def _series(i_max):
    law = parse_distribution("pareto:alpha=4")
    return (i_max * exact._SERIES_BYTES_PER_SITE,
            lambda: exact.series_diagnostics(0.5, law, 2, 1, i_max))


class TestByteEstimates:
    # each path's byte estimate bounds the tracemalloc peak of what it admits,
    # at sizes where the per-unit terms carry the estimate, not the fixed ones
    CASES = {
        "firework_1d": lambda mp: _lattice_trial(mp, 1, lattice.FIREWORK, 1_000_000),
        "firework_2d": lambda mp: _lattice_trial(mp, 2, lattice.FIREWORK, 1000),
        # a p grid's job, its window drawn once: each chunk's sources split by
        # level, then counted a point at a time
        "firework_2d_p_grid": lambda mp: _lattice_grid(mp, 2, 1000, (0.3, 1.0, 0.6)),
        # a beta grid's job in 8 chunks of 131 rows: each point's radii from
        # the held radius uniforms
        "firework_2d_beta_grid": lambda mp: _lattice_grid(
            mp, 2, 1000, (1.0,) * 3, (PowerTail(2.5), PowerTail(0.5), PowerTail(1.5)), 1 << 17),
        "reverse_1d": lambda mp: _lattice_trial(mp, 1, lattice.REVERSE, 400_000, 1, 1 << 17),
        "reverse_2d": lambda mp: _lattice_trial(mp, 2, lattice.REVERSE, 800, 1, 1 << 17),
        "reverse_2d_cushion": lambda mp: _lattice_trial(mp, 2, lattice.REVERSE, 200, 4, 1 << 17),
        # 300 chunks of 10 rows: the rolling buffer keeps 13 of the extent's
        # 3003 rows, and the packed open bits rows 0..599
        "reverse_2d_rolling": lambda mp: _lattice_trial(mp, 2, lattice.REVERSE, 600, 5, 1 << 15),
        # the same at PowerTail(0.5): ~4x10^5 sources with a bottom corner
        # above the buffer, swept in 7 pools of at most 2^16
        "reverse_2d_far": lambda mp: _lattice_trial(mp, 2, lattice.REVERSE, 600, 5, 1 << 15,
                                                    PowerTail(0.5)),
        # 70 chunks of 43 rows at PowerTail(0.5), n = 1500: the deferred pool
        # holds 1503^2 // 32 = 70594 sources, more than a block, and fills 11
        # times
        "reverse_2d_pool": lambda mp: _lattice_trial(mp, 2, lattice.REVERSE, 1500, 2, 1 << 17,
                                                     PowerTail(0.5)),
        # 4 chunks of 262 rows, each 4 blocks of candidates (all open sites at
        # cushion 1): the held and the block terms of the estimate both count
        "reverse_2d_blocks": lambda mp: _lattice_trial(mp, 2, lattice.REVERSE, 1000, 1, 1 << 18),
        "realize": _realize,
        "continuum_1d": lambda mp: _continuum(1, 2.0, 200_000.0),
        "continuum_2d": lambda mp: _continuum(2, 2.0, 300.0),
        "shells_closed_form": lambda mp: _shells("closedForm"),
        "shells_dp": lambda mp: _shells("dp"),
        "shells_paper_eq11_2d": lambda mp: _shells("paperEq11", 2),
        "series": lambda mp: _series(100_000),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_estimate_bounds_the_traced_peak(self, name, monkeypatch):
        estimate, request = self.CASES[name](monkeypatch)
        tracemalloc.start()
        try:
            request()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < estimate

    @staticmethod
    def _reverse_2d(n):
        # the reverse-2d benchmark's 2D spec at n
        return lattice.LatticeConfig(2, lattice.REVERSE, 0.5, 2, n,
                                     parse_distribution("power:beta=1.5"), 1, cushion=5,
                                     include_initiators=True)

    def test_reverse_2d_benchmark_trial_admits_twelve_workers(self, inline_pools, monkeypatch):
        # its 2D trial: each chunk holds ~4x10^5 candidates, and the estimate
        # counts one block's transients, the rolling buffer and the deferred
        # pool
        monkeypatch.setattr(lattice.os, "sched_getaffinity", lambda pid: set(range(16)))
        c = self._reverse_2d(2000)
        assert c.trial_bytes() < 170_000_000

        def no_trials(config, seeds):
            return np.zeros(len(seeds), np.int64)

        lattice.run_trials(no_trials, [(c, (), ())], 24, 16, np.int64)
        assert [p.max_workers for p in inline_pools] == [12]

    def test_reverse_2d_admitted_edge(self):
        # cushion 5, p = 0.5: extents up to 69020 sites per axis are admitted
        assert self._reverse_2d(13804).extent() == 69020
        with pytest.raises(lattice.WindowOverflowError):
            self._reverse_2d(13805)


class TestOversizedContinuum:
    @pytest.mark.parametrize("argv", [
        ["continuum", "--dist", "pareto:alpha=1e-300", "--lambda", "1e9", "--T", "1e6"],
        ["scan", "--dim", "1", "--dist", "pareto:alpha=4", "--lambda-grid", "1e12",
         "--T", "1e6", "--trials", "1"],
        ["scan", "--dim", "2", "--dist", "pareto:alpha=4", "--lambda-grid", "0.1,1e12",
         "--T", "1e3", "--trials", "1"],
    ])
    def test_rejected_before_sampling(self, argv, capsys, monkeypatch):
        def no_sampling(config):
            raise AssertionError("sampled an oversized request")

        monkeypatch.setattr(continuum, "sample_ppp", no_sampling)
        assert main(argv + ["--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "expected points" in err

    @pytest.mark.parametrize("argv", [
        ["continuum", "--dim", "2", "--dist", "pareto:alpha=4", "--lambda", "1e-12",
         "--T", "1e10", "--resolution", "1e-300", "--trials", "1"],
        ["continuum", "--dim", "2", "--dist", "pareto:alpha=4", "--lambda", "1",
         "--T", "10", "--resolution", "inf", "--trials", "1"],
        ["scan", "--dim", "2", "--dist", "pareto:alpha=4", "--lambda-grid", "1",
         "--T", "10", "--resolution", "inf"],
    ])
    def test_pixel_ratio_out_of_range(self, argv, capsys, monkeypatch):
        # T / resolution overflowing to inf or falling to 0 is a usage error
        def no_sampling(config):
            raise AssertionError("sampled a request with no usable pixel grid")

        monkeypatch.setattr(continuum, "sample_ppp", no_sampling)
        assert main(argv + ["--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "pixels per axis" in err


class TestGoldenBytes:
    # SHA-256 of CSV + JSON as written by rumourlab 0.1.0: the scan --dim 2
    # specs before the box-count kernel (p2d and l2d use grids wide enough for
    # the row-by-row prefix and last_under_covered's row reductions, p2d_small
    # the other branches), the rest before the radius-law table and the one
    # continuum trial path (the criterion 10 specs, the 1D continuum with its
    # float witness, and a 1D lambda scan), the exact_* and diagnose_k* specs
    # before the one shell list and count DP of the exact layer, and the small
    # firework windows (the seven benchmark tiny specs, initiators, trunc:, p
    # at 0 and 1, windows at and just over the batch cap) before their trials
    # ran in batches.  Re-taken at 0.2.0, which writes "0.2.0" in each JSON:
    # with "0.1.0" put back, 38 of the 40 hash to their 0.1.0 digests; diagnose
    # and diagnose_k3 moved in the last bits of partialSum and decayExponent,
    # once the series read its cover probabilities from the stream and
    # survival function of the exact values (diagnose_k1 held)
    SPECS = {
        "p2d": (["scan", "--dim", "2", "--dist", "pareto:alpha=4", "--p-grid", "0.05,0.2",
                 "--n", "600", "--trials", "3", "--seed", "11"],
                "94b407c89081c7f392cf45d50338b38e3fa9ae640af3cb6153c73595f5d097cf"),
        "p2d_small": (["scan", "--dim", "2", "--dist", "geom:q=0.5", "--p-grid", "0.3,0.6",
                       "--n", "12", "--trials", "5", "--seed", "13"],
                      "c0de158e873b1915670a0bbcffb409acf26e9d5ceabbf1380eb71c20088eeefe"),
        "p2d_rev": (["scan", "--dim", "2", "--model", "reverse", "--dist", "power:beta=3",
                     "--p-grid", "0.1,0.3", "--k", "3", "--n", "40", "--cushion", "2",
                     "--trials", "3", "--initiators", "--seed", "14"],
                    "c4f837e23fbb7cc55bef21a8451cbfe91ca1eb73484420735997922f2bd710f9"),
        "l2d": (["scan", "--dim", "2", "--dist", "pareto:alpha=4", "--lambda-grid", "0.5,2",
                 "--T", "40", "--resolution", "0.5", "--trials", "3", "--seed", "12"],
                "5159bd438f9d3cb9040608e74914be82ca90e40d47708d0f9033158fe8d83bbd"),
        "exact": (["exact", "--dim", "1", "--dist", "const:r=2", "--p", "0.4", "--k", "2",
                   "--sites", "2,5", "--method", "dp,closedForm,oracle", "--seed", "10"],
                  "0b7fd90627ba511c0c351f57bf7bfcff28778c17344cd5be5fdad81949662241"),
        "simulate_rev1d": (["simulate", "--dim", "1", "--model", "reverse", "--dist",
                            "geom:q=0.5", "--p", "0.5", "--k", "2", "--n", "50", "--cushion",
                            "4", "--trials", "40", "--sites", "3,10", "--seed", "11"],
                           "9f01f0674a6151d976e77c23548fdabf33d17b40e24d3658383a7c019f99402b"),
        "p1d": (["scan", "--dim", "1", "--dist", "pareto:alpha=4", "--p-grid", "0.2,0.5,0.8",
                 "--k", "2", "--n", "60", "--trials", "6", "--seed", "12"],
                "229274a016473e853f1ba87f518c613d28d5adab9293a12bdb5a12432324b664"),
        "diagnose": (["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5", "--k", "2",
                      "--imin", "1", "--imax", "500", "--seed", "13"],
                     "865359b1dba47a191cb6ab592ba8c4d4c55073a2de29fc2a5ee9a843047afdfc"),
        "continuum_2d": (["continuum", "--dim", "2", "--dist", "pareto:alpha=4", "--lambda",
                          "0.5", "--T", "50", "--resolution", "0.5", "--k", "2", "--trials",
                          "5", "--seed", "14"],
                         "c24e4662a5bc7dd78158a1ec57786663bb2b689584496b02e4a61d000a9744a2"),
        "continuum_1d": (["continuum", "--dim", "1", "--dist", "pareto:alpha=4", "--lambda",
                          "0.3", "--T", "200", "--k", "2", "--trials", "8", "--seed", "15"],
                         "7c6c39dd48f1d1b4012369da8de1161fab59c59917a6b760041c3cd371575ee1"),
        "l1d": (["scan", "--dim", "1", "--dist", "pareto:alpha=4", "--lambda-grid", "0.1,0.5,2",
                 "--T", "500", "--k", "2", "--trials", "4", "--seed", "16"],
                "3454c3f9fec064af89a240a0176f12d5e5f07b30290263c4dee94bd6d384dd84"),
        "exact_2d_k1": (["exact", "--dim", "2", "--dist", "pareto:alpha=4", "--p", "0.3",
                         "--k", "1", "--sites", "1,1;3,2;2,5", "--method", "dp,closedForm",
                         "--seed", "20"],
                        "56fa75262a9d29a91e7a66eb1aa950ec0d20a6bf9b7a60e8451e93e7f67c7d2c"),
        "exact_2d_k2": (["exact", "--dim", "2", "--dist", "const:r=1", "--p", "0.5", "--k", "2",
                         "--sites", "2,2;4,3", "--method", "dp,paperEq11",
                         "--allow-paper-formula-divergence", "--seed", "21"],
                        "e7870542e39fa1adb9c178a108e24aa502fa98a1e846bcb0ea313c120e30092c"),
        "exact_2d_oracle": (["exact", "--dim", "2", "--dist", "geom:q=0.5", "--p", "0.3",
                             "--k", "2", "--sites", "2,2;3,1", "--method", "dp,oracle",
                             "--seed", "22"],
                            "02723c276282353a06e2526872fb2b83131a58b88e41d9c0deac7c76541b2118"),
        "exact_initiators": (["exact", "--dim", "1", "--dist", "const:r=2", "--p", "0.3",
                              "--k", "3", "--sites", "1,2,4", "--method", "dp,oracle",
                              "--initiators", "--seed", "23"],
                             "8af7b306924a1a9e1e84031f2668e6364283d4f6ca2095290bcca6fa2463d958"),
        "exact_power": (["exact", "--dim", "1", "--dist", "power:beta=1.5", "--p", "0.6",
                         "--k", "2", "--sites", "1,7,60", "--method", "dp,closedForm",
                         "--seed", "24"],
                        "b74022e64de3c24faf8fa49685f5615dbdcfdc63b4275f71f8975a4757a43b00"),
        "exact_pareto": (["exact", "--dim", "1", "--dist", "pareto:alpha=3", "--p", "0.4",
                          "--k", "3", "--sites", "2,9,200", "--seed", "25"],
                         "12ccbbdb1c91506c761200101a36bac77efd7ca9d89be1380ae3bf60ba1303ba"),
        "exact_geom": (["exact", "--dim", "1", "--dist", "geom:q=0.6", "--p", "0.7", "--k", "1",
                        "--sites", "1,5,30", "--method", "dp,closedForm", "--seed", "26"],
                       "896b0bcef30e3a3699472dbe2b7318a881a4624cb42af2a302a1b3abc48f6b71"),
        "exact_trunc": (["exact", "--dim", "2", "--dist", "trunc:pareto:alpha=2:cap=3",
                         "--p", "0.5", "--k", "3", "--sites", "2,3;5,5", "--seed", "27"],
                        "4c61930371b2ad32cc015d67190d2a282e927a929adde301a98ef005118add02"),
        "exact_p0": (["exact", "--dim", "2", "--dist", "pareto:alpha=4", "--p", "0", "--k", "2",
                      "--sites", "3,3", "--method", "dp,paperEq11", "--seed", "28"],
                     "ec51558ed44059a72a8634241f837bf6b5f268d5aa595077fe6daf71a35baa12"),
        "exact_p1": (["exact", "--dim", "1", "--dist", "const:r=1", "--p", "1", "--k", "2",
                      "--sites", "1,2,5", "--method", "dp,closedForm", "--seed", "29"],
                     "7142682ba733d77e660cb70f8df34e15015e8e7575330509dbd56cb39a5e0404"),
        "diagnose_k1": (["diagnose", "--dist", "geom:q=0.5", "--p", "0.5", "--k", "1",
                         "--imin", "3", "--imax", "400", "--seed", "30"],
                        "26cf371259d9f25a8f1af3ec934eb6e306ee8c6eb212a33d73e45b4f135481b7"),
        "diagnose_k3": (["diagnose", "--dist", "power:beta=1.5", "--p", "0.4", "--k", "3",
                         "--imin", "1", "--imax", "300", "--seed", "31"],
                        "c0402c39a0678d852a06e76eee0813e30ac56ff46c9d43a4f0500c859dc3f1e4"),
        "tiny0": (["simulate", "--dim", "1", "--dist", "const:r=2", "--p", "0.2", "--k", "2",
                   "--n", "8", "--sites", "2,5,8", "--trials", "500", "--seed", "40"],
                  "4d6a0de7a81c15aa2a45bf6f06c1942777e78fb8276bc1b9ddae3e4e253e00e7"),
        "tiny1": (["simulate", "--dim", "1", "--dist", "const:r=2", "--p", "0.5", "--k", "2",
                   "--n", "8", "--sites", "2,5,8", "--trials", "500", "--seed", "41"],
                  "c2f34900c65a648612fca1c9b4321b42919de9b758717c4aaa4c7bc59e90eb1d"),
        "tiny2": (["simulate", "--dim", "1", "--dist", "const:r=2", "--p", "0.8", "--k", "2",
                   "--n", "8", "--sites", "2,5,8", "--trials", "500", "--seed", "42"],
                  "b9d3209fc8a7de3408b2c60d9f0410d3a56351abba5a24f4b5fcad10b6783e06"),
        "tiny3": (["simulate", "--dim", "1", "--dist", "geom:q=0.5", "--p", "0.6", "--k", "1",
                   "--n", "10", "--sites", "3,7,10", "--trials", "500", "--seed", "43"],
                  "dd55228f8426947b1eead3384503121cf8f5a3dd1d6183fd93116b85c8845df4"),
        "tiny4": (["simulate", "--dim", "2", "--dist", "const:r=1", "--p", "0.3", "--k", "2",
                   "--n", "4", "--sites", "2,2;3,2;4,4", "--trials", "500", "--seed", "44"],
                  "7b5b730df87c30c4b73d1ebcc5b88d42782c4dcfa50253e05096c98ffb3153e6"),
        "tiny5": (["simulate", "--dim", "2", "--dist", "const:r=1", "--p", "0.6", "--k", "2",
                   "--n", "4", "--sites", "2,2;3,2;4,4", "--trials", "500", "--seed", "45"],
                  "a109be7da9ae0ea70d5d4a00e63534dc1d2cc905e91196680d8aedef64c2e0ff"),
        "tiny6": (["simulate", "--dim", "2", "--dist", "geom:q=0.5", "--p", "0.5", "--k", "2",
                   "--n", "3", "--sites", "2,3;3,3", "--trials", "500", "--seed", "46"],
                  "1bf18fe6ae968a634863f6b12324e484133f7f1fc0ff4d5e3d76f3b392864d83"),
        "fire_init_pareto": (["simulate", "--dim", "1", "--dist", "pareto:alpha=4", "--p",
                              "0.3", "--k", "2", "--n", "20", "--initiators", "--sites",
                              "1,5,20", "--trials", "300", "--seed", "50"],
                             "4cc5e53c24b2932351cbf721e6ecd3438c09b78b862b827cbfdf9aacd91612c4"),
        "fire_trunc": (["simulate", "--dim", "1", "--dist", "trunc:pareto:alpha=2:cap=3",
                        "--p", "0.5", "--k", "2", "--n", "30", "--sites", "2,30", "--trials",
                        "300", "--seed", "51"],
                       "b70b576c5f224651ccfb9ec568a17e654ceedeee008fc5c4a5b3fa7116e2d9c9"),
        "fire_p_edges": (["scan", "--dim", "1", "--dist", "const:r=0", "--p-grid", "0,0.5,1",
                          "--k", "1", "--n", "10", "--trials", "30", "--seed", "52"],
                         "3c95d89ecf7ca923cd405e8063e42d8531f250d5411d9063d222aecf2f5af1dd"),
        "cap_1d": (["simulate", "--dim", "1", "--dist", "geom:q=0.5", "--p", "0.6", "--k", "2",
                    "--n", "256", "--sites", "1,256", "--trials", "60", "--seed", "53"],
                   "19998c541d3dcf9aab33f157208fb491e379da40ccae1a89c166e0c555018868"),
        "over_cap_1d": (["simulate", "--dim", "1", "--dist", "geom:q=0.5", "--p", "0.6", "--k",
                         "2", "--n", "257", "--sites", "1,257", "--trials", "60", "--seed",
                         "54"],
                        "716a819fac089360c358d1055c4b19422d95fe86faf48a7f2d106c0cb1b23c11"),
        "cap_2d": (["simulate", "--dim", "2", "--dist", "power:beta=1.5", "--p", "0.4", "--k",
                    "1", "--n", "16", "--sites", "1,1;16,16", "--trials", "40", "--seed", "55"],
                   "d0f642095d9ee4a19f2542bd078e5b15290f4fe16c593aad2216b3d4eaf278f3"),
        "over_cap_2d": (["simulate", "--dim", "2", "--dist", "power:beta=1.5", "--p", "0.4",
                         "--k", "1", "--n", "17", "--sites", "1,1;17,17", "--trials", "40",
                         "--seed", "56"],
                        "890eb95a89e33283e442e559ba41e9e0e00178d8564d503434b0deff921da061"),
        # the per-trial firework path (windows over the batch cap): initiators,
        # a beta grid, and a window drawn in two RNG chunks
        "fire_init_big": (["simulate", "--dim", "1", "--dist", "pareto:alpha=4", "--p", "0.3",
                           "--k", "2", "--n", "300", "--initiators", "--sites", "1,300",
                           "--trials", "40", "--seed", "58"],
                          "16b58a3c5a1612301009fb4769ec1f33ff8168ffe9be972c2e65e64aba10bec0"),
        "beta_grid_1d": (["scan", "--dim", "1", "--beta-grid", "0.8,1.5", "--p", "0.4", "--n",
                          "300", "--trials", "6", "--seed", "57"],
                         "3940433c7a12bd853f0e4c82f6b665ba0830c90736e975a2765015d4d8fb5e25"),
        "fire_two_chunks": (["simulate", "--dim", "1", "--dist", "geom:q=0.5", "--p", "0.5",
                             "--k", "2", "--n", "4500000", "--sites", "1,4500000", "--trials",
                             "2", "--seed", "59"],
                            "bc5400dd25703c7e9cc0858ecd3577b32d69411dfd0c00f83c686bf3421fc291"),
    }

    SMALL_WINDOWS = [*(f"tiny{i}" for i in range(7)), "fire_init_pareto", "fire_trunc",
                     "fire_p_edges", "cap_1d", "over_cap_1d", "cap_2d", "over_cap_2d"]

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_scan_2d_bytes(self, name, tmp_path):
        self.check(name, tmp_path, [])

    # the continuum trials run on the shared trial engine: same bytes in a pool
    @pytest.mark.parametrize("name", ["continuum_1d", "continuum_2d", "l1d", "l2d"])
    def test_continuum_bytes_at_two_workers(self, name, tmp_path):
        self.check(name, tmp_path, ["--workers", "2"])

    # small firework windows run their trials in batches, chunked per worker
    @pytest.mark.parametrize("name", SMALL_WINDOWS)
    def test_small_windows_at_two_workers(self, name, tmp_path):
        self.check(name, tmp_path, ["--workers", "2"])

    # every point of a p scan runs in one pool
    @pytest.mark.parametrize("name", ["p2d", "p2d_small", "p2d_rev", "p1d"])
    def test_p_grids_at_two_workers(self, name, tmp_path):
        self.check(name, tmp_path, ["--workers", "2"])

    # larger firework windows count each realized trial through the same body
    @pytest.mark.parametrize("name", ["fire_init_big", "beta_grid_1d", "fire_two_chunks"])
    def test_per_trial_windows_at_two_workers(self, name, tmp_path):
        self.check(name, tmp_path, ["--workers", "2"])

    # SHA-256 of the SVG as written by rumourlab 0.1.0 before the polyline's
    # points were computed on float64 arrays; 0.2.0 writes the same bytes
    SVG = {
        "diagnose": "c6e52ec1b233708b97b5e5399de7237af5bd14bf60c77a8e2c1581ff1d1a90a6",
        "p2d": "de7694814efcc3ec585b20ffddb90ab175843ce945d08a4fd1e5b34a129b8661",
        "simulate_rev1d": "dc98a9f56e8c4671856068a8c2c86924fbd8515909e93b53319818796cf382cf",
        "exact": "c461b5e46c66fc9158bf4e3fbbd9092e1f203f07de83824341ed8b00cbea5f50",
    }

    # the diagnose rows are written from the series' columns, a block at a time
    @pytest.mark.parametrize("name", ["diagnose", "diagnose_k1", "diagnose_k3"])
    def test_diagnose_bytes_at_two_workers(self, name, tmp_path):
        self.check(name, tmp_path, ["--workers", "2"])

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(SVG))
    def test_svg_bytes(self, name, workers, tmp_path):
        base = tmp_path / name
        assert main([*self.SPECS[name][0], "--workers", workers, "--svg", "--out", str(base)]) == 0
        assert hashlib.sha256(base.with_suffix(".svg").read_bytes()).hexdigest() == self.SVG[name]

    def check(self, name, tmp_path, extra):
        args, digest = self.SPECS[name]
        base = tmp_path / name
        assert main([*args, *extra, "--csv", "--json", "--out", str(base)]) == 0
        data = base.with_suffix(".csv").read_bytes() + base.with_suffix(".json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib, which the oldest Python that pyproject admits lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M)[1] == rumourlab.__version__


class TestHeavyTails:
    # u^(-1/beta) overflows for the smallest uniforms; inf is the right value,
    # so the run must not warn (pytest turns a RuntimeWarning into an error)
    @pytest.mark.parametrize("args", [
        ["simulate", "--dist", "power:beta=0.01", "--p", "0.9", "--n", "300", "--trials", "20"],
        ["continuum", "--dim", "1", "--dist", "power:beta=0.001", "--lambda", "0.5", "--T", "50",
         "--trials", "3"],
    ])
    def test_no_overflow_warning(self, args, capsys):
        assert main([*args, "--seed", "3"]) == 0
        assert "Warning" not in capsys.readouterr().err


class TestPowerLawRadii:
    # G(1) = 1, so every radius is at least 1, however large beta: at p = 1
    # site 3 has two sure covers, and the simulation agrees with the exact value
    @pytest.mark.parametrize("beta", ["50", "1e20", "inf"])
    def test_simulate_agrees_with_exact(self, beta, capsys):
        law = ["--dist", f"power:beta={beta}", "--p", "1", "--k", "2", "--sites", "3", "--seed", "1"]
        assert main(["exact", *law]) == 0
        [row] = capsys.readouterr().out.splitlines()[1:]
        assert main(["simulate", *law, "--n", "5", "--trials", "50"]) == 0
        site = capsys.readouterr().out.splitlines()[1]
        assert row.split(",")[3] == site.split(",")[1] == "0.0"


class TestErrors:
    def test_bad_dist_names_token(self, capsys):
        code = main(["exact", "--dim", "1", "--dist", "pareto:a=4", "--p", "0.5",
                     "--sites", "2", "--seed", "1"])
        assert code == 2
        assert "a=4" in capsys.readouterr().err

    def test_io_error(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        code = main(["exact", "--dim", "1", "--dist", "const:r=1", "--p", "0.5",
                     "--sites", "2", "--seed", "1", "--csv",
                     "--out", str(blocker / "nested" / "base")])
        assert code == 4

    def test_missing_out_with_format(self):
        code = main(["exact", "--dim", "1", "--dist", "const:r=1", "--p", "0.5",
                     "--sites", "2", "--seed", "1", "--csv"])
        assert code == 2


class TestOutputs:
    def _exact_args(self, extra=()):
        return ["exact", "--dim", "1", "--dist", "const:r=1", "--p", "0.5",
                "--k", "2", "--sites", "2,3,4", "--seed", "11", *extra]

    def test_files_written(self, tmp_path):
        base = tmp_path / "run"
        code = main(self._exact_args(["--csv", "--json", "--svg", "--out", str(base)]))
        assert code == 0
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "run.json").exists()
        assert (tmp_path / "run.svg").exists()

    def test_svg_of_one_huge_scan_parameter(self, tmp_path, capsys):
        # one beta of 1e17 is a constant x past 2^53, where +1.0 cannot widen the axis
        base = tmp_path / "huge"
        assert main(["scan", "--beta-grid", "1e17", "--p", "0.5", "--n", "5", "--trials", "2",
                     "--seed", "1", "--svg", "--out", str(base)]) == 0
        svg = base.with_suffix(".svg").read_text()
        assert '<polyline points="70.00,' in svg and ">2e+17</text>" in svg
        assert "Traceback" not in capsys.readouterr().err

    def test_stdout_is_the_csv_file(self, tmp_path, capsys):
        # three blocks of rows, to stdout and to a file
        argv = ["diagnose", "--dist", "geom:q=0.9", "--p", "0.7", "--k", "2", "--imin", "2",
                "--imax", "40000", "--seed", "1"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert main([*argv, "--csv", "--out", str(tmp_path / "d")]) == 0
        assert stdout == (tmp_path / "d.csv").read_text()
        assert stdout.count("\n") == 40000

    def test_diagnose_traced_peak(self, tmp_path):
        # the diagnose rows are columns written a block at a time: at --imax
        # 1e5 with every format the traced peak was 40242689 bytes when each
        # site had a row list and each format one whole string
        tracemalloc.start()
        try:
            assert main(["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5", "--k", "2",
                         "--imax", "100000", "--seed", "1", "--csv", "--json", "--svg",
                         "--out", str(tmp_path / "d")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13_000_000

    def test_svg_only_when_requested(self, tmp_path):
        base = tmp_path / "run2"
        main(self._exact_args(["--csv", "--out", str(base)]))
        assert not (tmp_path / "run2.svg").exists()

    def test_json_round_trip(self, tmp_path):
        base = tmp_path / "rt"
        main(self._exact_args(["--json", "--out", str(base)]))
        text = (tmp_path / "rt.json").read_text()
        result = parse_result_json(text)
        assert render_json(result) == text
        doc = json.loads(text)
        assert doc["wallTimeMs"] is None
        assert set(doc) == {"spec", "version", "columns", "rows", "clampCount", "wallTimeMs"}

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(self._exact_args(["--csv", "--json", "--out", str(a)]))
        main(self._exact_args(["--csv", "--json", "--out", str(b)]))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestSpecRoundTrip:
    def test_lossless(self):
        spec = ExperimentSpec(
            subcommand="scan", seed=5, dim=2, model="reverseFirework",
            dist="power:beta=0.5", p=0.5, k=2, n=100, trials=7,
            p_grid=(0.1, 0.2), methods=("dp", "oracle"),
        )
        again = ExperimentSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert again == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_json_dict({"subcommand": "exact", "seed": 1, "bogus": 2})

    def test_result_equality_ignores_wall_time(self):
        spec = ExperimentSpec(subcommand="exact", seed=1)
        a = ExperimentResult(spec, "0.1.0", ["x"], [[1]], 0, wall_time_ms=5.0)
        b = ExperimentResult(spec, "0.1.0", ["x"], [[1]], 0, wall_time_ms=None)
        assert a == b


_LAWS = ["const:r=1", "const:r=3", "pareto:alpha=4", "power:beta=1.5", "geom:q=0.5",
         "trunc:pareto:alpha=2:cap=3", "trunc:geom:q=0.5:cap=2"]
_P = st.one_of(st.sampled_from(["0", "0.3", "1"]), st.floats(-0.5, 1.5).map(repr))


@st.composite
def exact_argv(draw):
    dim = draw(st.sampled_from([1, 2]))
    coords = st.integers(1, 12)
    if dim == 1:
        sites = ",".join(str(draw(coords)) for _ in range(draw(st.integers(1, 3))))
    else:
        sites = ";".join(f"{draw(coords)},{draw(coords)}" for _ in range(draw(st.integers(1, 3))))
    methods = draw(st.lists(st.sampled_from(["closedForm", "dp", "paperEq11", "oracle"]),
                            min_size=1, unique=True))
    flags = draw(st.lists(st.sampled_from(["--initiators", "--allow-paper-formula-divergence"]),
                          unique=True))
    return ["exact", "--dim", str(dim), "--dist", draw(st.sampled_from(_LAWS)), "--p", draw(_P),
            "--k", str(draw(st.integers(1, 5))), "--sites", sites, "--method", ",".join(methods),
            *flags]


@st.composite
def diagnose_argv(draw):
    i_max = draw(st.integers(1, 2000))
    return ["diagnose", "--dist", draw(st.sampled_from(_LAWS)), "--p", draw(_P),
            "--k", str(draw(st.integers(1, 5))), "--imin", str(draw(st.integers(1, i_max))),
            "--imax", str(i_max)]


class TestExactAndDiagnoseProperty:
    """Any small exact or diagnose request ends in one of the documented exit codes,
    with at most one error line and no traceback."""

    @given(st.one_of(exact_argv(), diagnose_argv()))
    @example(["exact", "--dim", "2", "--dist", "const:r=1", "--p", "1", "--k", "2",
              "--sites", "2,2", "--method", "paperEq11"])
    @settings(max_examples=300, deadline=None)
    def test_exit_codes_and_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--seed", "1"])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("error:") <= 1


@st.composite
def simulate_argv(draw):
    dim = draw(st.sampled_from([1, 2]))
    # 1D windows around the batch cap of 256 cells; 2D ones around 16x16
    n = draw(st.one_of(st.integers(1, 20), st.integers(250, 260))) if dim == 1 else \
        draw(st.integers(1, 18))
    argv = ["--dim", str(dim), "--model", draw(st.sampled_from(["firework", "reverse"])),
            "--dist", draw(st.sampled_from(_LAWS)), "--k", str(draw(st.integers(1, 4))),
            "--n", str(n), "--cushion", str(draw(st.integers(1, 3))),
            "--trials", str(draw(st.integers(-1, 12))),
            "--workers", str(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        argv.append("--initiators")
    if draw(st.booleans()):
        grid = ",".join(draw(st.lists(_P, min_size=1, max_size=3)))
        return ["scan", *argv, f"--p-grid={grid}"]
    argv = ["simulate", *argv, "--p", draw(_P)]
    if draw(st.booleans()):
        coords = st.integers(0, n + 1)
        sites = [draw(coords) if dim == 1 else f"{draw(coords)},{draw(coords)}"
                 for _ in range(draw(st.integers(1, 3)))]
        argv += ["--sites", (",", ";")[dim - 1].join(map(str, sites))]
    return argv


class TestSimulateAndScanProperty:
    """Any small simulate or p-grid scan request, batched or per trial and at any
    --workers (pools run inline), ends in a documented exit code with at most
    one error line and no traceback."""

    @given(simulate_argv())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_codes_and_one_error_line(self, inline_pools, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--seed", "1"])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("error:") <= 1


_CONT_LAWS = ["const:r=0.5", "const:r=3", "pareto:alpha=4", "pareto:alpha=0.5", "power:beta=1.5",
              "geom:q=0.5"]


def _mostly_positive(lo, hi):
    """Positive floats up to hi, with a bad value one draw in five."""
    good = st.floats(lo, hi).map(repr)
    return st.one_of(good, good, good, good, st.sampled_from(["0", "-1", "inf", "nan"]))


_POSITIVE = _mostly_positive(1e-3, 30.0)


@st.composite
def continuum_argv(draw):
    dim = draw(st.sampled_from([1, 2]))
    argv = ["--dim", str(dim), "--dist", draw(st.sampled_from(_CONT_LAWS)),
            "--T", draw(_POSITIVE), "--k", str(draw(st.integers(0, 4))),
            "--trials", str(draw(st.integers(0, 6))), "--workers", str(draw(st.integers(1, 4)))]
    if dim == 2:
        argv += ["--resolution", draw(_mostly_positive(0.25, 4.0))]
    if draw(st.booleans()):
        return ["continuum", *argv, "--lambda", draw(_POSITIVE)]
    grid = ",".join(draw(st.lists(_POSITIVE, min_size=1, max_size=3)))
    return ["scan", *argv, f"--lambda-grid={grid}"]


@st.composite
def beta_scan_argv(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 40)) if dim == 1 else draw(st.integers(1, 8))
    betas = _mostly_positive(0.05, 5.0)
    argv = ["scan", "--dim", str(dim), "--model", draw(st.sampled_from(["firework", "reverse"])),
            "--p", draw(st.one_of(_P, st.floats(0.0, 1.0).map(repr))),
            "--k", str(draw(st.integers(1, 4))), "--n", str(n),
            "--cushion", str(draw(st.integers(1, 3))), "--trials", str(draw(st.integers(0, 6))),
            "--workers", str(draw(st.integers(1, 4))),
            f"--beta-grid={','.join(draw(st.lists(betas, min_size=1, max_size=3)))}"]
    if draw(st.booleans()):
        argv.append("--initiators")
    return argv


class TestContinuumAndGridScanProperty:
    """Any small continuum request or lambda/beta-grid scan, at any --workers
    (pools run inline), ends in a documented exit code with at most one error
    line and no traceback."""

    @given(st.one_of(continuum_argv(), beta_scan_argv()))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_codes_and_one_error_line(self, inline_pools, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--seed", "1"])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("error:") <= 1
