import json
import os

import pytest

from rumourlab.cli import main
from rumourlab.reporting import (
    ExperimentResult,
    ExperimentSpec,
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


class TestContinuumCmd:
    def test_rows(self, capsys):
        code = main(["continuum", "--dim", "1", "--dist", "pareto:alpha=4",
                     "--lambda", "1.0", "--T", "100", "--k", "2", "--trials", "4",
                     "--seed", "5"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "trial,statistic,witness"
        assert len(out) == 5


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
