"""Acceptance criteria, one test per criterion.

Each test prints a PASS line (visible with pytest -s / -rP) and enforces
both the stated tolerance and the stated runtime budget.
"""

import itertools
import time

import numpy as np
import pytest

from rumourlab.cli import main
from rumourlab.continuum import ContinuumConfig, scan_lambda
from rumourlab.distributions import Constant, Geometric, ParetoTail, PowerTail, Truncated
from rumourlab.exact import (
    ExactQuery,
    enumeration_oracle,
    series_diagnostics,
    uncovered_prob_2d,
    undercovered_prob_1d,
    undercovered_prob_1d_closed_form,
    undercovered_prob_2d_exact,
    undercovered_prob_2d_paper,
)
from rumourlab.lattice import (
    FIREWORK,
    REVERSE,
    LatticeConfig,
    estimate_under_coverage,
    firework_counts,
    realize,
    reverse_membership,
)
from rumourlab.stats import mix64


class _Budget:
    def __init__(self, criterion: int, seconds: float, summary: str):
        self.criterion = criterion
        self.seconds = seconds
        self.summary = summary

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.1f}s) - {self.summary}")
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget: {elapsed:.1f}s"
            )
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL ({elapsed:.1f}s) - {self.summary}")
        return False


def test_criterion_01_oracle_equivalence_1d():
    dists = [(Constant(1), 1), (Constant(2), 2), (Truncated(Geometric(0.5), 6), 6)]
    with _Budget(1, 10.0, "1D DP equals enumeration oracle on the full desk grid"):
        checked = 0
        for (dist, support_cap), i, p, k in itertools.product(
            dists, range(1, 9), (0.2, 0.5, 0.9), (1, 2, 3)
        ):
            q = ExactQuery(1, i, p, k, dist)
            cap = max(support_cap, i - 1)
            want = enumeration_oracle(q, cap)
            got = undercovered_prob_1d(q)
            assert abs(got - want) <= 1e-12, (dist, i, p, k, got, want)
            checked += 1
        assert checked == 216


def test_criterion_02_closed_form_vs_dp():
    families = [ParetoTail(4), Geometric(0.5), PowerTail(1.5)]
    ps = (0.1, 0.3, 0.5, 0.7, 0.9)
    with _Budget(2, 5.0, "k=2 closed form equals the count DP for i <= 200"):
        for dist, p, i in itertools.product(families, ps, range(1, 201)):
            q = ExactQuery(1, i, p, 2, dist)
            a = undercovered_prob_1d_closed_form(q)
            b = undercovered_prob_1d(q)
            assert abs(a - b) <= 1e-10, (dist, p, i, a, b)


def test_criterion_03_2d_oracle_and_divergence(tmp_path):
    with _Budget(3, 1.0, "2D worked example: DP 5/16, plain 1/16, printed 3/16 flagged"):
        q = ExactQuery(2, (2, 2), 0.5, 2, Constant(1))
        assert undercovered_prob_2d_exact(q) == 0.3125
        assert uncovered_prob_2d(ExactQuery(2, (2, 2), 0.5, 1, Constant(1))) == pytest.approx(
            0.0625, abs=1e-12
        )
        assert undercovered_prob_2d_paper(q) == pytest.approx(0.1875, abs=1e-12)
        argv = ["exact", "--dim", "2", "--dist", "const:r=1", "--p", "0.5", "--k", "2",
                "--sites", "2,2", "--method", "paperEq11", "--seed", "1"]
        assert main(argv) == 3  # divergence flagged
        assert main(argv + ["--allow-paper-formula-divergence"]) == 0


def test_criterion_04_monte_carlo_calibration():
    grid = [
        # (dim, dist, k, p, sites)
        (1, Constant(2), 2, 0.2, [2, 5, 8]),
        (1, Constant(2), 2, 0.5, [2, 5, 8]),
        (1, Constant(2), 2, 0.8, [2, 5, 8]),
        (1, Geometric(0.5), 1, 0.6, [3, 7, 10]),
        (2, Constant(1), 2, 0.3, [(2, 2), (3, 2), (4, 4)]),
        (2, Constant(1), 2, 0.6, [(2, 2), (3, 2), (4, 4)]),
        (2, Geometric(0.5), 2, 0.5, [(2, 3), (3, 3)]),
    ]
    trials = 10**5
    with _Budget(4, 120.0, "99% Wilson intervals cover exact values on >= 19/20 points"):
        covered = 0
        total = 0
        for dim, dist, k, p, sites in grid:
            n = max(max(s) if dim == 2 else s for s in sites)
            config = LatticeConfig(dim, FIREWORK, p, k, n, dist, seed=mix64(404, total))
            estimates = estimate_under_coverage(config, sites, trials)
            for est in estimates:
                q = ExactQuery(dim, est.site, p, k, dist)
                exact_val = (
                    undercovered_prob_1d(q) if dim == 1 else undercovered_prob_2d_exact(q)
                )
                total += 1
                if est.ci_low <= exact_val <= est.ci_high:
                    covered += 1
        assert total == 20
        assert covered >= 19, f"only {covered}/20 intervals covered the exact value"


def test_criterion_05_proposition1_dichotomy():
    with _Budget(5, 60.0, "series converges at p=0.5, diverges like n^0.2 at p=0.2"):
        # (a) supercritical: partial sums flatten
        diag_a = series_diagnostics(0.5, ParetoTail(4), 2, 1, 100_000)
        assert diag_a.growth_ratio < 1.01
        # (b) subcritical at k=1: doubling ratio 2^0.2
        diag_b = series_diagnostics(0.2, ParetoTail(4), 1, 1, 100_000)
        assert diag_b.growth_ratio == pytest.approx(2**0.2, abs=0.02)
        # (c) decay exponent -p*alpha at k=1
        diag_c = series_diagnostics(0.5, ParetoTail(4), 1, 1, 100_000)
        assert diag_c.decay_exponent == pytest.approx(-2.0, abs=0.1)


def test_criterion_06_proposition2_dichotomy():
    with _Budget(6, 120.0, "reverse 1D: infinite-mean radii fill the sceptic region"):
        # infinite mean: almost every site is doubly reachable
        cfg = LatticeConfig(1, REVERSE, 0.5, 2, 10_000, PowerTail(0.5),
                            seed=606, cushion=10, include_initiators=True)
        member = reverse_membership(realize(cfg), 2)
        assert member.values.mean() >= 0.99
        # finite mean: plain coverage misses a positive density of sites
        counts = {}
        for n in (1_000, 10_000):
            cfg = LatticeConfig(1, REVERSE, 0.5, 2, n, PowerTail(1.5),
                                seed=mix64(607, n), cushion=10, include_initiators=True)
            plain = reverse_membership(realize(cfg), 0)  # k=0: the covered set
            counts[n] = int((plain.values == 0).sum())
        assert counts[10_000] >= 5 * counts[1_000], counts


def test_criterion_07_proposition3_2d_regime():
    with _Budget(7, 180.0, "2D firework at tiny p: far-window deficit shrinks below 1%"):
        fractions = []
        for n in (200, 400, 800):
            vals = []
            for s in range(20):
                cfg = LatticeConfig(2, FIREWORK, 0.05, 2, n, ParetoTail(4),
                                    seed=mix64(707, n, s))
                counts = firework_counts(realize(cfg))
                window = counts.values[49:, 49:]  # sites [50, n]^2
                vals.append(float((window < 2).mean()))
            fractions.append(sum(vals) / len(vals))
        assert fractions[0] >= fractions[1] >= fractions[2], fractions
        assert fractions[2] < 0.01, fractions


@pytest.mark.slow
def test_criterion_08_proposition4_dimension_contrast():
    with _Budget(8, 180.0, "finite mean, infinite square: reverse fails in 1D, fills 2D"):
        d1_fracs = []
        d2_fracs = []
        for s in range(10):
            cfg1 = LatticeConfig(1, REVERSE, 0.5, 2, 2000, PowerTail(1.5),
                                 seed=mix64(808, 1, s), cushion=5, include_initiators=True)
            d1_fracs.append(float(reverse_membership(realize(cfg1), 2).values.mean()))
            cfg2 = LatticeConfig(2, REVERSE, 0.5, 2, 2000, PowerTail(1.5),
                                 seed=mix64(808, 2, s), cushion=5, include_initiators=True)
            member = reverse_membership(realize(cfg2), 2)
            d2_fracs.append(float(np.diagonal(member.values).mean()))
        d1 = sum(d1_fracs) / len(d1_fracs)
        d2 = sum(d2_fracs) / len(d2_fracs)
        assert d1 < 0.9, d1_fracs
        assert d2 >= 0.99, d2_fracs


def test_criterion_09_proposition5_bracketing():
    with _Budget(9, 120.0, "continuum 1D deficiency drops from >=0.8 to <=0.2 across lambda"):
        cfg = ContinuumConfig(1, 0.05, 10_000.0, ParetoTail(4), 2, seed=909)
        summaries = scan_lambda(cfg, [0.05, 0.1, 0.25, 0.5, 1.0, 2.0], 50)
        assert summaries[0].mean >= 0.8
        assert summaries[-1].mean <= 0.2
        for a, b in zip(summaries, summaries[1:]):
            assert b.mean <= a.mean or b.ci_low <= a.ci_high, (a.lam, b.lam)


def test_criterion_10_determinism(tmp_path):
    runs = {
        "exact": ["exact", "--dim", "1", "--dist", "const:r=2", "--p", "0.4", "--k", "2",
                  "--sites", "2,5", "--method", "dp,closedForm,oracle", "--seed", "10"],
        "simulate": ["simulate", "--dim", "1", "--model", "reverse", "--dist", "geom:q=0.5",
                     "--p", "0.5", "--k", "2", "--n", "50", "--cushion", "4",
                     "--trials", "40", "--sites", "3,10", "--seed", "11"],
        "scan": ["scan", "--dim", "1", "--dist", "pareto:alpha=4", "--p-grid", "0.2,0.5,0.8",
                 "--k", "2", "--n", "60", "--trials", "6", "--seed", "12"],
        "diagnose": ["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5", "--k", "2",
                     "--imin", "1", "--imax", "500", "--seed", "13"],
        "continuum": ["continuum", "--dim", "2", "--dist", "pareto:alpha=4",
                      "--lambda", "0.5", "--T", "50", "--resolution", "0.5", "--k", "2",
                      "--trials", "5", "--seed", "14"],
    }
    with _Budget(10, 60.0, "every subcommand is byte-identical across reruns and workers"):
        for name, argv in runs.items():
            outputs = []
            for tag, workers in (("a", 1), ("b", 2), ("c", 1)):
                base = tmp_path / f"{name}_{tag}"
                code = main(argv + ["--workers", str(workers), "--csv", "--json",
                                    "--out", str(base)])
                assert code == 0, (name, tag)
                outputs.append(
                    (base.with_suffix(".csv").read_bytes(), base.with_suffix(".json").read_bytes())
                )
            assert outputs[0] == outputs[1] == outputs[2], f"{name} not deterministic"
