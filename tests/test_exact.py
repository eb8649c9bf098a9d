import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourlab import exact
from rumourlab.distributions import Constant, Geometric, ParetoTail, PowerTail, Truncated
from rumourlab.exact import (
    EnumerationBoundError,
    ExactQuery,
    LossyTruncationError,
    PaperFormulaDivisionError,
    enumeration_oracle,
    poisson_binomial_fewer_than,
    series_diagnostics,
    shell_multiplicity_2d,
    uncovered_prob_1d,
    uncovered_prob_2d,
    undercovered_prob_1d,
    undercovered_prob_1d_closed_form,
    undercovered_prob_2d_exact,
    undercovered_prob_2d_paper,
)

C1 = Constant(1)


def brute_force_fewer_than(probs, k):
    """Independent check: full convolution of the count distribution."""
    pmf = [1.0]
    for p in probs:
        nxt = [0.0] * (len(pmf) + 1)
        for c, mass in enumerate(pmf):
            nxt[c] += mass * (1 - p)
            nxt[c + 1] += mass * p
        pmf = nxt
    return sum(pmf[:k])


class TestPoissonBinomial:
    def test_examples(self):
        assert poisson_binomial_fewer_than([], 1) == 1.0
        assert poisson_binomial_fewer_than([0.5, 0.5], 2) == 0.75
        assert poisson_binomial_fewer_than([1.0], 1) == 0.0

    @given(
        st.lists(st.floats(0.0, 1.0), max_size=12),
        st.integers(1, 5),
    )
    @settings(max_examples=100)
    def test_matches_convolution(self, probs, k):
        got = poisson_binomial_fewer_than(probs, k)
        want = brute_force_fewer_than(probs, k)
        assert got == pytest.approx(want, abs=1e-12)


    @given(st.lists(st.floats(0.0, 1.0), max_size=12), st.integers(1, 20))
    def test_capped_list_gives_the_same_bits(self, probs, k):
        # the DP list stops at len(probs) + 1 entries; a k-long list gives the same bits
        dp = [0.0] * k
        dp[0] = 1.0
        for c in probs:
            for idx in range(k - 1, 0, -1):
                dp[idx] = dp[idx] * (1.0 - c) + dp[idx - 1] * c
            dp[0] *= 1.0 - c
        assert poisson_binomial_fewer_than(probs, k) == math.fsum(dp)
        if k > len(probs):
            assert poisson_binomial_fewer_than(probs, k) == poisson_binomial_fewer_than(
                probs, len(probs) + 1)


class TestUncovered1D:
    def test_examples(self):
        assert uncovered_prob_1d(ExactQuery(1, 1, 0.5, 1, ParetoTail(4))) == 0.5
        assert uncovered_prob_1d(ExactQuery(1, 3, 0.5, 1, C1)) == pytest.approx(0.25)
        assert uncovered_prob_1d(ExactQuery(1, 5, 1.0, 1, Constant(10))) == 0.0

    def test_no_spurious_underflow(self):
        # true value ~ 1e-10; the log-space product must stay positive
        q = ExactQuery(1, 10**5, 0.5, 1, ParetoTail(4))
        v = uncovered_prob_1d(q)
        assert 0.0 < v < 1e-8


class TestUndercovered1D:
    def test_worked_example(self):
        assert undercovered_prob_1d(ExactQuery(1, 3, 0.5, 2, C1)) == pytest.approx(0.75)

    def test_k1_reduces_to_uncovered(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            i = int(rng.integers(1, 40))
            p = float(rng.random())
            dist = [ParetoTail(3), Geometric(0.6), PowerTail(1.2)][int(rng.integers(3))]
            q = ExactQuery(1, i, p, 1, dist)
            assert undercovered_prob_1d(q) == pytest.approx(uncovered_prob_1d(q), abs=1e-12)

    def test_single_source_cannot_double_cover(self):
        assert undercovered_prob_1d(ExactQuery(1, 1, 0.9, 2, C1)) == 1.0

    def test_initiators_lower_the_probability(self):
        q0 = ExactQuery(1, 3, 0.5, 2, Constant(5))
        q1 = ExactQuery(1, 3, 0.5, 2, Constant(5), include_initiators=True)
        assert undercovered_prob_1d(q1) < undercovered_prob_1d(q0)

    def test_initiators_against_oracle(self):
        for i, p, k in itertools.product((1, 2, 4), (0.3, 0.8), (1, 2, 3)):
            q = ExactQuery(1, i, p, k, Constant(2), include_initiators=True)
            want = enumeration_oracle(q, max(2, i + 1))
            assert undercovered_prob_1d(q) == pytest.approx(want, abs=1e-12)


class TestClosedFormK2:
    def test_matches_dp_small(self):
        for i, p in itertools.product(range(1, 12), (0.2, 0.5, 0.9)):
            q = ExactQuery(1, i, p, 2, C1)
            assert undercovered_prob_1d_closed_form(q) == pytest.approx(
                undercovered_prob_1d(q), abs=1e-12
            )

    def test_matches_dp_across_families(self):
        dists = [ParetoTail(4), Geometric(0.5), PowerTail(1.5)]
        for dist, p in itertools.product(dists, (0.1, 0.5, 0.99)):
            for i in (1, 7, 60, 200):
                q = ExactQuery(1, i, p, 2, dist)
                assert undercovered_prob_1d_closed_form(q) == pytest.approx(
                    undercovered_prob_1d(q), abs=1e-10
                )

    def test_degenerate_p1(self):
        # p=1 makes g(l)=0 for small l; the lone-zero bookkeeping must hold
        for i in (1, 2, 3, 6):
            q = ExactQuery(1, i, 1.0, 2, C1)
            assert undercovered_prob_1d_closed_form(q) == pytest.approx(
                undercovered_prob_1d(q), abs=1e-12
            )


class TestShellMultiplicity:
    def test_examples(self):
        assert shell_multiplicity_2d(2, 2, 0) == 1
        assert shell_multiplicity_2d(2, 2, 1) == 3
        assert shell_multiplicity_2d(5, 2, 3) == 2

    def test_precondition(self):
        with pytest.raises(ValueError):
            shell_multiplicity_2d(2, 3, 1)

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_total_candidates(self, a, b):
        i, j = max(a, b), min(a, b)
        assert sum(shell_multiplicity_2d(i, j, t) for t in range(i + 1)) == i * j


class TestUncovered2D:
    def test_worked_example(self):
        assert uncovered_prob_2d(ExactQuery(2, (2, 2), 0.5, 1, C1)) == pytest.approx(0.0625)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            i, j = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            p = float(rng.random())
            a = uncovered_prob_2d(ExactQuery(2, (i, j), p, 1, Geometric(0.5)))
            b = uncovered_prob_2d(ExactQuery(2, (j, i), p, 1, Geometric(0.5)))
            assert a == pytest.approx(b, abs=1e-15)

    def test_p0(self):
        assert uncovered_prob_2d(ExactQuery(2, (5, 3), 0.0, 1, C1)) == 1.0


class TestPaperFormula2D:
    def test_worked_example(self):
        q = ExactQuery(2, (2, 2), 0.5, 2, C1)
        assert undercovered_prob_2d_paper(q) == pytest.approx(0.1875)
        assert undercovered_prob_2d_exact(q) == pytest.approx(0.3125)

    def test_p0_degenerates_to_one(self):
        assert undercovered_prob_2d_paper(ExactQuery(2, (3, 2), 0.0, 2, C1)) == 1.0

    def test_single_site_agrees_with_dp(self):
        # one candidate source: exactly-one-cover decomposition is exact there
        q = ExactQuery(2, (1, 1), 0.37, 2, Constant(3))
        assert undercovered_prob_2d_paper(q) == pytest.approx(
            undercovered_prob_2d_exact(q), abs=1e-12
        )

    def test_division_by_zero_reported(self):
        with pytest.raises(PaperFormulaDivisionError):
            undercovered_prob_2d_paper(ExactQuery(2, (2, 2), 1.0, 2, C1))


class TestUndercovered2DExact:
    def test_k1_equals_uncovered(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            i, j = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            p = float(rng.random())
            qk1 = ExactQuery(2, (i, j), p, 1, PowerTail(1.5))
            assert undercovered_prob_2d_exact(qk1) == pytest.approx(
                uncovered_prob_2d(qk1), abs=1e-12
            )

    def test_geometric_3x3_against_oracle(self):
        q = ExactQuery(2, (3, 3), 0.3, 2, Geometric(0.5))
        want = enumeration_oracle(q, 2)  # cap 2 covers every displacement
        assert undercovered_prob_2d_exact(q) == pytest.approx(want, abs=1e-12)

    def test_symmetry(self):
        q1 = ExactQuery(2, (7, 3), 0.4, 2, ParetoTail(2))
        q2 = ExactQuery(2, (3, 7), 0.4, 2, ParetoTail(2))
        assert undercovered_prob_2d_exact(q1) == undercovered_prob_2d_exact(q2)


class TestOracle:
    def test_trivial_p1(self):
        assert enumeration_oracle(ExactQuery(1, 1, 1.0, 1, Constant(10)), 10) == 0.0

    def test_2d_worked_example(self):
        q = ExactQuery(2, (2, 2), 0.5, 2, C1)
        assert enumeration_oracle(q, 1) == pytest.approx(0.3125, abs=1e-15)

    def test_bound_enforced(self):
        with pytest.raises(EnumerationBoundError):
            enumeration_oracle(ExactQuery(1, 31, 0.5, 1, C1), 1)

    def test_lossy_truncation_detected(self):
        with pytest.raises(LossyTruncationError):
            enumeration_oracle(ExactQuery(1, 6, 0.5, 1, Geometric(0.5)), 2)

    @pytest.mark.parametrize("q, farthest", [
        (ExactQuery(1, 4, 0.5, 2, Geometric(0.5)), 3),
        (ExactQuery(1, 3, 0.5, 2, Geometric(0.5), include_initiators=True), 4),
        (ExactQuery(2, (2, 3), 0.4, 2, Geometric(0.5)), 2),
    ])
    def test_default_cap_is_the_farthest_displacement(self, q, farthest):
        assert enumeration_oracle(q) == enumeration_oracle(q, farthest)

    @pytest.mark.parametrize("dim, site, initiators", [
        (1, 1, False), (1, 1, True), (1, 7, False), (1, 7, True),
        (2, (1, 1), False), (2, (2, 5), False), (2, (4, 3), False), (2, (6, 6), False),
    ])
    def test_source_extent_matches_the_source_list(self, dim, site, initiators):
        q = ExactQuery(dim, site, 0.5, 2, C1, include_initiators=initiators)
        sources = exact._candidate_sources(q)
        assert exact._source_extent(q) == (len(sources), max(t for _, t in sources))

    def test_budget_checked_before_the_source_list(self, monkeypatch):
        def no_list(q):
            raise AssertionError("built the source list")

        monkeypatch.setattr(exact, "_candidate_sources", no_list)
        with pytest.raises(EnumerationBoundError):
            enumeration_oracle(ExactQuery(2, (1000, 1000), 0.5, 1, C1))

    def test_cap_past_the_memory_budget_refused(self, monkeypatch):
        # one source admits a cap near 2^30; the oracle reads G up to the cap
        # as one array, so a cap whose arrays would pass the budget is refused
        def no_law(self, j):
            raise AssertionError("read G up to the cap")

        monkeypatch.setattr(Truncated, "survival_vec", no_law)
        with pytest.raises(ValueError, match="truncated law at cap"):
            enumeration_oracle(ExactQuery(1, 1, 0.5, 1, C1), 2**29)

    def test_truncation_harmless_when_cap_reaches(self):
        # geometric tails never vanish, but cap >= farthest displacement is lossless
        q = ExactQuery(1, 4, 0.5, 2, Geometric(0.5))
        assert enumeration_oracle(q, 3) == pytest.approx(undercovered_prob_1d(q), abs=1e-12)


class TestMonotonicityAndBounds:
    def test_monotone_in_p_and_site_1d(self):
        ps = [0.1, 0.3, 0.5, 0.7, 0.9]
        for k in (1, 2):
            vals = [undercovered_prob_1d(ExactQuery(1, 6, p, k, ParetoTail(3))) for p in ps]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
            by_i = [undercovered_prob_1d(ExactQuery(1, i, 0.4, k, ParetoTail(3)))
                    for i in range(1, 12)]
            assert all(a >= b - 1e-15 for a, b in zip(by_i, by_i[1:]))

    def test_monotone_in_k(self):
        for i, p in itertools.product((1, 4, 9), (0.2, 0.8)):
            vals = [undercovered_prob_1d(ExactQuery(1, i, p, k, Geometric(0.5)))
                    for k in (1, 2, 3, 4)]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_monotone_2d(self):
        for k in (1, 2):
            vals = [undercovered_prob_2d_exact(ExactQuery(2, (i, i), 0.3, k, PowerTail(1.2)))
                    for i in range(1, 8)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_under_one_bounds_under_two(self):
        for i in range(1, 10):
            q1 = ExactQuery(1, i, 0.6, 1, ParetoTail(2))
            q2 = ExactQuery(1, i, 0.6, 2, ParetoTail(2))
            assert uncovered_prob_1d(q1) <= undercovered_prob_1d(q2) <= 1.0

    def test_deep_2d_product_stays_positive(self):
        # log around -600: far below double-rounding territory, well above 1e-300
        v = uncovered_prob_2d(ExactQuery(2, (150, 150), 0.5, 1, ParetoTail(4)))
        assert 0.0 < v < 1e-200


class TestSeriesDiagnostics:
    def test_decay_exponent_supercritical(self):
        # p*alpha = 2 so the no-cover probability decays like i^-2
        diag = series_diagnostics(0.5, ParetoTail(4), 1, 1, 20_000)
        assert diag.decay_exponent == pytest.approx(-2.0, abs=0.1)

    def test_growth_ratio_subcritical(self):
        # terms ~ i^-0.8, partial sums ~ n^0.2, ratio -> 2^0.2
        diag = series_diagnostics(0.2, ParetoTail(4), 1, 1, 100_000)
        assert diag.growth_ratio == pytest.approx(2**0.2, abs=0.02)

    def test_growth_ratio_convergent(self):
        diag = series_diagnostics(0.5, ParetoTail(4), 1, 1, 50_000)
        assert diag.growth_ratio < 1.01

    def test_geometric_terms_approach_constant(self):
        # geometric radii: the no-cover probability converges to a positive
        # constant (the infinite product), so sums grow linearly and the
        # doubling ratio tends to 2
        diag = series_diagnostics(0.5, Geometric(0.5), 1, 1, 20_000)
        limit = math.prod(1 - 0.5 * 0.5**l for l in range(200))
        assert diag.probs[-1] == pytest.approx(limit, rel=1e-9)
        assert diag.growth_ratio == pytest.approx(2.0, abs=0.01)

    def test_probs_match_pointwise_dp(self):
        diag = series_diagnostics(0.4, PowerTail(1.5), 2, 3, 40)
        for pos, i in enumerate(range(3, 41)):
            want = undercovered_prob_1d(ExactQuery(1, i, 0.4, 2, PowerTail(1.5)))
            assert diag.probs[pos] == want

    @pytest.mark.parametrize("dist", [ParetoTail(4), PowerTail(1.5), Geometric(0.9), Constant(3),
                                      Truncated(ParetoTail(2), 25)],
                             ids=["pareto", "power", "geom", "const", "trunc"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
    def test_probs_equal_exact_dp_bit_for_bit(self, dist, k, p):
        # the series and an exact query read one survival function and one
        # cover stream, so the series' term at site i is exact's dp value
        diag = series_diagnostics(p, dist, k, 1, 200)
        want = [exact.METHODS["dp"](ExactQuery(1, i, p, k, dist)) for i in range(1, 201)]
        assert diag.probs.tolist() == want

    def test_partial_sums_nondecreasing(self):
        diag = series_diagnostics(0.7, ParetoTail(3), 2, 1, 500)
        assert np.all(np.diff(diag.partial_sums) >= 0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            series_diagnostics(0.5, C1, 1, 5, 5)

    @pytest.mark.parametrize("dist", [ParetoTail(4), PowerTail(1.5), Geometric(0.9)])
    def test_cover_chunks_change_no_bit(self, dist, monkeypatch):
        # one chunk of cover probabilities against chunks of 7: the same doubles
        whole = series_diagnostics(0.5, dist, 2, 3, 3000)
        monkeypatch.setattr(exact, "_COVER_CHUNK", 7)
        chunked = series_diagnostics(0.5, dist, 2, 3, 3000)
        assert whole.probs.tobytes() == chunked.probs.tobytes()
        assert whole.partial_sums.tobytes() == chunked.partial_sums.tobytes()
        assert repr((whole.growth_ratio, whole.decay_exponent)) == repr(
            (chunked.growth_ratio, chunked.decay_exponent))


class TestAcceptanceGridSpot:
    """Spot checks of the acceptance criterion 1 grid (full grid runs there)."""

    @pytest.mark.parametrize("dist,cap", [(C1, 1), (Constant(2), 2),
                                          (Truncated(Geometric(0.5), 6), 6)])
    def test_dp_equals_oracle(self, dist, cap):
        for i, p, k in itertools.product((1, 4, 8), (0.2, 0.9), (1, 2, 3)):
            q = ExactQuery(1, i, p, k, dist)
            want = enumeration_oracle(q, max(cap, i - 1))
            assert undercovered_prob_1d(q) == pytest.approx(want, abs=1e-12)
