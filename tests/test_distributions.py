import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourlab.distributions import (
    Constant,
    DistParseError,
    Geometric,
    ParetoTail,
    PowerTail,
    Truncated,
    TruncatedLawError,
    moment_finite,
    parse_distribution,
    sample_radii,
    sample_radius,
    survival_complement,
    tail,
    tail_functionals,
)
from rumourlab.stats import make_rng


def dist_strategy():
    return st.one_of(
        st.floats(0.1, 20.0).map(ParetoTail),
        st.floats(0.1, 5.0).map(PowerTail),
        st.floats(0.05, 0.95).map(Geometric),
        st.integers(0, 50).map(Constant),
        st.tuples(st.floats(0.1, 5.0), st.integers(0, 30)).map(
            lambda t: Truncated(PowerTail(t[0]), t[1])
        ),
    )


class TestTail:
    def test_pareto_examples(self):
        d = ParetoTail(4)
        assert tail(d, 0) == 1.0
        assert tail(d, 2) == 1.0
        assert tail(d, 8) == 0.5

    def test_family_closed_forms(self):
        assert tail(PowerTail(0.5), 4) == pytest.approx(0.5, rel=1e-15)
        assert tail(Geometric(0.5), 3) == pytest.approx(0.125, rel=1e-15)
        assert tail(Constant(2), 2) == 1.0
        assert tail(Constant(2), 3) == 0.0
        t = Truncated(Geometric(0.5), 4)
        assert tail(t, 4) == pytest.approx(0.5**4)
        assert tail(t, 5) == 0.0

    @given(dist_strategy(), st.integers(0, 10_000))
    def test_monotone_and_bounded(self, d, j):
        g0, g1 = tail(d, j), tail(d, j + 1)
        assert 0.0 <= g1 <= g0 <= 1.0
        assert tail(d, 0) == 1.0

    @given(dist_strategy(), st.floats(0.0, 1.0), st.integers(0, 1000))
    def test_survival_complement_identity(self, d, p, j):
        # complement + p*G == 1 up to one rounding unit
        assert survival_complement(d, p, j) + p * tail(d, j) == pytest.approx(1.0, abs=1e-15)

    def test_survival_complement_examples(self):
        assert survival_complement(ParetoTail(4), 0.5, 8) == 0.75
        assert survival_complement(Geometric(0.3), 0.0, 17) == 1.0
        assert survival_complement(Constant(1), 1.0, 2) == 1.0

    def test_vectorized_matches_scalar(self):
        js = np.arange(0, 50)
        for d in [ParetoTail(3.5), PowerTail(1.2), Geometric(0.7), Constant(5),
                  Truncated(Geometric(0.5), 9)]:
            vec = d.survival_vec(js)
            scal = np.array([d.survival(int(j)) for j in js])
            np.testing.assert_allclose(vec, scal, rtol=1e-15)

    def test_vectorized_quiet_below_one(self):
        # G(j) = 1 for j <= 0; no law may warn there (a NaN from a fractional
        # power of a negative base, an overflow from q ** -3000)
        js = np.arange(-3000, 50)
        for d in [ParetoTail(3.5), PowerTail(0.5), PowerTail(1.0), PowerTail(1.5),
                  Geometric(0.5), Constant(5), Truncated(PowerTail(1.5), 9)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vec = d.survival_vec(js)
            assert np.all(vec[js <= 0] == 1.0)
            scal = np.array([d.survival(int(j)) for j in js])
            np.testing.assert_allclose(vec, scal, rtol=1e-15)


class TestFunctionals:
    def test_values(self):
        assert tail_functionals(ParetoTail(4)) == tail_functionals(ParetoTail(4))
        f = tail_functionals(ParetoTail(4))
        assert (f.liminf_jg, f.limsup_jg) == (4, 4)
        f = tail_functionals(Geometric(0.5))
        assert (f.liminf_jg, f.limsup_jg) == (0, 0)
        f = tail_functionals(PowerTail(0.5))
        assert f.liminf_jg == math.inf and f.limsup_jg == math.inf
        f = tail_functionals(PowerTail(1.5))
        assert (f.liminf_jg, f.limsup_jg) == (0, 0)
        f = tail_functionals(Constant(9))
        assert (f.liminf_jg, f.limsup_jg) == (0, 0)

    def test_truncated_rejected(self):
        with pytest.raises(TruncatedLawError):
            tail_functionals(Truncated(ParetoTail(4), 100))

    def test_pareto_numeric_probe(self):
        d = ParetoTail(4)
        for j in range(4, 4000, 37):
            assert abs(j * tail(d, j) - 4.0) < 1e-12

    @given(dist_strategy())
    def test_liminf_le_limsup(self, d):
        if isinstance(d, Truncated):
            return
        f = tail_functionals(d)
        assert f.liminf_jg <= f.limsup_jg


class TestMoments:
    def test_examples(self):
        assert moment_finite(PowerTail(1.5), 1) is True
        assert moment_finite(PowerTail(1.5), 2) is False
        assert moment_finite(Geometric(0.9), 5) is True
        assert moment_finite(ParetoTail(100.0), 1) is False
        assert moment_finite(Constant(3), 4) is True
        assert moment_finite(Truncated(PowerTail(0.5), 10), 3) is True

    def test_d_must_be_positive(self):
        with pytest.raises(ValueError):
            moment_finite(Geometric(0.5), 0)


class TestSampler:
    def test_constant_degenerate(self):
        rng = make_rng(0)
        assert all(sample_radius(Constant(3), rng) == 3 for _ in range(20))

    def test_truncation_bound(self):
        rng = make_rng(1)
        draws = sample_radii(Truncated(PowerTail(0.5), 10**6), rng, 10_000)
        assert draws.max() <= 10**6

    def test_geometric_empirical_survival(self):
        # survival at j=3 is 0.125; check a binomial CI of 3 standard errors
        n = 10**6
        rng = make_rng(2)
        draws = sample_radii(Geometric(0.5), rng, n)
        phat = np.count_nonzero(draws >= 3) / n
        se = math.sqrt(0.125 * 0.875 / n)
        assert abs(phat - 0.125) <= 3 * se

    @given(dist_strategy(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_inverse_transform_bracket(self, d, seed):
        # the defining property: G(j+1) <= u < G(j) for the returned j
        # (draws hitting the safety cap are exempt; the cap dwarfs any window)
        from rumourlab.distributions import RADIUS_CAP

        rng = make_rng(seed)
        u = 1.0 - rng.random(64)
        j = d.quantile_from_uniform(u)
        free = j < RADIUS_CAP
        assert np.all(d.survival_vec(j[free]) > u[free] - 1e-12)
        assert np.all(d.survival_vec(j[free] + 1) <= u[free] + 1e-12)

    def test_histogram_chi_square(self):
        # exhaustive frequency check on a finite-support law at 99% confidence
        d = Truncated(Geometric(0.5), 6)
        n = 10**5
        rng = make_rng(3)
        draws = sample_radii(d, rng, n)
        observed = np.bincount(draws, minlength=7)
        expected = np.array([(tail(d, j) - tail(d, j + 1)) * n for j in range(7)])
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 16.812  # chi-square 0.99 quantile, 6 degrees of freedom

    def test_stream_advances_deterministically(self):
        a = sample_radii(ParetoTail(4), make_rng(5), 1000)
        b = sample_radii(ParetoTail(4), make_rng(5), 1000)
        np.testing.assert_array_equal(a, b)


class TestParsing:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("pareto:alpha=4", ParetoTail(4.0)),
            ("power:beta=0.5", PowerTail(0.5)),
            ("geom:q=0.5", Geometric(0.5)),
            ("const:r=1", Constant(1)),
            ("trunc:geom:q=0.5:cap=6", Truncated(Geometric(0.5), 6)),
            ("trunc:trunc:const:r=3:cap=5:cap=4", Truncated(Truncated(Constant(3), 5), 4)),
        ],
    )
    def test_round_trip(self, spec, expected):
        d = parse_distribution(spec)
        assert d == expected
        assert parse_distribution(d.spec_string()) == d

    @pytest.mark.parametrize(
        "bad,token",
        [
            ("Pareto:alpha=4", "Pareto"),
            ("pareto:a=4", "a=4"),
            ("pareto:alpha=x", "alpha=x"),
            ("geom:q=1.5", "q=1.5"),
            ("trunc:geom:q=0.5", "trunc:geom:q=0.5"),
            ("const:r=1.5", "r=1.5"),
        ],
    )
    def test_malformed_names_token(self, bad, token):
        with pytest.raises(DistParseError) as exc:
            parse_distribution(bad)
        assert token in str(exc.value)
