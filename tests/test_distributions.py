import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourlab.distributions import (
    Constant,
    DistParseError,
    RADIUS_CAP,
    Geometric,
    ParetoTail,
    PowerTail,
    TailDistribution,
    Truncated,
    TruncatedLawError,
    parse_distribution,
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
        # u^(-1/beta) rounds to 1 for most u at a huge beta, yet G(1) = 1
        st.sampled_from([PowerTail(50.0), PowerTail(1e20), PowerTail(math.inf)]),
    )


def reference_survival(d, j: int) -> float:
    """G(j) of a lattice law by its Python-float formula."""
    if isinstance(d, Truncated):
        return 0.0 if j > d.cap else reference_survival(d.base, j)
    if isinstance(d, Constant):
        return 1.0 if j <= d.r else 0.0
    if j <= 0:
        return 1.0
    if isinstance(d, ParetoTail):
        return min(1.0, d.alpha / j)
    if isinstance(d, PowerTail):
        return j ** -d.beta
    return d.q ** j


def family_quantile(d, u: np.ndarray) -> np.ndarray:
    """The lattice radius of u by each family's own closed-form expression."""
    if isinstance(d, Truncated):
        return np.minimum(family_quantile(d.base, u), d.cap)
    if isinstance(d, Constant):
        return np.full(np.shape(u), d.r, dtype=np.int64)
    if isinstance(d, Geometric):
        q = np.ceil(np.log(u) / math.log(d.q)) - 1.0
        return np.maximum(q, 0.0).astype(np.int64)
    with np.errstate(over="ignore"):
        if isinstance(d, ParetoTail):
            q = np.minimum(np.ceil(d.alpha / u) - 1.0, RADIUS_CAP)
            return np.maximum(q, 1.0 if d.alpha >= 1 else 0.0).astype(np.int64)
        q = np.minimum(np.ceil(u ** (-1.0 / d.beta)) - 1.0, RADIUS_CAP)
        return np.maximum(q, 1.0).astype(np.int64)


def assert_bitwise(vec, ref):
    np.testing.assert_array_equal(vec.view(np.uint64),
                                  np.array(ref, dtype=np.float64).view(np.uint64))


class TestTail:
    def test_pareto_examples(self):
        assert ParetoTail(4).survival_vec(np.array([0, 2, 8])).tolist() == [1.0, 1.0, 0.5]

    def test_family_closed_forms(self):
        assert PowerTail(0.5).survival_vec(np.array([4]))[0] == pytest.approx(0.5, rel=1e-15)
        assert Geometric(0.5).survival_vec(np.array([3]))[0] == pytest.approx(0.125, rel=1e-15)
        assert Constant(2).survival_vec(np.array([2, 3])).tolist() == [1.0, 0.0]
        t = Truncated(Geometric(0.5), 4).survival_vec(np.array([4, 5]))
        assert t[0] == pytest.approx(0.5**4) and t[1] == 0.0

    @given(dist_strategy(), st.integers(0, 10_000))
    def test_monotone_and_bounded(self, d, j):
        g0, g1 = d.survival_vec(np.array([j, j + 1]))
        assert 0.0 <= g1 <= g0 <= 1.0
        assert d.survival_vec(np.array([0]))[0] == 1.0

    def test_vectorized_matches_scalar(self):
        # the one survival function equals the Python-float formula bit for
        # bit, so exact values read through it keep their bytes
        js = range(-3, 200_001)
        for d in [ParetoTail(3.5), ParetoTail(0.5), PowerTail(0.3), PowerTail(0.7),
                  PowerTail(1.5), Geometric(0.3), Geometric(0.9), Geometric(0.99), Constant(5),
                  Truncated(Geometric(0.9), 9), Truncated(PowerTail(1.5), 1000)]:
            assert_bitwise(d.survival_vec(np.array(js)), [reference_survival(d, j) for j in js])

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
            assert_bitwise(vec, [reference_survival(d, int(j)) for j in js])


class TestFunctionals:
    def test_values(self):
        assert ParetoTail(4).functionals() == ParetoTail(4).functionals()
        f = ParetoTail(4).functionals()
        assert (f.liminf_jg, f.limsup_jg) == (4, 4)
        f = Geometric(0.5).functionals()
        assert (f.liminf_jg, f.limsup_jg) == (0, 0)
        f = PowerTail(0.5).functionals()
        assert f.liminf_jg == math.inf and f.limsup_jg == math.inf
        f = PowerTail(1.5).functionals()
        assert (f.liminf_jg, f.limsup_jg) == (0, 0)
        f = Constant(9).functionals()
        assert (f.liminf_jg, f.limsup_jg) == (0, 0)

    def test_truncated_rejected(self):
        with pytest.raises(TruncatedLawError):
            Truncated(ParetoTail(4), 100).functionals()

    def test_pareto_numeric_probe(self):
        js = np.arange(4, 4000, 37)
        assert np.all(np.abs(js * ParetoTail(4).survival_vec(js) - 4.0) < 1e-12)

    @given(dist_strategy())
    def test_liminf_le_limsup(self, d):
        if isinstance(d, Truncated):
            return
        f = d.functionals()
        assert f.liminf_jg <= f.limsup_jg


class TestMoments:
    def test_examples(self):
        assert PowerTail(1.5).moment_finite(1) is True
        assert PowerTail(1.5).moment_finite(2) is False
        assert PowerTail(2.0).moment_finite(2) is False
        assert Geometric(0.9).moment_finite(5) is True
        assert ParetoTail(100.0).moment_finite(1) is False
        assert Constant(3).moment_finite(4) is True
        assert Truncated(PowerTail(0.5), 10).moment_finite(3) is True

    def test_d_must_be_positive(self):
        for d in [ParetoTail(4), PowerTail(1.5), Geometric(0.5), Constant(3),
                  Truncated(PowerTail(0.5), 10)]:
            with pytest.raises(ValueError):
                d.moment_finite(0)


class TestSampler:
    def test_constant_degenerate(self):
        rng = make_rng(0)
        assert all(Constant(3).quantile_from_uniform(1.0 - rng.random(1))[0] == 3
                   for _ in range(20))

    def test_truncation_bound(self):
        rng = make_rng(1)
        draws = Truncated(PowerTail(0.5), 10**6).quantile_from_uniform(1.0 - rng.random(10_000))
        assert draws.max() <= 10**6

    def test_geometric_empirical_survival(self):
        # survival at j=3 is 0.125; check a binomial CI of 3 standard errors
        n = 10**6
        rng = make_rng(2)
        draws = Geometric(0.5).quantile_from_uniform(1.0 - rng.random(n))
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
        draws = d.quantile_from_uniform(1.0 - rng.random(n))
        observed = np.bincount(draws, minlength=7)
        g = d.survival_vec(np.arange(8))
        expected = (g[:-1] - g[1:]) * n
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 16.812  # chi-square 0.99 quantile, 6 degrees of freedom

    def test_heavy_tails_overflow_quietly(self):
        # the smallest uniform, 2^-53, sends u^(-1/beta) and alpha/u past the
        # float range: lattice radii clip the inf to RADIUS_CAP, real radii
        # return it, and none of them warns (here a warning is an error); a
        # power-law radius is at least 1 even at u = 1, since G(1) = 1
        u = np.array([2.0**-53, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            power, pareto = PowerTail(0.001), ParetoTail(1e300)
            np.testing.assert_array_equal(power.quantile_from_uniform(u),
                                          [RADIUS_CAP, RADIUS_CAP, 1])
            np.testing.assert_array_equal(pareto.quantile_from_uniform(u), [RADIUS_CAP] * 3)
            np.testing.assert_array_equal(power.real_quantile(u), [math.inf, 2.0**1000, 1.0])
            np.testing.assert_array_equal(pareto.real_quantile(u), [math.inf, 2e300, 1e300])

    # every family at parameters on both sides of G(1) = 1, the float range's
    # edges and a truncation of each unbounded family
    QUANTILE_LAWS = [
        ParetoTail(1e-300), ParetoTail(0.5), ParetoTail(1.0), ParetoTail(4.0), ParetoTail(1e300),
        ParetoTail(math.inf), PowerTail(0.001), PowerTail(0.5), PowerTail(1.5), PowerTail(50.0),
        PowerTail(1e20), PowerTail(math.inf), Geometric(1e-300), Geometric(0.01), Geometric(0.5),
        Geometric(0.99), Geometric(float(np.nextafter(1.0, 0.0))), Constant(0), Constant(3),
        Truncated(PowerTail(0.5), 10), Truncated(ParetoTail(4.0), 1000),
        Truncated(Geometric(0.5), 3), Truncated(Constant(5), 2),
    ]

    @pytest.mark.parametrize("d", QUANTILE_LAWS, ids=lambda d: d.spec_string())
    def test_lattice_quantile_matches_each_family_expression(self, d):
        # one ceil(rho) - 1 rule gives what each family's own expression
        # gives, bit for bit, on uniforms spread evenly over [2^-53, 1] and
        # logarithmically down to 2^-53, and at the edges; and it never warns
        rng = make_rng(11)
        u = np.concatenate([1.0 - rng.random(20_000), 2.0 ** -rng.uniform(0.0, 53.0, 20_000),
                            [1.0, 2.0**-53, np.nextafter(1.0, 0.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = d.quantile_from_uniform(u)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, family_quantile(d, u))

    # the laws that read the shared ceil(rho) - 1 rule
    SHARED_RULE_LAWS = [d for d in QUANTILE_LAWS if type(d).quantile_from_uniform
                        is TailDistribution.quantile_from_uniform]

    @pytest.mark.parametrize("d", SHARED_RULE_LAWS, ids=lambda d: d.spec_string())
    def test_in_place_rule_matches_the_expression(self, d):
        # the rule works in place on real_quantile's array; its values are
        # those of the expression it replaced, on random u, at u = 1, and at
        # u so small that rho is inf (pareto, power) or past the cap (geom at
        # q = 1 - 2^-53) and clips to RADIUS_CAP
        u = np.concatenate([1.0 - make_rng(12).random(10_000), [1.0, 2.0**-53, 5e-324]])
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            got = d.quantile_from_uniform(u)
            q = np.minimum(np.ceil(d.real_quantile(u)) - 1.0, RADIUS_CAP)
            want = np.maximum(q, 1.0 if d.survival_vec(1.0) == 1 else 0.0).astype(np.int64)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [ParetoTail(4.0), PowerTail(0.5), Geometric(0.5)],
                             ids=lambda d: d.spec_string())
    def test_quantile_peak_memory(self, d):
        # one float64 temporary beside the int64 result: 2x the input's bytes
        # (the out-of-place expression peaked at 3x)
        u = 1.0 - make_rng(13).random(2**18)
        tracemalloc.start()
        try:
            out = d.quantile_from_uniform(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.dtype == np.int64
        assert peak <= 2.1 * u.nbytes, peak / u.nbytes

    def test_stream_advances_deterministically(self):
        a = ParetoTail(4).quantile_from_uniform(1.0 - make_rng(5).random(1000))
        b = ParetoTail(4).quantile_from_uniform(1.0 - make_rng(5).random(1000))
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
            # more significant digits (up to 17) than a 6-digit format keeps
            ("pareto:alpha=1.2345678", ParetoTail(1.2345678)),
            ("pareto:alpha=1.2345678901234567", ParetoTail(1.2345678901234567)),
            ("power:beta=0.30000000000000004", PowerTail(0.30000000000000004)),
            ("geom:q=0.12345678901234568", Geometric(0.12345678901234568)),
            ("trunc:power:beta=1.0000000000000002:cap=9",
             Truncated(PowerTail(1.0000000000000002), 9)),
            ("trunc:geom:q=0.99999999999999989:cap=3",
             Truncated(Geometric(0.99999999999999989), 3)),
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
