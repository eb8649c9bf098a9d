import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rumourlab.lattice as lat
from rumourlab.cli import main
from rumourlab.distributions import Constant, Geometric, ParetoTail, PowerTail, Truncated
from rumourlab.lattice import (
    FIREWORK,
    REVERSE,
    CoverageField,
    LatticeConfig,
    Realization,
    WindowOverflowError,
    estimate_under_coverage,
    firework_counts,
    last_under_covered,
    realize,
    reverse_membership,
    simulate_window,
)

C1 = Constant(1)
GEO = Geometric(0.5)


def cfg(model=FIREWORK, dim=1, p=0.5, k=2, n=8, dist=GEO, seed=0, cushion=1, initiators=False):
    return LatticeConfig(dim, model, p, k, n, dist, seed, cushion, initiators)


def sources_of(r: Realization):
    """(site, radius) pairs including initiators, any dimension."""
    out = []
    if r.config.dimension == 1:
        for idx, rad in zip(np.flatnonzero(r.activation), r.radii):
            out.append((int(idx) + 1, int(rad)))
        if r.initiator_radii is not None:
            out.append((-1, int(r.initiator_radii[0])))
            out.append((0, int(r.initiator_radii[1])))
    else:
        rows, cols = np.nonzero(r.activation)
        for a, b, rad in zip(rows, cols, r.radii):
            out.append(((int(a) + 1, int(b) + 1), int(rad)))
        if r.initiator_radii is not None:
            out.append(((-1, -1), int(r.initiator_radii[0])))
            out.append(((0, 0), int(r.initiator_radii[1])))
    return out


def brute_firework_counts(r: Realization):
    """Definition-level recount of covering sources per reported site."""
    n = r.config.n
    srcs = sources_of(r)
    if r.config.dimension == 1:
        return np.array(
            [sum(1 for s, rad in srcs if s <= x <= s + rad) for x in range(1, n + 1)]
        )
    grid = np.zeros((n, n), dtype=int)
    for x1 in range(1, n + 1):
        for x2 in range(1, n + 1):
            grid[x1 - 1, x2 - 1] = sum(
                1
                for (s1, s2), rad in srcs
                if s1 <= x1 <= s1 + rad and s2 <= x2 <= s2 + rad
            )
    return grid


def brute_reverse_membership(r: Realization, k: int):
    """Direct evaluation of the static listening definition."""
    n = r.config.n
    srcs = sources_of(r)
    if r.config.dimension == 1:
        out = np.zeros(n, dtype=int)
        for x in range(0, n):
            for i, rad in srcs:
                if i - rad <= x <= i:
                    others = sum(1 for j, _ in srcs if j != i and i - rad <= j <= i)
                    if others >= k:
                        out[x] = 1
                        break
        return out
    out = np.zeros((n, n), dtype=int)
    for x1 in range(0, n):
        for x2 in range(0, n):
            for (i1, i2), rad in srcs:
                if i1 - rad <= x1 <= i1 and i2 - rad <= x2 <= i2:
                    others = sum(
                        1
                        for (j1, j2), _ in srcs
                        if (j1, j2) != (i1, i2)
                        and i1 - rad <= j1 <= i1
                        and i2 - rad <= j2 <= i2
                    )
                    if others >= k:
                        out[x1, x2] = 1
                        break
    return out


class TestRealize:
    def test_p_extremes(self):
        r = realize(cfg(p=0.0, n=50))
        assert not r.activation.any() and r.radii.size == 0
        r = realize(cfg(p=1.0, n=50))
        assert r.activation.all() and r.radii.size == 50

    def test_determinism(self):
        a = realize(cfg(p=0.5, n=1000, seed=42))
        b = realize(cfg(p=0.5, n=1000, seed=42))
        np.testing.assert_array_equal(a.activation, b.activation)
        np.testing.assert_array_equal(a.radii, b.radii)

    def test_multi_chunk_window(self):
        # window spanning several RNG chunks stays aligned and deterministic
        import rumourlab.lattice as lat

        n = lat._CHUNK_CELLS + 1717
        a = realize(cfg(p=0.3, n=n, seed=9))
        b = realize(cfg(p=0.3, n=n, seed=9))
        assert a.radii.size == int(a.activation.sum())
        np.testing.assert_array_equal(a.activation, b.activation)
        np.testing.assert_array_equal(a.radii, b.radii)

    def test_2d_shapes(self):
        r = realize(cfg(dim=2, n=20, p=0.3, seed=5))
        assert r.activation.shape == (20, 20)
        assert r.radii.size == int(r.activation.sum())

    def test_initiators_drawn_independently(self):
        with_init = realize(cfg(p=0.5, n=64, seed=3, initiators=True))
        without = realize(cfg(p=0.5, n=64, seed=3, initiators=False))
        np.testing.assert_array_equal(with_init.activation, without.activation)
        np.testing.assert_array_equal(with_init.radii, without.radii)
        assert with_init.initiator_radii is not None and without.initiator_radii is None

    def test_window_overflow(self):
        with pytest.raises(WindowOverflowError):
            LatticeConfig(2, REVERSE, 0.5, 2, 10**5, C1, 0, cushion=10)


class TestFireworkCounts:
    def test_hand_example(self):
        c = cfg(n=3, dist=C1)
        r = Realization(c, np.array([True, False, True]), np.array([2, 1], dtype=np.int64))
        np.testing.assert_array_equal(firework_counts(r).values, [1, 1, 2])

    def test_all_closed(self):
        r = realize(cfg(p=0.0, n=10))
        assert not firework_counts(r).values.any()

    def test_2d_single_block(self):
        c = cfg(dim=2, n=3, dist=C1)
        act = np.zeros((3, 3), dtype=bool)
        act[0, 0] = True
        r = Realization(c, act, np.array([1], dtype=np.int64))
        want = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
        np.testing.assert_array_equal(firework_counts(r).values, want)

    @pytest.mark.parametrize("dim,n,p,seed", [(1, 17, 0.4, 0), (1, 9, 0.9, 1),
                                              (2, 7, 0.35, 2), (2, 5, 0.8, 3)])
    def test_against_brute_force(self, dim, n, p, seed):
        for initiators in (False, True) if dim == 1 else (False,):
            r = realize(cfg(dim=dim, n=n, p=p, seed=seed, dist=GEO, initiators=initiators))
            got = firework_counts(r).values
            np.testing.assert_array_equal(got, brute_firework_counts(r))

    def test_clamp_counted(self):
        c = cfg(n=3, dist=Constant(10), p=1.0)
        r = realize(c)
        assert firework_counts(r).clamp_count == 3


class TestReverseMembership:
    def test_hand_example_initiators(self):
        c = cfg(model=REVERSE, n=3, dist=Constant(3), initiators=True)
        act = np.array([False, True, False])
        r = Realization(c, act, np.array([3], dtype=np.int64),
                        initiator_radii=np.array([0, 0], dtype=np.int64))
        np.testing.assert_array_equal(reverse_membership(r, 2).values, [1, 1, 1])

    def test_hand_example_radius_too_small(self):
        c = cfg(model=REVERSE, n=3, dist=C1, initiators=True)
        act = np.array([False, True, False])
        r = Realization(c, act, np.array([1], dtype=np.int64),
                        initiator_radii=np.array([0, 0], dtype=np.int64))
        np.testing.assert_array_equal(reverse_membership(r, 2).values, [0, 0, 0])

    def test_k0_is_plain_coverage(self):
        for seed in range(4):
            r = realize(cfg(model=REVERSE, n=10, cushion=2, p=0.5, seed=seed))
            got = reverse_membership(r, 0).values
            np.testing.assert_array_equal(got, brute_reverse_membership(r, 0))

    @pytest.mark.parametrize("dim,n,p,seed,initiators", [
        (1, 12, 0.5, 0, False),
        (1, 8, 0.7, 1, True),
        (1, 15, 0.3, 2, True),
        (2, 6, 0.5, 3, False),
        (2, 5, 0.6, 4, True),
        (2, 4, 0.9, 5, True),
    ])
    def test_against_brute_force(self, dim, n, p, seed, initiators):
        for k in (0, 1, 2, 3):
            r = realize(cfg(model=REVERSE, dim=dim, n=n, cushion=2, p=p, seed=seed,
                            dist=GEO, initiators=initiators))
            got = reverse_membership(r, k).values
            np.testing.assert_array_equal(got, brute_reverse_membership(r, k))

    def test_nesting_in_k(self):
        for seed in range(5):
            r = realize(cfg(model=REVERSE, n=30, cushion=2, p=0.5, seed=seed))
            m1 = reverse_membership(r, 1).values
            m2 = reverse_membership(r, 2).values
            assert np.all(m2 <= m1)


class TestInvariants:
    def test_nesting_firework(self):
        # the doubly covered set sits inside the covered set
        for seed in range(5):
            f = firework_counts(realize(cfg(n=60, p=0.4, seed=seed)))
            assert np.all((f.values >= 2) <= (f.values >= 1))

    def test_monotone_coupling_in_p(self):
        for dim in (1, 2):
            lo = firework_counts(realize(cfg(dim=dim, n=20, p=0.3, seed=6)))
            hi = firework_counts(realize(cfg(dim=dim, n=20, p=0.6, seed=6)))
            assert np.all(hi.values >= lo.values)

    def test_initiator_locality(self):
        # beyond max(initiator radii) the counts agree realization by realization
        for seed in range(6):
            with_init = realize(cfg(n=40, p=0.5, seed=seed, dist=GEO, initiators=True))
            without = realize(cfg(n=40, p=0.5, seed=seed, dist=GEO, initiators=False))
            reach = int(max(with_init.initiator_radii[0] - 1, with_init.initiator_radii[1]))
            a = firework_counts(with_init).values
            b = firework_counts(without).values
            np.testing.assert_array_equal(a[reach:], b[reach:])


class TestLastUnderCovered:
    def test_all_zero(self):
        fld = CoverageField("counts", 1, 1, 4, np.zeros(4, dtype=int))
        assert last_under_covered(fld, 1) == 4

    def test_all_covered(self):
        fld = CoverageField("counts", 1, 1, 4, np.full(4, 5))
        assert last_under_covered(fld, 2) is None

    def test_scan_example(self):
        fld = CoverageField("counts", 1, 1, 4, np.array([2, 1, 2, 2]))
        assert last_under_covered(fld, 2) == 2

    def test_2d_clean_corner(self):
        vals = np.full((5, 5), 3)
        vals[2, 1] = 0  # bad site (3,2): min coordinate 2 blocks N0 <= 2
        fld = CoverageField("counts", 2, 1, 5, vals)
        assert last_under_covered(fld, 1) == 3

    def test_2d_no_bad(self):
        fld = CoverageField("counts", 2, 1, 5, np.full((5, 5), 3))
        assert last_under_covered(fld, 1) == 1

    def test_2d_corner_fails(self):
        vals = np.full((5, 5), 3)
        vals[4, 4] = 0
        fld = CoverageField("counts", 2, 1, 5, vals)
        assert last_under_covered(fld, 1) is None


class TestEstimate:
    def test_p0_trivial(self):
        est = estimate_under_coverage(cfg(p=0.0, k=1, n=6, seed=1), [3], 200)
        assert est[0].freq == 1.0

    def test_site_validation(self):
        with pytest.raises(ValueError):
            estimate_under_coverage(cfg(n=6), [7], 10)
        with pytest.raises(ValueError):
            estimate_under_coverage(cfg(model=REVERSE, n=6, cushion=2), [6], 10)

    def test_interval_covers_exact(self):
        c = cfg(p=0.5, k=2, n=5, dist=C1, seed=77)
        est = estimate_under_coverage(c, [3], 40_000)[0]
        assert est.ci_low <= 0.75 <= est.ci_high

    def test_workers_bit_identical(self):
        c = cfg(p=0.5, k=2, n=5, dist=C1, seed=123)
        a = estimate_under_coverage(c, [2, 4], 4000, workers=1)
        b = estimate_under_coverage(c, [2, 4], 4000, workers=2)
        assert [(e.under_count, e.freq, e.ci_low, e.ci_high) for e in a] == [
            (e.under_count, e.freq, e.ci_low, e.ci_high) for e in b
        ]

    def test_doubling_trials_halves_width(self):
        c = cfg(p=0.5, k=2, n=5, dist=C1, seed=99)
        w1 = estimate_under_coverage(c, [3], 40_000)[0]
        w2 = estimate_under_coverage(c, [3], 80_000)[0]
        ratio = (w2.ci_high - w2.ci_low) / (w1.ci_high - w1.ci_low)
        assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.10)

    def test_reverse_estimates_membership_complement(self):
        c = cfg(model=REVERSE, p=0.9, k=1, n=4, cushion=3, dist=Constant(5),
                seed=5, initiators=True)
        est = estimate_under_coverage(c, [0, 3], 500)
        # constant radius 5 with initiators: listening blocks almost always
        # hold an open site; under-coverage should be rare
        assert est[0].freq < 0.2 and est[1].freq < 0.2


class TestSimulateWindow:
    def test_deterministic(self):
        c = cfg(p=0.6, n=30, seed=11)
        a = simulate_window(c, 50)
        b = simulate_window(c, 50, workers=2)
        np.testing.assert_array_equal(a.fractions, b.fractions)
        np.testing.assert_array_equal(a.last_normalized, b.last_normalized)
        assert a.clamp_count == b.clamp_count

    def test_full_cover_when_p1(self):
        c = cfg(p=1.0, k=1, n=12, dist=Constant(2), seed=2)
        stats = simulate_window(c, 5)
        assert np.all(stats.fractions == 0.0)
        assert np.all(stats.last_normalized == 0.0)


# every law family, with power tails on both sides of the finite-mean line
TRIAL_LAWS = [
    ParetoTail(4.0),
    PowerTail(0.5),
    PowerTail(1.0),
    PowerTail(1.5),
    Geometric(0.5),
    Constant(0),
    Constant(3),
    Truncated(PowerTail(1.5), 4),
]


def assert_same_field(a: CoverageField, b: CoverageField):
    assert (a.kind, a.dimension, a.origin, a.window, a.threshold) == (
        b.kind, b.dimension, b.origin, b.window, b.threshold)
    assert a.values.dtype == b.values.dtype
    np.testing.assert_array_equal(a.values, b.values)
    assert a.clamp_count == b.clamp_count


class TestStreamedReverse2D:
    """_trial_field streams reverse-2D trials; it must equal the realized path."""

    @pytest.mark.parametrize("dist", TRIAL_LAWS, ids=lambda d: d.spec_string())
    def test_matches_realized_membership(self, dist):
        for n, p, k, initiators in [(1, 0.5, 1, True), (1, 1.0, 2, False), (4, 0.0, 1, True),
                                    (5, 0.5, 2, False), (6, 0.7, 3, True), (9, 1.0, 2, True)]:
            for seed in range(2):
                c = cfg(model=REVERSE, dim=2, n=n, cushion=3, p=p, k=k, dist=dist,
                        seed=seed, initiators=initiators)
                assert_same_field(lat._trial_field(c), reverse_membership(realize(c), k))

    @pytest.mark.parametrize("chunk_cells", [1, 7, 64])
    def test_several_row_blocks(self, monkeypatch, chunk_cells):
        # a tiny chunk splits the extent into many row blocks, down to one row
        monkeypatch.setattr(lat, "_CHUNK_CELLS", chunk_cells)
        for dist in (PowerTail(1.5), Geometric(0.5), ParetoTail(2.0)):
            for initiators in (False, True):
                c = cfg(model=REVERSE, dim=2, n=7, cushion=4, p=0.5, k=2, dist=dist,
                        seed=13, initiators=initiators)
                assert len(lat._row_blocks(c.extent(), 2)) > 1
                assert_same_field(lat._trial_field(c), reverse_membership(realize(c), 2))

    def test_several_real_chunks(self):
        c = cfg(model=REVERSE, dim=2, n=700, cushion=3, p=0.5, k=2, dist=PowerTail(1.5),
                seed=4, initiators=True)
        assert len(lat._row_blocks(c.extent(), 2)) > 1
        assert_same_field(lat._trial_field(c), reverse_membership(realize(c), 2))

    def test_other_models_unchanged(self):
        for model, dim in ((FIREWORK, 1), (FIREWORK, 2), (REVERSE, 1)):
            c = cfg(model=model, dim=dim, n=9, cushion=2, p=0.5, seed=8)
            assert_same_field(lat._trial_field(c), lat.coverage_field(realize(c)))

    @given(
        st.one_of(
            st.floats(0.1, 20.0).map(ParetoTail),
            st.floats(0.1, 5.0).map(PowerTail),
            st.floats(0.05, 0.95).map(Geometric),
            st.integers(0, 50).map(Constant),
            st.tuples(st.floats(0.1, 5.0), st.integers(0, 30)).map(
                lambda t: Truncated(PowerTail(t[0]), t[1])),
        ),
        st.integers(-100, 50_000),
        st.floats(0.0, 1.0),
        st.one_of(st.none(), st.integers(-4, 4)),
    )
    @settings(max_examples=400)
    def test_candidate_bound_keeps_every_passing_source(self, dist, j, u, ulps):
        # The reach test (rad >= max(r,c)-n+1) and the clamp test
        # (rad >= min(r,c)+2) both read "rad >= j"; a source passing either
        # must lie below the slackened survival bound the stream filters on.
        # With ulps set, u sits that many ulps from G(j), where rounding bites.
        g = float(dist.survival_vec(np.array([j]))[0])
        if ulps is not None:
            u = g
            for _ in range(abs(ulps)):
                u = float(np.nextafter(u, 2.0 if ulps > 0 else 0.0))
        u = min(max(u, 2.0**-53), 1.0)  # the range of 1 - rng.random()
        rad = int(dist.quantile_from_uniform(np.array([u]))[0])
        if rad >= j:
            assert u < lat._SURVIVAL_SLACK * g


class TestOnePassSimulate:
    def test_sites_and_window_from_the_same_trials(self):
        for c, sites in ((cfg(p=0.5, k=2, n=9, seed=21), [1, 5, 9]),
                         (cfg(dim=2, p=0.4, k=1, n=5, dist=C1, seed=22), [(1, 1), (3, 4)]),
                         (cfg(model=REVERSE, dim=2, p=0.5, k=2, n=4, cushion=3, seed=23,
                              initiators=True), [(0, 0), (3, 1)])):
            both = simulate_window(c, 60, sites=sites)
            alone = simulate_window(c, 60)
            est = estimate_under_coverage(c, sites, 60)
            assert alone.sites is None
            assert both.sites == est
            np.testing.assert_array_equal(both.fractions, alone.fractions)
            np.testing.assert_array_equal(both.last_normalized, alone.last_normalized)
            assert both.clamp_count == alone.clamp_count

    def test_reverse_2d_cli_bytes_independent_of_workers(self, tmp_path):
        argv = ["simulate", "--model", "reverse", "--dim", "2", "--dist", "power:beta=1.5",
                "--p", "0.5", "--k", "2", "--n", "12", "--cushion", "3", "--initiators",
                "--trials", "9", "--sites", "0,0;5,7;11,11", "--seed", "41", "--csv", "--json"]
        outputs = []
        for workers in (1, 2):
            base = tmp_path / f"w{workers}"
            assert main(argv + ["--workers", str(workers), "--out", str(base)]) == 0
            outputs.append((base.with_suffix(".csv").read_bytes(),
                            base.with_suffix(".json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].decode().splitlines()[1].startswith("0:0,")
