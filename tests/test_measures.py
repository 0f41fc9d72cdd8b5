import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wschebor import measures
from wschebor.errors import CoverageError, ParameterError
from wschebor.increments import normalized_increment
from wschebor.measures import (
    EmpiricalMeasure,
    ks_critical_value,
    ks_distance,
    ks_two_sample,
    occupation_measure,
    w1_distance,
)
from wschebor.mollifiers import kernel_psi1
from wschebor.paths import (
    GridPath,
    simulate_brownian,
    simulate_stable,
    standard_stable,
)

PHI = stats.norm.cdf
REFERENCE_SAMPLE = np.sort(np.round(np.random.default_rng(7).standard_normal(500), 1))


def _step_cdf(x):
    """Right-continuous, with a jump of 1/16 at every multiple of 1/4 in [-2, 2)."""
    return np.clip(np.floor(4.0 * np.asarray(x) + 8.0) / 16.0, 0.0, 1.0)


def _empirical_cdf(x):
    return np.searchsorted(REFERENCE_SAMPLE, np.asarray(x), side="right") / REFERENCE_SAMPLE.size


# Sizes around the KS node spacing of 64, crossed with a continuous and two step targets.
KS_CASES = list(itertools.product([1, 2, 63, 64, 65, 129, 20000],
                                  [PHI, _step_cdf, _empirical_cdf]))


def _two_evaluation_ks(points, cum, target):
    """KS from the target at every distinct point and just below it."""
    cum_prev = np.concatenate(([0.0], cum[:-1]))
    return float(np.max(np.maximum(
        np.abs(cum - target(points)),
        np.abs(cum_prev - target(np.nextafter(points, -np.inf))))))


def _wschebor_measure(eps, seed, grid_n=2 ** 16):
    w = simulate_brownian(int(grid_n * (1 + eps)) + 1, 1.0 + eps, seed)
    return occupation_measure(normalized_increment(w, kernel_psi1(), eps))


def _point_mass(x):
    return EmpiricalMeasure(np.array([x]), np.array([1.0]))


class TestEmpiricalMeasure:
    def test_weights_and_mass(self):
        m = EmpiricalMeasure(np.array([2.0, 1.0]), np.array([0.25, 0.75]))
        assert np.array_equal(m.points, [1.0, 2.0])
        assert abs(m.total_mass - 1.0) < 1e-12

    def test_cdf_right_continuous(self):
        m = EmpiricalMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert m.cdf(-0.1) == 0.0
        assert m.cdf(0.0) == 0.5
        assert m.cdf(1.0) == 1.0
        assert m.cdf(5.0) == 1.0

    def test_cdf_reads_one_running_sum(self):
        rng = np.random.default_rng(11)
        m = EmpiricalMeasure(rng.standard_normal(1000), rng.random(1000))
        cum0 = m.cumulative_weights
        assert cum0 is m.cumulative_weights and not cum0.flags.writeable
        x = np.concatenate([rng.standard_normal(300), m.points[:5], [-np.inf, np.inf]])
        ref = np.concatenate(([0.0], np.cumsum(m.weights)))
        ref = ref[np.searchsorted(m.points, x, side="right")]
        assert np.array_equal(m.cdf(x).view(np.int64), ref.view(np.int64))

    def test_rejects_negative_weights(self):
        with pytest.raises(ParameterError):
            EmpiricalMeasure(np.array([0.0]), np.array([-1.0]))

    def test_rejects_nan_weights(self):
        with pytest.raises(ParameterError):
            EmpiricalMeasure(np.array([0.0, 1.0]), np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("tied", [False, True])
    def test_sorted_like_stable_argsort(self, tied):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal(5000)
        if tied:
            raw = np.round(raw, 1)
            raw[:40] = np.tile([0.0, -0.0], 20)
        wts = rng.random(raw.size)
        m = EmpiricalMeasure(raw, wts)
        order = np.argsort(raw, kind="stable")
        assert np.array_equal(m.points.view(np.int64), raw[order].view(np.int64))
        assert np.array_equal(m.weights.view(np.int64), wts[order].view(np.int64))


    @pytest.mark.parametrize("points", ["distinct", "ties", "signed-zeros", "one-signed-zero",
                                        "nan"])
    @pytest.mark.parametrize("weights", ["trapezoid", "uniform", "random", "odd-bits"])
    def test_value_sort_matches_stable_argsort(self, points, weights):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal(3001)
        if points == "ties":
            raw = np.round(raw, 1)
        elif points == "signed-zeros":
            raw[[5, 700, 2000]] = [0.0, -0.0, 0.0]
        elif points == "one-signed-zero":
            raw[700] = -0.0
        elif points == "nan":
            raw[[3, 1500]] = np.nan
        wts = {"trapezoid": np.full(raw.size, 0.25), "uniform": np.full(raw.size, 1.0 / raw.size),
               "random": rng.random(raw.size), "odd-bits": np.zeros(raw.size)}[weights]
        if weights == "trapezoid":
            wts[[0, -1]] *= 0.5
        elif weights == "odd-bits":
            # -0.0 equals the bulk value 0.0 but must keep its sign bit.
            wts[[0, 9, 2000]] = [-0.0, 0.25, 0.5]
        m = EmpiricalMeasure(raw, wts)
        order = np.argsort(raw, kind="stable")
        assert np.array_equal(m.points.view(np.int64), raw[order].view(np.int64))
        assert np.array_equal(m.weights.view(np.int64), wts[order].view(np.int64))
        assert not (m.points.flags.writeable or m.weights.flags.writeable)

    def test_empty_and_single_point(self):
        empty = EmpiricalMeasure(np.array([]), np.array([]))
        assert empty.points.size == empty.weights.size == 0
        one = EmpiricalMeasure(np.array([3.0]), np.array([1.0]))
        assert one.points.tolist() == [3.0] and one.weights.tolist() == [1.0]


class TestOccupation:
    def test_constant_path_is_point_mass(self):
        p = GridPath(0.0, 0.01, np.full(101, 3.0))
        mu = occupation_measure(p)
        assert np.all(mu.points == 3.0)
        assert abs(mu.total_mass - 1.0) < 1e-12
        assert ks_distance(mu, lambda x: (np.asarray(x) >= 3.0).astype(float)) < 1e-12

    def test_identity_path_uniform(self):
        n = 4097
        p = GridPath(0.0, 1.0 / (n - 1), np.linspace(0, 1, n))
        mu = occupation_measure(p)
        assert ks_distance(mu, lambda x: np.clip(x, 0, 1)) <= 1.0 / (n - 1)

    def test_gaussian_limit_small_scale(self):
        mu = _wschebor_measure(2.0 ** -10, 2024, grid_n=2 ** 18)
        assert ks_distance(mu, PHI) <= 0.05

    def test_coverage_error(self):
        p = GridPath(0.0, 0.01, np.zeros(50))
        with pytest.raises(CoverageError):
            occupation_measure(p)

    def test_ks_trend_as_scale_shrinks(self):
        medians = []
        for eps in (2.0 ** -6, 2.0 ** -9, 2.0 ** -12):
            ks = [ks_distance(_wschebor_measure(eps, seed), PHI)
                  for seed in range(20)]
            medians.append(np.median(ks))
        assert medians[0] > medians[1] > medians[2]

    def test_stable_limit(self):
        # Scaled by eps^(1 - 1/alpha); the Brownian eps^(1/2) would give KS 0.23.
        alpha, eps = 1.5, 2.0 ** -10
        grid_n = 2 ** 18
        p = simulate_stable(alpha, int(grid_n * (1 + eps)) + 1, 1.0 + eps, 5)
        mu = occupation_measure(normalized_increment(p, kernel_psi1(), eps))
        ref = np.sort(standard_stable(alpha, np.random.default_rng(99), 200_000))

        def ref_cdf(v):
            return np.searchsorted(ref, np.asarray(v), side="right") / ref.size

        assert ks_distance(mu, ref_cdf) <= 0.1


class TestKolmogorovSmirnov:
    def test_point_mass_against_gaussian(self):
        assert ks_distance(_point_mass(0.0), PHI) == 0.5

    def test_self_distance_zero(self):
        m = EmpiricalMeasure.from_samples(np.random.default_rng(1).standard_normal(100))
        assert ks_two_sample(m, m) == 0.0

    def test_critical_value_formula(self):
        assert abs(ks_critical_value(10 ** 4, 10 ** 4, alpha=0.01)
                   - 1.6276 * np.sqrt(2.0 / 10 ** 4)) < 1e-4

    def test_requires_probability(self):
        m = EmpiricalMeasure(np.array([0.0]), np.array([2.0]))
        with pytest.raises(ParameterError):
            ks_distance(m, PHI)

    def test_tied_measure_matches_unique_reduction(self):
        rng = np.random.default_rng(5)
        for size, target in KS_CASES:
            wts = rng.random(size)
            m = EmpiricalMeasure(np.round(rng.standard_normal(size), 2), wts / wts.sum())
            # The reduction by np.unique that ks_distance used before it relied
            # on the points being sorted.
            points, first = np.unique(m.points, return_index=True)
            cum = np.cumsum(np.add.reduceat(m.weights, first))
            assert ks_distance(m, target) == _two_evaluation_ks(points, cum, target), size

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_matches_pooled_reference(self, decimals):
        rng = np.random.default_rng(6)
        for size, target in KS_CASES:
            raw = rng.standard_normal(size)
            if decimals is not None:
                raw = np.round(raw, decimals)
            wts = rng.random(raw.size)
            m = EmpiricalMeasure(raw, wts / wts.sum())
            # Every run of equal points pooled, whether or not the support has ties.
            first = np.flatnonzero(np.concatenate(([True], m.points[1:] != m.points[:-1])))
            cum = np.cumsum(np.add.reduceat(m.weights, first))
            assert ks_distance(m, target) == _two_evaluation_ks(m.points[first], cum,
                                                                target), size

    def test_target_evaluated_at_few_points(self):
        # A count, unlike a timing, repeats exactly.
        mu = _wschebor_measure(2.0 ** -10, 2024, grid_n=2 ** 18)
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return PHI(x)

        assert ks_distance(mu, counted) == _two_evaluation_ks(mu.points, np.cumsum(mu.weights),
                                                              PHI)
        assert sum(sizes) <= 0.1 * mu.points.size

    def test_target_falling_by_roundoff_matches_reference(self):
        # The target is one ulp higher just below 1 than at 1, and that left
        # gap, 0.25 + 2^-53, is the sup by one ulp.
        below = np.nextafter(1.0, -np.inf)

        def target(x):
            x = np.asarray(x)
            return np.select([x < 0.0, x < below, x < 1.0],
                             [0.25, 0.5, np.nextafter(0.75, 1.0)], 0.75)

        m = EmpiricalMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert ks_distance(m, target) == _two_evaluation_ks(m.points, np.cumsum(m.weights),
                                                           target) == 0.25 + 2.0 ** -53

    def test_rejects_decreasing_target(self):
        m = EmpiricalMeasure.from_samples(np.random.default_rng(3).standard_normal(200))
        with pytest.raises(ParameterError):
            ks_distance(m, lambda x: 1.0 - PHI(x))


def _random_pair(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.integers(1, 300, size=2)
    wa, wb = rng.random(a) + 0.1, rng.random(b) + 0.1
    return (EmpiricalMeasure(rng.standard_normal(a), wa / wa.sum()),
            EmpiricalMeasure(rng.standard_t(3, b) + 0.2, wb / wb.sum()))


def _rounded_pair(seed):
    rng = np.random.default_rng(seed)
    return (EmpiricalMeasure.from_samples(np.round(rng.standard_normal(150), 1)),
            EmpiricalMeasure.from_samples(np.round(rng.standard_normal(90) * 1.2, 1)))


def _point_masses(h):
    return _point_mass(0.0), _point_mass(h)


def _same(seed):
    samples = np.random.default_rng(seed).standard_normal(120)
    return (EmpiricalMeasure.from_samples(samples),
            EmpiricalMeasure.from_samples(samples[::-1]))


def _coupled(seed):
    from wschebor.discrete import coupled_pair
    return coupled_pair(2 ** 16, 40, seed)


def _coupled_at_schedule(n_and_seed):
    """A coupled pair at the lag discrete-lag uses, r = int(n ** 0.6)."""
    from wschebor.discrete import coupled_pair
    n, seed = n_and_seed
    return coupled_pair(n, int(n ** 0.6), seed)


ORACLE_CASES = (
    [pytest.param(_random_pair, s, 1e-12, id=f"random-{s}") for s in range(12)]
    + [pytest.param(_rounded_pair, s, 1e-12, id=f"rounded-{s}") for s in range(6)]
    + [pytest.param(_point_masses, h, 1e-12, id=f"point-masses-{h}")
       for h in (1e-3, 0.1, 0.5, 3.0)]
    + [pytest.param(_same, 4, 0.0, id="same")]
    + [pytest.param(_coupled, 5, 1e-9, id="coupled-2^16")]
    + [pytest.param(_coupled_at_schedule, (2 ** k, s), 1e-9, id=f"coupled-2^{k}-{s}")
       for k in (12, 13) for s in range(4)]
)


def _tie_free_cases():
    """The oracle pairs whose points never repeat (the rounded samples tie)."""
    return [p.values[0](p.values[1]) for p in ORACLE_CASES if not p.id.startswith("rounded")]


class TestBoundedLipschitz:
    """w1_distance, which bounds the bounded-Lipschitz distance: d_BL <= min(W1, 2)."""

    def test_identical_measures(self):
        # Where no point repeats, each tied mu and nu mass takes the running
        # sum from 0 to w and back to exactly 0.
        for pair in _tie_free_cases():
            for m in pair:
                assert w1_distance(m, m) == 0.0

    @pytest.mark.parametrize("h", [0.01, 0.1, 0.5])
    def test_separated_point_masses(self, h):
        assert w1_distance(_point_mass(0.0), _point_mass(h)) == h

    def test_symmetry(self):
        # Bit for bit where no point repeats; ties change the pooled order.
        for mu, nu in _tie_free_cases():
            assert w1_distance(mu, nu) == w1_distance(nu, mu)

    def test_rejects_a_measure_of_mass_other_than_1(self):
        m = EmpiricalMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.25]))
        with pytest.raises(ParameterError):
            w1_distance(m, _point_mass(0.0))


class TestBoundedLipschitzOracle:
    @pytest.mark.parametrize("make, arg, rel", ORACLE_CASES)
    def test_matches_point_evaluation(self, make, arg, rel):
        # scipy evaluates both CDFs at every pooled point and sums |F - G| dx.
        mu, nu = make(arg)
        w1 = w1_distance(mu, nu)
        reference = stats.wasserstein_distance(mu.points, nu.points, mu.weights, nu.weights)
        assert abs(w1 - reference) <= rel * reference
        assert abs(w1_distance(nu, mu) - w1) <= 1e-12 * w1


def _w1_one_sort(mu, nu):
    """W1 from one stable sort of the pooled support: the formula the block merge reproduces."""
    x = np.concatenate([mu.points, nu.points])
    order = np.argsort(x, kind="stable")
    cdf_diff = np.cumsum(np.concatenate([mu.weights, -nu.weights])[order])
    return float(np.dot(np.abs(cdf_diff[:-1]), np.diff(x[order])))


@st.composite
def _tied_measures(draw):
    """Probability measures on few distinct values, so ties and long runs of them are common."""
    size = draw(st.integers(1, 40))
    point = st.integers(-4, 4).map(lambda k: k / 2.0) | st.floats(-3.0, 3.0)
    points = draw(st.lists(point, min_size=size, max_size=size))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=size, max_size=size)), float)
    return EmpiricalMeasure(np.array(points), weights / weights.sum())


# Cut values of block 2 in `first` are 1.0, 1.0 and 2.0: ties on a cut and a run of
# five equal points, longer than a block, in both measures.
_RUNS = EmpiricalMeasure.from_samples(np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0]))
_FEW = EmpiricalMeasure(np.array([1.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))


def _discrete_lag_pairs():
    """The six coupled pairs of the benchmark's discrete-lag config at seed 0."""
    from wschebor.discrete import coupled_pair, power_schedule
    from wschebor.paths import seed_split
    schedule = power_schedule(0.6)
    for nn in (2 ** 14, 2 ** 18):
        for i in range(3):
            yield coupled_pair(nn, int(schedule.r(nn)), seed_split(0, 100 + i))


class TestBlockMerge:
    """w1_distance merges the sorted supports block by block, bit for bit like one sort."""

    @pytest.mark.parametrize("block", [1, 2, 7])
    @settings(max_examples=150, deadline=None)
    @given(mu=_tied_measures(), nu=_tied_measures())
    def test_matches_one_sort(self, block, mu, nu):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "W1_BLOCK", block)
            assert w1_distance(mu, nu).hex() == _w1_one_sort(mu, nu).hex()
            assert w1_distance(nu, mu).hex() == _w1_one_sort(nu, mu).hex()

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 9])
    def test_ties_on_cuts_and_runs_longer_than_a_block(self, monkeypatch, block):
        monkeypatch.setattr(measures, "W1_BLOCK", block)
        for mu, nu in [(_RUNS, _FEW), (_FEW, _RUNS), (_RUNS, _RUNS), (_RUNS, _point_mass(1.0))]:
            assert w1_distance(mu, nu).hex() == _w1_one_sort(mu, nu).hex()

    def test_oracle_pairs_at_the_default_block(self):
        # All but the coupled pairs at 2^13 and 2^16 lie within one block; at 2^13
        # the occupation measure has 65 537 points, so its last block holds one.
        for p in ORACLE_CASES:
            mu, nu = p.values[0](p.values[1])
            assert w1_distance(mu, nu).hex() == _w1_one_sort(mu, nu).hex()
            assert w1_distance(nu, mu).hex() == _w1_one_sort(nu, mu).hex()

    def test_discrete_lag_pairs_at_the_default_block(self):
        for m_n, mu in _discrete_lag_pairs():
            assert mu.points.size > 2 * measures.W1_BLOCK  # so every pair spans several blocks
            assert w1_distance(m_n, mu).hex() == _w1_one_sort(m_n, mu).hex()
