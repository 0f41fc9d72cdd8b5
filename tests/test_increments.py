import numpy as np
import pytest
from scipy import stats

from wschebor.errors import CoverageError, ParameterError, ResolutionError
from wschebor.increments import (
    _dpsi_stencil,
    _trapezoid_pieces,
    correlate_valid,
    dot_increment,
    dpsi_window,
    normalized_increment,
    unit_scale_process,
)
from wschebor.measures import (
    EmpiricalMeasure,
    ks_critical_value,
    ks_distance,
    ks_two_sample,
)
from wschebor.mollifiers import (
    kernel_by_id,
    kernel_ou_exponential,
    kernel_psi1,
    kernel_psi2,
)
from wschebor.levelproc import extract_cloud
from wschebor.measures import occupation_measure
from wschebor.paths import (GridPath, ProcessDescriptor, replica_seeds, simulate,
                            simulate_brownian, simulate_fbm)


def _linear_path(lo, hi, n, slope=1.0):
    ts = np.linspace(lo, hi, n)
    return GridPath(lo, ts[1] - ts[0], slope * ts, ProcessDescriptor("brownian"))


def _const_path(lo, hi, n, c):
    return GridPath(lo, (hi - lo) / (n - 1), np.full(n, c), ProcessDescriptor("brownian"))


class TestReplicaBatch:
    @pytest.mark.parametrize("kernel_id, fft_route", [("psi1", False), ("triangle", True)])
    @pytest.mark.parametrize("family,extra", [("brownian", {}), ("fbm", {"hurst": 0.7})])
    def test_batch_equals_row_by_row(self, kernel_id, fft_route, family, extra):
        kernel, eps = kernel_by_id(kernel_id), 2.0 ** -5
        lo, hi = dpsi_window(kernel, eps, (0.0, 1.0))
        n = int(round((hi - lo) * 512)) + 1
        desc = ProcessDescriptor(family, **extra)
        seeds = replica_seeds(5, 6)
        batch = normalized_increment(simulate(desc, n, hi - lo, seeds, t_start=lo),
                                     kernel, eps)
        assert (_dpsi_stencil(kernel, eps, batch.dt)[2].size > 8) == fft_route
        for k, seed in enumerate(seeds):
            alone = normalized_increment(simulate(desc, n, hi - lo, seed, t_start=lo),
                                         kernel, eps)
            assert np.array_equal(batch.values[k].view(np.int64),
                                  alone.values.view(np.int64))
            assert (batch.t_start, batch.dt) == (alone.t_start, alone.dt)

    def test_one_path_consumers_refuse_a_batch(self):
        batch = simulate_brownian(257, 1.5, replica_seeds(1, 3), t_start=-0.25)
        with pytest.raises(ParameterError, match="batch"):
            occupation_measure(batch)
        with pytest.raises(ParameterError, match="batch"):
            extract_cloud(batch, 2.0 ** -4, 4, 5)


class TestDotIncrement:
    def test_resolution_guard(self):
        lin = _linear_path(-0.5, 1.5, 129)
        with pytest.raises(ResolutionError):
            dot_increment(lin, kernel_psi1(), lin.dt)

    def test_coverage_guard(self):
        lin = _linear_path(0.0, 1.0, 1025)
        with pytest.raises(CoverageError):
            dot_increment(lin, kernel_psi1(), 0.25)  # needs values beyond t = 1

    def test_forward_difference_exact(self):
        # Atoms on grid nodes: no interpolation or quadrature error, only
        # float reassociation against the hand-written difference quotient.
        w = simulate_brownian(2 ** 13 + 1, 1.25, 5)
        eps = 64 * w.dt
        out = dot_increment(w, kernel_psi1(), eps)
        i0 = w.node_index(out.t_start)
        k = round(eps / w.dt)
        n = len(out.values)
        manual = (w.values[i0 + k:i0 + k + n] - w.values[i0:i0 + n]) / eps
        assert np.allclose(out.values, manual, rtol=1e-12, atol=1e-12)

    def test_second_difference(self):
        w = simulate_brownian(2 ** 13 + 1, 1.5, 6, t_start=-0.25)
        eps = 32 * w.dt
        out = dot_increment(w, kernel_psi2(), eps, window=(0.25, 0.75))
        i0 = w.node_index(out.t_start)
        k = round(eps / w.dt)
        n = len(out.values)
        manual = (w.values[i0 + k:i0 + k + n] - 2 * w.values[i0:i0 + n]
                  + w.values[i0 - k:i0 - k + n]) / (2 * eps)
        assert np.max(np.abs(out.values - manual)) < 1e-12

    def test_constant_annihilated(self):
        const = _const_path(-6.0, 2.0, 2 ** 13, 3.0)
        for kid in ("psi1", "psi2", "triangle", "ou-exp"):
            out = dot_increment(const, kernel_by_id(kid), 0.1, window=(0.0, 0.5))
            assert np.max(np.abs(out.values)) < 2e-3, kid

    def test_rejects_kernel_without_derivative(self):
        w = simulate_brownian(2 ** 10, 1.5, 0)
        with pytest.raises(ParameterError):
            dot_increment(w, kernel_by_id("ou-bessel"), 0.25)

    def test_window_requirements(self):
        assert dpsi_window(kernel_psi1(), 0.25, (0.0, 1.0)) == (0.0, 1.25)
        lo, hi = dpsi_window(kernel_ou_exponential(), 0.5, (0.0, 1.0))
        assert lo < -20 and hi == 1.0

    def test_off_grid_atoms_split_linearly(self):
        # At eps = 4.5 dt the atom at -1 lands halfway between two nodes:
        # exact on a linear path, and off by dt^2/(4 eps) on t^2.
        dt = 2.0 ** -10
        eps = 4.5 * dt
        ts = np.arange(int(1.5 / dt) + 1) * dt
        desc = ProcessDescriptor("brownian")
        out = dot_increment(GridPath(0.0, dt, ts, desc), kernel_psi1(), eps)
        assert np.max(np.abs(out.values - 1.0)) < 1e-11
        out = dot_increment(GridPath(0.0, dt, ts ** 2, desc), kernel_psi1(), eps)
        t = out.t_start + np.arange(out.values.size) * dt
        assert np.max(np.abs(out.values - (2 * t + eps + dt ** 2 / (4 * eps)))) < 1e-11

    @pytest.mark.parametrize("kid", ["psi1", "psi2", "triangle", "ou-exp"])
    @pytest.mark.parametrize("ratio", [4, 4.5, 8, 64, 256])
    def test_stencil_matches_node_by_node_reference(self, kid, ratio):
        # Reference: each node's shares added one at a time, in node order.
        k, eps = kernel_by_id(kid), 0.1
        dt = eps / ratio
        nodes = [(-eps * loc / dt, w / eps) for loc, w in k.atoms]
        if k.density is not None:
            u, w = _trapezoid_pieces(k.density, *k.support,
                                     k.density_breakpoints, dt / eps)
            nodes += [(-eps * uj / dt, wj) for uj, wj in zip(u, w / eps)]
        ref = {}
        for off, wt in nodes:
            lo = int(np.floor(off))
            frac = off - lo
            if frac < 1e-9:
                shares = [(lo, wt)]
            elif frac > 1.0 - 1e-9:
                shares = [(lo + 1, wt)]
            else:
                shares = [(lo, wt * (1.0 - frac)), (lo + 1, wt * frac)]
            for o, v in shares:
                ref[o] = ref.get(o, 0.0) + v
        o_min, weights, touched = _dpsi_stencil(k, eps, dt)
        assert touched.tolist() == sorted(ref)
        dense = np.zeros(weights.size)
        for o, v in ref.items():
            dense[o - o_min] = v
        assert o_min == min(ref) and dense.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("n, m", [(100, 9), (1000, 377), (4097, 4097)])
    def test_fft_correlation_matches_direct_sum(self, n, m):
        rng = np.random.default_rng(n + m)
        x, w = rng.standard_normal(n), rng.standard_normal(m)
        ref = np.correlate(x, w, mode="valid")
        assert np.max(np.abs(correlate_valid(x, w) - ref)) <= 1e-12 * np.sqrt(m)

    def test_stencil_is_cached_and_read_only(self):
        k = kernel_by_id("triangle")
        st = _dpsi_stencil(k, 0.1, 0.01)
        assert _dpsi_stencil(k, 0.1, 0.01) is st
        assert _dpsi_stencil(kernel_by_id("triangle"), 0.1, 0.01) is not st
        _, weights, touched = st
        assert not weights.flags.writeable and not touched.flags.writeable


class TestNormalizedIncrement:
    def test_brownian_forward_marginal_is_standard_normal(self):
        vals = []
        for seed in range(300):
            w = simulate_brownian(2 ** 11 + 1, 1.25, seed)
            x = normalized_increment(w, kernel_psi1(), 2 ** -4)
            step = round(2 * 2 ** -4 / x.dt)  # decorrelated samples
            vals.extend(x.values[::step])
        mu = EmpiricalMeasure.from_samples(np.array(vals))
        assert ks_distance(mu, stats.norm.cdf) < ks_critical_value(len(vals), alpha=0.01)

    def test_general_kernel_marginal_variance_is_l2_norm(self):
        kern = kernel_ou_exponential()
        vals = []
        for seed in range(200):
            w = simulate_brownian(2 ** 12 + 1, 8.0, seed, t_start=-6.5)
            x = normalized_increment(w, kern, 0.125, window=(0.0, 1.0))
            vals.extend(x.values[:: round(0.5 / x.dt)])
        vals = np.array(vals)
        assert abs(vals.var() - kern.norm(2) ** 2) < 4.0 * np.sqrt(2.0 / len(vals))

    def test_fbm_marginal_variance_matches_spectral(self):
        from wschebor.spectral import sigma_sq
        hurst = 0.3
        target = sigma_sq(kernel_psi1(), hurst)
        vals = []
        for seed in range(400):
            p = simulate_fbm(hurst, 2 ** 10 + 1, 1.25, seed)
            x = normalized_increment(p, kernel_psi1(), 2 ** -4)
            vals.extend(x.values[:: round(2 * 2 ** -4 / x.dt)])
        vals = np.array(vals)
        assert abs(vals.var() - target) < 5.0 * target * np.sqrt(2.0 / len(vals))

    def test_requires_descriptor(self):
        p = GridPath(0.0, 0.01, np.zeros(256), process=None)
        with pytest.raises(ParameterError):
            normalized_increment(p, kernel_psi1(), 0.1, window=(0.0, 0.5))


class TestUnitScale:
    def test_slepian_identity(self):
        w = simulate_brownian(2 ** 12 + 1, 4.0, 17)
        s = unit_scale_process(w, kernel_psi1(), window=(0.0, 3.0))
        i0 = w.node_index(0.0)
        k = round(1.0 / w.dt)
        n = len(s.values)
        manual = w.values[i0 + k:i0 + k + n] - w.values[i0:i0 + n]
        assert np.array_equal(s.values, manual)

    def test_long_run_mean_vanishes(self):
        means = []
        for seed in range(100):
            w = simulate_brownian(2 ** 12 + 1, 65.0, seed)
            s = unit_scale_process(w, kernel_psi1(), window=(0.0, 64.0))
            means.append(s.values.mean())
        m = np.array(means)
        assert abs(m.mean()) < 4.0 * m.std() / 10.0

    def test_ou_kernel_lag_one_autocorrelation(self):
        cors = []
        for seed in range(100):
            w = simulate_brownian(2 ** 13 + 1, 96.0, seed, t_start=-46.0)
            y = unit_scale_process(w, kernel_ou_exponential(), window=(0.0, 50.0))
            v = y.values
            k = round(1.0 / y.dt)
            cors.append(np.mean(v[:-k] * v[k:]) / np.mean(v * v))
        c = np.array(cors)
        assert abs(c.mean() - np.exp(-1.0)) < 4.0 * c.std() / 10.0

    def test_stationarity_of_marginals(self):
        at = {0.0: [], 5.0: [], 17.0: []}
        for seed in range(3000):
            w = simulate_brownian(2 ** 7 + 1, 19.0, seed)
            s = unit_scale_process(w, kernel_psi1(), window=(0.0, 18.0))
            for t in at:
                at[t].append(s.value_at(t))
        crit = ks_critical_value(3000, 3000, alpha=0.01)
        for t in (5.0, 17.0):
            d = ks_two_sample(EmpiricalMeasure.from_samples(np.array(at[0.0])),
                              EmpiricalMeasure.from_samples(np.array(at[t])))
            assert d < crit, t

    def test_compact_support_dependence_range(self):
        # With an independent-increment source and support width 1, values
        # more than 1 apart are independent.
        x0, x2 = [], []
        for seed in range(4000):
            w = simulate_brownian(2 ** 6 + 1, 4.0, seed)
            s = unit_scale_process(w, kernel_psi1(), window=(0.0, 3.0))
            x0.append(s.value_at(0.0))
            x2.append(s.value_at(2.5))
        x0, x2 = np.array(x0), np.array(x2)
        corr = np.corrcoef(x0, x2)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(len(x0))


class TestScalingReduction:
    def test_occupation_measure_matches_time_average(self):
        # Small-scale occupation on [0,1] against the long-run time average
        # of the unit-scale process, each sampled at decorrelated times and
        # pooled over independent replicas.
        eps = 2.0 ** -6
        n_rep = 250
        left, right = [], []
        for seed in range(n_rep):
            w = simulate_brownian(2 ** 10 + 1, 1.0 + eps, seed)
            x = normalized_increment(w, kernel_psi1(), eps)
            left.extend(x.values[:: round(2 * eps / x.dt)])
            w2 = simulate_brownian(2 ** 10 + 1, 65.0, 10 ** 6 + seed)
            y = unit_scale_process(w2, kernel_psi1(), window=(0.0, 64.0))
            right.extend(y.values[:: round(2.0 / y.dt)])
        mu = EmpiricalMeasure.from_samples(np.array(left))
        nu = EmpiricalMeasure.from_samples(np.array(right))
        d = ks_two_sample(mu, nu)
        assert d < ks_critical_value(len(left), len(right), alpha=0.01)
