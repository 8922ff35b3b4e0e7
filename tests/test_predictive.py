"""Normalised predictive density estimation via the detailed-balance ratio."""
import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import gpds.predictive
from gpds.chain import ChainOptions, PosteriorDraw, _predictive_probe, run_history_chain
from gpds.generate import draw_prior_dataset
from gpds.gp import GpHyper
from gpds.model import HyperWalkScales, UniformBox, phi
from gpds.predictive import (
    DensityConfig,
    density_grid,
    estimate_denominator,
    estimate_numerator,
)

BOX = UniformBox.unit(1)


def frozen_theta(mean_fn):
    return GpHyper(amplitude=0.0, lengthscales=[1.0], mean=mean_fn)


def frozen_config(mean_fn, retained=400, burn_in=50, sampler="latent-history"):
    return DensityConfig(theta0=frozen_theta(mean_fn), psi0=BOX, priors=None,
                         sampler=sampler,
                         chain_options=ChainOptions(total=burn_in + retained,
                                                    burn_in=burn_in,
                                                    infer_hypers=False))


class TestPredictiveProbe:
    def test_chain_sampler_bitwise_unchanged(self):
        theta = GpHyper(amplitude=1.3, lengthscales=[0.3])
        sampler = draw_prior_dataset(6, theta, BOX, np.random.default_rng(20)).sampler
        before = (len(sampler), sampler.packed.copy(), sampler.whitened.copy(),
                  sampler.values.copy())
        opts = ChainOptions(total=1, burn_in=0,
                            numerator_query=np.array([[0.2], [0.8]]))
        x_pred, draw = _predictive_probe(sampler, BOX, opts,
                                         np.random.default_rng(21), Counter())
        assert x_pred.shape == (1,) and draw.g_query.shape == (2,)
        assert len(sampler) == before[0]
        assert np.array_equal(sampler.packed, before[1])
        assert np.array_equal(sampler.whitened, before[2])
        assert np.array_equal(sampler.values, before[3])


class TestEstimateNumerator:
    def test_constant_phi_gives_base_density(self):
        cfg = frozen_config(0.0, retained=50)
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 1, (6, 1))
        grid = np.array([[0.25], [0.75]])
        result = cfg.run(data, replace(cfg.chain_options, numerator_query=grid), rng)
        for x in grid:
            num, se = estimate_numerator(result.numerator_draws, x)
            assert num == pytest.approx(1.0, abs=1e-12)  # pi(x) on the unit box
            assert se == pytest.approx(0.0, abs=1e-12)

    def test_single_draw_flags_undefined_stderr(self):
        draw = PosteriorDraw(theta=frozen_theta(0.0), psi=BOX,
                             x_pred=np.array([0.5]), g_pred=0.0,
                             query=np.array([[0.3]]), g_query=np.array([0.0]))
        num, se = estimate_numerator([draw], [0.3])
        assert num == pytest.approx(1.0)
        assert math.isnan(se)

    def test_empty_sample_set_raises(self):
        with pytest.raises(ValueError):
            estimate_numerator([], [0.3])

    def test_unregistered_point_raises(self):
        draw = PosteriorDraw(theta=frozen_theta(0.0), psi=BOX,
                             x_pred=np.array([0.5]), g_pred=0.0,
                             query=np.array([[0.3]]), g_query=np.array([0.0]))
        with pytest.raises(ValueError):
            estimate_numerator([draw], [0.9])

    @pytest.mark.slow
    def test_frozen_function_matches_quadrature(self):
        # with a frozen function the predictive sample x' is an exact draw
        # from the normalised density, so the numerator expectation is
        # pi(x) * integral f(x') min(1, phi(g(x)) / phi(g(x'))) dx'
        mean_fn = lambda x: 1.2 * np.sin(5.0 * x[:, 0]) - 0.3
        cfg = frozen_config(mean_fn, retained=1500, burn_in=100)
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 1, (5, 1))
        x = np.array([0.3])
        grid_x = np.array([[0.3]])
        result = cfg.run(data, replace(cfg.chain_options, numerator_query=grid_x), rng)
        num, se = estimate_numerator(result.numerator_draws, x)

        xs = np.linspace(0, 1, 8001)
        phis = phi(mean_fn(xs.reshape(-1, 1)))
        f = phis / np.trapezoid(phis, xs)
        phi_x = phi(mean_fn(grid_x))[0]
        oracle = np.trapezoid(f * np.minimum(1.0, phi_x / phis), xs)
        assert abs(num - oracle) < 3 * se


class TestEstimateDenominator:
    def test_constant_phi_gives_one(self):
        cfg = frozen_config(0.0, retained=60)
        rng = np.random.default_rng(2)
        data = rng.uniform(0, 1, (6, 1))
        den, se = estimate_denominator([0.4], data, cfg, rng)
        assert den == pytest.approx(1.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.slow
    def test_frozen_function_ratio_matches_truth(self):
        mean_fn = lambda x: 1.5 * np.cos(4.0 * x[:, 0])
        cfg = frozen_config(mean_fn, retained=1500, burn_in=100)
        rng = np.random.default_rng(3)
        data = rng.uniform(0, 1, (5, 1))
        x = np.array([0.6])
        grid_x = np.array([[0.6]])
        result = cfg.run(data, replace(cfg.chain_options, numerator_query=grid_x), rng)
        num, num_se = estimate_numerator(result.numerator_draws, x)
        den, den_se = estimate_denominator(x, data, cfg, rng)
        ratio = num / den
        xs = np.linspace(0, 1, 8001)
        phis = phi(mean_fn(xs.reshape(-1, 1)))
        truth = phi(mean_fn(grid_x))[0] / np.trapezoid(phis, xs)
        se = ratio * math.hypot(num_se / num, den_se / den)
        assert abs(ratio - truth) < 3 * se + 1e-9


class TestDensityGrid:
    def test_constant_phi_collapses_to_base(self):
        cfg = frozen_config(0.0, retained=80)
        rng = np.random.default_rng(4)
        data = rng.uniform(0, 1, (6, 1))
        grid = np.linspace(0, 1, 7).reshape(-1, 1)
        out = density_grid(grid, data, cfg, rng)
        assert np.allclose(out.ratios(), 1.0, atol=1e-12)
        assert out.integral == pytest.approx(1.0, abs=1e-12)

    def test_single_point_grid(self):
        cfg = frozen_config(0.0, retained=40)
        rng = np.random.default_rng(5)
        data = rng.uniform(0, 1, (4, 1))
        out = density_grid(np.array([[0.5]]), data, cfg, rng)
        assert len(out.estimates) == 1
        assert out.estimates[0].n_numerator == 40

    def test_rejects_high_dimensional_grids(self):
        cfg = frozen_config(0.0)
        with pytest.raises(ValueError):
            density_grid(np.zeros((4, 3)), np.zeros((3, 3)), cfg,
                         np.random.default_rng(0))

    def test_empty_grid_rejected(self):
        cfg = frozen_config(0.0)
        with pytest.raises(ValueError):
            density_grid(np.empty((0, 1)), np.zeros((3, 1)), cfg,
                         np.random.default_rng(0))

    def test_exchange_backend_runs(self):
        cfg = frozen_config(0.0, retained=30, burn_in=10, sampler="exchange")
        rng = np.random.default_rng(6)
        data = rng.uniform(0, 1, (4, 1))
        out = density_grid(np.array([[0.3], [0.7]]), data, cfg, rng)
        assert np.allclose(out.ratios(), 1.0, atol=1e-12)

    def test_seeded_grid_independent_of_worker_count(self):
        cfg = frozen_config(lambda x: np.sin(3 * x[:, 0]), retained=30, burn_in=10)
        data = np.random.default_rng(7).uniform(0, 1, (4, 1))
        grid = np.array([[0.2], [0.8]])
        outs = []
        for _ in range(2):
            seq = np.random.SeedSequence(123)
            rng = np.random.default_rng(seq.spawn(1)[0])
            outs.append(density_grid(grid, data, cfg, rng, seed_seq=seq))
        assert np.array_equal(outs[0].ratios(), outs[1].ratios())

    def test_chain_options_reach_every_chain(self, monkeypatch):
        # every field but the per-chain query grid and augmented datum is
        # passed through unchanged to the numerator and denominator chains
        seen = []

        def spy(data, theta0, psi0, opts, priors, rng):
            seen.append(opts)
            return run_history_chain(data, theta0, psi0, opts, priors, rng)

        monkeypatch.setattr(gpds.predictive, "run_history_chain", spy)
        given = ChainOptions(
            total=9, burn_in=3, thinning=2, max_proposals=5000, zeta_insert=0.3,
            walk_scales=np.array([0.05]), number_moves=2, hmc_step_size=0.1,
            hmc_leapfrog=3, hmc_target=0.6, crankshaft_eps=0.7, n_extra_controls=1,
            infer_hypers=False, hyper_scales=HyperWalkScales(log_amplitude=0.2),
            record_predictive=True, record_rejections=True)
        cfg = DensityConfig(theta0=GpHyper(amplitude=1.0, lengthscales=[0.5]),
                            psi0=BOX, chain_options=given)
        data = np.random.default_rng(8).uniform(0, 1, (4, 1))
        grid = np.array([[0.5]])
        out = density_grid(grid, data, cfg, np.random.default_rng(9))
        assert out.estimates[0].n_denominator == 3
        numerator, denominator = seen
        assert numerator.numerator_query is grid and numerator.denominator_point is None
        assert denominator.numerator_query is None and denominator.denominator_point == 4
        for opts in seen:
            for f in fields(ChainOptions):
                if f.name not in ("numerator_query", "denominator_point"):
                    assert np.array_equal(getattr(opts, f.name),
                                          getattr(given, f.name)), f.name

    def test_chain_options_left_unchanged(self):
        # burn-in adapts the HMC step size and the walk scales default to
        # the data's spread, both on a private copy: DensityConfig shares
        # one ChainOptions across every density chain
        given = ChainOptions(total=12, burn_in=6, hmc_step_size=0.1)
        before = replace(given)
        theta = GpHyper(amplitude=1.0, lengthscales=[0.5])
        cfg = DensityConfig(theta0=theta, psi0=BOX, chain_options=given)
        data = np.random.default_rng(10).uniform(0, 1, (4, 1))
        density_grid(np.array([[0.3], [0.7]]), data, cfg, np.random.default_rng(11))
        for f in fields(ChainOptions):
            assert np.array_equal(getattr(given, f.name),
                                  getattr(before, f.name)), f.name
        assert given.walk_scales is None
        adapted = run_history_chain(data, theta, BOX, given, None,
                                    np.random.default_rng(12)).hmc_step_size
        assert adapted != given.hmc_step_size == 0.1
