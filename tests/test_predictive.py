"""Normalised predictive density estimation via the detailed-balance ratio."""
import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import gpds.predictive
from gpds.chain import ChainOptions, _predictive_probe, run_history_chain
from gpds.generate import draw_prior_dataset
from gpds.gp import GpHyper
from gpds.model import GaussianBase, HyperPrior, UniformBox, base_logpdf, phi
from gpds.predictive import DensityConfig, density_grid, estimate_denominator

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
    """The numerator half of ``density_grid``: one chain on the plain data,
    averaged at every grid point."""

    def test_constant_phi_gives_base_density(self):
        cfg = frozen_config(0.0, retained=50)
        data = np.random.default_rng(0).uniform(0, 1, (6, 1))
        out = density_grid([[0.25], [0.75]], data, cfg, np.random.SeedSequence(0))
        assert out.n_numerator == 50
        assert out.numerator.shape == out.numerator_se.shape == (2,)
        assert out.numerator == pytest.approx([1.0, 1.0], abs=1e-12)  # pi(x) on the unit box
        assert out.numerator_se == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_single_draw_flags_undefined_stderr(self):
        cfg = frozen_config(0.0, retained=1, burn_in=2)
        data = np.random.default_rng(1).uniform(0, 1, (3, 1))
        out = density_grid([[0.3]], data, cfg, np.random.SeedSequence(1))
        assert out.n_numerator == 1
        assert out.numerator == pytest.approx([1.0])
        assert out.numerator_se.shape == (1,) and math.isnan(out.numerator_se[0])

    def test_empty_sample_set_raises(self):
        cfg = frozen_config(0.0, retained=0, burn_in=0)
        with pytest.raises(ValueError, match="no draws"):
            density_grid([[0.3]], np.zeros((3, 1)) + 0.5, cfg, np.random.SeedSequence(2))

    @pytest.mark.slow
    def test_frozen_function_matches_quadrature(self):
        # with a frozen function the predictive sample x' is an exact draw
        # from the normalised density, so the numerator expectation is
        # pi(x) * integral f(x') min(1, phi(g(x)) / phi(g(x'))) dx'
        mean_fn = lambda x: 1.2 * np.sin(5.0 * x[:, 0]) - 0.3
        cfg = frozen_config(mean_fn, retained=1500, burn_in=100)
        data = np.random.default_rng(1).uniform(0, 1, (5, 1))
        grid_x = np.array([[0.3]])
        out = density_grid(grid_x, data, cfg, np.random.SeedSequence(1))

        xs = np.linspace(0, 1, 8001)
        phis = phi(mean_fn(xs.reshape(-1, 1)))
        f = phis / np.trapezoid(phis, xs)
        phi_x = phi(mean_fn(grid_x))[0]
        oracle = np.trapezoid(f * np.minimum(1.0, phi_x / phis), xs)
        assert abs(out.numerator[0] - oracle) < 3 * out.numerator_se[0]


class TestNumeratorTerms:
    def test_each_draw_matches_the_scalar_formula_under_its_own_psi(self):
        # a Gaussian base with hypers inferred, so the base density differs
        # between retained draws; each draw's term vector is
        # pi(x | psi) min(1, phi(g(x)) / phi(g(x'))) at every grid point,
        # bit for bit, under that draw's psi
        rng = np.random.default_rng(14)
        data = rng.normal(0.4, 0.3, (8, 1))
        psi0 = GaussianBase(mean=[0.4], sigma=[0.3])
        grid = np.linspace(-0.5, 1.5, 9).reshape(-1, 1)
        opts = ChainOptions(total=30, burn_in=5, hyper_walk_scale=0.3,
                            numerator_query=grid)
        draws = run_history_chain(data, GpHyper(amplitude=1.0, lengthscales=[0.5]),
                                  psi0, opts,
                                  HyperPrior.for_data(data, gaussian_base=True),
                                  np.random.default_rng(15)).numerator_draws
        assert len({(d.psi.mean[0], d.psi.sigma[0]) for d in draws}) >= 2
        for d in draws:
            terms = gpds.predictive._numerator_terms(d, grid)
            assert terms.shape == (len(grid),)
            for k, x in enumerate(grid):
                scalar = (math.exp(base_logpdf(x, d.psi))
                          * min(1.0, phi(d.g_query[k]) / phi(d.g_pred)))
                assert terms[k] == scalar


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
        data = np.random.default_rng(3).uniform(0, 1, (5, 1))
        grid_x = np.array([[0.6]])
        out = density_grid(grid_x, data, cfg, np.random.SeedSequence(3))
        xs = np.linspace(0, 1, 8001)
        phis = phi(mean_fn(xs.reshape(-1, 1)))
        truth = phi(mean_fn(grid_x)) / np.trapezoid(phis, xs)
        se = out.ratio * np.hypot(out.numerator_se / out.numerator,
                                  out.denominator_se / out.denominator)
        assert np.all(np.abs(out.ratio - truth) < 3 * se + 1e-9)


class TestDensityGrid:
    def test_constant_phi_collapses_to_base(self):
        cfg = frozen_config(0.0, retained=80)
        data = np.random.default_rng(4).uniform(0, 1, (6, 1))
        grid = np.linspace(0, 1, 7).reshape(-1, 1)
        out = density_grid(grid, data, cfg, np.random.SeedSequence(4))
        assert np.allclose(out.ratio, 1.0, atol=1e-12)
        assert out.integral == pytest.approx(1.0, abs=1e-12)

    def test_single_point_grid(self):
        # one point has no trapezoid integral
        cfg = frozen_config(0.0, retained=40)
        data = np.random.default_rng(5).uniform(0, 1, (4, 1))
        out = density_grid(np.array([[0.5]]), data, cfg, np.random.SeedSequence(5))
        assert out.points.shape == (1, 1)
        for values in (out.numerator, out.numerator_se, out.denominator,
                       out.denominator_se, out.ratio):
            assert values.shape == (1,)
        assert out.n_numerator == 40
        assert out.integral is None

    def test_rejects_high_dimensional_grids(self):
        cfg = frozen_config(0.0)
        with pytest.raises(ValueError):
            density_grid(np.zeros((4, 3)), np.zeros((3, 3)), cfg,
                         np.random.SeedSequence(0))

    def test_empty_grid_rejected(self):
        cfg = frozen_config(0.0)
        with pytest.raises(ValueError):
            density_grid(np.empty((0, 1)), np.zeros((3, 1)), cfg,
                         np.random.SeedSequence(0))

    def test_exchange_backend_runs(self):
        cfg = frozen_config(0.0, retained=30, burn_in=10, sampler="exchange")
        data = np.random.default_rng(6).uniform(0, 1, (4, 1))
        out = density_grid(np.array([[0.3], [0.7]]), data, cfg,
                           np.random.SeedSequence(6))
        assert np.allclose(out.ratio, 1.0, atol=1e-12)

    def test_seeded_grid_independent_of_worker_count(self):
        theta = GpHyper(amplitude=1.0, lengthscales=[0.5])
        cfg = DensityConfig(theta0=theta, psi0=BOX,
                            chain_options=ChainOptions(total=12, burn_in=4,
                                                       infer_hypers=False))
        data = np.random.default_rng(7).uniform(0, 1, (4, 1))
        grid = np.array([[0.2], [0.8]])
        outs = [density_grid(grid, data, cfg, np.random.SeedSequence(123), workers=w)
                for w in (1, 1, 2)]
        for out in outs[1:]:
            assert np.array_equal(out.numerator, outs[0].numerator)
            assert np.array_equal(out.denominator, outs[0].denominator)

    def test_one_task_starts_no_process_pool(self, monkeypatch):
        # a one-point grid has one denominator chain: it runs in this
        # process whatever the worker count
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        cfg = frozen_config(0.0, retained=10, burn_in=2)
        data = np.random.default_rng(16).uniform(0, 1, (4, 1))
        out = density_grid(np.array([[0.5]]), data, cfg,
                           np.random.SeedSequence(16), workers=4)
        assert out.denominator == pytest.approx([1.0])

    def test_seed_children_are_numerator_then_points(self):
        # child 0 of the seed sequence drives the numerator chain, child
        # k + 1 the denominator chain at grid point k
        theta = GpHyper(amplitude=1.0, lengthscales=[0.5])
        cfg = DensityConfig(theta0=theta, psi0=BOX,
                            chain_options=ChainOptions(total=8, burn_in=2,
                                                       infer_hypers=False))
        data = np.random.default_rng(13).uniform(0, 1, (4, 1))
        grid = np.array([[0.2], [0.8]])
        out = density_grid(grid, data, cfg, np.random.SeedSequence(5))
        children = np.random.SeedSequence(5).spawn(3)
        numerator = cfg.run(data, replace(cfg.chain_options, numerator_query=grid),
                            np.random.default_rng(children[0]))
        terms = [gpds.predictive._numerator_terms(d, grid)
                 for d in numerator.numerator_draws]
        for k in range(len(grid)):
            den, _ = estimate_denominator(grid[k], data, cfg,
                                          np.random.default_rng(children[1 + k]))
            assert out.denominator[k] == den
            assert out.numerator[k] == np.mean([t[k] for t in terms])

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
            infer_hypers=False, hyper_walk_scale=0.2,
            record_predictive=True, record_rejections=True)
        cfg = DensityConfig(theta0=GpHyper(amplitude=1.0, lengthscales=[0.5]),
                            psi0=BOX, chain_options=given)
        data = np.random.default_rng(8).uniform(0, 1, (4, 1))
        grid = np.array([[0.5]])
        out = density_grid(grid, data, cfg, np.random.SeedSequence(9))
        assert out.n_denominator == 3
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
        density_grid(np.array([[0.3], [0.7]]), data, cfg, np.random.SeedSequence(11))
        for f in fields(ChainOptions):
            assert np.array_equal(getattr(given, f.name),
                                  getattr(before, f.name)), f.name
        assert given.walk_scales is None
        adapted = run_history_chain(data, theta, BOX, given, None,
                                    np.random.default_rng(12)).hmc_step_size
        assert adapted != given.hmc_step_size == 0.1
