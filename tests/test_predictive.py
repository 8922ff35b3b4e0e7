"""Normalised predictive density estimation: the one-chain estimator of
``density_grid``, checked against quadrature and against the
detailed-balance ratio estimator built here from ``estimate_denominator``."""
import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import gpds.predictive
from gpds.chain import (
    ChainOptions,
    _predictive_probe,
    run_exchange_chain,
    run_history_chain,
)
from gpds.generate import continue_sampler, draw_prior_dataset
from gpds.gp import GpHyper
from gpds.model import GaussianBase, HyperPrior, UniformBox, base_logpdf, phi
from gpds.predictive import DensityConfig, density_grid, estimate_denominator
from gpds.synthetic import sample_f1

BOX = UniformBox.unit(1)


def sine(x):
    """The frozen function of the quadrature tests; Z = 0.477 on the unit box."""
    return 1.2 * np.sin(5.0 * x[:, 0]) - 0.3


def frozen_theta(mean_fn):
    return GpHyper(amplitude=0.0, lengthscales=[1.0], mean=mean_fn)


def frozen_config(mean_fn, retained=400, burn_in=50, sampler="latent-history"):
    return DensityConfig(theta0=frozen_theta(mean_fn), psi0=BOX, priors=None,
                         sampler=sampler,
                         chain_options=ChainOptions(total=burn_in + retained,
                                                    burn_in=burn_in,
                                                    infer_hypers=False))


def quadrature_z(mean_fn) -> float:
    """Z = integral over the unit box of phi(mean_fn(x))."""
    xs = np.linspace(0, 1, 8001)
    return float(np.trapezoid(phi(mean_fn(xs.reshape(-1, 1))), xs))


class Capturing(DensityConfig):
    """A DensityConfig that keeps the result of every chain it runs."""

    def run(self, data, opts, rng):
        result = super().run(data, opts, rng)
        self.results = [*getattr(self, "results", []), result]
        return result


def ratio_estimator(grid, data, config, seed_seq):
    """The detailed-balance ratio estimator, as ``density_grid`` computed
    it before it ran one chain: the numerator averages
    pi(x | psi) min(1, phi(g(x)) / phi(g(x'))) along a chain seeded from
    child 0 of ``seed_seq.spawn(1 + G)``, and grid point k takes its
    denominator from ``estimate_denominator`` seeded from child k + 1."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    children = seed_seq.spawn(1 + len(grid))
    draws = config.run(data, replace(config.chain_options, numerator_query=grid),
                       np.random.default_rng(children[0])).numerator_draws
    terms = np.array([np.exp(base_logpdf(grid, d.psi))
                      * np.minimum(1.0, phi(d.g_query) / phi(d.g_pred))
                      for d in draws])
    den = np.array([estimate_denominator(x, data, config, np.random.default_rng(c))[0]
                    for x, c in zip(grid, children[1:])])
    return terms.mean(axis=0) / den


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

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_are_the_runs_own_and_draw_nothing_more(self, seed):
        # T and S come from the probe's own rejection run, read before the
        # query draw, and the probe draws exactly what a plain run plus the
        # query draw does: the chain's random stream does not change
        theta = GpHyper(amplitude=1.3, lengthscales=[0.3], mean=-1.0)
        sampler = draw_prior_dataset(6, theta, BOX, np.random.default_rng(seed)).sampler
        query = np.array([[0.2], [0.5], [0.8]])
        opts = ChainOptions(total=1, burn_in=0, numerator_query=query)
        rng = np.random.default_rng(100 + seed)
        _, draw = _predictive_probe(sampler, BOX, opts, rng, Counter())

        plain = np.random.default_rng(100 + seed)
        trace = continue_sampler(sampler.copy(), 1, BOX, plain)
        t = trace.proposal_count
        assert draw.proposal_count == t == len(trace.sampler) - len(sampler)
        assert draw.phi_sum == float(np.sum(phi(trace.sampler.values[-t:])))
        assert np.array_equal(draw.g_query, trace.sampler.draw_batch(query, plain))
        assert rng.bit_generator.state == plain.bit_generator.state


class TestEstimateNumerator:
    """The estimate ``density_grid`` forms from one chain on the plain
    data: numerator pi(x) phi(g(x)) T at every grid point, denominator S."""

    def test_constant_phi_gives_base_density(self):
        # phi is 1/2 everywhere, so every draw's numerator term is T / 2 at
        # every point and its S is T / 2: the ratio is pi(x) = 1 exactly
        cfg = frozen_config(0.0, retained=50)
        data = np.random.default_rng(0).uniform(0, 1, (6, 1))
        out = density_grid([[0.25], [0.75]], data, cfg, np.random.SeedSequence(0))
        assert out.n_draws == 50 and out.probe_budget_failures == 0
        assert out.numerator.shape == out.numerator_se.shape == (2,)
        assert out.ratio == pytest.approx([1.0, 1.0], abs=1e-12)  # pi(x) on the unit box
        assert out.numerator == pytest.approx([out.denominator] * 2, abs=1e-12)
        assert out.numerator_se == pytest.approx([out.denominator_se] * 2, abs=1e-12)

    def test_single_draw_flags_undefined_stderr(self):
        cfg = frozen_config(0.0, retained=1, burn_in=2)
        data = np.random.default_rng(1).uniform(0, 1, (3, 1))
        out = density_grid([[0.3]], data, cfg, np.random.SeedSequence(1))
        assert out.n_draws == 1
        assert out.ratio == pytest.approx([1.0])
        assert out.numerator_se.shape == (1,) and math.isnan(out.numerator_se[0])
        assert math.isnan(out.denominator_se)

    def test_empty_sample_set_raises(self):
        cfg = frozen_config(0.0, retained=0, burn_in=0)
        with pytest.raises(ValueError, match="no draws"):
            density_grid([[0.3]], np.zeros((3, 1)) + 0.5, cfg, np.random.SeedSequence(2))

    @pytest.mark.slow
    def test_frozen_function_matches_quadrature(self):
        # with a frozen function every draw is independent, so the
        # delta-method standard error of the ratio, from the per-draw terms,
        # is honest: over 40 seeds of this config each sampler's error in
        # those units had sd 0.89-0.97 and at most |z| = 2.31 over the five
        # points.  (The hypot of the two stderr_* columns, which ignores
        # that both terms share T, is about four times wider.)
        grid = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
        truth = phi(sine(grid)) / quadrature_z(sine)
        data = np.random.default_rng(1).uniform(0, 1, (5, 1))
        for sampler in ("latent-history", "exchange"):
            cfg = Capturing(**vars(frozen_config(sine, retained=1500, burn_in=100,
                                                 sampler=sampler)))
            out = density_grid(grid, data, cfg, np.random.SeedSequence(1))
            (result,) = cfg.results
            terms = gpds.predictive._numerator_terms(result.numerator_draws, grid)
            s = np.array([d.phi_sum for d in result.numerator_draws])
            se = (np.std(terms - out.ratio * s[:, None], axis=0, ddof=1)
                  / math.sqrt(len(s)) / out.denominator)
            assert np.all(np.abs(out.ratio - truth) < 3 * se), sampler


class TestNumeratorTerms:
    def test_each_draw_matches_the_scalar_formula_under_its_own_psi(self):
        # a Gaussian base with hypers inferred, so the base density differs
        # between retained draws; row i of the terms is
        # pi(x | psi_i) phi(g_i(x)) T_i at every grid point, under draw i's
        # psi (np.exp may round differently from math.exp in the last bit)
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
        assert len({d.proposal_count for d in draws}) >= 2
        terms = gpds.predictive._numerator_terms(draws, grid)
        assert terms.shape == (len(draws), len(grid))
        for row, d in zip(terms, draws):
            for k, x in enumerate(grid):
                scalar = (math.exp(base_logpdf(x, d.psi)) * phi(d.g_query[k])
                          * d.proposal_count)
                assert row[k] == pytest.approx(scalar, rel=1e-15, abs=0)


class TestOneChainIdentities:
    @pytest.mark.parametrize("run", [run_history_chain, run_exchange_chain])
    def test_degenerate_sampler_means_of_t_and_s(self, run):
        # amplitude 0: the function is the mean function, so T is geometric
        # with mean 1 / Z and S has mean 1 (Wald's identity).  The draws are
        # independent; over 40 seeds of 1500 draws each, the largest error
        # was 2.44 standard errors for T and 2.84 for S.
        z = quadrature_z(sine)
        data = np.random.default_rng(2).uniform(0, 1, (5, 1))
        opts = ChainOptions(total=2100, burn_in=100, infer_hypers=False,
                            numerator_query=np.array([[0.5]]))
        draws = run(data, frozen_theta(sine), BOX, opts, None,
                    np.random.default_rng(3)).numerator_draws
        t = np.array([d.proposal_count for d in draws], dtype=float)
        s = np.array([d.phi_sum for d in draws])
        assert len(draws) == 2000
        assert abs(t.mean() - 1 / z) < 3 * t.std(ddof=1) / math.sqrt(len(t))
        assert abs(s.mean() - 1.0) < 3 * s.std(ddof=1) / math.sqrt(len(s))

    def test_constant_phi_ratio_is_one(self):
        # S = T phi and the numerator term is pi(x) T phi: the same float
        cfg = frozen_config(0.7, retained=60, burn_in=5, sampler="exchange")
        data = np.random.default_rng(4).uniform(0, 1, (5, 1))
        out = density_grid(np.linspace(0, 1, 4).reshape(-1, 1), data, cfg,
                           np.random.SeedSequence(4))
        assert out.ratio == pytest.approx([1.0] * 4, abs=1e-12)
        assert out.denominator != pytest.approx(1.0, abs=1e-3)  # T varies

    @pytest.mark.slow
    def test_small_f1_agrees_with_the_ratio_estimator(self):
        # both estimate p(x | D) from 300 retained draws at fixed hypers;
        # neither chain mixes fully in that budget.  Over seeds 0-39 of this
        # config the largest relative difference at any of the five points
        # was 0.150, the per-point sd 1.8-7.0 % and the per-point mean within
        # 2.3 % of 0; the tolerance is 0.2.
        data = sample_f1(30, np.random.default_rng(3)).reshape(-1, 1)
        cfg = DensityConfig(theta0=GpHyper(amplitude=1.0, lengthscales=[0.3]),
                            psi0=BOX, chain_options=ChainOptions(
                                total=350, burn_in=50, infer_hypers=False))
        grid = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
        out = density_grid(grid, data, cfg, np.random.SeedSequence(8))
        ratio = ratio_estimator(grid, data, cfg, np.random.SeedSequence(8))
        assert np.all(np.abs(out.ratio / ratio - 1) < 0.2)

    @pytest.mark.parametrize("n_grid", [1, 3, 7])
    def test_one_chain_whatever_the_grid(self, monkeypatch, n_grid):
        calls = []
        run = DensityConfig.run

        def spy_run(self, *args):
            calls.append(args)
            return run(self, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("estimate_denominator was called")

        monkeypatch.setattr(DensityConfig, "run", spy_run)
        monkeypatch.setattr(gpds.predictive, "estimate_denominator", refuse)
        cfg = frozen_config(0.0, retained=10, burn_in=2)
        data = np.random.default_rng(17).uniform(0, 1, (4, 1))
        density_grid(np.linspace(0, 1, n_grid).reshape(-1, 1), data, cfg,
                     np.random.SeedSequence(17))
        assert len(calls) == 1


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
        # the ratio estimator built from estimate_denominator, the
        # cross-check of density_grid, on a frozen function
        mean_fn = lambda x: 1.5 * np.cos(4.0 * x[:, 0])
        cfg = frozen_config(mean_fn, retained=1500, burn_in=100)
        data = np.random.default_rng(3).uniform(0, 1, (5, 1))
        grid_x = np.array([[0.6]])
        children = np.random.SeedSequence(3).spawn(2)
        draws = cfg.run(data, replace(cfg.chain_options, numerator_query=grid_x),
                        np.random.default_rng(children[0])).numerator_draws
        terms = np.array([math.exp(base_logpdf(grid_x[0], d.psi))
                          * min(1.0, phi(d.g_query[0]) / phi(d.g_pred)) for d in draws])
        num, num_se = terms.mean(), terms.std(ddof=1) / math.sqrt(len(terms))
        den, den_se = estimate_denominator(grid_x[0], data, cfg,
                                           np.random.default_rng(children[1]))
        truth = phi(mean_fn(grid_x))[0] / quadrature_z(mean_fn)
        se = num / den * math.hypot(num_se / num, den_se / den)
        assert abs(num / den - truth) < 3 * se + 1e-9


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
        for values in (out.numerator, out.numerator_se, out.ratio):
            assert values.shape == (1,)
        assert isinstance(out.denominator, float) and isinstance(out.denominator_se, float)
        assert out.n_draws == 40
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

    def test_seeded_grid_is_reproducible(self):
        theta = GpHyper(amplitude=1.0, lengthscales=[0.5])
        cfg = DensityConfig(theta0=theta, psi0=BOX,
                            chain_options=ChainOptions(total=12, burn_in=4,
                                                       infer_hypers=False))
        data = np.random.default_rng(7).uniform(0, 1, (4, 1))
        grid = np.array([[0.2], [0.8]])
        outs = [density_grid(grid, data, cfg, np.random.SeedSequence(seed))
                for seed in (123, 123, 124)]
        assert np.array_equal(outs[1].numerator, outs[0].numerator)
        assert outs[1].denominator == outs[0].denominator
        assert not np.array_equal(outs[2].numerator, outs[0].numerator)

    def test_starts_no_process_pool(self, monkeypatch):
        # one chain, whatever the grid: it runs in this process
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        cfg = frozen_config(0.0, retained=10, burn_in=2)
        data = np.random.default_rng(16).uniform(0, 1, (4, 1))
        out = density_grid(np.linspace(0, 1, 5).reshape(-1, 1), data, cfg,
                           np.random.SeedSequence(16))
        assert out.ratio == pytest.approx([1.0] * 5)

    def test_chain_seeded_from_the_first_child(self):
        # the chain draws from child 0 of the seed sequence, which was the
        # numerator chain's child when every grid point also ran a
        # denominator chain, so its draws are that chain's
        theta = GpHyper(amplitude=1.0, lengthscales=[0.5])
        cfg = DensityConfig(theta0=theta, psi0=BOX,
                            chain_options=ChainOptions(total=8, burn_in=2,
                                                       infer_hypers=False))
        data = np.random.default_rng(13).uniform(0, 1, (4, 1))
        grid = np.array([[0.2], [0.8]])
        out = density_grid(grid, data, cfg, np.random.SeedSequence(5))
        child = np.random.SeedSequence(5).spawn(1 + len(grid))[0]
        draws = cfg.run(data, replace(cfg.chain_options, numerator_query=grid),
                        np.random.default_rng(child)).numerator_draws
        terms = gpds.predictive._numerator_terms(draws, grid)
        assert np.array_equal(out.numerator, np.mean(terms, axis=0))
        assert out.denominator == np.mean([d.phi_sum for d in draws])

    def test_chain_options_reach_the_chain(self, monkeypatch):
        # every field but the query grid is passed through unchanged to the
        # one chain
        seen = []

        def spy(data, theta0, psi0, opts, priors, rng):
            seen.append(opts)
            return run_history_chain(data, theta0, psi0, opts, priors, rng)

        monkeypatch.setattr(gpds.predictive, "run_history_chain", spy)
        given = ChainOptions(
            total=9, burn_in=3, thinning=2, max_proposals=5000, zeta_insert=0.3,
            number_moves=2, hmc_step_size=0.1,
            hmc_leapfrog=3, hmc_target=0.6, crankshaft_eps=0.7, n_extra_controls=1,
            infer_hypers=False, hyper_walk_scale=0.2,
            record_predictive=True, record_rejections=True)
        cfg = DensityConfig(theta0=GpHyper(amplitude=1.0, lengthscales=[0.5]),
                            psi0=BOX, chain_options=given)
        data = np.random.default_rng(8).uniform(0, 1, (4, 1))
        grid = np.array([[0.5]])
        out = density_grid(grid, data, cfg, np.random.SeedSequence(9))
        assert out.n_draws == 3
        (opts,) = seen
        assert opts.numerator_query is grid and opts.denominator_point is None
        for f in fields(ChainOptions):
            if f.name != "numerator_query":
                assert np.array_equal(getattr(opts, f.name),
                                      getattr(given, f.name)), f.name

    def test_chain_options_left_unchanged(self):
        # burn-in adapts the HMC step size on a private copy: the caller's
        # ChainOptions may be shared with other chains
        given = ChainOptions(total=12, burn_in=6, hmc_step_size=0.1)
        before = replace(given)
        theta = GpHyper(amplitude=1.0, lengthscales=[0.5])
        cfg = DensityConfig(theta0=theta, psi0=BOX, chain_options=given)
        data = np.random.default_rng(10).uniform(0, 1, (4, 1))
        density_grid(np.array([[0.3], [0.7]]), data, cfg, np.random.SeedSequence(11))
        for f in fields(ChainOptions):
            assert np.array_equal(getattr(given, f.name),
                                  getattr(before, f.name)), f.name
        adapted = run_history_chain(data, theta, BOX, given, None,
                                    np.random.default_rng(12)).hmc_step_size
        assert adapted != given.hmc_step_size == 0.1

    def test_probe_budget_failures_are_counted(self):
        # phi is 1/2 and a probe may make one proposal, so about half the
        # probes fail; each failure is a retained iteration without a draw
        cfg = frozen_config(0.0, retained=40, burn_in=2)
        cfg.chain_options = replace(cfg.chain_options, max_proposals=1)
        data = np.random.default_rng(18).uniform(0, 1, (4, 1))
        out = density_grid(np.array([[0.3], [0.7]]), data, cfg,
                           np.random.SeedSequence(18))
        assert 0 < out.probe_budget_failures < 40
        assert out.n_draws + out.probe_budget_failures == 40
        assert out.denominator == 0.5  # every draw took one proposal
        assert out.ratio == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_every_probe_failing_is_an_error(self):
        cfg = frozen_config(-40.0, retained=5, burn_in=1)
        cfg.chain_options = replace(cfg.chain_options, max_proposals=3)
        data = np.random.default_rng(19).uniform(0, 1, (4, 1))
        with pytest.raises(ValueError, match=r"no draws \(5 of 5 predictive probes"):
            density_grid(np.array([[0.5]]), data, cfg, np.random.SeedSequence(19))
