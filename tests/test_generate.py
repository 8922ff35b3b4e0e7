"""Exact generative sampling: rejection-count law, exactness, bookkeeping."""
import math
import pickle

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from gpds.generate import (
    DEFAULT_MAX_PROPOSALS,
    MAX_BLOCK,
    ProposalBudgetError,
    _max_block,
    continue_sampler,
    draw_prior_dataset,
)
from gpds.gp import ConditionalSampler, GpHyper, IllConditionedCovariance
from gpds.model import GaussianBase, UniformBox, base_sample, phi


def frozen(mean_fn, dim=1):
    """Degenerate GP: the function is known exactly."""
    return GpHyper(amplitude=0.0, lengthscales=np.ones(dim), mean=mean_fn)


BOX = UniformBox.unit(1)


class TestDrawPriorDataset:
    def test_every_accepted_point_is_in_cond(self):
        theta = GpHyper(amplitude=1.5, lengthscales=[0.3])
        trace = draw_prior_dataset(8, theta, BOX, np.random.default_rng(0))
        assert trace.accepted.shape == (8, 1)
        assert trace.accept_flags.sum() == 8
        assert len(trace.sampler) == trace.proposal_count
        acc_pts = trace.sampler.points[trace.accept_flags]
        acc_vals = trace.sampler.values[trace.accept_flags]
        assert np.array_equal(acc_pts, trace.accepted)
        assert np.array_equal(acc_vals, trace.accepted_values)

    def test_flags_reconstruct_from_uniforms(self):
        # each proposal draws its location, its function value's normal
        # variate and its uniform, in that order, so replaying the stream
        # recovers every proposal and every uniform
        theta = GpHyper(amplitude=1.2, lengthscales=[0.4])
        trace = draw_prior_dataset(10, theta, BOX, np.random.default_rng(1))
        replay = np.random.default_rng(1)
        uniforms = np.empty(trace.proposal_count)
        for i in range(trace.proposal_count):
            assert np.array_equal(base_sample(BOX, replay), trace.sampler.points[i])
            replay.standard_normal()
            uniforms[i] = replay.uniform()
        rebuilt = uniforms < phi(trace.sampler.values)
        assert np.array_equal(rebuilt, trace.accept_flags)

    def test_seed_determinism(self):
        theta = GpHyper(amplitude=1.0, lengthscales=[0.5])
        a = draw_prior_dataset(6, theta, BOX, np.random.default_rng(7))
        b = draw_prior_dataset(6, theta, BOX, np.random.default_rng(7))
        assert np.array_equal(a.accepted, b.accepted)
        assert np.array_equal(a.sampler.values, b.sampler.values)
        assert a.proposal_count == b.proposal_count

    def test_budget_error_carries_partial_trace(self):
        # function pinned far negative: almost everything rejected
        theta = frozen(-8.0)
        with pytest.raises(ProposalBudgetError) as err:
            draw_prior_dataset(50, theta, BOX, np.random.default_rng(2),
                               max_proposals=100)
        trace = err.value.trace
        assert trace.proposal_count == 100
        assert trace.accepted.shape[0] < 50

    def test_budget_error_pickles(self):
        err = pickle.loads(pickle.dumps(ProposalBudgetError("m", None)))
        assert isinstance(err, ProposalBudgetError)
        assert str(err) == "m" and err.trace is None
        with pytest.raises(ProposalBudgetError) as caught:
            draw_prior_dataset(5, frozen(-8.0), BOX, np.random.default_rng(2),
                               max_proposals=10)
        back = pickle.loads(pickle.dumps(caught.value))
        assert str(back) == str(caught.value)
        assert back.trace.proposal_count == 10
        assert np.array_equal(back.trace.sampler.points, caught.value.trace.sampler.points)
        assert np.array_equal(back.trace.sampler.values, caught.value.trace.sampler.values)
        assert np.array_equal(back.trace.accept_flags, caught.value.trace.accept_flags)

    def test_ill_conditioned_error_pickles(self):
        err = pickle.loads(pickle.dumps(IllConditionedCovariance("cap")))
        assert isinstance(err, IllConditionedCovariance) and str(err) == "cap"

    def test_rejection_count_law(self):
        # flat function at zero: acceptance probability exactly 1/2, so the
        # rejection count is negative binomial with mean n per the law
        # E[M] = n (1/Z - 1); 500 runs, 3 standard errors
        theta = frozen(0.0)
        rng = np.random.default_rng(3)
        n = 20
        rejections = np.array([
            draw_prior_dataset(n, theta, BOX, rng).proposal_count - n
            for _ in range(500)
        ])
        se = rejections.std(ddof=1) / math.sqrt(len(rejections))
        assert abs(rejections.mean() - n) < 3 * se

    def test_saturated_function_accepts_everything(self):
        theta = frozen(40.0)
        trace = draw_prior_dataset(10_000, theta, BOX, np.random.default_rng(4))
        assert trace.proposal_count == 10_000
        assert kstest(trace.accepted[:, 0], "uniform").pvalue > 0.01

    def test_exactness_against_known_density(self):
        # frozen g with phi(g(x)) = s(x); accepted points follow
        # s(x) pi(x) / integral, checked by chi-square on 20 bins
        s = lambda x: 0.15 + 0.7 * x[:, 0]
        theta = frozen(lambda x: np.log(s(x) / (1 - s(x))))
        rng = np.random.default_rng(5)
        trace = draw_prior_dataset(10_000, theta, BOX, rng)
        edges = np.linspace(0, 1, 21)
        counts, _ = np.histogram(trace.accepted[:, 0], edges)
        grid = np.linspace(0, 1, 4001)
        dens = s(grid.reshape(-1, 1))
        dens /= np.trapezoid(dens, grid)
        cdf = np.concatenate([[0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
        cdf /= cdf[-1]
        probs = np.diff(np.interp(edges, grid, cdf))
        stat = np.sum((counts - 10_000 * probs) ** 2 / (10_000 * probs))
        pvalue = chi2.sf(stat, df=19)
        assert pvalue > 0.01

    @pytest.mark.slow
    def test_exchangeability_first_vs_second(self):
        theta = GpHyper(amplitude=1.5, lengthscales=[0.3])
        rng = np.random.default_rng(6)
        n_runs = 10_000
        first = np.empty(n_runs)
        second = np.empty(n_runs)
        for i in range(n_runs):
            trace = draw_prior_dataset(2, theta, BOX, rng)
            first[i], second[i] = trace.accepted[0, 0], trace.accepted[1, 0]
        from scipy.stats import ks_2samp

        assert ks_2samp(first, second).pvalue > 0.01

    def test_invalid_arguments(self):
        theta = GpHyper(amplitude=1.0, lengthscales=[1.0])
        with pytest.raises(ValueError):
            draw_prior_dataset(0, theta, BOX, np.random.default_rng(0))
        with pytest.raises(ValueError):
            draw_prior_dataset(10, theta, BOX, np.random.default_rng(0),
                               max_proposals=5)


class TestContinueSampler:
    def test_empty_cond_reduces_to_draw_prior_dataset(self):
        theta = GpHyper(amplitude=1.1, lengthscales=[0.4])
        a = continue_sampler(ConditionalSampler(theta), 5, BOX,
                             np.random.default_rng(9))
        b = draw_prior_dataset(5, theta, BOX, np.random.default_rng(9))
        assert np.array_equal(a.accepted, b.accepted)
        assert np.array_equal(a.sampler.points, b.sampler.points)

    def test_accepts_trace_as_state(self):
        theta = GpHyper(amplitude=1.1, lengthscales=[0.4])
        first = draw_prior_dataset(3, theta, BOX, np.random.default_rng(10))
        n_first = len(first.sampler)
        first_points = first.sampler.points.copy()
        rebuilt = ConditionalSampler(theta, first.sampler.points, first.sampler.values)
        more = continue_sampler(first.sampler, 3, BOX, np.random.default_rng(11))
        assert len(more.sampler) == n_first + more.proposal_count
        # the sampler is grown in place and keeps the first run's knowledge
        assert more.sampler is first.sampler
        assert np.array_equal(more.sampler.points[:n_first], first_points)
        # same draws as continuing from the knowledge refactorised
        again = continue_sampler(rebuilt, 3, BOX, np.random.default_rng(11))
        assert np.array_equal(again.accepted, more.accepted)

    def test_concentration_where_function_is_large(self):
        # strong positive knowledge inside [0.4, 0.6], negative elsewhere
        theta = GpHyper(amplitude=2.0, lengthscales=[0.08])
        anchors = np.linspace(0, 1, 26).reshape(-1, 1)
        values = np.where((anchors[:, 0] > 0.4) & (anchors[:, 0] < 0.6), 4.0, -3.0)
        sampler = ConditionalSampler(theta, anchors, values)
        trace = continue_sampler(sampler, 400, BOX, np.random.default_rng(12))
        xs = trace.accepted[:, 0]
        inside = np.mean((xs > 0.4) & (xs < 0.6))
        assert inside > 0.5  # region has 20% of base mass
        hist, edges = np.histogram(xs, np.linspace(0, 1, 11))
        mode_bin = np.argmax(hist)
        assert 0.4 <= edges[mode_bin] <= 0.6

    def test_acceptance_rate_matches_phi(self):
        # degenerate function frozen at c: acceptance is Bernoulli(phi(c))
        c = -0.7
        theta = frozen(c)
        trace = continue_sampler(ConditionalSampler(theta), 3000, BOX,
                                 np.random.default_rng(13))
        rate = 3000 / trace.proposal_count
        p = phi(c)
        se = math.sqrt(p * (1 - p) / trace.proposal_count)
        assert abs(rate - p) < 3 * se


class TestDegenerateScaling:
    def test_large_run_stays_linear(self):
        # amplitude zero skips the factor entirely; 10k accepts must be quick
        theta = frozen(lambda x: np.zeros(x.shape[0]))
        import time

        t0 = time.perf_counter()
        trace = draw_prior_dataset(10_000, theta, BOX, np.random.default_rng(14))
        assert time.perf_counter() - t0 < 10.0
        assert trace.accepted.shape[0] == 10_000


def sequential_run(sampler, n_more, psi, rng, max_proposals=DEFAULT_MAX_PROPOSALS):
    """The rejection sampler one proposal at a time, each drawn with
    ``draw_append``: the reference for the blocked ``continue_sampler``.
    Returns (accepted points, accepted values, accept flags, budget hit)."""
    accepted, values, flags = [], [], []
    while len(accepted) < n_more:
        if len(flags) >= max_proposals:
            break
        x = base_sample(psi, rng)
        g = sampler.draw_append(x, rng)
        ok = rng.uniform() < phi(g)
        flags.append(ok)
        if ok:
            accepted.append(x)
            values.append(g)
    dim = sampler.hyper.dim
    return (np.array(accepted).reshape(-1, dim), np.array(values), np.array(flags, bool),
            len(accepted) < n_more)


def grown(theta, n, seed):
    """A sampler holding n prior draws on the unit box."""
    sampler = ConditionalSampler(theta)
    rng = np.random.default_rng(seed)
    sampler.draw_append_block(rng.uniform(0, 1, (n, theta.dim)), rng.standard_normal(n))
    return sampler


class TestBlockedMatchesSequential:
    """Blocked proposals leave the run as it is one proposal at a time:
    the same proposals, decisions and generator end state, and values
    equal up to rounding."""

    @pytest.fixture
    def block_calls(self, monkeypatch):
        """Counts of blocks and truncations, and each block's (rows at its
        start, size)."""
        calls = {"blocks": 0, "truncations": 0, "sizes": []}
        for op, key in (("draw_append_block", "blocks"), ("truncate", "truncations")):
            original = getattr(ConditionalSampler, op)

            def spy(self, *args, _original=original, _key=key):
                calls[_key] += 1
                if _key == "blocks":
                    calls["sizes"].append((len(self), len(args[0])))
                return _original(self, *args)

            monkeypatch.setattr(ConditionalSampler, op, spy)
        return calls

    def check(self, sampler, n, psi, seed, max_proposals=DEFAULT_MAX_PROPOSALS):
        start = len(sampler)
        blocked, seq = sampler.copy(), sampler.copy()
        rng, seq_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            trace = continue_sampler(blocked, n, psi, rng, max_proposals)
            budget_hit = False
        except ProposalBudgetError as err:
            trace, budget_hit = err.trace, True
        points, values, flags, seq_budget_hit = sequential_run(seq, n, psi, seq_rng,
                                                               max_proposals)
        assert budget_hit == seq_budget_hit
        assert trace.proposal_count == len(flags) == len(blocked) - start
        assert np.array_equal(trace.accept_flags, flags)
        assert np.array_equal(trace.accepted, points)
        assert np.array_equal(blocked.points, seq.points)
        assert rng.bit_generator.state == seq_rng.bit_generator.state
        # relative to the values' scale: a value near zero is a difference
        # of larger terms
        scale = max(np.abs(seq.values).max(initial=0.0), 1e-300)
        assert np.abs(trace.accepted_values - values).max(initial=0.0) <= 1e-8 * scale
        assert np.abs(blocked.values - seq.values).max(initial=0.0) <= 1e-8 * scale
        return trace

    def test_large_run(self, block_calls):
        theta = GpHyper(amplitude=1.0, lengthscales=[0.2], mean=5.0)
        self.check(ConditionalSampler(theta), 600, BOX, seed=40)
        # every block within the cap at the rows it started from
        assert all(k <= _max_block(r) for r, k in block_calls["sizes"])
        assert block_calls["truncations"] == 1

    def test_blocks_grow_past_the_step(self, block_calls):
        # past 520 rows the cap is an eighth of the rows: blocks wider than
        # MAX_BLOCK run and still match the one-at-a-time run
        theta = GpHyper(amplitude=1.0, lengthscales=[0.2], mean=5.0)
        self.check(ConditionalSampler(theta), 1200, BOX, seed=47)
        sizes = block_calls["sizes"]
        assert all(k <= _max_block(r) for r, k in sizes)
        assert max(k for _, k in sizes) > MAX_BLOCK

    # on both sides of the row count where _min_block steps up
    @pytest.mark.parametrize("rows", [150, 400])
    def test_one_point_probes_from_a_grown_sampler(self, block_calls, rows):
        theta = GpHyper(amplitude=1.0, lengthscales=[0.3], mean=-2.0)
        sampler = grown(theta, rows, seed=41)
        for seed in range(12):
            self.check(sampler, 1, BOX, seed)
        # the probes that reject early go on in blocks, cut at the acceptance
        assert block_calls["blocks"] >= 2 and block_calls["truncations"] >= 2

    def test_budget_exhaustion(self, block_calls):
        theta = GpHyper(amplitude=1.0, lengthscales=[0.3], mean=-4.0)
        trace = self.check(ConditionalSampler(theta), 50, BOX, seed=42, max_proposals=200)
        assert trace.proposal_count == len(trace.sampler) == 200
        # 64 + 64 + 64 + 8 proposals, the last block cut to the budget left
        assert block_calls["blocks"] == 4 and block_calls["truncations"] == 0

    def test_gaussian_base_ard_2d(self, block_calls):
        theta = GpHyper(amplitude=1.2, lengthscales=[0.3, 0.6], mean=0.5)
        psi = GaussianBase(mean=[0.5, 0.5], sigma=[0.3, 0.2])
        self.check(ConditionalSampler(theta), 150, psi, seed=43)
        assert block_calls["blocks"] >= 2

    def test_pinned_kernel(self, block_calls):
        theta = GpHyper(amplitude=1.0, lengthscales=[0.3], pin_location=[0.5], mean=1.0)
        self.check(grown(theta, 20, seed=44), 200, BOX, seed=45)
        assert block_calls["blocks"] >= 2

    def test_amplitude_zero(self, block_calls):
        self.check(ConditionalSampler(frozen(0.3)), 100, BOX, seed=46)
        assert block_calls["blocks"] >= 2
