"""Exact generative sampling: rejection-count law, exactness, bookkeeping."""
import math
import pickle

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, kstest

import gpds.generate
from gpds.chain import ChainOptions, run_exchange_chain, run_history_chain
from gpds.generate import (
    DEFAULT_MAX_PROPOSALS,
    MAX_BLOCK,
    ProposalBudgetError,
    _max_block,
    continue_sampler,
    draw_prior_dataset,
)
from gpds.gp import ConditionalSampler, GpHyper, IllConditionedCovariance
from gpds.model import GaussianBase, UniformBox, base_sample, normal_from_uniform, phi


def frozen(mean_fn, dim=1):
    """Degenerate GP: the function is known exactly."""
    return GpHyper(amplitude=0.0, lengthscales=np.ones(dim), mean=mean_fn)


BOX = UniformBox.unit(1)
EACH_BASE = pytest.mark.parametrize("psi", [BOX, GaussianBase([0.5], [0.3])],
                                    ids=["box", "gaussian"])


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
        # each proposal is one row of D + 2 uniforms (location, the normal
        # variate of its function value, accept uniform), so replaying the
        # stream as one array recovers every proposal and every uniform
        theta = GpHyper(amplitude=1.2, lengthscales=[0.4])
        rng = np.random.default_rng(1)
        trace = draw_prior_dataset(10, theta, BOX, rng)
        replay = np.random.default_rng(1)
        rows = replay.random((trace.proposal_count, 3))
        assert rng.bit_generator.state == replay.bit_generator.state
        assert np.array_equal(base_sample(BOX, rows[:, :1]), trace.sampler.points)
        assert np.array_equal(rows[:, 2] < phi(trace.sampler.values), trace.accept_flags)

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


class TestRowCap:
    """A run never grows a sampler past ``MAX_ROWS`` rows: when it would, it
    is a budget failure."""

    # phi(-10 + 0.3 g) is about 1e-5: a few acceptances take ~10^5 proposals
    LOW = GpHyper(amplitude=0.3, lengthscales=[0.2], mean=-10.0)

    def test_run_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(gpds.generate, "MAX_ROWS", 300)
        ends = []
        original = ConditionalSampler.draw_append_block

        def spy(self, X, z):
            ends.append(len(self) + len(X))
            return original(self, X, z)

        monkeypatch.setattr(ConditionalSampler, "draw_append_block", spy)
        with pytest.raises(ProposalBudgetError, match="past 300 rows") as err:
            draw_prior_dataset(3, self.LOW, BOX, np.random.default_rng(1))
        assert max(ends) <= 300
        trace = err.value.trace
        assert len(trace.sampler) == trace.proposal_count <= 300
        assert trace.accepted.shape[0] < 3

    def test_rows_that_cannot_fit_fail_before_any_proposal(self, monkeypatch):
        monkeypatch.setattr(gpds.generate, "MAX_ROWS", 30)
        theta = GpHyper(amplitude=1.0, lengthscales=[0.3])
        sampler = grown(theta, 25, seed=2)
        with pytest.raises(ProposalBudgetError) as err:
            continue_sampler(sampler, 6, BOX, np.random.default_rng(3))
        assert err.value.trace.proposal_count == 0 and len(sampler) == 25

    def test_degenerate_sampler_is_not_capped(self, monkeypatch):
        # it keeps no factor, so a row costs D + 2 floats
        monkeypatch.setattr(gpds.generate, "MAX_ROWS", 10)
        trace = draw_prior_dataset(50, frozen(40.0), BOX, np.random.default_rng(4))
        assert trace.proposal_count == 50

    @pytest.mark.parametrize("run", [run_history_chain, run_exchange_chain])
    def test_chain_counts_a_budget_failure(self, monkeypatch, run):
        # ten data points exceed the cap, so every predictive probe and every
        # exchange fantasy run fails before its first proposal
        monkeypatch.setattr(gpds.generate, "MAX_ROWS", 5)
        rng = np.random.default_rng(5)
        data = rng.uniform(0.2, 0.8, (10, 1))
        opts = ChainOptions(total=6, burn_in=2, record_predictive=True)
        result = run(data, GpHyper(amplitude=1.0, lengthscales=[0.3]), BOX, opts,
                     None, rng)
        assert result.counters["budget_failures"] >= 4  # one per retained probe
        assert result.predictive.shape == (0, 2)
        if run is run_exchange_chain:
            assert result.counters["func_att"] > 0 and result.counters["func_acc"] == 0


def sequential_run(sampler, n_more, psi, rng, max_proposals=DEFAULT_MAX_PROPOSALS):
    """The rejection sampler one proposal at a time, each one row of
    ``rng.random((1, D + 2))`` drawn with ``draw_append``: the reference for
    the blocked ``continue_sampler``.  Returns (accepted points, accepted
    values, accept flags, budget hit)."""
    dim = psi.dim
    accepted, values, flags = [], [], []
    while len(accepted) < n_more:
        if len(flags) >= max_proposals:
            break
        row = rng.random((1, dim + 2))[0]
        x = base_sample(psi, row[:dim])
        g = sampler.draw_append(x, normal_from_uniform(row[dim]))
        ok = row[dim + 1] < phi(g)
        flags.append(ok)
        if ok:
            accepted.append(x)
            values.append(g)
    dim = sampler.hyper.dim
    return (np.array(accepted).reshape(-1, dim), np.array(values), np.array(flags, bool),
            len(accepted) < n_more)


def same_state(a, b) -> bool:
    """Bit generator states compared field by field (MT19937's key is an
    array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


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

    def check(self, sampler, n, psi, seed, max_proposals=DEFAULT_MAX_PROPOSALS,
              make_rng=np.random.default_rng):
        start = len(sampler)
        blocked, seq = sampler.copy(), sampler.copy()
        rng, seq_rng = make_rng(seed), make_rng(seed)
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
        assert same_state(rng.bit_generator.state, seq_rng.bit_generator.state)
        # relative to the values' scale: a value near zero is a difference
        # of larger terms
        scale = max(np.abs(seq.values).max(initial=0.0), 1e-300)
        assert np.abs(trace.accepted_values - values).max(initial=0.0) <= 1e-8 * scale
        assert np.abs(blocked.values - seq.values).max(initial=0.0) <= 1e-8 * scale
        return trace

    def test_large_run(self, block_calls):
        theta = GpHyper(amplitude=1.0, lengthscales=[0.2], mean=5.0)
        self.check(ConditionalSampler(theta), 600, BOX, seed=40)
        # every block within the cap at the rows it started from; the last
        # block, sized to the acceptances still needed, ends at the last one
        assert all(k <= _max_block(r) for r, k in block_calls["sizes"])
        assert block_calls["blocks"] == 6 and block_calls["truncations"] == 0

    def test_blocks_grow_past_the_step(self, block_calls):
        # from 130 rows the cap is half the rows: blocks wider than
        # MAX_BLOCK run and still match the one-at-a-time run
        theta = GpHyper(amplitude=1.0, lengthscales=[0.2], mean=5.0)
        self.check(ConditionalSampler(theta), 1200, BOX, seed=47)
        sizes = block_calls["sizes"]
        assert all(k <= _max_block(r) for r, k in sizes)
        assert any(k == r // 2 > MAX_BLOCK for r, k in sizes)

    def test_blocks_of_half_the_rows_cross_the_capacity_step(self, block_calls):
        # a sample-prior of 2100 points: blocks of r / 2 up to 1458 rows,
        # and the last one grows the factor past its 2048-row capacity
        theta = GpHyper(amplitude=1.0, lengthscales=[0.2], mean=5.0)
        self.check(ConditionalSampler(theta), 2100, BOX, seed=49)
        sizes = block_calls["sizes"]
        assert all(k <= _max_block(r) for r, k in sizes)
        assert [r for r, k in sizes if k == r // 2 > MAX_BLOCK] == [192, 288, 432, 648, 972]
        assert any(r < 2048 < r + k for r, k in sizes)

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

    # a truncated block rewinds by restoring the state and drawing the rows
    # used again, which needs no advance(): MT19937 and SFC64 have none
    @EACH_BASE
    @pytest.mark.parametrize("bit_generator", [np.random.SFC64, np.random.MT19937])
    def test_other_bit_generators(self, block_calls, bit_generator, psi):
        theta = GpHyper(amplitude=1.0, lengthscales=[0.3], mean=-2.0)
        sampler = grown(theta, 150, seed=48)
        for seed in range(6):
            self.check(sampler, 1, psi, seed,
                       make_rng=lambda s: np.random.Generator(bit_generator(s)))
        assert block_calls["truncations"] >= 2


class ExtremeRows:
    """A generator whose ``random`` sets every third row to 0 and the row
    after it to the top value 1 - 2^-53: the extreme uniforms
    ``Generator.random`` can return, for every column at once."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def random(self, size):
        u = self._rng.random(size)
        u[::3] = 0.0
        u[1::3] = 1.0 - 2.0 ** -53
        return u


class TestExtremeUniforms:
    @EACH_BASE
    @pytest.mark.parametrize("rows", [0, 150])
    def test_state_stays_finite(self, psi, rows):
        theta = GpHyper(amplitude=1.0, lengthscales=[0.3])
        sampler = grown(theta, rows, seed=49)
        trace = continue_sampler(sampler, 60, psi, ExtremeRows(50))
        # zero rows are accepted (u = 0) and top rows rejected, in blocks
        # and one at a time
        assert trace.proposal_count > 60 and len(sampler) == rows + trace.proposal_count
        for values in (sampler.points, sampler.values, sampler.packed,
                       sampler.whitened, trace.accepted, trace.accepted_values):
            assert np.all(np.isfinite(values))


def parent_loop(sampler, n_more, psi, rng):
    """The rejection sampler as it drew before proposals became rows of
    uniforms: each proposal's location from the generator directly
    (``rng.random`` for a box, ``rng.standard_normal`` for a Gaussian),
    then a standard normal for its function value, then an accept uniform.
    Returns (proposal count, accepted points, accepted values)."""
    points, values, count = [], [], 0
    while len(points) < n_more:
        if isinstance(psi, UniformBox):
            x = psi.lower + (psi.upper - psi.lower) * rng.random(psi.dim)
        else:
            x = psi.mean + psi.sigma * rng.standard_normal(psi.dim)
        g = sampler.draw_append(x, rng.standard_normal())
        count += 1
        if rng.uniform() < phi(g):
            points.append(x)
            values.append(g)
    return count, np.array(points), np.array(values)


class TestSameLawAsTheParentLoop:
    """The row-of-uniforms stream draws from the law of the one-at-a-time
    loop it replaced: over independent runs, the proposal counts and the
    first accepted location and value of each run match in distribution
    (two-sample KS, each p > 0.001).  Short lengthscales make the values
    at a run's proposals nearly independent, so the count and the first
    accepted value are sensitive to the scale of z.  At 2000 runs a side,
    over four seed pairs per base, the correct stream's smallest p was
    0.024 and that of z drawn 20 % too wide (the corrupted twin) at most
    1.1e-6."""

    THETA = GpHyper(amplitude=1.5, lengthscales=[0.05], mean=-1.0)
    RUNS = 2000

    def samples(self, run, psi, seed):
        counts, first_x, first_g = (np.empty(self.RUNS) for _ in range(3))
        for i in range(self.RUNS):
            counts[i], points, values = run(ConditionalSampler(self.THETA), 4, psi,
                                            np.random.default_rng([seed, i]))
            first_x[i], first_g[i] = points[0, 0], values[0]
        return counts, first_x, first_g

    def pvalues(self, psi):
        def blocked(sampler, n_more, psi, rng):
            trace = continue_sampler(sampler, n_more, psi, rng)
            return trace.proposal_count, trace.accepted, trace.accepted_values

        parent = self.samples(parent_loop, psi, 1)
        ours = self.samples(blocked, psi, 2)
        return [ks_2samp(a, b).pvalue for a, b in zip(parent, ours)]

    @pytest.mark.slow
    @EACH_BASE
    def test_counts_locations_and_values_match(self, psi):
        assert min(self.pvalues(psi)) > 0.001

    @pytest.mark.slow
    @EACH_BASE
    def test_wrong_normal_scale_is_caught(self, monkeypatch, psi):
        original = gpds.generate.normal_from_uniform
        monkeypatch.setattr(gpds.generate, "normal_from_uniform",
                            lambda u: 1.2 * original(u))
        assert min(self.pvalues(psi)) < 0.001
