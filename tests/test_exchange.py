"""Exchange sampler: swap ratios, crankshaft proposals, bookkeeping."""
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import kstest

import gpds.exchange
from gpds.chain import ChainOptions, run_exchange_chain
from gpds.generate import continue_sampler
from gpds.exchange import (
    ExchangeState,
    _crankshaft,
    _swap_log_ratio,
    exchange_step_control,
    exchange_step_hyper,
    exchange_step_prior,
    init_exchange_state,
)
from gpds.geweke import run_geweke_exchange, run_geweke_history
from gpds.gp import (
    BASE_JITTER,
    ConditionalSampler,
    GpHyper,
    chol,
    kernel_matrix,
    prior_mean,
)
from gpds.model import GaussianBase, HyperPrior, UniformBox, log_phi

BOX = UniformBox.unit(1)
THETA = GpHyper(amplitude=1.3, lengthscales=[0.3])


def make_state(rng, n=4, theta=THETA, psi=BOX, **kw):
    data = rng.uniform(0, 1, (n, 1))
    return init_exchange_state(data, theta, psi, rng, **kw)


class TestSwapRatio:
    def test_identity_swap_is_one(self):
        g = np.array([0.3, -0.8, 1.2])
        assert _swap_log_ratio(log_phi(g), log_phi(g), log_phi(g), log_phi(g)) == 0.0

    def test_single_point_example(self):
        # phi(ghat(x)) = 0.8, phi(g(x)) = 0.4, phi(g(w)) = phi(ghat(w)) = 0.5
        # gives a = 2, a certain acceptance
        def logit(p):
            return math.log(p / (1 - p))

        log_a = _swap_log_ratio(
            log_phi(np.array([logit(0.8)])), log_phi(np.array([logit(0.4)])),
            log_phi(np.array([logit(0.5)])), log_phi(np.array([logit(0.5)])))
        assert math.exp(log_a) == pytest.approx(2.0, rel=1e-10)


class TestExchangeStepPrior:
    def test_rejection_extends_cond_by_n(self):
        rng = np.random.default_rng(0)
        state = make_state(rng, n=4)
        rejected_seen = False
        for _ in range(30):
            sampler = state.sampler
            n_before = len(sampler)
            state, accepted = exchange_step_prior(state, 100_000, rng=rng)
            if not accepted:
                rejected_seen = True
                # grown in place, not rebuilt
                assert state.sampler is sampler
                assert len(state.sampler) == n_before + 4
        assert rejected_seen

    def test_acceptance_adopts_proposal_bookkeeping(self, monkeypatch):
        rng = np.random.default_rng(1)
        state = make_state(rng, n=3)
        traces = []

        def spy(*args, **kwargs):
            traces.append(continue_sampler(*args, **kwargs))
            return traces[-1]

        continue_sampler = gpds.exchange.continue_sampler
        monkeypatch.setattr(gpds.exchange, "continue_sampler", spy)
        for _ in range(50):
            state, accepted = exchange_step_prior(state, 100_000, rng=rng)
            if accepted:
                # proposal sampler: controls first, then every proposal of
                # the fantasy loop, N of them accepted; all control values
                # are fresh
                trace = traces[-1]
                assert trace.accepted.shape == (3, 1)
                assert trace.proposal_count >= 3
                assert state.sampler is trace.sampler
                assert len(state.sampler) == len(state.controls) + trace.proposal_count
                assert np.array_equal(state.sampler.points[:3], state.data)
                assert np.array_equal(state.sampler.values[:3], state.g_data)
                break
        else:
            pytest.fail("no acceptance in 50 prior steps")

    def test_data_values_track_controls(self):
        rng = np.random.default_rng(2)
        state = make_state(rng, n=3)
        for _ in range(10):
            state, _ = exchange_step_prior(state, 100_000, rng=rng)
            assert np.array_equal(state.g_data, state.control_values[:3])
            assert np.array_equal(state.controls[:3], state.data)

    def test_budget_failure_leaves_state_unchanged(self):
        rng = np.random.default_rng(3)
        theta = GpHyper(amplitude=0.3, lengthscales=[0.3], mean=-7.0)
        state = make_state(rng, n=3, theta=theta)
        points_before = state.sampler.points.copy()
        state2, accepted = exchange_step_prior(state, 40, rng=rng)
        assert not accepted
        assert np.array_equal(state2.sampler.points, points_before)
        assert state2.diagnostics["budget_failures"] == 1


@pytest.mark.parametrize("call", [
    lambda state: exchange_step_prior(state, 100_000),
    lambda state: exchange_step_control(state, 0.5),
    lambda state: exchange_step_hyper(state, 0.1, HyperPrior()),
    lambda state: run_geweke_history(THETA, BOX, n_samples=10, thin=1),
    lambda state: run_geweke_exchange(THETA, BOX, n_samples=10, thin=1),
], ids=["step_prior", "step_control", "step_hyper", "geweke_history",
        "geweke_exchange"])
def test_missing_rng_is_refused_at_the_call(call):
    state = make_state(np.random.default_rng(19))
    before = (state.sampler, state.control_values.copy(), dict(state.diagnostics))
    with pytest.raises(TypeError, match="rng"):
        call(state)
    assert state.sampler is before[0]
    assert np.array_equal(state.control_values, before[1])
    assert dict(state.diagnostics) == before[2]


class TestCrankshaft:
    def test_eps_zero_is_identity(self):
        rng = np.random.default_rng(4)
        values = np.array([0.5, -0.2])
        mean = np.zeros(2)
        lower = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 1.0]]))
        out = _crankshaft(values, mean, lower, 1e-12, rng)
        assert np.allclose(out, values, atol=1e-10)

    def test_eps_one_is_independent_prior_draw(self):
        rng = np.random.default_rng(5)
        values = np.array([100.0, -100.0])  # wild state must not leak through
        mean = np.zeros(2)
        lower = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 1.0]]))
        draws = np.array([_crankshaft(values, mean, lower, 1.0, rng) for _ in range(2000)])
        assert abs(draws.mean()) < 5.0 / math.sqrt(2000) * 3

    def test_eps_one_is_the_prior_draw_bit_for_bit(self):
        # the function move's and the hyper move's prior draws are the
        # crankshaft at eps = 1: mean + L eta exactly, whatever the values
        controls = np.random.default_rng(9).uniform(0, 1, (50, 1))
        theta = GpHyper(amplitude=1.3, lengthscales=[0.3], mean=-0.7)
        mean = prior_mean(controls, theta)
        lower = chol(kernel_matrix(controls, controls, theta)).lower
        for seed in range(50):
            values = np.random.default_rng(1000 + seed).normal(0.0, 50.0, 50)
            got = _crankshaft(values, mean, lower, 1.0, np.random.default_rng(seed))
            want = mean + lower @ np.random.default_rng(seed).standard_normal(50)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.5, math.nan])
    def test_chain_options_refuse_eps_outside_unit_interval(self, eps):
        with pytest.raises(ValueError, match="crankshaft_eps"):
            ChainOptions(total=1, burn_in=0, crankshaft_eps=eps)

    def test_chain_options_accept_eps_up_to_one(self):
        for eps in (1e-9, 0.5, 1.0):
            assert ChainOptions(total=1, burn_in=0, crankshaft_eps=eps).crankshaft_eps == eps

    @pytest.mark.slow
    def test_preserves_gp_prior(self):
        # iterated crankshaft proposals from a prior draw stay prior
        # distributed at the control points
        pts = np.array([[0.2], [0.7]])
        cov = kernel_matrix(pts, pts, THETA)
        factor = chol(cov, BASE_JITTER)
        rng = np.random.default_rng(6)
        g = factor.lower @ rng.standard_normal(2)
        out = np.empty((10_000, 2))
        for i in range(10_000):
            g = _crankshaft(g, np.zeros(2), factor.lower, 0.35, rng)
            out[i] = g
        sd = math.sqrt(cov[0, 0] + factor.jitter)
        for col in range(2):
            assert kstest(out[::10, col], "norm", args=(0.0, sd)).pvalue > 0.01

    def test_control_step_validates_scale(self):
        rng = np.random.default_rng(7)
        state = make_state(rng)
        with pytest.raises(ValueError):
            exchange_step_control(state, 0.0, 1000, rng=rng)
        with pytest.raises(ValueError):
            exchange_step_control(state, 1.5, 1000, rng=rng)

    def test_control_step_runs_with_extra_controls(self):
        rng = np.random.default_rng(8)
        state = make_state(rng, n=3, n_extra_controls=4)
        assert state.controls.shape[0] == 7
        for _ in range(5):
            state, _ = exchange_step_control(state, 0.4, 100_000, rng=rng)
            assert state.controls.shape[0] == 7
            assert np.array_equal(state.controls[:3], state.data)


class TestExchangeStepHyper:
    def test_identity_proposal_is_a_prior_function_move(self, monkeypatch):
        # at walk scale 0 the proposed (theta, psi) is the current one, so
        # the swap gets neither a hyperprior nor a base-density term: it is
        # the prior move's swap of a fresh function and fantasies, accepted
        # or not on their squashed values alone.  A box psi is never
        # proposed, so its base densities are not evaluated at all.
        rng = np.random.default_rng(9)
        state = make_state(rng, n=3)
        amplitude, psi = state.theta.amplitude, state.psi
        swaps = []
        original = gpds.exchange._swap

        def spy(*args):
            swaps.append(args)
            return original(*args)

        def no_base_logpdf(*args):
            raise AssertionError("base_logpdf evaluated for an unproposed psi")

        monkeypatch.setattr(gpds.exchange, "_swap", spy)
        monkeypatch.setattr(gpds.exchange, "base_logpdf", no_base_logpdf)
        state2, _ = exchange_step_hyper(state, 0.0, HyperPrior(), 100_000, rng=rng)
        ((_, psi_hat, _, trace, _, move, log_prior_ratio, base_terms),) = swaps
        assert move == "hyper" and psi_hat is psi
        assert log_prior_ratio == 0.0 and base_terms == ()
        assert trace.sampler.hyper.amplitude == amplitude
        assert state2.theta.amplitude == amplitude

    def test_support_violation_rejected(self, monkeypatch):
        rng = np.random.default_rng(10)
        state = make_state(rng, n=3)
        x = float(state.data[0, 0])
        bad_box = UniformBox([x + 1e-9], [x + 1.0])
        monkeypatch.setattr("gpds.exchange.propose_hypers",
                            lambda *a, **k: (state.theta, bad_box))
        psi = state.psi
        state2, accepted = exchange_step_hyper(state, 0.1, HyperPrior(), 100_000,
                                               rng=rng)
        assert not accepted
        assert state2.psi is psi

    def test_proposal_is_one_function_under_proposed_theta(self, monkeypatch):
        # the proposal's values at the controls and every value its fantasy
        # run draws come from one function under the proposed theta: with a
        # degenerate proposed GP they all equal its mean
        rng = np.random.default_rng(17)
        state = make_state(rng, n=3)
        theta_hat = GpHyper(amplitude=0.0, lengthscales=[0.3], mean=0.7)
        monkeypatch.setattr("gpds.exchange.propose_hypers",
                            lambda *a, **k: (theta_hat, state.psi))
        monkeypatch.setattr("gpds.exchange.hyperprior_logpdf", lambda *a, **k: 0.0)
        traces = []

        def spy(*args, **kwargs):
            traces.append(continue_sampler(*args, **kwargs))
            return traces[-1]

        continue_sampler = gpds.exchange.continue_sampler
        monkeypatch.setattr(gpds.exchange, "continue_sampler", spy)
        exchange_step_hyper(state, 0.1, HyperPrior(), 100_000, rng=rng)
        (trace,) = traces
        assert len(trace.sampler) == 3 + trace.proposal_count
        assert np.all(trace.sampler.values == 0.7)

    def test_moves_hyperparameters(self):
        rng = np.random.default_rng(11)
        state = make_state(rng, n=3)
        amps = {state.theta.amplitude}
        for _ in range(40):
            state, _ = exchange_step_hyper(state, 0.1, HyperPrior(), 100_000, rng=rng)
            amps.add(state.theta.amplitude)
        assert len(amps) > 1


class TestPredictiveSamplesExchange:
    # predictive draws continue the rejection sampler from a copy of the
    # state's sampler
    @staticmethod
    def draws(state, n, seed):
        return continue_sampler(state.sampler.copy(), n, state.psi,
                                np.random.default_rng(seed), 100_000).accepted

    def test_empty(self):
        state = make_state(np.random.default_rng(12))
        assert self.draws(state, 0, 0).shape == (0, 1)

    def test_determinism(self):
        state = make_state(np.random.default_rng(13))
        assert np.array_equal(self.draws(state, 5, 1), self.draws(state, 5, 1))

    def test_state_not_mutated(self):
        state = make_state(np.random.default_rng(14))
        points, values = state.sampler.points.copy(), state.sampler.values.copy()
        packed = state.sampler.packed.copy()
        self.draws(state, 10, 2)
        assert np.array_equal(state.sampler.points, points)
        assert np.array_equal(state.sampler.values, values)
        assert np.array_equal(state.sampler.packed, packed)

    def test_saturated_state_samples_base(self):
        theta = GpHyper(amplitude=0.0, lengthscales=[1.0], mean=40.0)
        data = np.array([[0.5]])
        state = ExchangeState(data=data, sampler=ConditionalSampler(theta, data, [40.0]),
                              controls=data, control_values=np.array([40.0]),
                              psi=BOX)
        out = self.draws(state, 5000, 3)
        assert kstest(out[:, 0], "uniform").pvalue > 0.01


class TestFantasyBatch:
    def test_fantasy_count_matches_data(self):
        rng = np.random.default_rng(16)
        state = make_state(rng, n=5)
        from gpds.exchange import _propose

        hat_values, trace = _propose(state, state.theta, state.psi, 1.0,
                                     100_000, rng)
        assert hat_values.shape == (5,)
        assert trace.accepted.shape == (5, 1)
        assert trace.accepted_values.shape == (5,)
        assert len(trace.sampler) == 5 + trace.proposal_count


def assert_fresh_build(state):
    """The state's sampler is the factor a from-scratch build over its
    points gives, at the jitter it was first built with."""
    s = state.sampler
    assert s.hyper is state.theta
    assert np.array_equal(s.points[: len(state.controls)], state.controls)
    assert np.array_equal(s.values[: len(state.controls)], state.control_values)
    lower = np.zeros((len(s), len(s)))
    lower[np.tri(len(s), dtype=bool)] = s.packed
    gram = kernel_matrix(s.points, s.points, s.hyper) + s.jitter * np.eye(len(s))
    assert np.allclose(lower @ lower.T, gram, rtol=0, atol=1e-10)
    resid = s.values - prior_mean(s.points, s.hyper)
    fresh = solve_triangular(lower, resid, lower=True)
    assert np.allclose(s.whitened, fresh, rtol=1e-8, atol=1e-8)


class TestStateSampler:
    @pytest.mark.parametrize("psi", [BOX, GaussianBase(mean=[0.5], sigma=[0.3])],
                             ids=["uniform-box", "gaussian"])
    def test_grown_sampler_matches_a_fresh_build(self, psi):
        # accepted swaps adopt the proposal's sampler, rejected ones append
        # the fantasies to the current one
        rng = np.random.default_rng(18)
        state = make_state(rng, n=4, psi=psi)
        verdicts = []
        for i in range(40):
            if i % 4 == 3:
                state, ok = exchange_step_hyper(state, 0.1, HyperPrior(), 100_000,
                                                rng=rng)
            elif i % 2:
                state, ok = exchange_step_control(state, 0.5, 100_000, rng=rng)
            else:
                state, ok = exchange_step_prior(state, 100_000, rng=rng)
            verdicts.append(ok)
            assert_fresh_build(state)
        assert any(verdicts) and not all(verdicts)


class TestBookkeepingAudit:
    def test_chain_builds_factors_only_for_proposals(self, monkeypatch):
        # the chain state, the predictive probe and the denominator draw all
        # reuse the state's sampler: the only factor built from points is
        # the one of each proposal's controls
        builds, proposals = [], []
        init = ConditionalSampler.__init__
        propose = gpds.exchange._propose

        def spy_init(self, hyper, points=None, *args, **kwargs):
            if points is not None and np.size(points):
                builds.append(bool(proposals) and proposals[-1] == "open")
            init(self, hyper, points, *args, **kwargs)

        def spy_propose(*args, **kwargs):
            proposals.append("open")
            try:
                return propose(*args, **kwargs)
            finally:
                proposals[-1] = "closed"

        monkeypatch.setattr(ConditionalSampler, "__init__", spy_init)
        monkeypatch.setattr(gpds.exchange, "_propose", spy_propose)
        rng = np.random.default_rng(19)
        data = rng.uniform(0, 1, (4, 1))
        opts = ChainOptions(total=20, burn_in=4, record_predictive=True,
                            numerator_query=np.array([[0.25], [0.75]]),
                            denominator_point=3)
        result = run_exchange_chain(data, THETA, BOX, opts, HyperPrior(), rng)
        assert result.denominator_terms.shape == (16,)
        assert len(result.numerator_draws) == 16
        assert len(proposals) >= opts.total  # one function move per iteration
        assert builds == [True] * len(proposals)


    def test_draw_ledger_monotone_per_function(self, monkeypatch):
        # every retrospective draw for a live function must condition on at
        # least as much knowledge as the previous draw for that function:
        # record the size of the conditioning set at each draw of a move
        rng = np.random.default_rng(15)
        state = make_state(rng, n=3)
        events = []
        original = ConditionalSampler.draw_append

        def spy(self, *args, **kwargs):
            events.append(("proposal", len(self)))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ConditionalSampler, "draw_append", spy)
        # the current function is drawn at the fantasies in one block on
        # its own sampler; a block of k proposals is k draws, made at sizes
        # len(self) ... len(self) + k - 1
        original_block = ConditionalSampler.draw_append_block

        def spy_block(self, X, *args, **kwargs):
            if self is state.sampler:
                events.append(("current", len(self)))
            else:
                k = len(np.atleast_2d(X))
                events.extend(("proposal", len(self) + i) for i in range(k))
            return original_block(self, X, *args, **kwargs)

        monkeypatch.setattr(ConditionalSampler, "draw_append_block", spy_block)
        for _ in range(10):
            del events[:]
            n_cond_entry = len(state.sampler)
            state, accepted = exchange_step_prior(state, 100_000, rng=rng)
            prop_sizes = [n for kind, n in events if kind == "proposal"]
            # the proposal's conditioning grows by one per retrospective draw
            assert len(prop_sizes) >= 3
            assert prop_sizes == list(range(len(state.controls),
                                            len(state.controls) + len(prop_sizes)))
            cur_sizes = [n for kind, n in events if kind == "current"]
            assert cur_sizes == [n_cond_entry]

    def test_no_normalizer_evaluation_in_module(self):
        # the whole point of the swap construction: no quadrature anywhere
        src = Path("src/gpds/exchange.py").read_text()
        for needle in ("trapezoid", "trapz", "simpson", "quad("):
            assert needle not in src
