"""Geweke harness: the report it returns."""
import numpy as np
import pytest

from gpds.exchange import ExchangeState, exchange_step_control
from gpds.generate import draw_prior_dataset
from gpds.geweke import (
    _exchange_from_trace,
    exchange_data_refresh,
    run_geweke_exchange,
    run_geweke_history,
)
from gpds.gp import ConditionalSampler, GpHyper
from gpds.model import UniformBox

BOX = UniformBox.unit(1)
THETA = GpHyper(amplitude=1.2, lengthscales=[0.3])


class TestReportVerdict:
    # With 10 vs 10 samples the exact two-sample KS p-value is at least
    # 2 / C(20, 10) > 0, so threshold 0 always passes and threshold 1 always
    # fails, whatever the draws.
    @pytest.mark.parametrize("run", [run_geweke_history, run_geweke_exchange])
    @pytest.mark.parametrize("threshold, expected", [(0.0, True), (1.0, False)])
    def test_passed_is_plain_bool(self, run, threshold, expected):
        report = run(THETA, BOX, n_samples=10, thin=1,
                     rng=np.random.default_rng(0), threshold=threshold)
        assert type(report.passed) is bool
        assert report.passed is expected
        flags = [res["pass"] for res in report.statistics.values()]
        assert all(type(f) is bool for f in flags)
        assert report.passed == all(flags)


class TestExchangeStates:
    # the harness's exchange states keep their data, which are their
    # controls, as the sampler's leading rows, as the moves require
    def test_data_lead_the_sampler(self):
        theta = GpHyper(1, [0.5])
        for seed in range(20):
            trace = draw_prior_dataset(3, theta, BOX, np.random.default_rng(seed))
            known = sorted(map(tuple, np.column_stack([trace.sampler.points,
                                                       trace.sampler.values])))
            state = _exchange_from_trace(trace, BOX)
            s = state.sampler
            assert np.array_equal(s.points[:3], state.data)
            assert np.array_equal(state.data, trace.accepted)
            assert np.array_equal(state.g_data, trace.accepted_values)
            assert state.n_controls == 3
            # and it knows every row the run's sampler knew, once each
            assert sorted(map(tuple, np.column_stack([s.points, s.values]))) == known

    def test_refresh_keeps_the_invariant(self):
        rng = np.random.default_rng(4)
        state = _exchange_from_trace(draw_prior_dataset(3, THETA, BOX, rng), BOX)
        for _ in range(10):
            state, _ = exchange_step_control(state, 0.5, rng=rng)
            state = exchange_data_refresh(state, rng)
            assert np.array_equal(state.sampler.points[:3], state.data)

    def test_state_refuses_a_sampler_not_led_by_its_data(self):
        data = np.array([[0.2], [0.7]])
        sampler = ConditionalSampler(THETA, data[::-1], [0.1, -0.3])
        with pytest.raises(ValueError, match="leading rows"):
            ExchangeState(data=data, sampler=sampler, n_controls=2, psi=BOX)
        with pytest.raises(ValueError, match="leading rows"):
            ExchangeState(data=data, sampler=ConditionalSampler(THETA, data, [0.1, -0.3]),
                          n_controls=3, psi=BOX)


@pytest.mark.slow
def test_corrupted_function_move_fails(monkeypatch):
    # the crankshaft with its proposed whitened coordinates scaled by 1.1
    # no longer leaves the GP prior invariant.  At the default size and
    # seed 1 the run fails with min p = 1e-5 (by 0.9: 1.2e-3); at 1500 x 3
    # the same corruption passed (min p 0.15), so the size is not shrunk.
    set_whitened = ConditionalSampler.set_whitened
    monkeypatch.setattr(ConditionalSampler, "set_whitened",
                        lambda self, v: set_whitened(self, 1.1 * v))
    report = run_geweke_exchange(GpHyper(1.0, [1.0]), BOX, n_samples=5000, thin=5,
                                 rng=np.random.default_rng(1))
    assert report.passed is False
