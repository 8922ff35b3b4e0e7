"""Joint-distribution correctness tests for the two samplers.

Forward simulation draws (function knowledge, data) directly from the
generative procedure.  The successive-conditional simulation alternates
MCMC transitions on the latent state with an exact redraw of the data
block: by exchangeability, continuing the rejection sampler for N more
acceptances produces a fresh (data, rejections) block with the correct
conditional distribution given everything known about the function, so the
old block can be dropped.  If every acceptance ratio and all retrospective
bookkeeping are right, the two simulations have identical marginals; any
error shows up as a distribution mismatch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import ks_2samp

from .chain import ChainOptions
from .exchange import (
    ExchangeState,
    exchange_step_control,
    exchange_step_prior,
)
from .generate import DEFAULT_MAX_PROPOSALS, continue_sampler, draw_prior_dataset
from .gp import ConditionalSampler, GpHyper
from .history import HistoryChain, sweep
from .model import BaseHyper, phi


@dataclass
class GewekeReport:
    """Per-statistic two-sample KS results for forward vs successive runs."""

    statistics: dict[str, dict]
    n_samples: int
    threshold: float
    passed: bool
    forward: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    successive: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    def summary_lines(self) -> list[str]:
        lines = []
        for name, res in self.statistics.items():
            verdict = "PASS" if res["pass"] else "FAIL"
            lines.append(f"{name}: ks={res['ks']:.4f} p={res['p']:.4g} {verdict}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return lines


def _make_report(forward: dict, successive: dict, threshold: float) -> GewekeReport:
    stats = {}
    ok = True
    for name in forward:
        ks, p = ks_2samp(forward[name], successive[name])
        good = bool(p > threshold)  # numpy.bool is not JSON-serialisable
        ok = ok and good
        stats[name] = {"ks": float(ks), "p": float(p), "pass": good}
    return GewekeReport(statistics=stats, n_samples=len(next(iter(forward.values()))),
                        threshold=threshold, passed=ok,
                        forward=forward, successive=successive)


def _history_from_trace(trace, psi) -> HistoryChain:
    """The block this run of the sampler produced: its acceptances are the
    data, its rejections the latent history."""
    run = slice(len(trace.sampler) - trace.proposal_count, None)
    rej = ~trace.accept_flags
    return HistoryChain(trace.accepted, trace.accepted_values, trace.sampler.hyper,
                        psi, trace.sampler.points[run][rej],
                        trace.sampler.values[run][rej])


def _history_stats(trace) -> dict[str, float]:
    """The statistics of the block this run of the sampler produced."""
    return {
        "n_rejections": float(np.count_nonzero(~trace.accept_flags)),
        "mean_g_data": float(np.mean(trace.accepted_values)),
        "data_mean": float(np.mean(trace.accepted)),
    }


def run_geweke_history(theta: GpHyper, psi: BaseHyper, n_data: int = 3,
                       n_samples: int = 5000, thin: int = 5, *,
                       rng: np.random.Generator,
                       corrupt_insert: bool = False,
                       threshold: float = 0.01,
                       max_proposals: int = DEFAULT_MAX_PROPOSALS) -> GewekeReport:
    """Forward vs successive-conditional check of the latent-history moves
    (number, location and HMC; the hyperparameters stay fixed).

    Its statistics are those of the data block, and they have no power
    against an error in the location-move ratio: with the (1 - phi) terms
    dropped from that ratio, so that every base-density proposal is
    accepted, the check still passes at ``seed = 1`` and the default sizes
    (min p = 0.37).  The location move's law is checked on its own by
    ``tests/test_history.py::TestLocationStationarity``, chi-square tests
    under a frozen function, for a box and a Gaussian base, whose corrupted
    twins fail.
    """
    if n_samples < 10:
        raise ValueError("insufficient samples for a distribution comparison")
    opts = ChainOptions(total=0, burn_in=0)
    names = ("n_rejections", "mean_g_data", "data_mean")
    forward = {k: np.empty(n_samples) for k in names}
    for i in range(n_samples):
        trace = draw_prior_dataset(n_data, theta, psi, rng,
                                   max_proposals=max_proposals)
        for k, v in _history_stats(trace).items():
            forward[k][i] = v
    successive = {k: np.empty(n_samples) for k in names}
    trace = draw_prior_dataset(n_data, theta, psi, rng, max_proposals=max_proposals)
    for i in range(n_samples):
        for _ in range(thin):
            chain = _history_from_trace(trace, psi)
            sweep(chain, opts, None, rng, corrupt_insert=corrupt_insert)
            # replace (data, rejections) with a block continued from the
            # chain's own sampler
            trace = continue_sampler(chain.sampler, chain.n_data, chain.psi, rng,
                                     max_proposals=max_proposals)
        for k, v in _history_stats(trace).items():
            successive[k][i] = v
    return _make_report(forward, successive, threshold)


def _exchange_from_trace(trace, psi) -> ExchangeState:
    """The state whose data (and controls) are the block this run of the
    sampler accepted: one build from points, the data first and then every
    other row the function knows, in their order."""
    s = trace.sampler
    others = np.ones(len(s), dtype=bool)
    others[len(s) - trace.proposal_count :][trace.accept_flags] = False
    sampler = ConditionalSampler(s.hyper, np.vstack([trace.accepted, s.points[others]]),
                                 np.concatenate([trace.accepted_values, s.values[others]]))
    return ExchangeState(trace.accepted, sampler, len(trace.accepted), psi)


def exchange_data_refresh(state: ExchangeState, rng: np.random.Generator,
                          max_proposals: int = DEFAULT_MAX_PROPOSALS) -> ExchangeState:
    """Continue the state's sampler for N more acceptances; the fresh block
    becomes the data (and the controls), all function knowledge is kept."""
    trace = continue_sampler(state.sampler, state.n_data, state.psi, rng,
                             max_proposals=max_proposals)
    fresh = _exchange_from_trace(trace, state.psi)
    fresh.diagnostics = state.diagnostics
    return fresh


def _exchange_stats(data: np.ndarray, g_data: np.ndarray) -> dict[str, float]:
    return {
        "mean_g_data": float(np.mean(g_data)),
        "mean_phi_data": float(np.mean(phi(g_data))),
        "data_mean": float(np.mean(data)),
    }


def run_geweke_exchange(theta: GpHyper, psi: BaseHyper, n_data: int = 3,
                        n_samples: int = 5000, thin: int = 5, *,
                        rng: np.random.Generator,
                        crankshaft_eps: float = 0.5,
                        threshold: float = 0.01,
                        max_proposals: int = DEFAULT_MAX_PROPOSALS) -> GewekeReport:
    """Forward vs successive-conditional check of the exchange moves.

    Alternates prior-proposal steps with crankshaft control-point steps so
    both acceptance ratios are exercised.
    """
    if n_samples < 10:
        raise ValueError("insufficient samples for a distribution comparison")
    names = ("mean_g_data", "mean_phi_data", "data_mean")
    forward = {k: np.empty(n_samples) for k in names}
    for i in range(n_samples):
        trace = draw_prior_dataset(n_data, theta, psi, rng,
                                   max_proposals=max_proposals)
        for k, v in _exchange_stats(trace.accepted, trace.accepted_values).items():
            forward[k][i] = v
    successive = {k: np.empty(n_samples) for k in names}
    trace = draw_prior_dataset(n_data, theta, psi, rng, max_proposals=max_proposals)
    state = _exchange_from_trace(trace, psi)
    flip = False
    for i in range(n_samples):
        for _ in range(thin):
            if flip:
                state, _ = exchange_step_prior(state, max_proposals, rng=rng)
            else:
                state, _ = exchange_step_control(state, crankshaft_eps,
                                                 max_proposals, rng=rng)
            flip = not flip
            state = exchange_data_refresh(state, rng, max_proposals)
        for k, v in _exchange_stats(state.data, state.g_data).items():
            successive[k][i] = v
    return _make_report(forward, successive, threshold)
