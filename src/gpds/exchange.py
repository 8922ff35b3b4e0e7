"""Exchange-sampling MCMC on the function posterior.

Each step proposes a fresh function (from the GP prior, or perturbatively
through control-point values), generates a matching set of "fantasy" data
from it by exact rejection sampling, and proposes swapping the functions.
Because the fantasies are exact draws from the proposal's density, the two
intractable normalisers cancel from the acceptance ratio, which reduces to
a product of squashed function values at the data and the fantasies.

Every move is one proposal (:func:`_propose`: the proposed function's
values at the controls, then its fantasies, grown on one sampler) and one
swap (:func:`_swap`).  Bookkeeping rule: anything learned about a function
must be kept while that function is part of the Markov state, and the
state's :class:`ConditionalSampler` is where it is kept.  The swap
therefore draws the current function at the fantasies by growing that
sampler (one block, with the sampler's own jitter), where a rejected swap
leaves the values; an accepted swap discards the old function entirely and
adopts the proposal's grown sampler.  Neither refactorises anything.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .gp import ConditionalSampler, GpHyper, chol, kernel_matrix, prior_mean
from .generate import (
    DEFAULT_MAX_PROPOSALS,
    GenerativeTrace,
    ProposalBudgetError,
    continue_sampler,
)
from .model import (
    BaseHyper,
    HyperPrior,
    base_logpdf,
    base_sample,
    hyperprior_logpdf,
    log_phi,
    propose_hypers,
)

__all__ = [
    "ExchangeState",
    "init_exchange_state",
    "exchange_step_prior",
    "exchange_step_control",
    "exchange_step_hyper",
]


@dataclass
class ExchangeState:
    """Markov state: data, accumulated function knowledge and hyperparameters.

    ``controls`` are the anchor locations for perturbative proposals; the
    first N of them are always the data locations, and their current
    function values are ``control_values``.  ``sampler`` is the current
    function: it is conditioned on the controls and on whatever has been
    learned about the function at fantasy locations since the last
    accepted swap, under the GP hyperparameters it holds (:attr:`theta`).
    The moves update the state in place.

    The controls are the sampler's leading rows only in states that
    :func:`init_exchange_state` and the moves build; the moves do not rely
    on it.  A state built from a rejection-sampling run, as the Geweke
    harness does, has its controls interleaved with the run's rejections.
    """

    data: np.ndarray            # (N, D), fixed
    sampler: ConditionalSampler
    controls: np.ndarray        # (B, D), controls[:N] == data
    control_values: np.ndarray  # (B,)
    psi: BaseHyper
    diagnostics: Counter = field(default_factory=Counter)

    @property
    def theta(self) -> GpHyper:
        return self.sampler.hyper

    @property
    def n_data(self) -> int:
        return self.data.shape[0]

    @property
    def g_data(self) -> np.ndarray:
        return self.control_values[: self.n_data]


def init_exchange_state(data: np.ndarray, theta: GpHyper, psi: BaseHyper,
                        rng: np.random.Generator,
                        n_extra_controls: int = 0) -> ExchangeState:
    """Draw the initial function at the data (and any extra controls)."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    controls = data
    if n_extra_controls > 0:
        extra = base_sample(psi, rng.random((n_extra_controls, psi.dim)))
        controls = np.vstack([data, extra])
    sampler = ConditionalSampler(theta)
    values = sampler.draw_append_block(controls, rng.standard_normal(len(controls)))
    return ExchangeState(
        data=data,
        sampler=sampler,
        controls=controls.copy(),
        control_values=values,
        psi=psi,
    )


def _crankshaft(values: np.ndarray, mean: np.ndarray, lower: np.ndarray,
                eps: float, rng: np.random.Generator) -> np.ndarray:
    """Prior-reversible update: mu + sqrt(1-eps^2)(G-mu) + eps*L*eta.

    Leaves N(mean, L L^T) invariant for any eps in (0, 1]; eps=1 is an
    independent prior draw, ``mean + L eta`` bit for bit (the finite
    values' term is an exact zero), and eps->0 freezes the values.
    """
    eta = rng.standard_normal(values.shape[0])
    return mean + math.sqrt(1.0 - eps * eps) * (values - mean) + eps * (lower @ eta)


def _swap_log_ratio(log_phi_hat_data, log_phi_cur_data,
                    log_phi_cur_fant, log_phi_hat_fant) -> float:
    """Log acceptance ratio of the function swap: the normalisers cancel,
    leaving the squashed-value products at data and fantasies."""
    return float(np.sum(log_phi_hat_data) - np.sum(log_phi_cur_data)
                 + np.sum(log_phi_cur_fant) - np.sum(log_phi_hat_fant))


def _propose(state: ExchangeState, theta: GpHyper, psi: BaseHyper, eps: float,
             max_proposals: int, rng: np.random.Generator) -> tuple[np.ndarray, GenerativeTrace]:
    """Propose a function: its values at the controls (a crankshaft step of
    size ``eps`` from the current values under ``theta``; at ``eps = 1``
    an independent prior draw), then N fantasies generated from it under
    ``psi``.

    The control covariance is factorised once; the sampler built on that
    factor is grown by the fantasy run.  Raises
    :class:`ProposalBudgetError` when the fantasies exhaust the budget.
    """
    mean_c = prior_mean(state.controls, theta)
    factor = None
    if theta.amplitude == 0.0:
        hat_values = mean_c.copy()  # degenerate GP: the function is the mean
    else:
        factor = chol(kernel_matrix(state.controls, state.controls, theta))
        hat_values = _crankshaft(state.control_values, mean_c, factor.lower,
                                 eps, rng)
    proposal = ConditionalSampler(theta, state.controls, hat_values, factor=factor)
    trace = continue_sampler(proposal, state.n_data, psi, rng,
                             max_proposals=max_proposals)
    return hat_values, trace


def _swap(state: ExchangeState, psi: BaseHyper, hat_values: np.ndarray,
          trace: GenerativeTrace, rng: np.random.Generator, move: str,
          log_prior_ratio: float = 0.0,
          base_terms: tuple[float, ...] = ()) -> tuple[ExchangeState, bool]:
    """Evaluate the current function at the fantasies and accept the swap
    with probability exp(log_prior_ratio + swap ratio + sum(base_terms)).

    The state is updated in place and returned with the verdict.  On accept
    the proposal (``psi``, ``hat_values`` and the sampler grown in
    ``trace``, which holds the proposed theta) becomes the state; on reject
    the current function keeps its values at the fantasies, which were
    drawn onto its sampler.
    """
    n = state.n_data
    k = len(trace.accepted)
    # a degenerate function is its mean: no normals are drawn for it
    z = np.zeros(k) if state.sampler.degenerate else rng.standard_normal(k)
    g_fant = state.sampler.draw_append_block(trace.accepted, z)
    log_a = log_prior_ratio + _swap_log_ratio(
        log_phi(hat_values[:n]), log_phi(state.g_data),
        log_phi(g_fant), log_phi(trace.accepted_values))
    for term in base_terms:
        log_a += term
    accepted = math.log(rng.uniform()) < log_a
    if accepted:
        state.diagnostics[f"{move}_acc"] += 1
        state.sampler = trace.sampler
        state.control_values = hat_values
        state.psi = psi
    return state, accepted


def _step_function(state: ExchangeState, eps: float, max_proposals: int,
                   rng: np.random.Generator) -> tuple[ExchangeState, bool]:
    state.diagnostics["func_att"] += 1
    try:
        hat_values, trace = _propose(state, state.theta, state.psi, eps,
                                     max_proposals, rng)
    except ProposalBudgetError:
        state.diagnostics["budget_failures"] += 1
        return state, False
    return _swap(state, state.psi, hat_values, trace, rng, "func")


def exchange_step_prior(state: ExchangeState,
                        max_proposals: int = DEFAULT_MAX_PROPOSALS, *,
                        rng: np.random.Generator) -> tuple[ExchangeState, bool]:
    """Independence proposal: draw the new function from the GP prior."""
    return _step_function(state, 1.0, max_proposals, rng)


def exchange_step_control(state: ExchangeState, step_scale: float,
                          max_proposals: int = DEFAULT_MAX_PROPOSALS, *,
                          rng: np.random.Generator) -> tuple[ExchangeState, bool]:
    """Perturbative proposal through the control-point values.

    The crankshaft update is reversible with respect to the GP prior at the
    controls, so the proposal and prior densities cancel exactly and the
    acceptance ratio is the same fantasy/data product as the prior step.
    """
    if not 0.0 < step_scale <= 1.0:
        raise ValueError("step_scale must be in (0, 1]")
    return _step_function(state, step_scale, max_proposals, rng)


def exchange_step_hyper(state: ExchangeState, walk_scale: float,
                        priors: HyperPrior,
                        max_proposals: int = DEFAULT_MAX_PROPOSALS, *,
                        rng: np.random.Generator) -> tuple[ExchangeState, bool]:
    """Propose swapping (function, theta, psi) as a triplet, with (theta,
    psi) from the random walk at step ``walk_scale``.

    The new function is drawn from the GP prior under the proposed theta and
    fantasies are generated under the proposed psi, so the acceptance ratio
    keeps only the hyperprior ratio, the squashed-value products, and the
    base-density ratios at the data and the fantasies.
    """
    state.diagnostics["hyper_att"] += 1
    theta_hat, psi_hat = propose_hypers(state.theta, state.psi, walk_scale,
                                        priors, rng)
    lp_hat = hyperprior_logpdf(theta_hat, psi_hat, priors)
    if not np.isfinite(lp_hat):
        return state, False
    # an unproposed psi (a box) has base ratios of exactly 0: the data and
    # the fantasies lie in its support
    moves_psi = psi_hat is not state.psi
    if moves_psi:
        base_data_hat = base_logpdf(state.data, psi_hat)
        if not np.all(np.isfinite(base_data_hat)):
            return state, False
    lp_cur = hyperprior_logpdf(state.theta, state.psi, priors)
    try:
        hat_values, trace = _propose(state, theta_hat, psi_hat, 1.0,
                                     max_proposals, rng)
    except ProposalBudgetError:
        state.diagnostics["budget_failures"] += 1
        return state, False
    base_terms = ()
    if moves_psi:
        fantasies = trace.accepted
        base_terms = (float(np.sum(base_data_hat - base_logpdf(state.data, state.psi))),
                      float(np.sum(base_logpdf(fantasies, state.psi)
                                   - base_logpdf(fantasies, psi_hat))))
    return _swap(state, psi_hat, hat_values, trace, rng, "hyper",
                 lp_hat - lp_cur, base_terms)
