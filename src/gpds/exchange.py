"""Exchange-sampling MCMC on the function posterior.

Each step proposes a fresh function (from the GP prior, or perturbatively
through control-point values), generates a matching set of "fantasy" data
from it by exact rejection sampling, and proposes swapping the functions.
Because the fantasies are exact draws from the proposal's density, the two
intractable normalisers cancel from the acceptance ratio, which reduces to
a product of squashed function values at the data and the fantasies.

Every move is one proposal sampler (the proposed function at the
controls), grown by its fantasy run, and one swap (:func:`_swap`).
Bookkeeping rule: anything learned about a function must be kept while
that function is part of the Markov state, and the state's
:class:`ConditionalSampler` is where it is kept.  Its leading rows are the
controls, so a function move proposes from a copy of those rows alone: the
crankshaft is one update of their whitened coordinates, under the state's
own factor and jitter.  The swap draws the current function at the
fantasies by growing the state's sampler (one block, with its own jitter),
where a rejected swap leaves the values; an accepted swap discards the old
function entirely and adopts the proposal's grown sampler, whose leading
rows are again the controls.  Only a hyper move, which draws its function
under new hyperparameters, factorises the controls' covariance.
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

    ``sampler`` is the current function, under the GP hyperparameters it
    holds (:attr:`theta`).  Its first ``n_controls`` rows are the
    controls, the anchor locations of perturbative proposals, and the
    first N of those are the data; the rows after them are what has been
    learned about the function at fantasy locations since the last
    accepted swap.  The moves update the state in place, keep the controls
    as the sampler's leading rows and rely on it: a function move proposes
    from those rows alone.  Construction checks that the data lead.
    """

    data: np.ndarray            # (N, D), fixed
    sampler: ConditionalSampler
    n_controls: int             # B >= N: sampler rows [0, B) are the controls
    psi: BaseHyper
    diagnostics: Counter = field(default_factory=Counter)

    def __post_init__(self):
        n = self.data.shape[0]
        if not (n <= self.n_controls <= len(self.sampler)
                and np.array_equal(self.sampler.points[:n], self.data)):
            raise ValueError("the sampler's leading rows must be the data")

    @property
    def theta(self) -> GpHyper:
        return self.sampler.hyper

    @property
    def n_data(self) -> int:
        return self.data.shape[0]

    @property
    def controls(self) -> np.ndarray:
        return self.sampler.points[: self.n_controls]

    @property
    def g_data(self) -> np.ndarray:
        return self.sampler.values[: self.n_data]


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
    sampler.draw_append_block(controls, rng.standard_normal(len(controls)))
    return ExchangeState(data, sampler, len(controls), psi)


def _swap_log_ratio(log_phi_hat_data, log_phi_cur_data,
                    log_phi_cur_fant, log_phi_hat_fant) -> float:
    """Log acceptance ratio of the function swap: the normalisers cancel,
    leaving the squashed-value products at data and fantasies."""
    return float(np.sum(log_phi_hat_data) - np.sum(log_phi_cur_data)
                 + np.sum(log_phi_cur_fant) - np.sum(log_phi_hat_fant))


def _swap(state: ExchangeState, psi: BaseHyper, trace: GenerativeTrace,
          rng: np.random.Generator, move: str, log_prior_ratio: float = 0.0,
          base_terms: tuple[float, ...] = ()) -> tuple[ExchangeState, bool]:
    """Evaluate the current function at the fantasies and accept the swap
    with probability exp(log_prior_ratio + swap ratio + sum(base_terms)).

    The state is updated in place and returned with the verdict.  On accept
    the proposal (``psi`` and the sampler grown in ``trace``, which holds
    the proposed theta and starts with the controls) becomes the state; on
    reject the current function keeps its values at the fantasies, which
    were drawn onto its sampler.
    """
    n = state.n_data
    k = len(trace.accepted)
    # a degenerate function is its mean: no normals are drawn for it
    z = np.zeros(k) if state.sampler.degenerate else rng.standard_normal(k)
    g_fant = state.sampler.draw_append_block(trace.accepted, z)
    log_a = log_prior_ratio + _swap_log_ratio(
        log_phi(trace.sampler.values[:n]), log_phi(state.g_data),
        log_phi(g_fant), log_phi(trace.accepted_values))
    for term in base_terms:
        log_a += term
    accepted = math.log(rng.uniform()) < log_a
    if accepted:
        state.diagnostics[f"{move}_acc"] += 1
        state.sampler = trace.sampler
        state.psi = psi
    return state, accepted


def _step_function(state: ExchangeState, eps: float, max_proposals: int,
                   rng: np.random.Generator) -> tuple[ExchangeState, bool]:
    """Crankshaft the controls' whitened coordinates, ``nu -> sqrt(1 -
    eps^2) nu + eps eta``, on a copy of the state's leading rows, generate
    N fantasies from that proposal and offer the swap.

    Since ``g = m + L nu``, this is the value-space update ``m + sqrt(1 -
    eps^2) (g - m) + eps L eta`` under the state's own factor and jitter,
    which leaves the GP prior at the controls invariant for any eps in
    (0, 1]; at eps = 1 it is the prior draw ``m + L eta`` exactly, and a
    degenerate function, which is its mean, draws no normals.
    """
    state.diagnostics["func_att"] += 1
    proposal = state.sampler.copy(rows=state.n_controls)
    if not proposal.degenerate:
        eta = rng.standard_normal(state.n_controls)
        proposal.set_whitened(math.sqrt(1.0 - eps * eps) * proposal.whitened
                              + eps * eta)
    try:
        trace = continue_sampler(proposal, state.n_data, state.psi, rng,
                                 max_proposals=max_proposals)
    except ProposalBudgetError:
        state.diagnostics["budget_failures"] += 1
        return state, False
    return _swap(state, state.psi, trace, rng, "func")


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


def exchange_step_hyper(state: ExchangeState, scale: float,
                        priors: HyperPrior,
                        max_proposals: int = DEFAULT_MAX_PROPOSALS, *,
                        rng: np.random.Generator) -> tuple[ExchangeState, bool]:
    """Propose swapping (function, theta, psi) as a triplet, with (theta,
    psi) from the random walk at step ``scale``.

    The new function is drawn from the GP prior under the proposed theta and
    fantasies are generated under the proposed psi, so the acceptance ratio
    keeps only the hyperprior ratio, the squashed-value products, and the
    base-density ratios at the data and the fantasies.
    """
    state.diagnostics["hyper_att"] += 1
    theta_hat, psi_hat = propose_hypers(state.theta, state.psi, scale, priors, rng)
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
    # the proposed function at the controls: a prior draw under theta_hat,
    # on the one factor of their covariance that the proposal adopts
    controls = state.controls
    values = prior_mean(controls, theta_hat)
    factor = None
    if theta_hat.amplitude != 0.0:  # a degenerate GP is its mean
        factor = chol(kernel_matrix(controls, controls, theta_hat),
                      scale=theta_hat.amplitude**2)
        values = values + factor.lower @ rng.standard_normal(len(controls))
    proposal = ConditionalSampler(theta_hat, controls, values, factor=factor)
    try:
        trace = continue_sampler(proposal, state.n_data, psi_hat, rng,
                                 max_proposals=max_proposals)
    except ProposalBudgetError:
        state.diagnostics["budget_failures"] += 1
        return state, False
    base_terms = ()
    if moves_psi:
        fantasies = trace.accepted
        base_terms = (float(np.sum(base_data_hat - base_logpdf(state.data, state.psi))),
                      float(np.sum(base_logpdf(fantasies, state.psi)
                                   - base_logpdf(fantasies, psi_hat))))
    return _swap(state, psi_hat, trace, rng, "hyper", lp_hat - lp_cur,
                 base_terms)
