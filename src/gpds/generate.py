"""Exact generation of data from a GP-transformed density.

Proposals are drawn one at a time from the base density, the latent
function is sampled retrospectively at each proposal (conditioned on every
value sampled so far), and the proposal is accepted when a uniform variate
falls below the squashed function value.  Every proposal is appended to
the realisation's :class:`ConditionalSampler` whether accepted or not; that
bookkeeping is what makes the accepted points exact draws from a single
consistent function.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import ConditionalSampler, GpHyper
from .model import BaseHyper, base_sample, phi

DEFAULT_MAX_PROPOSALS = 1_000_000


@dataclass
class GenerativeTrace:
    """Full record of one run of the rejection sampler.

    ``sampler`` is the realisation the run grew: it holds every proposal
    with its sampled function value, after whatever it knew before the run.
    ``accept_flags`` aligns with the proposals made during this run (the
    last ``proposal_count`` rows of ``sampler``).
    """

    accepted: np.ndarray          # (n, D)
    accepted_values: np.ndarray   # (n,), function values at accepted points
    sampler: ConditionalSampler
    accept_flags: np.ndarray      # (proposal_count,) bool
    proposal_count: int


class ProposalBudgetError(RuntimeError):
    """Proposal budget exhausted before enough acceptances; carries the
    partial trace."""

    def __init__(self, message: str, trace: GenerativeTrace | None):
        super().__init__(message)
        self.trace = trace

    def __reduce__(self):
        # the default reduction re-calls __init__ with ``args`` alone
        return type(self), (self.args[0], self.trace)


def continue_sampler(sampler: ConditionalSampler, n_more: int,
                     psi: BaseHyper, rng: np.random.Generator,
                     max_proposals: int = DEFAULT_MAX_PROPOSALS) -> GenerativeTrace:
    """Run the rejection sampler forward from existing function knowledge.

    ``sampler`` is grown in place, under its own hyperparameters; pass a
    :meth:`~ConditionalSampler.copy` to leave a realisation untouched.
    Returns once ``n_more`` proposals have been accepted; raises
    :class:`ProposalBudgetError` if ``max_proposals`` is hit first.  Each
    proposal draws its location, its function value and its uniform, in
    that order.
    """
    if n_more < 0:
        raise ValueError("n_more must be >= 0")
    if max_proposals < n_more:
        raise ValueError("max_proposals must be at least the number of samples")
    dim = sampler.hyper.dim
    accepted: list[np.ndarray] = []
    accepted_values: list[float] = []
    flags: list[bool] = []

    def _trace() -> GenerativeTrace:
        return GenerativeTrace(
            accepted=np.array(accepted).reshape(len(accepted), dim),
            accepted_values=np.asarray(accepted_values, dtype=float),
            sampler=sampler,
            accept_flags=np.asarray(flags, dtype=bool),
            proposal_count=len(flags),
        )

    while len(accepted) < n_more:
        if len(flags) >= max_proposals:
            raise ProposalBudgetError(
                f"{max_proposals} proposals produced only "
                f"{len(accepted)}/{n_more} acceptances", _trace()
            )
        x = base_sample(psi, rng)
        g = sampler.draw_append(x, rng)
        ok = rng.uniform() < phi(g)
        flags.append(ok)
        if ok:
            accepted.append(x)
            accepted_values.append(g)
    return _trace()


def draw_prior_dataset(n: int, theta: GpHyper, psi: BaseHyper,
                       rng: np.random.Generator,
                       max_proposals: int = DEFAULT_MAX_PROPOSALS) -> GenerativeTrace:
    """Generate ``n`` exact samples from a density drawn from the prior."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return continue_sampler(ConditionalSampler(theta), n, psi, rng,
                            max_proposals=max_proposals)
