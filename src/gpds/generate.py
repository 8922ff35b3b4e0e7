"""Exact generation of data from a GP-transformed density.

Proposals are drawn from the base density, the latent function is sampled
retrospectively at each proposal (conditioned on every value sampled so
far), and the proposal is accepted when a uniform variate falls below the
squashed function value.  Every proposal is appended to the realisation's
:class:`ConditionalSampler` whether accepted or not; that bookkeeping is
what makes the accepted points exact draws from a single consistent
function.

The function is sampled at a block of proposals at a time, jointly, which
is the same draw as sampling it at each proposal in turn.  The random
stream is unchanged by the blocking: a run makes the same proposals and
the same accept decisions as one that samples one proposal at a time, and
its function values equal that run's up to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gp import ConditionalSampler, GpHyper
from .model import BaseHyper, base_sample, phi

DEFAULT_MAX_PROPOSALS = 1_000_000
MAX_BLOCK = 64


def _min_block(r: int) -> int:
    """Smallest block worth drawing jointly at a sampler of r rows; smaller
    ones are drawn one proposal at a time.

    One :meth:`~ConditionalSampler.draw_append_block` of k points against k
    :meth:`~ConditionalSampler.draw_append` calls (1 BLAS thread, 2-vCPU
    Xeon) breaks even at k = 3-4 up to 300 rows, where call overhead rules
    both, and at k = 7-9 from 400 rows to 2000, where the block's copy of
    the factor to RFP form costs about seven one-point solves.  Blocks
    range from this size up to :func:`_max_block`, which grows with r.
    """
    return 4 if r < 384 else 8


def _max_block(r: int) -> int:
    """Largest block drawn jointly at a sampler of r rows:
    ``max(MAX_BLOCK, r // 8)``.

    Every block copies the whole r^2 / 2 factor to RFP form before its
    solve.  From 520 rows on, a block of r / 8 proposals spreads that copy
    over r / 8 solve columns, and a run to R rows makes O(log R) copies
    past that point instead of O(R / 64).  The block's temporaries (the
    r x k cross-covariance and solve) stay within a quarter of the factor's
    size.
    """
    return max(MAX_BLOCK, r // 8)


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
    proposal draws its location, its standard normal and its uniform, in
    that order.

    Proposals are drawn in blocks of up to :func:`_max_block` of the
    sampler's row count at the block's start (:data:`MAX_BLOCK` below 520
    rows, an eighth of the rows from there), sized to the acceptances
    still needed at the run's acceptance rate so far, and the
    function is sampled at a block's proposals jointly, by
    :meth:`~ConditionalSampler.draw_append_block`; a block too small to
    pay for its solve (:func:`_min_block`) is proposed one point at a
    time.  When the last acceptance needed falls inside a block, the
    proposals after it are truncated from the sampler (which marginalises
    values nobody looked at) and the generator is rewound and replayed up
    to it.  The run therefore consumes the random stream exactly as a run
    that proposes one point at a time: the proposal count, the accept
    decisions, the accepted points and the generator's end state are the
    same, and the function values equal up to rounding (a decision could
    differ only for a uniform within rounding distance of ``phi(g)``).
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

    def _record(x: np.ndarray, g: float, ok: bool) -> None:
        flags.append(ok)
        if ok:
            accepted.append(x)
            accepted_values.append(g)

    while len(accepted) < n_more:
        if len(flags) >= max_proposals:
            raise ProposalBudgetError(
                f"{max_proposals} proposals produced only "
                f"{len(accepted)}/{n_more} acceptances", _trace()
            )
        remaining = n_more - len(accepted)
        # enough proposals for the acceptances still needed at the run's
        # acceptance rate so far, smoothed as (accepted + 1) / (proposals + 2)
        rate = (len(accepted) + 1) / (len(flags) + 2)
        k = min(math.ceil(remaining / rate), _max_block(len(sampler)),
                max_proposals - len(flags))
        if k < _min_block(len(sampler)):
            x = base_sample(psi, rng)
            g = sampler.draw_append(x, rng)
            _record(x, g, rng.uniform() < phi(g))
            continue
        start = rng.bit_generator.state
        xs = np.empty((k, dim))
        z = np.empty(k)
        u = np.empty(k)
        for i in range(k):
            xs[i] = base_sample(psi, rng)
            z[i] = rng.standard_normal()
            u[i] = rng.uniform()
        g = sampler.draw_append_block(xs, z)
        ok = u < phi(g)
        hits = np.flatnonzero(ok)
        used = k
        if len(hits) >= remaining and hits[remaining - 1] < k - 1:
            used = int(hits[remaining - 1]) + 1
            sampler.truncate(len(sampler) - (k - used))
            rng.bit_generator.state = start
            for _ in range(used):
                base_sample(psi, rng)
                rng.standard_normal()
                rng.uniform()
        for i in range(used):
            _record(xs[i], float(g[i]), bool(ok[i]))
    return _trace()


def draw_prior_dataset(n: int, theta: GpHyper, psi: BaseHyper,
                       rng: np.random.Generator,
                       max_proposals: int = DEFAULT_MAX_PROPOSALS) -> GenerativeTrace:
    """Generate ``n`` exact samples from a density drawn from the prior."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return continue_sampler(ConditionalSampler(theta), n, psi, rng,
                            max_proposals=max_proposals)
