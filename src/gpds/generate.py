"""Exact generation of data from a GP-transformed density.

Proposals are drawn from the base density, the latent function is sampled
retrospectively at each proposal (conditioned on every value sampled so
far), and the proposal is accepted when a uniform variate falls below the
squashed function value.  Every proposal is appended to the realisation's
:class:`ConditionalSampler` whether accepted or not; that bookkeeping is
what makes the accepted points exact draws from a single consistent
function.

Each proposal is one row of D + 2 uniforms from ``Generator.random``: its
location from the first D (:func:`~gpds.model.base_sample`), the standard
normal of its function value from the next
(:func:`~gpds.model.normal_from_uniform`) and its accept uniform from the
last.  A block of k proposals is one ``rng.random((k, D + 2))`` call, and
the function is sampled at the block jointly, which is the same draw as
sampling it at each proposal in turn.  The random stream is therefore
unchanged by the blocking: a run makes the same proposals and the same
accept decisions as one that draws one row at a time, and its function
values equal that run's up to rounding.

Growing the factor from r rows by a block of k costs r^2 k flops in the
cross solve, r k^2 in the symmetric rank-k Schur update and k^3 / 3 in the
block's Cholesky, ``((r + k)^3 - r^3) / 3`` in all, so a run to R rows does
R^3 / 3 flops whatever its blocks.  The block schedule decides only the
costs paid once per block: the r^2 / 2 copy of the factor to RFP form, the
Python and wrapper overhead, and the low speed of narrow solves.  Blocks
are therefore as wide as a block of up to half the rows allows
(:func:`_max_block`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gp import ConditionalSampler, GpHyper
from .model import BaseHyper, base_sample, normal_from_uniform, phi

DEFAULT_MAX_PROPOSALS = 1_000_000
MAX_BLOCK = 64
# Most rows a run may grow a sampler to.  Every proposal is a row, and the
# packed factor of R rows takes 4 R^2 bytes: 256 MiB at this cap, in a buffer
# whose doubling capacity is at most 2 R (at most 1 GiB).  A block of r / 2
# rows onto r adds its temporaries: the r x k cross-covariance, the RFP copy
# of the factor, the k x k Schur block and the k rows staged for the packed
# write, up to about twice the packed factor of the R = r + k rows (measured
# 1.97 times, with tracemalloc, for a block of 1365 rows onto 2731): about
# 500 MiB more at this cap.  Without it, a run with a low acceptance rate
# would run out of memory long before max_proposals.
MAX_ROWS = 8192


def _min_block(r: int) -> int:
    """Smallest block worth drawing jointly at a sampler of r rows; smaller
    ones are drawn one proposal at a time.

    A block of k points does the flops of k one-point draws (see the module
    docstring) but pays once for the copy of the factor to RFP form and its
    calls.  One :meth:`~ConditionalSampler.draw_append_block` of k points
    against k blocks of one point, each a single packed solve (1 BLAS
    thread, 2-vCPU Xeon), breaks even at k = 3-4 up to 300 rows, where call
    overhead rules both, and at k = 7-9 from 400 rows to 2000, where the
    block's copy of the factor to RFP form costs about seven one-point
    solves.  Blocks range from this size up to :func:`_max_block`, which
    grows with r.
    """
    return 4 if r < 384 else 8


def _max_block(r: int) -> int:
    """Largest block drawn jointly at a sampler of r rows:
    ``max(MAX_BLOCK, r // 2)``, so no block grows the factor by more than
    half.

    A run's flops do not depend on its blocks (module docstring); its
    blocks decide how often the r^2 / 2 factor is copied to RFP form and
    the wrappers are called, and how wide each solve is, and wide solves
    run faster.  A run to R rows makes O(log R) blocks past 130 rows.  One
    2100-point sample-prior (lengthscale 0.2, mean 5, 1 BLAS thread, 2-vCPU
    Xeon, 15 interleaved calls per cap) took 9 blocks at r / 2 and 21 at
    r / 8, and against r / 2 the median call read: r / 8 +26 % (faster in
    0 of 15), r / 4 +10.5 % (3 of 15), r / 3 +9.6 % (3 of 15), 2 r / 3
    -4.4 % (10 of 15) and r +20 % (2 of 15).  Past r / 2 the k x k
    Cholesky, the Schur update and the row write take over from the solve,
    and the block's temporaries grow with k (see :data:`MAX_ROWS`), so the
    cap stops at half the rows.
    """
    return max(MAX_BLOCK, r // 2)


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
    :class:`ProposalBudgetError` if ``max_proposals`` is hit first, or
    once the acceptances still needed would grow a non-degenerate sampler
    past :data:`MAX_ROWS` rows.  Each
    proposal is one row of ``rng.random((k, D + 2))``: its location from
    columns 0..D-1, its standard normal from column D and its uniform from
    column D + 1 (see the module docstring).

    Proposals are drawn in blocks of up to :func:`_max_block` of the
    sampler's row count at the block's start (:data:`MAX_BLOCK` below 130
    rows, half the rows from there), sized to the acceptances still needed
    at the run's acceptance rate so far, and the function is sampled at a
    block's proposals jointly, by
    :meth:`~ConditionalSampler.draw_append_block`, one call per block,
    whose flops are those of drawing its proposals one at a time (module
    docstring), so a wider block saves only per-block costs; a
    block too small to pay for its solve (:func:`_min_block`) is one
    proposal, drawn as ``rng.random((1, D + 2))``, for which that call is
    the one-point solve of :meth:`~ConditionalSampler.draw_append`.
    When the last acceptance needed falls inside a block, the proposals
    after it are truncated from the sampler (which marginalises values
    nobody looked at), and the generator is restored to its state before
    the block and draws ``rng.random((used, D + 2))`` again for the rows
    used, which works for every bit generator.  The run therefore
    consumes the random stream exactly as a run that draws one row at a
    time: the proposal count, the accept decisions, the accepted points
    and the generator's end state are the same, and the function values
    equal up to rounding (a decision could differ only for a uniform
    within rounding distance of ``phi(g)``).
    """
    if n_more < 0:
        raise ValueError("n_more must be >= 0")
    if max_proposals < n_more:
        raise ValueError("max_proposals must be at least the number of samples")
    dim = sampler.hyper.dim
    width = dim + 2
    # one entry per block: its accept flags, and its accepted points and
    # values when it has any
    accepted: list[np.ndarray] = []
    accepted_values: list[np.ndarray] = []
    flags: list[np.ndarray] = []
    n_accepted = n_proposed = 0
    # a degenerate sampler keeps no factor: only the proposal budget bounds it
    row_cap = math.inf if sampler.degenerate else MAX_ROWS

    def _trace() -> GenerativeTrace:
        return GenerativeTrace(
            accepted=np.concatenate([np.empty((0, dim)), *accepted]),
            accepted_values=np.concatenate([np.empty(0), *accepted_values]),
            sampler=sampler,
            accept_flags=np.concatenate([np.empty(0, dtype=bool), *flags]),
            proposal_count=n_proposed,
        )

    while n_accepted < n_more:
        if n_proposed >= max_proposals:
            raise ProposalBudgetError(
                f"{max_proposals} proposals produced only "
                f"{n_accepted}/{n_more} acceptances", _trace()
            )
        remaining = n_more - n_accepted
        r = len(sampler)
        if r + remaining > row_cap:
            raise ProposalBudgetError(
                f"{n_proposed} proposals produced only {n_accepted}/{n_more} "
                f"acceptances, and {remaining} more would grow the sampler "
                f"past {MAX_ROWS} rows (it holds {r})", _trace()
            )
        # enough proposals for the acceptances still needed at the run's
        # acceptance rate so far, smoothed as (accepted + 1) / (proposals + 2)
        rate = (n_accepted + 1) / (n_proposed + 2)
        k = min(math.ceil(remaining / rate), _max_block(r), max_proposals - n_proposed,
                row_cap - r)
        if k < _min_block(r):
            k = 1
        start = rng.bit_generator.state if k > 1 else None
        u = rng.random((k, width))
        xs = base_sample(psi, u[:, :dim])
        z = normal_from_uniform(u[:, dim])
        g = sampler.draw_append_block(xs, z)
        ok = u[:, dim + 1] < phi(g)
        hits = int(np.count_nonzero(ok))
        if hits > remaining or (hits == remaining and not ok[-1]):
            # the last acceptance needed falls before the block's end
            used = int(np.flatnonzero(ok)[remaining - 1]) + 1
            sampler.truncate(r + used)
            rng.bit_generator.state = start
            rng.random((used, width))
            xs, g, ok = xs[:used], g[:used], ok[:used]
            hits = remaining
        if hits:
            accepted.append(xs[ok])
            accepted_values.append(g[ok])
        flags.append(ok)
        n_accepted += hits
        n_proposed += len(ok)
    return _trace()


def draw_prior_dataset(n: int, theta: GpHyper, psi: BaseHyper,
                       rng: np.random.Generator,
                       max_proposals: int = DEFAULT_MAX_PROPOSALS) -> GenerativeTrace:
    """Generate ``n`` exact samples from a density drawn from the prior."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return continue_sampler(ConditionalSampler(theta), n, psi, rng,
                            max_proposals=max_proposals)
