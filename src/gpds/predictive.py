"""Normalised predictive density estimation.

The predictive density is p(x | D) = E[pi(x | psi) phi(g(x)) / Z(g, psi)],
the expectation over the posterior of the function g and the base
hyperparameters psi, with the intractable normaliser
Z(g, psi) = integral pi(x' | psi) phi(g(x')) dx'.  :func:`density_grid`
estimates it at every point of a grid from one chain.  At each retained
draw the chain's predictive probe runs the rejection sampler to one
acceptance, which takes T proposals x_1..x_T, and draws g at the grid
jointly with them (:class:`~gpds.chain.PosteriorDraw`).  Two identities
hold given g:

- T is geometric with mean 1 / Z, so the numerator term
  pi(x | psi) phi(g(x)) T has mean p(x | g, psi), and over the chain
  p(x | D);
- S = sum_j phi(g(x_j)), the probe's own proposals, has mean
  E[T | g] Z = 1 by Wald's identity (Wald 1944, Ann. Math. Statist.
  15:283), and it is the denominator term.

The estimate is the ratio of the two means.  Both terms grow with the same
T, so the ratio's error is far smaller than either mean's standard error
suggests, and the numerator's mean alone, without the denominator,
spreads much wider.  The standard errors treat the draws as independent;
an MCSE for chain output is not computed here.

:func:`estimate_denominator` is the denominator of the detailed-balance
ratio estimator, from a chain on the data augmented with x; it serves as a
cross-check of the estimate above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import (
    ChainOptions,
    ChainResult,
    PosteriorDraw,
    run_exchange_chain,
    run_history_chain,
)
from .gp import GpHyper
from .model import BaseHyper, HyperPrior, base_logpdf, phi


@dataclass
class DensityGrid:
    """Predictive density estimates at the grid ``points``, from
    ``n_draws`` retained draws of one chain.

    Entry k of ``numerator`` is the mean of pi(x | psi) phi(g(x)) T at
    point k, whose mean is p(x | D); ``denominator`` is the mean of the
    probes' S = sum of phi(g) over their T proposals, whose mean is 1 by
    Wald's identity, and is shared by every point.  :attr:`ratio` is the
    estimate.  The ``*_se`` fields are the standard errors of those means
    (nan from one draw); since both terms grow with the same T, the
    ratio's error is far smaller than either suggests.
    ``probe_budget_failures`` counts the retained iterations whose probe
    hit its proposal budget or the row cap, and so left no draw.  1-D grids of two or more
    points also carry the trapezoid integral of :attr:`ratio` (None
    otherwise)."""

    points: np.ndarray
    numerator: np.ndarray
    numerator_se: np.ndarray
    denominator: float
    denominator_se: float
    n_draws: int
    probe_budget_failures: int
    integral: float | None = None

    @property
    def ratio(self) -> np.ndarray:
        return self.numerator / self.denominator


@dataclass
class DensityConfig:
    """Model specification and the chain options a density chain runs
    with; the chain adds its own query grid or augmented datum."""

    theta0: GpHyper
    psi0: BaseHyper
    chain_options: ChainOptions
    priors: HyperPrior | None = None
    sampler: str = "latent-history"  # or "exchange"

    def run(self, data, opts: ChainOptions, rng) -> ChainResult:
        if self.sampler == "exchange":
            return run_exchange_chain(data, self.theta0, self.psi0, opts,
                                      self.priors, rng)
        return run_history_chain(data, self.theta0, self.psi0, opts,
                                 self.priors, rng)


def _mean_se(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error (nan from one term) along the first axis."""
    n = terms.shape[0]
    mean = np.mean(terms, axis=0)
    if n == 1:
        return mean, np.full_like(mean, math.nan)
    return mean, np.std(terms, axis=0, ddof=1) / math.sqrt(n)


def _numerator_terms(draws: list[PosteriorDraw], grid: np.ndarray) -> np.ndarray:
    """pi(x | psi) phi(g(x)) T, one row per draw and one column per grid
    point x, each draw under its own psi."""
    log_pi = np.array([base_logpdf(grid, d.psi) for d in draws])
    g = np.array([d.g_query for d in draws])
    t = np.array([d.proposal_count for d in draws], dtype=float)
    return np.exp(log_pi) * phi(g) * t[:, None]


def estimate_denominator(x, data: np.ndarray, config: DensityConfig,
                         rng: np.random.Generator) -> tuple[float, float]:
    """The detailed-balance ratio estimator's denominator at x: run a chain
    on the data augmented with x, and average the reverse transition
    probability min(1, phi(g(x')) / phi(g(x))) with x' ~ base."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    data = np.atleast_2d(np.asarray(data, dtype=float))
    augmented = np.vstack([data, x])
    opts = replace(config.chain_options, denominator_point=augmented.shape[0] - 1)
    result = config.run(augmented, opts, rng)
    if result.denominator_terms is None or result.denominator_terms.size == 0:
        raise ValueError("augmented chain produced no denominator terms")
    mean, se = _mean_se(result.denominator_terms)
    return float(mean), float(se)


def density_grid(grid, data: np.ndarray, config: DensityConfig,
                 seed_seq: np.random.SeedSequence) -> DensityGrid:
    """Predictive density estimates at each grid point, from one chain.

    The chain runs on the plain data with ``numerator_query=grid``, drawing
    from ``seed_seq.spawn(1)[0]``.  Every retained draw gives a row of
    numerator terms pi(x | psi) phi(g(x)) T, one per grid point, and one
    denominator term S (see the module docstring for both identities).

    A probe that runs out of ``max_proposals``, or would grow its sampler
    past ``generate.MAX_ROWS``, leaves no draw; the count is
    ``probe_budget_failures``.  That cuts the longest runs, those with the
    largest T.  Their numerator terms grow with T at rate
    pi(x) phi(g(x)), which integrates to Z over x, while S grows more
    slowly (a rejected proposal's phi averages at most Z), so the
    truncation biases the estimate low: its integral falls below 1.  A
    chain whose every probe fails is an error.  Grids above two dimensions
    are refused.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise ValueError("grid must be non-empty")
    if grid.shape[1] > 2:
        raise ValueError("density grids supported in 1-D and 2-D only")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    result = config.run(data, replace(config.chain_options, numerator_query=grid),
                        np.random.default_rng(seed_seq.spawn(1)[0]))
    draws = result.numerator_draws
    retained = result.trace.shape[0]
    failures = retained - len(draws)
    if not draws:
        raise ValueError(f"the chain recorded no draws ({failures} of {retained} "
                         "predictive probes ran out of proposals)")
    num, num_se = _mean_se(_numerator_terms(draws, grid))
    den, den_se = _mean_se(np.array([d.phi_sum for d in draws]))
    ratio = num / den
    integral = None
    if grid.shape[1] == 1 and grid.shape[0] > 1:
        order = np.argsort(grid[:, 0])
        integral = float(np.trapezoid(ratio[order], grid[order, 0]))
    return DensityGrid(
        points=grid, numerator=num, numerator_se=num_se,
        denominator=float(den), denominator_se=float(den_se),
        n_draws=len(draws), probe_budget_failures=failures, integral=integral,
    )
