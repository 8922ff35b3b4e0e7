"""Normalised predictive density estimation.

Writing the Metropolis--Hastings detailed-balance identity for moves
between a point x and a base-density proposal x' and integrating both
sides gives the predictive density as a ratio of two expectations: the
numerator is estimated along the main chain (which already produces a
predictive sample x' per retained step), the denominator along a fresh
chain whose data set is augmented with x.  Neither expectation involves
the intractable normaliser.  :func:`density_grid` estimates both at every
point of a grid, from one numerator chain and one
:func:`estimate_denominator` chain per point, and returns them as one
:class:`DensityGrid` of per-point arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import (
    ChainOptions,
    ChainResult,
    PosteriorDraw,
    pool_map,
    run_exchange_chain,
    run_history_chain,
)
from .gp import GpHyper
from .model import BaseHyper, HyperPrior, base_logpdf, phi


@dataclass
class DensityGrid:
    """Predictive density estimates at the grid ``points``.  Entry k of
    each array belongs to point k: a numerator averages ``n_numerator``
    terms, a denominator ``n_denominator``, and a standard error is nan
    from one term.  1-D grids of two or more points also carry the
    trapezoid integral of :attr:`ratio` (None otherwise)."""

    points: np.ndarray
    numerator: np.ndarray
    numerator_se: np.ndarray
    denominator: np.ndarray
    denominator_se: np.ndarray
    n_numerator: int
    n_denominator: int
    integral: float | None = None

    @property
    def ratio(self) -> np.ndarray:
        return self.numerator / self.denominator


@dataclass
class DensityConfig:
    """Model specification and the chain options every density chain runs
    with; each chain adds its own query grid or augmented datum."""

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
    """Mean and standard error (nan from one term) along the last axis."""
    n = terms.shape[-1]
    mean = np.mean(terms, axis=-1)
    if n == 1:
        return mean, np.full_like(mean, math.nan)
    return mean, np.std(terms, axis=-1, ddof=1) / math.sqrt(n)


def _numerator_terms(d: PosteriorDraw, grid: np.ndarray) -> np.ndarray:
    """pi(x | psi) * min(1, phi(g(x)) / phi(g(x'))) at every grid point x,
    for one retained draw; the numerator is the mean of these terms."""
    # math.exp: numpy's SIMD exp can round differently from libm's
    pi_x = np.array([math.exp(v) for v in base_logpdf(grid, d.psi)])
    return pi_x * np.minimum(1.0, phi(d.g_query) / phi(d.g_pred))


def estimate_denominator(x, data: np.ndarray, config: DensityConfig,
                         rng: np.random.Generator) -> tuple[float, float]:
    """Run a chain on the data augmented with x; average the reverse
    transition probability min(1, phi(g(x')) / phi(g(x))) with x' ~ base."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    data = np.atleast_2d(np.asarray(data, dtype=float))
    augmented = np.vstack([data, x])
    opts = replace(config.chain_options, denominator_point=augmented.shape[0] - 1)
    result = config.run(augmented, opts, rng)
    if result.denominator_terms is None or result.denominator_terms.size == 0:
        raise ValueError("augmented chain produced no denominator terms")
    mean, se = _mean_se(result.denominator_terms)
    return float(mean), float(se)


def _denominator_task(args) -> tuple[float, float]:
    x, data, config, child_seq = args
    return estimate_denominator(x, data, config, np.random.default_rng(child_seq))


def density_grid(grid, data: np.ndarray, config: DensityConfig,
                 seed_seq: np.random.SeedSequence, workers: int = 1) -> DensityGrid:
    """Predictive density estimates at each grid point.

    One chain on the plain data, run with ``numerator_query=grid``,
    supplies every numerator; each grid point runs its own augmented chain
    for the denominator, ``workers`` of them at a time.  The chains draw
    from the children of ``seed_seq.spawn(1 + len(grid))``: the first
    seeds the numerator chain, child k + 1 the denominator at grid point
    k, so results do not depend on ``workers``.  Grids above two
    dimensions are refused.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise ValueError("grid must be non-empty")
    if grid.shape[1] > 2:
        raise ValueError("density grids supported in 1-D and 2-D only")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    opts = config.chain_options
    n_grid = grid.shape[0]
    children = seed_seq.spawn(1 + n_grid)
    draws = config.run(data, replace(opts, numerator_query=grid),
                       np.random.default_rng(children[0])).numerator_draws
    if not draws:
        raise ValueError("numerator chain recorded no draws")
    tasks = [(x, data, config, child) for x, child in zip(grid, children[1:])]
    den, den_se = np.array(pool_map(_denominator_task, tasks, workers)).T
    # one contiguous row per grid point, so each mean sums in draw order
    terms = np.ascontiguousarray(np.array([_numerator_terms(d, grid) for d in draws]).T)
    num, num_se = _mean_se(terms)
    integral = None
    if grid.shape[1] == 1 and n_grid > 1:
        order = np.argsort(grid[:, 0])
        integral = float(np.trapezoid((num / den)[order], grid[order, 0]))
    return DensityGrid(
        points=grid, numerator=num, numerator_se=num_se,
        denominator=den, denominator_se=den_se,
        n_numerator=len(draws),
        # each retained iteration of a denominator chain adds one term
        n_denominator=len(range(opts.burn_in, opts.total, opts.thinning)),
        integral=integral,
    )
