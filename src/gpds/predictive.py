"""Normalised predictive density estimation.

Writing the Metropolis--Hastings detailed-balance identity for moves
between a point x and a base-density proposal x' and integrating both
sides gives the predictive density as a ratio of two expectations: the
numerator is estimated along the main chain (which already produces a
predictive sample x' per retained step), the denominator along a fresh
chain whose data set is augmented with x.  Neither expectation involves
the intractable normaliser.  :func:`density_grid` estimates both at every
point of a grid, from one numerator chain and one
:func:`estimate_denominator` chain per point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import ChainOptions, ChainResult, PosteriorDraw, run_exchange_chain, run_history_chain
from .gp import GpHyper
from .model import BaseHyper, HyperPrior, base_logpdf, phi


@dataclass
class DensityEstimate:
    """Predictive density estimate at one location."""

    x: np.ndarray
    numerator: float
    numerator_se: float
    denominator: float
    denominator_se: float
    n_numerator: int
    n_denominator: int

    @property
    def ratio(self) -> float:
        return self.numerator / self.denominator


@dataclass
class DensityGrid:
    """Predictive density estimates on a lattice; 1-D grids of two or more
    points also carry the trapezoid integral of the ratio estimates (None
    otherwise)."""

    points: np.ndarray
    estimates: list[DensityEstimate]
    integral: float | None = None

    def ratios(self) -> np.ndarray:
        return np.array([e.ratio for e in self.estimates])


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


def _mean_se(terms: np.ndarray) -> tuple[float, float]:
    n = terms.shape[0]
    mean = float(np.mean(terms))
    se = float(np.std(terms, ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return mean, se


def _numerator_term(d: PosteriorDraw, k: int) -> float:
    """pi(x | psi) * min(1, phi(g(x)) / phi(g(x'))) at query point k of one
    retained draw; the numerator is the mean of these terms."""
    pi_x = math.exp(base_logpdf(d.query[k], d.psi))
    return pi_x * min(1.0, phi(d.g_query[k]) / phi(d.g_pred))


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
    return _mean_se(result.denominator_terms)


def _denominator_task(args) -> tuple[int, float, float]:
    k, x, data, config, child_seq = args
    rng = np.random.default_rng(child_seq)
    den, den_se = estimate_denominator(x, data, config, rng)
    return k, den, den_se


def density_grid(grid, data: np.ndarray, config: DensityConfig,
                 seed_seq: np.random.SeedSequence, workers: int = 1) -> DensityGrid:
    """Predictive density estimates at each grid point.

    One chain on the plain data, run with ``numerator_query=grid``,
    supplies every numerator; each grid point runs its own augmented chain
    for the denominator.  The chains draw from the children of
    ``seed_seq.spawn(1 + len(grid))``: the first seeds the numerator chain,
    child k + 1 the denominator at grid point k, so results do not depend
    on ``workers``.  1-D grids of two or more points also carry the
    trapezoid integral of the ratios.  Grids above two dimensions are
    refused.
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
    # each retained iteration of a denominator chain adds one term
    n_denominator = len(range(opts.burn_in, opts.total, opts.thinning))
    tasks = [(k, grid[k], data, config, children[1 + k]) for k in range(n_grid)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            denom = {k: (den, se) for k, den, se in pool.map(_denominator_task, tasks)}
    else:
        denom = {k: (den, se) for k, den, se in map(_denominator_task, tasks)}
    estimates = []
    for k in range(n_grid):
        terms = np.array([_numerator_term(d, k) for d in draws])
        num, num_se = _mean_se(terms)
        den, den_se = denom[k]
        estimates.append(DensityEstimate(
            x=grid[k], numerator=num, numerator_se=num_se,
            denominator=den, denominator_se=den_se,
            n_numerator=terms.shape[0],
            n_denominator=n_denominator,
        ))
    integral = None
    if grid.shape[1] == 1 and n_grid > 1:
        order = np.argsort(grid[:, 0])
        xs = grid[order, 0]
        ys = np.array([estimates[i].ratio for i in order])
        integral = float(np.trapezoid(ys, xs))
    return DensityGrid(points=grid, estimates=estimates, integral=integral)
