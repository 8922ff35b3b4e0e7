"""Gaussian process density sampler.

A prior over densities proportional to ``phi(g(x)) * pi(x | psi)`` with g
drawn from a Gaussian process, together with an exact generative sampler,
two MCMC inference schemes (exchange sampling and latent-history sampling)
and a normalised predictive density estimator.
"""
from .gp import (
    CholeskyFactor,
    ConditionalSampler,
    GpHyper,
    IllConditionedCovariance,
    chol,
    conditional,
    log_prior_density,
)
from .model import (
    BaseHyper,
    GaussianBase,
    HyperPrior,
    UniformBox,
    base_logpdf,
    base_sample,
    hyperprior_logpdf,
    phi,
    unnormalized_density,
)
from .generate import (
    GenerativeTrace,
    ProposalBudgetError,
    continue_sampler,
    draw_prior_dataset,
)
from .exchange import (
    ExchangeState,
    exchange_step_control,
    exchange_step_hyper,
    exchange_step_prior,
    init_exchange_state,
)
from .history import (
    HistoryChain,
    init_history,
    sweep,
)
from .predictive import (
    DensityConfig,
    DensityGrid,
    density_grid,
    estimate_denominator,
)

__version__ = "0.1.0"
