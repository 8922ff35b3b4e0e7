"""Base densities, the logistic link, hyperparameter priors and the
hyperparameter random walk.

The modelled density is proportional to ``phi(g(x)) * pi(x | psi)`` where
``g`` is a GP draw, ``phi`` the logistic squashing function and ``pi`` a
tractable base density (a uniform box or a diagonal Gaussian).  Because
``phi < 1``, the base density upper-bounds the unnormalised model density,
which is what makes exact rejection sampling possible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy.special import erfinv, expit, log_expit

from .gp import GpHyper

LOG_2PI = math.log(2.0 * math.pi)
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Logistic link
# ---------------------------------------------------------------------------

def phi(z):
    """Logistic function 1 / (1 + exp(-z)); stable for any float input."""
    return expit(z)


def log_phi(z):
    """log phi(z) without overflow for large |z|."""
    return log_expit(z)


def log_one_minus_phi(z):
    """log (1 - phi(z)) = log phi(-z)."""
    return log_expit(-np.asarray(z))


# ---------------------------------------------------------------------------
# Base densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UniformBox:
    """Uniform base density on an axis-aligned box."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("lower/upper shape mismatch")
        if np.any(lo >= hi):
            raise ValueError("box requires lower < upper in every dimension")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @cached_property
    def log_volume(self) -> float:
        return float(np.sum(np.log(self.upper - self.lower)))

    @classmethod
    def unit(cls, dim: int = 1) -> "UniformBox":
        return cls(np.zeros(dim), np.ones(dim))


@dataclass(frozen=True, eq=False)
class GaussianBase:
    """Diagonal Gaussian base density."""

    mean: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mean, dtype=float))
        sd = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if mu.shape != sd.shape:
            raise ValueError("mean/sigma shape mismatch")
        if np.any(sd <= 0):
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "sigma", sd)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


BaseHyper = Union[UniformBox, GaussianBase]


def normal_from_uniform(u):
    """Standard normal quantiles of uniforms from ``Generator.random``,
    elementwise.

    Those uniforms are ``k 2^-53`` for k in ``[0, 2^53)``; each is read as
    the midpoint of its cell, ``(k + 1/2) 2^-53``, which is never 0 or 1,
    so every result is finite (``|z| < 8.3``) and the law of z is exactly
    symmetric about 0.  It is computed as ``sqrt(2) erfinv(2u - 1 + 2^-53)``,
    exact up to the ``erfinv`` because that argument is representable for
    every cell; ``ndtri(u + 2^-54)`` would round the top cells' midpoints,
    the last one to 1 (z = inf).
    """
    return SQRT2 * erfinv(2.0 * u - (1.0 - 2.0 ** -53))


def base_sample(hyper: BaseHyper, u) -> np.ndarray:
    """Draws from the base density, one per row of ``u``: uniforms from
    ``Generator.random`` of shape (..., D), mapped elementwise to
    ``lower + (upper - lower) u`` for a box (what ``rng.uniform(lower,
    upper)`` computes from them) and to ``mean + sigma``
    :func:`normal_from_uniform` ``(u)`` for a Gaussian.  The caller draws
    the uniforms, so a block of proposals takes them in one generator call.
    """
    if isinstance(hyper, UniformBox):
        return hyper.lower + (hyper.upper - hyper.lower) * u
    if isinstance(hyper, GaussianBase):
        return hyper.mean + hyper.sigma * normal_from_uniform(u)
    raise TypeError(f"unknown base density {type(hyper)!r}")


def base_logpdf(x, hyper: BaseHyper):
    """Exact normalised log-density; -inf outside a box's support.

    Accepts a single (D,) point (returns a float) or an (n, D) batch
    (returns an (n,) array).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != hyper.dim:
        raise ValueError("point dimension does not match base density")
    if isinstance(hyper, UniformBox):
        inside = np.all((pts >= hyper.lower) & (pts <= hyper.upper), axis=1)
        val = np.where(inside, -hyper.log_volume, -np.inf)
    elif isinstance(hyper, GaussianBase):
        z = (pts - hyper.mean) / hyper.sigma
        val = -0.5 * np.sum(z * z, axis=1) - np.sum(np.log(hyper.sigma)) \
            - 0.5 * hyper.dim * LOG_2PI
    else:
        raise TypeError(f"unknown base density {type(hyper)!r}")
    return float(val[0]) if single else val


def unnormalized_density(x, g_at_x, hyper: BaseHyper):
    """phi(g(x)) * pi(x | psi); never exceeds pi(x | psi)."""
    lp = base_logpdf(x, hyper)
    return phi(g_at_x) * np.exp(lp)


# ---------------------------------------------------------------------------
# Hyperparameter priors and the random-walk proposal
# ---------------------------------------------------------------------------

def _normal_logpdf(x, mu, sigma):
    z = (np.asarray(x, dtype=float) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * LOG_2PI


@dataclass(frozen=True)
class HyperPrior:
    """Independent priors over the covariance and base hyperparameters.

    Log-amplitude and log-lengthscales get normal priors (log-normal in
    the original parameters); a Gaussian base gets normal priors on its
    means and log-normal priors on its scales.  ``isotropic`` means a
    single shared lengthscale: its prior is evaluated once, not per
    dimension, and moves perturb all dimensions jointly.  When ``pin`` is
    set the pin location is treated as a hyperparameter with the base
    density as its prior.
    """

    log_amplitude: tuple[float, float] = (1.0, 0.5)
    log_lengthscale: tuple[float, float] = (0.05, 0.5)
    base_mean: tuple[np.ndarray, np.ndarray] | None = None   # (locs, scales), per dim
    log_base_sigma: tuple[np.ndarray, np.ndarray] | None = None
    isotropic: bool = False
    pin: bool = False

    @classmethod
    def for_data(cls, data: np.ndarray, gaussian_base: bool = False, **kwargs) -> "HyperPrior":
        """Weakly informative, data-scaled priors for the base parameters."""
        if not gaussian_base:
            return cls(**kwargs)
        data = np.atleast_2d(np.asarray(data, dtype=float))
        mu = data.mean(axis=0)
        sd = data.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        return cls(
            base_mean=(mu, 2.0 * sd),
            log_base_sigma=(np.log(sd), np.ones_like(sd)),
            **kwargs,
        )


def theta_logprior(theta: GpHyper, psi: BaseHyper, priors: HyperPrior) -> float:
    """Log prior density of the covariance hyperparameters."""
    if theta.amplitude <= 0 or np.any(theta.lengthscales <= 0):
        return -np.inf
    mu_a, sd_a = priors.log_amplitude
    out = float(_normal_logpdf(math.log(theta.amplitude), mu_a, sd_a))
    mu_l, sd_l = priors.log_lengthscale
    if priors.isotropic:
        out += float(_normal_logpdf(math.log(theta.lengthscales[0]), mu_l, sd_l))
    else:
        out += float(np.sum(_normal_logpdf(np.log(theta.lengthscales), mu_l, sd_l)))
    if priors.pin and theta.pin_location is not None:
        out += float(base_logpdf(theta.pin_location, psi))
    return out


def psi_logprior(psi: BaseHyper, priors: HyperPrior) -> float:
    """Log prior density of the base density hyperparameters."""
    if isinstance(psi, UniformBox):
        return 0.0  # box bounds are fixed, not inferred
    out = 0.0
    if priors.base_mean is not None:
        locs, scales = priors.base_mean
        out += float(np.sum(_normal_logpdf(psi.mean, np.asarray(locs), np.asarray(scales))))
    if priors.log_base_sigma is not None:
        if np.any(psi.sigma <= 0):
            return -np.inf
        locs, scales = priors.log_base_sigma
        out += float(np.sum(_normal_logpdf(np.log(psi.sigma), np.asarray(locs), np.asarray(scales))))
    return out


def hyperprior_logpdf(theta: GpHyper, psi: BaseHyper, priors: HyperPrior) -> float:
    """Joint log prior of (theta, psi); -inf outside the support."""
    lp = theta_logprior(theta, psi, priors)
    if not np.isfinite(lp):
        return -np.inf
    lp2 = psi_logprior(psi, priors)
    return lp + lp2 if np.isfinite(lp2) else -np.inf


def propose_hypers(theta: GpHyper, psi: BaseHyper, scale: float,
                   priors: HyperPrior, rng: np.random.Generator) -> tuple[GpHyper, BaseHyper]:
    """Symmetric random-walk proposal for (theta, psi), every coordinate at
    step ``scale``: amplitude, lengthscales and base sigmas walk in log
    space, base means and the pin location linearly, so the proposal ratio
    is exactly one."""
    amp = math.exp(math.log(theta.amplitude) + scale * rng.standard_normal())
    if priors.isotropic:
        step = scale * rng.standard_normal()
        ls = theta.lengthscales * math.exp(step)
    else:
        ls = theta.lengthscales * np.exp(scale * rng.standard_normal(theta.dim))
    pin = theta.pin_location
    if priors.pin and pin is not None:
        pin = pin + scale * rng.standard_normal(theta.dim)
    theta_hat = GpHyper(amplitude=amp, lengthscales=ls, pin_location=pin, mean=theta.mean)
    if isinstance(psi, GaussianBase):
        mu = psi.mean + scale * rng.standard_normal(psi.dim)
        sd = psi.sigma * np.exp(scale * rng.standard_normal(psi.dim))
        psi_hat: BaseHyper = GaussianBase(mean=mu, sigma=sd)
    else:
        psi_hat = psi
    return theta_hat, psi_hat

