"""MCMC over the latent history of the generative rejection sampler.

The chain state is everything the sampler would have produced on its way
to the observed data: the function values at the data, plus the number,
locations and function values of the rejected proposals.  It lives in a
:class:`HistoryChain`, whose moves update one incrementally maintained
factor in place: insert or delete a single latent rejection (an insertion
is proposed with the fixed probability ``zeta_insert``, always when there
are no rejections), propose a new location for every rejection from the
base density, update all function values jointly by elliptical slice
sampling, and random-walk the hyperparameters at one step scale.  Only the
insert probability, the number of number moves and the walk's step scale
are settings: the location and function moves have none to tune.
:func:`sweep_moves` lists those moves, named and set by a
:class:`~gpds.chain.ChainOptions`, and :func:`sweep` runs them once;
:func:`init_history` draws a starting state with no rejections.

An insertion is conditioned on the GP once: it draws its function value
with :meth:`~gpds.gp.ConditionalSampler.draw_append`, which records it as
the last factor row, and a rejected insertion drops that row again with
the O(1) :meth:`~gpds.gp.ConditionalSampler.truncate`.  Given the function
the rejection locations are conditionally independent, so one location
sweep moves them all in one block.  Each rejection's proposal is a fresh
draw from the base density pi(. | psi), independent of where it is now
(an independence sampler, Tierney 1994): the base density cancels from
the ratio, which is (1 - phi(g')) / (1 - phi(g)), so the move has no step
size to tune and no proposal falls outside the support.  The proposals
are drawn jointly onto the factor with
:meth:`~gpds.gp.ConditionalSampler.draw_append_block`, each is accepted or
rejected on its own, and one
:meth:`~gpds.gp.ConditionalSampler.compact` keeps the unmoved rejections
and the accepted proposals and drops the rest.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from .gp import ConditionalSampler, GpHyper, chol, kernel_matrix, prior_mean
from .model import (
    BaseHyper,
    HyperPrior,
    base_logpdf,
    base_sample,
    hyperprior_logpdf,
    log_one_minus_phi,
    log_phi,
    phi,
    propose_hypers,
)

if TYPE_CHECKING:
    from .chain import ChainOptions, Move

__all__ = [
    "HistoryChain",
    "init_history",
    "insert_log_accept",
    "delete_log_accept",
    "location_log_accept",
    "sweep",
    "sweep_moves",
]


# ---------------------------------------------------------------------------
# Acceptance-ratio helpers (pure, log scale)
# ---------------------------------------------------------------------------

def _insert_prob(m: int, zeta_insert: float) -> float:
    """Probability that the number move at m rejections proposes an
    insertion: 1 for an empty history, else ``zeta_insert``."""
    return 1.0 if m == 0 else zeta_insert


def insert_log_accept(m: int, n: int, zeta_insert: float, g_plus: float) -> float:
    """Log acceptance ratio for inserting one latent rejection at value g_plus."""
    return (math.log(1.0 - zeta_insert) + math.log(m + n)
            + float(log_one_minus_phi(g_plus))
            - math.log(_insert_prob(m, zeta_insert)) - math.log(m + 1))


def delete_log_accept(m: int, n: int, zeta_insert: float, g_minus: float) -> float:
    """Log acceptance ratio for deleting the rejection whose value is g_minus."""
    if m < 1:
        raise ValueError("cannot delete from an empty history")
    return (math.log(_insert_prob(m - 1, zeta_insert)) + math.log(m)
            - math.log(1.0 - zeta_insert) - math.log(m + n - 1)
            - float(log_one_minus_phi(g_minus)))


def location_log_accept(g_new, g_old):
    """Log acceptance ratio for moving a rejection from function value g_old
    to a base-density proposal at g_new, element by element over arrays:
    log(1 - phi(g_new)) - log(1 - phi(g_old))."""
    return log_one_minus_phi(g_new) - log_one_minus_phi(g_old)


# ---------------------------------------------------------------------------
# Mutable chain workspace
# ---------------------------------------------------------------------------

class HistoryChain:
    """The latent-history Markov state, updated in place by its moves.

    Wraps a :class:`ConditionalSampler` whose rows are the data (first N,
    never touched) followed by the latent rejections (rows N to R - 1, in
    slot order), so individual moves reuse the incrementally maintained factor
    instead of refactorising.  The GP hyperparameters are the sampler's
    (:attr:`theta`); ``diagnostics`` counts the attempts and acceptances of
    its moves by their names in :func:`sweep_moves`.
    """

    def __init__(self, data: np.ndarray, g_data: np.ndarray, theta: GpHyper,
                 psi: BaseHyper, rejections: np.ndarray | None = None,
                 g_rejections: np.ndarray | None = None):
        self.data = np.atleast_2d(np.asarray(data, dtype=float))
        self.n_data = self.data.shape[0]
        self.psi = psi
        g_data = np.atleast_1d(np.asarray(g_data, dtype=float))
        rej = np.asarray(() if rejections is None else rejections, dtype=float)
        rej = rej.reshape(-1, self.data.shape[1])
        g_rej = np.asarray(() if g_rejections is None else g_rejections,
                           dtype=float).reshape(-1)
        if g_data.shape[0] != self.n_data or g_rej.shape[0] != rej.shape[0]:
            raise ValueError("each data point and rejection needs one function value")
        self.sampler = ConditionalSampler(theta, np.vstack([self.data, rej]),
                                          np.concatenate([g_data, g_rej]))
        self.diagnostics: Counter = Counter()

    @property
    def theta(self) -> GpHyper:
        return self.sampler.hyper

    @property
    def n_rejections(self) -> int:
        return len(self.sampler) - self.n_data

    @property
    def g_data(self) -> np.ndarray:
        return self.sampler.values[: self.n_data]

    @property
    def rejections(self) -> np.ndarray:
        """The rejection locations in slot order, as a copy."""
        return self.sampler.points[self.n_data :].copy()

    @property
    def g_rejections(self) -> np.ndarray:
        return self.sampler.values[self.n_data :]

    # -- number move ------------------------------------------------------
    def step_number(self, zeta_insert: float, rng: np.random.Generator,
                    corrupt_insert: bool = False) -> bool:
        m, n = self.n_rejections, self.n_data
        if rng.uniform() < _insert_prob(m, zeta_insert):
            x_plus = base_sample(self.psi, rng.random(self.psi.dim))
            g_plus = self.sampler.draw_append(x_plus, rng.standard_normal())
            log_a = insert_log_accept(m, n, zeta_insert, g_plus)
            if corrupt_insert:
                # testing hook: flip the sign of the squashed-value term
                log_a = (log_a - float(log_one_minus_phi(g_plus))
                         + math.log1p(phi(g_plus)))
            if math.log(rng.uniform()) < log_a:
                return True
            self.sampler.truncate(len(self.sampler) - 1)
            return False
        row = n + int(rng.integers(m))
        log_a = delete_log_accept(m, n, zeta_insert, float(self.sampler.values[row]))
        if math.log(rng.uniform()) < log_a:
            self.sampler.delete(row)
            return True
        return False

    # -- location moves ---------------------------------------------------
    def step_locations(self, rng: np.random.Generator) -> int:
        """One base-density proposal per rejection, all in one block;
        returns the number accepted.

        Given the function the rejections move independently, so the M
        proposals are drawn at once, from one ``rng.random((M, D))`` through
        :func:`~gpds.model.base_sample` as the rejection sampler draws its
        proposals, and the function is drawn jointly at all of them onto
        the end of the factor.  Each proposal is then accepted on its own
        ratio (:func:`location_log_accept`), and one
        :meth:`~gpds.gp.ConditionalSampler.compact` keeps the unmoved
        rejections, followed by the moved ones at their new locations and
        values, both in slot order.
        """
        sampler = self.sampler
        nd, r = self.n_data, len(sampler)
        m = r - nd
        x_new = base_sample(self.psi, rng.random((m, self.psi.dim)))
        g_new = sampler.draw_append_block(x_new, rng.standard_normal(m))
        g_old = sampler.values[nd:r]
        moved = np.log(rng.uniform(size=m)) < location_log_accept(g_new, g_old)
        sampler.compact(nd, np.concatenate([nd + np.flatnonzero(~moved),
                                            r + np.flatnonzero(moved)]))
        return int(np.count_nonzero(moved))

    # -- function move (elliptical slice sampling) -------------------------
    def step_function_hmc(self, rng: np.random.Generator) -> int:
        """One elliptical slice move of every function value (Murray, Adams
        & MacKay 2010); returns the number of angles tried, at least 1.

        It keeps the name of the Hamiltonian move it replaced, because the
        benchmark's tracer patches that name; it becomes ``step_function``
        once the tracer's patch table allows the rename.

        Given the rows, the target is the GP prior times the likelihood
        exp l(g), l(g) = sum log phi(g_data) + sum log phi(-g_rej).  A prior
        draw nu = L eta (one ``lower_dot``) spans the ellipse
        g(t) = m + (g - m) cos t + nu sin t, and angles are tried on it,
        from a bracket of width 2 pi shrunk towards t = 0, until l(g(t))
        clears a slice level drawn under l(g).  Each angle is O(R), and the
        move has no step size and never rejects.  The state is kept as
        :meth:`~gpds.gp.ConditionalSampler.set_whitened` of
        w cos t + eta sin t, so the values stay ``m + L w`` exactly.

        Factor rows 0..N-1 are always the data (deletes and appends only
        ever touch rejection rows), so with the rejection rows negated every
        term of l is one ``log_phi`` pass.
        """
        sampler = self.sampler
        if sampler.degenerate or len(sampler) == 0:
            return 1  # nothing to move
        w = sampler.whitened
        eta = rng.standard_normal(w.shape[0])
        sign = np.ones(w.shape[0])
        sign[self.n_data:] = -1.0
        m = sign * sampler.prior_mean_vec
        f = sign * sampler.values - m
        nu = sign * sampler.lower_dot(eta)

        def log_lik(t: float) -> float:
            return float(log_phi(m + f * math.cos(t) + nu * math.sin(t)).sum())

        log_level = log_lik(0.0) + math.log(rng.uniform())
        t = rng.uniform(0.0, 2.0 * math.pi)
        lo, hi = t - 2.0 * math.pi, t
        tries = 1
        while log_lik(t) <= log_level:
            if t < 0.0:
                lo = t
            else:
                hi = t
            t = rng.uniform(lo, hi)
            tries += 1
        sampler.set_whitened(w * math.cos(t) + eta * math.sin(t))
        return tries

    # -- hyperparameter move ----------------------------------------------
    def step_hyper(self, scale: float, priors: HyperPrior,
                   rng: np.random.Generator) -> bool:
        """One random-walk proposal of ``(theta, psi)`` with the function
        values held fixed; returns whether it was accepted.

        The proposal is scored from one from-scratch factor of the Gram
        matrix under the proposed kernel
        (:meth:`~gpds.gp.CholeskyFactor.log_density` of the values' residual
        from the proposed prior mean).  Only an accepted proposal builds a
        sampler from that factor, which the chain adopts as its realisation;
        a rejected one leaves the chain's sampler as it was.
        """
        theta_hat, psi_hat = propose_hypers(self.theta, self.psi, scale, priors, rng)
        lp_hat = hyperprior_logpdf(theta_hat, psi_hat, priors)
        if not np.isfinite(lp_hat):
            return False
        lp_cur = hyperprior_logpdf(self.theta, self.psi, priors)
        pts = self.sampler.points
        # an unproposed psi (a box) has a base ratio of exactly 0: every
        # point lies in its support
        base_ratio = 0.0
        if psi_hat is not self.psi:
            base_new = base_logpdf(pts, psi_hat)
            if not np.all(np.isfinite(base_new)):
                return False
            base_ratio = float(np.sum(base_new - base_logpdf(pts, self.psi)))
        values = self.sampler.values
        factor_hat = chol(kernel_matrix(pts, pts, theta_hat), scale=theta_hat.amplitude**2)
        log_density_hat = factor_hat.log_density(values - prior_mean(pts, theta_hat))
        log_a = (lp_hat - lp_cur + log_density_hat - self.sampler.log_density()
                 + base_ratio)
        if math.log(rng.uniform()) < log_a:
            # the current values under the proposed kernel, as the
            # realisation the chain adopts
            self.psi = psi_hat
            self.sampler = ConditionalSampler(theta_hat, pts, values, factor=factor_hat)
            return True
        return False


def init_history(data: np.ndarray, theta: GpHyper, psi: BaseHyper,
                 rng: np.random.Generator) -> HistoryChain:
    """Initial state: no latent rejections, function drawn from the prior."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    g = ConditionalSampler(theta).draw_append_block(data, rng.standard_normal(len(data)))
    return HistoryChain(data, g, theta, psi)


def sweep_moves(chain: HistoryChain, opts: ChainOptions, priors: HyperPrior | None,
                rng: np.random.Generator, corrupt_insert: bool = False) -> list[Move]:
    """One iteration's moves, set by ``opts``, in order: ``number``
    ``opts.number_moves`` times, ``loc`` (its attempts are the rejections),
    ``func`` unless the GP is degenerate (which no move changes; its
    attempts are the angles tried, and it accepts once), and ``hyper`` when
    inferring hypers under given ``priors``.  Each calls its
    :class:`HistoryChain` method through the chain when it runs.
    ``corrupt_insert``, a testing hook, mis-computes the insert ratio."""
    moves = [("number", lambda: (1, chain.step_number(
        opts.zeta_insert, rng, corrupt_insert=corrupt_insert)))] * opts.number_moves
    moves.append(("loc", lambda: (chain.n_rejections, chain.step_locations(rng))
                  if chain.n_rejections else (0, 0)))
    if not chain.sampler.degenerate:
        moves.append(("func", lambda: (chain.step_function_hmc(rng), 1)))
    if opts.infer_hypers and priors is not None:
        moves.append(("hyper", lambda: (1, chain.step_hyper(
            opts.hyper_walk_scale, priors, rng))))
    return moves


def sweep(chain: HistoryChain, opts: ChainOptions, priors: HyperPrior | None,
          rng: np.random.Generator, corrupt_insert: bool = False) -> None:
    """One iteration in place: one pass over :func:`sweep_moves`, counted
    into ``chain.diagnostics``."""
    from .chain import run_moves  # gpds.chain imports this module

    run_moves(sweep_moves(chain, opts, priors, rng, corrupt_insert),
              chain.diagnostics)
