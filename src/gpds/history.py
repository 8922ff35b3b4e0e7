"""MCMC over the latent history of the generative rejection sampler.

The chain state is everything the sampler would have produced on its way
to the observed data: the function values at the data, plus the number,
locations and function values of the rejected proposals.  It lives in a
:class:`HistoryChain`, whose moves update one incrementally maintained
factor in place: insert or delete a single latent rejection (an insertion
is proposed with the fixed probability ``zeta_insert``, always when there
are no rejections), propose a new location for every rejection from the
base density, update all function values jointly with Hamiltonian dynamics
in the whitened space, and random-walk the hyperparameters at one step
scale.  :func:`sweep` runs one iteration of those moves with the tuning of
a :class:`~gpds.chain.ChainOptions`; :func:`init_history` draws a starting
state with no rejections.

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
from scipy.linalg.blas import dtpmv

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
    from .chain import ChainOptions

__all__ = [
    "HistoryChain",
    "init_history",
    "insert_log_accept",
    "delete_log_accept",
    "location_log_accept",
    "sweep",
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


def leapfrog(potential_grad, v0: np.ndarray, p0: np.ndarray,
             step_size: float, n_steps: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Standard leapfrog integration of H(v, p) = U(v) + |p|^2 / 2.

    ``potential_grad`` maps v to (U, dU/dv).  Returns the final position and
    momentum together with the energy error H_end - H_start; a non-finite
    potential along the trajectory yields an infinite energy error, which a
    Metropolis correction turns into a certain rejection.

    v and p are copies of ``v0`` and ``p0``, updated in place through one
    scratch vector, so the inputs are never written; ``potential_grad``
    must not keep the v it is given.
    """
    v = np.array(v0, dtype=float)
    p = np.array(p0, dtype=float)
    step_vec = np.empty_like(p)
    u0, grad = potential_grad(v)
    h0 = u0 + 0.5 * float(p @ p)
    p -= np.multiply(0.5 * step_size, grad, out=step_vec)
    u1 = np.inf
    for step in range(n_steps):
        v += np.multiply(step_size, p, out=step_vec)
        u1, grad = potential_grad(v)
        if not math.isfinite(u1):
            return v, p, np.inf
        if step < n_steps - 1:
            p -= np.multiply(step_size, grad, out=step_vec)
    p -= np.multiply(0.5 * step_size, grad, out=step_vec)
    h1 = u1 + 0.5 * float(p @ p)
    if not math.isfinite(h1):
        return v, p, np.inf
    return v, p, h1 - h0


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
    :func:`sweep`.
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

    # -- function move (HMC in whitened coordinates) ----------------------
    # Factor rows 0..N-1 are always the data (deletes and appends only ever
    # touch rejection rows), so the data/rejection split is a range check.
    def _potential_grad(self, v: np.ndarray):
        """U(v) = |v|^2 / 2 minus the log-likelihood of g = L v + m, and dU/dv.

        A datum's likelihood term is ``log phi(g)`` and a rejection's
        ``log phi(-g)``, so with the rejection rows of g negated (s) the
        terms are one ``log_phi`` pass, and their derivatives in s one
        ``phi(-s)`` pass, whose rejection rows are negated back for g.  The
        data's and the rejections' terms are summed apart, as two partial
        sums.
        """
        nd = self.n_data
        s = self.sampler.lower_dot(v)
        s += self.sampler.prior_mean_vec
        s[nd:] *= -1.0
        ll_terms = log_phi(s)
        ll = float(ll_terms[:nd].sum()) + float(ll_terms[nd:].sum())
        u_val = 0.5 * float(v @ v) - ll
        np.negative(s, out=s)
        c = phi(s)
        c[nd:] *= -1.0
        # L^T c written over the temporary c: the row-packed factor is BLAS
        # upper-packed L^T (see ConditionalSampler)
        c = dtpmv(len(c), self.sampler.packed, c, lower=0, trans=0, overwrite_x=1)
        return u_val, np.subtract(v, c, out=c)

    def step_function_hmc(self, step_size: float, n_leapfrog: int,
                          rng: np.random.Generator) -> bool:
        if step_size <= 0 or n_leapfrog < 1:
            raise ValueError("step_size must be > 0 and n_leapfrog >= 1")
        if self.sampler.degenerate or len(self.sampler) == 0:
            return True  # nothing to move
        v = self.sampler.whitened.copy()
        p = rng.standard_normal(v.shape[0])
        v1, _, delta_h = leapfrog(self._potential_grad, v, p, step_size, n_leapfrog)
        if not np.isfinite(delta_h):
            return False
        if math.log(rng.uniform()) < -delta_h:
            self.sampler.set_whitened(v1)
            return True
        return False

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


def sweep(chain: HistoryChain, opts: ChainOptions, priors: HyperPrior | None,
          rng: np.random.Generator, corrupt_insert: bool = False) -> None:
    """One full iteration in place, tuned by ``opts``: ``opts.number_moves``
    number moves at insert probability ``opts.zeta_insert``, one
    base-density proposal per rejection (:meth:`HistoryChain.step_locations`:
    one joint draw and one factor compaction for them all), HMC unless the
    GP is degenerate, and the hyperparameter walk at step
    ``opts.hyper_walk_scale`` when ``opts.infer_hypers`` is set and
    ``priors`` are given.

    ``corrupt_insert`` is a testing hook that deliberately mis-computes the
    insert ratio so validation harnesses can confirm they catch it.
    """
    c = chain.diagnostics
    for _ in range(opts.number_moves):
        acc = chain.step_number(opts.zeta_insert, rng, corrupt_insert=corrupt_insert)
        c["number_acc"] += acc
        c["number_att"] += 1
    if chain.n_rejections:
        c["loc_att"] += chain.n_rejections
        c["loc_acc"] += chain.step_locations(rng)
    if not chain.sampler.degenerate:
        acc = chain.step_function_hmc(opts.hmc_step_size, opts.hmc_leapfrog, rng)
        c["hmc_acc"] += acc
        c["hmc_att"] += 1
    if opts.infer_hypers and priors is not None:
        acc = chain.step_hyper(opts.hyper_walk_scale, priors, rng)
        c["hyper_acc"] += acc
        c["hyper_att"] += 1
