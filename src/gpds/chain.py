"""Chain drivers: run either sampler for a fixed budget and record traces.

These loops own the tuning that the individual step operations deliberately
do not: step-size adaptation during burn-in, thinned recording, predictive
sampling at retained steps, and the per-step bookkeeping needed by the
normalised-density estimator.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .gp import GpHyper
from .generate import DEFAULT_MAX_PROPOSALS, ProposalBudgetError, continue_sampler
from .exchange import (
    exchange_step_control,
    exchange_step_hyper,
    exchange_step_prior,
    init_exchange_state,
)
from .history import HistoryChain, init_history, sweep
from .model import (
    BaseHyper,
    GaussianBase,
    HyperPrior,
    base_logpdf,
    base_sample,
    log_one_minus_phi,
    log_phi,
    phi,
)


@dataclass
class ChainOptions:
    """Iteration budget and move tuning for one chain."""

    total: int
    burn_in: int
    thinning: int = 1
    max_proposals: int = DEFAULT_MAX_PROPOSALS
    # latent-history moves; the location move proposes each rejection from
    # the base density, so it has no setting
    zeta_insert: float = 0.5
    number_moves: int = 1
    hmc_step_size: float = 0.2
    hmc_leapfrog: int = 10
    hmc_target: float = 0.8
    # exchange moves
    crankshaft_eps: float = 0.5
    n_extra_controls: int = 0
    # hyperparameters
    infer_hypers: bool = True
    hyper_walk_scale: float = 0.1  # every coordinate of the random walk
    # recording
    record_predictive: bool = False
    record_rejections: bool = False
    numerator_query: np.ndarray | None = None
    denominator_point: int | None = None  # row of the augmented datum

    def __post_init__(self):
        self.check(vars(self))

    @staticmethod
    def check(settings: dict, names: dict[str, str] | None = None) -> None:
        """Refuse settings a chain cannot run as asked.  ``settings`` maps
        each field checked here to its value; in the messages a field goes
        by ``names[field]`` when given, so that ``RunConfig.validate``
        checks its keys by these rules under their own names."""
        def name(field):
            return names[field] if names else field

        def refuse(field, requirement):
            raise ValueError(f"{name(field)} must be {requirement}, got {settings[field]}")

        # written so that NaN fails the tests too
        for field in ("total", "burn_in", "number_moves", "n_extra_controls"):
            if not settings[field] >= 0:
                refuse(field, ">= 0")
        for field in ("thinning", "max_proposals", "hmc_leapfrog"):
            if not settings[field] >= 1:
                refuse(field, ">= 1")
        if settings["total"] and settings["burn_in"] >= settings["total"]:
            refuse("burn_in", f"smaller than {name('total')}")
        # a zero or non-finite scale would not fail the run: it freezes a
        # move, or makes every log prior nan so that the move always rejects
        for field in ("hmc_step_size", "hyper_walk_scale"):
            if not (math.isfinite(settings[field]) and settings[field] > 0):
                refuse(field, "finite and positive")
        if not 0.0 < settings["zeta_insert"] < 1.0:
            # at 1 no deletion is ever proposed, so no insertion is accepted
            refuse("zeta_insert", "in (0, 1)")
        if not 0.0 < settings["hmc_target"] < 1.0:
            refuse("hmc_target", "in (0, 1)")
        if not 0.0 < settings["crankshaft_eps"] <= 1.0:
            refuse("crankshaft_eps", "in (0, 1]")


@dataclass
class PosteriorDraw:
    """One retained posterior draw with everything the predictive density
    estimator needs: the base hyperparameters, the function value at the
    predictive sample x', jointly drawn function values at the query points
    (``ChainOptions.numerator_query``, in their order), and two sums over
    the probe's rejection run to x'.

    ``proposal_count`` is that run's T proposals; given the function g, T
    is geometric with mean 1 / Z(g, psi), Z = integral pi(x | psi)
    phi(g(x)) dx, so pi(x | psi) phi(g(x)) T has mean p(x | g, psi).
    ``phi_sum`` is S = sum over those T proposals x_j of phi(g(x_j)); by
    Wald's identity E[S | g] = E[T | g] Z = 1.  Both come from the one
    probe, so the two are strongly correlated."""

    psi: BaseHyper
    g_pred: float
    g_query: np.ndarray
    proposal_count: int
    phi_sum: float


@dataclass
class ChainResult:
    """The retained iterations of one chain run as the tables ``gpds fit``
    writes, plus what the estimators and the run summary need.

    ``trace`` has one row per retained iteration, its columns named by
    ``trace_columns``.  ``rejections`` (the latent rejections, when
    ``record_rejections``) and ``predictive`` (the predictive samples) have
    one row per point, laid out as ``[iteration, x1..xD]``.
    """

    trace_columns: list[str]
    trace: np.ndarray
    rejections: np.ndarray
    predictive: np.ndarray
    numerator_draws: list[PosteriorDraw]
    denominator_terms: np.ndarray | None
    counters: Counter
    final_theta: GpHyper
    final_psi: BaseHyper
    hmc_step_size: float | None  # None for exchange, which runs no HMC
    wall_time: float


def pool_map(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, run in a pool of ``workers`` processes
    when there are more than one of each."""
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return list(map(fn, tasks))


def _history_log_density(chain: HistoryChain) -> float:
    """History log joint from the maintained factor; O(R)."""
    s = chain.sampler
    vals = s.values
    out = float(np.sum(log_phi(vals[: chain.n_data])))
    out += float(np.sum(log_one_minus_phi(vals[chain.n_data :])))
    out += float(np.sum(base_logpdf(s.points, chain.psi)))
    if not s.degenerate:
        out += s.log_density()
    return out


def _predictive_probe(sampler, psi, opts, rng, counters):
    """Draw one predictive sample by growing a copy of the state's sampler
    and, when a query grid is registered, jointly evaluate the function
    there from the grown copy."""
    try:
        trace = continue_sampler(sampler.copy(), 1, psi, rng,
                                 max_proposals=opts.max_proposals)
    except ProposalBudgetError:
        counters["budget_failures"] += 1
        return None, None
    x_pred = trace.accepted[0]
    g_pred = float(trace.accepted_values[0])
    draw = None
    if opts.numerator_query is not None:
        # the run's T proposals are the grown copy's last T rows
        t = trace.proposal_count
        phi_sum = float(np.sum(phi(trace.sampler.values[-t:])))
        g_query = trace.sampler.draw_batch(opts.numerator_query, rng)
        draw = PosteriorDraw(psi=psi, g_pred=g_pred, g_query=g_query,
                             proposal_count=t, phi_sum=phi_sum)
    return x_pred, draw


def _tagged(it: int, points: np.ndarray) -> np.ndarray:
    """Rows ``[it, x1..xD]``, one per point."""
    points = np.atleast_2d(points)
    return np.column_stack([np.full(points.shape[0], float(it)), points])


class _Recorder:
    """The retained iterations of one chain run, recorded the same way for
    both samplers.  The state passed in is a :class:`HistoryChain` or an
    :class:`~gpds.exchange.ExchangeState`; both carry ``theta``, ``psi``,
    ``sampler``, ``g_data`` and the move counters ``diagnostics``.

    The trace's columns are fixed here: ``iteration``, ``m`` (latent
    rejections, or the exchange sampler's size), the sorted move counters
    ``accept_keys`` (their counts in that iteration alone),
    ``log_density``, ``amplitude``, ``ls1..D`` and, for a Gaussian base,
    ``base_mean1..D`` and ``base_sigma1..D``.  Each retained iteration
    appends one row."""

    def __init__(self, opts: ChainOptions, dim: int, gaussian_base: bool,
                 accept_keys: tuple[str, ...]):
        self.opts = opts
        self.gaussian_base = gaussian_base
        self.accept_keys = sorted(accept_keys)
        axes = range(1, dim + 1)
        self.columns = ["iteration", "m", *self.accept_keys, "log_density",
                        "amplitude", *(f"ls{i}" for i in axes)]
        if gaussian_base:
            self.columns += [*(f"base_mean{i}" for i in axes),
                             *(f"base_sigma{i}" for i in axes)]
        self.t_start = time.perf_counter()
        self.trace: list[list[float]] = []
        # each list starts with an empty table, so it stacks to one
        # [iteration, x1..xD] table even when nothing is recorded
        self.rejections = [np.empty((0, dim + 1))]
        self.predictive = [np.empty((0, dim + 1))]
        self.numerator_draws: list[PosteriorDraw] = []
        self.denom_terms: list[float] = []

    def add(self, it: int, state, m: int, log_density: float,
            before: Counter, rng: np.random.Generator,
            rejections: np.ndarray | None = None) -> None:
        """Record iteration ``it``: the trace row with the acceptances since
        ``before`` and the ``rejections`` given, then the predictive probe
        and then the denominator term, drawing from ``rng`` in that order."""
        opts = self.opts
        counters = state.diagnostics
        row = [it, m, *(counters[k] - before[k] for k in self.accept_keys),
               log_density, state.theta.amplitude, *state.theta.lengthscales]
        if self.gaussian_base:
            row += [*state.psi.mean, *state.psi.sigma]
        self.trace.append(row)
        if rejections is not None:
            self.rejections.append(_tagged(it, rejections))
        if opts.record_predictive or opts.numerator_query is not None:
            x_pred, draw = _predictive_probe(state.sampler, state.psi, opts,
                                             rng, counters)
            if x_pred is not None:
                self.predictive.append(_tagged(it, x_pred))
            if draw is not None:
                self.numerator_draws.append(draw)
        if opts.denominator_point is not None:
            g_aug = float(state.g_data[opts.denominator_point])
            x_prime = base_sample(state.psi, rng.random(state.psi.dim))
            g_prime = state.sampler.draw(x_prime, rng.standard_normal())
            self.denom_terms.append(min(1.0, phi(g_prime) / phi(g_aug)))

    def result(self, state, hmc_step: float | None) -> ChainResult:
        return ChainResult(
            trace_columns=self.columns,
            trace=np.array(self.trace, dtype=float).reshape(-1, len(self.columns)),
            rejections=np.vstack(self.rejections),
            predictive=np.vstack(self.predictive),
            numerator_draws=self.numerator_draws,
            denominator_terms=(np.asarray(self.denom_terms)
                               if self.denom_terms else None),
            counters=state.diagnostics,
            final_theta=state.theta,
            final_psi=state.psi,
            hmc_step_size=hmc_step,
            wall_time=time.perf_counter() - self.t_start,
        )


def run_history_chain(data: np.ndarray, theta0: GpHyper, psi0: BaseHyper,
                      opts: ChainOptions, priors: HyperPrior | None,
                      rng: np.random.Generator) -> ChainResult:
    """Latent-history MCMC with burn-in HMC step-size adaptation."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    # a private copy: burn-in adapts its hmc_step_size, and the caller's
    # options may be shared with other chains
    opts = replace(opts)
    recorder = _Recorder(opts, data.shape[1], isinstance(psi0, GaussianBase),
                         ("number_acc", "number_att", "loc_acc", "loc_att",
                          "hmc_acc", "hmc_att", "hyper_acc", "hyper_att"))
    chain = init_history(data, theta0, psi0, rng)
    counters = chain.diagnostics

    for it in range(opts.total):
        before = Counter(counters)
        sweep(chain, opts, priors, rng)
        if it < opts.burn_in and counters["hmc_att"] > before["hmc_att"]:
            acc = counters["hmc_acc"] - before["hmc_acc"]
            opts.hmc_step_size *= math.exp(0.05 * (acc - opts.hmc_target))
        if it < opts.burn_in or (it - opts.burn_in) % opts.thinning:
            continue
        recorder.add(it, chain, chain.n_rejections, _history_log_density(chain),
                     before, rng,
                     chain.rejections if opts.record_rejections else None)

    return recorder.result(chain, opts.hmc_step_size)


def run_exchange_chain(data: np.ndarray, theta0: GpHyper, psi0: BaseHyper,
                       opts: ChainOptions, priors: HyperPrior | None,
                       rng: np.random.Generator) -> ChainResult:
    """Exchange-sampling MCMC: one function move (crankshaft through the
    control points, or a prior draw at crankshaft_eps = 1) per iteration,
    interleaved 1:1 with a hyperparameter move when enabled."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    recorder = _Recorder(opts, data.shape[1], isinstance(psi0, GaussianBase),
                         ("func_acc", "func_att", "hyper_acc", "hyper_att"))
    state = init_exchange_state(data, theta0, psi0, rng,
                                n_extra_controls=opts.n_extra_controls)

    for it in range(opts.total):
        before = Counter(state.diagnostics)
        if opts.crankshaft_eps == 1.0:
            state, _ = exchange_step_prior(state, opts.max_proposals, rng=rng)
        else:
            state, _ = exchange_step_control(state, opts.crankshaft_eps,
                                             opts.max_proposals, rng=rng)
        if opts.infer_hypers and priors is not None:
            state, _ = exchange_step_hyper(state, opts.hyper_walk_scale, priors,
                                           opts.max_proposals, rng=rng)
        if it < opts.burn_in or (it - opts.burn_in) % opts.thinning:
            continue
        recorder.add(it, state, len(state.sampler),
                     float(np.sum(log_phi(state.g_data))), before, rng)

    return recorder.result(state, None)
