"""Chain drivers: run either sampler for a fixed budget and record traces.

A sampler is its state and a list of named moves, which one loop runs
every iteration, counting each move's attempts and acceptances by its name.
The loop owns what the moves deliberately do not: burn-in, thinned
recording, predictive sampling at retained steps, and the per-step
bookkeeping needed by the normalised-density estimator.  No move adapts
during burn-in: every move either has no setting or keeps the one it is
given.
"""
from __future__ import annotations

import math
import os
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .gp import GpHyper
from .generate import DEFAULT_MAX_PROPOSALS, ProposalBudgetError, continue_sampler
from .exchange import (
    exchange_step_control,
    exchange_step_hyper,
    exchange_step_prior,
    init_exchange_state,
)
from .history import HistoryChain, init_history, sweep_moves
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
    """Iteration budget and move settings for one chain."""

    total_iters: int
    burn_in: int
    thinning: int = 1
    max_proposals: int = DEFAULT_MAX_PROPOSALS
    # latent-history moves; the location move proposes each rejection from
    # the base density and the function move is an elliptical slice move,
    # so neither has a setting
    zeta_insert: float = 0.5
    number_moves: int = 1
    # exchange moves
    crankshaft_eps: float = 0.5
    extra_controls: int = 0
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
    def check(settings: dict) -> None:
        """Refuse settings a chain cannot run as asked.  ``settings`` maps
        each field checked here to its value; ``RunConfig.validate`` checks
        its keys of the same names by these rules."""
        def refuse(field, requirement):
            raise ValueError(f"{field} must be {requirement}, got {settings[field]}")

        # written so that NaN fails the tests too
        for field in ("total_iters", "burn_in", "number_moves", "extra_controls"):
            if not settings[field] >= 0:
                refuse(field, ">= 0")
        for field in ("thinning", "max_proposals"):
            if not settings[field] >= 1:
                refuse(field, ">= 1")
        if settings["total_iters"] and settings["burn_in"] >= settings["total_iters"]:
            refuse("burn_in", "smaller than total_iters")
        # a zero or non-finite scale would not fail the run: it freezes the
        # move, or makes every log prior nan so that the move always rejects
        if not (math.isfinite(settings["hyper_walk_scale"])
                and settings["hyper_walk_scale"] > 0):
            refuse("hyper_walk_scale", "finite and positive")
        if not 0.0 < settings["zeta_insert"] < 1.0:
            # at 1 no deletion is ever proposed, so no insertion is accepted
            refuse("zeta_insert", "in (0, 1)")
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
    wall_time: float


class WorkerDied(RuntimeError):
    """A worker process of :func:`pool_map` ended before returning."""


def usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the platform
    does not say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_map(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, run in a pool of ``workers`` processes
    when there are more than one of each.

    The pool forks where the platform can: a forked worker starts with the
    modules already imported, in about 10 ms, where ``spawn`` and
    ``forkserver`` import numpy, scipy and gpds again in each, about 0.5 s.
    A fork copies only the calling thread, and the CLI starts no other.
    Tasks go out one at a time, so that a worker that finishes early takes
    the next.  A task that raises raises here, and the tasks not yet
    started are cancelled; a worker that dies raises :class:`WorkerDied`.
    """
    if workers <= 1 or len(tasks) <= 1:
        return list(map(fn, tasks))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context(method))
    try:
        return list(pool.map(fn, tasks))
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a worker process died: {exc} (workers = 1 runs "
                         f"every chain in this process)") from exc
    finally:
        pool.shutdown(cancel_futures=True)


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
    """Draw one predictive sample by growing the state's sampler and, when
    a query grid is registered, jointly evaluate the function there from
    the grown sampler.  The sampler is truncated back to its rows on the
    way out, which leaves it as it was: the factor's leading rows do not
    depend on the rows after them."""
    n = len(sampler)
    try:
        trace = continue_sampler(sampler, 1, psi, rng,
                                 max_proposals=opts.max_proposals)
        x_pred = trace.accepted[0]
        g_pred = float(trace.accepted_values[0])
        draw = None
        if opts.numerator_query is not None:
            # the run's T proposals are the grown sampler's last T rows
            t = trace.proposal_count
            phi_sum = float(np.sum(phi(sampler.values[-t:])))
            g_query = sampler.draw_batch(opts.numerator_query, rng)
            draw = PosteriorDraw(psi=psi, g_pred=g_pred, g_query=g_query,
                                 proposal_count=t, phi_sum=phi_sum)
    except ProposalBudgetError:
        counters["budget_failures"] += 1
        return None, None
    finally:
        sampler.truncate(n)
    return x_pred, draw


def _tagged(it: int, points: np.ndarray) -> np.ndarray:
    """Rows ``[it, x1..xD]``, one per point."""
    points = np.atleast_2d(points)
    return np.column_stack([np.full(points.shape[0], float(it)), points])


# a named move: ``move()`` runs it once and returns (attempts, acceptances)
Move = tuple[str, Callable[[], tuple[int, int]]]


def run_moves(moves: list[Move], counters: Counter) -> None:
    """One pass over ``moves`` in order, adding each move's attempts and
    acceptances to ``counters`` as ``<name>_att`` and ``<name>_acc``.  A
    move that attempted nothing adds no key."""
    for name, move in moves:
        att, acc = move()
        if att:
            counters[name + "_att"] += att
            counters[name + "_acc"] += acc


class _Recorder:
    """The retained iterations of one chain run, recorded the same way for
    both samplers.  The state passed in is a :class:`HistoryChain` or an
    :class:`~gpds.exchange.ExchangeState`; both carry ``data``, ``theta``,
    ``psi``, ``sampler``, ``g_data`` and the move counters ``diagnostics``.

    The trace's columns are fixed here: ``iteration``, ``m`` (latent
    rejections, or the exchange sampler's size), the sorted counters
    ``<name>_acc`` and ``<name>_att`` of the sampler's moves (their counts
    in that iteration alone), ``log_density``, ``amplitude``, ``ls1..D``
    and, for a Gaussian base, ``base_mean1..D`` and ``base_sigma1..D``.
    Each retained iteration appends one row."""

    def __init__(self, opts: ChainOptions, state, move_names: list[str]):
        self.opts = opts
        self.gaussian_base = isinstance(state.psi, GaussianBase)
        self.accept_keys = sorted({f"{name}_{kind}" for name in move_names
                                   for kind in ("acc", "att")})
        dim = state.data.shape[1]
        axes = range(1, dim + 1)
        self.columns = ["iteration", "m", *self.accept_keys, "log_density",
                        "amplitude", *(f"ls{i}" for i in axes)]
        if self.gaussian_base:
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

    def add(self, it: int, state, before: Counter, rng: np.random.Generator,
            m: int, log_density: float, rejections: np.ndarray | None) -> None:
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

    def result(self, state) -> ChainResult:
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
            wall_time=time.perf_counter() - self.t_start,
        )


def _run(state, moves: list[Move], observe: Callable[[], tuple],
         opts: ChainOptions, rng: np.random.Generator) -> ChainResult:
    """The chain loop: run ``moves`` once per iteration, and after burn-in
    record every ``opts.thinning``-th one, with ``observe()``'s ``(m,
    log_density, rejections or None)``."""
    recorder = _Recorder(opts, state, [name for name, _ in moves])
    counters = state.diagnostics
    for it in range(opts.total_iters):
        before = Counter(counters)
        run_moves(moves, counters)
        if it >= opts.burn_in and (it - opts.burn_in) % opts.thinning == 0:
            recorder.add(it, state, before, rng, *observe())
    return recorder.result(state)


def run_history_chain(data: np.ndarray, theta0: GpHyper, psi0: BaseHyper,
                      opts: ChainOptions, priors: HyperPrior | None,
                      rng: np.random.Generator) -> ChainResult:
    """Latent-history MCMC over :func:`~gpds.history.sweep_moves`."""
    chain = init_history(data, theta0, psi0, rng)

    def observe():
        return (chain.n_rejections, _history_log_density(chain),
                chain.rejections if opts.record_rejections else None)

    return _run(chain, sweep_moves(chain, opts, priors, rng), observe, opts, rng)


def run_exchange_chain(data: np.ndarray, theta0: GpHyper, psi0: BaseHyper,
                       opts: ChainOptions, priors: HyperPrior | None,
                       rng: np.random.Generator) -> ChainResult:
    """Exchange-sampling MCMC: the moves ``func`` (a prior draw at
    crankshaft_eps = 1, else a crankshaft through the controls) and, when
    inferring under given priors, ``hyper``, each calling its
    ``exchange_step_*`` global when it runs."""
    state = init_exchange_state(data, theta0, psi0, rng,
                                n_extra_controls=opts.extra_controls)

    def func():
        if opts.crankshaft_eps == 1.0:
            return 1, exchange_step_prior(state, opts.max_proposals, rng=rng)[1]
        return 1, exchange_step_control(state, opts.crankshaft_eps,
                                        opts.max_proposals, rng=rng)[1]

    moves = [("func", func)]
    if opts.infer_hypers and priors is not None:
        moves.append(("hyper", lambda: (1, exchange_step_hyper(
            state, opts.hyper_walk_scale, priors, opts.max_proposals, rng=rng)[1])))
    return _run(state, moves,
                lambda: (len(state.sampler), float(np.sum(log_phi(state.g_data))), None),
                opts, rng)
