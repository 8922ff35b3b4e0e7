"""The benchmark workloads: gpds CLI calls, their configs and checks.

A workload is a round of ``gpds.cli.main`` calls.  Each call has a config
file written by the benchmark, input data made by ``gen-synthetic`` (f1, on
the unit interval) and a seed derived from the workload seed.  ``check``
reads the call's output directory and raises :class:`CheckFailed` when an
output is missing, does not parse, or breaks an invariant of the model.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from stats import ess_geyer


class CheckFailed(Exception):
    """An output of a CLI call is missing, malformed or wrong."""


def read_table(path: Path, header: list[str] | None = None) -> tuple[list[str], np.ndarray]:
    """Parse a CSV written by the CLI, independently of gpds.io_utils."""
    try:
        with open(path, encoding="utf-8") as fh:
            names = fh.readline().strip().split(",")
            rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    if header is not None and names != header:
        raise CheckFailed(f"{path.name}: header {names}, expected {header}")
    if any(len(r) != len(names) for r in rows):
        raise CheckFailed(f"{path.name}: ragged rows")
    return names, np.asarray(rows, dtype=float).reshape(len(rows), len(names))


def read_meta(out: Path) -> dict:
    try:
        return json.loads((out / "meta.json").read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"meta.json: {exc}") from exc


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

PRIOR_N = 2100
GRID_COUNT = 50


def check_prior(out: Path) -> None:
    _, samples = read_table(out / "samples.csv", ["x1"])
    require(samples.shape[0] == PRIOR_N, f"{samples.shape[0]} samples, expected {PRIOR_N}")
    require(bool(np.all((samples >= 0.0) & (samples <= 1.0))), "sample outside the unit box")
    _, grid = read_table(out / "density_grid.csv", ["x1", "unnormalized_density"])
    require(grid.shape[0] == GRID_COUNT, "density grid size")
    require(bool(np.all(np.isfinite(grid)) and np.all(grid[:, 1] >= 0.0)), "bad density grid value")
    meta = read_meta(out)
    require(meta["n"] == PRIOR_N and meta["proposals"] >= PRIOR_N, "meta.json counts")


def check_fit(out: Path, retained: int, chains: int = 1) -> None:
    summary = read_meta(out)["summary"]
    require(len(summary) == chains, f"{len(summary)} chains in meta.json, expected {chains}")
    for k in range(chains):
        chain_dir = out if chains == 1 else out / f"chain{k:02d}"
        check_chain(chain_dir, retained)
        rates = {m: v for m, v in summary[f"chain{k:02d}"]["acceptance"].items()
                 if m != "budget_failures"}
        require(all(0.0 <= v <= 1.0 for v in rates.values()), f"acceptance rates {rates}")


def check_chain(out: Path, retained: int) -> None:
    names, trace = read_table(out / "trace.csv")
    for col in ("iteration", "m", "log_density", "amplitude", "ls1"):
        require(col in names, f"trace.csv lacks {col}")
    require(trace.shape[0] == retained, f"{trace.shape[0]} trace rows, expected {retained}")
    require(bool(np.all(np.isfinite(trace))), "non-finite trace value")
    col = {n: trace[:, i] for i, n in enumerate(names)}
    moves = [n[:-4] for n in names if n.endswith("_att")]
    require(bool(moves), "trace.csv has no acceptance columns")
    for move in moves:
        acc, att = col[move + "_acc"], col[move + "_att"]
        require(bool(np.all((acc >= 0) & (acc <= att))), f"{move}: accepted > attempted")
        if att.sum():
            require(0.0 <= acc.sum() / att.sum() <= 1.0, f"{move}: acceptance rate")
    read_table(out / "rejections.csv", ["iteration", "x1"])
    _, pred = read_table(out / "predictive_samples.csv", ["iteration", "x1"])
    require(bool(np.all((pred[:, 1] >= 0.0) & (pred[:, 1] <= 1.0))),
            "predictive sample outside the unit box")


# The 1-D trapezoid integral of the normalised estimate fell in
# [0.977, 1.021] over 20 seeds of this workload; the tolerance is several
# times that widest deviation, because the grid is coarse (5 points) and
# the chains are short.
INTEGRAL_TOL = 0.15


def check_density(out: Path) -> None:
    header = ["x1", "estimate", "stderr_numerator", "stderr_denominator"]
    _, grid = read_table(out / "density_grid.csv", header)
    est = grid[:, 1]
    require(bool(np.all(np.isfinite(est) & (est > 0.0))), "estimate not finite and positive")
    integral = float(np.trapezoid(est, grid[:, 0]))
    require(abs(integral - 1.0) <= INTEGRAL_TOL, f"integral {integral:.4f} not within "
            f"{INTEGRAL_TOL} of 1")
    meta = read_meta(out)
    require(math.isclose(meta["integral"], integral, rel_tol=1e-9), "meta.json integral")


def fit_ess(out: Path) -> float:
    """Minimum Geyer ESS over the traced scalars of trace.csv."""
    names, trace = read_table(out / "trace.csv")
    return min(ess_geyer(trace[:, names.index(c)])
               for c in ("log_density", "amplitude", "ls1", "m"))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Call:
    """One gpds CLI call of a workload."""
    name: str
    command: str                   # CLI subcommand
    config: str                    # config file text
    n_data: int                    # f1 points made by gen-synthetic; 0 for none
    extra_args: tuple[str, ...]
    check: Callable[[Path], None]
    ess: Callable[[Path], float] | None = None

    def argv(self, config: Path, data: Path | None, out: Path, seed: int) -> list[str]:
        argv = [self.command, "--config", str(config), "--out", str(out),
                "--seed", str(seed)]
        if data is not None:
            argv += ["--data", str(data)]
        return argv + list(self.extra_args)


@dataclass(frozen=True)
class Workload:
    """A round of CLI calls, repeated with fresh seeds for the whole run."""
    name: str
    calls: tuple[Call, ...]
    ref_rows: int          # the host-speed reference solves against a factor
    ref_cols: int          # of ref_rows rows in a buffer ref_cols wide
    nominal_unit_s: float  # the reference unit's median time on the baseline machine


HISTORY_TOTAL, HISTORY_BURN = 80, 30
EXCHANGE_TOTAL, EXCHANGE_BURN, EXCHANGE_CHAINS = 6, 3, 12

# Sizes were chosen so that one call's cost varies little between seeds;
# README.md gives the measurements behind each choice.
PRIOR = Call(
    name="prior",
    command="sample-prior",
    # mean 5 keeps the acceptance rate near 1, so R stays within a few
    # percent of n on every seed; n > 2048 puts R past the buffer step
    config=f"box_lower = 0\nbox_upper = 1\namplitude_init = 1\n"
           f"lengthscale_init = 0.2\nmean_const = 5\ngrid_count = {GRID_COUNT}\n",
    n_data=0,
    extra_args=("--n", str(PRIOR_N)),
    check=check_prior,
)
HISTORY = Call(
    name="history",
    command="fit",
    config=f"sampler = latent-history\ntotal_iters = {HISTORY_TOTAL}\n"
           f"burn_in = {HISTORY_BURN}\nthinning = 1\nnumber_moves = 3\n"
           f"infer_hypers = true\nrecord_predictive = true\n",
    n_data=200,
    extra_args=(),
    check=lambda out: check_fit(out, HISTORY_TOTAL - HISTORY_BURN),
    ess=fit_ess,
)
EXCHANGE = Call(
    name="exchange",
    command="fit",
    config=f"sampler = exchange\ncrankshaft_eps = 0.5\nmax_proposals = 300\n"
           f"total_iters = {EXCHANGE_TOTAL}\nburn_in = {EXCHANGE_BURN}\n"
           f"thinning = 1\ninfer_hypers = true\nrecord_predictive = true\n",
    n_data=50,
    extra_args=("--chains", str(EXCHANGE_CHAINS)),
    check=lambda out: check_fit(out, EXCHANGE_TOTAL - EXCHANGE_BURN, EXCHANGE_CHAINS),
)
PREDICT = Call(
    name="predict",
    command="predict-density",
    config="sampler = latent-history\npred_retained = 60\npred_burn_in = 30\n"
           "pred_thinning = 1\nworkers = 1\n",
    n_data=50,
    extra_args=("--grid", "0:1:5"),
    check=check_density,
)

WORKLOADS = {w.name: w for w in [
    # the append path alone, at large R
    Workload("prior-gen", (PRIOR,), ref_rows=2100, ref_cols=4096, nominal_unit_s=0.050),
    # the fits and the predictive estimator, at small R: one round sums three
    # calls, whose costs vary independently, so a round varies less than any
    # one of them
    Workload("fit-mix", (HISTORY, EXCHANGE, PREDICT), ref_rows=400, ref_cols=512,
             nominal_unit_s=0.034),
]}
