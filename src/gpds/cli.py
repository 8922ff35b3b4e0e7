"""Command-line front end.

Subcommands: gen-synthetic, sample-prior, fit, predict-density, geweke.
All outputs are plot-ready CSV files plus a meta.json that echoes the
configuration, the seed and a config hash, so runs are reproducible and
auditable.  No plotting happens here.

Only ``geweke`` imports :mod:`gpds.geweke`, inside :func:`cmd_geweke`:
that module imports ``scipy.stats`` for its two-sample KS test, and the
import costs every process about 0.6 s and 38 MiB, more than a small fit's
chain takes.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .chain import (
    ChainOptions,
    ChainResult,
    pool_map,
    run_exchange_chain,
    run_history_chain,
)
from .config import RunConfig, parse_config, parse_float_list, parse_grid_spec
from .generate import ProposalBudgetError, draw_prior_dataset
from .gp import GpHyper, IllConditionedCovariance
from .io_utils import read_data_csv, write_csv, write_json
from .model import (
    BaseHyper,
    GaussianBase,
    HyperPrior,
    UniformBox,
    base_logpdf,
    unnormalized_density,
)
from .predictive import DensityConfig, density_grid
from .synthetic import sample_f1, sample_f2


# ---------------------------------------------------------------------------
# Model construction from configuration
# ---------------------------------------------------------------------------

def build_psi(cfg: RunConfig, dim: int, data: np.ndarray | None) -> BaseHyper:
    if cfg.base == "uniform-box":
        lo = parse_float_list(cfg.box_lower, dim, "box_lower")
        hi = parse_float_list(cfg.box_upper, dim, "box_upper")
        return UniformBox(np.array(lo), np.array(hi))
    if cfg.base_mean_init == "auto":
        if data is None:
            raise ValueError("gaussian base with auto init requires data")
        mean = data.mean(axis=0)
    else:
        mean = np.array(parse_float_list(cfg.base_mean_init, dim, "base_mean_init"))
    if cfg.base_sigma_init == "auto":
        if data is None:
            raise ValueError("gaussian base with auto init requires data")
        sigma = data.std(axis=0)
        sigma = np.where(sigma > 0, sigma, 1.0)
    else:
        sigma = np.array(parse_float_list(cfg.base_sigma_init, dim, "base_sigma_init"))
    return GaussianBase(mean, sigma)


def build_theta(cfg: RunConfig, dim: int, psi: BaseHyper) -> GpHyper:
    ls = np.full(dim, cfg.lengthscale_init)
    pin = None
    if cfg.pin_enabled:
        if isinstance(psi, UniformBox):
            pin = 0.5 * (psi.lower + psi.upper)
        else:
            pin = psi.mean.copy()
    return GpHyper(amplitude=cfg.amplitude_init, lengthscales=ls,
                   pin_location=pin, mean=cfg.mean_const)


def build_priors(cfg: RunConfig, data: np.ndarray | None) -> HyperPrior:
    return HyperPrior.for_data(
        data if data is not None else np.zeros((1, 1)),
        gaussian_base=cfg.base == "gaussian",
        log_amplitude=(cfg.amp_log_prior_mu, cfg.amp_log_prior_sigma),
        log_lengthscale=(cfg.ls_log_prior_mu, cfg.ls_log_prior_sigma),
        isotropic=cfg.kernel == "isotropic",
        pin=cfg.pin_enabled,
    )


def build_chain_options(cfg: RunConfig, **overrides) -> ChainOptions:
    return ChainOptions(**{**cfg.chain_settings(), "record_rejections": True,
                           **overrides})


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _write_samples(path: Path, samples: np.ndarray) -> None:
    dim = samples.shape[1] if samples.ndim == 2 else 1
    header = [f"x{i + 1}" for i in range(dim)]
    write_csv(path, header, samples.reshape(-1, dim))


def _acceptance_summary(counters) -> dict:
    """Acceptance rate of every move that was attempted, plus the number of
    proposal-budget failures."""
    moves = [key.removesuffix("_att") for key, att in counters.items()
             if key.endswith("_att") and att]
    out = {move: counters.get(f"{move}_acc", 0) / counters[f"{move}_att"]
           for move in moves}
    out["budget_failures"] = counters.get("budget_failures", 0)
    return out


def _meta(cfg: RunConfig, command: str, extra: dict) -> dict:
    from dataclasses import asdict

    payload = {
        "command": command,
        "seed": cfg.seed,
        "config": asdict(cfg),
        "config_hash": cfg.hash(),
    }
    payload.update(extra)
    return payload


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_synthetic(cfg: RunConfig, name: str, n: int | None, out: Path) -> None:
    n = cfg.n_samples if n is None else n
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    rng = np.random.default_rng(cfg.seed)
    if name == "f1":
        samples = sample_f1(n, rng)
    elif name == "f2":
        samples = sample_f2(n, rng)
    else:
        raise ValueError(f"unknown synthetic dataset {name!r} (want f1 or f2)")
    out.mkdir(parents=True, exist_ok=True)
    _write_samples(out / f"{name}.csv", samples)
    write_json(out / "meta.json", _meta(cfg, "gen-synthetic",
                                        {"dataset": name, "n": n}))
    print(f"wrote {out / (name + '.csv')} ({n} rows)")


def _prior_grid(psi: BaseHyper, per_dim: int) -> np.ndarray:
    if isinstance(psi, UniformBox):
        axes = [np.linspace(lo, hi, per_dim) for lo, hi in zip(psi.lower, psi.upper)]
    else:
        axes = [np.linspace(m - 3 * s, m + 3 * s, per_dim)
                for m, s in zip(psi.mean, psi.sigma)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def cmd_sample_prior(cfg: RunConfig, out: Path, n: int | None = None) -> None:
    n = cfg.n_samples if n is None else n
    if cfg.base == "uniform-box":
        dim = len(cfg.box_lower.replace(",", " ").split())
    else:
        if cfg.base_mean_init == "auto":
            raise ValueError("sample-prior with a gaussian base needs explicit base_mean_init")
        dim = len(cfg.base_mean_init.replace(",", " ").split())
    psi = build_psi(cfg, dim, None)
    theta = build_theta(cfg, dim, psi)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    trace = draw_prior_dataset(n, theta, psi, rng, max_proposals=cfg.max_proposals)
    out.mkdir(parents=True, exist_ok=True)
    _write_samples(out / "samples.csv", trace.accepted)
    # unnormalised density grid through the realised function's conditional
    # mean, from the sampler the run grew (no refactorisation)
    grid = _prior_grid(psi, cfg.grid_count)
    mean = trace.sampler.mean(grid)
    dens = unnormalized_density(grid, mean, psi)
    header = [f"x{i + 1}" for i in range(dim)] + ["unnormalized_density"]
    write_csv(out / "density_grid.csv", header, np.column_stack([grid, dens]))
    write_json(out / "meta.json", _meta(cfg, "sample-prior", {
        "n": n,
        "proposals": int(trace.proposal_count),
        "wall_time_s": time.perf_counter() - t0,
    }))
    print(f"wrote {out / 'samples.csv'} ({n} accepted, "
          f"{trace.proposal_count} proposals)")


def _read_data(cfg: RunConfig, path: Path) -> tuple[np.ndarray, BaseHyper]:
    """The data file and the base density built for it.  Every datum must
    have positive base density, or its density under the model is zero."""
    data = read_data_csv(path)
    psi = build_psi(cfg, data.shape[1], data)
    outside = ~np.isfinite(base_logpdf(data, psi))
    if outside.any():
        raise ValueError(f"{path}: {int(outside.sum())} data point(s) outside the "
                         f"base density's support, first {data[outside][0].tolist()}")
    return data, psi


def _run_one_chain(args) -> ChainResult:
    data, cfg, seed = args
    rng = np.random.default_rng(seed)
    psi = build_psi(cfg, data.shape[1], data)
    theta = build_theta(cfg, data.shape[1], psi)
    priors = build_priors(cfg, data) if cfg.infer_hypers else None
    opts = build_chain_options(cfg)
    if cfg.sampler == "exchange":
        return run_exchange_chain(data, theta, psi, opts, priors, rng)
    return run_history_chain(data, theta, psi, opts, priors, rng)


def cmd_fit(cfg: RunConfig, data_path: Path, out: Path, chains: int = 1) -> None:
    if chains < 1:
        raise ValueError(f"--chains must be >= 1, got {chains}")
    data, _ = _read_data(cfg, data_path)
    dim = data.shape[1]
    seeds = np.random.SeedSequence(cfg.seed).spawn(chains)
    t0 = time.perf_counter()
    results = pool_map(_run_one_chain, [(data, cfg, seed) for seed in seeds],
                       cfg.workers)
    points = ["iteration"] + [f"x{i + 1}" for i in range(dim)]  # rejections, predictive
    summaries = {}
    for k, result in enumerate(results):
        chain_dir = out if chains == 1 else out / f"chain{k:02d}"
        chain_dir.mkdir(parents=True, exist_ok=True)
        write_csv(chain_dir / "trace.csv", result.trace_columns, result.trace)
        write_csv(chain_dir / "rejections.csv", points, result.rejections)
        write_csv(chain_dir / "predictive_samples.csv", points, result.predictive)
        summaries[f"chain{k:02d}"] = {
            "acceptance": _acceptance_summary(result.counters),
            "retained": int(result.trace.shape[0]),
            "final_amplitude": result.final_theta.amplitude,
            "hmc_step_size": result.hmc_step_size,
            "wall_time_s": result.wall_time,
        }
    write_json(out / "meta.json", _meta(cfg, "fit", {
        "data": str(data_path),
        "n_data": int(data.shape[0]),
        "chains": chains,
        "wall_time_s": time.perf_counter() - t0,
        "summary": summaries,
    }))
    print(f"fit complete: {out} ({chains} chain(s), "
          f"{time.perf_counter() - t0:.1f}s)")


def cmd_predict_density(cfg: RunConfig, data_path: Path, out: Path,
                        grid_spec: str | None = None) -> None:
    data, psi = _read_data(cfg, data_path)
    dim = data.shape[1]
    spec = parse_grid_spec(grid_spec if grid_spec is not None else cfg.grid)
    if len(spec) != dim:
        raise ValueError(f"grid spec has {len(spec)} dimensions, data has {dim}")
    axes = [np.linspace(lo, hi, n) for lo, hi, n in spec]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([m.ravel() for m in mesh])
    theta = build_theta(cfg, dim, psi)
    priors = build_priors(cfg, data) if cfg.infer_hypers else None
    dconf = DensityConfig(
        theta0=theta, psi0=psi, priors=priors, sampler=cfg.sampler,
        chain_options=build_chain_options(
            cfg, total=cfg.pred_burn_in + cfg.pred_retained * cfg.pred_thinning,
            burn_in=cfg.pred_burn_in, thinning=cfg.pred_thinning,
            record_predictive=False, record_rejections=False),
    )
    t0 = time.perf_counter()
    result = density_grid(grid, data, dconf, np.random.SeedSequence(cfg.seed))
    out.mkdir(parents=True, exist_ok=True)
    header = [f"x{i + 1}" for i in range(dim)]
    header += ["estimate", "stderr_numerator", "stderr_denominator"]
    write_csv(out / "density_grid.csv", header,
              np.column_stack([grid, result.ratio, result.numerator_se,
                               np.full(grid.shape[0], result.denominator_se)]))
    write_json(out / "meta.json", _meta(cfg, "predict-density", {
        "data": str(data_path),
        "grid_points": int(grid.shape[0]),
        "integral": result.integral,
        "probe_budget_failures": result.probe_budget_failures,
        "wall_time_s": time.perf_counter() - t0,
    }))
    print(f"wrote {out / 'density_grid.csv'} ({grid.shape[0]} points"
          + (f", integral {result.integral:.4f}" if result.integral is not None else "")
          + ")")


def cmd_geweke(cfg: RunConfig, out: Path) -> None:
    from .geweke import run_geweke_exchange, run_geweke_history

    if cfg.geweke_n_data > 5:
        raise ValueError("geweke harness supports at most 5 data points")
    psi = build_psi(cfg, 1, None)
    if not isinstance(psi, UniformBox):
        raise ValueError("geweke harness uses a 1-D uniform-box base")
    theta = build_theta(cfg, 1, psi)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    if cfg.sampler == "exchange":
        if cfg.geweke_corrupt:
            raise ValueError("the corruption hook only exists for the "
                             "latent-history sampler")
        report = run_geweke_exchange(theta, psi, n_data=cfg.geweke_n_data,
                                     n_samples=cfg.geweke_samples,
                                     thin=cfg.geweke_thin, rng=rng,
                                     crankshaft_eps=cfg.crankshaft_eps,
                                     max_proposals=cfg.max_proposals)
    else:
        report = run_geweke_history(theta, psi, n_data=cfg.geweke_n_data,
                                    n_samples=cfg.geweke_samples,
                                    thin=cfg.geweke_thin, rng=rng,
                                    corrupt_insert=cfg.geweke_corrupt,
                                    max_proposals=cfg.max_proposals)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "geweke_report.json", {
        "sampler": cfg.sampler,
        "n_samples": report.n_samples,
        "threshold": report.threshold,
        "statistics": report.statistics,
        "passed": report.passed,
        "corrupted": cfg.geweke_corrupt,
        "seed": cfg.seed,
        "config_hash": cfg.hash(),
        "wall_time_s": time.perf_counter() - t0,
    })
    for line in report.summary_lines():
        print(line)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpds",
        description="Gaussian process density sampler: generation, "
                    "inference and predictive density estimation.  Its "
                    "matrices are at most a few hundred rows wide, so it runs "
                    "fastest with BLAS on one thread: set "
                    "OPENBLAS_NUM_THREADS=1 (and OMP_NUM_THREADS=1, "
                    "MKL_NUM_THREADS=1) before starting it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="config file")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("gen-synthetic", help="write a synthetic benchmark dataset")
    common(p)
    p.add_argument("--name", choices=("f1", "f2"), required=True)
    p.add_argument("--n", type=int, default=None, help="number of draws")

    p = sub.add_parser("sample-prior", help="draw a dataset from the prior")
    common(p)
    p.add_argument("--n", type=int, default=None, help="number of accepted samples")

    p = sub.add_parser("fit", help="run MCMC inference on a dataset")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--chains", type=int, default=1)

    p = sub.add_parser("predict-density",
                       help="normalised predictive density on a grid, from one "
                            "chain (the workers key serves only fit --chains)")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--grid", type=str, default=None, help="min:max:count[;...]")

    p = sub.add_parser("geweke", help="forward vs successive-conditional check")
    common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.command == "gen-synthetic":
            cmd_gen_synthetic(cfg, args.name, args.n, args.out)
        elif args.command == "sample-prior":
            cmd_sample_prior(cfg, args.out, args.n)
        elif args.command == "fit":
            cmd_fit(cfg, args.data, args.out, args.chains)
        elif args.command == "predict-density":
            cmd_predict_density(cfg, args.data, args.out, args.grid)
        elif args.command == "geweke":
            cmd_geweke(cfg, args.out)
    except (ValueError, OSError, ProposalBudgetError, IllConditionedCovariance) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # last resort: the row cap of the rejection sampler should keep its
        # runs from getting here
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}; lower max_proposals "
              "in the config", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
