"""Run configuration: a flat key = value text format with typed defaults.

Every key has a default; unknown keys are an error so that typos fail fast
instead of silently running with defaults.  Lines starting with ``#`` and
blank lines are ignored.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .chain import ChainOptions, usable_cpus


@dataclass
class RunConfig:
    # sampler and budgets
    sampler: str = "latent-history"      # latent-history | exchange
    total_iters: int = 6000
    burn_in: int = 1000
    thinning: int = 10
    seed: int = 0
    max_proposals: int = 1_000_000
    # processes for fit --chains only: auto (one per usable CPU, at most
    # one per chain) or a count; 1 runs the chains in this process
    workers: str | int = "auto"
    # kernel
    kernel: str = "ard"                  # ard | isotropic
    amplitude_init: float = 1.0
    lengthscale_init: float = 1.0
    mean_const: float = 0.0
    pin_enabled: bool = False
    # base density
    base: str = "uniform-box"            # uniform-box | gaussian
    box_lower: str = "0"
    box_upper: str = "1"
    base_mean_init: str = "auto"
    base_sigma_init: str = "auto"
    # hyperparameter priors
    infer_hypers: bool = True
    amp_log_prior_mu: float = 1.0
    amp_log_prior_sigma: float = 0.5
    ls_log_prior_mu: float = 0.05
    ls_log_prior_sigma: float = 0.5
    # move settings
    zeta_insert: float = 0.5
    crankshaft_eps: float = 0.5
    number_moves: int = 1
    extra_controls: int = 0
    hyper_walk_scale: float = 0.1
    # outputs
    record_predictive: bool = True
    n_samples: int = 250
    grid_count: int = 50
    # predictive-density budgets
    pred_retained: int = 2000
    pred_burn_in: int = 500
    pred_thinning: int = 1
    grid: str = "0:1:21"
    # correctness harness
    geweke_n_data: int = 3
    geweke_samples: int = 5000
    geweke_thin: int = 5
    geweke_corrupt: bool = False

    def validate(self) -> None:
        if self.sampler not in ("latent-history", "exchange"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.kernel not in ("ard", "isotropic"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.base not in ("uniform-box", "gaussian"):
            raise ValueError(f"unknown base {self.base!r}")
        # the iteration counts and move settings, by the rules of the chain
        # options of the same names that they become
        ChainOptions.check(vars(self))
        for name in ("amplitude_init", "lengthscale_init",
                     "amp_log_prior_sigma", "ls_log_prior_sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("mean_const", "amp_log_prior_mu", "ls_log_prior_mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.workers != "auto" and _count(self.workers) < 1:
            raise ValueError(f"workers must be auto or an integer >= 1, "
                             f"got {self.workers!r}")
        for name in ("pred_retained", "pred_thinning", "grid_count", "geweke_thin"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.pred_burn_in < 0:
            raise ValueError(f"pred_burn_in must be >= 0, got {self.pred_burn_in}")

    def worker_count(self, chains: int) -> int:
        """Processes to run ``chains`` chains in: ``workers``, or one per
        usable CPU at ``auto``, and never more than one per chain."""
        cap = usable_cpus() if self.workers == "auto" else _count(self.workers)
        return min(cap, chains)

    def hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _count(value) -> int:
    """A count written as an integer or its text; 0 when it is neither."""
    try:
        return int(value)
    except ValueError:
        return 0


def _parse_value(raw: str, kind: type):
    raw = raw.strip()
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw


def parse_config(path: str | Path | None) -> RunConfig:
    """Load a config file; a missing path gives pure defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    actual = {f.name: type(getattr(cfg, f.name)) for f in fields(RunConfig)}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in actual:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            setattr(cfg, key, _parse_value(raw, actual[key]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    cfg.validate()
    return cfg


def parse_float_list(raw: str, dim: int, name: str) -> list[float]:
    """Parse a comma-separated float list, broadcasting a single value."""
    parts = [p for p in raw.replace(",", " ").split() if p]
    vals = [float(p) for p in parts]
    if len(vals) == 1:
        vals = vals * dim
    if len(vals) != dim:
        raise ValueError(f"{name}: expected 1 or {dim} values, got {len(vals)}")
    return vals


def parse_grid_spec(raw: str) -> list[tuple[float, float, int]]:
    """Parse 'min:max:count' specs separated by ';' (one per dimension)."""
    out = []
    for part in raw.split(";"):
        bits = part.strip().split(":")
        if len(bits) != 3:
            raise ValueError(f"bad grid spec {part!r}; expected min:max:count")
        lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"bad grid spec {part!r}: min and max must be finite")
        if n < 1 or hi <= lo:
            raise ValueError(f"bad grid spec {part!r}")
        out.append((lo, hi, n))
    return out
