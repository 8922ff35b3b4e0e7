"""Run-time span tracing of the gpds layers, from outside the package.

:class:`Tracer` replaces public functions and methods of the ``gpds``
modules with wrappers that record one span per call (name, start, end,
parent, and a few call facts such as the factor size R), and puts every
original back when the ``with`` block ends.  A function imported by name
into another module (``continue_sampler``, ``chol``, ...) is patched in each
importing module, so the span records which layer made the call.

Spans stay in memory; :func:`layer_metrics` turns the spans of traced CLI
calls into the per-layer metrics listed in ``METRICS``.
"""
from __future__ import annotations

import importlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# name -> (unit, better); the order is the order of BENCHMARK.json.
METRICS: dict[str, tuple[str, str]] = {}
GP_OPS = ("draw_append", "draw", "append", "delete", "draw_batch",
          "set_whitened", "copy", "chol", "kernel_matrix", "build")
for _op in GP_OPS:
    METRICS[f"gp.{_op}.calls"] = ("count", "lower")
    METRICS[f"gp.{_op}.self_s"] = ("s", "lower")
METRICS.update({
    "gp.draw_append.r_mean": ("rows", "lower"),
    "gp.delete.tail_mean": ("rows", "lower"),
    "gp.build.r_mean": ("rows", "lower"),
    "gp.r_max": ("rows", "lower"),
    "gp.chol.jitter_escalations": ("count", "lower"),
})
for _caller in ("prior", "fantasy", "probe"):
    METRICS[f"generate.{_caller}.calls"] = ("count", "lower")
    METRICS[f"generate.{_caller}.self_s"] = ("s", "lower")
    METRICS[f"generate.{_caller}.proposals"] = ("count", "lower")
    METRICS[f"generate.{_caller}.accept_ratio"] = ("ratio", "higher")
    METRICS[f"generate.{_caller}.budget_failures"] = ("count", "lower")
for _move in ("history.number", "history.locations", "history.hmc",
              "history.hyper", "exchange.func", "exchange.hyper"):
    METRICS[f"{_move}.calls"] = ("count", "lower")
    METRICS[f"{_move}.self_s"] = ("s", "lower")
    METRICS[f"{_move}.acc_ratio"] = ("ratio", "higher")
METRICS.update({
    "chain.run.self_s": ("s", "lower"),
    "chain.ess_per_s": ("1/s", "higher"),
    "predictive.numerator.self_s": ("s", "lower"),
    "predictive.denominator.calls": ("count", "lower"),
    "predictive.denominator.self_s": ("s", "lower"),
    "io.write_csv.calls": ("count", "lower"),
    "io.write_csv.self_s": ("s", "lower"),
    "io.write_csv.bytes": ("bytes", "lower"),
    "io.write_json.self_s": ("s", "lower"),
    "model.base_logpdf.calls": ("count", "lower"),
    "model.base_logpdf.self_s": ("s", "lower"),
    "model.base_sample.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "fail_rate": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})

# Operations counted by fail_rate: prior draws, exchange function and hyper
# moves, and predictive probes.  A fantasy budget failure is the failure of
# the exchange move that asked for it.
FAIL_OPS = ("generate.prior", "exchange.func", "exchange.hyper", "generate.probe")
FAIL_EVENTS = ("generate.prior", "generate.fantasy", "generate.probe")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, end, parent, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.info = info

    def as_row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.info]


# ---------------------------------------------------------------------------
# Call facts recorded with a span: pre(args, kwargs) runs before the span
# starts (returning None there means "record no span"), post(pre_value,
# result) after it ends, fail(pre_value, exc) when the call raises.  None
# of them changes the call or consumes randomness.
# ---------------------------------------------------------------------------

def _rows(args, kwargs):
    return {"r": len(args[0])}


def _delete_rows(args, kwargs):
    row = args[1] if len(args) > 1 else kwargs["row"]
    return {"r": len(args[0]), "tail": len(args[0]) - row}


def _build_rows(args, kwargs):
    import numpy as np
    from gpds.gp import _as_points

    points = args[2] if len(args) > 2 else kwargs.get("points")
    n = _as_points(points).shape[0] if points is not None and np.size(points) else 0
    return {"r": n} if n else None  # an empty sampler factorises nothing


def _chol_pre(args, kwargs):
    import numpy as np
    from gpds import gp

    cov = np.asarray(args[0])
    base = args[1] if len(args) > 1 else kwargs.get("base_jitter", gp.BASE_JITTER)
    n = cov.shape[0]
    scale = float(np.mean(np.abs(np.diag(cov)))) if n else 0.0
    # same reference level as gpds.gp.chol: base jitter times the mean
    # diagonal magnitude (1 when that is zero)
    return {"r": n, "base": base * (scale if scale > 0 else 1.0)}


def _chol_post(pre, factor):
    pre["escalated"] = factor.jitter > pre.pop("base") * (1 + 1e-9)
    return pre


def _generate_post(pre, trace):
    return {"proposals": trace.proposal_count, "accepted": len(trace.accepted),
            "failed": False}


def _generate_fail(pre, exc):
    trace = getattr(exc, "trace", None)
    if trace is None:
        return {"proposals": 0, "accepted": 0, "failed": True}
    return {"proposals": trace.proposal_count, "accepted": len(trace.accepted),
            "failed": True}


def _bool_post(pre, result):
    return {"att": 1, "acc": int(bool(result))}


def _pair_post(pre, result):
    return {"att": 1, "acc": int(bool(result[1]))}


def _locations_pre(args, kwargs):
    return {"att": args[0].n_rejections}


def _locations_post(pre, result):
    pre["acc"] = int(result)
    return pre


def _bytes_post(pre, result):
    return {"bytes": os.path.getsize(pre["path"])}


def _path_pre(args, kwargs):
    return {"path": os.fspath(args[0] if args else kwargs["path"])}


# (module, attribute, span name, pre, post, fail).  An attribute "A.b" is
# method b of class A in that module.
PATCHES = [
    *[("gpds.gp", f"ConditionalSampler.{op}", f"gp.{op}",
       _delete_rows if op == "delete" else _rows, None, None)
      for op in ("draw_append", "draw", "append", "delete", "draw_batch",
                 "set_whitened", "copy")],
    ("gpds.gp", "ConditionalSampler.__init__", "gp.build", _build_rows, None, None),
    *[(mod, "chol", "gp.chol", _chol_pre, _chol_post, None)
      for mod in ("gpds.gp", "gpds.exchange", "gpds.history")],
    *[(mod, "kernel_matrix", "gp.kernel_matrix", None, None, None)
      for mod in ("gpds.gp", "gpds.exchange", "gpds.history")],
    ("gpds.generate", "continue_sampler", "generate.prior", None,
     _generate_post, _generate_fail),
    ("gpds.exchange", "continue_sampler", "generate.fantasy", None,
     _generate_post, _generate_fail),
    ("gpds.chain", "continue_sampler", "generate.probe", None,
     _generate_post, _generate_fail),
    ("gpds.history", "HistoryChain.step_number", "history.number", None,
     _bool_post, None),
    ("gpds.history", "HistoryChain.step_locations", "history.locations",
     _locations_pre, _locations_post, None),
    ("gpds.history", "HistoryChain.step_function_hmc", "history.hmc", None,
     _bool_post, None),
    ("gpds.history", "HistoryChain.step_hyper", "history.hyper", None,
     _bool_post, None),
    ("gpds.chain", "exchange_step_control", "exchange.func", None, _pair_post, None),
    ("gpds.chain", "exchange_step_prior", "exchange.func", None, _pair_post, None),
    ("gpds.chain", "exchange_step_hyper", "exchange.hyper", None, _pair_post, None),
    *[(mod, name, "chain.run", None, None, None)
      for mod in ("gpds.cli", "gpds.predictive")
      for name in ("run_history_chain", "run_exchange_chain")],
    ("gpds.predictive", "DensityConfig.run", "predictive.numerator", None, None, None),
    ("gpds.predictive", "estimate_denominator", "predictive.denominator",
     None, None, None),
    ("gpds.cli", "write_csv", "io.write_csv", _path_pre, _bytes_post, None),
    ("gpds.cli", "write_json", "io.write_json", None, None, None),
    *[(mod, "base_logpdf", "model.base_logpdf", None, None, None)
      for mod in ("gpds.model", "gpds.history", "gpds.exchange", "gpds.chain",
                  "gpds.predictive")],
    *[(mod, "base_sample", "model.base_sample", None, None, None)
      for mod in ("gpds.model", "gpds.generate", "gpds.history", "gpds.exchange",
                  "gpds.chain")],
]

# DensityConfig.run also drives each denominator chain; only the call made
# outside a denominator span is the numerator chain.
_SKIP_UNDER = {"predictive.numerator": "predictive.denominator"}


class Tracer:
    """Context manager that installs the span wrappers and restores the
    originals on exit.  ``spans`` holds every span recorded meanwhile."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name, pre, post, fail in PATCHES:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, pre, post, fail))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the caller's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, pre, post, fail):
        tracer = self
        skip_under = _SKIP_UNDER.get(name)

        def wrapper(*args, **kwargs):
            if skip_under and tracer._stack and \
                    tracer.spans[tracer._stack[-1]].name == skip_under:
                return fn(*args, **kwargs)
            info = None
            if pre:
                info = pre(args, kwargs)
                if info is None:
                    return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index)
                if fail and isinstance(exc, Exception):
                    tracer.spans[index].info = fail(info, exc)
                raise
            tracer._close(index)
            tracer.spans[index].info = post(info, result) if post else info
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(calls: list[list[Span]], rounds: int | None = None) -> dict[str, float]:
    """Per-layer metrics over the spans of several traced CLI calls.

    Counts, self times and bytes are means per round of the workload (one
    call of each of its commands; by default, per call); ratios and R means
    pool every span; ``gp.r_max`` is the largest R seen.  The run-level
    entries (``chain.ess_per_s``, ``fail_rate``, ``trace.*``) are filled in
    by the caller.
    """
    count = defaultdict(float)
    self_s = defaultdict(float)
    facts = defaultdict(float)
    r_max = 0
    for spans in calls:
        for span, own in zip(spans, self_times(spans)):
            count[span.name] += 1
            self_s[span.name] += own
            info = span.info or {}
            if "r" in info:
                r_max = max(r_max, info["r"])
                facts[span.name + ":r"] += info["r"]
            for key in ("tail", "att", "acc", "proposals", "accepted", "bytes"):
                if key in info:
                    facts[f"{span.name}:{key}"] += info[key]
            if info.get("escalated"):
                facts["gp.chol:escalated"] += 1
            if info.get("failed"):
                facts[span.name + ":failed"] += 1
    n_rounds = max(len(calls) if rounds is None else rounds, 1)

    def per_call(x):
        return x / n_rounds

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for op in GP_OPS:
        out[f"gp.{op}.calls"] = per_call(count[f"gp.{op}"])
        out[f"gp.{op}.self_s"] = per_call(self_s[f"gp.{op}"])
    out["gp.draw_append.r_mean"] = ratio(facts["gp.draw_append:r"], count["gp.draw_append"])
    out["gp.delete.tail_mean"] = ratio(facts["gp.delete:tail"], count["gp.delete"])
    out["gp.build.r_mean"] = ratio(facts["gp.build:r"], count["gp.build"])
    out["gp.r_max"] = float(r_max)
    out["gp.chol.jitter_escalations"] = per_call(facts["gp.chol:escalated"])
    for caller in ("prior", "fantasy", "probe"):
        name = f"generate.{caller}"
        out[f"{name}.calls"] = per_call(count[name])
        out[f"{name}.self_s"] = per_call(self_s[name])
        out[f"{name}.proposals"] = per_call(facts[name + ":proposals"])
        out[f"{name}.accept_ratio"] = ratio(facts[name + ":accepted"],
                                            facts[name + ":proposals"])
        out[f"{name}.budget_failures"] = per_call(facts[name + ":failed"])
    for name in ("history.number", "history.locations", "history.hmc",
                 "history.hyper", "exchange.func", "exchange.hyper"):
        out[f"{name}.calls"] = per_call(count[name])
        out[f"{name}.self_s"] = per_call(self_s[name])
        out[f"{name}.acc_ratio"] = ratio(facts[name + ":acc"], facts[name + ":att"])
    out["chain.run.self_s"] = per_call(self_s["chain.run"])
    out["predictive.numerator.self_s"] = per_call(self_s["predictive.numerator"])
    out["predictive.denominator.calls"] = per_call(count["predictive.denominator"])
    out["predictive.denominator.self_s"] = per_call(self_s["predictive.denominator"])
    out["io.write_csv.calls"] = per_call(count["io.write_csv"])
    out["io.write_csv.self_s"] = per_call(self_s["io.write_csv"])
    out["io.write_csv.bytes"] = per_call(facts["io.write_csv:bytes"])
    out["io.write_json.self_s"] = per_call(self_s["io.write_json"])
    out["model.base_logpdf.calls"] = per_call(count["model.base_logpdf"])
    out["model.base_logpdf.self_s"] = per_call(self_s["model.base_logpdf"])
    out["model.base_sample.calls"] = per_call(count["model.base_sample"])
    out["cli.self_s"] = per_call(self_s["cli"])
    return out


def call_operations(spans: list[Span]) -> tuple[int, int]:
    """(operations attempted, operations budget-failed) in one CLI call."""
    attempted = sum(1 for s in spans if s.name in FAIL_OPS)
    failed = sum(1 for s in spans
                 if s.name in FAIL_EVENTS and (s.info or {}).get("failed"))
    return attempted, failed
