#!/usr/bin/env python3
"""gpds benchmark: run one workload for a fixed time and print its metrics.

Run from the root of a gpds checkout:

    python3 perfbench/run.py --workload fit-mix --seed 1 --seconds 50 --trace 0

A workload is a round of CLI calls, each an in-process call of
``gpds.cli.main``.  Rounds repeat with seeds derived from ``--seed`` until
``--seconds`` is used up (the last round may run past it by up to half a
round).  The first round is a warm-up: it is checked but not timed, because
the first call in a process runs much slower than later ones.  Each call's
outputs are checked; a call that raises, exits non-zero or fails a check
counts as failed, and its round's timing is dropped.

``--trace 0`` prints the end-to-end metrics.  Between rounds it times a
fixed reference computation (``reference.py``), and ``wall_norm_s`` is a
round's wall time in units of it, so the shared host's speed swings cancel
out.  ``--trace 1`` alternates untraced and traced calls on the same seed
and prints the per-layer metrics from the spans of the traced calls, plus
the tracing overhead.  The last line of stdout is the result object; the
line before it records the environment.  Run records and spans are written
under ``.perfbench_runs/``.
"""
from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every set-up process: most
# matrices are at most a few hundred wide.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
sys.path[:0] = [str(SRC), str(HERE)]

from reference import Reference  # noqa: E402
from tracing import METRICS, Tracer, call_operations, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, from glibc's malloc.h
SETUP_REPEATS = 5
END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MiB"}
# After each set-up and each untraced round the reference runs for this
# share of its wall time (and at least two units)
REF_SHARE = 0.1


def pin_malloc() -> None:
    """Fix glibc's allocation thresholds at the highest values it raises them to.

    By default glibc starts with a 128 KiB mmap threshold and raises it
    (up to 32 MiB, with the trim threshold at twice that) whenever a large
    mmapped block is freed.  In one process the calls would then run at a
    speed set by whichever earlier call first freed a large array.  Fixing
    the thresholds makes every round allocate alike: arrays below 32 MiB
    come from the heap.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(M_MMAP_THRESHOLD, 32 * 2**20)
        libc.mallopt(M_TRIM_THRESHOLD, 64 * 2**20)
    except (OSError, AttributeError):
        pass  # not glibc


def call_seed(seed: int, index: int, position: int) -> int:
    """Seed of the call at ``position`` in round ``index`` of a run with
    workload seed ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index, position]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Set-up: import gpds, write the config, make the input data
# ---------------------------------------------------------------------------

def prepare(call, seed: int, directory: Path) -> tuple[Path, Path | None]:
    """Write one call's config and make its input data."""
    from gpds.cli import main as gpds_main

    directory.mkdir(parents=True, exist_ok=True)
    config = directory / "run.cfg"
    config.write_text(call.config)
    if not call.n_data:
        return config, None
    with contextlib.redirect_stdout(io.StringIO()):
        rc = gpds_main(["gen-synthetic", "--name", "f1", "--n", str(call.n_data),
                        "--seed", str(seed), "--out", str(directory / "data")])
    if rc != 0:
        raise RuntimeError(f"gen-synthetic exited with {rc}")
    return config, directory / "data" / "f1.csv"


def time_setup(workload, seed: int, run_dir: Path, reference) -> list[dict]:
    """Wall time from process start to ready, in fresh processes, each with
    the reference unit time around it."""
    setups = []
    ref_before = reference.sample(0.0)
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload.name, "--seed", str(seed),
                        "--setup-only", str(run_dir / f"setup{i}")],
                       check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        shutil.rmtree(run_dir / f"setup{i}", ignore_errors=True)
        ref_after = reference.sample(REF_SHARE * wall)
        setups.append({"wall_s": wall, "ref_unit_s": (ref_before + ref_after) / 2})
        ref_before = ref_after
    return setups


# ---------------------------------------------------------------------------
# One CLI call
# ---------------------------------------------------------------------------

def run_call(argv: list[str], traced: bool) -> dict:
    """Run one CLI call in this process; return its record."""
    from gpds.cli import main as gpds_main

    record: dict = {}
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    (tracer.span("cli") if tracer else contextlib.nullcontext()):
                record["rc"] = gpds_main(argv)
        except Exception as exc:
            # cli.main lets sampler errors (ProposalBudgetError,
            # IllConditionedCovariance) escape: record the call as failed,
            # never retry it.
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["traceback"] = traceback.format_exc()
        record["wall_s"] = time.perf_counter() - t0
    if tracer:
        record["spans"] = tracer.spans
    return record


def check_call(call, record: dict, out: Path) -> None:
    """Mark the record ok, or say why the call failed."""
    if "error" in record:
        record["failure"] = record["error"]
    elif record.get("rc") != 0:
        record["failure"] = f"exit code {record.get('rc')}"
    else:
        try:
            call.check(out)
        except CheckFailed as exc:
            record["failure"] = f"check: {exc}"
            record["check_failed"] = True
    record["ok"] = "failure" not in record
    if not record["ok"]:
        print(f"call failed: {record['failure']}", file=sys.stderr)


def same_outputs(a: Path, b: Path) -> bool:
    """True when two output directories hold byte-identical CSV files."""
    names = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    return names == sorted(p.relative_to(b) for p in b.rglob("*.csv")) and \
        all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads() -> dict:
    """Thread count reported by each bundled OpenBLAS (numpy's, scipy's)."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, reference, run_dir: Path) -> list:
    """Repeat rounds of the workload's calls until the time is used up.

    A round is a list with one record per call.  Without a ``reference``
    (a traced run) it holds an untraced/traced pair of calls on each seed.
    """
    rounds = []
    durations = []
    t_start = time.perf_counter()
    traced = reference is None
    kinds = ("plain", "traced") if traced else ("plain",)
    ref_before = reference.sample(0.0) if reference else None
    while True:
        t_round = time.perf_counter()
        index = len(rounds)
        records = []
        for position, call in enumerate(workload.calls):
            sub_seed = call_seed(seed, index, position)
            call_dir = run_dir / f"round{index}" / call.name
            config, data = prepare(call, sub_seed, call_dir)
            pair = {}
            # a pair alternates which call runs first, so order effects cancel
            for kind in kinds[::-1] if index % 2 else kinds:
                out = call_dir / kind
                record = run_call(call.argv(config, data, out, sub_seed), kind == "traced")
                record.update(call=call.name, seed=sub_seed, traced=kind == "traced",
                              warmup=index == 0)
                check_call(call, record, out)
                pair[kind] = record
            plain = pair["plain"]
            if traced:
                trace = pair["traced"]
                if plain["ok"] and trace["ok"] and not same_outputs(call_dir / "plain",
                                                                    call_dir / "traced"):
                    trace.update(ok=False, check_failed=True,
                                 failure="check: tracing changed the CSV outputs")
                    print("call failed: tracing changed the CSV outputs", file=sys.stderr)
                if plain["ok"] and call.ess:
                    plain["ess"] = call.ess(call_dir / "plain")
            records += [pair[kind] for kind in kinds]
        shutil.rmtree(run_dir / f"round{index}", ignore_errors=True)
        if reference:
            # the host's speed around the round: reference units just
            # before and just after it
            ref_after = reference.sample(REF_SHARE * sum(r["wall_s"] for r in records))
            for r in records:
                r["ref_unit_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
        rounds.append(records)
        durations.append(time.perf_counter() - t_round)
        # start another round while it is expected to end within half a
        # round of the deadline, so runs measure about --seconds on average
        elapsed = time.perf_counter() - t_start
        if len(rounds) > 1 and elapsed + statistics.median(durations[1:]) / 2 > seconds:
            return rounds


def round_wall(records, traced: bool) -> float | None:
    """Summed wall time of a round's untraced (or traced) calls, or None
    when any call of the round failed."""
    mine = [r for r in records if r["traced"] == traced]
    return sum(r["wall_s"] for r in mine) if all(r["ok"] for r in mine) else None


def end_to_end(workload, rounds, setups) -> dict:
    # times in reference units: the host's speed swings cancel out of
    # them, the program's own speed does not
    norm = [w / r[0]["ref_unit_s"] for r in rounds[1:]
            if (w := round_wall(r, False)) is not None]
    if not norm:
        return {}
    return {
        "setup_s": workload.nominal_unit_s * statistics.median(
            s["wall_s"] / s["ref_unit_s"] for s in setups),
        # a mean, not a median: over a handful of rounds it varied less
        # from run to run on fit-mix, the noisier workload
        "wall_norm_s": workload.nominal_unit_s * statistics.fmean(norm),
        # the whole run's peak: every call ran in this process
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds) -> tuple[dict, bool]:
    """Per-layer metrics, and whether every call's self times fit its wall.

    Failures are counted over every traced call, the warm-up included;
    everything else comes from the timed rounds in which every call passed.
    """
    attempted = failed = 0
    consistent = True
    for records in rounds:
        for trace in records:
            if not trace["traced"]:
                continue
            spans = trace.get("spans", [])
            ops, failures = call_operations(spans)
            attempted += ops
            failed += ops if "error" in trace or trace["rc"] != 0 else failures
            if trace["ok"] and sum(self_times(spans)) > trace["wall_s"]:
                consistent = False
    timed = [r for r in rounds[1:] if all(rec["ok"] for rec in r)]
    if not timed:
        return {}, consistent
    traced_spans = [rec["spans"] for r in timed for rec in r if rec["traced"]]
    metrics = layer_metrics(traced_spans, rounds=len(timed))
    ess = [rec["ess"] / rec["wall_s"] for r in timed for rec in r if "ess" in rec]
    metrics["chain.ess_per_s"] = statistics.median(ess) if ess else 0.0
    metrics["fail_rate"] = failed / attempted if attempted else 0.0
    plain = [round_wall(r, False) for r in timed]
    trace = [round_wall(r, True) for r in timed]
    metrics["trace.wall_s"] = statistics.median(trace)
    metrics["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain, trace))
    return metrics, consistent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, default=None,
                        help=argparse.SUPPRESS)  # one set-up, for timing
    args = parser.parse_args(argv)
    if not (SRC / "gpds" / "cli.py").is_file():
        print(f"error: {SRC / 'gpds'} not found; run from the root of a gpds checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    if args.setup_only is not None:
        for position, call in enumerate(workload.calls):
            prepare(call, call_seed(args.seed, 0, position), args.setup_only / call.name)
        return 0

    pin_malloc()
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = environment(workload.name, args.seed, args.trace)
    reference = None if args.trace else Reference(workload.ref_rows, workload.ref_cols)
    setups = time_setup(workload, args.seed, run_dir, reference) if reference else []
    rounds = measure(workload, args.seed, args.seconds, reference, run_dir)

    calls = [r for rnd in rounds for r in rnd]
    if args.trace:
        values, consistent = per_layer(rounds)
        units = {name: unit for name, (unit, _) in METRICS.items()}
    else:
        values, consistent = end_to_end(workload, rounds, setups), True
        units = END_TO_END
    correct = bool(values) and consistent and not any(r.get("check_failed") for r in calls)
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": sum(not r["ok"] for r in calls),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    spans = [r.pop("spans", []) for r in calls]
    record = {"environment": env, "setups": setups, "calls": calls,
              "result": result}
    (run_dir / "run.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for index, call_spans in enumerate(spans):
                for span in call_spans:
                    fh.write(json.dumps([index, *span.as_row()]) + "\n")
    if not values:
        print("error: no call of the workload succeeded", file=sys.stderr)
        return 1
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
