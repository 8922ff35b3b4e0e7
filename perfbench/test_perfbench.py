"""Tests for the benchmark's own helpers.

Run from the repository root:  python3 -m pytest perfbench -q
"""
import contextlib
import importlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from reference import Reference  # noqa: E402
from stats import ess_geyer, spread  # noqa: E402
from tracing import PATCHES, Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.1", 1.5, 2.0, 1),
        Span("a.2", 3.0, 3.5, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.1", 6.0, 7.0, 4),
        Span("b.2", 6.5, 8.0, 4),   # overlaps b.1: the union counts once
        Span("c", 9.5, 11.0, 0),    # runs past its parent: only 9.5-10 counts
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 2.0, 0.5, 0.5, 2.0,
                                               1.0, 1.5, 1.5])


def test_self_times_sum_to_root_duration():
    spans = [Span("root", 0.0, 5.0, -1), Span("x", 1.0, 2.0, 0), Span("y", 1.2, 1.8, 1)]
    assert sum(self_times(spans)) == pytest.approx(5.0)


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.8])
def test_ess_on_ar1_with_known_tau(phi):
    rng = np.random.default_rng(7)
    n = 200_000
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    tau = (1 + phi) / (1 - phi)
    assert ess_geyer(x) == pytest.approx(n / tau, rel=0.06)


def test_ess_of_constant_series_is_its_length():
    assert ess_geyer(np.ones(50)) == 50.0


def test_spread_is_interquartile_share_of_median():
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx((7.5 - 2.5) / 5)


def _patched_attributes():
    out = []
    for module, attr, *_ in PATCHES:
        owner = importlib.import_module(module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        out.append((owner, attr, getattr(owner, attr)))
    return out


def test_wrappers_restore_every_original_after_a_traced_run(tmp_path):
    from gpds.cli import main

    before = _patched_attributes()
    data = tmp_path / "data"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("total_iters = 12\nburn_in = 4\nthinning = 1\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-synthetic", "--name", "f1", "--n", "12", "--seed", "1",
                     "--out", str(data)]) == 0
        with Tracer() as tracer:
            replaced = [getattr(o, a) is not f for o, a, f in before]
            with tracer.span("cli"):
                assert main(["fit", "--config", str(cfg), "--data", str(data / "f1.csv"),
                             "--out", str(tmp_path / "fit"), "--seed", "3"]) == 0
    assert all(replaced)
    assert all(getattr(o, a) is f for o, a, f in before)
    names = {s.name for s in tracer.spans}
    assert {"cli", "chain.run", "history.locations", "gp.draw", "generate.probe",
            "io.write_csv"} <= names
    metrics = layer_metrics([tracer.spans])
    assert metrics["chain.run.self_s"] > 0 and metrics["history.hmc.calls"] == 12
    assert sum(self_times(tracer.spans)) <= tracer.spans[0].end - tracer.spans[0].start + 1e-9


def test_wrappers_restored_when_the_call_raises():
    from gpds import gp

    before = gp.chol
    with pytest.raises(ValueError):
        with Tracer():
            gp.chol(np.ones((2, 3)))
    assert gp.chol is before


def test_reference_unit_is_timed():
    ref = Reference(rows=64, cols=100)
    assert ref.passes >= 1
    assert 0.0 < ref.sample(0.0) < 10.0


def test_times_are_divided_by_the_reference_around_them():
    import run

    def rec(wall, ref, ok=True):
        return {"wall_s": wall, "ref_unit_s": ref, "ok": ok, "traced": False}

    rounds = [
        [rec(50.0, 1.0), rec(50.0, 1.0)],   # warm-up: not timed
        [rec(1.0, 0.5), rec(1.0, 0.5)],     # 2 s at unit 0.5 s: 4 units
        [rec(3.0, 2.0), rec(3.0, 2.0)],     # 6 s at unit 2 s: 3 units
        [rec(1.0, 1.0), rec(1.0, 1.0, ok=False)],  # a failed call drops the round
    ]
    workload = run.WORKLOADS["fit-mix"]
    setups = [{"wall_s": 1.0, "ref_unit_s": 0.5}, {"wall_s": 3.0, "ref_unit_s": 0.5},
              {"wall_s": 6.0, "ref_unit_s": 2.0}]     # 2, 6 and 3 units
    metrics = run.end_to_end(workload, rounds, setups)
    assert metrics["wall_norm_s"] == pytest.approx(3.5 * workload.nominal_unit_s)
    assert metrics["setup_s"] == pytest.approx(3.0 * workload.nominal_unit_s)
