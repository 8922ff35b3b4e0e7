"""End-to-end CLI runs on small budgets."""
import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import gpds.chain
from gpds import cli, generate
from gpds.chain import (ChainOptions, run_exchange_chain, run_history_chain,
                        usable_cpus)
from gpds.cli import main
from gpds.gp import GpHyper, IllConditionedCovariance
from gpds.io_utils import read_csv, read_data_csv
from gpds.model import GaussianBase, HyperPrior, UniformBox


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestGenSynthetic:
    def test_f1_written_and_readable(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["gen-synthetic", "--name", "f1", "--n", "40",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        data = read_data_csv(out / "f1.csv")
        assert data.shape == (40, 1)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 3

    def test_f2_is_two_dimensional(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gen-synthetic", "--name", "f2", "--n", "25",
                     "--seed", "0", "--out", str(out)]) == 0
        assert read_data_csv(out / "f2.csv").shape == (25, 2)

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_count_below_one_is_error(self, tmp_path, capsys, n):
        out = tmp_path / "out"
        assert main(["gen-synthetic", "--name", "f1", "--n", n,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --n must be >= 1, got {n}\n"
        assert not out.exists()


class TestFit:
    def fit_args(self, tmp_path, cfg_text, seed="5"):
        cfg = write_cfg(tmp_path, cfg_text)
        data_dir = tmp_path / "data"
        main(["gen-synthetic", "--name", "f1", "--n", "12",
              "--seed", "1", "--out", str(data_dir)])
        out = tmp_path / "fit"
        return ["fit", "--config", str(cfg), "--data", str(data_dir / "f1.csv"),
                "--out", str(out), "--seed", seed], out

    def test_small_fit_outputs(self, tmp_path):
        args, out = self.fit_args(
            tmp_path, "total_iters = 60\nburn_in = 20\nthinning = 2\n")
        assert main(args) == 0
        names, trace = read_csv(out / "trace.csv")
        assert trace.shape[0] == 20
        assert "m" in names and "amplitude" in names and "log_density" in names
        meta = json.loads((out / "meta.json").read_text())
        assert meta["summary"]["chain00"]["retained"] == 20
        assert (out / "rejections.csv").exists()
        assert (out / "predictive_samples.csv").exists()

    def test_identical_seed_and_config_identical_trace(self, tmp_path):
        cfg_text = "total_iters = 50\nburn_in = 10\nthinning = 1\n"
        args1, out1 = self.fit_args(tmp_path, cfg_text)
        main(args1)
        first = (out1 / "trace.csv").read_bytes()
        (out1 / "trace.csv").unlink()
        main(args1)
        assert (out1 / "trace.csv").read_bytes() == first

    def test_zero_iterations_empty_trace_valid_meta(self, tmp_path):
        args, out = self.fit_args(
            tmp_path, "total_iters = 0\nburn_in = 0\nrecord_predictive = false\n")
        assert main(args) == 0
        _, trace = read_csv(out / "trace.csv")
        assert trace.shape[0] == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config_hash"]

    def test_zero_iterations_header_has_counter_columns(self, tmp_path):
        # a run with no retained iteration writes the header of any other run
        args, out = self.fit_args(tmp_path, "total_iters = 0\nburn_in = 0\n")
        assert main(args) == 0
        names, _ = read_csv(out / "trace.csv")
        assert names == ["iteration", "m", "func_acc", "func_att", "hyper_acc",
                         "hyper_att", "loc_acc", "loc_att", "number_acc",
                         "number_att", "log_density", "amplitude", "ls1"]

    @pytest.mark.parametrize("sampler, infer, moves", [
        ("latent-history", "true", {"number", "loc", "func", "hyper"}),
        ("latent-history", "false", {"number", "loc", "func"}),
        ("exchange", "true", {"func", "hyper"}),
        ("exchange", "false", {"func"}),
    ])
    def test_acceptance_lists_the_attempted_moves(self, tmp_path, sampler,
                                                  infer, moves):
        args, out = self.fit_args(
            tmp_path, f"sampler = {sampler}\ninfer_hypers = {infer}\n"
                      "total_iters = 8\nburn_in = 2\nthinning = 1\n")
        assert main(args) == 0
        acceptance = json.loads((out / "meta.json").read_text())["summary"][
            "chain00"]["acceptance"]
        assert set(acceptance) == moves | {"budget_failures"}
        assert all(0.0 <= acceptance[move] <= 1.0 for move in moves)

    def test_exchange_sampler_fit(self, tmp_path):
        args, out = self.fit_args(
            tmp_path,
            "sampler = exchange\ntotal_iters = 40\nburn_in = 10\nthinning = 2\n")
        assert main(args) == 0
        names, trace = read_csv(out / "trace.csv")
        assert "func_acc" in names

    @pytest.mark.parametrize("sampler", ["latent-history", "exchange"])
    def test_hmc_keys_are_unknown(self, tmp_path, capsys, sampler):
        # the function move has no settings: a config that still sets the
        # Hamiltonian move's is refused by name, not run without them, and
        # no run reports a step size
        args, out = self.fit_args(
            tmp_path, f"sampler = {sampler}\ntotal_iters = 6\nburn_in = 2\n")
        assert main(args) == 0
        assert "hmc_step_size" not in (out / "meta.json").read_text()
        cfg = write_cfg(tmp_path, f"sampler = {sampler}\nhmc_steps = 10\n", "old.cfg")
        refused = tmp_path / "refused"
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--data",
                     str(tmp_path / "data" / "f1.csv"), "--out", str(refused)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("unknown config key 'hmc_steps'\n")
        assert not refused.exists()

    def test_multi_chain_layout(self, tmp_path):
        args, out = self.fit_args(
            tmp_path, "total_iters = 30\nburn_in = 10\nthinning = 2\n")
        assert main(args + ["--chains", "2"]) == 0
        assert (out / "chain00" / "trace.csv").exists()
        assert (out / "chain01" / "trace.csv").exists()
        a = read_csv(out / "chain00" / "trace.csv")[1]
        b = read_csv(out / "chain01" / "trace.csv")[1]
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("chains", ["0", "-1"])
    def test_chain_count_below_one_is_error(self, tmp_path, capsys, chains):
        args, out = self.fit_args(tmp_path, "total_iters = 6\nburn_in = 2\n")
        capsys.readouterr()
        assert main(args + ["--chains", chains]) == 2
        assert capsys.readouterr().err == f"error: --chains must be >= 1, got {chains}\n"
        assert not out.exists()

    def test_gaussian_base_fit(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "base = gaussian\nkernel = isotropic\n"
                        "total_iters = 40\nburn_in = 10\nthinning = 2\n")
        data_dir = tmp_path / "data"
        main(["gen-synthetic", "--name", "f2", "--n", "15",
              "--seed", "1", "--out", str(data_dir)])
        out = tmp_path / "fit2"
        assert main(["fit", "--config", str(cfg), "--data",
                     str(data_dir / "f2.csv"), "--out", str(out),
                     "--seed", "2"]) == 0
        names, _ = read_csv(out / "trace.csv")
        assert "base_mean1" in names and "base_sigma2" in names


FORK = "fork" in multiprocessing.get_all_start_methods()


class TestWorkers:
    """``fit --chains`` runs its chains in one process per usable CPU by
    default; every output but the wall times is that of a serial run."""

    fit_args = TestFit.fit_args
    SMALL = "total_iters = 20\nburn_in = 5\nthinning = 2\n"

    @staticmethod
    def summaries_without_wall_times(meta: dict) -> dict:
        return {chain: {k: v for k, v in summary.items() if k != "wall_time_s"}
                for chain, summary in meta["summary"].items()}

    @pytest.mark.parametrize("sampler", ["latent-history", "exchange"])
    def test_default_matches_one_process_byte_for_byte(self, tmp_path, sampler):
        runs = {}
        for workers in ("auto", "1"):
            (tmp_path / workers).mkdir()
            args, out = self.fit_args(
                tmp_path / workers,
                f"sampler = {sampler}\n{self.SMALL}workers = {workers}\n")
            assert main(args + ["--chains", "3"]) == 0
            meta = json.loads((out / "meta.json").read_text())
            tables = {path.relative_to(out): path.read_bytes()
                      for path in sorted(out.glob("chain*/*.csv"))}
            runs[workers] = meta, tables
        (meta, tables), (serial_meta, serial_tables) = runs["auto"], runs["1"]
        assert len(tables) == 9 and tables == serial_tables
        assert (self.summaries_without_wall_times(meta)
                == self.summaries_without_wall_times(serial_meta))
        assert meta["processes"] == min(3, usable_cpus())
        assert serial_meta["processes"] == 1

    def test_one_usable_cpu_starts_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        args, out = self.fit_args(tmp_path, self.SMALL)
        assert main(args + ["--chains", "2"]) == 0
        assert json.loads((out / "meta.json").read_text())["processes"] == 1

    @pytest.mark.skipif(not FORK, reason="a patched chain reaches the workers "
                                         "only through fork")
    @pytest.mark.parametrize("exc", [
        ValueError("bad chain"),
        IllConditionedCovariance("factorisation failed at jitter cap"),
        generate.ProposalBudgetError("5 proposals and no acceptance", None),
    ], ids=lambda exc: type(exc).__name__)
    def test_chain_that_raises_in_a_worker_is_error(self, tmp_path, capsys,
                                                    monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        args, out = self.fit_args(tmp_path, f"sampler = exchange\n{self.SMALL}"
                                            "workers = 2\n")
        monkeypatch.setattr(cli, "run_exchange_chain", fail)
        capsys.readouterr()
        assert main(args + ["--chains", "2"]) == 2
        assert capsys.readouterr().err == f"error: {exc}\n"
        assert not out.exists()

    @pytest.mark.skipif(not FORK, reason="a patched chain reaches the workers "
                                         "only through fork")
    def test_worker_that_dies_is_error(self, tmp_path, capsys, monkeypatch):
        def die(*args, **kwargs):
            os._exit(1)

        args, out = self.fit_args(tmp_path, f"sampler = exchange\n{self.SMALL}"
                                            "workers = 2\n")
        monkeypatch.setattr(cli, "run_exchange_chain", die)
        capsys.readouterr()
        assert main(args + ["--chains", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died") and err.count("\n") == 1
        assert not out.exists()


class TestChainTables:
    """A chain run returns the tables ``fit`` writes: the trace with its
    column names, and the rejections and predictive samples as
    ``[iteration, x1..xD]`` rows."""

    @pytest.mark.parametrize("run, moves", [
        (run_history_chain, ["func", "hyper", "loc", "number"]),
        (run_exchange_chain, ["func", "hyper"]),
    ])
    def test_layout(self, run, moves):
        rng = np.random.default_rng(4)
        data = rng.normal(0.5, 0.2, (10, 2))
        psi = GaussianBase(data.mean(axis=0), data.std(axis=0))
        theta = GpHyper(amplitude=1.0, lengthscales=[1.0, 1.0])
        opts = ChainOptions(total_iters=11, burn_in=4, thinning=2,
                            record_predictive=True, record_rejections=True)
        result = run(data, theta, psi, opts,
                     HyperPrior.for_data(data, gaussian_base=True), rng)
        assert result.trace_columns == [
            "iteration", "m", *(f"{m}_{s}" for m in moves for s in ("acc", "att")),
            "log_density", "amplitude", "ls1", "ls2", "base_mean1", "base_mean2",
            "base_sigma1", "base_sigma2"]
        retained = [4, 6, 8, 10]
        assert result.trace.shape == (len(retained), len(result.trace_columns))
        assert result.trace[:, 0].tolist() == retained
        col = dict(zip(result.trace_columns, result.trace.T))
        # the last retained iteration is the last one run
        assert col["base_sigma2"][-1] == result.final_psi.sigma[1]
        assert col["amplitude"][-1] == result.final_theta.amplitude
        for table in (result.rejections, result.predictive):
            assert table.ndim == 2 and table.shape[1] == 3
            assert set(table[:, 0]) <= set(retained)
        # at most one predictive sample per retained iteration
        its = result.predictive[:, 0].tolist()
        assert its and len(its) == len(set(its))
        if run is run_history_chain:
            # every retained iteration's latent rejections, m of them
            counts = [int(np.sum(result.rejections[:, 0] == it)) for it in retained]
            assert counts == col["m"].astype(int).tolist()
        else:
            assert result.rejections.shape == (0, 3)


class TestMoveList:
    """The chain loop runs a sampler's list of named moves every
    iteration, and the trace's accept columns are those names."""

    @pytest.mark.parametrize("run, infer, names", [
        (run_history_chain, True, ["number", "number", "loc", "func", "hyper"]),
        (run_history_chain, False, ["number", "number", "loc", "func"]),
        (run_exchange_chain, True, ["func", "hyper"]),
        (run_exchange_chain, False, ["func"]),
    ])
    def test_accept_columns_are_the_move_names(self, monkeypatch, run, infer,
                                               names):
        seen = []
        run_moves = gpds.chain.run_moves

        def spy(moves, counters):
            seen.append([name for name, _ in moves])
            run_moves(moves, counters)

        monkeypatch.setattr(gpds.chain, "run_moves", spy)
        rng = np.random.default_rng(7)
        data = rng.uniform(0, 1, (5, 1))
        opts = ChainOptions(total_iters=6, burn_in=2, number_moves=2,
                            infer_hypers=infer)
        result = run(data, GpHyper(amplitude=1.0, lengthscales=[0.5]),
                     UniformBox.unit(1), opts, HyperPrior(), rng)
        assert seen == [names] * 6
        accept = [c for c in result.trace_columns if c.endswith(("_acc", "_att"))]
        assert accept == sorted(f"{name}_{kind}" for name in set(names)
                                for kind in ("acc", "att"))
        assert set(result.counters) - {"budget_failures"} <= set(accept)


class TestSamplePrior:
    def test_unit_box_run(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "amplitude_init = 1.0\nlengthscale_init = 0.3\n"
                        "grid_count = 20\n")
        out = tmp_path / "prior"
        assert main(["sample-prior", "--config", str(cfg), "--n", "30",
                     "--seed", "4", "--out", str(out)]) == 0
        samples = read_data_csv(out / "samples.csv")
        assert samples.shape == (30, 1)
        names, grid = read_csv(out / "density_grid.csv")
        assert names == ["x1", "unnormalized_density"]
        assert grid.shape == (20, 2)
        assert np.all(grid[:, 1] >= 0) and np.all(grid[:, 1] <= 1.0 + 1e-9)

    def test_two_dimensional_gaussian_base(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "base = gaussian\nbase_mean_init = 0, 0\n"
                        "base_sigma_init = 1, 1\nlengthscale_init = 1.0\n"
                        "grid_count = 8\n")
        out = tmp_path / "prior2"
        assert main(["sample-prior", "--config", str(cfg), "--n", "25",
                     "--seed", "4", "--out", str(out)]) == 0
        assert read_data_csv(out / "samples.csv").shape == (25, 2)
        _, grid = read_csv(out / "density_grid.csv")
        assert grid.shape == (64, 3)


class TestPredictDensity:
    def test_small_grid(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "amplitude_init = 0.8\nlengthscale_init = 0.4\n"
                        "pred_retained = 30\npred_burn_in = 10\n"
                        "total_iters = 20\nburn_in = 5\n")
        data_dir = tmp_path / "data"
        main(["gen-synthetic", "--name", "f1", "--n", "10",
              "--seed", "1", "--out", str(data_dir)])
        out = tmp_path / "pd"
        assert main(["predict-density", "--config", str(cfg),
                     "--data", str(data_dir / "f1.csv"), "--out", str(out),
                     "--seed", "6", "--grid", "0:1:5"]) == 0
        names, grid = read_csv(out / "density_grid.csv")
        assert names == ["x1", "estimate", "stderr_numerator", "stderr_denominator"]
        assert grid.shape == (5, 4)
        assert np.all(grid[:, 1] >= 0)
        meta = json.loads((out / "meta.json").read_text())
        assert "integral" in meta

    def test_one_point_grid_has_no_integral(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "pred_retained = 5\npred_burn_in = 2\n")
        data_dir = tmp_path / "data"
        main(["gen-synthetic", "--name", "f1", "--n", "5",
              "--seed", "1", "--out", str(data_dir)])
        out = tmp_path / "pd"
        capsys.readouterr()
        assert main(["predict-density", "--config", str(cfg),
                     "--data", str(data_dir / "f1.csv"), "--out", str(out),
                     "--seed", "6", "--grid", "0:1:1"]) == 0
        assert "integral" not in capsys.readouterr().out
        assert read_csv(out / "density_grid.csv")[1].shape == (1, 4)
        assert json.loads((out / "meta.json").read_text())["integral"] is None

    def predict(self, tmp_path, cfg_text, grid="0:1:3"):
        cfg = write_cfg(tmp_path, cfg_text)
        data_dir = tmp_path / "data"
        main(["gen-synthetic", "--name", "f1", "--n", "10",
              "--seed", "1", "--out", str(data_dir)])
        out = tmp_path / "pd"
        rc = main(["predict-density", "--config", str(cfg),
                   "--data", str(data_dir / "f1.csv"), "--out", str(out),
                   "--seed", "6", "--grid", grid])
        return rc, out

    def test_probe_budget_failures_in_meta(self, tmp_path):
        # a probe may make one proposal, so those whose first is rejected
        # fail and leave no draw
        rc, out = self.predict(tmp_path, "pred_retained = 30\npred_burn_in = 5\n"
                                         "max_proposals = 1\n")
        assert rc == 0
        failures = json.loads((out / "meta.json").read_text())["probe_budget_failures"]
        assert isinstance(failures, int) and 0 < failures < 30
        _, grid = read_csv(out / "density_grid.csv")
        assert np.all(np.isfinite(grid[:, 1]) & (grid[:, 1] > 0))

    def test_every_probe_failing_is_one_error_line(self, tmp_path, capsys):
        # phi(g) is about phi(-40) everywhere: no probe is ever accepted
        rc, out = self.predict(tmp_path, "pred_retained = 6\npred_burn_in = 2\n"
                                         "max_proposals = 3\nmean_const = -40\n"
                                         "amplitude_init = 0.1\ninfer_hypers = false\n")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: the chain recorded no draws (6 of 6 predictive "
                       "probes ran out of proposals)\n")
        assert not out.exists()

    def test_grid_dimension_mismatch_is_error(self, tmp_path):
        data_dir = tmp_path / "data"
        main(["gen-synthetic", "--name", "f2", "--n", "10",
              "--seed", "1", "--out", str(data_dir)])
        rc = main(["predict-density", "--data", str(data_dir / "f2.csv"),
                   "--out", str(tmp_path / "pd2"), "--seed", "0",
                   "--grid", "0:1:5"])
        assert rc == 2


class TestGeweke:
    def test_insufficient_samples_is_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "geweke_samples = 0\n")
        rc = main(["geweke", "--config", str(cfg), "--seed", "0",
                   "--out", str(tmp_path / "g")])
        assert rc == 2

    def run_report(self, tmp_path, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text + "amplitude_init = 1.2\n"
                        "lengthscale_init = 0.3\n")
        out = tmp_path / "g"
        assert main(["geweke", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 0
        report = json.loads((out / "geweke_report.json").read_text())
        assert isinstance(report["passed"], bool)
        flags = [res["pass"] for res in report["statistics"].values()]
        assert all(isinstance(f, bool) for f in flags)
        assert report["passed"] == all(flags)
        return report

    def test_small_run_writes_report(self, tmp_path):
        report = self.run_report(tmp_path, "geweke_samples = 120\ngeweke_thin = 2\n")
        assert set(report["statistics"]) == {"n_rejections", "mean_g_data", "data_mean"}

    def test_history_run_sweeps_with_the_config_move_settings(self, tmp_path,
                                                              monkeypatch):
        import gpds.geweke

        seen = []
        sweep = gpds.geweke.sweep

        def spy(chain, opts, *args, **kwargs):
            sweep(chain, opts, *args, **kwargs)
            seen.append((opts.number_moves, opts.zeta_insert, opts.max_proposals,
                         chain.diagnostics["number_att"]))

        monkeypatch.setattr(gpds.geweke, "sweep", spy)
        self.run_report(tmp_path, "number_moves = 3\nzeta_insert = 0.4\n"
                        "max_proposals = 5000\ngeweke_samples = 10\ngeweke_thin = 1\n")
        assert len(seen) == 10 and set(seen) == {(3, 0.4, 5000, 3)}

    def test_exchange_run_writes_report(self, tmp_path):
        report = self.run_report(
            tmp_path, "sampler = exchange\ngeweke_samples = 40\ngeweke_thin = 2\n")
        assert report["sampler"] == "exchange"
        assert set(report["statistics"]) == {"mean_g_data", "mean_phi_data", "data_mean"}

    def test_corrupt_flag_only_for_history(self, tmp_path):
        cfg = write_cfg(tmp_path, "sampler = exchange\ngeweke_corrupt = true\n")
        rc = main(["geweke", "--config", str(cfg), "--seed", "0",
                   "--out", str(tmp_path / "g")])
        assert rc == 2


class TestSamplerErrors:
    # phi(-8) is about 6e-16, so no proposal is ever accepted and the
    # proposal budget runs out on the first dataset, whatever the seed.
    NO_ACCEPT = "mean_const = -8\nmax_proposals = 5\n"

    @pytest.mark.parametrize("command, output", [
        (["geweke"], "geweke_report.json"),
        (["sample-prior", "--n", "3"], "samples.csv"),
    ])
    def test_budget_exhaustion_is_error(self, tmp_path, capsys, command, output):
        cfg = write_cfg(tmp_path, self.NO_ACCEPT + "geweke_samples = 20\n")
        out = tmp_path / "o"
        rc = main([*command, "--config", str(cfg), "--seed", "0",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: 5 proposals")
        assert not (out / output).exists()

    def test_ill_conditioned_covariance_is_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise IllConditionedCovariance("factorisation failed at jitter cap")

        monkeypatch.setattr(cli, "draw_prior_dataset", fail)
        rc = main(["sample-prior", "--n", "3", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: factorisation failed at jitter cap\n"

    def test_row_cap_is_error(self, tmp_path, capsys, monkeypatch):
        # phi(-10 + 0.3 g) is about 1e-5: three acceptances would take
        # ~3 x 10^5 proposals, each a factor row
        monkeypatch.setattr(generate, "MAX_ROWS", 500)
        cfg = write_cfg(tmp_path, "amplitude_init = 0.3\nlengthscale_init = 0.2\n"
                                  "mean_const = -10\n")
        out = tmp_path / "o"
        rc = main(["sample-prior", "--config", str(cfg), "--n", "3", "--seed", "1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "past 500 rows" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, raiser", [
        (["sample-prior", "--n", "3"], "draw_prior_dataset"),
        (["fit", "--data"], "run_history_chain"),
    ])
    def test_memory_error_is_error(self, tmp_path, capsys, monkeypatch, command,
                                   raiser):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 GiB")

        if command[0] == "fit":
            main(["gen-synthetic", "--name", "f1", "--n", "10", "--out",
                  str(tmp_path / "data")])
            command = [*command, str(tmp_path / "data" / "f1.csv")]
        monkeypatch.setattr(cli, raiser, fail)
        out = tmp_path / "o"
        capsys.readouterr()
        rc = main([*command, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {command[0]} ran out of memory (Unable to allocate 1.00 GiB); "
            "lower max_proposals in the config\n")
        assert not out.exists()


class TestBadHyperparameters:
    @pytest.mark.parametrize("line", ["amplitude_init = nan",
                                      "lengthscale_init = 0",
                                      "mean_const = inf"])
    def test_is_error_before_sampling(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, line + "\n")
        out = tmp_path / "o"
        rc = main(["sample-prior", "--config", str(cfg), "--n", "5",
                   "--seed", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and line.split()[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["walk_scale_frac = 0",
                                      "amp_log_prior_sigma = 0",
                                      "zeta_insert = 1"])
    def test_fit_is_error_before_sampling(self, tmp_path, capsys, line):
        # each but the first would freeze a move of the chain instead of
        # failing.  The first names a key that is gone (the location move
        # proposes from the base density and has no walk scale): an old
        # config that still sets it is refused by name, not run without it
        main(["gen-synthetic", "--name", "f1", "--n", "20", "--seed", "1",
              "--out", str(tmp_path / "data")])
        cfg = write_cfg(tmp_path, line + "\ntotal_iters = 20\nburn_in = 5\n")
        out = tmp_path / "fit"
        capsys.readouterr()
        rc = main(["fit", "--config", str(cfg), "--data",
                   str(tmp_path / "data" / "f1.csv"), "--seed", "1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and line.split()[0] in err
        assert not out.exists()


class TestBadData:
    # small budgets, so a run that should have been refused still ends
    SMALL = ("total_iters = 4\nburn_in = 1\nmax_proposals = 200\n"
             "pred_retained = 2\npred_burn_in = 1\ngrid = 0:1:2\n")

    @pytest.mark.parametrize("command", ["fit", "predict-density"])
    @pytest.mark.parametrize("rows, message", [
        ("", "no data rows"),
        ("0.2\nnan\n", "non-finite"),
        ("0.2\n1.7\n", "outside the base density's support"),
    ])
    def test_is_error_before_output(self, tmp_path, capsys, command, rows, message):
        cfg = write_cfg(tmp_path, self.SMALL)
        data = tmp_path / "d.csv"
        data.write_text("x1\n" + rows)
        out = tmp_path / "o"
        rc = main([command, "--config", str(cfg), "--data", str(data),
                   "--out", str(out), "--seed", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


class TestNonFiniteSettings:
    # before they were refused, the grids ran to a table of nan estimates,
    # and the base settings spent a proposal budget or blamed every datum
    SMALL = TestBadData.SMALL

    @pytest.mark.parametrize("command, lines, grid, message", [
        ("predict-density", "", "nan:1:5", "min and max must be finite"),
        ("predict-density", "", "0:inf:5", "min and max must be finite"),
        ("sample-prior", "box_upper = inf\n", None, "box bounds must be finite"),
        ("fit", "box_upper = nan\n", None, "box bounds must be finite"),
        ("sample-prior", "base = gaussian\nbase_mean_init = inf\nbase_sigma_init = 1\n",
         None, "base mean must be finite"),
        ("fit", "base = gaussian\nbase_sigma_init = nan\n", None,
         "base sigma must be finite"),
    ], ids=["grid-nan", "grid-inf", "box-inf", "box-nan", "base-mean-inf",
            "base-sigma-nan"])
    def test_is_error_before_output(self, tmp_path, capsys, command, lines, grid,
                                    message):
        cfg = write_cfg(tmp_path, self.SMALL + lines)
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--out", str(out), "--seed", "0"]
        if command == "sample-prior":
            argv += ["--n", "5"]
        else:
            main(["gen-synthetic", "--name", "f1", "--n", "10", "--seed", "1",
                  "--out", str(tmp_path / "data")])
            argv += ["--data", str(tmp_path / "data" / "f1.csv")]
        if grid is not None:
            argv += ["--grid", grid]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "gpds.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-synthetic" in proc.stdout
