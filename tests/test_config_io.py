"""Config parsing, the chain-option rules it shares, and CSV round-trip
fidelity."""
import math

import numpy as np
import pytest

from gpds import config
from gpds.chain import ChainOptions
from gpds.config import RunConfig, parse_config, parse_float_list, parse_grid_spec
from gpds.io_utils import fmt_float, read_csv, read_data_csv, write_csv, write_json


class TestConfigParsing:
    def test_missing_file_gives_defaults(self):
        cfg = parse_config(None)
        assert cfg.sampler == "latent-history"
        assert cfg.total_iters == 6000
        assert cfg.burn_in == 1000

    def test_parse_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# comment\n"
            "sampler = exchange\n"
            "total_iters = 100\n"
            "burn_in = 10\n"
            "seed = 42\n"
            "crankshaft_eps = 0.25\n"
            "record_predictive = false\n"
            "\n"
        )
        cfg = parse_config(p)
        assert cfg.sampler == "exchange"
        assert cfg.total_iters == 100
        assert cfg.seed == 42
        assert cfg.crankshaft_eps == 0.25
        assert cfg.record_predictive is False

    def test_unknown_key_is_error(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("sampelr = exchange\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config(p)

    def test_bad_value_is_error(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("total_iters = soon\n")
        with pytest.raises(ValueError, match="bad value"):
            parse_config(p)

    def test_hyphen_keys_accepted(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("number-moves = 5\n")
        assert parse_config(p).number_moves == 5

    def test_validation(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("total_iters = 10\nburn_in = 10\n")
        with pytest.raises(ValueError):
            parse_config(p)

    @pytest.mark.parametrize("key, value", [
        ("amplitude_init", "nan"), ("amplitude_init", "inf"),
        ("amplitude_init", "0"), ("amplitude_init", "-1"),
        ("lengthscale_init", "nan"), ("lengthscale_init", "-inf"),
        ("lengthscale_init", "0"), ("mean_const", "nan"), ("mean_const", "-inf"),
        ("crankshaft_eps", "0"), ("crankshaft_eps", "-0.5"),
        ("crankshaft_eps", "1.5"), ("crankshaft_eps", "nan"),
        ("zeta_insert", "0"), ("zeta_insert", "1"), ("zeta_insert", "1.5"),
        ("zeta_insert", "nan"),
        ("hyper_walk_scale", "0"), ("hyper_walk_scale", "nan"), ("hyper_walk_scale", "inf"),
        ("amp_log_prior_sigma", "0"), ("amp_log_prior_sigma", "-0.5"),
        ("amp_log_prior_sigma", "nan"), ("amp_log_prior_sigma", "inf"),
        ("ls_log_prior_sigma", "0"), ("ls_log_prior_sigma", "-1"),
        ("ls_log_prior_sigma", "nan"), ("ls_log_prior_sigma", "inf"),
        ("amp_log_prior_mu", "nan"), ("amp_log_prior_mu", "-inf"),
        ("ls_log_prior_mu", "nan"), ("ls_log_prior_mu", "inf"),
    ])
    def test_bad_hyperparameter_is_error(self, tmp_path, key, value):
        p = tmp_path / "run.cfg"
        p.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=key):
            parse_config(p)
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: float(value)}).validate()

    @pytest.mark.parametrize("key, value", [
        ("max_proposals", 0), ("pred_retained", 0),
        ("pred_thinning", 0), ("grid_count", 0), ("geweke_thin", 0),
        ("number_moves", -1), ("extra_controls", -1), ("pred_burn_in", -1),
        ("workers", 0), ("workers", -2),
    ])
    def test_bad_count_is_error(self, tmp_path, key, value):
        p = tmp_path / "run.cfg"
        p.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=key):
            parse_config(p)

    @pytest.mark.parametrize("value", ["auto", "1", "3"])
    def test_workers_accepts_auto_or_a_count(self, tmp_path, value):
        p = tmp_path / "run.cfg"
        p.write_text(f"workers = {value}\n")
        assert parse_config(p).workers == value

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_workers_refuses_other_values(self, tmp_path, value):
        p = tmp_path / "run.cfg"
        p.write_text(f"workers = {value}\n")
        with pytest.raises(ValueError, match="workers"):
            parse_config(p)

    @pytest.mark.parametrize("workers, chains, cpus, expected", [
        ("auto", 12, 2, 2), ("auto", 1, 2, 1), ("auto", 3, 8, 3),
        ("auto", 4, 1, 1), ("1", 12, 8, 1), ("3", 12, 1, 3), (5, 2, 8, 2),
    ])
    def test_worker_count(self, monkeypatch, workers, chains, cpus, expected):
        # auto is one process per usable CPU; never more than one per chain
        monkeypatch.setattr(config, "usable_cpus", lambda: cpus)
        assert RunConfig(workers=workers).worker_count(chains) == expected

    def test_boundary_tuning_values_accepted(self):
        RunConfig(zeta_insert=0.999, number_moves=0, extra_controls=0,
                  max_proposals=1).validate()

    def test_crankshaft_eps_of_one_is_a_prior_proposal(self):
        RunConfig(crankshaft_eps=1.0).validate()

    def test_hash_tracks_content(self):
        a, b = RunConfig(), RunConfig()
        assert a.hash() == b.hash()
        b.seed = 1
        assert a.hash() != b.hash()

    def test_parse_float_list(self):
        assert parse_float_list("0.5", 3, "x") == [0.5, 0.5, 0.5]
        assert parse_float_list("1, 2", 2, "x") == [1.0, 2.0]
        with pytest.raises(ValueError):
            parse_float_list("1, 2", 3, "x")

    def test_parse_grid_spec(self):
        assert parse_grid_spec("0:1:11") == [(0.0, 1.0, 11)]
        assert parse_grid_spec("-2:2:5; 0:1:3") == [(-2.0, 2.0, 5), (0.0, 1.0, 3)]
        with pytest.raises(ValueError):
            parse_grid_spec("0:1")
        with pytest.raises(ValueError):
            parse_grid_spec("1:0:5")

    @pytest.mark.parametrize("spec", ["nan:1:5", "0:inf:5", "-inf:0:3", "0:1:3; 0:nan:3"])
    def test_parse_grid_spec_refuses_non_finite_bounds(self, spec):
        # nan fails no comparison, and an infinite span gives nan grid points
        with pytest.raises(ValueError, match="must be finite"):
            parse_grid_spec(spec)


class TestChainOptionsRules:
    """Every rule holds for ``ChainOptions`` built directly, not only for a
    config file: each bad setting is refused by name."""

    @pytest.mark.parametrize("field, value", [
        ("total_iters", -1), ("burn_in", -1), ("burn_in", 20), ("thinning", 0),
        ("max_proposals", 0), ("number_moves", -2), ("extra_controls", -1),
        ("hyper_walk_scale", 0.0), ("hyper_walk_scale", math.nan),
        ("zeta_insert", 0.0), ("zeta_insert", 1.0),
        ("crankshaft_eps", 0.0), ("crankshaft_eps", 1.5),
    ])
    def test_bad_setting_is_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChainOptions(**{"total_iters": 20, "burn_in": 5, field: value})

    def test_boundary_settings_accepted(self):
        ChainOptions(total_iters=0, burn_in=0, max_proposals=1, number_moves=0,
                     extra_controls=0, crankshaft_eps=1.0, zeta_insert=0.999)

    @pytest.mark.parametrize("key, value", [
        ("total_iters", -1), ("burn_in", 6000), ("thinning", 0),
        ("extra_controls", -1), ("hyper_walk_scale", 0.0), ("zeta_insert", 1.5),
    ])
    def test_config_refuses_by_the_same_rules_under_its_own_keys(self, key, value):
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: value}).validate()


class TestCsvRoundTrip:
    def test_floats_survive_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = np.column_stack([
            rng.standard_normal(50) * 10.0**rng.integers(-12, 12, 50),
            rng.standard_normal(50),
        ])
        rows[0, 0] = 0.1 + 0.2  # classic non-representable decimal
        rows[1, 0] = 1e-308
        rows[2, 0] = -1.7976931348623157e308
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], rows)
        names, back = read_csv(path)
        assert names == ["a", "b"]
        assert np.array_equal(back, rows)

    def test_fmt_float_17g(self):
        x = 0.1 + 0.2
        assert float(fmt_float(x)) == x

    def test_rows_are_written_as_fmt_float_writes_each_value(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-300, 300, 400)
        values[:12] = [-0.0, 0.0, 3.0, -42.0, 1e22, 2.0**53, np.inf, -np.inf, np.nan,
                       5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
        rows = values.reshape(100, 4)
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d"], rows)
        expected = "a,b,c,d\n" + "".join(",".join(fmt_float(v) for v in row) + "\n"
                                         for row in rows)
        assert path.read_bytes() == expected.encode()

    def test_empty_table(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, ["x1"], np.empty((0, 1)))
        names, back = read_csv(path)
        assert names == ["x1"]
        assert back.shape == (0, 1)

    def test_data_csv_header_enforced(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="expected header"):
            read_data_csv(path)
        path.write_text("x1,x2\n1,2\n")
        assert read_data_csv(path).shape == (1, 2)

    @pytest.mark.parametrize("rows, message", [
        ("", "no data rows"),
        ("1,2\nnan,2\n", "non-finite"),
        ("1,-inf\n", "non-finite"),
    ])
    def test_data_csv_rejects_empty_and_non_finite(self, tmp_path, rows, message):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n" + rows)
        with pytest.raises(ValueError, match=message):
            read_data_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x1,x2\n1,2\n3\n")
        with pytest.raises(ValueError, match="expected 2 fields"):
            read_data_csv(path)


class TestAtomicWrite:
    def test_failed_json_write_leaves_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"passed": True})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"a": 1, "passed": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_json_write_creates_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "report.json", {"passed": np.bool_(True)})
        assert list(tmp_path.iterdir()) == []
