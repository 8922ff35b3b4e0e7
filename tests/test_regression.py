"""Fixed-seed regression: CLI outputs against values recorded from the
dense-factor engine that preceded the packed one.

Samples, proposal counts, integer trace columns and the written rejection
and predictive files must be identical (the random stream and every
accept/reject decision are unchanged); floats agree to 1e-8 relative (the
solves sum in a different order).
"""
import contextlib
import hashlib
import io
import json

import pytest

from gpds.cli import main
from gpds.io_utils import read_csv


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def test_sample_prior(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("amplitude_init = 1.0\nlengthscale_init = 0.2\n"
                   "mean_const = 1.0\ngrid_count = 20\n")
    out = tmp_path / "prior"
    run(["sample-prior", "--config", str(cfg), "--n", "300", "--seed", "11",
         "--out", str(out)])
    assert json.loads((out / "meta.json").read_text())["proposals"] == 325
    assert digest(out / "samples.csv") == "1db40768c4c3c727"
    _, grid = read_csv(out / "density_grid.csv")
    assert grid[:, 1].tolist() == pytest.approx([
        0.8727157415298579, 0.8962558060097775, 0.9099109836346307,
        0.9169624438666839, 0.9195674292991929, 0.919521599157543,
        0.9191988325190682, 0.9210730522635351, 0.9258939623566056,
        0.9318421007827687, 0.9360268796571033, 0.9363807781313563,
        0.9322881470360838, 0.9245760573899388, 0.9154170017191136,
        0.9076812011169333, 0.9039101774701808, 0.9057630449195887,
        0.913461402432071, 0.924731596510773], rel=1e-8)


def test_history_fit(tmp_path):
    run(["gen-synthetic", "--name", "f1", "--n", "40", "--seed", "5",
         "--out", str(tmp_path / "data")])
    cfg = tmp_path / "h.cfg"
    cfg.write_text("total_iters = 30\nburn_in = 10\nthinning = 1\n"
                   "number_moves = 2\ninfer_hypers = true\n"
                   "record_predictive = true\n")
    out = tmp_path / "fit"
    run(["fit", "--config", str(cfg), "--data", str(tmp_path / "data" / "f1.csv"),
         "--seed", "5", "--out", str(out)])
    names, trace = read_csv(out / "trace.csv")
    col = {n: trace[:, i] for i, n in enumerate(names)}
    assert col["m"].astype(int).tolist() == [9, 9, 11, 9, 7, 6, 6, 4, 5, 5,
                                             3, 3, 5, 3, 3, 4, 4, 2, 2, 4]
    assert {k: int(col[k].sum()) for k in names if k.endswith(("_acc", "_att"))} == {
        "hmc_acc": 19, "hmc_att": 20, "hyper_acc": 9, "hyper_att": 20,
        "loc_acc": 102, "loc_att": 104, "number_acc": 36, "number_att": 40}
    assert col["log_density"].tolist() == pytest.approx([
        309.5915982819708, 307.9531075220663, 319.2953799788078,
        314.5733386281959, 300.7596962088582, 294.7545028840481,
        295.42906266727334, 287.28948957168774, 294.79577600219073,
        293.73329658321444, 275.83457762035886, 282.1686674317511,
        291.29180706713095, 283.9273017001219, 284.30169702657906,
        289.94867573188617, 291.8606228353834, 275.88395534316464,
        283.91098338128637, 289.3153864158533], rel=1e-8)
    assert col["amplitude"].tolist() == pytest.approx([
        1.2574787382964538, 1.1265590217735588, 1.1265590217735588,
        1.149980605697561, 1.149980605697561, 1.149980605697561,
        1.149980605697561, 1.021828917381635, 1.021828917381635,
        1.0040072866817182, 1.0040072866817182, 1.0040072866817182,
        1.0040072866817182, 0.9012061033658654, 0.9012061033658654,
        0.9012061033658654, 0.8685175907856315, 0.8685175907856315,
        0.8622593758728266, 0.8874190112373512], rel=1e-8)
    assert col["ls1"].tolist() == pytest.approx([
        1.1657398284130465, 1.239718859695615, 1.239718859695615,
        1.152964219091239, 1.152964219091239, 1.152964219091239,
        1.152964219091239, 1.1390642936088018, 1.1390642936088018,
        1.069397552977758, 1.069397552977758, 1.069397552977758,
        1.069397552977758, 1.1098616604922806, 1.1098616604922806,
        1.1098616604922806, 1.0025568130062545, 1.0025568130062545,
        1.1190795561059272, 1.1605137876558496], rel=1e-8)
    assert digest(out / "rejections.csv") == "f6a910671f1800df"
    assert digest(out / "predictive_samples.csv") == "4cf482772eabef88"
