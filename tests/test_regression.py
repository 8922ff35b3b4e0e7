"""Fixed-seed regression: CLI outputs against values recorded from the
dense-factor engine that preceded the packed one.

Samples, proposal counts, integer trace columns and the written rejection
and predictive files must be identical (the random stream and every
accept/reject decision are unchanged); floats agree to 1e-8 relative (the
solves sum in a different order).

The latent-history cases (both history fits, the latent-history predictive
density and Geweke run) were recorded again when a location sweep became
one block move: that is a different Markov kernel, with its own random
stream.
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
    assert col["m"].astype(int).tolist() == [6, 4, 3, 5, 6, 6, 8, 8, 8, 8,
                                             10, 8, 9, 9, 8, 8, 8, 10, 12, 14]
    assert {k: int(col[k].sum()) for k in names if k.endswith(("_acc", "_att"))} == {
        "hmc_acc": 19, "hmc_att": 20, "hyper_acc": 12, "hyper_att": 20,
        "loc_acc": 157, "loc_att": 158, "number_acc": 36, "number_att": 40}
    assert col["log_density"].tolist() == pytest.approx([
        301.3546393110207, 299.78241706303436, 290.4261565655244,
        305.9189316147364, 309.6210157242966, 305.66339682977747,
        318.2295176135671, 316.37551698851485, 319.1145846605843,
        324.63502679725264, 325.72254920649203, 312.090659352369,
        329.358264444712, 327.32100564086784, 323.7528593514908,
        324.0558201785726, 317.2420649989346, 331.6125979890099,
        340.89869948804636, 340.13168079015594], rel=1e-8)
    assert col["amplitude"].tolist() == pytest.approx([
        0.8457587103038504, 0.8457587103038504, 0.980718423691282,
        0.980718423691282, 0.885157852587705, 0.9012768413497886,
        0.89748452861617, 0.89748452861617, 0.89748452861617,
        0.9709349844967148, 0.9709349844967148, 0.88580851150702,
        0.8112728906577815, 0.8112728906577815, 0.8112728906577815,
        0.8112728906577815, 0.8235551616388461, 0.9250096053452997,
        1.1162760033816934, 1.4063868188275277], rel=1e-8)
    assert col["ls1"].tolist() == pytest.approx([
        1.2161396509849376, 1.2161396509849376, 1.1377988348808064,
        1.1377988348808064, 1.2255390794024357, 1.17110262791884,
        1.192485364787429, 1.192485364787429, 1.192485364787429,
        1.299278441596714, 1.299278441596714, 1.321720490982404,
        1.307596385948622, 1.307596385948622, 1.307596385948622,
        1.307596385948622, 1.3007540866550737, 1.487423119692395,
        1.5642487463469525, 1.5495987713789372], rel=1e-8)
    assert digest(out / "rejections.csv") == "8c8de210de9ca2bb"
    assert digest(out / "predictive_samples.csv") == "e5c95b9c5e07ca52"



def test_history_fit_gaussian_pinned(tmp_path):
    # a Gaussian base, a pinned GP and a shared lengthscale: every hyper
    # proposal walks psi, the pin and one lengthscale.  With the pin, every
    # proposal lowers the GP log density of the current values by 65 or
    # more, so all 20 are rejected and theta and psi keep their start values
    run(["gen-synthetic", "--name", "f1", "--n", "50", "--seed", "8",
         "--out", str(tmp_path / "data")])
    cfg = tmp_path / "g.cfg"
    cfg.write_text("base = gaussian\npin_enabled = true\nkernel = isotropic\n"
                   "total_iters = 30\nburn_in = 10\nthinning = 1\n"
                   "number_moves = 2\ninfer_hypers = true\n"
                   "record_predictive = true\n")
    out = tmp_path / "fit"
    run(["fit", "--config", str(cfg), "--data", str(tmp_path / "data" / "f1.csv"),
         "--seed", "8", "--out", str(out)])
    names, trace = read_csv(out / "trace.csv")
    col = {n: trace[:, i] for i, n in enumerate(names)}
    assert col["m"].astype(int).tolist() == [7, 8, 10, 12, 11, 12, 11, 12, 14, 14,
                                             15, 17, 19, 21, 21, 21, 21, 23, 22, 24]
    assert {k: int(col[k].sum()) for k in names if k.endswith(("_acc", "_att"))} == {
        "hmc_acc": 20, "hmc_att": 20, "hyper_acc": 0, "hyper_att": 20,
        "loc_acc": 311, "loc_att": 315, "number_acc": 29, "number_att": 40}
    assert col["log_density"].tolist() == pytest.approx([
        443.7686592618104, 441.9375130920975, 465.0216237099644,
        475.4189523237391, 475.95554589125385, 479.5556798062076,
        466.1367765644207, 480.0232625520984, 495.73587846293896,
        495.66294182437696, 505.58449590573395, 518.2208466473508,
        528.61936919038, 552.4942968247893, 555.7434791646976,
        563.7823077954845, 556.5473297976802, 564.2086869844736,
        554.638323831037, 575.4299823232361], rel=1e-8)
    assert col["amplitude"].tolist() == [1.0] * 20
    assert col["ls1"].tolist() == [1.0] * 20
    assert col["base_mean1"].tolist() == pytest.approx([0.43286219422853506] * 20,
                                                       rel=1e-8)
    assert col["base_sigma1"].tolist() == pytest.approx([0.2712982721795909] * 20,
                                                        rel=1e-8)
    assert digest(out / "rejections.csv") == "6e44a38fb060a959"
    assert digest(out / "predictive_samples.csv") == "434d85fc324a21f9"

def test_predict_density(tmp_path):
    run(["gen-synthetic", "--name", "f1", "--n", "20", "--seed", "7",
         "--out", str(tmp_path / "data")])
    cfg = tmp_path / "p.cfg"
    cfg.write_text("sampler = latent-history\npred_retained = 20\npred_burn_in = 10\n")
    out = tmp_path / "pd"
    run(["predict-density", "--config", str(cfg), "--data",
         str(tmp_path / "data" / "f1.csv"), "--grid", "0:1:3", "--seed", "7",
         "--out", str(out)])
    names, grid = read_csv(out / "density_grid.csv")
    assert names == ["x1", "estimate", "stderr_numerator", "stderr_denominator"]
    assert grid.tolist() == [
        [0.0, pytest.approx(1.0094800282848415, rel=1e-8),
         pytest.approx(0.010360434411730336, rel=1e-8),
         pytest.approx(0.015508929423171306, rel=1e-8)],
        [0.5, pytest.approx(1.0099801082891022, rel=1e-8),
         pytest.approx(0.003433774711656388, rel=1e-8),
         pytest.approx(0.0064035034353066, rel=1e-8)],
        [1.0, pytest.approx(0.9938577995355574, rel=1e-8),
         pytest.approx(0.0066937104619178385, rel=1e-8),
         pytest.approx(0.012536027202334507, rel=1e-8)]]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["integral"] == pytest.approx(1.0058245110996509, rel=1e-8)


EXCHANGE_EXPECTED = {
    # uniform box: chain00 also takes a fantasy budget failure
    "uniform-box": {
        "chain00": {
            "m": [112, 207, 252, 345, 449, 489, 509, 549],
            "acc": {"func_acc": 5, "func_att": 8, "hyper_acc": 1, "hyper_att": 8},
            "log_density": [-27.666888840027173, -30.85386885495054,
                            -57.51057865788024, -62.22615760215784]
                           + [-59.630345037794264] * 4,
            "amplitude": [1.241860204583605] * 8,
            "ls1": [1.1507334894217853] * 8,
            "predictive": "51f250f0e20cc588",
            "budget_failures": 1,
        },
        "chain01": {
            "m": [77, 73, 48, 54, 94, 58, 77, 43],
            "acc": {"func_acc": 6, "func_att": 8, "hyper_acc": 6, "hyper_att": 8},
            "log_density": [-16.62045875961191, -17.053884989505757,
                            -5.088849685024465, -9.762801463761067,
                            -9.762801463761067, -14.971054505009889,
                            -18.96684276660775, -1.6524234325874798],
            "amplitude": [0.8009297117664325, 0.9192329363341682,
                          1.0649708136860598, 1.1460779886137704,
                          1.1460779886137704, 1.3344871844943205,
                          1.3344871844943205, 1.3149311676694095],
            "ls1": [1.0902044956958288, 1.3536939986842542, 1.3490453807972835,
                    1.161974523296263, 1.161974523296263, 1.0419708751647592,
                    1.0419708751647592, 1.0807985171200327],
            "predictive": "a8d66d5ab8262b66",
            "budget_failures": 0,
        },
    },
    # gaussian base: hyper moves also move psi, so the base-density ratios
    # at the data and the fantasies enter the swap ratio
    "gaussian": {
        "chain00": {
            "m": [80, 53, 74, 63, 45, 63, 63, 103],
            "acc": {"func_acc": 6, "func_att": 8, "hyper_acc": 3, "hyper_att": 8},
            "log_density": [-9.88980578736928, -11.064440637446824,
                            -7.811879911656279, -16.5691274926127,
                            -6.280072300153165, -2.8826756427673037,
                            -1.9772714416696042, -1.9772714416696042],
            "amplitude": [0.9611854743815391, 0.9669807956844205,
                          0.9669807956844205, 1.0300839547989764]
                         + [1.054762831217471] * 4,
            "ls1": [0.875182002554331, 0.7849372189906905, 0.7849372189906905,
                    0.834021600142453] + [0.7151139255823301] * 4,
            "base_mean1": [0.43358871117590225, 0.39764276940154936,
                           0.39764276940154936, 0.315080710813826]
                          + [0.32832747625256187] * 4,
            "base_sigma1": [0.28339991269839226, 0.28076510616293876,
                            0.28076510616293876, 0.2339428177652099]
                           + [0.25041812526839136] * 4,
            "predictive": "42ae4fbfb24c4ec4",
            "budget_failures": 0,
        },
        "chain01": {
            "m": [148, 97, 77, 46, 64, 65, 105, 46],
            "acc": {"func_acc": 6, "func_att": 8, "hyper_acc": 3, "hyper_att": 8},
            "log_density": [-32.76623129278432, -28.234771812555046,
                            -18.119267187173776, -4.402557985077138,
                            -2.8510464945957095, -3.325275243382083,
                            -3.325275243382083, -5.605398584858009],
            "amplitude": [0.7883550709032171, 0.7883550709032171,
                          0.7228257483423888] + [0.9045756962488973] * 4
                         + [0.7913100564602931],
            "ls1": [1.0167506620335218, 1.0167506620335218, 0.9642195736648094]
                   + [0.9455728658078938] * 4 + [0.8710890461074988],
            "base_mean1": [0.2714337292259875, 0.2714337292259875,
                           0.23906864268959438] + [0.2218739937674175] * 4
                          + [0.26838889961449097],
            "base_sigma1": [0.3396473346946813, 0.3396473346946813,
                            0.38834551989957794] + [0.35766571917798196] * 4
                           + [0.3449331972495299],
            "predictive": "eff950f938c30660",
            "budget_failures": 0,
        },
    },
}


@pytest.mark.parametrize("base", sorted(EXCHANGE_EXPECTED))
def test_exchange_fit_two_chains(tmp_path, base):
    # values recorded before the exchange move was folded into one proposal
    # and one swap routine
    run(["gen-synthetic", "--name", "f1", "--n", "20", "--seed", "6",
         "--out", str(tmp_path / "data")])
    cfg = tmp_path / "e.cfg"
    cfg.write_text(f"sampler = exchange\nbase = {base}\ncrankshaft_eps = 0.5\n"
                   "max_proposals = 500\ntotal_iters = 12\nburn_in = 4\n"
                   "thinning = 1\ninfer_hypers = true\nrecord_predictive = true\n")
    out = tmp_path / "fit"
    run(["fit", "--config", str(cfg), "--data", str(tmp_path / "data" / "f1.csv"),
         "--chains", "2", "--seed", "6", "--out", str(out)])
    summary = json.loads((out / "meta.json").read_text())["summary"]
    for chain, want in EXCHANGE_EXPECTED[base].items():
        names, trace = read_csv(out / chain / "trace.csv")
        col = {n: trace[:, i] for i, n in enumerate(names)}
        assert col["m"].astype(int).tolist() == want["m"]
        assert {k: int(col[k].sum()) for k in names
                if k.endswith(("_acc", "_att"))} == want["acc"]
        floats = [n for n in names if n in want]
        assert {"log_density", "amplitude", "ls1"} <= set(floats)
        for name in floats:
            assert col[name].tolist() == pytest.approx(want[name], rel=1e-8)
        assert digest(out / chain / "predictive_samples.csv") == want["predictive"]
        assert summary[chain]["acceptance"]["budget_failures"] == want["budget_failures"]


@pytest.mark.parametrize("sampler, statistics", [
    ("latent-history", {"data_mean": (0.125, 0.9188052214121167),
                        "mean_g_data": (0.175, 0.5786001416508443),
                        "n_rejections": (0.15, 0.7659314523482239)}),
    ("exchange", {"data_mean": (0.175, 0.5786001416508443),
                  "mean_g_data": (0.15, 0.7659314523482239),
                  "mean_phi_data": (0.15, 0.7659314523482239)}),
])
def test_geweke(tmp_path, sampler, statistics):
    # the KS statistic of 40 vs 40 samples moves in steps of 1/40, so any
    # change to the forward draws or the chain shows up exactly
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"sampler = {sampler}\ngeweke_samples = 40\ngeweke_thin = 2\n")
    run(["geweke", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "g")])
    report = json.loads((tmp_path / "g" / "geweke_report.json").read_text())
    assert report["passed"] is True
    assert {k: (v["ks"], pytest.approx(v["p"], rel=1e-8))
            for k, v in report["statistics"].items()} == statistics
