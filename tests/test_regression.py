"""Fixed-seed regression: CLI outputs against values recorded from the
dense-factor engine that preceded the packed one.

Samples, proposal counts, integer trace columns and the written rejection
and predictive files must be identical (the random stream and every
accept/reject decision are fixed by the seed); floats agree to 1e-8
relative (the solves sum in a different order).

The latent-history cases (both history fits, the latent-history predictive
density and Geweke run) were recorded again when a location sweep became
one block move: that is a different Markov kernel, with its own random
stream.  Every case was recorded again when the rejection sampler began to
draw each proposal as one row of D + 2 uniforms (location, standard
normal, accept uniform; ``gpds.generate``): every output that goes through
it (samples, fantasies, predictive probes, the Geweke data blocks) and
every Gaussian-base location took a new stream.  Box-base latent-history
moves kept theirs.  The predictive density was recorded again when it
came to be estimated from one chain (the probe's proposal count T and its
sum S of phi over them) instead of one chain plus one augmented chain per
grid point: that chain is the old numerator chain, draw for draw, but
every value written is a new estimator's.
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
    assert json.loads((out / "meta.json").read_text())["proposals"] == 394
    assert digest(out / "samples.csv") == "18359909ae283429"
    _, grid = read_csv(out / "density_grid.csv")
    assert grid[:, 1].tolist() == pytest.approx([
        0.6125574926310278, 0.6413379478574013, 0.6995632791013997,
        0.7702811874469941, 0.8321060376980075, 0.8738776912672057,
        0.8951936744264376, 0.8989290458618523, 0.8864821246604094,
        0.8574962945018653, 0.8123969350453351, 0.755547550184541,
        0.6967504552004181, 0.6498478537644621, 0.6273183978399866,
        0.6326576555038297, 0.6570709485482746, 0.6853815946433204,
        0.7071756228670847, 0.7225574655098842], rel=1e-8)


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
    assert col["m"].astype(int).tolist() == [6, 4, 4, 4, 4, 6, 6, 6, 6, 6,
                                             6, 8, 8, 6, 4, 4, 5, 5, 4, 4]
    assert {k: int(col[k].sum()) for k in names if k.endswith(("_acc", "_att"))} == {
        "hmc_acc": 19, "hmc_att": 20, "hyper_acc": 12, "hyper_att": 20,
        "loc_acc": 104, "loc_att": 106, "number_acc": 36, "number_att": 40}
    assert col["log_density"].tolist() == pytest.approx([
        301.3546393110406, 299.7824170629866, 291.2785814932407, 299.4545745088493,
        299.77563985542963, 306.24614996685375, 306.3766752679923,
        304.8889893206655, 304.45096714024965, 306.57816898658, 300.68463069264044,
        300.29022262082094, 295.3310623015816, 299.3458081261385,
        286.89537420986767, 280.9232719117018, 289.36837205651454,
        294.7578818825191, 285.8554596743008, 281.8047138513496], rel=1e-8)
    assert col["amplitude"].tolist() == pytest.approx([
        0.8457587103038504, 0.8457587103038504, 0.8161096939842207,
        0.8161096939842207, 0.8463431907208202, 0.8463431907208202,
        0.8463431907208202, 0.752237117947389, 0.7292979238926686,
        0.8829688636167891, 1.047183657544566, 1.047183657544566, 1.047183657544566,
        0.9900494005721372, 0.9288972580338873, 0.9288972580338873,
        0.9288972580338873, 0.85071309383053, 0.8402844164950759,
        0.8713961805255082], rel=1e-8)
    assert col["ls1"].tolist() == pytest.approx([
        1.2161396509849376, 1.2161396509849376, 1.1145418989467077,
        1.1145418989467077, 1.0786997585690177, 1.0786997585690177,
        1.0786997585690177, 1.0646231012079759, 0.8845417525164208,
        0.8722767117144541, 0.751747981073851, 0.751747981073851, 0.751747981073851,
        0.7447149122886467, 0.7387903090539795, 0.7387903090539795,
        0.7387903090539795, 0.6735099642612085, 0.7163269442704466,
        0.7991113022262544], rel=1e-8)
    assert digest(out / "rejections.csv") == "843cf98b1333c837"
    assert digest(out / "predictive_samples.csv") == "c406a1e66238ff47"


def test_history_fit_gaussian_pinned(tmp_path):
    # a Gaussian base, a pinned GP and a shared lengthscale: every hyper
    # proposal walks psi, the pin and one lengthscale.  With the pin, every
    # proposal lowers the GP log density of the current values far more
    # than the other terms can make up, so all 20 are rejected and theta and
    # psi keep their start values.  Recorded again when a realisation built
    # from points took the jitter of one grown from empty, BASE_JITTER *
    # amplitude^2, instead of one relative to the pin-lowered mean diagonal
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
    assert col["m"].astype(int).tolist() == [4, 5, 7, 7, 8, 9, 8, 8, 10, 10,
                                             10, 12, 13, 13, 13, 13, 14, 14, 15, 15]
    assert {k: int(col[k].sum()) for k in names if k.endswith(("_acc", "_att"))} == {
        "hmc_acc": 19, "hmc_att": 20, "hyper_acc": 0, "hyper_att": 20,
        "loc_acc": 198, "loc_att": 208, "number_acc": 27, "number_att": 40}
    assert col["log_density"].tolist() == pytest.approx([
        349.2506754374963, 349.3206797705678, 360.0733833886942, 366.607203472314,
        379.80973292184495, 385.48045843962717, 371.9511039343888,
        379.5222803334541, 388.09833857867056, 391.9792257265268,
        398.8738272610073, 394.058993386574, 412.73262154953744,
        419.0646871214139, 410.3391716184694, 399.9799003456026,
        418.55604501577443, 420.06000880767135, 426.891139970159,
        427.36868273357726], rel=1e-8)
    assert col["amplitude"].tolist() == [1.0] * 20
    assert col["ls1"].tolist() == [1.0] * 20
    assert col["base_mean1"].tolist() == pytest.approx([0.43286219422853506] * 20,
                                                       rel=1e-8)
    assert col["base_sigma1"].tolist() == pytest.approx([0.2712982721795909] * 20,
                                                        rel=1e-8)
    assert digest(out / "rejections.csv") == "1460a2019cd976d4"
    assert digest(out / "predictive_samples.csv") == "353aa11ddc2da732"


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
    # the one-chain estimator: numerator pi(x) phi(g(x)) T over denominator
    # S, one standard error of S shared by every point
    assert grid.tolist() == [
        [0.0, pytest.approx(0.99224131600460341, rel=1e-8),
         pytest.approx(0.076505494734154716, rel=1e-8),
         pytest.approx(0.075631852448606429, rel=1e-8)],
        [0.5, pytest.approx(0.99857514444765627, rel=1e-8),
         pytest.approx(0.074500601234386066, rel=1e-8),
         pytest.approx(0.075631852448606429, rel=1e-8)],
        [1.0, pytest.approx(0.97699580842817668, rel=1e-8),
         pytest.approx(0.072326675382252736, rel=1e-8),
         pytest.approx(0.075631852448606429, rel=1e-8)]]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["integral"] == pytest.approx(0.9915968533320232, rel=1e-8)
    assert meta["probe_budget_failures"] == 0


EXCHANGE_EXPECTED = {
    "uniform-box": {
        "chain00": {
            "m": [71, 70, 59, 56, 66, 77, 51, 187],
            "acc": {"func_acc": 8, "func_att": 8, "hyper_acc": 6, "hyper_att": 8},
            "log_density": [-9.304454671129516, -15.057612902583271,
                            -14.562469244519697, -12.484187490875117,
                            -14.137757725269434, -9.618827251471437,
                            -6.573755361497677, -38.795905696028555],
            "amplitude": [0.9243646549857825, 0.8125495231095246,
                          0.7923834887051927, 0.8543083448050164]
                         + [0.887260857193297] * 2
                         + [0.7683816188145575, 0.747398743348969],
            "ls1": [1.1489143056618543, 1.1375024349250515, 1.1098191357231848,
                    1.005784061576907] + [1.023440620499106] * 2
                   + [0.9990842569962707, 1.1178344916259546],
            "predictive": "4fb10b142a2d7a6b",
            "budget_failures": 0,
        },
        "chain01": {
            "m": [66, 55, 75, 76, 53, 70, 110, 42],
            "acc": {"func_acc": 7, "func_att": 8, "hyper_acc": 3, "hyper_att": 8},
            "log_density": [-3.3021185020664165, -9.264781964677328,
                            -8.22275103967428, -5.573612513324901,
                            -10.069892871469367] + [-11.727962185629712] * 2
                           + [-6.444288000464259],
            "amplitude": [0.9933611183067067] + [1.0332325147526407] * 3
                         + [0.9983199935580345] * 3 + [1.0248931420934473],
            "ls1": [1.0856503291858892] + [1.090643548185753] * 3
                   + [1.1030847131946901] * 3 + [1.1341929527743209],
            "predictive": "3f787ffab745b430",
            "budget_failures": 0,
        },
    },
    # gaussian base: hyper moves also move psi, so the base-density ratios
    # at the data and the fantasies enter the swap ratio
    "gaussian": {
        "chain00": {
            "m": [61, 84, 69, 87, 53, 73, 71, 96],
            "acc": {"func_acc": 7, "func_att": 8, "hyper_acc": 5, "hyper_att": 8},
            "log_density": [-14.822440160317896, -15.91949308657753,
                            -6.975221875495452, -26.093374997470036,
                            -5.8034169887324225, -18.96074099128045,
                            -18.162173956356312, -21.087091820775232],
            "amplitude": [1.0765126546027615] * 3
                         + [0.9489702968051003, 0.9742781919361825,
                            0.8669195389157898] + [0.812028527778635] * 2,
            "ls1": [1.011421992031579] * 3
                   + [0.9403091957226066, 0.923090992324342, 0.9563331567867486]
                   + [0.8382184541507234] * 2,
            "base_mean1": [0.4520981374988443] * 3
                          + [0.4453902512002013, 0.3848754218476182,
                             0.26478207134338405] + [0.26621349451063187] * 2,
            "base_sigma1": [0.2670878187434908] * 3
                           + [0.27047217113328054, 0.284637755736196,
                              0.304399898770411] + [0.28201720081210085] * 2,
            "predictive": "60ffcdd350d1d758",
            "budget_failures": 0,
        },
        "chain01": {
            "m": [85, 49, 76, 116, 75, 74, 80, 81],
            "acc": {"func_acc": 7, "func_att": 8, "hyper_acc": 3, "hyper_att": 8},
            "log_density": [-22.719218225945244, -6.406638744679497]
                           + [-18.611138009370826] * 2
                           + [-11.934183783833834, -11.808177973614875,
                              -12.677224128102448, -12.512097510754044],
            "amplitude": [0.8580794430812692, 0.7783219880716981]
                         + [0.8766806846335464] * 6,
            "ls1": [0.9747429306592987, 0.9128332239829445]
                   + [0.8255434090686593] * 6,
            "base_mean1": [0.3495207574736679, 0.4148483285972384]
                          + [0.3498520023233232] * 6,
            "base_sigma1": [0.3261133697204432, 0.3577257928985988]
                           + [0.34316960365435156] * 6,
            "predictive": "f52562d978bf3f8f",
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
    ("latent-history", {"data_mean": (0.175, 0.5786001416508443),
                        "mean_g_data": (0.2, 0.404587405685253),
                        "n_rejections": (0.15, 0.7659314523482239)}),
    ("exchange", {"data_mean": (0.125, 0.9188052214121167),
                  "mean_g_data": (0.175, 0.5786001416508443),
                  "mean_phi_data": (0.2, 0.404587405685253)}),
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
