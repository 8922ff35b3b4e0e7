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
every value written is a new estimator's.  The latent-history cases (both
history fits, the latent-history predictive density and Geweke run) were
recorded again when the location move came to propose each rejection from
the base density instead of a random walk about it: a new Markov kernel,
with its own random stream (D uniforms per rejection where the walk drew
D normals).  The latent-history cases were recorded again when the
function move became an elliptical slice move instead of Hamiltonian Monte
Carlo: a new Markov kernel, with its own random stream (R normals, a slice
uniform and one uniform per angle tried, where HMC drew R momenta and an
accept uniform).  The sample-prior and exchange values were left as they
were.
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
    assert col["m"].astype(int).tolist() == [6, 6, 6, 8, 10, 10, 10, 8, 6, 6, 5, 4,
                                             2, 3, 2, 1, 1, 0, 2, 2]
    assert {k: int(col[k].sum()) for k in names if k.endswith(("_acc", "_att"))} == {
        "func_acc": 20, "func_att": 83, "hyper_acc": 9, "hyper_att": 20,
        "loc_acc": 86, "loc_att": 98, "number_acc": 33, "number_att": 40}
    assert col["log_density"].tolist() == pytest.approx([
        296.513387865743, 284.51843877322915, 285.08732618573964,
        293.1078201801449, 305.0536185649485, 301.15845396458553,
        306.12884114303256, 290.8350514173335, 280.1721682015052,
        277.39935040393783, 273.75901430461937, 269.64375727737263,
        258.5761134710672, 263.23377498874703, 258.11775465340247,
        252.85652457669534, 252.72466901549873, 245.28944254429416,
        254.69138629334333, 257.64060352353266], rel=1e-8)
    assert col["amplitude"].tolist() == pytest.approx([
        1.2257980969646625, 1.2257980969646625, 1.2257980969646625,
        1.2257980969646625, 1.4170951545829407, 1.4170951545829407,
        1.585410009738178, 1.5730065364364734, 1.5730065364364734,
        1.4504034881046373, 1.434904257104498, 1.475740861768048,
        1.7691568244479046, 1.7691568244479046, 1.8447458809917767,
        1.8447458809917767, 1.8447458809917767, 1.8447458809917767,
        1.8447458809917767, 1.7490906725050297], rel=1e-8)
    assert col["ls1"].tolist() == pytest.approx([
        0.9403140628746071, 0.9403140628746071, 0.9403140628746071,
        0.9403140628746071, 0.9490968448673299, 0.9490968448673299,
        0.8975385183798487, 1.0388334868586684, 1.0388334868586684,
        1.00113564230716, 0.9305204124643006, 0.9598356138975968,
        0.961558368215505, 0.961558368215505, 1.0127056036967566,
        1.0127056036967566, 1.0127056036967566, 1.0127056036967566,
        1.0127056036967566, 0.9887795962370127], rel=1e-8)
    assert digest(out / "rejections.csv") == "127e2e7405cdbb61"
    assert digest(out / "predictive_samples.csv") == "687a17911def5860"


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
    assert col["m"].astype(int).tolist() == [7, 9, 9, 7, 8, 9, 10, 12, 13, 15, 17,
                                             17, 18, 19, 19, 19, 20, 19, 20, 20]
    assert {k: int(col[k].sum()) for k in names if k.endswith(("_acc", "_att"))} == {
        "func_acc": 20, "func_att": 42, "hyper_acc": 0, "hyper_att": 20,
        "loc_acc": 276, "loc_att": 287, "number_acc": 31, "number_att": 40}
    assert col["log_density"].tolist() == pytest.approx([
        362.7344578206168, 379.5435966077692, 384.95106871240625,
        362.32402147027665, 368.8165008641013, 386.4985088645958,
        391.3433050052086, 395.4611346565703, 407.08442584481986,
        412.7260349910708, 441.4276432686082, 434.0569457208096,
        455.55590407754147, 446.6849460710169, 446.2180352064414,
        446.7723459982296, 460.38521866065156, 454.76572470126047,
        465.44525076381024, 452.2019326989346], rel=1e-8)
    assert col["amplitude"].tolist() == [1.0] * 20
    assert col["ls1"].tolist() == [1.0] * 20
    assert col["base_mean1"].tolist() == pytest.approx([0.43286219422853506] * 20,
                                                       rel=1e-8)
    assert col["base_sigma1"].tolist() == pytest.approx([0.2712982721795909] * 20,
                                                        rel=1e-8)
    assert digest(out / "rejections.csv") == "986d9cf612bdf6eb"
    assert digest(out / "predictive_samples.csv") == "219f61add4ef16fc"


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
        [0.0, pytest.approx(1.0350846191652727, rel=1e-8),
         pytest.approx(0.09770505042093984, rel=1e-8),
         pytest.approx(0.07984022144626807, rel=1e-8)],
        [0.5, pytest.approx(0.9952324247719048, rel=1e-8),
         pytest.approx(0.08563003616189356, rel=1e-8),
         pytest.approx(0.07984022144626807, rel=1e-8)],
        [1.0, pytest.approx(0.9126628126342325, rel=1e-8),
         pytest.approx(0.07622754965300724, rel=1e-8),
         pytest.approx(0.07984022144626807, rel=1e-8)]]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["integral"] == pytest.approx(0.9845530703358287, rel=1e-8)
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
    ("latent-history", {"data_mean": (0.15, 0.7659314523482239),
                        "mean_g_data": (0.275, 0.09707484379785862),
                        "n_rejections": (0.2, 0.404587405685253)}),
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
