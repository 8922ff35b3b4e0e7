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
D normals).  The sample-prior and exchange values were left as they were.
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
    assert col["m"].astype(int).tolist() == [8, 8, 10, 10, 10, 8, 7, 9, 9, 11, 9,
                                             11, 9, 9, 7, 7, 9, 9, 7, 5]
    assert {k: int(col[k].sum()) for k in names if k.endswith(("_acc", "_att"))} == {
        "hmc_acc": 20, "hmc_att": 20, "hyper_acc": 7, "hyper_att": 20,
        "loc_acc": 160, "loc_att": 172, "number_acc": 39, "number_att": 40}
    assert col["log_density"].tolist() == pytest.approx([
        317.8922941743867, 317.76546001979017, 329.75736025307026,
        327.63136004121463, 333.384318952216, 308.464604168406,
        294.8863667013478, 314.44434361393047, 320.53390255375257,
        329.8986056236198, 311.7355634935635, 328.58070996574793,
        320.57239206199756, 322.6714352292027, 310.08859310079924,
        312.99399799973924, 318.24435454253285, 320.620322727275,
        306.24785477693865, 292.15999785611194], rel=1e-8)
    assert col["amplitude"].tolist() == pytest.approx([
        0.9680614993471892, 0.9680614993471892, 1.0267464554490795,
        0.9937276962411216, 0.9937276962411216, 0.9348630367001433,
        0.9348630367001433, 0.9348630367001433, 0.9721335872943908,
        1.0503004695824605, 1.0503004695824605, 1.0503004695824605,
        1.0503004695824605, 1.0503004695824605, 0.962330067604496,
        0.9768992696567935, 0.9768992696567935, 0.9768992696567935,
        0.9768992696567935, 0.9768992696567935], rel=1e-8)
    assert col["ls1"].tolist() == pytest.approx([
        1.348176707358805, 1.348176707358805, 1.3970320008717885,
        1.3845221712390374, 1.3845221712390374, 1.1935722418172872,
        1.1935722418172872, 1.1935722418172872, 1.3117304944327155,
        1.200235318154354, 1.200235318154354, 1.200235318154354,
        1.200235318154354, 1.200235318154354, 1.1039043880504142,
        1.0981279540562023, 1.0981279540562023, 1.0981279540562023,
        1.0981279540562023, 1.0981279540562023], rel=1e-8)
    assert digest(out / "rejections.csv") == "b63caf610875aecb"
    assert digest(out / "predictive_samples.csv") == "987608c7f370c0df"


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
    assert col["m"].astype(int).tolist() == [4, 5, 7, 8, 9, 10, 11, 11, 12, 14, 16,
                                             16, 18, 16, 18, 18, 20, 19, 19, 20]
    assert {k: int(col[k].sum()) for k in names if k.endswith(("_acc", "_att"))} == {
        "hmc_acc": 19, "hmc_att": 20, "hyper_acc": 0, "hyper_att": 20,
        "loc_acc": 267, "loc_att": 271, "number_acc": 29, "number_att": 40}
    assert col["log_density"].tolist() == pytest.approx([
        353.8935636495428, 351.23691399868665, 361.63752417495243,
        373.6971908499767, 381.27539651519595, 377.6263799373417,
        385.0238606076253, 397.787494161347, 406.5319973143813,
        416.8591887232484, 432.9890380635004, 434.97611494780745,
        454.6721224151976, 440.12038123686, 441.62024722152216,
        444.1897791602179, 455.6299606487655, 459.89062915973426,
        451.4654673908915, 456.99749517580716], rel=1e-8)
    assert col["amplitude"].tolist() == [1.0] * 20
    assert col["ls1"].tolist() == [1.0] * 20
    assert col["base_mean1"].tolist() == pytest.approx([0.43286219422853506] * 20,
                                                       rel=1e-8)
    assert col["base_sigma1"].tolist() == pytest.approx([0.2712982721795909] * 20,
                                                        rel=1e-8)
    assert digest(out / "rejections.csv") == "a067b48bc99813a2"
    assert digest(out / "predictive_samples.csv") == "118d1ee6562f9204"


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
        [0.0, pytest.approx(1.0007454112244814, rel=1e-8),
         pytest.approx(0.06092265643130818, rel=1e-8),
         pytest.approx(0.061434980823168624, rel=1e-8)],
        [0.5, pytest.approx(1.0056601369601899, rel=1e-8),
         pytest.approx(0.061278486452644686, rel=1e-8),
         pytest.approx(0.061434980823168624, rel=1e-8)],
        [1.0, pytest.approx(0.9881432203722849, rel=1e-8),
         pytest.approx(0.061444304169787814, rel=1e-8),
         pytest.approx(0.061434980823168624, rel=1e-8)]]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["integral"] == pytest.approx(1.0000522263792864, rel=1e-8)
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
                        "mean_g_data": (0.2, 0.404587405685253),
                        "n_rejections": (0.175, 0.5786001416508443)}),
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
