"""Logistic link, base densities and hyperparameter priors."""
import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest, norm

from gpds.gp import GpHyper
from gpds.model import (
    GaussianBase,
    HyperPrior,
    UniformBox,
    base_logpdf,
    base_sample,
    hyperprior_logpdf,
    log_one_minus_phi,
    log_phi,
    normal_from_uniform,
    phi,
    propose_hypers,
    psi_logprior,
    theta_logprior,
    unnormalized_density,
)


class TestPhi:
    def test_symmetry_point(self):
        assert phi(0.0) == pytest.approx(0.5)

    def test_analytic_inverse(self):
        assert phi(math.log(3.0)) == pytest.approx(0.75, rel=1e-12)

    def test_large_negative_positive_not_zero(self):
        v = phi(-40.0)
        assert 0.0 < v < 1e-17

    def test_no_overflow_up_to_700(self):
        assert phi(700.0) == pytest.approx(1.0)
        assert phi(-700.0) >= 0.0
        assert np.isfinite(log_phi(-700.0))

    def test_strictly_increasing_and_bounded(self):
        zs = np.linspace(-30, 30, 301)
        vals = phi(zs)
        assert np.all(np.diff(vals) > 0)
        assert np.all((vals > 0) & (vals < 1))

    def test_complement_identity(self):
        zs = np.linspace(-20, 20, 41)
        assert np.allclose(phi(zs) + phi(-zs), 1.0, atol=1e-15)


class TestPhiGradients:
    # the HMC gradient takes d/dz log phi(z) as phi(-z) and
    # d/dz log (1 - phi(z)) as -phi(z)
    def test_at_zero(self):
        assert phi(-0.0) == pytest.approx(0.5)
        assert -phi(0.0) == pytest.approx(-0.5)

    @pytest.mark.parametrize("z", [-3.0, 0.7, 5.0])
    def test_matches_finite_difference(self, z):
        h = 1e-6
        fd = (log_phi(z + h) - log_phi(z - h)) / (2 * h)
        assert phi(-z) == pytest.approx(fd, rel=1e-7)
        fd2 = (log_one_minus_phi(z + h) - log_one_minus_phi(z - h)) / (2 * h)
        assert -phi(z) == pytest.approx(fd2, rel=1e-7)

    def test_saturation(self):
        assert phi(-40.0) < 1e-15
        assert -phi(-40.0) > -1e-15


class TestBaseDensities:
    def test_unit_box_logpdf_zero_inside(self):
        box = UniformBox.unit(1)
        assert base_logpdf([0.37], box) == 0.0

    def test_box_outside_is_minus_inf(self):
        box = UniformBox.unit(2)
        assert base_logpdf([0.5, 1.5], box) == -math.inf

    def test_standard_gaussian_at_origin(self):
        g = GaussianBase([0.0], [1.0])
        assert base_logpdf([0.0], g) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_gaussian_sample_mean(self):
        g = GaussianBase([2.0, -1.0], [0.5, 2.0])
        rng = np.random.default_rng(0)
        draws = base_sample(g, rng.random((100_000, 2)))
        se = g.sigma / math.sqrt(100_000)
        assert np.all(np.abs(draws.mean(axis=0) - g.mean) < 3 * se)

    def test_box_sample_in_support(self):
        box = UniformBox([-1.0, 2.0], [1.0, 3.0])
        rng = np.random.default_rng(1)
        draws = base_sample(box, rng.random((1000, 2)))
        assert np.all(draws >= box.lower) and np.all(draws <= box.upper)

    @pytest.mark.parametrize("hyper", [
        UniformBox([-0.5], [2.0]),
        GaussianBase([0.3], [0.8]),
    ])
    def test_1d_normalization_by_quadrature(self, hyper):
        if isinstance(hyper, UniformBox):
            xs = np.linspace(hyper.lower[0], hyper.upper[0], 2001)
        else:
            xs = np.linspace(-6, 7, 4001)
        dens = np.exp([base_logpdf([x], hyper) for x in xs])
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-3)

    def test_2d_normalization_by_quadrature(self):
        g = GaussianBase([0.0, 1.0], [1.0, 0.5])
        xs = np.linspace(-6, 6, 301)
        ys = np.linspace(-2, 4, 301)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        dens = np.exp(base_logpdf(pts, g)).reshape(301, 301)
        total = np.trapezoid(np.trapezoid(dens, ys, axis=1), xs)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_box_sample_is_generator_uniform(self):
        # from rng.random, the same draws and the same generator state as
        # rng.uniform, on a box that is neither unit-sized nor at the origin
        box = UniformBox([-1.5, 0.25], [2.0, 0.75])
        for shape in ((2,), (1, 2), (1000, 2)):
            ours, ref = np.random.default_rng(4), np.random.default_rng(4)
            got = base_sample(box, ours.random(shape))
            assert np.array_equal(got, ref.uniform(box.lower, box.upper, size=shape))
            assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("x", [
        [-1.5, 0.25], [2.0, 0.75], [-1.5, 0.75], [0.3, 0.5],
        [-1.5000001, 0.5], [0.3, 0.7500001], [5.0, -5.0],
        [math.nan, 0.5], [0.3, math.nan],
    ], ids=["lower-corner", "upper-corner", "mixed-corner", "inside",
            "below-lower", "above-upper", "far-outside", "nan-first", "nan-second"])
    def test_box_logpdf_of_one_point_matches_the_batch(self, x):
        box = UniformBox([-1.5, 0.25], [2.0, 0.75])
        one = base_logpdf(np.array(x), box)
        batch = base_logpdf(np.array([x, [0.0, 0.5]]), box)
        assert type(one) is float
        assert one == batch[0]
        assert batch[1] == pytest.approx(-math.log(3.5 * 0.5), rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            base_logpdf([0.1, 0.2], UniformBox.unit(1))

    def test_box_validation(self):
        with pytest.raises(ValueError):
            UniformBox([1.0], [1.0])
        with pytest.raises(ValueError):
            GaussianBase([0.0], [0.0])


class TestNormalFromUniform:
    """Uniforms from Generator.random are k 2^-53, k in [0, 2^53)."""

    CELL = 2.0 ** -53

    def test_extreme_cells_are_finite_and_mirror(self):
        last = 2 ** 53 - 1
        k = np.array([0, 1, 2 ** 52 - 1, 2 ** 52, last - 1, last], dtype=np.int64)
        z = normal_from_uniform(k * self.CELL)
        assert np.all(np.isfinite(z)) and np.all(np.abs(z) < 8.3)
        assert np.array_equal(z, -normal_from_uniform((last - k) * self.CELL))
        assert z[0] < z[1] < z[2] < 0 < z[3] < z[4] < z[5]

    def test_exactly_symmetric_and_the_midpoint_quantile(self):
        k = np.random.default_rng(0).integers(0, 2 ** 53, 100_000, dtype=np.int64)
        u = k * self.CELL
        z = normal_from_uniform(u)
        assert np.array_equal(z, -normal_from_uniform((2 ** 53 - 1 - k) * self.CELL))
        # ndtri of the midpoint, where u + 2^-54 is exact (below 1/2)
        low = u < 0.5
        assert np.abs(z[low] - ndtri(u[low] + 2.0 ** -54)).max() < 1e-9

    def test_standard_normal_law(self):
        z = normal_from_uniform(np.random.default_rng(1).random(20_000))
        assert kstest(z, "norm").pvalue > 0.01

    def test_gaussian_base_sample_is_its_quantile(self):
        g = GaussianBase([2.0, -1.0], [0.5, 2.0])
        u = np.random.default_rng(2).random((5, 2))
        assert np.array_equal(base_sample(g, u), g.mean + g.sigma * normal_from_uniform(u))


class TestUnnormalizedDensity:
    def test_zero_function_on_unit_box(self):
        assert unnormalized_density([0.2], 0.0, UniformBox.unit(1)) == pytest.approx(0.5)

    def test_saturates_to_base(self):
        box = UniformBox([0.0], [2.0])
        pi_val = math.exp(base_logpdf([1.0], box))
        assert unnormalized_density([1.0], 1e3, box) == pytest.approx(pi_val)

    def test_envelope_property(self):
        rng = np.random.default_rng(2)
        g = GaussianBase([0.0], [1.0])
        xs = rng.normal(size=10_000)
        gs = rng.normal(scale=5.0, size=10_000)
        dens = unnormalized_density(xs.reshape(-1, 1), gs, g)
        base = np.exp(base_logpdf(xs.reshape(-1, 1), g))
        assert np.all(dens <= base + 1e-15)


class TestHyperPrior:
    def test_peak_value_at_prior_location(self):
        priors = HyperPrior()
        theta = GpHyper(amplitude=math.exp(1.0), lengthscales=[math.exp(0.05)])
        peak = -math.log(0.5 * math.sqrt(2 * math.pi))
        lp = theta_logprior(theta, UniformBox.unit(1), priors)
        assert lp == pytest.approx(2 * peak, rel=1e-12)

    def test_negative_amplitude_rejected(self):
        priors = HyperPrior()
        theta = GpHyper(amplitude=1.0, lengthscales=[1.0])
        bad = object.__new__(GpHyper)
        object.__setattr__(bad, "amplitude", -1.0)
        object.__setattr__(bad, "lengthscales", np.array([1.0]))
        object.__setattr__(bad, "pin_location", None)
        object.__setattr__(bad, "mean", 0.0)
        assert theta_logprior(bad, UniformBox.unit(1), priors) == -math.inf
        assert hyperprior_logpdf(theta, UniformBox.unit(1), priors) > -math.inf

    def test_joint_factorizes(self):
        data = np.random.default_rng(3).normal(size=(20, 2))
        priors = HyperPrior.for_data(data, gaussian_base=True)
        theta = GpHyper(amplitude=2.0, lengthscales=[0.5, 0.9])
        psi = GaussianBase(data.mean(axis=0), data.std(axis=0))
        total = hyperprior_logpdf(theta, psi, priors)
        assert total == pytest.approx(
            theta_logprior(theta, psi, priors) + psi_logprior(psi, priors))

    def test_isotropic_counts_lengthscale_once(self):
        priors_iso = HyperPrior(isotropic=True)
        priors_ard = HyperPrior(isotropic=False)
        theta = GpHyper(amplitude=math.exp(1.0),
                        lengthscales=[math.exp(0.05), math.exp(0.05)])
        box = UniformBox.unit(2)
        peak = -math.log(0.5 * math.sqrt(2 * math.pi))
        assert theta_logprior(theta, box, priors_iso) == pytest.approx(2 * peak)
        assert theta_logprior(theta, box, priors_ard) == pytest.approx(3 * peak)


def walk_logpdf(theta_to: GpHyper, psi_to, theta_from: GpHyper, psi_from,
                scale: float, priors: HyperPrior) -> float:
    """Log density of ``propose_hypers`` moving (theta_from, psi_from) to
    (theta_to, psi_to): a normal step of sd ``scale`` in every walked
    coordinate, in log space for the positive ones."""
    def step(to, frm):
        return float(np.sum(norm.logpdf(to, loc=frm, scale=scale)))

    out = step(math.log(theta_to.amplitude), math.log(theta_from.amplitude))
    if priors.isotropic:
        out += step(math.log(theta_to.lengthscales[0]),
                    math.log(theta_from.lengthscales[0]))
    else:
        out += step(np.log(theta_to.lengthscales), np.log(theta_from.lengthscales))
    if priors.pin and theta_to.pin_location is not None:
        out += step(theta_to.pin_location, theta_from.pin_location)
    if isinstance(psi_to, GaussianBase):
        out += step(psi_to.mean, psi_from.mean)
        out += step(np.log(psi_to.sigma), np.log(psi_from.sigma))
    return out


class TestHyperWalk:
    def test_symmetric_proposal_logpdf(self):
        rng = np.random.default_rng(4)
        scale = 0.1
        priors = HyperPrior(base_mean=(np.zeros(1), np.ones(1)),
                            log_base_sigma=(np.zeros(1), np.ones(1)))
        theta = GpHyper(amplitude=1.3, lengthscales=[0.6])
        psi = GaussianBase([0.2], [1.1])
        for _ in range(20):
            theta_hat, psi_hat = propose_hypers(theta, psi, scale, priors, rng)
            fwd = walk_logpdf(theta_hat, psi_hat, theta, psi, scale, priors)
            rev = walk_logpdf(theta, psi, theta_hat, psi_hat, scale, priors)
            assert abs(fwd - rev) < 1e-12

    def test_isotropic_walk_keeps_lengthscales_tied(self):
        rng = np.random.default_rng(5)
        priors = HyperPrior(isotropic=True)
        theta = GpHyper(amplitude=1.0, lengthscales=[0.5, 0.5])
        for _ in range(10):
            theta_hat, _ = propose_hypers(theta, UniformBox.unit(2), 0.1, priors, rng)
            assert theta_hat.lengthscales[0] == pytest.approx(theta_hat.lengthscales[1])

    def test_proposals_stay_positive(self):
        rng = np.random.default_rng(6)
        priors = HyperPrior()
        theta = GpHyper(amplitude=0.01, lengthscales=[0.01])
        for _ in range(50):
            theta_hat, _ = propose_hypers(theta, UniformBox.unit(1), 2.0, priors, rng)
            assert theta_hat.amplitude > 0
            assert np.all(theta_hat.lengthscales > 0)
