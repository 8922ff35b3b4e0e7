"""GP primitives: kernels, jittered factorisation, conditioning, whitening."""
import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import kstest

import gpds.gp
from gpds.gp import (
    BASE_JITTER,
    CholeskyFactor,
    ConditionalSampler,
    GpHyper,
    IllConditionedCovariance,
    chol,
    conditional,
    kernel_matrix,
    log_prior_density,
)


def _separated_points(rng, n, dim, scale):
    """Random points whose first coordinate advances by ~one lengthscale per
    point, keeping the Gram matrix comfortably conditioned."""
    steps = scale * rng.uniform(0.7, 1.5, n)
    pts = rng.uniform(-1, 1, (n, dim))
    pts[:, 0] = np.cumsum(steps)
    return pts


def dense_lower(cs: ConditionalSampler) -> np.ndarray:
    """The sampler's factor L, unpacked to a dense lower triangle."""
    n = len(cs)
    out = np.zeros((n, n))
    out[np.tri(n, dtype=bool)] = cs.packed
    return out


def oracle_draw(cs: ConditionalSampler, query, state) -> np.ndarray:
    """What ``cs.draw_batch(query, rng)`` draws when rng is in ``state``:
    the from-scratch conditional mean plus the Cholesky factor of the
    conditional covariance, with the sampler's own jitter on its diagonal,
    times the same standard normals."""
    mean, cov = conditional(query, cs.points, cs.values, cs.hyper)
    cov[np.diag_indices(len(mean))] += cs.jitter
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return mean + chol(cov, 0.0).lower @ rng.standard_normal(len(mean))


def check_draw_batch(cs: ConditionalSampler, query, rng, tol: float) -> None:
    """``draw_batch`` against :func:`oracle_draw` from the same generator
    state."""
    state = rng.bit_generator.state
    g = cs.draw_batch(query, rng)
    assert np.abs(g - oracle_draw(cs, query, state)).max() < tol


def broadcast_se(X, Y, amplitude, lengthscales):
    """The squared-exponential kernel from one (n, m, D) difference tensor:
    the reference for the in-place ``_se_matrix``."""
    diff = (X[:, None, :] - Y[None, :, :]) / lengthscales
    return amplitude**2 * np.exp(-0.5 * np.einsum("ijk,ijk->ij", diff, diff))


def brute_force_conditional(query, cond_pts, cond_vals, hyper, jitter):
    """Independent oracle: explicit joint-covariance partitioning with a
    dense inverse (no Cholesky, no shared code path)."""
    q = np.atleast_2d(query)
    c = np.atleast_2d(cond_pts)
    K_cc = kernel_matrix(c, c, hyper) + jitter * np.eye(c.shape[0])
    K_qc = kernel_matrix(q, c, hyper)
    K_qq = kernel_matrix(q, q, hyper)
    K_inv = np.linalg.inv(K_cc)
    mean = K_qc @ K_inv @ np.asarray(cond_vals, dtype=float)
    cov = K_qq - K_qc @ K_inv @ K_qc.T
    return mean, cov


class TestCovariance:
    def test_zero_distance_gives_amplitude_squared(self):
        hyper = GpHyper(amplitude=2.0, lengthscales=[0.7, 1.3])
        assert kernel_matrix([0.1, -0.4], [0.1, -0.4], hyper)[0, 0] == pytest.approx(4.0)

    def test_unit_separation(self):
        hyper = GpHyper(amplitude=1.0, lengthscales=[1.0])
        assert kernel_matrix([0.0], [1.0], hyper)[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_pin_forces_zero_at_pin(self):
        hyper = GpHyper(amplitude=1.5, lengthscales=[0.5], pin_location=[0.3])
        for y in ([0.3], [0.9], [-2.0]):
            assert kernel_matrix([0.3], y, hyper)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        hyper = GpHyper(amplitude=1.2, lengthscales=[0.5, 0.8], pin_location=[0.1, 0.2])
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.normal(size=2), rng.normal(size=2)
            assert kernel_matrix(x, y, hyper)[0, 0] == pytest.approx(
                kernel_matrix(y, x, hyper)[0, 0], rel=1e-12)

    def test_dimension_mismatch_raises(self):
        hyper = GpHyper(amplitude=1.0, lengthscales=[1.0, 1.0])
        with pytest.raises(ValueError):
            kernel_matrix([0.0], [1.0], hyper)

    @pytest.mark.parametrize("dim, pin", [(1, False), (2, False), (1, True)],
                             ids=["1d", "2d-ard", "pinned"])
    def test_in_place_kernel_matches_broadcast(self, dim, pin):
        rng = np.random.default_rng(4 + dim)
        amp = 1.3
        ls = rng.uniform(0.1, 2.0, dim)
        X, Y = rng.uniform(-1, 1, (70, dim)), rng.uniform(-1, 1, (90, dim))
        x0 = rng.uniform(-1, 1, dim)
        hyper = GpHyper(amplitude=amp, lengthscales=ls,
                        pin_location=x0 if pin else None)
        ref = broadcast_se(X, Y, amp, ls)
        if pin:
            ref -= np.outer(broadcast_se(X, x0[None], amp, ls),
                            broadcast_se(Y, x0[None], amp, ls)) / amp**2
        out = kernel_matrix(X, Y, hyper)
        if dim == 1:
            assert np.array_equal(out, ref)
        else:
            assert np.abs(out - ref).max() <= 1e-15 * amp**2

    def test_psd_on_random_point_sets(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            dim = rng.integers(1, 4)
            amp = float(rng.uniform(0.3, 3.0))
            hyper = GpHyper(amplitude=amp, lengthscales=rng.uniform(0.2, 2.0, dim))
            pts = rng.normal(size=(int(rng.integers(2, 11)), dim))
            factor = chol(kernel_matrix(pts, pts, hyper), BASE_JITTER)
            assert factor.jitter <= 1e-4 * amp**2


class TestChol:
    def test_identity_zero_jitter(self):
        factor = chol(np.eye(3), 0.0)
        assert np.allclose(factor.lower, np.eye(3))
        assert factor.jitter == 0.0

    def test_scalar(self):
        factor = chol(np.array([[4.0]]), 0.0)
        assert factor.lower[0, 0] == pytest.approx(2.0)

    def test_rank_deficient_escalates(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        factor = chol(mat, 1e-8)
        assert factor.jitter > 0
        rebuilt = factor.lower @ factor.lower.T
        target = mat + factor.jitter * np.eye(2)
        rel = np.linalg.norm(rebuilt - target) / np.linalg.norm(target)
        assert rel < 1e-10

    def test_diag_positive(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        factor = chol(a @ a.T, 1e-8)
        assert np.all(np.diag(factor.lower) > 0)

    def test_cap_failure_raises(self):
        mat = -np.eye(3)  # negative definite stays so under any jitter <= cap
        with pytest.raises(IllConditionedCovariance):
            chol(mat, 1e-8)
        assert np.array_equal(mat, -np.eye(3))

    @pytest.mark.parametrize("n", [60, 230, 670])
    def test_matches_numpy_at_the_same_jitter(self, n):
        rng = np.random.default_rng(n)
        pts = _separated_points(rng, n, 2, 0.15)
        cov = kernel_matrix(pts, pts, GpHyper(amplitude=1.2, lengthscales=[0.4, 0.6]))
        factor = chol(cov)
        assert factor.jitter == pytest.approx(BASE_JITTER * 1.2**2, rel=1e-12)
        ref = np.linalg.cholesky(cov + factor.jitter * np.eye(n))
        assert np.linalg.norm(factor.lower - ref) / np.linalg.norm(ref) < 1e-10

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("base_jitter", [1e-8, 0.0], ids=["first-try", "escalated"])
    def test_input_unchanged_and_zeros_above_the_diagonal(self, order, base_jitter):
        # a repeated point makes the Gram matrix singular: at base jitter 0
        # the first try fails and the ladder escalates from the input
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.3])
        pts = np.array([[0.1], [0.4], [0.4], [0.9], [0.55]])
        cov = np.array(kernel_matrix(pts, pts, hyper), order=order)
        before = cov.copy()
        factor = chol(cov, base_jitter)
        assert factor.jitter == BASE_JITTER  # the unit diagonal scales nothing
        assert np.array_equal(cov, before)
        assert factor.lower.flags.f_contiguous
        assert np.all(factor.lower[np.triu_indices(5, 1)] == 0.0)
        ref = np.linalg.cholesky(cov + factor.jitter * np.eye(5))
        assert np.linalg.norm(factor.lower - ref) / np.linalg.norm(ref) < 1e-10

    def test_empty_matrix(self):
        factor = chol(np.empty((0, 0)))
        assert factor.lower.shape == (0, 0)
        assert factor.logdet() == 0.0
        assert factor.log_density(np.empty(0)) == 0.0


class TestConditional:
    def test_empty_cond_returns_prior(self):
        hyper = GpHyper(amplitude=1.3, lengthscales=[0.6])
        query = np.array([[0.0], [0.5]])
        mean, cov = conditional(query, np.empty((0, 1)), [], hyper)
        assert np.allclose(mean, 0.0)
        assert np.allclose(cov, kernel_matrix(query, query, hyper))

    def test_conditioning_on_query_point(self):
        hyper = GpHyper(amplitude=1.0, lengthscales=[1.0])
        mean, cov = conditional([[0.2]], [[0.2]], [1.0], hyper)
        assert mean[0] == pytest.approx(1.0, abs=1e-6)
        assert cov[0, 0] <= 2 * BASE_JITTER * 1.0**2 + 1e-12

    def test_two_point_correlation(self):
        # prior unit variances, correlation rho; conditioning on g(x1)=1
        # must give mean rho at x2 (2x2 joint-partition oracle)
        hyper = GpHyper(amplitude=1.0, lengthscales=[1.0])
        x1, x2 = 0.0, 0.8
        rho = kernel_matrix([x1], [x2], hyper)[0, 0]
        mean, _ = conditional([[x2]], [[x1]], [1.0], hyper)
        assert mean[0] == pytest.approx(rho, abs=1e-7)

    def test_against_brute_force_oracle(self):
        # 100 random instances of up to 6 conditioning points, vs explicit
        # partitioned-inverse oracle; max abs error < 1e-8.  Points keep a
        # minimum separation so both routes operate away from singularity
        # (near-coincident behaviour is covered by the jitter tests).
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(1, 3))
            hyper = GpHyper(amplitude=float(rng.uniform(0.5, 2.0)),
                            lengthscales=rng.uniform(0.3, 1.5, dim))
            n_cond = int(rng.integers(1, 7))
            pts = _separated_points(rng, n_cond, dim, float(hyper.lengthscales.max()))
            vals = rng.normal(size=n_cond)
            query = rng.uniform(-1, 1, (3, dim))
            mean, cov = conditional(query, pts, vals, hyper)
            factor = chol(kernel_matrix(pts, pts, hyper), BASE_JITTER)
            mean_o, cov_o = brute_force_conditional(query, pts, vals, hyper, factor.jitter)
            worst = max(worst, np.abs(mean - mean_o).max(), np.abs(cov - cov_o).max())
        assert worst < 1e-8

    def test_with_mean_function(self):
        hyper = GpHyper(amplitude=0.8, lengthscales=[0.5], mean=2.0)
        mean, _ = conditional([[0.0]], np.empty((0, 1)), [], hyper)
        assert mean[0] == pytest.approx(2.0)
        mean_fn = lambda x: np.sin(x[:, 0])
        mean, _ = conditional([[0.5]], np.empty((0, 1)), [], hyper.with_(mean=mean_fn))
        assert mean[0] == pytest.approx(math.sin(0.5))


class TestSampleConditional:
    def test_degenerate_amplitude_returns_mean(self):
        hyper = GpHyper(amplitude=0.0, lengthscales=[1.0], mean=3.0)
        rng = np.random.default_rng(0)
        draw = ConditionalSampler(hyper).draw_batch([[0.1], [0.9]], rng)
        assert np.allclose(draw, 3.0)

    def test_seed_determinism(self):
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.4])
        a = ConditionalSampler(hyper, [[0.0]], [0.5]).draw_batch(
            [[0.3], [0.7]], np.random.default_rng(11))
        b = ConditionalSampler(hyper, [[0.0]], [0.5]).draw_batch(
            [[0.3], [0.7]], np.random.default_rng(11))
        assert np.array_equal(a, b)

    @pytest.mark.slow
    def test_monte_carlo_moments_match_conditional(self):
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.6])
        pts, vals = [[0.0], [1.0]], [1.0, -0.5]
        query = np.array([[0.3], [0.6]])
        mean, cov = conditional(query, pts, vals, hyper)
        rng = np.random.default_rng(5)
        n = 100_000
        sampler = ConditionalSampler(hyper, pts, vals)
        draws = np.empty((n, 2))
        for i in range(n):
            draws[i] = sampler.draw_batch(query, rng)
        # spot-check that samplers built afresh agree with the reused one
        for i in range(2_000):
            draws[i] = ConditionalSampler(hyper, pts, vals).draw_batch(query, rng)
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se_mean)
        emp_cov = np.cov(draws.T)
        # var of a sample covariance entry ~ (s_ii s_jj + s_ij^2) / n
        for i in range(2):
            for j in range(2):
                se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(emp_cov[i, j] - cov[i, j]) < 3 * se + 1e-7


class TestRetrospectiveConsistency:
    @pytest.mark.slow
    def test_sequential_matches_joint(self):
        # sampling at A then B (conditioning on A's draw, via the incremental
        # engine the algorithms actually use) must match sampling A u B
        # jointly: two-sample moment comparison at 3 sigma
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.5])
        a, b = np.array([0.2]), np.array([0.7])
        both = np.array([[0.2], [0.7]])
        rng = np.random.default_rng(8)
        n = 10_000
        seq = np.empty((n, 2))
        joint = np.empty((n, 2))
        for i in range(n):
            cs = ConditionalSampler(hyper)
            seq[i] = [cs.draw_append(a, rng.standard_normal()),
                      cs.draw_append(b, rng.standard_normal())]
            joint[i] = ConditionalSampler(hyper).draw_batch(both, rng)
        for col in range(2):
            se = math.sqrt(seq[:, col].var() / n + joint[:, col].var() / n)
            assert abs(seq[:, col].mean() - joint[:, col].mean()) < 3 * se
        c_seq = np.cov(seq.T)[0, 1]
        c_joint = np.cov(joint.T)[0, 1]
        se = math.sqrt(2.0 * (1 + c_seq**2) / n)
        assert abs(c_seq - c_joint) < 3 * se

    def test_pinned_draws_vanish_at_pin(self):
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.5], pin_location=[0.4])
        rng = np.random.default_rng(9)
        jitter_scale = math.sqrt(BASE_JITTER)
        sampler = ConditionalSampler(hyper, [[0.0], [0.9]], [0.8, -1.1])
        for _ in range(200):
            g = sampler.draw_batch([[0.4]], rng)
            assert abs(g[0]) < 6 * jitter_scale


class TestLogPriorDensity:
    def test_single_standard_point(self):
        hyper = GpHyper(amplitude=1.0, lengthscales=[1.0])
        lp = log_prior_density([0.0], [[0.3]], hyper)
        assert lp == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-7)

    def test_far_points_factorize(self):
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.1])
        lp_joint = log_prior_density([0.4, -0.2], [[0.0], [100.0]], hyper)
        lp_split = (log_prior_density([0.4], [[0.0]], hyper)
                    + log_prior_density([-0.2], [[100.0]], hyper))
        assert lp_joint == pytest.approx(lp_split, abs=1e-6)

    def test_translation_invariance(self):
        hyper = GpHyper(amplitude=1.3, lengthscales=[0.4])
        pts = np.array([[0.0], [0.5], [1.0]])
        vals = np.array([0.2, -0.1, 0.7])
        base = log_prior_density(vals, pts, hyper)
        shifted = log_prior_density(vals + 5.0, pts, hyper.with_(mean=5.0))
        assert shifted == pytest.approx(base, abs=1e-9)


class TestWhitening:
    def test_prior_mean_maps_to_zero(self):
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.5], mean=1.5)
        pts = np.array([[0.0], [0.4], [0.9]])
        assert np.allclose(ConditionalSampler(hyper, pts, np.full(3, 1.5)).whitened, 0.0)

    def test_round_trip(self):
        hyper = GpHyper(amplitude=1.4, lengthscales=[0.3])
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 1, (5, 1))
        vals = rng.normal(size=5)
        whitened = ConditionalSampler(hyper, pts, vals).whitened
        back = ConditionalSampler(hyper, pts, np.zeros(5))
        back.set_whitened(whitened)
        assert np.max(np.abs(back.values - vals)) < 1e-10

    @pytest.mark.slow
    def test_whitened_prior_draws_are_standard_normal(self):
        # prior draws generated point-by-point through the incremental
        # engine, whitened through a factor built from scratch: cross-path
        # consistency
        # plus the distributional contract
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.5])
        pts = np.array([[0.0], [0.3], [0.8]])
        rng = np.random.default_rng(13)
        n = 10_000
        ws = np.empty((n, 3))
        for i in range(n):
            cs = ConditionalSampler(hyper)
            draw = np.array([cs.draw_append(p, rng.standard_normal()) for p in pts])
            ws[i] = ConditionalSampler(hyper, pts, draw).whitened
        for col in range(3):
            assert kstest(ws[:, col], "norm").pvalue > 0.01


class TestConditionalSampler:
    def test_incremental_matches_batch(self):
        hyper = GpHyper(amplitude=1.1, lengthscales=[0.4, 0.7])
        rng = np.random.default_rng(20)
        cs = ConditionalSampler(hyper)
        pts = rng.uniform(-1, 1, (8, 2))
        vals = np.array([cs.draw_append(p, rng.standard_normal()) for p in pts])
        query = rng.uniform(-1, 1, (4, 2))
        m2, _ = conditional(query, pts, vals, hyper)
        assert np.abs(cs.mean(query) - m2).max() < 1e-9
        check_draw_batch(cs, query, rng, 1e-9)

    def test_delete_matches_rebuild(self):
        hyper = GpHyper(amplitude=0.9, lengthscales=[0.5])
        rng = np.random.default_rng(21)
        pts = _separated_points(rng, 7, 1, 0.5)
        vals = rng.normal(size=7)
        cs = ConditionalSampler(hyper, pts, vals)
        cs.delete(2)
        cs.delete(4)  # row 4 of the shrunk set = original row 5
        keep = [0, 1, 3, 4, 6]
        ref = ConditionalSampler(hyper, pts[keep], vals[keep])
        q = np.array([[0.42], [0.9]])
        assert np.abs(cs.mean(q) - ref.mean(q)).max() < 1e-9
        assert np.array_equal(cs.points, ref.points)
        check_draw_batch(cs, q, rng, 1e-9)

    def test_duplicate_point_variance_at_jitter_scale(self):
        # a duplicate's pivot is the root of its conditional variance, jitter
        # included, which bottoms out at jitter scale
        hyper = GpHyper(amplitude=2.0, lengthscales=[0.5])
        cs = ConditionalSampler(hyper)
        cs.append([0.5], 1.0)
        for n in (1, 2):  # duplicates allowed
            _, cov = conditional([[0.5]], cs.points, cs.values, hyper)
            assert cov[0, 0] + cs.jitter <= 3 * cs.jitter
            cs.append([0.5], 1.0)
            assert dense_lower(cs)[n, n] ** 2 <= 3 * cs.jitter

    @pytest.mark.parametrize("amplitude", [1.3, 0.0])
    def test_draw_records_nothing_and_draw_append_keeps_its_value(self, amplitude):
        hyper = GpHyper(amplitude=amplitude, lengthscales=[0.4, 0.6])
        rng = np.random.default_rng(24)
        cs = ConditionalSampler(hyper)
        for p in rng.uniform(0, 1, (64, 2)):  # fills the buffer: draw must grow it
            cs.draw_append(p, rng.standard_normal())
        fields = ("points", "values") + (() if cs.degenerate else ("packed", "whitened"))
        before = {f: getattr(cs, f).copy() for f in fields}
        x = np.array([0.3, 0.7])
        mean, cov = conditional(x[None], cs.points, cs.values, hyper)
        mu, var = mean[0], cov[0, 0] + cs.jitter
        z = rng.standard_normal()
        g = cs.draw(x, z)
        assert len(cs) == 64
        for f in fields:
            assert np.array_equal(getattr(cs, f), before[f])
        # the oracle refactorises 64 close points, which moves the value by
        # a few 1e-12
        assert g == pytest.approx(mu + math.sqrt(var) * z, abs=1e-9)
        assert cs.draw_append(x, z) == g
        assert len(cs) == 65 and cs.values[64] == g

    def test_build_from_points_matches_appends_and_factor(self):
        # a build from points starts at the same jitter as an empty
        # sampler, BASE_JITTER * amplitude^2, and so does a factor adopted
        # from chol at that scale, as the hyper moves compute it
        hyper = GpHyper(amplitude=1.3, lengthscales=[0.4, 0.6], mean=0.2)
        rng = np.random.default_rng(25)
        pts = _separated_points(rng, 30, 2, 0.4)
        vals = rng.normal(size=30)
        built = ConditionalSampler(hyper, pts, vals)
        grown = ConditionalSampler(hyper)
        for p, v in zip(pts, vals):
            grown.append(p, v)
        factor = chol(kernel_matrix(pts, pts, hyper), scale=hyper.amplitude**2)
        adopted = ConditionalSampler(hyper, pts, vals, factor=factor)
        assert built.jitter == adopted.jitter == factor.jitter == grown.jitter
        assert built.jitter == BASE_JITTER * hyper.amplitude**2
        for other in (grown, adopted):
            assert np.array_equal(built.points, other.points)
            assert np.array_equal(built.values, other.values)
            assert np.abs(built.packed - other.packed).max() < 1e-12
            assert np.abs(built.whitened - other.whitened).max() < 1e-12
        assert np.array_equal(built.packed, factor.lower[np.tri(30, dtype=bool)])

    def test_set_whitened_updates_values(self):
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.4], mean=0.3)
        rng = np.random.default_rng(22)
        pts = rng.uniform(0, 1, (5, 1))
        cs = ConditionalSampler(hyper, pts, rng.normal(size=5))
        packed = cs.packed.copy()
        v = rng.normal(size=5)
        cs.set_whitened(v)
        assert np.array_equal(cs.whitened, v)
        assert np.allclose(cs.values, dense_lower(cs) @ v + 0.3)
        resid = cs.values - cs.prior_mean_vec
        assert np.allclose(solve_triangular(dense_lower(cs), resid, lower=True), v)
        assert np.array_equal(cs.packed, packed)  # the factor is untouched
        cs.set_whitened(np.zeros(5))
        assert np.allclose(cs.values, cs.prior_mean_vec)
        with pytest.raises(ValueError):
            cs.set_whitened(np.zeros(4))

    def test_cholesky_factor_invariant(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 6))
        mat = a @ a.T
        factor = chol(mat, 1e-8)
        assert isinstance(factor, CholeskyFactor)
        rebuilt = factor.lower @ factor.lower.T
        target = mat + factor.jitter * np.eye(6)
        assert np.linalg.norm(rebuilt - target) / np.linalg.norm(target) < 1e-10


class TestMean:
    """``mean`` against the from-scratch oracle's conditional mean."""

    @pytest.mark.parametrize("hyper", [
        GpHyper(amplitude=1.1, lengthscales=[0.3, 0.7], mean=0.3),
        GpHyper(amplitude=0.9, lengthscales=[0.2], pin_location=[0.4], mean=1.2),
    ], ids=["2d-ard", "pinned"])
    def test_matches_oracle(self, hyper):
        rng = np.random.default_rng(33)
        cs = ConditionalSampler(hyper)
        n = 80
        cs.draw_append_block(rng.uniform(0, 1, (n, hyper.dim)), rng.standard_normal(n))
        query = rng.uniform(0, 1, (200, hyper.dim))
        # the oracle's jitter is relative to the Gram matrix's mean diagonal,
        # which a pin lowers; give it the sampler's absolute jitter, which
        # moves a mean at 80 close points by up to 7e-6
        scale = np.mean(np.diag(kernel_matrix(cs.points, cs.points, hyper)))
        m_ref, _ = conditional(query, cs.points, cs.values, hyper,
                               base_jitter=cs.jitter / scale)
        assert np.abs(cs.mean(query) - m_ref).max() < 1e-9 * np.abs(m_ref).max()

    def test_pinned_build_and_growth_share_one_jitter(self):
        # a pinned realisation grown from empty and one built from its
        # points have one jitter, BASE_JITTER * amplitude^2, so one model:
        # their means agree to rounding, where a jitter relative to the
        # pin-lowered mean diagonal moves them by up to 7e-6
        hyper = GpHyper(amplitude=0.9, lengthscales=[0.2], pin_location=[0.4], mean=1.2)
        rng = np.random.default_rng(33)
        grown = ConditionalSampler(hyper)
        grown.draw_append_block(rng.uniform(0, 1, (80, 1)), rng.standard_normal(80))
        built = ConditionalSampler(hyper, grown.points, grown.values)
        assert built.jitter == grown.jitter == BASE_JITTER * hyper.amplitude**2
        query = rng.uniform(0, 1, (200, 1))
        m_ref = grown.mean(query)
        assert np.abs(built.mean(query) - m_ref).max() < 1e-9 * np.abs(m_ref).max()

    def test_empty_sampler_is_the_prior_mean(self):
        hyper = GpHyper(amplitude=1.1, lengthscales=[0.3], pin_location=[0.5], mean=2.0)
        query = np.linspace(0, 1, 7)[:, None]
        m_ref, _ = conditional(query, np.empty((0, 1)), [], hyper)
        assert np.array_equal(ConditionalSampler(hyper).mean(query), m_ref)

    def test_degenerate_sampler_is_the_mean_function(self):
        hyper = GpHyper(amplitude=0.0, lengthscales=[1.0, 1.0], mean=lambda x: x[:, 0] - x[:, 1])
        rng = np.random.default_rng(34)
        cs = ConditionalSampler(hyper)
        cs.draw_append_block(rng.uniform(0, 1, (5, 2)), rng.standard_normal(5))
        query = rng.uniform(0, 1, (6, 2))
        m_ref, _ = conditional(query, cs.points, cs.values, hyper)
        assert np.array_equal(cs.mean(query), m_ref)
        assert np.array_equal(cs.mean(query), query[:, 0] - query[:, 1])


class TestDrawAppendBlock:
    """The block draw against k sequential draw_append calls that take the
    same standard normals."""

    HYPER = GpHyper(amplitude=1.2, lengthscales=[0.3, 0.6], mean=0.5)

    @staticmethod
    def sequential(cs, X, z):
        """draw_append at each row of X, fed the normals z in turn."""
        return np.array([cs.draw_append(x, zi) for x, zi in zip(X, z)])

    # (520, 100): a block wider than MAX_BLOCK, as continue_sampler draws
    # past 520 rows
    @pytest.mark.parametrize("start, k", [(0, 1), (0, 40), (30, 5), (90, 64), (520, 100)])
    def test_matches_sequential(self, start, k):
        rng = np.random.default_rng(start + k)
        base = ConditionalSampler(self.HYPER)
        self.sequential(base, rng.uniform(0, 1, (start, 2)), rng.standard_normal(start))
        X, z = rng.uniform(0, 1, (k, 2)), rng.standard_normal(k)
        block, seq = base.copy(), base.copy()
        g = block.draw_append_block(X, z)
        g_seq = self.sequential(seq, X, z)
        assert len(block) == start + k
        assert np.abs(g - g_seq).max() < 1e-8 * np.abs(g_seq).max()
        assert np.array_equal(block.points, seq.points)
        assert np.array_equal(block.values[:start], seq.values[:start])
        assert np.array_equal(block.values[start:], g)
        assert np.array_equal(block.whitened[start:], z)
        assert np.abs(block.packed - seq.packed).max() < 1e-9
        assert block.jitter == seq.jitter
        L = dense_lower(block)
        target = kernel_matrix(X, X, self.HYPER) + block.jitter * np.eye(k)
        assert np.abs((L @ L.T)[start:, start:] - target).max() < 1e-10

    @pytest.mark.parametrize("X", [[[0.2], [0.2]], [[0.2 + 2e-9], [0.7]]],
                             ids=["coincident", "near"])
    def test_pivot_floor_falls_back_to_sequential(self, monkeypatch, X):
        # a factor built without jitter, queried at (or 2e-8 lengthscales
        # from) its own point: the conditional variance is zero, which
        # fails the block's Cholesky, or about 4e-16, which passes it with
        # a pivot below the floor (the near block's second point is far
        # from both)
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.1])
        pts = np.array([[0.2]])
        factor = chol(kernel_matrix(pts, pts, hyper), base_jitter=0.0)
        assert factor.jitter == 0.0
        base = ConditionalSampler(hyper, pts, [0.3], factor=factor)
        X = np.array(X)
        z = np.random.default_rng(31).standard_normal(len(X))
        blocks, single = [], []
        original = ConditionalSampler._add_rows

        def spy(self, X, z=None, values=None, A=None, M=None):
            (single if len(X) == 1 else blocks).extend(z)
            return original(self, X, z, values, A, M)

        monkeypatch.setattr(ConditionalSampler, "_add_rows", spy)
        block, seq = base.copy(), base.copy()
        g = block.draw_append_block(X, z)
        # the block was tried once, then each point added on its own
        assert blocks == list(z) and single == list(z)
        g_seq = self.sequential(seq, X, z)
        assert np.array_equal(g, g_seq)
        assert np.array_equal(block.values, seq.values)
        assert np.array_equal(block.packed, seq.packed)
        assert np.array_equal(block.whitened, seq.whitened)

    def test_one_point_is_the_one_point_draw(self):
        rng = np.random.default_rng(35)
        base = ConditionalSampler(self.HYPER)
        base.draw_append_block(rng.uniform(0, 1, (30, 2)), rng.standard_normal(30))
        x, z = rng.uniform(0, 1, 2), rng.standard_normal()
        block, one = base.copy(), base.copy()
        g = block.draw_append_block([x], [z])
        assert one.draw(x, z) == g[0] and len(one) == 30
        assert one.draw_append(x, z) == g[0]
        for a, b in [(block.points, one.points), (block.values, one.values),
                     (block.packed, one.packed), (block.whitened, one.whitened)]:
            assert np.array_equal(a, b)

    def test_empty_block_is_a_no_op(self):
        rng = np.random.default_rng(36)
        cs = ConditionalSampler(self.HYPER)
        cs.draw_append_block(rng.uniform(0, 1, (5, 2)), rng.standard_normal(5))
        before = cs.copy()
        g = cs.draw_append_block(np.empty((0, 2)), [])
        assert g.shape == (0,) and len(cs) == 5
        for a, b in [(cs.points, before.points), (cs.values, before.values),
                     (cs.packed, before.packed), (cs.whitened, before.whitened)]:
            assert np.array_equal(a, b)
        assert cs.draw_batch(np.empty((0, 2)), rng).shape == (0,)

    def test_degenerate_records_the_mean(self):
        hyper = GpHyper(amplitude=0.0, lengthscales=[1.0], mean=lambda x: 2 * x[:, 0])
        cs = ConditionalSampler(hyper)
        g = cs.draw_append_block([[0.1], [0.4]], [5.0, -5.0])
        assert np.array_equal(g, [0.2, 0.8])
        assert np.array_equal(cs.values, [0.2, 0.8])

    def test_one_normal_per_point(self):
        with pytest.raises(ValueError):
            ConditionalSampler(self.HYPER).draw_append_block(np.zeros((3, 2)), [0.0, 1.0])

    def test_truncate_keeps_the_leading_factor(self):
        rng = np.random.default_rng(32)
        cs = ConditionalSampler(self.HYPER)
        cs.draw_append_block(rng.uniform(0, 1, (20, 2)), rng.standard_normal(20))
        packed = cs.packed.copy()
        cs.truncate(12)
        assert len(cs) == 12
        assert np.array_equal(cs.packed, packed[: 12 * 13 // 2])
        ref = ConditionalSampler(self.HYPER, cs.points, cs.values)
        assert np.abs(dense_lower(cs) - dense_lower(ref)).max() < 1e-10
        with pytest.raises(IndexError):
            cs.truncate(13)


class TestCopyLeadingRows:
    HYPER = GpHyper(amplitude=1.2, lengthscales=[0.4, 0.7], mean=-0.3)
    FIELDS = ("points", "values", "prior_mean_vec", "packed", "whitened")

    def grown(self, seed: int) -> ConditionalSampler:
        """30 rows: 8 built from points, 22 drawn."""
        rng = np.random.default_rng(seed)
        cs = ConditionalSampler(self.HYPER, rng.uniform(0, 1, (8, 2)), rng.normal(size=8))
        cs.draw_append_block(rng.uniform(0, 1, (22, 2)), rng.standard_normal(22))
        return cs

    @pytest.mark.parametrize("k", [0, 1, 13, 30])
    def test_is_a_truncated_full_copy_bit_for_bit(self, k):
        cs = self.grown(40)
        want = cs.copy()
        want.truncate(k)
        got = cs.copy(rows=k)
        assert len(got) == k
        assert got.hyper is cs.hyper and got.jitter == want.jitter
        for f in self.FIELDS:
            assert np.array_equal(getattr(got, f), getattr(want, f))

    def test_growing_the_copy_leaves_the_original(self):
        cs = self.grown(41)
        before = {f: getattr(cs, f).copy() for f in self.FIELDS}
        dup = cs.copy(rows=12)
        rng = np.random.default_rng(1)
        # rows 12.. of the copy are new, and 100 rows outgrow its capacity
        dup.draw_append_block(rng.uniform(0, 1, (100, 2)), rng.standard_normal(100))
        dup.set_whitened(rng.normal(size=len(dup)))
        assert len(cs) == 30
        for f in self.FIELDS:
            assert np.array_equal(getattr(cs, f), before[f])

    @pytest.mark.parametrize("rows", [-1, 31])
    def test_rows_out_of_range_are_refused(self, rows):
        with pytest.raises(IndexError):
            self.grown(42).copy(rows=rows)

    def test_degenerate_sampler(self):
        hyper = GpHyper(amplitude=0.0, lengthscales=[1.0], mean=0.5)
        cs = ConditionalSampler(hyper)
        cs.draw_append_block([[0.1], [0.4], [0.9]], [0.0, 0.0, 0.0])
        dup = cs.copy(rows=2)
        assert dup.degenerate and np.array_equal(dup.points, [[0.1], [0.4]])
        assert np.array_equal(dup.values, [0.5, 0.5])


class TestGpHyperValidation:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            GpHyper(amplitude=-1.0, lengthscales=[1.0])

    def test_nonpositive_lengthscale_rejected(self):
        with pytest.raises(ValueError):
            GpHyper(amplitude=1.0, lengthscales=[0.0])

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError):
            GpHyper(amplitude=float("nan"), lengthscales=[1.0])

    def test_nan_lengthscale_rejected(self):
        with pytest.raises(ValueError):
            GpHyper(amplitude=1.0, lengthscales=[0.5, float("nan")])

    def test_pin_needs_positive_amplitude(self):
        with pytest.raises(ValueError):
            GpHyper(amplitude=0.0, lengthscales=[1.0], pin_location=[0.0])


class TestDelete:
    """``delete`` against the from-scratch oracle: the Cholesky factor of
    the Gram matrix the remaining rows stand for.

    That matrix is ``kernel_matrix + jitter I`` plus, on the diagonal, any
    excess of a pivot clamped at ``_pivot_floor``, read off the factor
    before the delete.  Where the Gram matrix is near-singular, the factor
    is compared by its product and the whitened values by their residual,
    because the oracle's own entries are then no more accurate than that.
    """

    @staticmethod
    def gram(cs: ConditionalSampler) -> np.ndarray:
        """The matrix the sampler's factor stands for."""
        L = dense_lower(cs)
        K = kernel_matrix(cs.points, cs.points, cs.hyper) + cs.jitter * np.eye(len(cs))
        excess = np.diag(L @ L.T) - np.diag(K)
        return K + np.diag(excess)

    def delete_and_check(self, cs: ConditionalSampler, row: int,
                         forward: bool = True) -> ConditionalSampler:
        G = self.gram(cs)
        keep = np.delete(np.arange(len(cs)), row)
        resid = (cs.values - cs.prior_mean_vec)[keep]
        # rounding in the whitened values scales with |L| |w|, before and after
        scale = (np.abs(dense_lower(cs)) @ np.abs(cs.whitened))[keep]
        head = (cs.points[:row].copy(), cs.packed[: row * (row + 1) // 2].copy(),
                cs.whitened[:row].copy())
        out = cs.copy()
        out.delete(row)
        G = G[np.ix_(keep, keep)]
        L = dense_lower(out)
        assert np.all(np.diag(L) > 0)
        assert np.abs(L @ L.T - G).max() < 1e-13 * np.abs(G).max()
        w = out.whitened
        scale += np.abs(L) @ np.abs(w)
        assert np.all(np.abs(L @ w - resid) <= 1e-13 * scale)
        assert np.array_equal(out.points, cs.points[keep])
        assert np.array_equal(out.values, cs.values[keep])
        # the rows above the deleted one are left as they were
        for a, b in zip(head, (out.points[:row], out.packed[: row * (row + 1) // 2],
                               out.whitened[:row])):
            assert np.array_equal(a, b)
        if forward:
            oracle = chol(G, 0.0)
            assert np.abs(L - oracle.lower).max() < 1e-10 * np.abs(oracle.lower).max()
            w_ref = oracle.solve_lower(resid)
            assert np.abs(w - w_ref).max() < 1e-8 * max(1.0, np.abs(w_ref).max())
        return out

    def test_rank_one_restore_matches_refactorisation(self):
        # deleting row 0 refactorises the whole trailing 29 x 29 block,
        # whose column 0 was dense
        rng = np.random.default_rng(8)
        hyper = GpHyper(amplitude=1.1, lengthscales=[0.8, 1.7])
        pts = _separated_points(rng, 30, 2, 0.6)
        cs = ConditionalSampler(hyper, pts, rng.normal(size=30))
        assert np.all(dense_lower(cs)[1:, 0] != 0)
        out = self.delete_and_check(cs, 0)
        ref = chol(kernel_matrix(pts[1:], pts[1:], hyper) + cs.jitter * np.eye(29), 0.0)
        assert np.abs(dense_lower(out) - ref.lower).max() < 1e-12

    def test_update_lands_in_the_packed_buffer(self):
        # the restored rows are written into the sampler's own storage: a
        # copy taken before is untouched, and growing afterwards conditions
        # on the restored factor
        rng = np.random.default_rng(9)
        hyper = GpHyper(amplitude=0.9, lengthscales=[0.5])
        pts = _separated_points(rng, 12, 1, 0.4)
        cs = ConditionalSampler(hyper, pts, rng.normal(size=12))
        before = cs.copy()
        packed = cs.packed.copy()
        cs.delete(4)
        assert np.array_equal(before.packed, packed)
        assert not np.array_equal(cs.packed, packed[: 11 * 12 // 2])
        x = pts[7] + 0.05
        mean, cov = conditional(x[None], cs.points, cs.values, hyper)
        cs.append(x, 0.3)
        d = dense_lower(cs)[-1, -1]
        assert d**2 == pytest.approx(cov[0, 0] + cs.jitter, rel=1e-10)
        assert cs.whitened[-1] == pytest.approx((0.3 - mean[0]) / d, rel=1e-10)
        self.delete_and_check(cs, len(cs) - 2)

    def test_every_row_position(self):
        # a history-chain layout: data rows first, then the rejections;
        # covers the first row, the first rejection row and the last row
        rng = np.random.default_rng(10)
        hyper = GpHyper(amplitude=1.3, lengthscales=[0.6], mean=0.4)
        n_data, n_rej = 9, 7
        pts = _separated_points(rng, n_data + n_rej, 1, 0.5)
        cs = ConditionalSampler(hyper, pts[:n_data], rng.normal(size=n_data))
        cs.draw_append_block(pts[n_data:], rng.standard_normal(n_rej))
        for row in range(len(cs)):
            self.delete_and_check(cs, row)
        # one after another down to a single point
        while len(cs) > 1:
            cs = self.delete_and_check(cs, int(rng.integers(len(cs))))

    def test_near_coincident_points_at_the_pivot_floor(self):
        # a factor adopted without jitter has the smallest floor; a point
        # 1e-9 or 1e-10 away from a stored one is clamped to it
        rng = np.random.default_rng(11)
        hyper = GpHyper(amplitude=1.3, lengthscales=[0.3])
        pts = np.linspace(0.0, 3.0, 8)[:, None]
        factor = chol(kernel_matrix(pts, pts, hyper), 0.0)
        assert factor.jitter == 0.0
        cs = ConditionalSampler(hyper, pts, rng.normal(size=8), factor=factor)
        for x, g in ((pts[3] + 1e-9, 0.3), ([1.7], 0.1), (pts[5] - 1e-10, -0.2),
                     ([2.5], 0.0)):
            cs.append(x, g)
        d2 = np.diag(dense_lower(cs)) ** 2
        assert d2[[8, 10]] == pytest.approx(cs._pivot_floor(), rel=1e-12)
        for row in range(len(cs)):
            self.delete_and_check(cs, row, forward=False)

    def test_pinned_kernel_with_a_point_at_the_pin(self):
        # the point at the pin has prior variance 0: its pivot is the
        # jitter's square root and its column below is exactly 0, so
        # deleting it leaves the trailing block's Schur complement as it was
        rng = np.random.default_rng(12)
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.4], pin_location=[0.5])
        pts = np.array([[0.1], [0.3], [0.5], [0.8], [0.95], [0.62]])
        cs = ConditionalSampler(hyper)
        cs.draw_append_block(pts, rng.standard_normal(6))
        L = dense_lower(cs)
        assert L[2, 2] == pytest.approx(math.sqrt(cs.jitter))
        assert np.all(L[3:, 2] == 0.0)
        for row in range(len(cs)):
            self.delete_and_check(cs, row)

    def test_amplitude_below_the_jitter_floor(self):
        # amplitude 1e-3: the jitter 1e-14 is below the 1e-12 floor cap,
        # so the floor is the jitter itself
        rng = np.random.default_rng(13)
        hyper = GpHyper(amplitude=1e-3, lengthscales=[0.3])
        cs = ConditionalSampler(hyper)
        cs.draw_append_block(_separated_points(rng, 12, 1, 0.25), rng.standard_normal(12))
        assert cs.jitter < 1e-12 and cs._pivot_floor() == cs.jitter
        for row in range(len(cs)):
            self.delete_and_check(cs, row)

    def test_two_dimensional_ard(self):
        rng = np.random.default_rng(14)
        hyper = GpHyper(amplitude=0.8, lengthscales=[0.3, 1.5], mean=-0.1)
        cs = ConditionalSampler(hyper)
        cs.draw_append_block(_separated_points(rng, 14, 2, 0.3), rng.standard_normal(14))
        for row in range(len(cs)):
            self.delete_and_check(cs, row)


    def test_near_duplicate_points(self):
        # three points 1e-6 lengthscales from another: their conditional
        # variance is little more than the jitter.  Deleting the first, a
        # middle and the last row leaves the factor, the whitened values and
        # the log density of the oracle rebuilt at the sampler's jitter
        rng = np.random.default_rng(15)
        hyper = GpHyper(amplitude=1.1, lengthscales=[0.3], mean=0.2)
        base = _separated_points(rng, 10, 1, 0.3)
        d = 1e-6 * 0.3
        pts = np.vstack([base[0] + d, base[:5], base[4] - d, base[5:], base[9] + d])
        n = len(pts)
        cs = ConditionalSampler(hyper)
        cs.draw_append_block(pts, rng.standard_normal(n))
        for row in (0, n // 2, n - 1):
            out = cs.copy()
            out.delete(row)
            keep = np.delete(np.arange(n), row)
            P = pts[keep]
            oracle = chol(kernel_matrix(P, P, hyper) + cs.jitter * np.eye(n - 1), 0.0)
            resid = cs.values[keep] - cs.prior_mean_vec[keep]
            w_ref = oracle.solve_lower(resid)
            assert np.abs(dense_lower(out) - oracle.lower).max() < 1e-10
            assert np.abs(out.whitened - w_ref).max() < 1e-8 * np.abs(w_ref).max()
            assert out.log_density() == pytest.approx(oracle.log_density(resid),
                                                      abs=1e-8 * (w_ref @ w_ref))

class TestCompact:
    """``compact`` against the from-scratch oracle: the Cholesky factor of
    the jittered Gram matrix at the kept points, and a dense solve for their
    whitened values."""

    HYPER = GpHyper(amplitude=1.2, lengthscales=[0.5, 0.8], mean=0.3)

    def sampler(self, rng, n=30, hyper=HYPER):
        cs = ConditionalSampler(hyper)
        cs.draw_append_block(_separated_points(rng, n, hyper.dim, 0.4),
                             rng.standard_normal(n))
        return cs

    @staticmethod
    def compact_and_check(cs: ConditionalSampler, prefix: int, rows) -> ConditionalSampler:
        keep = np.concatenate([np.arange(prefix), np.asarray(rows, dtype=int)])
        out = cs.copy()
        out.compact(prefix, rows)
        assert np.array_equal(out.points, cs.points[keep])
        assert np.array_equal(out.values, cs.values[keep])
        assert np.array_equal(out.prior_mean_vec, cs.prior_mean_vec[keep])
        assert out.jitter == cs.jitter
        # the prefix keeps its factor rows and whitened values untouched
        head = prefix * (prefix + 1) // 2
        assert np.array_equal(out.packed[:head], cs.packed[:head])
        assert np.array_equal(out.whitened[:prefix], cs.whitened[:prefix])
        if not len(out):
            return out
        P = out.points
        oracle = chol(kernel_matrix(P, P, out.hyper) + out.jitter * np.eye(len(P)), 0.0)
        L = dense_lower(out)
        assert np.abs(L - oracle.lower).max() < 1e-10 * np.abs(oracle.lower).max()
        w_ref = np.linalg.solve(oracle.lower, out.values - out.prior_mean_vec)
        assert np.abs(out.whitened - w_ref).max() < 1e-8 * max(1.0, np.abs(w_ref).max())
        return out

    def test_random_kept_subsets(self):
        rng = np.random.default_rng(40)
        cs = self.sampler(rng)
        for _ in range(25):
            prefix = int(rng.integers(0, 31))
            tail = np.arange(prefix, 30)
            rows = np.sort(rng.choice(tail, size=int(rng.integers(0, tail.size + 1)),
                                      replace=False))
            self.compact_and_check(cs, prefix, rows)

    def test_prefix_zero(self):
        rng = np.random.default_rng(41)
        cs = self.sampler(rng)
        self.compact_and_check(cs, 0, [1, 4, 5, 17, 29])
        self.compact_and_check(cs, 0, np.arange(30))  # every row kept, a no-op

    def test_no_kept_rows_is_a_truncation(self):
        rng = np.random.default_rng(42)
        cs = self.sampler(rng)
        out = self.compact_and_check(cs, 12, [])
        ref = cs.copy()
        ref.truncate(12)
        for a, b in ((out.packed, ref.packed), (out.whitened, ref.whitened)):
            assert np.array_equal(a, b)
        assert len(self.compact_and_check(cs, 0, [])) == 0

    def test_in_place_rows_join_the_prefix(self):
        # rows 10 and 11 stay where they are: only the rows after them move
        rng = np.random.default_rng(43)
        cs = self.sampler(rng)
        out = self.compact_and_check(cs, 10, [10, 11, 14, 20])
        assert np.array_equal(out.packed[: 12 * 13 // 2], cs.packed[: 12 * 13 // 2])
        assert np.array_equal(out.whitened[:12], cs.whitened[:12])

    def test_a_moved_tail(self):
        # the latent-history layout: the rejections after the data keep some
        # old rows, then take rows drawn past them
        rng = np.random.default_rng(44)
        cs = self.sampler(rng, n=20)
        cs.draw_append_block(rng.uniform(0, 8, (6, 2)), rng.standard_normal(6))
        self.compact_and_check(cs, 14, [15, 17, 18, 20, 23, 25])

    def test_degenerate_sampler(self):
        hyper = GpHyper(amplitude=0.0, lengthscales=[1.0], mean=lambda x: 2 * x[:, 0])
        cs = ConditionalSampler(hyper)
        pts = np.linspace(0, 1, 9)[:, None]
        cs.draw_append_block(pts, np.zeros(9))
        cs.compact(3, [4, 7, 8])
        assert np.array_equal(cs.points, pts[[0, 1, 2, 4, 7, 8]])
        assert np.array_equal(cs.values, 2 * pts[[0, 1, 2, 4, 7, 8], 0])

    def test_pinned_kernel(self):
        rng = np.random.default_rng(45)
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.4], pin_location=[0.5], mean=0.7)
        cs = ConditionalSampler(hyper)
        pts = np.array([[0.1], [0.3], [0.8], [0.5], [0.95], [0.62], [1.4], [0.0]])
        cs.draw_append_block(pts, rng.standard_normal(8))
        for prefix, rows in ((2, [3, 5, 6]), (0, [2, 3, 7]), (1, [4, 5, 6, 7])):
            self.compact_and_check(cs, prefix, rows)

    def test_bad_rows_are_refused(self):
        cs = self.sampler(np.random.default_rng(46), n=10)
        for prefix, rows in ((3, [5, 4]), (3, [2, 5]), (3, [5, 10]), (3, [6, 6]),
                             (11, [])):
            with pytest.raises(IndexError):
                cs.copy().compact(prefix, rows)

    @staticmethod
    def spy_sizes(monkeypatch) -> list:
        """The number of rows of every ``_add_rows`` call, in call order."""
        sizes = []
        original = ConditionalSampler._add_rows

        def spy(self, X, *args, **kwargs):
            sizes.append(len(X))
            return original(self, X, *args, **kwargs)

        monkeypatch.setattr(ConditionalSampler, "_add_rows", spy)
        return sizes

    def test_failed_cholesky_falls_back_to_sequential(self, monkeypatch):
        # the Schur complement's Cholesky reported as failed: the kept rows
        # are added back one at a time instead, and compact and delete
        # still match the oracle
        rng = np.random.default_rng(47)
        cs = self.sampler(rng)
        monkeypatch.setattr(ConditionalSampler, "_block_chol", lambda self, S: None)
        sizes = self.spy_sizes(monkeypatch)
        self.compact_and_check(cs, 8, [9, 12, 13, 20, 26, 29])
        assert sizes == [6] + [1] * 6
        for row in (0, 14, 27):  # tails of 29, 15 and 2 rows
            sizes.clear()
            TestDelete().delete_and_check(cs, row)
            assert sizes == [29 - row] + [1] * (29 - row)

    def test_pivot_below_the_floor_falls_back_to_sequential(self, monkeypatch):
        # a factor adopted without jitter, with a point 2e-9 lengthscales
        # from a stored one: its Schur pivot is at rounding level, below the
        # floor, so the kept rows are added back one at a time, exactly as
        # appends onto the prefix would add them
        hyper = GpHyper(amplitude=1.0, lengthscales=[0.1])
        pts = np.array([[0.2], [0.5]])
        factor = chol(kernel_matrix(pts, pts, hyper), base_jitter=0.0)
        cs = ConditionalSampler(hyper, pts, [0.3, -0.1], factor=factor)
        cs.append([0.9], 0.4)
        cs.append([0.2 + 2e-10], 0.3)
        sizes = self.spy_sizes(monkeypatch)
        cs.compact(1, [2, 3])
        assert sizes == [2, 1, 1]
        head = pts[:1]
        ref = ConditionalSampler(hyper, head, [0.3],
                                 factor=chol(kernel_matrix(head, head, hyper), 0.0))
        ref.append([0.9], 0.4)
        ref.append([0.2 + 2e-10], 0.3)
        assert np.array_equal(cs.points, ref.points)
        assert np.array_equal(cs.packed, ref.packed)
        assert np.array_equal(cs.whitened, ref.whitened)
        assert dense_lower(cs)[2, 2] ** 2 == pytest.approx(cs._pivot_floor(), rel=1e-12)


class TestSchurUpdate:
    """A block's Schur complement ``K(X, X) + jitter I - A^T A`` is one
    ``dsyrk`` that reads A as it lies, with no copy: Fortran-ordered after
    a cross solve, C-ordered (read through its transpose) when a compaction
    gathers it.  Either way the factor is the from-scratch oracle's."""

    HYPER = TestCompact.HYPER

    @pytest.fixture
    def syrk_calls(self, monkeypatch):
        """Each ``dsyrk`` call's (A's shape as passed, Fortran-ordered,
        trans); and every block Cholesky must succeed, since the
        one-at-a-time fallback would give the oracle's factor however
        wrong the Schur complement was."""
        calls = []
        original, original_chol = gpds.gp.dsyrk, ConditionalSampler._block_chol

        def spy(alpha, a, **kwargs):
            calls.append((a.shape, a.flags.f_contiguous, kwargs["trans"]))
            return original(alpha, a, **kwargs)

        def block_chol(self, S):
            M = original_chol(self, S)
            assert M is not None
            return M

        monkeypatch.setattr(gpds.gp, "dsyrk", spy)
        monkeypatch.setattr(ConditionalSampler, "_block_chol", block_chol)
        return calls

    def sampler(self, rng, n):
        return TestCompact().sampler(rng, n=n)

    def test_after_a_cross_solve(self, syrk_calls):
        rng = np.random.default_rng(60)
        cs = self.sampler(rng, 160)  # a block onto no rows: no Schur update
        assert syrk_calls == []
        X = _separated_points(rng, 80, 2, 0.4) + [70.0, 0.0]
        X[:40, 0] -= 68.0  # half the block among the known points
        z = rng.standard_normal(80)
        cs.draw_append_block(X, z)
        assert syrk_calls == [((160, 80), True, 1)]
        P = cs.points
        oracle = chol(kernel_matrix(P, P, self.HYPER) + cs.jitter * np.eye(240), 0.0)
        assert np.abs(dense_lower(cs) - oracle.lower).max() < 1e-10 * np.abs(oracle.lower).max()
        assert np.array_equal(cs.whitened[160:], z)

    @pytest.mark.parametrize("prefix, rows", [
        (10, np.arange(11, 200)),                   # a delete with a long tail
        (30, np.arange(31, 200, 2)),                # a compaction keeping every other row
    ], ids=["delete", "compact"])
    def test_in_a_compaction(self, syrk_calls, prefix, rows):
        rng = np.random.default_rng(61)
        cs = self.sampler(rng, 200)
        TestCompact.compact_and_check(cs, prefix, rows)
        assert syrk_calls == [((len(rows), prefix), True, 0)]


class TestPackedEngineAgainstOracle:
    """Random operation sequences on the incremental engine, checked after
    every operation against a from-scratch factorisation of the same points.

    The points are spread over a box many lengthscales wide, so the Gram
    matrix stays well conditioned while R grows past the 64-, 128- and
    256-row capacities (64 -> 128 -> 256 -> 512)."""

    HYPER = GpHyper(amplitude=1.3, lengthscales=[0.5, 0.7], mean=0.4)
    BOX = 12.0

    def check(self, cs: ConditionalSampler, rng) -> None:
        hyper = self.HYPER
        P, vals = cs.points, cs.values
        n = len(cs)
        L = dense_lower(cs)
        target = kernel_matrix(P, P, hyper) + cs.jitter * np.eye(n)
        assert np.abs(L @ L.T - target).max() < 1e-10
        m = np.full(n, 0.4)
        assert np.array_equal(cs.prior_mean_vec, m)
        w = solve_triangular(L, vals - m, lower=True)
        assert np.abs(cs.whitened - w).max() < 1e-8 * max(1.0, np.abs(w).max())
        assert cs.logdet() == pytest.approx(np.linalg.slogdet(target)[1], rel=1e-10, abs=1e-8)
        v = rng.normal(size=n)
        assert np.abs(cs.lower_dot(v) - L @ v).max() < 1e-10
        q = rng.uniform(0, self.BOX, (3, 2))
        m_ref, c_ref = conditional(q, P, vals, hyper)
        assert np.abs(cs.mean(q) - m_ref).max() < 1e-8
        # the draws take their normals from their own generator, so the
        # operation sequence does not depend on them
        draws = np.random.default_rng(n)
        z = np.random.default_rng(n).standard_normal()
        assert cs.draw(q[0], draws.standard_normal()) == pytest.approx(
            m_ref[0] + math.sqrt(c_ref[0, 0] + cs.jitter) * z, abs=1e-8)
        check_draw_batch(cs, q, draws, 1e-8)

    def check_copy_independent(self, cs: ConditionalSampler, rng) -> None:
        before = (cs.points.copy(), cs.values.copy(), cs.packed.copy(),
                  cs.whitened.copy())
        dup = cs.copy()
        dup.append(rng.uniform(0, self.BOX, 2), 0.5)
        dup.set_whitened(rng.normal(size=len(dup)))
        dup.delete(0)
        for a, b in zip(before, (cs.points, cs.values, cs.packed, cs.whitened)):
            assert np.array_equal(a, b)
        snap = (dup.values.copy(), dup.packed.copy())
        cs.set_whitened(rng.normal(size=len(cs)))
        assert np.array_equal(snap[0], dup.values)
        assert np.array_equal(snap[1], dup.packed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_operation_sequence(self, seed):
        rng = np.random.default_rng(seed)
        cs = ConditionalSampler(self.HYPER)
        seen = set()
        while len(cs) <= 260:
            op = rng.choice(["append", "draw_append", "delete", "set_whitened",
                             "copy"],
                            p=[0.3, 0.35, 0.15, 0.14, 0.06])
            n = len(cs)
            if op == "append":
                cs.append(rng.uniform(0, self.BOX, 2), rng.normal())
            elif op == "draw_append":
                cs.draw_append(rng.uniform(0, self.BOX, 2), rng.standard_normal())
            elif op == "delete" and n >= 3:
                row = [0, int(rng.integers(1, n - 1)), n - 1][int(rng.integers(3))]
                cs.delete(row)
            elif op == "set_whitened" and n:
                cs.set_whitened(rng.normal(size=n))
            elif op == "copy" and n:
                self.check_copy_independent(cs, rng)
            else:
                continue
            seen.add(str(op))
            if n > 1:
                self.check(cs, rng)
        assert seen == {"append", "draw_append", "delete", "set_whitened", "copy"}
        assert cs._pts.shape[0] == 512

    def test_block_draws_past_capacity(self):
        rng = np.random.default_rng(6)
        cs = ConditionalSampler(self.HYPER)
        for k in (1, 50, 64, 3, 64):
            g = cs.draw_append_block(rng.uniform(0, self.BOX, (k, 2)),
                                     rng.standard_normal(k))
            assert np.array_equal(cs.values[-k:], g)
            self.check(cs, rng)
        assert cs._pts.shape[0] == 256

    def test_delete_every_position_matches_rebuild(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, self.BOX, (70, 2))
        vals = rng.normal(size=70)
        for row in (0, 1, 33, 68, 69):
            cs = ConditionalSampler(self.HYPER, pts, vals)
            cs.delete(row)
            keep = np.delete(np.arange(70), row)
            ref = ConditionalSampler(self.HYPER, pts[keep], vals[keep])
            assert np.abs(dense_lower(cs) - dense_lower(ref)).max() < 1e-10
            assert np.abs(cs.whitened - ref.whitened).max() < 1e-8

    def test_degenerate_sampler(self):
        hyper = GpHyper(amplitude=0.0, lengthscales=[1.0, 1.0], mean=0.7)
        rng = np.random.default_rng(3)
        cs = ConditionalSampler(hyper)
        for _ in range(70):
            assert cs.draw_append(rng.uniform(0, 1, 2), rng.standard_normal()) == 0.7
        cs.append([0.5, 0.5], 0.7)
        cs.delete(0)
        cs.delete(len(cs) - 1)
        assert len(cs) == 69 and np.all(cs.values == 0.7)
        assert cs.draw([0.2, 0.3], rng.standard_normal()) == 0.7
        assert np.all(cs.mean(rng.uniform(0, 1, (4, 2))) == 0.7)
        assert np.all(cs.draw_batch(rng.uniform(0, 1, (4, 2)), rng) == 0.7)
        dup = cs.copy()
        dup.append([0.1, 0.1], 0.7)
        assert len(dup) == len(cs) + 1
        with pytest.raises(ValueError):
            cs.set_whitened(np.zeros(len(cs)))
