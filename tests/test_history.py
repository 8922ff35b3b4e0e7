"""Latent-history sampler: joint density, move ratios, HMC, sweeps."""
import copy
import math

import numpy as np
import pytest
from scipy.stats import chi2, kstest

import gpds.history
from gpds.chain import ChainOptions, _history_log_density
from gpds.generate import continue_sampler, draw_prior_dataset
from gpds.gp import (
    BASE_JITTER,
    ConditionalSampler,
    GpHyper,
    chol,
    kernel_matrix,
    log_prior_density,
    prior_mean,
)
from gpds.history import (
    HistoryChain,
    _insert_prob,
    delete_log_accept,
    init_history,
    insert_log_accept,
    leapfrog,
    location_log_accept,
    sweep,
)
from gpds.model import (
    GaussianBase,
    HyperPrior,
    UniformBox,
    base_logpdf,
    base_sample,
    log_one_minus_phi,
    log_phi,
    phi,
    propose_hypers,
)

BOX = UniformBox.unit(1)
THETA = GpHyper(amplitude=1.3, lengthscales=[0.3])


def make_history(rng, n=4, theta=THETA, psi=BOX):
    """The chain state of one run of the generative sampler."""
    trace = draw_prior_dataset(n, theta, psi, rng)
    rej = ~trace.accept_flags
    return HistoryChain(trace.accepted, trace.accepted_values, theta, psi,
                        trace.sampler.points[rej], trace.sampler.values[rej])


def sweep_options(**kw):
    """Move tuning for direct sweeps; no iteration budget."""
    return ChainOptions(total=0, burn_in=0, **kw)



class TestConstruction:
    @pytest.mark.parametrize("g_data, rejections, g_rejections", [
        ([0.1, 0.2], None, None),
        ([0.1], [[0.3]], None),
        ([0.1], [[0.3]], [0.2, 0.4]),
        ([0.1, 0.2], [[0.3]], []),
    ], ids=["extra-data-value", "missing-rejection-value", "extra-rejection-value",
            "value-in-wrong-block"])
    def test_value_count_must_match_points(self, g_data, rejections, g_rejections):
        with pytest.raises(ValueError, match="function value"):
            HistoryChain([[0.5]], g_data, THETA, BOX, rejections, g_rejections)

    def test_arrays_round_trip(self):
        chain = HistoryChain([[0.5], [0.6]], [0.1, 0.2], THETA, BOX,
                             [[0.3], [0.9]], [-0.4, -0.5])
        assert chain.n_data == 2 and chain.n_rejections == 2
        assert chain.g_data.tolist() == [0.1, 0.2]
        assert chain.rejections.tolist() == [[0.3], [0.9]]
        assert chain.g_rejections.tolist() == [-0.4, -0.5]
        assert chain.theta is THETA


class TestHistoryLogdensity:
    def test_single_acceptance_at_zero(self):
        # the non-GP part of the joint for one accepted point at g=0 on the
        # unit box is log phi(0) + log pi = -ln 2
        h = HistoryChain([[0.4]], [0.0], THETA, BOX)
        gp_term = log_prior_density([0.0], [[0.4]], THETA)
        assert _history_log_density(h) - gp_term == pytest.approx(-math.log(2), abs=1e-12)

    def test_rejection_permutation_invariance(self):
        rng = np.random.default_rng(0)
        h = make_history(rng, n=3)
        while h.n_rejections < 2:
            h = make_history(rng, n=3)
        perm = np.random.default_rng(1).permutation(h.n_rejections)
        h2 = HistoryChain(h.data, h.g_data, h.theta, h.psi,
                          h.rejections[perm], h.g_rejections[perm])
        assert _history_log_density(h2) == pytest.approx(_history_log_density(h), rel=1e-9)

    def test_monotone_in_link_terms(self):
        rng = np.random.default_rng(2)
        h = make_history(rng, n=3)
        while h.n_rejections < 1:
            h = make_history(rng, n=3)
        gp = log_prior_density(
            np.concatenate([h.g_data, h.g_rejections]),
            np.vstack([h.data, h.rejections]), h.theta)
        link_only = _history_log_density(h) - gp
        h2 = HistoryChain(h.data, h.g_data + 1.0, h.theta, h.psi,
                          h.rejections, h.g_rejections - 1.0)
        gp2 = log_prior_density(
            np.concatenate([h2.g_data, h2.g_rejections]),
            np.vstack([h2.data, h2.rejections]), h2.theta)
        assert _history_log_density(h2) - gp2 > link_only

    def test_support_violation_is_minus_inf(self):
        h = HistoryChain([[1.4]], [0.0], THETA, BOX)
        assert _history_log_density(h) == -math.inf


class TestChainLogDensityAfterMoves:
    # the value trace.csv writes as log_density, read off the maintained
    # factor, against the from-scratch oracle after the factor has been
    # through appends, deletes (at any row) and an adopted hyper-move factor
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("base", ["uniform-1d", "gaussian-2d"])
    def test_matches_oracle(self, seed, base):
        rng = np.random.default_rng(100 + seed)
        if base == "uniform-1d":
            theta, psi, priors = THETA, BOX, HyperPrior()
        else:
            theta = GpHyper(amplitude=1.1, lengthscales=[0.6, 0.9])
            psi = GaussianBase([0.0, 0.5], [1.0, 0.7])
            priors = HyperPrior(base_mean=(np.zeros(2), np.ones(2)),
                                log_base_sigma=(np.zeros(2), np.ones(2)))
        chain = make_history(rng, n=5, theta=theta, psi=psi)
        zeta = 0.5
        inserts = deletes = moved = hyper_acc = 0
        for _ in range(40):
            for _ in range(3):
                m = chain.n_rejections
                chain.step_number(zeta, rng)
                inserts += chain.n_rejections > m
                deletes += chain.n_rejections < m
            moved += chain.step_locations(rng)
            chain.step_function_hmc(0.2, 10, rng)
            hyper_acc += chain.step_hyper(0.1, priors, rng)
        # end on incremental updates of the last adopted factor
        for _ in range(5):
            chain.step_number(zeta, rng)
            chain.step_locations(rng)
        assert min(inserts, deletes, moved, hyper_acc) > 0
        pts = np.vstack([chain.data, chain.rejections])
        vals = np.concatenate([chain.g_data, chain.g_rejections])
        oracle = (log_prior_density(vals, pts, chain.theta)
                  + float(np.sum(log_phi(chain.g_data)))
                  + float(np.sum(log_one_minus_phi(chain.g_rejections)))
                  + float(np.sum(base_logpdf(pts, chain.psi))))
        # the terms can cancel to a total near zero, and two rejections can
        # land close together: at seed 0 (box) two lie 0.0015 apart, the
        # Gram matrix's condition number is 2e10, the total is -2.85, and
        # the maintained factor and this oracle are 8e-9 and 4e-9 from a
        # 60-digit evaluation of the GP term.  Hence the absolute floor
        assert _history_log_density(chain) == pytest.approx(oracle, rel=1e-9, abs=1e-8)


class TestNumberMoveRatios:
    def test_insert_example(self):
        a = math.exp(insert_log_accept(0, 1, 0.5, 0.0))
        assert a == pytest.approx(0.25, rel=1e-12)

    def test_delete_example_is_reciprocal(self):
        a = math.exp(delete_log_accept(1, 1, 0.5, 0.0))
        assert a == pytest.approx(4.0, rel=1e-12)

    def test_certain_acceptance_cannot_be_rejection(self):
        assert math.exp(insert_log_accept(3, 5, 0.5, 40.0)) < 1e-10

    def test_insert_delete_reciprocity(self):
        # criterion: product of insert and matching delete ratios is 1
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            m = int(rng.integers(0, 50))
            n = int(rng.integers(1, 50))
            g = float(rng.normal(scale=2.0))
            zeta = float(rng.uniform(0.05, 0.95))
            total = insert_log_accept(m, n, zeta, g) + delete_log_accept(m + 1, n, zeta, g)
            worst = max(worst, abs(total))
        assert worst < 1e-12

    def test_zeta_forces_insert_at_zero(self):
        assert _insert_prob(0, 0.3) == 1.0
        assert _insert_prob(1, 0.3) == 0.3
        for zeta in (0.0, 1.0):  # at 1 no insertion could be accepted
            with pytest.raises(ValueError, match="zeta_insert"):
                ChainOptions(total=1, burn_in=0, zeta_insert=zeta)
        # an empty history proposes an insertion whatever zeta_insert is: a
        # deletion there would fail to pick a slot
        rng = np.random.default_rng(6)
        trace = draw_prior_dataset(4, THETA, BOX, rng)
        chain = HistoryChain(trace.accepted, trace.accepted_values, THETA, BOX)
        while not chain.step_number(1e-9, rng):
            assert chain.n_rejections == 0
        assert chain.n_rejections == 1

    def test_step_number_grows_and_shrinks(self):
        rng = np.random.default_rng(4)
        chain = make_history(rng)
        zeta = 0.5
        sizes = {chain.n_rejections}
        for _ in range(60):
            chain.step_number(zeta, rng)
            sizes.add(chain.n_rejections)
        assert len(sizes) > 2


class TestLocationMoves:
    def test_ratio_identity_when_nothing_changes(self):
        assert location_log_accept(0.7, 0.7) == pytest.approx(0.0)

    def test_ratio_example(self):
        # phi(g)=0.5 -> phi(ghat)=0.75 gives a = 0.25/0.5; the base density
        # cancels from an independence proposal drawn from it
        g_old = 0.0
        g_new = math.log(3.0)
        a = math.exp(location_log_accept(g_new, g_old))
        assert a == pytest.approx(0.5, rel=1e-12)

    def test_step_locations_respects_support(self):
        rng = np.random.default_rng(5)
        chain = make_history(rng)
        while chain.n_rejections < 1:
            chain = make_history(rng)
        for _ in range(30):
            chain.step_locations(rng)
            assert np.all((chain.rejections >= 0) & (chain.rejections <= 1))
            assert chain.n_rejections == len(chain.g_rejections)

    @pytest.mark.parametrize("base", ["box", "gaussian"])
    def test_proposals_are_base_draws(self, base, monkeypatch):
        # the M proposals are base_sample of one rng.random((M, D)) call,
        # conditioned in one block, followed by M normals and M uniforms;
        # the unmoved rejections keep their slot order, and the moved ones
        # follow them in theirs
        theta, psi = TestOneConditioningPerProposal.BASES[base]
        rng = np.random.default_rng(7)
        chain = make_history(rng, n=6, theta=theta, psi=psi)
        while chain.n_rejections < 4:
            chain = make_history(rng, n=6, theta=theta, psi=psi)
        m = chain.n_rejections
        blocks = []
        draw_append_block = ConditionalSampler.draw_append_block

        def spy(self, X, z):
            blocks.append((np.array(X), np.array(z), draw_append_block(self, X, z)))
            return blocks[-1][2]

        monkeypatch.setattr(ConditionalSampler, "draw_append_block", spy)
        mixed = 0
        for _ in range(10):
            x_old, g_old = chain.rejections, chain.g_rejections.copy()
            replay = copy.deepcopy(rng)
            moved = chain.step_locations(rng)
            X, z, g_new = blocks[-1]
            assert np.array_equal(X, base_sample(psi, replay.random((m, psi.dim))))
            assert np.array_equal(z, replay.standard_normal(m))
            accept = np.log(replay.uniform(size=m)) < location_log_accept(g_new, g_old)
            assert moved == np.count_nonzero(accept)
            assert np.array_equal(chain.rejections, np.vstack([x_old[~accept], X[accept]]))
            assert np.array_equal(chain.g_rejections,
                                  np.concatenate([g_old[~accept], g_new[accept]]))
            mixed += 0 < moved < m
        assert rng.random() == replay.random()
        assert len(blocks) == 10 and mixed > 0


class TestLocationStationarity:
    """The location move alone, under a frozen function (amplitude 0, mean
    1.5 sin 6x): each rejection's location must keep the law
    pi(x) (1 - phi(m(x))), for the unit box and for a Gaussian base, whose
    proposals go through ``normal_from_uniform``.  The chain starts in that
    law, so a wrong location ratio shows up as a chi-square misfit of the
    thinned locations.  The Geweke test's data-block statistics cannot see
    such an error; these tests can, as their corrupted twins show."""

    GAUSSIAN = GaussianBase([0.4], [0.3])

    @staticmethod
    def mean_fn(x):
        return 1.5 * np.sin(6.0 * x[:, 0])

    def chi2_pvalue(self, psi, seed, n_rej=20, sweeps=12_000, thin=40, bins=20):
        rng = np.random.default_rng(seed)
        theta = GpHyper(amplitude=0.0, lengthscales=[1.0], mean=self.mean_fn)
        rej = []
        while len(rej) < n_rej:  # rejection-sample the target
            x = base_sample(psi, rng.random((1, 1)))
            if rng.uniform() < 1 - phi(self.mean_fn(x))[0]:
                rej.append(x[0])
        rej = np.array(rej)
        data = np.array([[0.5]])
        chain = HistoryChain(data, self.mean_fn(data), theta, psi, rej, self.mean_fn(rej))
        kept = []
        for i in range(sweeps):
            chain.step_locations(rng)
            if i % thin == thin - 1:
                kept.append(chain.rejections[:, 0])
        xs = np.concatenate(kept)
        # the target's CDF by the trapezoid rule over the base's support
        # (eight standard deviations either side for the Gaussian), and
        # bins of equal target mass
        if isinstance(psi, UniformBox):
            lo, hi = psi.lower[0], psi.upper[0]
        else:
            lo, hi = psi.mean[0] - 8 * psi.sigma[0], psi.mean[0] + 8 * psi.sigma[0]
        grid = np.linspace(lo, hi, 8001)
        dens = (np.exp(base_logpdf(grid[:, None], psi))
                * (1 - phi(self.mean_fn(grid[:, None]))))
        cdf = np.concatenate([[0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
        cdf /= cdf[-1]
        edges = np.interp(np.linspace(0, 1, bins + 1), cdf, grid)
        edges[0], edges[-1] = -np.inf, np.inf
        counts, _ = np.histogram(xs, edges)
        expected = xs.size / bins
        return chi2.sf(np.sum((counts - expected) ** 2 / expected), df=bins - 1)

    @staticmethod
    def corrupt(monkeypatch):
        # the ratio without its (1 - phi) terms accepts every proposal, so
        # it targets pi(x) alone
        original = gpds.history.location_log_accept
        monkeypatch.setattr(gpds.history, "location_log_accept",
                            lambda g_new, g_old: original(0.0 * g_new, 0.0 * g_old))

    @pytest.mark.slow
    def test_frozen_function_locations_keep_their_law(self):
        assert self.chi2_pvalue(BOX, seed=24) > 0.01

    @pytest.mark.slow
    def test_corrupted_location_ratio_is_caught(self, monkeypatch):
        self.corrupt(monkeypatch)
        assert self.chi2_pvalue(BOX, seed=24) < 0.01

    @pytest.mark.slow
    def test_gaussian_base_locations_keep_their_law(self):
        assert self.chi2_pvalue(self.GAUSSIAN, seed=24) > 0.01

    @pytest.mark.slow
    def test_gaussian_base_corrupted_ratio_is_caught(self, monkeypatch):
        self.corrupt(monkeypatch)
        assert self.chi2_pvalue(self.GAUSSIAN, seed=24) < 0.01


class TestOneConditioningPerProposal:
    """Every proposed point is conditioned on the GP once.  An insertion is
    drawn straight onto the factor, kept on accept and truncated away on
    reject.  A location sweep draws one base-density proposal per
    rejection, conditions all M in one block and compacts the factor once:
    rejected proposals leave the state exactly as it was, and moved
    rejections follow the unmoved ones."""

    BASES = {
        "box": (THETA, BOX),
        "gaussian": (GpHyper(amplitude=1.1, lengthscales=[0.6, 0.9]),
                     GaussianBase([0.0, 0.5], [1.0, 0.7])),
    }

    def make_chain(self, base, rng, n_data=40, n_rej=24):
        """A chain whose sampler is full: the next append grows its buffers."""
        theta, psi = self.BASES[base]
        data = base_sample(psi, rng.random((n_data, psi.dim)))
        rej = base_sample(psi, rng.random((n_rej, psi.dim)))
        sampler = ConditionalSampler(theta)
        g = sampler.draw_append_block(np.vstack([data, rej]),
                                      rng.standard_normal(n_data + n_rej))
        chain = HistoryChain(data, g[:n_data], theta, psi, rej, g[n_data:])
        chain.sampler = sampler
        assert len(sampler) == sampler._pts.shape[0]
        return chain

    @staticmethod
    def count_calls(monkeypatch, ratio=None):
        """Spy on the conditioning calls and the acceptance ratios: count
        the conditionings of proposals (``_add_rows`` calls that draw; a
        call given known values is a compaction adding kept rows back) made
        inside and outside ``draw_append_block``, record the points of each
        block and the values it drew, and count the ratios computed (one per
        insertion, one per relocation); ``ratio`` replaces every ratio's
        value."""
        counts = {"condition": 0, "block_condition": 0, "insert_log_accept": 0,
                  "location_log_accept": 0, "blocks": [], "block_values": []}
        add_rows = ConditionalSampler._add_rows
        draw_append_block = ConditionalSampler.draw_append_block
        in_block = []

        def spy_add_rows(self, X, z=None, values=None, **kwargs):
            if values is None:
                counts["block_condition" if in_block else "condition"] += 1
            return add_rows(self, X, z, values, **kwargs)

        def spy_block(self, X, z):
            counts["blocks"].append(np.array(X, dtype=float))
            in_block.append(True)
            try:
                counts["block_values"].append(draw_append_block(self, X, z))
            finally:
                in_block.pop()
            return counts["block_values"][-1]

        monkeypatch.setattr(ConditionalSampler, "_add_rows", spy_add_rows)
        monkeypatch.setattr(ConditionalSampler, "draw_append_block", spy_block)
        for name in ("insert_log_accept", "location_log_accept"):
            original = getattr(gpds.history, name)

            def spy_ratio(*args, _original=original, _name=name):
                value = _original(*args)
                counts[_name] += np.size(value)
                return value if ratio is None else np.full(np.shape(value), ratio)[()]

            monkeypatch.setattr(gpds.history, name, spy_ratio)
        return counts

    @staticmethod
    def snapshot(chain):
        s = chain.sampler
        return (s.points.copy(), s.values.copy(), s.packed.copy(), s.whitened.copy())

    @staticmethod
    def assert_factor_of_state(s):
        target = kernel_matrix(s.points, s.points, s.hyper) + s.jitter * np.eye(len(s))
        L = np.zeros((len(s), len(s)))
        L[np.tri(len(s), dtype=bool)] = s.packed
        assert np.abs(L @ L.T - target).max() < 1e-10
        assert np.abs(L @ s.whitened - (s.values - s.prior_mean_vec)).max() < 1e-8

    @pytest.mark.parametrize("base", ["box", "gaussian"])
    def test_one_conditioning_per_proposal(self, base, monkeypatch):
        rng = np.random.default_rng(41)
        chain = self.make_chain(base, rng)
        counts = self.count_calls(monkeypatch)
        zeta = 0.5
        attempts = inserts = moved = 0
        for _ in range(15):
            for _ in range(3):
                m = chain.n_rejections
                chain.step_number(zeta, rng)
                inserts += chain.n_rejections > m
            attempts += chain.n_rejections
            blocks = len(counts["blocks"])
            moved += chain.step_locations(rng)
            # one block per sweep, of one base draw per rejection
            assert len(counts["blocks"]) == blocks + 1
            X = counts["blocks"][-1]
            assert len(X) == chain.n_rejections
            assert np.all(np.isfinite(base_logpdf(X, chain.psi)))
        # insertions are conditioned one at a time; relocations only in
        # blocks, one conditioning each
        assert counts["condition"] == counts["insert_log_accept"]
        assert counts["block_condition"] == len(counts["blocks"])
        assert counts["location_log_accept"] == attempts
        assert inserts > 0 and moved > 0
        assert counts["insert_log_accept"] > inserts  # some inserts rejected
        assert counts["location_log_accept"] > moved  # some relocations rejected
        self.assert_factor_of_state(chain.sampler)

    @pytest.mark.parametrize("base", ["box", "gaussian"])
    def test_rejected_proposals_leave_the_state_unchanged(self, base, monkeypatch):
        rng = np.random.default_rng(42)
        chain = self.make_chain(base, rng)
        counts = self.count_calls(monkeypatch, ratio=-math.inf)
        before = self.snapshot(chain)
        for _ in range(4):
            # Generator.uniform falls below 1 - 2^-53 except at its top cell,
            # so this always proposes an insertion
            assert not chain.step_number(1.0 - 2.0**-53, rng)
            assert chain.step_locations(rng) == 0
            for a, b in zip(before, self.snapshot(chain)):
                assert np.array_equal(a, b)
        assert counts["insert_log_accept"] == 4
        assert counts["location_log_accept"] == 4 * 24
        assert len(counts["blocks"]) == 4
        assert chain.sampler._pts.shape[0] > len(chain.sampler)  # the buffers grew

    @pytest.mark.parametrize("base", ["box", "gaussian"])
    def test_accepted_relocations_past_capacity(self, base, monkeypatch):
        # every relocation accepted, the block draw growing the buffers:
        # each rejection ends up at its proposed location and value, in
        # slot order
        rng = np.random.default_rng(43)
        chain = self.make_chain(base, rng)
        counts = self.count_calls(monkeypatch, ratio=math.inf)
        data, g_data = chain.data.copy(), chain.g_data.copy()
        moved = chain.step_locations(rng)
        assert moved == counts["location_log_accept"] == len(counts["blocks"][0]) == 24
        assert counts["condition"] == 0 and counts["block_condition"] == 1
        s = chain.sampler
        assert len(s) == 40 + 24
        assert np.array_equal(s.points[40:], counts["blocks"][0])
        assert np.array_equal(s.values[40:], counts["block_values"][0])
        assert np.array_equal(s.points[:40], data) and np.array_equal(chain.g_data, g_data)
        self.assert_factor_of_state(s)


class TestHmc:
    def test_gradient_matches_finite_differences(self):
        # criterion: relative error < 1e-5 at 5 random latent states
        rng = np.random.default_rng(6)
        for _ in range(5):
            chain = make_history(rng, n=3)
            v = chain.sampler.whitened.copy()
            _, grad = chain._potential_grad(v)
            fd = np.empty_like(v)
            eps = 1e-5
            for i in range(v.shape[0]):
                vp, vm = v.copy(), v.copy()
                vp[i] += eps
                vm[i] -= eps
                fd[i] = (chain._potential_grad(vp)[0] - chain._potential_grad(vm)[0]) / (2 * eps)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(grad - fd) / denom) < 1e-5

    def test_energy_error_scales_quadratically(self):
        rng = np.random.default_rng(7)
        chain = make_history(rng, n=4)
        v0 = chain.sampler.whitened.copy()
        p0 = np.random.default_rng(8).standard_normal(v0.shape[0])
        _, _, dh1 = leapfrog(chain._potential_grad, v0, p0, 0.08, 50)
        _, _, dh2 = leapfrog(chain._potential_grad, v0, p0, 0.04, 100)
        ratio = abs(dh1) / abs(dh2)
        assert 3.0 < ratio < 5.5

    def test_leapfrog_in_place_is_the_step_formula(self):
        # the in-place steps against the allocating formula, bit for bit, on
        # a finite trajectory, and the inputs left as they were
        def reference(potential_grad, v, p, step_size, n_steps):
            u0, grad = potential_grad(v)
            h0 = u0 + 0.5 * float(p @ p)
            p = p - 0.5 * step_size * grad
            for step in range(n_steps):
                v = v + step_size * p
                u1, grad = potential_grad(v)
                if step < n_steps - 1:
                    p = p - step_size * grad
            p = p - 0.5 * step_size * grad
            return v, p, u1 + 0.5 * float(p @ p) - h0

        rng = np.random.default_rng(10)
        chain = make_history(rng, n=6)
        v0 = chain.sampler.whitened.copy()
        p0 = rng.standard_normal(v0.shape[0])
        v0_in, p0_in = v0.copy(), p0.copy()
        for step_size, n_steps in [(0.05, 1), (0.05, 12), (0.3, 7)]:
            got = leapfrog(chain._potential_grad, v0, p0, step_size, n_steps)
            want = reference(chain._potential_grad, v0, p0, step_size, n_steps)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2] == want[2]
            assert np.array_equal(v0, v0_in) and np.array_equal(p0, p0_in)
        # the gradient's temporary is overwritten, not the position
        _, grad = chain._potential_grad(v0)
        assert np.array_equal(v0, v0_in) and not np.shares_memory(grad, v0)

    def test_tiny_step_always_accepts(self):
        rng = np.random.default_rng(9)
        chain = make_history(rng, n=4)
        accepted = 0
        for _ in range(20):
            accepted += chain.step_function_hmc(1e-5, 3, rng)
        assert accepted == 20

    def test_locations_and_count_unchanged(self):
        rng = np.random.default_rng(10)
        chain = make_history(rng, n=4)
        data, rejections = chain.data.copy(), chain.rejections
        chain.step_function_hmc(0.3, 10, rng)
        assert np.array_equal(chain.data, data)
        assert np.array_equal(chain.rejections, rejections)

    def test_invalid_arguments(self):
        rng = np.random.default_rng(11)
        chain = make_history(rng)
        with pytest.raises(ValueError):
            chain.step_function_hmc(0.0, 10, rng)
        with pytest.raises(ValueError):
            chain.step_function_hmc(0.1, 0, rng)

    @pytest.mark.slow
    def test_invariance_on_single_point_posterior(self):
        # frozen geometry: one datum, no rejections; the conditional target
        # for g is N(g; 0, k) phi(g) up to normalisation.  Long HMC runs
        # must match the quadrature cdf.
        theta = GpHyper(amplitude=1.2, lengthscales=[0.5])
        chain = HistoryChain([[0.5]], [0.1], theta, BOX)
        rng = np.random.default_rng(12)
        samples = []
        for i in range(6000):
            chain.step_function_hmc(0.5, 10, rng)
            if i % 2:
                samples.append(chain.sampler.values[0])
        gs = np.linspace(-6, 6, 4001)
        var = 1.2**2 * (1 + 1e-8)
        dens = np.exp(-0.5 * gs**2 / var) * phi(gs)
        cdf = np.concatenate([[0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(gs))])
        cdf /= cdf[-1]
        res = kstest(np.array(samples)[::3], lambda x: np.interp(x, gs, cdf))
        assert res.pvalue > 0.01


class TestHyperMove:
    def test_identity_proposal_always_accepts(self):
        rng = np.random.default_rng(13)
        chain = make_history(rng)
        amplitude = chain.theta.amplitude
        priors = HyperPrior()
        for _ in range(5):
            assert chain.step_hyper(0.0, priors, rng)
            assert chain.theta.amplitude == amplitude

    def test_box_base_densities_are_not_evaluated(self, monkeypatch):
        # a box psi is never proposed, and every point lies in its support,
        # so its base-density ratio is exactly 0 and is skipped
        def no_base_logpdf(*args):
            raise AssertionError("base_logpdf evaluated for an unproposed psi")

        rng = np.random.default_rng(13)
        chain = make_history(rng)
        monkeypatch.setattr("gpds.history.base_logpdf", no_base_logpdf)
        accepted = [chain.step_hyper(0.1, HyperPrior(), rng) for _ in range(20)]
        assert any(accepted) and chain.psi is BOX

    def test_out_of_support_proposal_rejected(self, monkeypatch):
        rng = np.random.default_rng(14)
        chain = make_history(rng)
        while chain.n_rejections < 1:
            chain = make_history(rng)
        # force a proposal whose box excludes one rejection location
        x = float(chain.rejections[0, 0])
        bad_box = UniformBox([x + 1e-6], [x + 2.0])
        monkeypatch.setattr("gpds.history.propose_hypers",
                            lambda *a, **k: (chain.theta, bad_box))
        assert not chain.step_hyper(0.1, HyperPrior(), rng)
        assert chain.psi is BOX

    def test_empty_rejection_product(self):
        rng = np.random.default_rng(15)
        trace = draw_prior_dataset(3, THETA, BOX, rng)
        chain = HistoryChain(trace.accepted, trace.accepted_values, THETA, BOX)
        acc = chain.step_hyper(0.1, HyperPrior(), rng)
        assert isinstance(acc, bool) or acc in (True, False)

    def test_gaussian_base_moves(self):
        rng = np.random.default_rng(16)
        psi = GaussianBase([0.0], [1.0])
        theta = GpHyper(amplitude=1.0, lengthscales=[0.5])
        chain = make_history(rng, n=4, theta=theta, psi=psi)
        priors = HyperPrior(base_mean=(np.zeros(1), np.ones(1)),
                            log_base_sigma=(np.zeros(1), np.ones(1)))
        changed = False
        for _ in range(30):
            changed = chain.step_hyper(0.1, priors, rng) or changed
        assert changed
        # the accepted walk moved both base parameters, not only theta
        assert chain.psi.mean[0] != 0.0 and chain.psi.sigma[0] != 1.0

    def test_accepted_move_keeps_theta_on_the_sampler(self):
        rng = np.random.default_rng(23)
        chain = make_history(rng)
        theta0 = chain.theta
        for _ in range(50):
            if chain.step_hyper(0.1, HyperPrior(), rng):
                break
        else:
            pytest.fail("no hyper move accepted")
        assert chain.theta is chain.sampler.hyper
        assert chain.theta.amplitude != theta0.amplitude


# (theta, psi, priors) of a hyper move: a box base (only theta walks), a
# Gaussian base (psi walks too) and a pinned kernel (its pin held fixed)
HYPER_CONFIGS = {
    "box": (THETA, BOX, HyperPrior()),
    "gaussian": (GpHyper(amplitude=1.1, lengthscales=[0.6]), GaussianBase([0.2], [0.8]),
                 HyperPrior(base_mean=(np.zeros(1), np.ones(1)),
                            log_base_sigma=(np.zeros(1), np.ones(1)))),
    "pinned": (GpHyper(amplitude=1.3, lengthscales=[0.3], pin_location=[0.5], mean=0.4),
               BOX, HyperPrior()),
}


@pytest.mark.parametrize("config", HYPER_CONFIGS)
class TestHyperMoveBuildsOnlyOnAccept:
    # the move scores a proposal from its dense factor, and builds the
    # sampler it adopts only when the proposal is accepted
    def test_factor_log_density_is_the_builds(self, config):
        theta, psi, priors = HYPER_CONFIGS[config]
        rng = np.random.default_rng(31)
        for _ in range(5):
            chain = make_history(rng, n=6, theta=theta, psi=psi)
            theta_hat, _ = propose_hypers(theta, psi, 0.3, priors, rng)
            pts, vals = chain.sampler.points, chain.sampler.values
            factor = chol(kernel_matrix(pts, pts, theta_hat), scale=theta_hat.amplitude**2)
            built = ConditionalSampler(theta_hat, pts, vals, factor=factor)
            assert factor.log_density(vals - prior_mean(pts, theta_hat)) == built.log_density()

    def test_rejected_and_accepted_moves(self, config):
        theta, psi, priors = HYPER_CONFIGS[config]
        rng = np.random.default_rng(32)
        chain = make_history(rng, n=6, theta=theta, psi=psi)
        rejected = accepted = 0
        for _ in range(80):
            sampler, packed = chain.sampler, chain.sampler.packed.copy()
            theta0, psi0 = chain.theta, chain.psi
            pts, vals = sampler.points.copy(), sampler.values.copy()
            replay = copy.deepcopy(rng)
            if not chain.step_hyper(0.15, priors, rng):
                rejected += 1
                assert chain.sampler is sampler
                assert np.array_equal(chain.sampler.packed, packed)
                assert chain.psi is psi0
                continue
            accepted += 1
            # the proposal the move drew, built from its factor, which starts
            # at the jitter of a realisation
            theta_hat, psi_hat = propose_hypers(theta0, psi0, 0.15, priors, replay)
            factor = chol(kernel_matrix(pts, pts, theta_hat), scale=theta_hat.amplitude**2)
            ref = ConditionalSampler(theta_hat, pts, vals, factor=factor)
            new = chain.sampler
            assert new is not sampler
            assert new.hyper.amplitude == theta_hat.amplitude
            assert np.array_equal(new.hyper.lengthscales, theta_hat.lengthscales)
            if theta_hat.pin_location is not None:
                assert np.array_equal(new.hyper.pin_location, theta_hat.pin_location)
            assert new.jitter == ref.jitter == BASE_JITTER * theta_hat.amplitude**2
            for a, b in ((new.points, ref.points), (new.values, ref.values),
                         (new.prior_mean_vec, ref.prior_mean_vec),
                         (new.packed, ref.packed), (new.whitened, ref.whitened)):
                assert np.array_equal(a, b)
            if isinstance(psi0, GaussianBase):
                assert np.array_equal(chain.psi.mean, psi_hat.mean)
                assert np.array_equal(chain.psi.sigma, psi_hat.sigma)
        assert rejected and accepted


class TestSweep:
    @pytest.mark.parametrize("number_moves, infer_hypers, priors, amplitude", [
        (0, True, None, 1.3),
        (3, False, HyperPrior(), 1.3),
        (1, True, HyperPrior(), 1.3),
        (2, True, None, 0.0),
    ], ids=["no-number-moves", "hypers-off", "every-move", "degenerate-gp"])
    def test_move_counts_follow_options(self, number_moves, infer_hypers, priors,
                                        amplitude):
        # number moves as configured; locations once per rejection; HMC
        # unless the GP is degenerate; the hyper move only when inferring
        # hyperparameters under given priors
        rng = np.random.default_rng(17)
        chain = make_history(rng, n=4, theta=THETA.with_(amplitude=amplitude))
        while chain.n_rejections < 1:
            chain = make_history(rng, n=4, theta=THETA.with_(amplitude=amplitude))
        m0 = chain.n_rejections
        sweep(chain, sweep_options(number_moves=number_moves,
                                   infer_hypers=infer_hypers), priors, rng)
        c = chain.diagnostics
        assert c["number_att"] == number_moves
        if not number_moves:
            assert chain.n_rejections == m0
        assert c["loc_att"] == chain.n_rejections
        assert c["hmc_att"] == (amplitude > 0)
        assert c["hyper_att"] == (infer_hypers and priors is not None)

    def test_seed_determinism(self):
        out = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            chain = make_history(np.random.default_rng(18))
            for _ in range(20):
                sweep(chain, sweep_options(), None, rng)
            out.append(chain)
        assert np.array_equal(out[0].g_data, out[1].g_data)
        assert np.array_equal(out[0].rejections, out[1].rejections)

    @pytest.mark.slow
    def test_frozen_function_rejection_count_posterior(self):
        # with the function frozen at zero the data say nothing about M, so
        # the posterior over M is the negative-binomial law; compare the
        # long-run mean against exact enumeration up to M = 200
        theta = GpHyper(amplitude=0.0, lengthscales=[1.0], mean=0.0)
        rng = np.random.default_rng(19)
        data = rng.uniform(0, 1, (5, 1))
        chain = init_history(data, theta, BOX, rng)
        opts = sweep_options()
        n_sweeps, burn = 6000, 500
        ms = np.empty(n_sweeps - burn)
        for i in range(n_sweeps):
            sweep(chain, opts, None, rng)
            if i >= burn:
                ms[i - burn] = chain.n_rejections
        p = 0.5
        m_grid = np.arange(201)
        log_pmf = (np.array([math.lgamma(m + 5) - math.lgamma(m + 1) for m in m_grid])
                   + m_grid * math.log(1 - p))
        pmf = np.exp(log_pmf - log_pmf.max())
        pmf /= pmf.sum()
        oracle_mean = float(m_grid @ pmf)
        batches = ms.reshape(22, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(ms.mean() - oracle_mean) < max(3 * se, 0.35)


class TestPredictiveSamplesHistory:
    # predictive draws continue the rejection sampler from a copy of the
    # chain's sampler
    @staticmethod
    def draws(chain, n, seed):
        return continue_sampler(chain.sampler.copy(), n, chain.psi,
                                np.random.default_rng(seed)).accepted

    def test_empty_request(self):
        h = make_history(np.random.default_rng(20))
        assert self.draws(h, 0, 0).shape == (0, 1)

    def test_seed_determinism(self):
        h = make_history(np.random.default_rng(21))
        assert np.array_equal(self.draws(h, 5, 1), self.draws(h, 5, 1))

    def test_state_not_mutated(self):
        chain = make_history(np.random.default_rng(22))
        s = chain.sampler
        before = (len(s), s.packed.copy(), s.whitened.copy(), s.values.copy())
        continue_sampler(s.copy(), 10, chain.psi, np.random.default_rng(2))
        assert len(s) == before[0]
        assert np.array_equal(s.packed, before[1])
        assert np.array_equal(s.whitened, before[2])
        assert np.array_equal(s.values, before[3])

    def test_saturated_state_gives_base_samples(self):
        theta = GpHyper(amplitude=0.0, lengthscales=[1.0], mean=40.0)
        h = HistoryChain([[0.5]], [40.0], theta, BOX)
        out = self.draws(h, 5000, 3)
        assert kstest(out[:, 0], "uniform").pvalue > 0.01

    @pytest.mark.slow
    def test_frozen_function_matches_quadrature(self):
        # chi-square of predictive draws against phi(m(x)) on the unit box
        mean_fn = lambda x: 1.5 * np.sin(6.0 * x[:, 0])
        theta = GpHyper(amplitude=0.0, lengthscales=[1.0], mean=mean_fn)
        h = HistoryChain([[0.5]], [mean_fn(np.array([[0.5]]))[0]], theta, BOX)
        out = self.draws(h, 10_000, 4)
        grid = np.linspace(0, 1, 4001)
        dens = phi(mean_fn(grid.reshape(-1, 1)))
        dens /= np.trapezoid(dens, grid)
        cdf = np.concatenate([[0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
        cdf /= cdf[-1]
        edges = np.linspace(0, 1, 21)
        probs = np.diff(np.interp(edges, grid, cdf))
        counts, _ = np.histogram(out[:, 0], edges)
        stat = np.sum((counts - 10_000 * probs) ** 2 / (10_000 * probs))
        assert chi2.sf(stat, df=19) > 0.01

    def test_avoids_suppressed_regions(self):
        # strong negative knowledge in the middle of the box lowers the
        # predictive mass there relative to the base density
        theta = GpHyper(amplitude=1.5, lengthscales=[0.1])
        anchors = np.linspace(0.4, 0.6, 9).reshape(-1, 1)
        h = HistoryChain([[0.1]], [0.5], theta, BOX, anchors, np.full(9, -8.0))
        out = self.draws(h, 250, 5)
        inside = np.mean((out[:, 0] > 0.42) & (out[:, 0] < 0.58))
        assert inside < 0.08  # base mass there would be 0.16
