"""Assemblages, Born statistics, tomography counts and the ML fit."""

import numpy as np
import pytest

from steerqrng import assemblage as asm
from steerqrng.linalg import ID2, ket, ket_minus, projector
from steerqrng.simulate import werner_state


def max_member_distance(a, b):
    return float(np.max(np.abs(a.sigma - b.sigma)))


def member(x, a):
    """Index of sigma_{a|x} in an assemblage array of shape ``asm.MEMBERS``."""
    return asm.SETTINGS.index(x), asm.OUTCOMES.index(a)


def cell(x, a, b, beta):
    """Index of the (x, a, b, beta) count in a table of shape ``asm.CELLS``."""
    return asm.SETTINGS.index(x), asm.BOB_BASES.index(b), asm.OUTCOMES.index(a), beta


def exact_counts(visibility=0.7, eta=0.6, per_config=100_000):
    """Counts exactly proportional to the Born probabilities.

    At V = 0.7, eta = 0.6 every cell probability is a multiple of 1/1000, so
    per_config = 100000 yields integers and the empirical frequencies equal
    the model exactly: the ML optimum is the true assemblage itself.
    """
    assem = asm.ideal_assemblage(werner_state(visibility), eta=eta)
    scaled = asm.born_probabilities(assem) * per_config
    assert np.max(np.abs(scaled - np.round(scaled))) < 1e-6
    return asm.TomographyCounts(np.round(scaled).astype(np.int64)), assem


class TestMeasurements:
    def test_default_measurements_are_projective(self, measurements):
        assert measurements.shape == (len(asm.SETTINGS), 2, 2, 2)
        for x in range(len(asm.SETTINGS)):
            for a in (0, 1):
                e = measurements[x, a]
                assert np.allclose(e, e.conj().T, atol=1e-12)
                assert np.allclose(e @ e, e, atol=1e-12)
            total = measurements[x, 0] + measurements[x, 1]
            assert np.allclose(total, ID2, atol=1e-12)

    def test_bob_projectors_cover_three_bases(self):
        projs = asm.bob_projectors()
        assert asm.BOB_BASES == ("X", "Y", "Z")
        assert projs.shape == (len(asm.BOB_BASES), 2, 2, 2)
        for b in range(len(asm.BOB_BASES)):
            assert np.allclose(projs[b, 0] + projs[b, 1], ID2, atol=1e-12)
            assert np.allclose(projs[b, 0] @ projs[b, 1], 0.0, atol=1e-12)


class TestIdealAssemblage:
    def test_singlet_steered_states(self, singlet):
        eta = 0.8
        assem = asm.ideal_assemblage(singlet, eta=eta)
        # Alice's Z outcome 0 steers Bob to |1>
        assert np.allclose(
            assem.sigma[member("Z", 0)], (eta / 2) * projector(ket(0, 1)), atol=1e-12
        )
        # Alice's X outcome 0 steers Bob to |->
        assert np.allclose(
            assem.sigma[member("X", 0)], (eta / 2) * projector(ket_minus()), atol=1e-12
        )
        # no-detection member carries the undisturbed marginal
        assert np.allclose(assem.sigma[member("Z", None)], (1 - eta) * ID2 / 2, atol=1e-12)

    def test_detected_members_have_equal_weight(self, singlet):
        assem = asm.ideal_assemblage(singlet, eta=0.543)
        for x in ("X", "Z"):
            for a in (0, 1):
                tr = float(np.real(np.trace(assem.sigma[member(x, a)])))
                assert tr == pytest.approx(0.543 / 2, abs=1e-12)

    def test_non_signaling_by_construction(self, singlet):
        assem = asm.ideal_assemblage(singlet, eta=0.7)
        for bob_state in assem.sigma.sum(axis=1):  # one per setting
            assert np.allclose(bob_state, ID2 / 2, atol=1e-12)

    def test_linear_in_visibility(self):
        v = 0.37
        mixed = asm.ideal_assemblage(werner_state(v), eta=0.9)
        ends = [asm.ideal_assemblage(werner_state(x), eta=0.9) for x in (1.0, 0.0)]
        combo = v * ends[0].sigma + (1 - v) * ends[1].sigma
        assert np.allclose(mixed.sigma, combo, atol=1e-12)

    def test_eta_range_checked(self, singlet):
        with pytest.raises(ValueError):
            asm.ideal_assemblage(singlet, eta=1.2)
        with pytest.raises(ValueError):
            asm.ideal_assemblage(singlet, eta=-0.1)

    def test_array_layout(self, assem_singlet_543):
        sigma = assem_singlet_543.sigma
        assert asm.MEMBERS == (2, 3, 2, 2)
        assert sigma.shape == asm.MEMBERS and sigma.dtype == complex
        # settings-major, outcomes (0, 1, null): the order of assemblage.txt
        flat = sigma.reshape(-1, 2, 2)
        assert np.array_equal(flat[4], sigma[member("Z", 1)])
        assert np.array_equal(flat[5], sigma[member("Z", None)])


class TestValidation:
    def test_ideal_assemblage_validates(self, assem_singlet_543):
        report = asm.validate_assemblage(assem_singlet_543)
        assert report.ok
        assert report.hermiticity_error < 1e-12
        assert report.normalization_error < 1e-12
        assert report.signaling_error < 1e-12

    def test_normalization_violation_flagged(self, assem_singlet_543):
        bad = asm.Assemblage(1.01 * assem_singlet_543.sigma)
        report = asm.validate_assemblage(bad)
        assert not report.ok
        assert report.normalization_error == pytest.approx(0.01, abs=1e-9)

    def test_signaling_violation_flagged(self, assem_singlet_543):
        sigma = assem_singlet_543.sigma.copy()
        sigma[member("X", 0)] += np.array([[0.02, 0.0], [0.0, -0.02]], dtype=complex)
        bad = asm.Assemblage(sigma)
        report = asm.validate_assemblage(bad)
        assert not report.ok
        assert report.signaling_error > 0.01

    def test_negative_member_flagged(self, assem_singlet_543):
        sigma = assem_singlet_543.sigma.copy()
        sigma[member("Z", None)] -= 0.5 * ID2
        # restore normalization so only positivity trips
        sigma[member("Z", 0)] += 0.25 * ID2
        sigma[member("Z", 1)] += 0.25 * ID2
        bad = asm.Assemblage(sigma)
        report = asm.validate_assemblage(bad)
        assert not report.ok
        assert report.min_eigenvalue < -0.1

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (6, 2, 2), (2, 3, 2)],
                             ids=["two-outcomes", "flat", "not-matrices"])
    def test_wrong_shape_rejected(self, assem_singlet_543, shape):
        sigma = assem_singlet_543.sigma.reshape(-1)[:int(np.prod(shape))].reshape(shape)
        with pytest.raises(ValueError, match="shape"):
            asm.validate_assemblage(asm.Assemblage(sigma))


class TestBornProbabilities:
    def test_distributions_normalized(self, assem_singlet_543):
        probs = asm.born_probabilities(assem_singlet_543)
        assert probs.shape == asm.CELLS
        for x in ("X", "Z"):
            for b in ("X", "Y", "Z"):
                total = sum(
                    probs[cell(x, a, b, beta)] for a in (0, 1, None) for beta in (0, 1)
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_singlet_anticorrelation(self, singlet):
        eta = 0.543
        probs = asm.born_probabilities(asm.ideal_assemblage(singlet, eta=eta))
        # aligned bases never agree
        assert probs[cell("Z", 0, "Z", 0)] == pytest.approx(0.0, abs=1e-12)
        assert probs[cell("Z", 0, "Z", 1)] == pytest.approx(eta / 2, abs=1e-12)
        assert probs[cell("X", 1, "X", 1)] == pytest.approx(0.0, abs=1e-12)
        # unaligned bases are uniform
        assert probs[cell("Z", 0, "X", 0)] == pytest.approx(eta / 4, abs=1e-12)
        assert probs[cell("X", 0, "Y", 1)] == pytest.approx(eta / 4, abs=1e-12)
        # loss events are basis-independent
        for b in ("X", "Y", "Z"):
            assert probs[cell("Z", None, b, 0)] == pytest.approx((1 - eta) / 2, abs=1e-12)


class TestTomographyCounts:
    def test_totals_and_cells(self):
        counts, _ = exact_counts()
        assert counts.totals()[0, 1] == 100_000  # (x, b) = (X, Y)
        # eta (1 -/+ V) / 4 with eta = 0.6, V = 0.7
        assert counts.n[cell("Z", 0, "Z", 0)] == 4500
        assert counts.n[cell("Z", 0, "Z", 1)] == 25500
        assert counts.n[cell("Z", None, "Z", 0)] == 20000

    def test_validate_rejects_negative(self):
        counts, _ = exact_counts()
        counts.n[cell("X", 0, "X", 0)] = -1
        with pytest.raises(ValueError):
            counts.validate()

    def test_validate_rejects_wrong_shape(self):
        counts, _ = exact_counts()
        with pytest.raises(ValueError, match="shape"):
            asm.TomographyCounts(counts.n[:, :2]).validate()

    def test_validate_rejects_float_counts(self):
        counts, _ = exact_counts()
        with pytest.raises(ValueError, match="dtype"):
            asm.TomographyCounts(counts.n.astype(float)).validate()

    def test_round_trip(self, tmp_path):
        counts, _ = exact_counts()
        path = tmp_path / "counts.txt"
        asm.save_counts(counts, str(path))
        loaded = asm.load_counts(str(path))
        assert np.issubdtype(loaded.n.dtype, np.integer)
        assert np.array_equal(loaded.n, counts.n)

    def test_save_load_save_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        asm.save_counts(biased_counts(), str(first))
        asm.save_counts(asm.load_counts(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("old, new", [
        ("settings X Z", "settings X Q"), ("bases X Y Z", "bases X Y"),
        ("Z null Z 1 ", "Z none Z 1 "), ("X 0 X 0 ", "Q 0 X 0 "),
    ], ids=["foreign-settings", "foreign-bases", "unknown-outcome", "unknown-setting"])
    def test_load_rejects_other_layouts(self, tmp_path, old, new):
        path = tmp_path / "counts.txt"
        asm.save_counts(exact_counts()[0], str(path))
        text = path.read_text()
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ValueError):
            asm.load_counts(str(path))


def resampled_counts(counts, rng, per_config=20_000):
    """Multinomial redraw of every configuration from the frequencies of ``counts``."""
    p = counts.n.reshape(*counts.totals().shape, -1).astype(float)
    draws = rng.multinomial(per_config, p / p.sum(axis=-1, keepdims=True))
    return asm.TomographyCounts(draws.reshape(asm.CELLS))


def biased_counts():
    """Exact counts doctored to prefer different Bob marginals for X and Z."""
    counts, _ = exact_counts()
    for beta in (0, 1):
        counts.n[cell("Z", 0, "Z", beta)] += 4000 * (1 + beta)
        counts.n[cell("X", 1, "X", beta)] += 1500
    return counts


def random_hermitian(rng, n):
    m = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def psd_oracle(mats):
    """Frobenius-nearest PSD matrices: eigendecomposition, negative eigenvalues clipped."""
    vals, vecs = np.linalg.eigh(mats)
    return np.einsum("nij,nj,nkj->nik", vecs, np.maximum(vals, 0.0), vecs.conj())


class TestProjections:
    """The closed-form projections in Pauli coordinates against direct oracles."""

    def test_pauli_round_trip(self, rng):
        mats = random_hermitian(rng, 50)
        v = asm._pauli_coordinates(mats)
        assert np.max(np.abs(asm._from_pauli(v) - mats)) < 1e-15
        # ||sigma||_F^2 = |v|^2 / 2, so Euclidean distance in v is Frobenius distance
        frob = np.sum(np.abs(mats) ** 2, axis=(1, 2))
        assert np.allclose(frob, 0.5 * np.sum(v ** 2, axis=1), rtol=1e-14)

    def test_psd_projection_matches_eigh(self, rng):
        mats = random_hermitian(rng, 500)
        got = asm._from_pauli(asm._psd_project(asm._pauli_coordinates(mats)))
        assert np.max(np.abs(got - psd_oracle(mats))) < 1e-14

    @pytest.mark.parametrize("v", [
        [5.0, 3.0, 0.0, 4.0],      # t = r (exactly): rank one, on the boundary
        [-5.0, 3.0, 0.0, -4.0],    # t = -r: rank one negative, goes to zero
        [0.7, 0.0, 0.0, 0.0],      # r = 0, positive multiple of the identity
        [-0.7, 0.0, 0.0, 0.0],     # r = 0, negative definite
        [0.0, 0.0, 0.0, 0.0],      # zero
        [-2.0, 0.3, -0.4, 1.2],    # negative definite
        [2.0, 0.3, -0.4, 1.2],     # positive definite
        [0.2, 0.3, -0.4, 1.2],     # indefinite
    ], ids=["t-eq-r", "t-eq-minus-r", "r-zero-positive", "r-zero-negative", "zero",
            "negative-definite", "positive-definite", "indefinite"])
    def test_psd_projection_edge_cases(self, v):
        v = np.array([v])
        got = asm._psd_project(v)
        oracle = asm._pauli_coordinates(psd_oracle(asm._from_pauli(v)))
        assert np.max(np.abs(got - oracle)) < 1e-15
        if v[0, 0] >= np.linalg.norm(v[0, 1:]):
            # already PSD: left exactly as it is
            assert np.array_equal(got, v)

    def test_affine_projection_feasible_idempotent_nearest(self, rng):
        v = rng.normal(size=(20, 6, 4))
        p = asm._affine_project(v)
        sums = p.reshape(20, 2, 3, 4).sum(axis=2)
        assert np.max(np.abs(sums[:, :, 0] - 1.0)) < 1e-15
        assert np.max(np.abs(sums[:, 0] - sums[:, 1])) < 1e-15
        assert np.max(np.abs(asm._affine_project(p) - p)) < 1e-15
        # nearest point: the residual is orthogonal to every direction
        # inside the affine set
        other = asm._affine_project(rng.normal(size=(20, 6, 4)))
        inner = np.sum((v - p) * (other - p), axis=(1, 2))
        assert np.max(np.abs(inner)) < 1e-12


class TestMlReconstruction:
    def test_exact_counts_fixed_point(self):
        """With frequencies equal to a realizable model, the fit must return
        that model (up to solver tolerance): the oracle for the fit."""
        counts, truth = exact_counts()
        rec = asm.ml_reconstruct(counts)
        assert rec.converged
        assert max_member_distance(rec.assemblage, truth) < 1e-6

    def test_two_starts_agree(self):
        counts, _ = exact_counts()
        rec = asm.ml_reconstruct(counts)
        assert len(rec.start_log_likelihoods) == 2
        spread = max(rec.start_log_likelihoods) - min(rec.start_log_likelihoods)
        assert spread < 1e-6

    def test_noisy_counts_recover_model(self, rng):
        truth = asm.ideal_assemblage(werner_state(0.9), eta=0.7)
        p = asm.born_probabilities(truth).reshape(2, 3, 6)
        draws = rng.multinomial(200_000, p / p.sum(axis=-1, keepdims=True))
        counts = asm.TomographyCounts(draws.reshape(asm.CELLS))
        rec = asm.ml_reconstruct(counts)
        assert rec.converged
        assert asm.validate_assemblage(rec.assemblage, tol=1e-8).ok
        # statistical error at 2e5 trials per configuration is ~2e-3
        assert max_member_distance(rec.assemblage, truth) < 6e-3

    def test_warm_start_converges_fast(self):
        counts, truth = exact_counts()
        cold = asm.ml_reconstruct(counts)
        warm = asm.ml_reconstruct_many([counts], initial=truth)[0]
        assert warm.converged
        assert warm.iterations <= cold.iterations
        assert max_member_distance(warm.assemblage, truth) < 1e-6

    def test_biased_marginals_still_non_signaling(self):
        """Counts doctored to prefer different Bob marginals for X and Z
        settings: the fit lives on the non-signaling manifold regardless."""
        rec = asm.ml_reconstruct(biased_counts())
        assert rec.converged
        report = asm.validate_assemblage(rec.assemblage, tol=1e-7)
        assert report.ok
        assert report.signaling_error < 1e-8

    def test_warm_start_outside_the_cone_rejected(self):
        """A warm start that leaves a member outside its cone is refused,
        not fitted from a point where the barrier is undefined."""
        counts, truth = exact_counts()
        flipped = asm.Assemblage(truth.sigma.copy())
        flipped.sigma[member("X", 0)] *= -1.0
        with pytest.raises(ValueError, match="outside the PSD cone"):
            asm.ml_reconstruct_many([counts], initial=flipped)

    def test_missing_configuration_rejected(self):
        counts, _ = exact_counts()
        counts.n[0, 1] = 0  # (x, b) = (X, Y)
        with pytest.raises(asm.InsufficientDataError, match="x=X, b=Y"):
            asm.ml_reconstruct(counts)

    @staticmethod
    def batch_tables(rng):
        """Resamples of the V = 0.7 model, the biased table, and resamples of
        the pure-state (V = 1) model, whose fitted members are rank one, so
        those fits approach the cones' boundary and take more Newton steps."""
        counts, truth = exact_counts()
        pure, _ = exact_counts(visibility=1.0)
        tables = [resampled_counts(counts, rng) for _ in range(2)] + [biased_counts()]
        return tables + [resampled_counts(pure, rng) for _ in range(2)], truth

    @staticmethod
    def assert_same_fit(got, want):
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.log_likelihood == want.log_likelihood
        assert np.array_equal(got.assemblage.sigma, want.assemblage.sigma)

    def test_many_equals_solo_fits(self, rng):
        """Each fit of the batch is bit-identical to the same fit run alone."""
        tables, truth = self.batch_tables(rng)
        fits = asm.ml_reconstruct_many(tables, initial=truth)
        assert len(fits) == len(tables)
        for table, fit in zip(tables, fits):
            assert fit.converged
            self.assert_same_fit(fit, asm.ml_reconstruct_many([table], initial=truth)[0])
        assert len({fit.iterations for fit in fits}) > 1

    def test_many_reports_slow_fit_unconverged(self, rng, monkeypatch):
        tables, truth = self.batch_tables(rng)
        full = asm.ml_reconstruct_many(tables, initial=truth)
        cap = sorted(fit.iterations for fit in full)[2]
        assert max(fit.iterations for fit in full) > cap
        monkeypatch.setattr(asm, "ML_MAX_ITERATIONS", cap)
        capped = asm.ml_reconstruct_many(tables, initial=truth)
        for table, want, got in zip(tables, full, capped):
            if want.iterations <= cap:
                self.assert_same_fit(got, want)
            else:
                assert not got.converged
                assert got.iterations == cap
                assert not asm.ml_reconstruct_many([table], initial=truth)[0].converged


def random_assemblages(rng, count):
    """Ideal assemblages of random two-qubit states at random efficiencies."""
    out = []
    for _ in range(count):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        out.append(asm.ideal_assemblage(rho / np.trace(rho).real, eta=rng.uniform()))
    return out


def log_likelihood_gradient(counts, assem):
    """Gradient of the per-trial log-likelihood at ``assem``, one Hermitian
    matrix per member: sum over Bob's cells of n / (T p) times the projector."""
    p = asm.born_probabilities(assem)
    ratio = np.divide(counts.n, p * counts.n.sum(), out=np.zeros(p.shape), where=counts.n > 0)
    return np.einsum("xbay,byij->xaij", ratio, asm.bob_projectors())


# The log-likelihood that the projected-gradient ascent, which the barrier
# fit replaced, reached on each table.
ASCENT_LOG_LIKELIHOOD = {"exact": -1036775.7224126285, "biased": -1065715.800494672,
                         "pure": -986050.6318759471, "ml_fit": -9834170.887590347}


class TestMlOptimality:
    """The fit is the likelihood maximum, checked from the likelihood alone."""

    @staticmethod
    def table(name, ml_fit):
        """(counts, the fit, the true assemblage)."""
        if name == "ml_fit":
            config = ml_fit.config
            return ml_fit.counts, ml_fit.reconstruction, asm.ideal_assemblage(
                werner_state(config.visibility), eta=config.eta_alice)
        counts, truth = {"exact": exact_counts, "pure": lambda: exact_counts(visibility=1.0),
                         "biased": lambda: (biased_counts(), exact_counts()[1])}[name]()
        return counts, asm.ml_reconstruct(counts), truth

    @pytest.mark.parametrize("name", ["exact", "biased", "ml_fit", "pure"])
    def test_fit_is_the_maximum(self, name, ml_fit):
        """First-order optimality over the convex set of valid assemblages:
        no direction towards another valid assemblage u raises the per-trial
        log-likelihood by more than the stop's gap bound, <grad, u - v*> <=
        ML_GAP_TOL; and the fit is valid and at least as likely as the
        ascent's.  "pure" (V = 1) has zero cells and rank-one members."""
        counts, fit, truth = self.table(name, ml_fit)
        assert fit.converged
        assert (name == "pure") == (counts.n == 0).any()
        assert fit.log_likelihood >= ASCENT_LOG_LIKELIHOOD[name]
        assert asm.validate_assemblage(fit.assemblage, tol=1e-9).ok
        grad = log_likelihood_gradient(counts, fit.assemblage)
        others = random_assemblages(np.random.default_rng(7), 199) + [truth]
        slopes = [np.real(np.sum(grad * (u.sigma - fit.assemblage.sigma).conj())) for u in others]
        assert max(slopes) <= asm.ML_GAP_TOL


class TestAssemblageSerialization:
    def test_round_trip(self, tmp_path, assem_singlet_543):
        path = tmp_path / "assemblage.txt"
        asm.save_assemblage(assem_singlet_543, str(path))
        loaded = asm.load_assemblage(str(path))
        assert loaded.sigma.shape == asm.MEMBERS
        assert max_member_distance(loaded, assem_singlet_543) < 1e-12

    def test_round_trip_preserves_complex_parts(self, tmp_path):
        rho = werner_state(0.8)
        # rotate to get nonzero imaginary parts in the steered states
        assem = asm.ideal_assemblage(rho, eta=0.9)
        sigma = assem.sigma.copy()
        sigma[..., 0, 1] += 0.01j
        sigma[..., 1, 0] -= 0.01j
        twisted = asm.Assemblage(sigma)
        path = tmp_path / "assemblage.txt"
        asm.save_assemblage(twisted, str(path))
        loaded = asm.load_assemblage(str(path))
        assert max_member_distance(loaded, twisted) < 1e-12

    @pytest.mark.parametrize("rows", [["1 0 0 0"], ["1 0 0 0", "0 0 1"],
                                      ["1 0 0 0", "0 0 1 0 5"], ["1 0 0 0"] * 3],
                             ids=["one-row", "short-row", "long-row", "three-rows"])
    def test_parse_block_requires_two_rows_of_four(self, rows):
        with pytest.raises(ValueError, match="two rows of 4 numbers"):
            asm.parse_block(rows)

    @pytest.mark.parametrize("old, new", [
        ("settings X Z", "settings X Q"), ("member Z null", "member Q null"),
    ], ids=["foreign-settings", "unknown-member"])
    def test_load_rejects_other_layouts(self, tmp_path, assem_singlet_543, old, new):
        path = tmp_path / "assemblage.txt"
        asm.save_assemblage(assem_singlet_543, str(path))
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ValueError):
            asm.load_assemblage(str(path))
