"""Certification: guessing probability, LHS robustness, steering functional."""

import math
import multiprocessing
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng.linalg import ID2, PAULI_X, hermitian_part, min_eigenvalue, singlet_state
from steerqrng.simulate import werner_state

from conftest import BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED


def singlet_assemblage(eta):
    return asm.ideal_assemblage(singlet_state(), eta=eta)


def verify_decomposition(result, assem, tol=1e-6):
    """Independent feasibility check of the eavesdropper's decomposition.

    Positivity of every part, parts summing to the assemblage, and the
    objective value recomputed from the parts: together these certify the
    reported guessing probability is achievable.
    """
    dec = result.decomposition
    assert dec.parts.shape == (len(asm.OUTCOMES), *asm.MEMBERS)
    assert np.max(np.abs(dec.parts.sum(axis=0) - assem.sigma)) < tol
    x_star = asm.SETTINGS.index(result.x_star)
    recomputed = 0.0
    for e, part in enumerate(dec.parts):
        for mat in part.reshape(-1, 2, 2):
            assert min_eigenvalue(hermitian_part(mat)) > -tol
        recomputed += float(np.real(np.trace(part[x_star, e])))
    assert recomputed == pytest.approx(result.p_guess, abs=10 * tol)


def evaluate_functional(functional, assem):
    """beta = sum_ax Tr F_{a|x} sigma_{a|x} for a given assemblage."""
    return sum(
        float(np.real(np.trace(f @ sigma)))
        for f, sigma in zip(functional.reshape(-1, 2, 2), assem.sigma.reshape(-1, 2, 2))
    )


def run_bootstrap(bootstrap_run):
    """The fixture's bootstrap, run again."""
    return cert.bootstrap_uncertainty(
        bootstrap_run.counts,
        bootstrap_run.result.x_star,
        resamples=BOOTSTRAP_RESAMPLES,
        seed=BOOTSTRAP_SEED,
        point_estimate=bootstrap_run.reconstruction.assemblage,
    )


class TestGuessingProbability:
    def test_lossless_singlet_is_perfectly_unpredictable(self):
        for x_star in ("X", "Z"):
            result = cert.guessing_probability(singlet_assemblage(1.0), x_star)
            assert result.p_guess == pytest.approx(0.5, abs=1e-7)
            verify_decomposition(result, singlet_assemblage(1.0))

    def test_threshold_efficiency_gives_no_randomness(self):
        result = cert.guessing_probability(singlet_assemblage(0.5), "X")
        assert result.p_guess == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_law_above_threshold(self):
        """For the lossy singlet with these two measurements the optimum is
        linear in the heralding efficiency: p_guess = 3/2 - eta."""
        for eta in (0.52, 0.543, 0.6, 0.8):
            assem = singlet_assemblage(eta)
            result = cert.guessing_probability(assem, "X")
            assert result.p_guess == pytest.approx(1.5 - eta, abs=1e-7), eta
            verify_decomposition(result, assem)

    def test_settings_are_symmetric_for_singlet(self):
        assem = singlet_assemblage(0.7)
        px = cert.guessing_probability(assem, "X").p_guess
        pz = cert.guessing_probability(assem, "Z").p_guess
        assert px == pytest.approx(pz, abs=1e-7)

    def test_unsteerable_state_fully_guessable(self):
        # maximally mixed two-qubit state: no steering, no randomness
        assem = asm.ideal_assemblage(np.eye(4, dtype=complex) / 4, eta=0.9)
        result = cert.guessing_probability(assem, "Z")
        assert result.p_guess == pytest.approx(1.0, abs=1e-6)

    def test_trivial_lower_bound_holds(self):
        # Eve can always guess the most likely outcome outright
        assem = singlet_assemblage(0.543)
        result = cert.guessing_probability(assem, "X")
        trivial = max(
            float(np.real(np.trace(assem.sigma[asm.SETTINGS.index("X"), a])))
            for a in range(len(asm.OUTCOMES))
        )
        assert result.p_guess >= trivial - 1e-9

    def test_solver_converged_with_small_gap(self):
        result = cert.guessing_probability(singlet_assemblage(0.6), "Z")
        assert result.solution.status == "optimal"
        assert result.solution.gap < 1e-7

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError):
            cert.guessing_probability(singlet_assemblage(0.8), "Y")

    def test_invalid_assemblage_rejected(self, assem_singlet_543):
        with pytest.raises(cert.CertificationError):
            cert.guessing_probability(asm.Assemblage(1.1 * assem_singlet_543.sigma), "X")

    def test_solver_failure_reaches_certify(self, assem_singlet_543):
        """sigma_{0|X} moved by 0.9e-7 X: the assemblage passes validation,
        but the guessing SDP at Z stalls, and certify raises naming the
        solver's status rather than reporting a bound."""
        sigma = assem_singlet_543.sigma.copy()
        sigma[asm.SETTINGS.index("X"), 0] += 0.9e-7 * PAULI_X
        with pytest.raises(cert.CertificationError, match="numerical-failure"):
            cert.certify(asm.Assemblage(sigma), x_star="Z")


class TestMinEntropy:
    def test_anchors(self):
        assert cert.min_entropy(1.0) == pytest.approx(0.0, abs=1e-12)
        assert cert.min_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
        p = 1.5 - 0.543
        assert cert.min_entropy(p) == pytest.approx(-math.log2(p), abs=1e-12)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            cert.min_entropy(0.0)
        with pytest.raises(ValueError):
            cert.min_entropy(1.5)


class TestLhsRobustness:
    def test_steered_singlet_negative(self):
        result = cert.steering_functional(singlet_assemblage(0.8))
        assert result.mu < -1e-4

    def test_unsteerable_full_rank_positive(self):
        # Werner visibility 0.5 is well inside the unsteerable region and the
        # lossy assemblage is full rank: the model has slack on both sides
        assem = asm.ideal_assemblage(werner_state(0.5), eta=0.8)
        result = cert.steering_functional(assem)
        assert result.mu > 0.01

    def test_werner_boundary_signs_at_full_efficiency(self):
        v_crit = 1.0 / math.sqrt(2.0)
        below = cert.steering_functional(
            asm.ideal_assemblage(werner_state(v_crit - 0.01), eta=1.0))
        above = cert.steering_functional(
            asm.ideal_assemblage(werner_state(v_crit + 0.01), eta=1.0))
        assert below.mu >= -1e-8
        assert above.mu < -1e-4

    def test_hidden_states_reproduce_assemblage(self):
        """Primal feasibility of the returned model, checked from scratch:
        sum_lambda D(a|x,lambda) tau_lambda = sigma_{a|x} - slack."""
        assem = asm.ideal_assemblage(werner_state(0.5), eta=0.8)
        result = cert.steering_functional(assem)
        assert result.hidden_states.shape == (len(cert.STRATEGIES), 2, 2)
        for x in range(len(asm.SETTINGS)):
            for a in range(len(asm.OUTCOMES)):
                model = result.hidden_states[cert.STRATEGIES[:, x] == a].sum(axis=0)
                assert np.max(np.abs(model - assem.sigma[x, a])) < 1e-6
        for mat in result.hidden_states:
            slack = hermitian_part(mat) - result.mu * ID2
            assert min_eigenvalue(slack) > -1e-7

    @pytest.mark.parametrize("scale", [1 + 9e-8, 1 - 9e-8])
    def test_mu_scales_with_misnormalized_assemblage(self, scale):
        """An assemblage off normalization by less than the validation
        tolerance is certified as the scaled assemblage it is: mu is
        homogeneous of degree one in sigma."""
        assem = asm.ideal_assemblage(werner_state(0.5), eta=0.8)
        mu = cert.steering_functional(assem).mu
        scaled = cert.steering_functional(asm.Assemblage(scale * assem.sigma))
        assert scaled.mu == pytest.approx(scale * mu, abs=1e-9)
        assert scaled.beta == pytest.approx(scaled.mu, abs=1e-9)


class TestSteeringFunctional:
    def test_duality_gap_tiny(self):
        for assem in (
            singlet_assemblage(0.543),
            singlet_assemblage(1.0),
            asm.ideal_assemblage(werner_state(0.5), eta=0.8),
            asm.ideal_assemblage(werner_state(0.9), eta=0.7),
        ):
            steering = cert.steering_functional(assem)
            assert steering.beta == pytest.approx(steering.mu, abs=1e-8)

    def test_functional_is_dual_feasible(self):
        """G_lambda = sum_x F_{lambda(x)|x} must be PSD for all nine
        deterministic strategies, with unit normalization."""
        assem = singlet_assemblage(0.543)
        steering = cert.steering_functional(assem)
        assert len(cert.STRATEGIES) == 9
        total = 0.0
        for strat in cert.STRATEGIES:
            g = sum(steering.functional[x, a] for x, a in enumerate(strat))
            assert min_eigenvalue(hermitian_part(g)) > -1e-8
            total += float(np.real(np.trace(g)))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_witness_nonnegative_on_unsteerable_assemblages(self):
        """A functional extracted from a steered assemblage must evaluate to
        >= 0 on assemblages that admit a local-hidden-state model."""
        steering = cert.steering_functional(singlet_assemblage(0.543))
        assert steering.beta < -1e-4
        unsteerable = [
            asm.ideal_assemblage(werner_state(0.5), eta=0.8),
            asm.ideal_assemblage(np.eye(4, dtype=complex) / 4, eta=0.9),
            singlet_assemblage(0.4),
        ]
        for assem in unsteerable:
            assert evaluate_functional(steering.functional, assem) > -1e-8

    def test_value_matches_inner_product(self):
        assem = singlet_assemblage(0.7)
        steering = cert.steering_functional(assem)
        assert evaluate_functional(steering.functional, assem) == pytest.approx(
            steering.beta, abs=1e-8
        )


class TestCertifyOrchestrator:
    def test_fields_consistent(self, assem_singlet_543):
        result = cert.certify(assem_singlet_543, x_star="X")
        assert result.x_star == "X"
        assert result.h_min == pytest.approx(-math.log2(result.p_guess), abs=1e-12)
        assert result.p_guess == pytest.approx(1.5 - 0.543, abs=1e-7)
        assert result.beta == pytest.approx(result.mu, abs=1e-8)
        assert result.diagnostics["guessing_solver"]["status"] == "optimal"

    def test_explicit_setting_respected(self, assem_singlet_543):
        result = cert.certify(assem_singlet_543, x_star="Z")
        assert result.x_star == "Z"
        assert result.decomposition.x_star == "Z"

    def test_setting_is_required(self, assem_singlet_543):
        # no default: the caller names the setting its raw bits measure
        with pytest.raises(TypeError):
            cert.certify(assem_singlet_543)
        with pytest.raises(ValueError):
            cert.certify(assem_singlet_543, x_star="Y")

    def test_bootstrap_requires_counts(self, assem_singlet_543):
        with pytest.raises(ValueError):
            cert.certify(assem_singlet_543, x_star="Z", resamples=100)


class TestBootstrap:
    def test_minimum_resamples_enforced(self, bootstrap_run):
        with pytest.raises(ValueError):
            cert.bootstrap_uncertainty(
                bootstrap_run.counts, "X",
                point_estimate=bootstrap_run.reconstruction.assemblage,
                resamples=10, seed=1,
            )

    def test_statistics_sane(self, bootstrap_run):
        u = bootstrap_run.result.uncertainty
        assert u.resamples == BOOTSTRAP_RESAMPLES
        assert u.failed == 0
        assert u.h_min_std > 0.0
        assert len(u.h_min_values) == BOOTSTRAP_RESAMPLES
        # resampled spread brackets the point estimate
        assert abs(u.h_min_mean - bootstrap_run.result.h_min) < 5 * u.h_min_std
        assert u.p_guess_mean == pytest.approx(
            2.0 ** (-u.h_min_mean), abs=50 * u.p_guess_std
        )

    def test_deterministic_for_fixed_seed(self, bootstrap_run):
        repeat = run_bootstrap(bootstrap_run)
        baseline = bootstrap_run.result.uncertainty
        assert repeat.h_min_values == baseline.h_min_values
        assert repeat.h_min_mean == baseline.h_min_mean
        assert repeat.failed == baseline.failed

    def test_resamples_are_per_configuration_draws(self, bootstrap_run, monkeypatch):
        """The one multinomial call draws exactly the tables of one call per
        resample and (x, b) configuration, in that order, from the
        configuration's frequencies at its total."""
        counts = bootstrap_run.counts
        tables = []

        class Drawn(Exception):
            pass

        def capture(drawn, *, initial):
            tables.extend(drawn)
            raise Drawn

        # one slice: a forked worker's tables would stay in the worker
        monkeypatch.setattr(cert, "_cpu_count", lambda: 1)
        monkeypatch.setattr(cert, "ml_reconstruct_many", capture)
        with pytest.raises(Drawn):
            cert.bootstrap_uncertainty(counts, "Z", resamples=BOOTSTRAP_RESAMPLES,
                                       seed=BOOTSTRAP_SEED,
                                       point_estimate=bootstrap_run.reconstruction.assemblage)
        assert len(tables) == BOOTSTRAP_RESAMPLES
        rng = np.random.default_rng(BOOTSTRAP_SEED)
        for table in tables:
            assert table.n.shape == asm.CELLS
            for x in range(len(asm.SETTINGS)):
                for b in range(len(asm.BOB_BASES)):
                    cells = counts.n[x, b].ravel().astype(float)
                    want = rng.multinomial(counts.n[x, b].sum(), cells / cells.sum())
                    assert np.array_equal(table.n[x, b].ravel(), want)

    def test_unconverged_refits_counted_as_failed(self, bootstrap_run, monkeypatch):
        """With the iteration cap below most refits' needs, the slow resamples
        count as failed and the rest certify exactly as without the cap."""
        fits = []

        def spy(tables, *, initial):
            fits.extend(asm.ml_reconstruct_many(tables, initial=initial))
            return fits

        monkeypatch.setattr(asm, "ML_MAX_ITERATIONS", 130)
        # one slice: a forked worker's fits would stay in the worker
        monkeypatch.setattr(cert, "_cpu_count", lambda: 1)
        monkeypatch.setattr(cert, "ml_reconstruct_many", spy)
        capped = run_bootstrap(bootstrap_run)
        converged = [fit.converged for fit in fits]
        assert 0 < capped.failed < BOOTSTRAP_RESAMPLES
        assert capped.failed == converged.count(False)
        baseline = bootstrap_run.result.uncertainty.h_min_values
        assert capped.h_min_values == [h for h, ok in zip(baseline, converged) if ok]


# The fixture's bootstrap in 1, 2 and 3 slices, run by a fresh process with
# one BLAS thread: a single-threaded process, which forks its slices as
# ``steerqrng run`` started with OPENBLAS_NUM_THREADS=1 does.  The refit spy
# sees this process's slice only.
SPLIT_SCRIPT = """
import multiprocessing, os, pickle, sys
from steerqrng import assemblage as asm, certify as cert
counts, x_star, point, resamples, seed, capped = pickle.load(sys.stdin.buffer)
if capped:
    asm.ML_MAX_ITERATIONS = 130
converged, batches, clean, results = [], [], [], []
def spy(tables, *, initial):
    fits = asm.ml_reconstruct_many(tables, initial=initial)
    converged.extend(fit.converged for fit in fits)
    batches.append(len(tables))
    return fits
cert.ml_reconstruct_many = spy
cpus = os.sched_getaffinity(0)
for n_slices in (1, 2, 3):
    cert._cpu_count = lambda: n_slices
    results.append(cert.bootstrap_uncertainty(counts, x_star, point_estimate=point,
                                              resamples=resamples, seed=seed))
    clean.append(multiprocessing.active_children() == [] and os.sched_getaffinity(0) == cpus)
pickle.dump((cert._forks(), results, batches, converged, clean), sys.stdout.buffer)
"""


def run_split(bootstrap_run, capped):
    """(whether the process forked, the three results, the caller's refit
    batch sizes and convergence flags, whether each call left no worker and
    this process free to run on all its CPUs)."""
    src = os.path.dirname(os.path.dirname(cert.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    inputs = (bootstrap_run.counts, bootstrap_run.result.x_star,
              bootstrap_run.reconstruction.assemblage, BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED, capped)
    proc = subprocess.run([sys.executable, "-c", SPLIT_SCRIPT], input=pickle.dumps(inputs),
                          capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    return pickle.loads(proc.stdout)


class TestBootstrapSlices:
    """The resamples run in contiguous slices, one per CPU, every slice but
    the first in a forked worker, each bound to its own CPU."""

    @pytest.mark.parametrize("capped", [False, True], ids=["converged", "capped"])
    def test_result_independent_of_slice_count(self, bootstrap_run, capped):
        """1, 2 and 3 slices give the same result field for field, with
        h_min_values in resample order, and leave no worker running and the
        process free to run on all its CPUs; under the iteration cap the
        failed refits fall in every slice of both splits."""
        forked, results, batches, converged, clean = run_split(bootstrap_run, capped)
        assert forked, "a fresh process with one BLAS thread runs one thread and splits"
        assert batches == [BOOTSTRAP_RESAMPLES, BOOTSTRAP_RESAMPLES // 2, BOOTSTRAP_RESAMPLES // 3]
        assert clean == [True] * 3
        assert results[1] == results[0]
        assert results[2] == results[0]
        if capped:
            failed = [i for i, ok in enumerate(converged[:BOOTSTRAP_RESAMPLES]) if not ok]
            assert results[0].failed == len(failed)
            for n_slices in (2, 3):
                starts = [BOOTSTRAP_RESAMPLES * r // n_slices for r in range(n_slices)]
                hit = {max(r for r, lo in enumerate(starts) if lo <= i) for i in failed}
                assert hit == set(range(n_slices))
        else:
            assert results[0] == bootstrap_run.result.uncertainty

    def test_each_slice_runs_bound_to_its_cpu(self, bootstrap_run, monkeypatch):
        """The caller's slice runs on the first CPU and the worker's on the
        second, each alone; the caller is free again afterwards."""
        cpus = sorted(os.sched_getaffinity(0))

        def fake_slice(tables, point_estimate, x_star):
            # reports the CPUs the slice ran on through its values
            bound = os.sched_getaffinity(0)
            return [float(min(bound))] * len(tables), [float(len(bound))] * len(tables), 0

        monkeypatch.setattr(cert, "_bootstrap_slice", fake_slice)
        monkeypatch.setattr(cert, "_forks", lambda: True)
        monkeypatch.setattr(cert, "_cpu_count", lambda: 2)
        result = run_bootstrap(bootstrap_run)
        half = BOOTSTRAP_RESAMPLES // 2
        assert result.h_min_values == [float(cpus[0])] * half + [float(cpus[1 % len(cpus)])] * half
        assert result.p_guess_mean == 1.0
        assert os.sched_getaffinity(0) == set(cpus)
        assert multiprocessing.active_children() == []

    def test_one_slice_starts_no_process(self, bootstrap_run, monkeypatch):
        calls = []

        def no_fork():
            raise AssertionError("forked")

        def fake_slice(tables, point_estimate, x_star):
            calls.append(len(tables))
            return [1.0] * len(tables), [0.5] * len(tables), 0

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(cert, "_bootstrap_slice", fake_slice)
        monkeypatch.setattr(cert, "_forks", lambda: True)
        monkeypatch.setattr(cert, "_cpu_count", lambda: 1)
        run_bootstrap(bootstrap_run)
        # nor, however many CPUs there are, in a process that does not fork
        monkeypatch.setattr(cert, "_cpu_count", lambda: 4)
        monkeypatch.setattr(cert, "_forks", lambda: False)
        run_bootstrap(bootstrap_run)
        assert calls == [BOOTSTRAP_RESAMPLES] * 2

    def test_only_a_single_threaded_process_forks(self, monkeypatch):
        forks = cert._forks.__wrapped__
        for threads in (0, 2, 5):
            monkeypatch.setattr(cert, "_thread_count", lambda: threads)
            assert not forks()
        # a single thread forks where fork is a start method and the slices
        # can be bound to CPUs
        monkeypatch.setattr(cert, "_thread_count", lambda: 1)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
        assert forks() == hasattr(os, "sched_setaffinity")
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert not forks()
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert not forks()

    @pytest.mark.parametrize("raising", ["caller", "worker"])
    def test_error_in_a_slice_reraises_and_joins_workers(self, bootstrap_run, monkeypatch,
                                                         raising):
        """A ValueError raised in the caller's slice or a worker's re-raises
        in the caller, with no worker left running and this process free to
        run on all its CPUs."""
        caller = os.getpid()
        cpus = os.sched_getaffinity(0)

        def refit(tables, *, initial):
            if (os.getpid() == caller) == (raising == "caller"):
                raise ValueError(f"refit failed in the {raising}")
            return []

        monkeypatch.setattr(cert, "_cpu_count", lambda: 2)
        monkeypatch.setattr(cert, "_forks", lambda: True)
        monkeypatch.setattr(cert, "ml_reconstruct_many", refit)
        with pytest.raises(ValueError, match=f"refit failed in the {raising}"):
            run_bootstrap(bootstrap_run)
        assert multiprocessing.active_children() == []
        assert os.sched_getaffinity(0) == cpus


class TestSerialization:
    def test_round_trip_with_uncertainty(self, tmp_path, bootstrap_run):
        path = tmp_path / "certification.txt"
        cert.save_certification(bootstrap_run.result, str(path))
        loaded = cert.load_certification(str(path))
        for name in ("x_star",):
            assert getattr(loaded, name) == getattr(bootstrap_run.result, name)
        for name in ("p_guess", "h_min", "mu", "beta"):
            assert getattr(loaded, name) == getattr(bootstrap_run.result, name)
        assert loaded.uncertainty.h_min_mean == \
            bootstrap_run.result.uncertainty.h_min_mean
        assert loaded.uncertainty.resamples == BOOTSTRAP_RESAMPLES
        assert loaded.functional.shape == asm.MEMBERS
        assert np.allclose(loaded.functional, bootstrap_run.result.functional, atol=1e-15)

    def test_round_trip_without_uncertainty(self, tmp_path, assem_singlet_543):
        result = cert.certify(assem_singlet_543, x_star="Z")
        path = tmp_path / "certification.txt"
        cert.save_certification(result, str(path))
        loaded = cert.load_certification(str(path))
        assert loaded.uncertainty is None
        assert loaded.p_guess == result.p_guess

    @staticmethod
    def edited_functional(tmp_path, result, edit):
        """A saved certificate whose lines from the ``functional X null``
        block on are replaced by ``edit(block, rest)``."""
        path = tmp_path / "certification.txt"
        cert.save_certification(result, str(path))
        lines = path.read_text().splitlines()
        at = lines.index("functional X null")
        path.write_text("\n".join(lines[:at] + edit(lines[at:at + 3], lines[at + 3:])) + "\n")
        return str(path)

    def test_missing_functional_block_rejected(self, tmp_path, assem_singlet_543):
        result = cert.certify(assem_singlet_543, x_star="Z")
        path = self.edited_functional(tmp_path, result, lambda block, rest: rest)
        with pytest.raises(ValueError, match="5 of 6"):
            cert.load_certification(path)

    def test_repeated_functional_block_rejected(self, tmp_path, assem_singlet_543):
        result = cert.certify(assem_singlet_543, x_star="Z")
        path = self.edited_functional(tmp_path, result, lambda block, rest: block + block + rest)
        with pytest.raises(ValueError, match="repeated functional block X null"):
            cert.load_certification(path)

    @staticmethod
    def edited(tmp_path, result, edit):
        """A saved certificate whose text is replaced by ``edit(text)``."""
        path = tmp_path / "certification.txt"
        cert.save_certification(result, str(path))
        path.write_text(edit(path.read_text()))
        return str(path)

    def test_repeated_key_rejected(self, tmp_path, assem_singlet_543):
        """A second h_min after the certified one used to win."""
        result = cert.certify(assem_singlet_543, x_star="Z")
        path = self.edited(tmp_path, result, lambda text: text.replace("\nmu ", "\nh_min 0.9\nmu "))
        with pytest.raises(ValueError, match="repeated key h_min"):
            cert.load_certification(path)

    def test_certification_without_p_guess_rejected(self, tmp_path, assem_singlet_543):
        result = cert.certify(assem_singlet_543, x_star="Z")
        path = self.edited(tmp_path, result, lambda text: "".join(
            line for line in text.splitlines(keepends=True) if not line.startswith("p_guess ")))
        with pytest.raises(KeyError, match="p_guess"):
            cert.load_certification(path)

    def test_truncated_certification_rejected(self, tmp_path, assem_singlet_543):
        """A certificate cut off after the first row of its last functional
        block is malformed; that row is not copied into the block's second."""
        result = cert.certify(assem_singlet_543, x_star="Z")
        path = self.edited(tmp_path, result,
                           lambda text: text[:text.rstrip("\n").rindex("\n") + 1])
        with open(path, encoding="ascii") as fh:
            assert fh.read().splitlines()[-2].startswith("functional ")
        with pytest.raises(ValueError, match="two rows of 4 numbers"):
            cert.load_certification(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("format something-else\n")
        with pytest.raises(ValueError):
            cert.load_certification(str(path))
