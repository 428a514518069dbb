"""Log-barrier cone solver on problems with independently known answers."""

import dataclasses

import numpy as np
import pytest

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng import sdp
from steerqrng import simulate as sim
from steerqrng.linalg import PAULI_X, PAULI_Y, PAULI_Z, singlet_state

from conftest import steering_cases

EYE = np.eye(2, dtype=complex)


def pauli(mat):
    """Pauli coordinates (Tr s, Tr Xs, Tr Ys, Tr Zs) of a 2x2 matrix."""
    return asm._pauli_coordinates(np.asarray(mat, dtype=complex))


def problem_of(objective, constraints, start):
    """The SdpProblem of label -> 2x2 matrix dicts over the labels of
    ``start``, in its order: ``objective`` maps labels to C_k and each
    constraint is a pair (label -> A_jk, b_j), Tr(A X) = a . x / 2 in Pauli
    coordinates; absent labels are zero."""
    labels = list(start)
    columns = {label: 4 * k for k, label in enumerate(labels)}

    def row(coeffs):
        out = np.zeros(4 * len(labels))
        for label, mat in coeffs.items():
            out[columns[label]:columns[label] + 4] = 0.5 * pauli(mat)
        return out

    return sdp.SdpProblem(
        blocks=labels, objective=row(objective),
        constraints=np.array([row(coeffs) for coeffs, _ in constraints]).reshape(len(constraints), -1),
        rhs=np.array([rhs for _, rhs in constraints], dtype=float),
        start=np.concatenate([pauli(start[label]) for label in labels]))


def lam_max_problem(a):
    """max Tr(A X) over X >= 0 with Tr X = 1: the largest eigenvalue."""
    return problem_of({"x": a}, [({"x": EYE}, 1.0)], {"x": EYE / 2})


def solved(problem):
    sol = sdp.solve(problem)
    assert sol.status == sdp.OPTIMAL, sol.message
    return sol


def hermitian(rng, complex_entries=True):
    a = rng.normal(size=(2, 2)) + (1j * rng.normal(size=(2, 2)) if complex_entries else 0)
    return 0.5 * (a + a.conj().T)


def from_rows(sol, k):
    return asm._from_pauli(sol.primal[k])


def negative_trace_problem():
    return problem_of({"x": EYE}, [({"x": EYE}, -1.0)], {"x": EYE / 2})


def psd_infeasible_problem():
    # Tr X = 1 with <sigma_x> = 2 on a qubit: the rows are independent and
    # consistent, so only the cone makes the problem infeasible
    return problem_of({"x": PAULI_Z}, [({"x": EYE}, 1.0), ({"x": PAULI_X}, 2.0)], {"x": EYE / 2})


def inconsistent_rows_problem():
    return problem_of({"x": EYE}, [({"x": EYE}, 1.0), ({"x": EYE}, 2.0)], {"x": EYE / 2})


def redundant_rows_problem(a):
    return problem_of({"x": a}, [({"x": EYE}, 1.0), ({"x": 2.0 * EYE}, 2.0)], {"x": EYE / 2})


class TestKnownOptima:
    def test_diagonal_lp(self):
        # max u + 2v subject to u + v = 1, u, v >= 0  ->  2 at (0, 1); each
        # scalar is a ray (u, 0, 0, 0), as a rank-1 member's part is
        rows = np.zeros((7, 8))
        rows[0, [0, 4]] = 1.0
        rows[1:4, 1:4] = rows[4:7, 5:8] = np.eye(3)
        problem = sdp.SdpProblem(blocks=["u", "v"], objective=np.array([1.0, 0, 0, 0, 2, 0, 0, 0]),
                                 constraints=rows, rhs=np.eye(7)[0],
                                 start=np.array([0.5, 0, 0, 0, 0.5, 0, 0, 0]))
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(2.0, abs=1e-9)
        assert sol.primal[1] == pytest.approx([1.0, 0, 0, 0], abs=1e-9)

    def test_largest_eigenvalue_real(self, rng):
        a = hermitian(rng, complex_entries=False)
        sol = solved(lam_max_problem(a))
        assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-9)

    def test_largest_eigenvalue_complex(self, rng):
        a = hermitian(rng)
        sol = solved(lam_max_problem(a))
        assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-9)
        # optimizer is the projector onto the top eigenvector
        w, v = np.linalg.eigh(a)
        top = np.outer(v[:, -1], v[:, -1].conj())
        assert np.allclose(from_rows(sol, 0), top, atol=1e-5)

    def test_smallest_eigenvalue_min_sense(self):
        # min Tr(Y X) is -max Tr(-Y X)
        sol = solved(lam_max_problem(-PAULI_Y))
        assert -sol.primal_value == pytest.approx(-1.0, abs=1e-9)

    def test_two_independent_blocks(self):
        problem = problem_of({"p": np.diag([1.0, 3.0]), "q": PAULI_Z},
                             [({"p": EYE}, 1.0), ({"q": EYE}, 2.0)], {"p": EYE / 2, "q": EYE})
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(3.0 + 2.0, abs=1e-9)

    def test_cross_block_coupling(self):
        # max Tr(Z p) + Tr(Z q) / 2 with the single row Tr p + Tr q = 1:
        # all weight on p's |0><0|, value 1
        problem = problem_of({"p": PAULI_Z, "q": 0.5 * PAULI_Z},
                             [({"p": EYE, "q": EYE}, 1.0)], {"p": EYE / 4, "q": EYE / 4})
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(1.0, abs=1e-9)
        assert np.trace(from_rows(sol, 1)).real == pytest.approx(0.0, abs=1e-8)


class TestDualityAndCertificates:
    def test_gap_and_duality(self, rng):
        sol = solved(lam_max_problem(hermitian(rng)))
        assert 0.0 <= sol.dual_value - sol.primal_value == sol.gap < 1e-10
        assert 0.0 <= sol.pinf < 1e-15

    def test_certificate_accepts_good_solution(self, rng):
        problem = lam_max_problem(hermitian(rng))
        report = sdp.check_certificate(problem, solved(problem))
        assert report.ok
        assert report.constraint_violation < 1e-14
        assert report.primal_margin > 0.0 and report.dual_margin > 0.0

    def test_certificate_rejects_tampered_solution(self, rng):
        problem = lam_max_problem(hermitian(rng, complex_entries=False))
        sol = solved(problem)
        # a dual value lowered by 1e-3 leaves the slack outside its cone
        low = dataclasses.replace(sol, dual_multipliers=sol.dual_multipliers - 1e-3)
        report = sdp.check_certificate(problem, low)
        assert not report.ok
        assert report.dual_margin < 0.0
        moved = dataclasses.replace(sol, primal=sol.primal + [0.5, 0, 0, 0])
        report = sdp.check_certificate(problem, moved)
        assert not report.ok
        assert report.constraint_violation > 1e-2

    @pytest.mark.parametrize("name,assemblage", list(steering_cases()),
                             ids=[name for name, _ in steering_cases()])
    def test_certification_programs_certify(self, monkeypatch, name, assemblage):
        """The guessing programs at X and Z and the LHS program of every
        steering case pass the check, the rank-deficient ideal cases with
        their rank-1 parts and zero members included: the dual slack is
        strictly inside every cone, and the check's values are the p_guess
        and mu certify reads."""
        solve, solved_ = sdp.solve, []
        monkeypatch.setattr(sdp, "solve", lambda p: solved_.append((p, solve(p))) or solved_[-1][1])
        guesses = [cert.guessing_probability(assemblage, x).p_guess for x in asm.SETTINGS]
        steering = cert.steering_functional(assemblage)
        assert len(solved_) == 3
        for (problem, solution), p_guess in zip(solved_, guesses):
            report = sdp.check_certificate(problem, solution)
            assert report.ok, report
            assert report.dual_value == p_guess
        report = sdp.check_certificate(*solved_[-1])
        assert report.ok, report
        assert steering.beta - steering.mu == pytest.approx(report.gap / 18, abs=1e-12)

    def test_ml_fit_programs_certify(self, monkeypatch, ml_fit):
        assemblage = ml_fit.reconstruction.assemblage
        assert len(cert._guessing_program(assemblage, "Z").problem.blocks) == 18
        self.test_certification_programs_certify(monkeypatch, "ml fit", assemblage)

    def test_dual_multiplier_is_eigenvalue(self, rng):
        # for the trace-normalized problem the single multiplier equals the
        # optimal value (Lagrangian stationarity), an easy hand check
        a = hermitian(rng, complex_entries=False)
        sol = solved(lam_max_problem(a))
        assert sol.dual_multipliers[0] == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-9)


class TestRankDeficient:
    """Members of rank 1 give their parts one ray each and zero members none;
    the programs still certify."""

    def test_pure_singlet_certifies(self):
        # the README quick start: ideal V = 1 at eta = 0.543, every detected
        # member rank 1, the null members full rank
        assemblage = asm.ideal_assemblage(singlet_state(), eta=0.543)
        program = cert._guessing_program(assemblage, "Z")
        assert np.count_nonzero(program.lift[..., 1:, 1:].any(axis=(-2, -1))) == 2
        result = cert.certify(assemblage, x_star="Z")
        assert result.p_guess == pytest.approx(1.5 - 0.543, abs=1e-9)
        assert result.h_min == pytest.approx(0.0634, abs=1e-4)
        assert result.mu < 0 and result.beta == pytest.approx(result.mu, abs=1e-9)
        assert result.p_guess >= result.decomposition.parts[
            np.arange(3), 1, np.arange(3)].trace(axis1=-2, axis2=-1).real.sum()

    def test_zero_null_member_certifies(self):
        assemblage = asm.ideal_assemblage(sim.werner_state(0.9), eta=1.0)
        program = cert._guessing_program(assemblage, "X")
        assert len(program.problem.blocks) == 12
        result = cert.certify(assemblage, x_star="X")
        assert result.diagnostics["guessing_solver"]["status"] == sdp.OPTIMAL
        assert not result.decomposition.parts[:, :, 2].any()


class TestStatuses:
    def test_infeasible_negative_trace(self):
        # consistent rows that no cone point meets are a failed solve, never
        # an optimum: no start both meets them and lies inside the cone
        sol = sdp.solve(negative_trace_problem())
        assert sol.status == sdp.NUMERICAL_FAILURE
        assert sol.message == "the start misses the rows by 1"
        assert sol.iterations == 0 and np.isnan(sol.dual_value)

    def test_psd_infeasible_not_optimal(self):
        sol = sdp.solve(psd_infeasible_problem())
        assert sol.status == sdp.NUMERICAL_FAILURE

    def test_infeasible_inconsistent_rows(self):
        sol = sdp.solve(inconsistent_rows_problem())
        assert sol.status == sdp.NUMERICAL_FAILURE
        assert sol.message.startswith("the start misses the rows by")

    def test_unbounded_direction(self):
        # a block no constraint touches is refused before iterating: the
        # objective, and the barrier alone, are unbounded on it
        problem = problem_of({"free": EYE}, [({"pinned": EYE}, 1.0)],
                             {"free": EYE / 2, "pinned": EYE})
        with pytest.raises(ValueError, match="block 'free' is in no constraint"):
            sdp.solve(problem)

    def test_unconstrained_block_with_psd_objective(self):
        # refused with a zero objective too, and whatever the problem's
        # position in a list
        problem = problem_of({"pinned": 2.0 * EYE}, [({"pinned": EYE, "zero": 0 * EYE}, 1.0)],
                             {"pinned": EYE, "zero": EYE})
        with pytest.raises(ValueError, match="block 'zero' is in no constraint"):
            sdp.solve_many([lam_max_problem(PAULI_Z), problem])

    def test_zero_dimensional_block_rejected(self):
        problem = sdp.SdpProblem(blocks=[], objective=np.zeros(0), constraints=np.zeros((0, 0)),
                                 rhs=np.zeros(0), start=np.zeros(0))
        with pytest.raises(ValueError, match="at least one block"):
            sdp.solve(problem)

    def test_start_outside_a_cone_not_optimal(self):
        problem = dataclasses.replace(lam_max_problem(PAULI_Z), start=pauli(np.diag([1.5, -0.5])))
        sol = sdp.solve(problem)
        assert (sol.status, sol.message, sol.iterations) == (
            sdp.NUMERICAL_FAILURE, "the start lies outside a cone", 0)

    def test_iteration_cap_not_optimal(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
        sol = sdp.solve(lam_max_problem(PAULI_Z))
        assert (sol.status, sol.message, sol.iterations) == (
            sdp.NUMERICAL_FAILURE, "max iterations reached", 3)

    def test_redundant_rows_still_optimal(self, rng):
        a = hermitian(rng, complex_entries=False)
        sol = solved(redundant_rows_problem(a))
        assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-9)

    def test_duplicated_row_duals_split_by_weight(self):
        """Tr X = 1 and 2 Tr X = 2: the multipliers are the minimum-norm
        split of the optimum 2 over the two rows, 2/5 * (1, 2), and they
        certify the unreduced problem."""
        problem = redundant_rows_problem(np.diag([1.0, 2.0]))
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(2.0, abs=1e-9)
        assert sol.dual_multipliers == pytest.approx([0.4, 0.8], abs=1e-9)
        assert sdp.check_certificate(problem, sol).ok


class TestValidation:
    def test_rejects_shape_mismatch(self):
        # one block takes 4 columns
        problem = lam_max_problem(PAULI_Z)
        for wrong in (dict(objective=np.zeros(8)), dict(constraints=np.zeros((1, 8))),
                      dict(rhs=np.ones(2)), dict(start=np.ones(3))):
            with pytest.raises(ValueError, match="do not fit 1 blocks"):
                sdp.solve(dataclasses.replace(problem, **wrong))

    def test_rejects_problem_without_constrained_block(self):
        problem = problem_of({}, [({"x": 0 * EYE}, 0.0)], {"x": EYE / 2})
        with pytest.raises(ValueError, match="block 'x' is in no constraint"):
            sdp.solve(problem)


class TestPauliForm:
    def test_blocks_solved_as_declared(self, monkeypatch):
        """Every block is one Pauli row from the problem to the solution: each
        guessing and LHS program of the steering cases labels its cone rows
        in column order, the primal comes back as those rows, and the parts
        and hidden states read from them are Hermitian 2x2 matrices."""
        problems = certification_problems(monkeypatch)
        assert len(problems) == 6 * (len(asm.SETTINGS) + 1)
        for problem, solution in zip(problems, sdp.solve_many(problems)):
            assert solution.status == sdp.OPTIMAL
            assert problem.constraints.shape[1] == 4 * len(problem.blocks)
            assert solution.primal.shape == (len(problem.blocks), 4)
            assert solution.primal.dtype == float
        for _name, assemblage in steering_cases():
            parts = cert.guessing_probability(assemblage, "Z").decomposition.parts
            hidden = cert.steering_functional(assemblage).hidden_states
            for mats in (parts, hidden):
                assert np.array_equal(mats, mats.conj().swapaxes(-1, -2))


class TestRobustness:
    def test_random_problems_certify(self, rng):
        """Random feasible problems: solve, then verify via the certificate
        checker, which recomputes everything from raw data."""
        for trial in range(6):
            a = hermitian(rng)
            problem = lam_max_problem(a if trial % 2 else -a)
            assert sdp.check_certificate(problem, solved(problem)).ok

    def test_perturbed_objective_moves_value_continuously(self, rng):
        a = hermitian(rng, complex_entries=False)
        base = solved(lam_max_problem(a)).primal_value
        eps = 1e-4
        bumped = solved(lam_max_problem(a + eps * EYE)).primal_value
        assert bumped == pytest.approx(base + eps, abs=1e-8)


def assert_same_solution(a, b):
    """Field-for-field, bit-for-bit equality of two solutions."""
    assert (a.status, a.message, a.iterations) == (b.status, b.message, b.iterations)
    for name in ("primal_value", "dual_value", "gap", "pinf"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    for name in ("primal", "dual_multipliers"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


def certification_problems(monkeypatch):
    """The guessing programs at X and Z and the LHS program of every steering
    case, as the certification functions pose them."""
    problems = []
    solve = sdp.solve

    def spy(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(sdp, "solve", spy)
    for _name, assemblage in steering_cases():
        cert.guessing_probability(assemblage, "X")
        cert.guessing_probability(assemblage, "Z")
        cert.steering_functional(assemblage)
    monkeypatch.setattr(sdp, "solve", solve)
    return problems


@pytest.fixture(scope="module")
def refit_problems(ml_fit):
    """Guessing programs at Z of warm ML refits of 12 fresh 1e6-trial
    datasets: the bootstrap's traffic, 18 cones and 36 rows each, all with
    one row matrix."""
    tables = [sim.simulate_tomography(dataclasses.replace(ml_fit.config, rng_seed=seed))
              for seed in range(300, 312)]
    fits = asm.ml_reconstruct_many(tables, initial=ml_fit.reconstruction.assemblage)
    return [cert._guessing_program(fit.assemblage, "Z").problem for fit in fits]


def infeasible_copy(problem):
    """The same structure with every rhs negated: the parts would have to
    sum to minus the assemblage, so the start misses the rows."""
    return dataclasses.replace(problem, rhs=-problem.rhs)


class TestSolveMany:
    def test_mixed_list_equals_solo_solves(self, monkeypatch, refit_problems, rng):
        # the rank-deficient steering cases have row matrices of their own,
        # so the list spans several batches besides the status problems
        problems = certification_problems(monkeypatch) + refit_problems[:4] + [
            negative_trace_problem(), psd_infeasible_problem(),
            inconsistent_rows_problem(), redundant_rows_problem(hermitian(rng, False)),
        ]
        solutions = sdp.solve_many(problems)
        assert len(solutions) == len(problems)
        for problem, solution in zip(problems, solutions):
            assert_same_solution(solution, sdp.solve(problem))
        statuses = [s.status for s in solutions[-4:]]
        assert statuses == [sdp.NUMERICAL_FAILURE] * 3 + [sdp.OPTIMAL]

    def test_group_invariance(self, refit_problems):
        """A problem's solution is the same alone, in a batch, and in a batch
        with a member that fails."""
        problems = refit_problems[:10]
        assert {(len(p.blocks), len(p.constraints)) for p in problems} == {(18, 36)}
        alone = [sdp.solve(p) for p in problems]
        together = sdp.solve_many(problems)
        failing = sdp.solve_many([infeasible_copy(problems[0])] + problems[1:])
        assert failing[0].status == sdp.NUMERICAL_FAILURE
        assert_same_solution(failing[0], sdp.solve(infeasible_copy(problems[0])))
        for solo, group in zip(alone, together):
            assert solo.status == sdp.OPTIMAL
            assert_same_solution(group, solo)
        for solo, group in zip(alone[1:], failing[1:]):
            assert_same_solution(group, solo)

    @pytest.mark.parametrize("fault", ["singular", "not-finite"])
    def test_member_failing_mid_iteration(self, refit_problems, monkeypatch, fault):
        """From the fifth solve on, the first member's Newton system is
        singular (LinAlgError) or not finite: it leaves the batch as a
        numerical-failure, and the others go on exactly as alone."""
        problems = refit_problems[:4]
        alone = [sdp.solve(p) for p in problems]
        real, calls = np.linalg.solve, []

        def faulty(h, g):
            calls.append(len(h))
            whole = len(calls) >= 5 and len(h) == len(problems)
            # a batch that raises is solved again one member at a time
            first_alone = len(h) == 1 and calls[-2] == len(problems) and len(calls) > 5
            if fault == "singular" and (whole or first_alone):
                raise np.linalg.LinAlgError("Singular matrix")
            out = real(h, g)
            if whole:
                out[0] = np.nan
            return out

        monkeypatch.setattr(np.linalg, "solve", faulty)
        solutions = sdp.solve_many(problems)
        monkeypatch.setattr(np.linalg, "solve", real)
        assert solutions[0].status == sdp.NUMERICAL_FAILURE
        assert solutions[0].message == "Newton system singular or not finite"
        assert 0 < solutions[0].iterations < 5
        for solo, group in zip(alone[1:], solutions[1:]):
            assert_same_solution(group, solo)

    def test_refit_solutions_certify(self, refit_problems):
        problems = refit_problems[:10]
        for problem, solution in zip(problems, sdp.solve_many(problems)):
            assert solution.status == sdp.OPTIMAL
            assert sdp.check_certificate(problem, solution).ok
