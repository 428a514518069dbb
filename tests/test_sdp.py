"""Interior-point SDP solver on problems with independently known answers."""

import dataclasses

import numpy as np
import pytest

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng import sdp
from steerqrng import simulate as sim
from steerqrng.linalg import PAULI_Y, PAULI_Z

from conftest import steering_cases


def problem_of(blocks, objective, constraints):
    """The SdpProblem of label -> matrix dicts: ``objective`` maps labels to
    C_k and each constraint is a pair (label -> A_jk, b_j); absent labels
    are zero."""
    n = sum(2 * d * d for d in blocks.values())
    c, rows = np.zeros(n), np.zeros((len(constraints), n))
    for label, mat in objective.items():
        sdp.block_views(c, blocks)[label][...] = mat
    for row, (coeffs, _rhs) in zip(rows, constraints):
        views = sdp.block_views(row, blocks)
        for label, mat in coeffs.items():
            views[label][...] = mat
    rhs = np.array([rhs for _coeffs, rhs in constraints], dtype=float)
    return sdp.SdpProblem(blocks=blocks, objective=c, constraints=rows, rhs=rhs)


def lam_max_problem(a):
    """max Tr(A X) over X >= 0 with Tr X = 1: the largest eigenvalue."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    return problem_of({"x": d}, {"x": a}, [({"x": np.eye(d, dtype=complex)}, 1.0)])


def solved(problem, **kw):
    sol = sdp.solve(problem, **kw)
    assert sol.status == sdp.OPTIMAL, sol.message
    return sol


def negative_trace_problem():
    return problem_of({"x": 1}, {"x": np.array([[1.0]])}, [({"x": np.array([[1.0]])}, -1.0)])


def psd_infeasible_problem():
    # Tr X = 1 with <sigma_x> = 2 on a qubit: the rows are independent and
    # consistent, so only the PSD cone makes the problem infeasible
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return problem_of({"x": 2}, {"x": PAULI_Z},
                      [({"x": np.eye(2, dtype=complex)}, 1.0), ({"x": sigma_x}, 2.0)])


def inconsistent_rows_problem():
    eye = np.array([[1.0]])
    return problem_of({"x": 1}, {"x": eye}, [({"x": eye}, 1.0), ({"x": eye}, 2.0)])


def unbounded_problem():
    return problem_of({"free": 2, "pinned": 1}, {"free": np.eye(2, dtype=complex)},
                      [({"pinned": np.array([[1.0]])}, 1.0)])


def redundant_rows_problem(a):
    return problem_of({"x": 3}, {"x": a}, [({"x": np.eye(3, dtype=complex)}, 1.0),
                                           ({"x": 2.0 * np.eye(3, dtype=complex)}, 2.0)])


class TestKnownOptima:
    def test_diagonal_lp(self):
        # max u + 2v subject to u + v = 1, u, v >= 0  ->  2 at (0, 1)
        problem = problem_of(
            {"u": 1, "v": 1},
            {"u": np.array([[1.0]]), "v": np.array([[2.0]])},
            [({"u": np.array([[1.0]]), "v": np.array([[1.0]])}, 1.0)],
        )
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(2.0, abs=1e-8)
        assert sol.primal_blocks["v"][0, 0].real == pytest.approx(1.0, abs=1e-6)

    def test_largest_eigenvalue_real(self, rng):
        a = rng.normal(size=(4, 4))
        a = 0.5 * (a + a.T)
        sol = solved(lam_max_problem(a))
        assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-7)

    def test_largest_eigenvalue_complex(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = 0.5 * (a + a.conj().T)
        sol = solved(lam_max_problem(a))
        assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-7)
        # optimizer is the projector onto the top eigenvector
        w, v = np.linalg.eigh(a)
        top = np.outer(v[:, -1], v[:, -1].conj())
        assert np.allclose(sol.primal_blocks["x"], top, atol=1e-5)

    def test_smallest_eigenvalue_min_sense(self):
        # min Tr(Y X) is -max Tr(-Y X)
        sol = solved(lam_max_problem(-PAULI_Y))
        assert -sol.primal_value == pytest.approx(-1.0, abs=1e-7)

    def test_two_independent_blocks(self, rng):
        a1 = np.diag([1.0, 3.0]).astype(complex)
        a2 = PAULI_Z
        problem = problem_of(
            {"p": 2, "q": 2},
            {"p": a1, "q": a2},
            [({"p": np.eye(2, dtype=complex)}, 1.0), ({"q": np.eye(2, dtype=complex)}, 2.0)],
        )
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(3.0 + 2.0, abs=1e-7)

    def test_cross_block_coupling(self):
        # max Tr(Z p) + Tr(Z q) with Tr p = t, Tr q = 1 - t free via coupling:
        # single constraint Tr p + Tr q = 1 -> all weight on one |0><0|, value 1
        problem = problem_of(
            {"p": 2, "q": 2},
            {"p": PAULI_Z, "q": 0.5 * PAULI_Z},
            [({"p": np.eye(2, dtype=complex), "q": np.eye(2, dtype=complex)}, 1.0)],
        )
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)
        assert np.trace(sol.primal_blocks["q"]).real == pytest.approx(0.0, abs=1e-5)

    def test_mixed_block_sizes(self, rng):
        # a 1x1, two real 2x2 (not adjacent) and a complex 3x3 block;
        # coupled trace rows fix Tr p = 0.3, t = 0.1,
        # Tr h = 0.5 and Tr q = 0.2, so each block takes its top eigenvalue
        p_obj, q_obj = (0.5 * (m + m.T) for m in rng.normal(size=(2, 2, 2)))
        h_obj = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h_obj = 0.5 * (h_obj + h_obj.conj().T)
        eye2, eye3, one = np.eye(2), np.eye(3, dtype=complex), np.array([[1.0]])
        problem = problem_of(
            {"p": 2, "t": 1, "q": 2, "h": 3},
            {"p": p_obj, "t": 2.0 * one, "q": q_obj, "h": h_obj},
            [
                ({"p": eye2, "t": one}, 0.4),
                ({"t": one, "h": eye3}, 0.6),
                ({"p": eye2, "h": eye3}, 0.8),
                ({"q": eye2}, 0.2),
            ],
        )
        sol = solved(problem)
        top = [np.linalg.eigvalsh(m)[-1] for m in (p_obj, q_obj, h_obj)]
        expected = 0.3 * top[0] + 0.2 * top[1] + 0.1 * 2.0 + 0.5 * top[2]
        assert sol.primal_value == pytest.approx(expected, abs=1e-7)
        assert sol.primal_blocks["t"][0, 0] == pytest.approx(0.1, abs=1e-7)
        assert np.trace(sol.primal_blocks["q"]).real == pytest.approx(0.2, abs=1e-7)
        assert np.iscomplexobj(sol.primal_blocks["h"])
        assert sdp.check_certificate(problem, sol).ok


class TestDualityAndCertificates:
    def test_gap_and_duality(self, rng):
        a = rng.normal(size=(5, 5))
        a = 0.5 * (a + a.T)
        sol = solved(lam_max_problem(a))
        assert abs(sol.primal_value - sol.dual_value) < 1e-7
        assert sol.gap < 1e-7
        assert 0.0 <= sol.pinf < 1e-7
        assert 0.0 <= sol.dinf < 1e-7

    def test_certificate_accepts_good_solution(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = 0.5 * (a + a.conj().T)
        problem = lam_max_problem(a)
        sol = solved(problem)
        report = sdp.check_certificate(problem, sol)
        assert report.ok
        assert report.constraint_violation < 1e-8
        assert report.primal_min_eigenvalue > -1e-8

    def test_certificate_rejects_tampered_solution(self, rng):
        a = rng.normal(size=(3, 3))
        a = 0.5 * (a + a.T)
        problem = lam_max_problem(a)
        sol = solved(problem)
        sol.primal_blocks["x"] = sol.primal_blocks["x"] + 0.5 * np.eye(3)
        report = sdp.check_certificate(problem, sol)
        assert not report.ok
        assert report.constraint_violation > 1e-2

    @pytest.mark.parametrize("name,assemblage", list(steering_cases()),
                             ids=[name for name, _ in steering_cases()])
    def test_certification_programs_certify(self, monkeypatch, name, assemblage):
        """The guessing programs at X and Z and the LHS program of every
        steering case pass the check, the rank-deficient ideal cases with
        their mixed 1x1/2x2 blocks and zero members included, and the
        check's primal value is the p_guess or LHS optimum certify reads."""
        solve, solved = sdp.solve, []
        monkeypatch.setattr(sdp, "solve", lambda p: solved.append((p, solve(p))) or solved[-1][1])
        values = [cert.guessing_probability(assemblage, x).p_guess for x in asm.SETTINGS]
        values.append(cert.steering_functional(assemblage).solution.primal_value)
        assert len(solved) == len(values)
        for (problem, solution), value in zip(solved, values):
            report = sdp.check_certificate(problem, solution)
            assert report.ok, report
            assert report.primal_value == pytest.approx(value, abs=1e-12)

    def test_dual_multiplier_is_eigenvalue(self, rng):
        # for the trace-normalized problem the single multiplier equals the
        # optimal value (Lagrangian stationarity), an easy hand check
        a = rng.normal(size=(4, 4))
        a = 0.5 * (a + a.T)
        sol = solved(lam_max_problem(a))
        assert sol.dual_multipliers[0] == pytest.approx(
            np.linalg.eigvalsh(a)[-1], abs=1e-6
        )


class TestStatuses:
    def test_infeasible_negative_trace(self):
        # consistent rows that no PSD point meets are a failed solve, never
        # an optimum
        sol = sdp.solve(negative_trace_problem())
        assert sol.status == sdp.NUMERICAL_FAILURE

    def test_psd_infeasible_not_optimal(self):
        sol = sdp.solve(psd_infeasible_problem())
        assert sol.status == sdp.NUMERICAL_FAILURE

    def test_infeasible_inconsistent_rows(self):
        sol = sdp.solve(inconsistent_rows_problem())
        assert sol.status == sdp.INFEASIBLE
        assert sol.message in (f"constraint {j} is inconsistent with the others"
                               for j in (0, 1))

    def test_unbounded_direction(self):
        # an objective on a block no constraint touches is refused before
        # iterating, whatever its sign
        with pytest.raises(ValueError, match="'free' has an objective but no constraint"):
            sdp.solve(unbounded_problem())

    def test_unconstrained_block_with_psd_objective(self):
        # a block no constraint touches, with a zero objective, and one whose
        # only coefficient is zero stay out of the iteration and come back zero
        problem = problem_of(
            {"free": 2, "pinned": 1, "zero": 1},
            {"free": np.zeros((2, 2)), "pinned": np.array([[2.0]])},
            [({"pinned": np.array([[1.0]]), "zero": np.zeros((1, 1))}, 1.0)],
        )
        assert sdp._setup(problem).shapes == [(1, 1)]
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(2.0, abs=1e-8)
        assert not sol.primal_blocks["free"].any() and not sol.primal_blocks["zero"].any()
        assert sdp.check_certificate(problem, sol).ok

    def test_redundant_rows_still_optimal(self, rng):
        a = rng.normal(size=(3, 3))
        a = 0.5 * (a + a.T)
        sol = solved(redundant_rows_problem(a))
        assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-7)

    def test_duplicated_row_duals_split_by_weight(self):
        """Tr X = 1 and 2 Tr X = 2: the multipliers are the minimum-norm
        split of the optimum 3 over the two rows, 3/5 * (1, 2), and they
        certify the unreduced problem."""
        problem = redundant_rows_problem(np.diag([1.0, 2.0, 3.0]))
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(3.0, abs=1e-7)
        assert sol.dual_multipliers == pytest.approx([0.6, 1.2], abs=1e-7)
        assert sdp.check_certificate(problem, sol).ok

    def test_acceptable_best_stops_after_two_idle_iterations(self, monkeypatch):
        """Steps frozen at zero from iteration 3 on: once the best iterate is
        within the acceptable tolerances, two iterations that do not improve
        on it stop the problem; one that is not yet acceptable runs on to
        the 40-iteration stall limit."""
        reduced = sdp._setup(lam_max_problem(np.diag([1.0, 2.0])))
        args = reduced.rows[None], reduced.b[None], reduced.c[None], reduced.shapes
        max_steps, calls = sdp._max_steps, []

        def frozen(*step_args):
            calls.append(None)  # two calls, predictor and corrector, per iteration
            steps = max_steps(*step_args)
            return steps if len(calls) <= 4 else np.zeros_like(steps)

        monkeypatch.setattr(sdp, "_max_steps", frozen)
        with monkeypatch.context() as loose:
            loose.setattr(sdp, "GAP_ACCEPTABLE", np.inf)
            loose.setattr(sdp, "FEASIBILITY_ACCEPTABLE", np.inf)
            [acceptable] = sdp._ipm(*args)
        assert acceptable["status"] == sdp.OPTIMAL
        assert acceptable["message"] == "converged within acceptable tolerance"
        assert acceptable["iterations"] == 3 + 2
        calls.clear()
        [stuck] = sdp._ipm(*args)
        assert stuck["status"] == sdp.NUMERICAL_FAILURE
        assert stuck["iterations"] == 3 + 41

    def test_zero_dimensional_block_rejected(self):
        problem = problem_of({"x": 0}, {}, [])
        with pytest.raises(ValueError):
            problem.validate()


class TestValidation:
    def test_rejects_non_hermitian_coefficient(self):
        problem = problem_of(
            {"x": 2},
            {"x": np.array([[0.0, 1.0], [0.0, 0.0]])},
            [({"x": np.eye(2)}, 1.0)],
        )
        with pytest.raises(ValueError, match="objective coefficient for 'x' is not Hermitian"):
            problem.validate()

    def test_rejects_shape_mismatch(self):
        # a 3x3 objective takes 18 columns; the 2x2 block owns 8
        problem = lam_max_problem(np.eye(2))
        for wrong in (dict(objective=np.zeros(18)), dict(constraints=np.zeros((1, 18))),
                      dict(rhs=np.ones(2))):
            with pytest.raises(ValueError, match="do not fit blocks of 8 columns"):
                dataclasses.replace(problem, **wrong).validate()

    def test_rejects_problem_without_constrained_block(self):
        problem = problem_of({"x": 2}, {}, [({"x": np.zeros((2, 2))}, 0.0)])
        with pytest.raises(ValueError, match="no constraint touches a block"):
            problem.validate()


class TestComplexForm:
    def test_blocks_solved_as_declared(self, monkeypatch):
        """Every block is solved as the complex Hermitian matrix it is
        declared as, with rows of 2*D*D floats (the float view of its
        entries), and comes back complex and Hermitian: a 1x1 block whose
        coefficients carry 1e-17 imaginary rounding, and every guessing and
        LHS program of the steering cases."""
        solve, solved = sdp.solve, []

        def recording(problem):
            solved.append((problem, solve(problem)))
            return solved[-1][1]

        monkeypatch.setattr(sdp, "solve", recording)
        recording(problem_of(
            {"x": 1},
            {"x": np.array([[1.0 + 1e-17j]])},
            [({"x": np.array([[1.0 - 1e-17j]])}, 1.0)],
        ))
        for _name, assem in steering_cases():
            for x_star in asm.SETTINGS:
                cert.guessing_probability(assem, x_star)
            cert.steering_functional(assem)
        assert len(solved) == 1 + 6 * (len(asm.SETTINGS) + 1)
        for problem, solution in solved:
            dims = list(problem.blocks.values())
            reduced = sdp._setup(problem)
            assert sorted(reduced.order) == list(range(len(dims)))
            assert [d for nb, d in reduced.shapes for _ in range(nb)] == [
                dims[k] for k in reduced.order]
            assert reduced.rows.shape[1] == sum(2 * d * d for d in dims)
            assert solution.status == sdp.OPTIMAL
            for label, block in solution.primal_blocks.items():
                assert block.dtype == complex
                assert block.shape == (problem.blocks[label],) * 2
                assert np.array_equal(block, block.conj().T), label


class TestRobustness:
    def test_random_problems_certify(self, rng):
        """Random feasible problems: solve, then verify via the certificate
        checker, which recomputes everything from raw data."""
        for trial in range(6):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = 0.5 * (a + a.conj().T)
            problem = lam_max_problem(a if trial % 2 else -a)
            sol = solved(problem)
            assert sdp.check_certificate(problem, sol).ok

    def test_perturbed_objective_moves_value_continuously(self, rng):
        a = rng.normal(size=(3, 3))
        a = 0.5 * (a + a.T)
        base = solved(lam_max_problem(a)).primal_value
        eps = 1e-4
        bumped = solved(lam_max_problem(a + eps * np.eye(3))).primal_value
        assert bumped == pytest.approx(base + eps, abs=1e-6)


def assert_same_solution(a, b):
    """Field-for-field, bit-for-bit equality of two solutions."""
    assert (a.status, a.message, a.iterations) == (b.status, b.message, b.iterations)
    for name in ("primal_value", "dual_value", "gap", "pinf", "dinf"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert np.array_equal(a.dual_multipliers, b.dual_multipliers)
    assert a.primal_blocks.keys() == b.primal_blocks.keys()
    for label, block in a.primal_blocks.items():
        assert np.array_equal(block, b.primal_blocks[label]), label


def certification_problems(monkeypatch):
    """The guessing SDPs at X and Z and the LHS SDP of every steering case,
    as the certification functions pose them."""
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
    """Guessing SDPs at Z of warm ML refits of 12 fresh 1e6-trial datasets:
    the bootstrap's traffic, 18 complex 2x2 blocks and 36 rows each."""
    tables = [sim.simulate_tomography(dataclasses.replace(ml_fit.config, rng_seed=seed))
              for seed in range(300, 312)]
    fits = asm.ml_reconstruct_many(tables, initial=ml_fit.reconstruction.assemblage)
    return [cert._guessing_program(fit.assemblage, "Z").problem for fit in fits]


def infeasible_copy(problem):
    """The same structure with every rhs negated: the parts would have to
    sum to minus the assemblage, so no PSD split exists."""
    return dataclasses.replace(problem, rhs=-problem.rhs)


class TestSolveMany:
    def test_mixed_list_equals_solo_solves(self, monkeypatch, rng):
        # the guessing problems mix 1x1 and 2x2 blocks, so the list spans
        # several lockstep groups besides the status problems
        a = rng.normal(size=(3, 3))
        problems = certification_problems(monkeypatch) + [
            negative_trace_problem(), psd_infeasible_problem(),
            inconsistent_rows_problem(), redundant_rows_problem(0.5 * (a + a.T)),
        ]
        solutions = sdp.solve_many(problems)
        assert len(solutions) == len(problems)
        for problem, solution in zip(problems, solutions):
            assert_same_solution(solution, sdp.solve(problem))
        statuses = [s.status for s in solutions[-4:]]
        assert statuses == [sdp.NUMERICAL_FAILURE] * 2 + [sdp.INFEASIBLE, sdp.OPTIMAL]

    def test_group_invariance(self, refit_problems):
        """A problem's solution is the same alone, in a full group, and in a
        group with a member that fails."""
        problems = refit_problems[:sdp.GROUP_SIZE]
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

    @pytest.mark.parametrize("stage", ["_cholesky", "_schur_jitter"])
    def test_member_failing_mid_iteration(self, refit_problems, monkeypatch, stage):
        """A member whose factorization fails in the fifth iteration leaves
        the group there, and the others go on exactly as alone."""
        problems = refit_problems[:4]
        alone = [sdp.solve(p) for p in problems]
        real = getattr(sdp, stage)
        calls = []

        def failing_first_member(arg):
            out = real(arg)
            calls.append(len(arg))
            if len(calls) != 5:
                return out
            if stage == "_cholesky":
                ok = out[1].copy()
                ok[0] = False
                return None, ok
            out[0] = np.nan
            return out

        monkeypatch.setattr(sdp, stage, failing_first_member)
        solutions = sdp.solve_many(problems)
        message = {"_cholesky": "lost positive definiteness",
                   "_schur_jitter": "Schur complement factorization failed"}[stage]
        assert solutions[0].status == sdp.NUMERICAL_FAILURE
        assert message in solutions[0].message
        assert solutions[0].iterations == 5
        for solo, group in zip(alone[1:], solutions[1:]):
            assert_same_solution(group, solo)

    def test_list_longer_than_group_splits(self, refit_problems):
        assert len(refit_problems) > sdp.GROUP_SIZE
        for problem, solution in zip(refit_problems, sdp.solve_many(refit_problems)):
            assert_same_solution(solution, sdp.solve(problem))

    def test_refit_solutions_certify(self, refit_problems):
        problems = refit_problems[:10]
        for problem, solution in zip(problems, sdp.solve_many(problems)):
            assert solution.status == sdp.OPTIMAL
            assert sdp.check_certificate(problem, solution).ok
