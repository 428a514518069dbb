"""Interior-point SDP solver on problems with independently known answers."""

import copy
import dataclasses

import numpy as np
import pytest

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng import sdp
from steerqrng import simulate as sim
from steerqrng.linalg import PAULI_Y, PAULI_Z

from conftest import steering_cases


def lam_max_problem(a, sense="max"):
    """max/min Tr(A X) over X >= 0 with Tr X = 1: the extreme eigenvalue."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    return sdp.SdpProblem(
        blocks={"x": d},
        objective={"x": a},
        constraints=[
            sdp.SdpConstraint(coeffs={"x": np.eye(d, dtype=complex)}, rhs=1.0,
                              name="trace")
        ],
        sense=sense,
    )


def solved(problem, **kw):
    sol = sdp.solve(problem, **kw)
    assert sol.status == sdp.OPTIMAL, sol.message
    return sol


def negative_trace_problem():
    return sdp.SdpProblem(
        blocks={"x": 1},
        objective={"x": np.array([[1.0]])},
        constraints=[
            sdp.SdpConstraint(coeffs={"x": np.array([[1.0]])}, rhs=-1.0)
        ],
    )


def phase1_infeasible_problem():
    # Tr X = 1 with <sigma_x> = 2 on a qubit: the rows are independent
    # and consistent, so only the Phase-I slack can expose infeasibility
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return sdp.SdpProblem(
        blocks={"x": 2},
        objective={"x": PAULI_Z},
        constraints=[
            sdp.SdpConstraint(coeffs={"x": np.eye(2, dtype=complex)}, rhs=1.0),
            sdp.SdpConstraint(coeffs={"x": sigma_x}, rhs=2.0),
        ],
    )


def inconsistent_rows_problem():
    eye = np.array([[1.0]])
    return sdp.SdpProblem(
        blocks={"x": 1},
        objective={"x": eye},
        constraints=[
            sdp.SdpConstraint(coeffs={"x": eye}, rhs=1.0),
            sdp.SdpConstraint(coeffs={"x": eye}, rhs=2.0),
        ],
    )


def unbounded_problem():
    return sdp.SdpProblem(
        blocks={"free": 2, "pinned": 1},
        objective={"free": np.eye(2, dtype=complex)},
        constraints=[
            sdp.SdpConstraint(coeffs={"pinned": np.array([[1.0]])}, rhs=1.0)
        ],
    )


def redundant_rows_problem(a):
    problem = lam_max_problem(a)
    problem.constraints.append(
        sdp.SdpConstraint(coeffs={"x": 2.0 * np.eye(3, dtype=complex)}, rhs=2.0,
                          name="duplicate")
    )
    return problem


class TestKnownOptima:
    def test_diagonal_lp(self):
        # max u + 2v subject to u + v = 1, u, v >= 0  ->  2 at (0, 1)
        problem = sdp.SdpProblem(
            blocks={"u": 1, "v": 1},
            objective={"u": np.array([[1.0]]), "v": np.array([[2.0]])},
            constraints=[
                sdp.SdpConstraint(
                    coeffs={"u": np.array([[1.0]]), "v": np.array([[1.0]])},
                    rhs=1.0,
                )
            ],
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
        sol = solved(lam_max_problem(PAULI_Y, sense="min"))
        assert sol.primal_value == pytest.approx(-1.0, abs=1e-7)

    def test_two_independent_blocks(self, rng):
        a1 = np.diag([1.0, 3.0]).astype(complex)
        a2 = PAULI_Z
        problem = sdp.SdpProblem(
            blocks={"p": 2, "q": 2},
            objective={"p": a1, "q": a2},
            constraints=[
                sdp.SdpConstraint(coeffs={"p": np.eye(2, dtype=complex)}, rhs=1.0),
                sdp.SdpConstraint(coeffs={"q": np.eye(2, dtype=complex)}, rhs=2.0),
            ],
        )
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(3.0 + 2.0, abs=1e-7)

    def test_cross_block_coupling(self):
        # max Tr(Z p) + Tr(Z q) with Tr p = t, Tr q = 1 - t free via coupling:
        # single constraint Tr p + Tr q = 1 -> all weight on one |0><0|, value 1
        problem = sdp.SdpProblem(
            blocks={"p": 2, "q": 2},
            objective={"p": PAULI_Z, "q": 0.5 * PAULI_Z},
            constraints=[
                sdp.SdpConstraint(
                    coeffs={"p": np.eye(2, dtype=complex),
                            "q": np.eye(2, dtype=complex)},
                    rhs=1.0,
                )
            ],
        )
        sol = solved(problem)
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)
        assert np.trace(sol.primal_blocks["q"]).real == pytest.approx(0.0, abs=1e-5)

    def test_mixed_block_sizes(self, rng):
        # a 1x1, two real 2x2 (not adjacent) and a complex 3x3 block (6x6
        # once embedded); coupled trace rows fix Tr p = 0.3, t = 0.1,
        # Tr h = 0.5 and Tr q = 0.2, so each block takes its top eigenvalue
        p_obj, q_obj = (0.5 * (m + m.T) for m in rng.normal(size=(2, 2, 2)))
        h_obj = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h_obj = 0.5 * (h_obj + h_obj.conj().T)
        eye2, eye3, one = np.eye(2), np.eye(3, dtype=complex), np.array([[1.0]])
        problem = sdp.SdpProblem(
            blocks={"p": 2, "t": 1, "q": 2, "h": 3},
            objective={"p": p_obj, "t": 2.0 * one, "q": q_obj, "h": h_obj},
            constraints=[
                sdp.SdpConstraint(coeffs={"p": eye2, "t": one}, rhs=0.4),
                sdp.SdpConstraint(coeffs={"t": one, "h": eye3}, rhs=0.6),
                sdp.SdpConstraint(coeffs={"p": eye2, "h": eye3}, rhs=0.8),
                sdp.SdpConstraint(coeffs={"q": eye2}, rhs=0.2),
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
        sol = sdp.solve(negative_trace_problem())
        assert sol.status == sdp.INFEASIBLE

    def test_phase1_decides_infeasible(self):
        sol = sdp.solve(phase1_infeasible_problem())
        assert sol.status == sdp.INFEASIBLE
        assert "Phase-I" in sol.message

    def test_infeasible_inconsistent_rows(self):
        sol = sdp.solve(inconsistent_rows_problem())
        assert sol.status == sdp.INFEASIBLE

    def test_unbounded_direction(self):
        sol = sdp.solve(unbounded_problem())
        assert sol.status == sdp.UNBOUNDED

    def test_redundant_rows_still_optimal(self, rng):
        a = rng.normal(size=(3, 3))
        a = 0.5 * (a + a.T)
        sol = solved(redundant_rows_problem(a))
        assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-7)

    def test_zero_dimensional_block_rejected(self):
        problem = sdp.SdpProblem(blocks={"x": 0}, objective={}, constraints=[])
        with pytest.raises(ValueError):
            problem.validate()


class TestValidation:
    def test_rejects_unknown_sense(self):
        problem = lam_max_problem(np.eye(2))
        problem.sense = "maximize"
        with pytest.raises(ValueError):
            problem.validate()

    def test_rejects_non_hermitian_coefficient(self):
        problem = sdp.SdpProblem(
            blocks={"x": 2},
            objective={"x": np.array([[0.0, 1.0], [0.0, 0.0]])},
            constraints=[],
        )
        with pytest.raises(ValueError):
            problem.validate()

    def test_rejects_shape_mismatch(self):
        problem = sdp.SdpProblem(
            blocks={"x": 2},
            objective={"x": np.eye(3)},
            constraints=[],
        )
        with pytest.raises(ValueError):
            problem.validate()

    def test_rejects_unknown_block_reference(self):
        problem = sdp.SdpProblem(
            blocks={"x": 2},
            objective={},
            constraints=[
                sdp.SdpConstraint(coeffs={"y": np.eye(2)}, rhs=0.0)
            ],
        )
        with pytest.raises(ValueError):
            problem.validate()


class TestRobustness:
    def test_random_problems_certify(self, rng):
        """Random feasible problems: solve, then verify via the certificate
        checker, which recomputes everything from raw data."""
        for trial in range(6):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = 0.5 * (a + a.conj().T)
            problem = lam_max_problem(a, sense="max" if trial % 2 else "min")
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
        cert.lhs_mu(assemblage)
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
    problem = copy.deepcopy(problem)
    for con in problem.constraints:
        con.rhs = -con.rhs
    return problem


class TestSolveMany:
    def test_mixed_list_equals_solo_solves(self, monkeypatch, rng):
        # the guessing problems mix 1x1 and 2x2 blocks, so the list spans
        # several lockstep groups besides the status problems
        a = rng.normal(size=(3, 3))
        problems = certification_problems(monkeypatch) + [
            negative_trace_problem(), phase1_infeasible_problem(),
            inconsistent_rows_problem(), unbounded_problem(),
            redundant_rows_problem(0.5 * (a + a.T)),
        ]
        solutions = sdp.solve_many(problems)
        assert len(solutions) == len(problems)
        for problem, solution in zip(problems, solutions):
            assert_same_solution(solution, sdp.solve(problem))
        statuses = [s.status for s in solutions[-5:]]
        assert statuses == [sdp.INFEASIBLE] * 3 + [sdp.UNBOUNDED, sdp.OPTIMAL]

    def test_group_invariance(self, refit_problems):
        """A problem's solution is the same alone, in a full group, and in a
        group with a member that fails."""
        problems = refit_problems[:sdp.GROUP_SIZE]
        assert {(len(p.blocks), len(p.constraints)) for p in problems} == {(18, 36)}
        alone = [sdp.solve(p) for p in problems]
        together = sdp.solve_many(problems)
        failing = sdp.solve_many([infeasible_copy(problems[0])] + problems[1:])
        assert failing[0].status == sdp.INFEASIBLE
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
