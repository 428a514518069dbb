"""Cross-validation of the built-in SDP solver against an external one.

Both certification programs are re-encoded from scratch in cvxpy and solved
with CLARABEL; optimal values must agree with the in-tree log-barrier
solver.  Skipped automatically when cvxpy is not installed.
"""

import numpy as np
import pytest

cp = pytest.importorskip("cvxpy")

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng.assemblage import MEMBERS, OUTCOMES, SETTINGS
from steerqrng.linalg import singlet_state

from conftest import steering_cases

TOL = 5e-6


def external_guessing(assemblage, x_star):
    """Guessing probability via cvxpy: split the assemblage into one branch
    per possible guess, each branch a valid (PSD, non-signaling)
    subassemblage, and maximize the weight on correct guesses."""
    guesses = range(len(OUTCOMES))
    parts = {
        (e, x, a): cp.Variable((2, 2), hermitian=True)
        for e in guesses for x, a in np.ndindex(MEMBERS[:2])
    }
    constraints = [var >> 0 for var in parts.values()]
    for x, a in np.ndindex(MEMBERS[:2]):
        total = sum(parts[(e, x, a)] for e in guesses)
        constraints.append(total == assemblage.sigma[x, a])
    for e in guesses:
        reduced = sum(parts[(e, 0, a)] for a in range(len(OUTCOMES)))
        for x in range(1, len(SETTINGS)):
            constraints.append(
                sum(parts[(e, x, a)] for a in range(len(OUTCOMES))) == reduced)
    x_star = SETTINGS.index(x_star)
    objective = cp.Maximize(cp.real(
        sum(cp.trace(parts[(e, x_star, e)]) for e in guesses)))
    problem = cp.Problem(objective, constraints)
    problem.solve(solver=cp.CLARABEL)
    assert problem.status == "optimal", problem.status
    return float(problem.value)


def external_lhs_mu(assemblage):
    """Largest mu such that hidden states omega_lambda >= mu * identity
    reproduce the assemblage through deterministic response functions."""
    omegas = [cp.Variable((2, 2), hermitian=True) for _ in cert.STRATEGIES]
    mu = cp.Variable()
    constraints = []
    for x, a in np.ndindex(MEMBERS[:2]):
        total = sum(
            omega for omega, lam in zip(omegas, cert.STRATEGIES) if lam[x] == a)
        constraints.append(total == assemblage.sigma[x, a])
    constraints += [omega - mu * np.eye(2) >> 0 for omega in omegas]
    problem = cp.Problem(cp.Maximize(mu), constraints)
    problem.solve(solver=cp.CLARABEL)
    assert problem.status == "optimal", problem.status
    return float(mu.value)


@pytest.mark.parametrize("name,assemblage", list(steering_cases()))
def test_guessing_probability_matches_external_solver(name, assemblage):
    ours = cert.guessing_probability(assemblage, "X").p_guess
    theirs = external_guessing(assemblage, "X")
    assert abs(ours - theirs) <= TOL, (name, ours, theirs)


@pytest.mark.parametrize("name,assemblage", list(steering_cases()))
def test_lhs_mu_matches_external_solver(name, assemblage):
    ours = cert.steering_functional(assemblage).mu
    theirs = external_lhs_mu(assemblage)
    assert abs(ours - theirs) <= TOL, (name, ours, theirs)


def test_external_solver_confirms_efficiency_law():
    """The external solver independently reproduces p_guess = 3/2 - eta for
    the lossy singlet under the two conjugate measurements."""
    for eta in (0.6, 0.75, 0.9):
        assemblage = asm.ideal_assemblage(
            singlet_state(), eta=eta)
        assert abs(external_guessing(assemblage, "X") - (1.5 - eta)) <= TOL
