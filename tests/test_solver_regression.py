"""Pinned results of the certification SDPs.

History of the pins: they were first recorded with the unbatched
interior-point core (one Python pass per constraint), which solved complex
blocks through their real-symmetric 2D x 2D embedding, and the batched core
reproduced them to 1e-9 with the same statuses and iteration counts.  The
guessing values of the singlet and asymmetric cases were re-recorded when
1x1 blocks stopped being embedded as 2x2.  Every value was re-recorded when
the solver dropped the embedding and kept each block a complex Hermitian
D x D matrix: the iterates change, the values move by at most 2e-9 and the
singlets stay within 4e-11 of 3/2 - eta.  The asymmetric X and LHS
solves, which ended through the acceptable-tolerance rule over the
embedding, reach the 1e-9 targets since, so every solve has a pinned
iteration count and must end at the target.  When the greedy row selection
gave way to one SVD of the row matrix, whose left singular basis rotates
the rows the iteration sees, the LHS iteration counts of four cases moved
(12 to 13 for the singlet at eta = 0.543 and the Werner states at
V = 0.99 and 0.75, 15 to 13 for the asymmetric case) and every value
stayed within 1e-9 of its pin.  When the LHS program dropped the free
scalar mu (two 1x1 blocks and a pin row) for the nine 2x2 blocks
sigma_lambda - mu * 1 alone, its iteration counts went from 12-13 to
10-12 and every value stayed within 1e-9 of its pin.  The "ml fit" row and
the bootstrap pins were re-recorded when the ML fit, a projected-gradient
ascent that stopped short of the maximum, became barrier-Newton steps that
reach it: the fitted assemblage moved, and with it p_guess (by -2.2e-5 at X
and Z), mu, beta and the bootstrap statistics.  Every pin was re-recorded
when the interior-point core gave way to the log-barrier Newton method over
Pauli rows and p_guess became the dual value b . y, the upper side of the
bracket: each p_guess, mu and beta moved by at most 7.6e-10 (p_guess up,
as the interior-point primal value stopped up to 1e-9 short of the
optimum), the iteration counts are the barrier's Newton steps (23-33), and
of the bootstrap pins "first h_min" moved by -1.7e-9: its resample has a
feasible decomposition 1.1e-9 above the old p_guess.  Unlike the cvxpy
cross-check, this runs without any external solver.
"""

import pytest

from steerqrng import certify as cert
from steerqrng import sdp

from conftest import steering_cases

TOL = 1e-9

# name -> (p_guess at X, p_guess at Z, mu, beta,
#          Newton steps of the X, Z and LHS solves)
PINNED = {
    "singlet eta=0.543": (
        0.9570000000240002, 0.9570000000239998,
        -0.0024592112125107293, -0.002459211211526838, (27, 27, 24)),
    "singlet eta=0.8": (
        0.7000000000240001, 0.7000000000239996,
        -0.017157287525928308, -0.01715728752493655, (25, 25, 23)),
    "werner V=0.99 eta=0.543": (
        0.9747522462732097, 0.9747522462732096,
        -0.0019290744864678905, -0.0019290744854744916, (33, 33, 24)),
    "werner V=0.7 eta=1": (
        1.0000000000119995, 1.000000000012,
        -5.547907812165755e-13, 4.444507361645054e-13, (30, 30, 28)),
    "werner V=0.75 eta=1": (
        0.9557189138930731, 0.955718913893074,
        -0.004187710975053636, -0.004187710974069496, (29, 29, 24)),
    "asymmetric pure eta=0.8": (
        0.9389972145026799, 0.7643454039177204,
        -0.004034183352203309, -0.004034183351205083, (31, 31, 26)),
    "ml fit": (
        0.9749830295565387, 0.9749200867023824,
        -0.0019149743074399945, -0.001914974306446223, (30, 30, 25)),
}


def check_pinned(assemblage, pinned):
    p_x, p_z, mu, beta, iterations = pinned
    guess_x = cert.guessing_probability(assemblage, "X")
    guess_z = cert.guessing_probability(assemblage, "Z")
    steering = cert.steering_functional(assemblage)
    solutions = (guess_x.solution, guess_z.solution, steering.solution)
    assert [s.status for s in solutions] == [sdp.OPTIMAL] * 3
    assert [s.message for s in solutions] == ["converged to target tolerance"] * 3
    assert guess_x.p_guess == pytest.approx(p_x, abs=TOL)
    assert guess_z.p_guess == pytest.approx(p_z, abs=TOL)
    assert steering.mu == pytest.approx(mu, abs=TOL)
    assert steering.beta == pytest.approx(beta, abs=TOL)
    assert [s.iterations for s in solutions] == list(iterations)
    # p_guess is the dual side of the bracket, within 1e-10 of the primal
    for guess in (guess_x, guess_z):
        assert guess.p_guess == guess.solution.dual_value
        assert 0.0 <= guess.solution.dual_value - guess.solution.primal_value <= 1e-10


@pytest.mark.parametrize("name,assemblage", list(steering_cases()))
def test_ideal_assemblages_match_pinned(name, assemblage):
    check_pinned(assemblage, PINNED[name])


def test_ml_assemblage_matches_pinned(ml_fit):
    check_pinned(ml_fit.reconstruction.assemblage, PINNED["ml fit"])


# The bootstrap of the ``bootstrap_run`` fixture (100 resamples of the ML
# fit, seed 2024, x* = Z), re-recorded with the barrier core; each
# resample's program is solved in one batch by ``sdp.solve_many``, as it
# would be alone.  A solver change that moves these must re-record them on
# purpose.
BOOTSTRAP_PINNED = {
    "h_min_mean": 0.036662669775868476,
    "h_min_std": 0.00031790973445658383,
    "p_guess_mean": 0.97490758006726,
    "first h_min": 0.03634840729772446,
    "last h_min": 0.036728095329786395,
}


def test_bootstrap_matches_pinned(bootstrap_run):
    u = bootstrap_run.result.uncertainty
    assert u.failed == 0
    observed = {
        "h_min_mean": u.h_min_mean,
        "h_min_std": u.h_min_std,
        "p_guess_mean": u.p_guess_mean,
        "first h_min": u.h_min_values[0],
        "last h_min": u.h_min_values[-1],
    }
    for name, value in BOOTSTRAP_PINNED.items():
        assert observed[name] == pytest.approx(value, abs=TOL), name
