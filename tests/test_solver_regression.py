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
and Z), mu, beta and the bootstrap statistics.  Unlike the cvxpy
cross-check, this runs without any external solver.
"""

import pytest

from steerqrng import certify as cert
from steerqrng import sdp

from conftest import steering_cases

TOL = 1e-9

# name -> (p_guess at X, p_guess at Z, mu, beta,
#          iterations of the X, Z and LHS solves)
PINNED = {
    "singlet eta=0.543": (
        0.956999999966649, 0.956999999966645,
        -0.0024592117525732426, -0.0024592108775675645, (11, 11, 10)),
    "singlet eta=0.8": (
        0.6999999999660423, 0.6999999999658024,
        -0.017157287533481336, -0.01715728751755755, (10, 10, 10)),
    "werner V=0.99 eta=0.543": (
        0.9747522462012806, 0.9747522462070646,
        -0.0019290750383984534, -0.0019290741495679008, (12, 12, 10)),
    "werner V=0.7 eta=1": (
        0.9999999992564073, 0.9999999992564084,
        5.350764276101927e-11, 1.1430495439057609e-11, (10, 10, 10)),
    "werner V=0.75 eta=1": (
        0.9557189134988542, 0.9557189134988514,
        -0.004187710987582749, -0.004187710965622706, (10, 10, 10)),
    "asymmetric pure eta=0.8": (
        0.9389972143955284, 0.764345403339667,
        -0.004034183553039972, -0.004034183328812402, (12, 12, 12)),
    "ml fit": (
        0.9749830292314756, 0.9749200864439549,
        -0.0019149743573575462, -0.001914974244855442, (13, 13, 10)),
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


@pytest.mark.parametrize("name,assemblage", list(steering_cases()))
def test_ideal_assemblages_match_pinned(name, assemblage):
    check_pinned(assemblage, PINNED[name])


def test_ml_assemblage_matches_pinned(ml_fit):
    check_pinned(ml_fit.reconstruction.assemblage, PINNED["ml fit"])


# The bootstrap of the ``bootstrap_run`` fixture (100 resamples of the ML
# fit, seed 2024, x* = Z), recorded when each resample's guessing SDP was
# solved on its own; the lockstep groups of ``sdp.solve_many`` reproduce it
# to 1e-9.  A solver change that moves these must re-record them on purpose.
BOOTSTRAP_PINNED = {
    "h_min_mean": 0.03666267063440371,
    "h_min_std": 0.000317909748129164,
    "p_guess_mean": 0.9749075794871032,
    "first h_min": 0.03634840896551637,
    "last h_min": 0.03672809557930538,
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
