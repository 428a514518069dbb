"""Pinned results of the certification SDPs.

The values were recorded with the unbatched interior-point core (one Python
pass per constraint); the batched core must reproduce them to 1e-9 with the
same statuses and iteration counts.  The guessing values of the singlet and
asymmetric cases were re-recorded when 1x1 blocks stopped being embedded as
2x2 in the real form, which changes their iterates.  Unlike the cvxpy
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
        0.9569999999828249, 0.9569999999839237,
        -0.002459211731816735, -0.002459210915793139, (11, 11, 12)),
    "singlet eta=0.8": (
        0.6999999999200281, 0.6999999999200291,
        -0.01715728753571355, -0.01715728751525397, (10, 10, 12)),
    "werner V=0.99 eta=0.543": (
        0.9747522461308915, 0.9747522461237327,
        -0.0019290750197058504, -0.0019290741965112468, (12, 12, 12)),
    "werner V=0.7 eta=1": (
        0.9999999999725907, 0.9999999999725888,
        7.154343784065986e-11, 1.1804071609056166e-11, (11, 11, 12)),
    "werner V=0.75 eta=1": (
        0.9557189137272659, 0.9557189137904281,
        -0.004187711020829488, -0.0041877109498842, (11, 11, 12)),
    # The X solve misses the 1e-9 feasibility target by a hair at its best
    # iterate (pinf 1.3e-9) and is accepted by the best-iterate rule.  How
    # many iterations it then spends in rounding noise before a block loses
    # definiteness depends on summation order (26 here), so that count is
    # not pinned; its value and status are.
    # Its LHS solve is as close to the target: it met it at iteration 14
    # (gap 9.8e-10, pinf 7.0e-10) before the Kronecker-product Schur
    # complement and the inverse-factor step length, which change rounding
    # only; since then it misses it by a hair and stops at iteration 20 with
    # the best-iterate rule, its value moving by 4e-10.
    "asymmetric pure eta=0.8": (
        0.9389972162578943, 0.7643454027136707,
        -0.004034184095490501, -0.004034183273602934, (None, 13, 20)),
    # The LHS count is 12 for the fit in Pauli coordinates; it was 13 for the
    # earlier complex-matrix fit, whose members differ from it by 3e-16.
    "ml fit": (
        0.9750053244464145, 0.9749421781305323,
        -0.0019134385233761098, -0.0019134385223435572, (15, 14, 12)),
}


def check_pinned(assemblage, pinned):
    p_x, p_z, mu, beta, iterations = pinned
    guess_x = cert.guessing_probability(assemblage, "X")
    guess_z = cert.guessing_probability(assemblage, "Z")
    steering = cert.steering_functional(assemblage)
    solutions = (guess_x.solution, guess_z.solution, steering.solution)
    assert [s.status for s in solutions] == [sdp.OPTIMAL] * 3
    assert guess_x.p_guess == pytest.approx(p_x, abs=TOL)
    assert guess_z.p_guess == pytest.approx(p_z, abs=TOL)
    assert steering.mu == pytest.approx(mu, abs=TOL)
    assert steering.beta == pytest.approx(beta, abs=TOL)
    for solution, count in zip(solutions, iterations):
        if count is not None:
            assert solution.iterations == count


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
    "h_min_mean": 0.036661025449367377,
    "h_min_std": 0.0003167877147127811,
    "p_guess_mean": 0.9749086910637292,
    "first h_min": 0.03634550212992805,
    "last h_min": 0.036727115198857,
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
