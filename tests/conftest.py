"""Shared fixtures: canonical states, assemblages and one heavy statistical run."""

from __future__ import annotations

import time
import types

import numpy as np
import pytest

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng import simulate as sim
from steerqrng.linalg import singlet_state

BOOTSTRAP_SEED = 2024
BOOTSTRAP_RESAMPLES = 100


@pytest.fixture(scope="session")
def measurements():
    return asm.default_measurements()


@pytest.fixture(scope="session")
def singlet():
    return singlet_state()


@pytest.fixture(scope="session")
def assem_singlet_543():
    """Ideal singlet assemblage at the heralding efficiency used throughout."""
    return asm.ideal_assemblage(singlet_state(), eta=0.543)


def steering_cases():
    """Named ideal assemblages on both sides of the steering boundary, with
    symmetric and asymmetric states; shared by the solver regression test
    and the external cross-check."""
    yield "singlet eta=0.543", asm.ideal_assemblage(
        singlet_state(), eta=0.543)
    yield "singlet eta=0.8", asm.ideal_assemblage(
        singlet_state(), eta=0.8)
    yield "werner V=0.99 eta=0.543", asm.ideal_assemblage(
        sim.werner_state(0.99), eta=0.543)
    yield "werner V=0.7 eta=1", asm.ideal_assemblage(
        sim.werner_state(0.7), eta=1.0)
    yield "werner V=0.75 eta=1", asm.ideal_assemblage(
        sim.werner_state(0.75), eta=1.0)
    psi = np.array([0.1, 0.55 - 0.2j, 0.35j, 0.65], dtype=complex)
    psi /= np.linalg.norm(psi)
    yield "asymmetric pure eta=0.8", asm.ideal_assemblage(
        np.outer(psi, psi.conj()), eta=0.8)


@pytest.fixture(scope="session")
def ml_fit():
    """Simulated >= 1e6-trial tomography at V = 0.99, eta_A = 0.543 and its
    maximum-likelihood reconstruction."""
    t0 = time.perf_counter()
    config = sim.ExperimentConfig(
        visibility=0.99,
        eta_alice=0.543,
        trials_certification=1_000_000,
        rng_seed=77,
    )
    counts = sim.simulate_tomography(config)
    reconstruction = asm.ml_reconstruct(counts)
    return types.SimpleNamespace(
        config=config, counts=counts, reconstruction=reconstruction,
        elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def bootstrap_run(ml_fit):
    """One full statistical chain, shared across test modules.

    Certifies the maximum-likelihood fit of ``ml_fit`` at the stream's
    setting with a parametric bootstrap, and certifies the noiseless ideal assemblage at the same
    setting for comparison.  Session-scoped because the bootstrap costs
    about a second of CPU, most of it in its hundred SDP solves; it refits
    its tables as one batch and solves their SDPs in lockstep groups of
    ``sdp.GROUP_SIZE``, in one slice unless the test process runs a single
    thread (``OPENBLAS_NUM_THREADS=1``), and then in contiguous slices of the
    resamples, one per CPU, all but the first in forked workers.  The
    certification unit tests, the solver regression pins and the acceptance
    suite all read from it.
    """
    t0 = time.perf_counter()
    config, counts, reconstruction = ml_fit.config, ml_fit.counts, ml_fit.reconstruction
    result = cert.certify(
        reconstruction.assemblage,
        x_star=config.rng_setting,
        counts=counts,
        resamples=BOOTSTRAP_RESAMPLES,
        seed=BOOTSTRAP_SEED,
    )
    ideal = asm.ideal_assemblage(
        sim.werner_state(config.visibility), eta=config.eta_alice
    )
    ideal_result = cert.certify(ideal, x_star=result.x_star)
    elapsed = ml_fit.elapsed + time.perf_counter() - t0
    return types.SimpleNamespace(
        config=config,
        counts=counts,
        reconstruction=reconstruction,
        result=result,
        ideal_result=ideal_result,
        elapsed=elapsed,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
