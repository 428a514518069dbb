"""Release gate: one test per acceptance criterion.

Run ``pytest tests/test_acceptance.py -v`` to get exactly one pass/fail line
per criterion.  Criteria with wall-clock budgets time themselves and assert
the budget; every expected number is produced by an independent route
(closed forms, brute-force oracles, or a second solver pass on a fine grid),
never by re-running the code under test.
"""

import json
import math
import os
import time

import numpy as np

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng import cli
from steerqrng import extractor as ext
from steerqrng import gf2
from steerqrng import pipeline as pl
from steerqrng import simulate as sim
from steerqrng.linalg import hermitian_part, singlet_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def min_eigenvalue(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(mat))[0])


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def make_pipeline_config(**experiment_overrides) -> pl.PipelineConfig:
    """Small but physical end-to-end configuration (a few seconds per run)."""
    experiment = dict(
        visibility=1.0,
        eta_alice=0.543,
        eta_bob=1.0,
        pair_rate=20_000,
        duration_rng=0.5,
        trials_certification=40_000,
        rng_seed=11,
    )
    experiment.update(experiment_overrides)
    return pl.PipelineConfig.from_dict({
        "format": pl.CONFIG_FORMAT,
        "experiment": experiment,
        "extraction": {"block_bits": 2000},
    })


def test_criterion_1_output_length_exact():
    """The certified output length hits the two reference operating points
    exactly: 20000 raw bits at min-entropy rate 0.042 (resp. 0.030) with
    error bound 1e-6 yield 754 (resp. 514) extractable bits."""
    assert ext.output_length(20_000, 0.042, 1e-6) == 754
    assert ext.output_length(20_000, 0.030, 1e-6) == 514


def test_criterion_2_heralding_threshold():
    """On ideal lossy-singlet assemblages the certified randomness vanishes
    at heralding efficiency 0.50 (guessing probability 1 within 1e-6) and is
    strictly positive at 0.52; the full grid 0.48..1.00 in steps of 0.02
    solves in under ten seconds."""
    t0 = time.perf_counter()
    p_guess = {}
    for i in range(27):
        eta = round(0.48 + 0.02 * i, 2)
        assemblage = asm.ideal_assemblage(singlet_state(), eta=eta)
        p_guess[eta] = cert.guessing_probability(assemblage, "X").p_guess
    elapsed = time.perf_counter() - t0
    assert abs(p_guess[0.50] - 1.0) <= 1e-6
    assert cert.min_entropy(p_guess[0.50]) <= 1e-6 / math.log(2)
    assert cert.min_entropy(p_guess[0.52]) > 0.0
    assert elapsed < 10.0, f"grid took {elapsed:.1f} s"


def suite_assemblages() -> dict:
    """Representative assemblages: lossy singlets, noisy Werner states on
    both sides of the steering boundary, unsteerable states, a non-symmetric
    pure state, and a maximum-likelihood reconstruction from finite counts."""
    cases = {}
    for eta in (0.543, 0.8, 1.0):
        cases[f"singlet eta={eta}"] = asm.ideal_assemblage(
            singlet_state(), eta=eta)
    for v in (0.5, 0.99):
        cases[f"werner V={v} eta=0.8"] = asm.ideal_assemblage(
            sim.werner_state(v), eta=0.8)
    for v in (INV_SQRT2 - 0.05, INV_SQRT2 + 0.05):
        cases[f"werner V={v:.3f} eta=1"] = asm.ideal_assemblage(
            sim.werner_state(v), eta=1.0)
    cases["maximally mixed"] = asm.ideal_assemblage(
        np.eye(4) / 4.0, eta=0.9)
    psi = np.array([0.2, 0.4 - 0.1j, -0.5j, 0.75], dtype=complex)
    psi /= np.linalg.norm(psi)
    cases["asymmetric pure eta=0.87"] = asm.ideal_assemblage(
        np.outer(psi, psi.conj()), eta=0.87)
    config = sim.ExperimentConfig(
        visibility=0.95, eta_alice=0.7, trials_certification=200_000, rng_seed=5)
    counts = sim.simulate_tomography(config)
    cases["ml reconstruction"] = asm.ml_reconstruct(counts).assemblage
    return cases


def test_criterion_3_duality_gap_and_functional_feasibility():
    """For every assemblage in the suite the steering functional extracted
    from the dual reproduces the primal value, |beta - mu| <= 1e-6, and the
    functional is feasible within 1e-8: every deterministic-strategy
    aggregate sum_x F_{lambda(x)|x} is positive semidefinite and the
    aggregates' traces sum to one."""
    for name, assemblage in suite_assemblages().items():
        steering = cert.steering_functional(assemblage)
        assert abs(steering.beta - steering.mu) <= 1e-6, name
        trace_total = 0.0
        for strategy in cert.STRATEGIES:
            aggregate = sum(steering.functional[x, a] for x, a in enumerate(strategy))
            assert min_eigenvalue(aggregate) >= -1e-8, name
            trace_total += float(np.real(np.trace(aggregate)))
        assert abs(trace_total - 1.0) <= 1e-8, name


def test_criterion_4_werner_boundary_by_bisection():
    """At unit heralding efficiency the steering boundary of the Werner
    family under the two conjugate measurements sits at visibility 1/sqrt(2):
    mu (and beta) change sign there.  Bisection locates the boundary within
    +-0.01 and an independent fine grid of solves agrees."""
    t0 = time.perf_counter()

    def mu_at(v: float) -> float:
        assemblage = asm.ideal_assemblage(
            sim.werner_state(v), eta=1.0)
        return cert.steering_functional(assemblage).mu

    def steered(mu: float) -> bool:
        return mu < -1e-6

    lo, hi = 0.6, 0.8
    assert not steered(mu_at(lo)) and steered(mu_at(hi))
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if steered(mu_at(mid)):
            hi = mid
        else:
            lo = mid
    v_bisect = 0.5 * (lo + hi)
    assert abs(v_bisect - INV_SQRT2) <= 0.01

    grid = np.arange(0.68, 0.7401, 0.005)
    flags = [steered(mu_at(float(v))) for v in grid]
    transitions = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
    assert len(transitions) == 1 and not flags[0] and flags[-1]
    v_grid = 0.5 * float(grid[transitions[0]] + grid[transitions[0] + 1])
    assert abs(v_grid - INV_SQRT2) <= 0.01

    below = cert.steering_functional(asm.ideal_assemblage(
        sim.werner_state(INV_SQRT2 - 0.01), eta=1.0))
    above = cert.steering_functional(asm.ideal_assemblage(
        sim.werner_state(INV_SQRT2 + 0.01), eta=1.0))
    assert below.mu >= -1e-8 and below.beta >= -1e-8
    assert above.mu < -1e-4 and above.beta < -1e-4

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"boundary search took {elapsed:.1f} s"


def test_criterion_5_end_to_end_statistical_consistency(bootstrap_run):
    """A simulated run at visibility 0.99 and heralding efficiency 0.543
    with one million tomography trials reconstructs a min-entropy within
    three bootstrap standard deviations of the ideal-assemblage asymptote,
    in the same decade as the 0.042 design point, in under five minutes."""
    run = bootstrap_run
    assert run.config.trials_certification >= 1_000_000
    h_reconstructed = run.result.h_min
    h_ideal = run.ideal_result.h_min
    sigma = run.result.uncertainty.h_min_std
    assert sigma > 0.0
    assert abs(h_reconstructed - h_ideal) <= 3.0 * sigma, (
        f"h={h_reconstructed:.5f} ideal={h_ideal:.5f} sigma={sigma:.2e}")
    assert 0.0042 <= h_reconstructed <= 0.42
    assert run.elapsed < 300.0, f"chain took {run.elapsed:.0f} s"


def rsh_oracle(source_bits, seed_bits, s: int) -> int:
    """Independent one-bit extractor: explicit power sums in GF(2^s).

    Avoids both of the library's evaluation orders, ``rsh_bit``'s Horner
    rule and the batched path's per-chunk masks; only the scalar field
    primitives are shared.
    """

    def pack(bits) -> int:
        value = 0
        for b in bits:
            value = (value << 1) | int(b)
        return value

    alpha = pack(seed_bits[:s])
    beta = pack(seed_bits[s:2 * s])
    padded = list(source_bits) + [0] * ((-len(source_bits)) % s)
    acc = 0
    for j in range(len(padded) // s):
        coeff = pack(padded[j * s:(j + 1) * s])
        acc ^= gf2.gf_mul(coeff, gf2.gf_pow(alpha, j, s), s)
    return (acc & beta).bit_count() & 1


def test_criterion_6_extractor_equals_composition_oracle():
    """The multi-bit extractor agrees bit-for-bit with naive per-bit
    composition (one-bit extractor on the seed bits selected by each design
    set) over a thousand random source/seed pairs at n=32, s=8, and the
    one-bit extractor is linear in the source, exhaustively at n=8."""
    t0 = time.perf_counter()
    params = ext.ExtractorParams.for_source(32, 0.32, 0.9)
    assert params.n <= 32 and params.s <= 8 and params.m >= 2
    design = ext.weak_design(params.m, params.t)
    rng = np.random.default_rng(20260823)
    for _ in range(1000):
        source = ext.BitString(rng.integers(0, 2, size=params.n, dtype=np.uint8))
        seed = ext.BitString(rng.integers(0, 2, size=params.d, dtype=np.uint8))
        output = ext.extract(source, seed, params)
        expected = [
            rsh_oracle(source.bits, seed.bits[design.sets[i]], params.s)
            for i in range(params.m)
        ]
        assert list(output.bits) == expected

    s = 4
    for trial in range(10):
        seed = ext.BitString(rng.integers(0, 2, size=2 * s, dtype=np.uint8))
        table = np.array([
            ext.rsh_bit(
                ext.BitString([(v >> k) & 1 for k in range(7, -1, -1)]), seed)
            for v in range(256)
        ], dtype=np.uint8)
        x = np.arange(256)
        pairs = x[:, None] ^ x[None, :]
        assert np.array_equal(table[pairs], table[x[:, None]] ^ table[x[None, :]])

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"extractor checks took {elapsed:.1f} s"


def test_criterion_7_weak_design_overlap_bound():
    """Brute force over all set pairs: for every i the overlap weight
    sum_{j<i} 2^(|S_i intersect S_j|) stays at or below m, at (16,32),
    (64,64) and the full-block layout (754, t)."""
    t0 = time.perf_counter()
    layout = ext.ExtractorParams.for_source(20_000, 0.042, 1e-6)
    assert layout.m == 754
    for m, t in [(16, 32), (64, 64), (754, layout.t)]:
        design = ext.weak_design(m, t)
        masks = []
        for row in design.sets:
            mask = 0
            for index in row:
                mask |= 1 << int(index)
            masks.append(mask)
        for i in range(m):
            weight = sum(
                2 ** (masks[i] & masks[j]).bit_count() for j in range(i))
            assert weight <= m, (m, t, i, weight)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"design verification took {elapsed:.1f} s"


def test_criterion_8_low_efficiency_run_fails_certification(tmp_path):
    """A full run at heralding efficiency 0.45 exits with the
    certification-failure code and writes no extracted bits."""
    config_path = str(tmp_path / "config.json")
    make_pipeline_config(eta_alice=0.45).to_file(config_path)
    out = str(tmp_path / "run")
    assert cli.main(["run", "-c", config_path, "-o", out]) == pl.EXIT_CERTIFICATION
    assert not os.path.exists(os.path.join(out, pl.EXTRACTED_FILE))
    assert not os.path.exists(os.path.join(out, pl.SEED_FILE))
    report = json.loads(read_bytes(os.path.join(out, pl.REPORT_JSON)))
    assert report["pass"] is False


def test_criterion_9_reproducible_artifacts(tmp_path):
    """Two executions of the same configuration and seeds produce
    byte-identical raw-bit, extracted-bit and report artifacts."""
    config_path = str(tmp_path / "config.json")
    make_pipeline_config().to_file(config_path)
    out_a = str(tmp_path / "run_a")
    out_b = str(tmp_path / "run_b")
    assert cli.main(["run", "-c", config_path, "-o", out_a]) == pl.EXIT_OK
    assert cli.main(["run", "-c", config_path, "-o", out_b]) == pl.EXIT_OK
    for name in (pl.RAW_BITS_FILE, pl.EXTRACTED_FILE,
                 pl.REPORT_JSON, pl.REPORT_TEXT):
        a = read_bytes(os.path.join(out_a, name))
        b = read_bytes(os.path.join(out_b, name))
        assert a == b, name
        assert len(a) > 0, name
