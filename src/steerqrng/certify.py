"""Randomness certification from assemblages via semidefinite programming.

Two SDPs drive everything here, both posed in the Pauli rows of
``sdp`` (a 2x2 PSD matrix is a Lorentz-cone row) and solved by its
log-barrier Newton method:

* the guessing-probability program: an eavesdropper who prepared the devices
  splits the observed assemblage into parts indexed by her guess ``e`` (one
  per Alice outcome, null included); each part must itself be
  non-signaling and PSD, and sum back to the observed assemblage.  The
  maximal probability of her guess matching Alice's outcome at the
  certification setting gives the certified min-entropy
  ``h_min = -log2(p_guess)``.  p_guess is read from the dual side: the
  value b . y of multipliers whose slack is strictly inside every cone,
  which bounds every decomposition's value from above (weak duality).

* the local-hidden-state program: the largest ``mu`` such that
  ``sigma_{a|x} = sum_lambda D(a|x,lambda) sigma_lambda`` with
  ``sigma_lambda >= mu * 1``, posed over ``tau_lambda = sigma_lambda - mu * 1
  >= 0`` alone, since the normalization of the assemblage fixes ``mu`` from
  ``sum_lambda Tr tau_lambda``.  A negative optimum witnesses steering, and
  the dual multipliers of the same solve assemble into a steering
  functional ``F_{a|x}`` whose value ``beta = sum Tr(F sigma)`` is negative
  exactly on steerable assemblages and nonnegative on every unsteerable one.

Deterministic response strategies map each setting to an outcome in
``{0, 1, null}``; with two settings there are nine of them, the rows of
``STRATEGIES``.  Assemblages, Eve's parts, the functional and the hidden
states are arrays laid out over ``SETTINGS`` and ``OUTCOMES``.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .assemblage import (
    CELLS,
    MEMBERS,
    OUTCOMES,
    SETTINGS,
    Assemblage,
    TomographyCounts,
    _from_pauli,
    _pauli_coordinates,
    format_block,
    ml_reconstruct,  # unused here; benchmarks/layers.py wraps it at this name
    ml_reconstruct_many,
    outcome_label,
    parse_block,
    parse_outcome,
    validate_assemblage,
)
from .extractor import _cpu_count
from .linalg import hermitian_part

__all__ = [
    "CertificationError",
    "EveDecomposition",
    "GuessingResult",
    "SteeringResult",
    "UncertaintyResult",
    "CertificationResult",
    "STRATEGIES",
    "guessing_probability",
    "min_entropy",
    "steering_functional",
    "bootstrap_uncertainty",
    "certify",
    "save_certification",
    "load_certification",
]

SUPPORT_TOL = 1e-11    # eigenvalues above this span an assemblage member's support
VALIDATE_TOL = 1e-7    # assemblage validation tolerance before any SDP
MIN_RESAMPLES = 100    # fewest bootstrap resamples that give a usable spread
_SLICE_RESAMPLES = 20  # fewest resamples per bootstrap slice: ~0.07 s of each is fixed refit cost


class CertificationError(RuntimeError):
    """SDP trouble during certification: a solve that did not converge, or a
    guessing dual whose slack leaves a cone."""


#: The deterministic strategies, one per row: the index into OUTCOMES that
#: strategy lambda answers on each setting, so D(a|x,lambda) = 1 exactly when
#: STRATEGIES[lambda, x] == a.  Enumerated outcomes-major per setting.
STRATEGIES = np.array(list(itertools.product(range(len(OUTCOMES)), repeat=len(SETTINGS))))

#: The LHS program's rows over the hidden states' Pauli rows (see
#: ``steering_functional``): (x, a, k) by (lambda, j).
_LHS_ROWS = ((STRATEGIES.T[:, None, :] == np.arange(len(OUTCOMES))[:, None])[:, :, None, :, None]
             * np.eye(4)[:, None, :] - np.diag([1.0, 0, 0, 0])[:, None, :] / 3
             ).reshape(len(SETTINGS) * len(OUTCOMES) * 4, -1)


@dataclass
class EveDecomposition:
    """Assemblage split by the eavesdropper's guess ``e``: ``parts[e]`` is a
    sub-assemblage of shape ``MEMBERS``, so ``parts`` has axes (e, x, a) over
    OUTCOMES, SETTINGS and OUTCOMES, and ``parts.sum(axis=0)`` is the
    assemblage."""

    parts: np.ndarray
    x_star: str


@dataclass
class GuessingResult:
    """``p_guess`` is the dual value b . y of ``solution``, an upper bound on
    the guessing probability; Eve's decomposition is its primal side."""

    p_guess: float
    x_star: str
    decomposition: EveDecomposition
    solution: sdp.SdpSolution


@dataclass
class SteeringResult:
    beta: float
    functional: np.ndarray      # shape MEMBERS
    mu: float
    hidden_states: np.ndarray   # (strategies, 2, 2), in the order of STRATEGIES
    solution: sdp.SdpSolution


@dataclass
class UncertaintyResult:
    resamples: int
    failed: int
    h_min_mean: float
    h_min_std: float
    p_guess_mean: float
    p_guess_std: float
    h_min_values: list[float] = field(default_factory=list)


@dataclass
class CertificationResult:
    x_star: str
    p_guess: float
    h_min: float
    mu: float
    beta: float
    decomposition: EveDecomposition | None = None
    functional: np.ndarray | None = None   # shape MEMBERS
    uncertainty: UncertaintyResult | None = None
    diagnostics: dict = field(default_factory=dict)


def _require_valid(assem: Assemblage) -> None:
    report = validate_assemblage(assem, tol=VALIDATE_TOL, psd_tol=-VALIDATE_TOL)
    if not report.ok:
        raise CertificationError(
            "assemblage fails validation: "
            f"hermiticity {report.hermiticity_error:.2e}, "
            f"min eigenvalue {report.min_eigenvalue:.2e}, "
            f"normalization {report.normalization_error:.2e}, "
            f"signaling {report.signaling_error:.2e}"
        )


@dataclass
class _GuessingProgram:
    """The guessing-probability program of one assemblage, whose cones are
    labeled by their part's (e, x, a) index, with each member's ``lift``
    from a part's cone row to its Pauli coordinates."""

    problem: sdp.SdpProblem
    x_star: str
    lift: np.ndarray


def _guessing_program(assem: Assemblage, x_star: str) -> _GuessingProgram:
    """Build the guessing-probability program (see ``guessing_probability``)
    in Pauli rows: one cone per part sigma^e_{a|x} of a nonzero member, 3 x 6
    of them for a full-rank assemblage; rows that split each member over the
    guesses and keep each guess's parts non-signaling; and the start
    sigma^e = sigma / 3."""
    if x_star not in SETTINGS:
        raise ValueError(f"unknown certification setting {x_star!r}")
    _require_valid(assem)
    w, vecs = np.linalg.eigh(hermitian_part(assem.sigma.reshape(-1, 2, 2)))
    rank = (w > SUPPORT_TOL).sum(axis=-1)
    # a full-rank member's parts are any PSD matrices; a rank-1 member's are
    # lambda P on its support P, with the cone row (lambda, 0, 0, 0), whose
    # lift to Pauli coordinates is lambda times P's; a zero member has none
    top = vecs[..., 1]
    lift = np.zeros((len(rank), 4, 4))
    lift[rank == 2] = np.eye(4)
    lift[rank == 1, :, 0] = _pauli_coordinates(top[..., :, None] * top.conj()[..., None, :])[rank == 1]
    whole = np.where((rank == 2)[:, None], _pauli_coordinates(assem.sigma.reshape(-1, 2, 2)),
                     np.eye(4)[0] * w[:, 1:] * (rank == 1)[:, None])

    # rows over the (guess, member, coordinate) columns: each member is the
    # sum of its parts, and each guess's parts sum to one state per setting
    guesses, members = len(OUTCOMES), np.arange(len(rank))
    split = np.zeros((len(rank), 4, guesses, len(rank), 4))
    split[members, :, :, members] = lift[:, :, None]
    no_signal = np.zeros((guesses, 4, guesses, len(rank), 4))
    sign = np.repeat([1.0, -1.0], len(OUTCOMES))
    no_signal[np.arange(guesses), :, np.arange(guesses)] = (sign[:, None, None] * lift).swapaxes(0, 1)
    cones = np.tile(rank > 0, guesses)
    rays = np.eye(4 * len(cones)).reshape(len(cones), 4, -1)[np.tile(rank == 1, guesses), 1:]
    columns = np.repeat(cones, 4)
    constraints = np.concatenate([split[rank > 0].reshape(-1, len(columns)),
                                  no_signal.reshape(-1, len(columns)),
                                  rays.reshape(-1, len(columns))])[:, columns]
    rhs = np.zeros(len(constraints))
    rhs[:4 * (rank > 0).sum()] = (lift @ whole[..., None])[rank > 0].ravel()
    objective = np.zeros((guesses, *MEMBERS[:2], 4))
    objective[np.arange(guesses), SETTINGS.index(x_star), np.arange(guesses), 0] = 1.0
    problem = sdp.SdpProblem(
        blocks=[(e, *np.unravel_index(m, MEMBERS[:2])) for e in range(guesses)
                for m in members[rank > 0]],
        objective=objective.ravel()[columns], constraints=constraints, rhs=rhs,
        start=np.tile(whole / guesses, (guesses, 1))[cones].ravel())
    return _GuessingProgram(problem=problem, x_star=x_star, lift=lift.reshape(*MEMBERS[:2], 4, 4))


def _optimal_value(solution: sdp.SdpSolution, program: str) -> float:
    """The optimum of a solved ``program``; raises CertificationError unless
    the solve was optimal."""
    if solution.status != sdp.OPTIMAL:
        raise CertificationError(
            f"{program} SDP did not converge: {solution.status} ({solution.message})")
    return float(solution.primal_value)


def _certified_guess(program: _GuessingProgram, solution: sdp.SdpSolution) -> float:
    """The dual value b . y of a solved guessing program, an upper bound on
    p_guess by weak duality once its slack A^T y - c is strictly inside
    every cone; raises CertificationError unless the solve was optimal and
    the slack is inside."""
    _optimal_value(solution, "guessing-probability")
    report = sdp.check_certificate(program.problem, solution)
    if not report.dual_margin > 0.0:
        raise CertificationError(
            f"guessing-probability dual slack leaves its cone: smallest margin "
            f"{report.dual_margin:.3g}")
    return report.dual_value


def _read_guess(program: _GuessingProgram, solution: sdp.SdpSolution) -> GuessingResult:
    """Guessing probability and Eve's decomposition from a solved program."""
    p_guess = _certified_guess(program, solution)
    rows = np.zeros((len(OUTCOMES), *MEMBERS[:2], 4))
    rows[tuple(np.array(program.problem.blocks).T)] = solution.primal
    parts = _from_pauli(np.einsum("xaij,exaj->exai", program.lift, rows))
    return GuessingResult(
        p_guess=p_guess,
        x_star=program.x_star,
        decomposition=EveDecomposition(parts=parts, x_star=program.x_star),
        solution=solution,
    )


def guessing_probability(assem: Assemblage, x_star: str) -> GuessingResult:
    """Optimal guessing probability of Alice's outcome at ``x_star``, from
    the dual side: the certified upper bound b . y (see ``sdp``).

    The eavesdropper's guess ranges over the full outcome alphabet including
    null: predicting a no-detection event is as good for her as predicting a
    bit, which is what makes low heralding efficiency fatal.  Each part of
    her decomposition is restricted to the support of the corresponding
    assemblage member (forced by positivity), which keeps the program
    strictly feasible even for rank-deficient ideal assemblages.
    """
    program = _guessing_program(assem, x_star)
    return _read_guess(program, sdp.solve(program.problem))


def min_entropy(p_guess: float) -> float:
    """Certified min-entropy -log2(p_guess), clamped to zero at p >= 1.

    Small solver overshoots above 1 are tolerated; a guessing probability
    outside (0, 1 + 1e-6] indicates a broken certification and raises.
    """
    if not 0.0 < p_guess <= 1.0 + 1e-6:
        raise ValueError(f"guessing probability {p_guess} outside (0, 1]")
    return max(0.0, -float(np.log2(min(p_guess, 1.0))))


def steering_functional(assem: Assemblage) -> SteeringResult:
    """LHS robustness mu and the steering functional of its dual, from one
    solve.

    mu is the largest value with sigma_{a|x} = sum_lambda D(a|x,lambda)
    sigma_lambda and sigma_lambda >= mu * identity; lambda runs over the rows
    of ``STRATEGIES``, and the hidden states sigma_lambda come back as one
    (strategies, 2, 2) array in that order.  mu >= 0 exactly when a
    local-hidden-state model exists; the sign change locates the steering
    boundary.  The program is posed over tau_lambda = sigma_lambda - mu * 1
    >= 0 alone: the members of one setting sum to rho_B, so
    mu = (t - sum_lambda Tr tau_lambda) / 18 with t = Tr rho_B, read from the
    assemblage as the mean over settings.

    The functional ``F_{a|x}``, an array of shape ``MEMBERS`` laid out like
    the assemblage, satisfies ``sum_x F_{lambda(x)|x} >= 0`` for every
    deterministic strategy lambda (so ``beta = sum Tr(F sigma)`` is
    nonnegative on every unsteerable assemblage, whatever assemblage that
    is) together with the normalization ``Tr sum_{lambda,x} F_{lambda(x)|x}
    = 1``; strong duality makes ``beta`` equal ``mu`` on the probed
    assemblage.
    """
    _require_valid(assem)
    v = _pauli_coordinates(assem.sigma)
    t = v[..., 0].sum() / len(SETTINGS)
    # one row per member (x, a) and Pauli coordinate k: the k-th coordinate
    # of sigma_{a|x} is sum_{lambda(x)=a} tau_lambda[k] + 3 mu Tr(P_k 1), as 3
    # of the strategies answer each member, and 6 mu = (t - sum_lambda
    # Tr tau_lambda) / 3; the objective is -sum_lambda Tr tau_lambda
    e0 = np.eye(4)[0]
    rhs = v - t / 3 * e0
    # any particular solution plus delta 1 on every tau meets the rows: this
    # one splits each setting's members over the strategies' answers
    rho = v.sum(axis=1).mean(axis=0)
    tau = (v[0, STRATEGIES[:, 0]] + v[1, STRATEGIES[:, 1]]) / 3 - rho / 9
    delta = t / 18 - sdp.cone_margins(tau).min() / 2
    problem = sdp.SdpProblem(
        blocks=list(range(len(STRATEGIES))), objective=np.tile(-e0, len(STRATEGIES)),
        constraints=_LHS_ROWS, rhs=rhs.ravel(), start=(tau + 2 * delta * e0).ravel())
    solution = sdp.solve(problem)
    mu = float(t + _optimal_value(solution, "LHS")) / 18
    hidden = _from_pauli(solution.primal) + mu * np.eye(2)

    # G_{a|x} = sum_k y_k P_k from the member duals, T = sum Tr G: dual
    # feasibility is sum_x G_{lambda(x)|x} + (1 - T/6) 1 >= 0, so sharing the
    # identity term over the two settings and dividing by 18 normalizes the
    # functional and makes beta = (dual value + t) / 18 = mu
    g = 2.0 * _from_pauli(solution.dual_multipliers.reshape(rhs.shape))
    functional = (g + (6 - np.trace(g, axis1=2, axis2=3).real.sum()) / 12 * np.eye(2)) / 18
    beta = float(np.vdot(functional, assem.sigma).real)
    return SteeringResult(beta=beta, functional=functional, mu=mu,
                          hidden_states=hidden, solution=solution)


def bootstrap_uncertainty(
    counts: TomographyCounts,
    x_star: str,
    *,
    point_estimate: Assemblage,
    resamples: int = 500,
    seed: int = 0,
) -> UncertaintyResult:
    """Parametric bootstrap of the certified quantities.

    All ``resamples`` tables are redrawn in one multinomial call, each
    (x, b) configuration from its empirical frequencies at its own total;
    the draws are those of one call per resample and configuration, in that
    order.  The tables are cut into contiguous slices, one per CPU this
    process may run on and none shorter than ``_SLICE_RESAMPLES``; slice 0
    runs in this process and every other in a worker forked for the call,
    all of them joined before it returns or raises.  The split serves
    single-threaded processes only: there is one slice, and no worker, on
    one CPU, where ``fork`` is not available, and in a process that ran
    more than one thread at its first split bootstrap, or whose threads
    cannot be counted.  With numpy's default OpenBLAS, whose pool holds a
    thread per CPU, that is every process not started with
    ``OPENBLAS_NUM_THREADS=1``.  Each slice refits its tables
    in one batch (``ml_reconstruct_many``, warm-started from
    ``point_estimate``, the fit of ``counts``) and solves the
    guessing-probability programs of the converged fits, at the same
    ``x_star``, in one ``sdp.solve_many`` call, batched by row matrix; each
    resample's result is the one it would get alone, so the slices' results
    joined in resample order do not depend on how many there are.
    Resamples whose fit does not converge or whose SDP fails are excluded
    and counted.  Deterministic for a fixed seed.
    """
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"bootstrap needs at least {MIN_RESAMPLES} resamples")
    counts.validate()
    rng = np.random.default_rng(seed)
    totals = counts.totals()
    weights = counts.n.reshape(*totals.shape, -1).astype(float)
    probs = weights / weights.sum(axis=-1, keepdims=True)
    draws = rng.multinomial(totals, probs, size=(resamples, *totals.shape))
    tables = [TomographyCounts(d.reshape(CELLS)) for d in draws]

    h_values = []
    p_values = []
    failed = 0
    for h_slice, p_slice, failed_slice in _run_slices(tables, point_estimate, x_star):
        h_values += h_slice
        p_values += p_slice
        failed += failed_slice

    if not h_values:
        raise CertificationError("all bootstrap resamples failed")
    h_arr = np.array(h_values)
    p_arr = np.array(p_values)
    return UncertaintyResult(
        resamples=resamples,
        failed=failed,
        h_min_mean=float(h_arr.mean()),
        h_min_std=float(h_arr.std(ddof=1)) if h_arr.size > 1 else 0.0,
        p_guess_mean=float(p_arr.mean()),
        p_guess_std=float(p_arr.std(ddof=1)) if p_arr.size > 1 else 0.0,
        h_min_values=h_values,
    )


def _run_slices(tables: list[TomographyCounts], point_estimate: Assemblage,
                x_star: str) -> list[tuple[list[float], list[float], int]]:
    """``_bootstrap_slice`` over contiguous slices of ``tables``, in order:
    slice 0 in this process, every other in a forked worker."""
    n_slices = max(1, min(_cpu_count(), len(tables) // _SLICE_RESAMPLES))
    if n_slices == 1 or not _forks():
        return [_bootstrap_slice(tables, point_estimate, x_star)]
    # imported only here: they add about 20 ms to importing the package
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    bounds = [len(tables) * r // n_slices for r in range(n_slices + 1)]
    slices = [tables[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(n_slices - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        # the workers are forked here, before this process binds itself
        futures = [pool.submit(_bound_slice, r, part, point_estimate, x_star)
                   for r, part in enumerate(slices[1:], start=1)]
        first = _bound_slice(0, slices[0], point_estimate, x_star)
        return [first, *(future.result() for future in futures)]


def _bound_slice(r: int, tables: list[TomographyCounts], point_estimate: Assemblage,
                 x_star: str) -> tuple[list[float], list[float], int]:
    """``_bootstrap_slice`` with this process bound to the r-th of the CPUs
    it may run on, and free to run on all of them again afterwards.

    Unbound, the scheduler can leave a forked worker on its parent's CPU:
    on a 2-vCPU VM both slices shared one CPU throughout in 2 of 6 calls
    (wall time twice the CPU time), and in none of 12 bound calls.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(cpus)[r % len(cpus)]})
    try:
        return _bootstrap_slice(tables, point_estimate, x_star)
    finally:
        os.sched_setaffinity(0, cpus)


@functools.cache
def _forks() -> bool:
    """Whether this process runs the bootstrap's slices in forked workers,
    decided once, when first asked, before any pool of its own: where
    ``fork`` is a start method, CPU affinity can be set and the process
    runs a single thread.  Each process's multi-threaded BLAS pool would
    spin against the others' (2 CPUs, 2 BLAS threads: 2.3-9.9 s for two
    slices against 0.9-1.7 s for one), so with numpy's default OpenBLAS the
    resamples run in one slice."""
    if _thread_count() != 1 or not hasattr(os, "sched_setaffinity"):
        return False
    import multiprocessing
    return "fork" in multiprocessing.get_all_start_methods()


def _thread_count() -> int:
    """OS threads of this process, a BLAS pool's included; 0 where they
    cannot be counted."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _bootstrap_slice(tables: list[TomographyCounts], point_estimate: Assemblage,
                     x_star: str) -> tuple[list[float], list[float], int]:
    """h_min and p_guess of every resample table that certifies, in order,
    and the number that do not (see ``bootstrap_uncertainty``)."""
    fits = ml_reconstruct_many(tables, initial=point_estimate)
    # only the converged assemblages go on: the fits are released before
    # any SDP is built
    assemblages = [fit.assemblage for fit in fits if fit.converged]
    failed = len(fits) - len(assemblages)
    del fits

    programs = []
    for assem in assemblages:
        try:
            programs.append(_guessing_program(assem, x_star))
        except (ValueError, RuntimeError):
            failed += 1

    h_values = []
    p_values = []
    for program, solution in zip(programs, sdp.solve_many([p.problem for p in programs])):
        try:
            p_guess = _certified_guess(program, solution)
            h_min = min_entropy(p_guess)
        except (ValueError, RuntimeError):
            failed += 1
            continue
        h_values.append(h_min)
        p_values.append(p_guess)
    return h_values, p_values, failed


def certify(
    assem: Assemblage,
    *,
    x_star: str,
    counts: TomographyCounts | None = None,
    resamples: int = 0,
    seed: int = 0,
) -> CertificationResult:
    """Full certification at setting ``x_star``: guessing probability,
    min-entropy, LHS robustness and steering functional, with optional
    bootstrap uncertainty.

    ``x_star`` is the setting whose outcomes are extracted; a certificate at
    any other setting bounds a variable the extractor never reads.
    """
    guess = guessing_probability(assem, x_star)
    steering = steering_functional(assem)
    diagnostics = {
        "guessing_solver": {"status": guess.solution.status, "gap": guess.solution.gap,
                            "iterations": guess.solution.iterations},
        "lhs_solver": {"status": steering.solution.status, "gap": steering.solution.gap,
                       "iterations": steering.solution.iterations},
    }

    uncertainty = None
    if resamples:
        if counts is None:
            raise ValueError("bootstrap uncertainty requires tomography counts")
        uncertainty = bootstrap_uncertainty(
            counts, x_star, point_estimate=assem, resamples=resamples, seed=seed)

    return CertificationResult(
        x_star=x_star,
        p_guess=guess.p_guess,
        h_min=min_entropy(guess.p_guess),
        mu=steering.mu,
        beta=steering.beta,
        decomposition=guess.decomposition,
        functional=steering.functional,
        uncertainty=uncertainty,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# plain-text report


def save_certification(result: CertificationResult, path: str) -> None:
    """Labeled plain-text certification report (parsed back by the CLI)."""
    lines = [
        "format certification-v1",
        f"x_star {result.x_star}",
        f"p_guess {result.p_guess!r}",
        f"h_min {result.h_min!r}",
        f"mu {result.mu!r}",
        f"beta {result.beta!r}",
    ]
    g = result.diagnostics.get("guessing_solver", {})
    lines.append(f"guessing_solver_status {g.get('status', 'unknown')}")
    lines.append(f"guessing_solver_gap {g.get('gap', float('nan'))!r}")
    l = result.diagnostics.get("lhs_solver", {})
    lines.append(f"lhs_solver_status {l.get('status', 'unknown')}")
    lines.append(f"lhs_solver_gap {l.get('gap', float('nan'))!r}")
    if result.uncertainty is not None:
        u = result.uncertainty
        lines += [
            f"uncertainty_resamples {u.resamples}",
            f"uncertainty_failed {u.failed}",
            f"h_min_mean {u.h_min_mean!r}",
            f"h_min_std {u.h_min_std!r}",
            f"p_guess_mean {u.p_guess_mean!r}",
            f"p_guess_std {u.p_guess_std!r}",
        ]
    else:
        lines.append("uncertainty_resamples 0")
    if result.functional is not None:
        for x, a in np.ndindex(MEMBERS[:2]):
            lines.append(f"functional {SETTINGS[x]} {outcome_label(OUTCOMES[a])}")
            lines += format_block(result.functional[x, a])
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_certification(path: str) -> CertificationResult:
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if lines[0] != "format certification-v1":
        raise ValueError(f"unrecognized certification file header {lines[0]!r}")
    kv: dict[str, str] = {}
    functional = np.zeros(MEMBERS, dtype=complex)
    blocks: set[tuple[int, int]] = set()
    pos = 1
    while pos < len(lines):
        parts = lines[pos].split()
        if parts[0] == "functional":
            x, a = SETTINGS.index(parts[1]), OUTCOMES.index(parse_outcome(parts[2]))
            if (x, a) in blocks:
                raise ValueError(f"repeated functional block {parts[1]} {parts[2]}")
            blocks.add((x, a))
            functional[x, a] = parse_block(lines[pos + 1:pos + 3])
            pos += 2
        else:
            if parts[0] in kv:
                raise ValueError(f"repeated key {parts[0]}")
            kv[parts[0]] = parts[1]
        pos += 1
    # a functional is all of its members or none
    n_members = MEMBERS[0] * MEMBERS[1]
    if blocks and len(blocks) != n_members:
        raise ValueError(f"functional has {len(blocks)} of {n_members} member blocks")

    uncertainty = None
    if int(kv.get("uncertainty_resamples", "0")) > 0:
        uncertainty = UncertaintyResult(
            resamples=int(kv["uncertainty_resamples"]),
            failed=int(kv["uncertainty_failed"]),
            h_min_mean=float(kv["h_min_mean"]),
            h_min_std=float(kv["h_min_std"]),
            p_guess_mean=float(kv["p_guess_mean"]),
            p_guess_std=float(kv["p_guess_std"]),
        )
    diagnostics = {
        "guessing_solver": {"status": kv.get("guessing_solver_status"),
                            "gap": float(kv.get("guessing_solver_gap", "nan"))},
        "lhs_solver": {"status": kv.get("lhs_solver_status"),
                       "gap": float(kv.get("lhs_solver_gap", "nan"))},
    }
    return CertificationResult(
        x_star=kv["x_star"],
        p_guess=float(kv["p_guess"]),
        h_min=float(kv["h_min"]),
        mu=float(kv["mu"]),
        beta=float(kv["beta"]),
        functional=functional if blocks else None,
        uncertainty=uncertainty,
        diagnostics=diagnostics,
    )
