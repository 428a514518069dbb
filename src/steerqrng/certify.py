"""Randomness certification from assemblages via semidefinite programming.

Two SDPs drive everything here:

* the guessing-probability program: an eavesdropper who prepared the devices
  splits the observed assemblage into parts indexed by her guess ``e`` (one
  per Alice outcome, null included); each part must itself be
  non-signaling and PSD, and sum back to the observed assemblage.  The
  maximal probability of her guess matching Alice's outcome at the
  certification setting gives the certified min-entropy
  ``h_min = -log2(p_guess)``.

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
    format_block,
    ml_reconstruct,  # unused here; benchmarks/layers.py wraps it at this name
    ml_reconstruct_many,
    outcome_label,
    parse_block,
    parse_outcome,
    validate_assemblage,
)
from .extractor import _cpu_count
from .linalg import hermitian_basis, hermitian_part

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
    """SDP trouble during certification (infeasible or not converged)."""


#: The deterministic strategies, one per row: the index into OUTCOMES that
#: strategy lambda answers on each setting, so D(a|x,lambda) = 1 exactly when
#: STRATEGIES[lambda, x] == a.  Enumerated outcomes-major per setting.
STRATEGIES = np.array(list(itertools.product(range(len(OUTCOMES)), repeat=len(SETTINGS))))


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


def _member_supports(assem: Assemblage) -> dict[tuple[int, int], tuple]:
    """(isometry V, eigenvalues on the support) of every member of nonzero
    rank, keyed by its (x, a) index, in (x, a) order."""
    w, v = np.linalg.eigh(hermitian_part(assem.sigma))
    keep = w > SUPPORT_TOL
    return {idx: (v[idx][:, keep[idx]], np.clip(w[idx][keep[idx]], 0.0, None))
            for idx in np.ndindex(keep.shape[:2]) if keep[idx].any()}


@dataclass
class _GuessingProgram:
    """The guessing-probability SDP of one assemblage, whose blocks are keyed
    by their (e, x, a) index, with the member supports that read its
    solution back."""

    problem: sdp.SdpProblem
    x_star: str
    supports: dict


def _guessing_program(assem: Assemblage, x_star: str) -> _GuessingProgram:
    """Build the guessing-probability SDP (see ``guessing_probability``)."""
    if x_star not in SETTINGS:
        raise ValueError(f"unknown certification setting {x_star!r}")
    _require_valid(assem)
    supports = _member_supports(assem)
    guesses = range(len(OUTCOMES))

    blocks = {(e, x, a): v.shape[1] for e in guesses for (x, a), (v, _w) in supports.items()}
    full_basis = hermitian_basis(2)
    n_rows = 1 + sum(v.shape[1] ** 2 for v, _w in supports.values()) + (
        len(guesses) * (len(SETTINGS) - 1) * len(full_basis))
    coef = np.zeros((n_rows, sum(2 * d * d for d in blocks.values())))
    rhs = np.zeros(n_rows)
    coeffs = sdp.block_views(coef, blocks)

    # row 0 is the objective, the trace of the parts at x_star whose guess is
    # their outcome; then each member splits across the guesses, one row per
    # element B of its support's Hermitian basis: Tr(B^H diag(w)) = sum_i Re(B_ii) w_i
    j = 1
    for (x, a), (v, w) in supports.items():
        basis = np.array(hermitian_basis(v.shape[1]))
        if x == SETTINGS.index(x_star):
            coeffs[a, x, a][0] = np.eye(v.shape[1])
        for e in guesses:
            coeffs[e, x, a][j:j + len(basis)] = basis
        rhs[j:j + len(basis)] = (basis.diagonal(axis1=1, axis2=2).real * w).sum(axis=1)
        j += len(basis)
    # every part is non-signaling on its own; the basis is compressed to
    # each member's support once, not once per guess
    compressed = {key: np.array([v.conj().T @ basis_el @ v for basis_el in full_basis])
                  for key, (v, _w) in supports.items()}
    for e in guesses:
        for x in range(1, len(SETTINGS)):
            for (xx, a), comp in compressed.items():
                if xx in (0, x):
                    coeffs[e, xx, a][j:j + len(full_basis)] = comp if xx == 0 else -comp
            j += len(full_basis)

    problem = sdp.SdpProblem(blocks=blocks, objective=coef[0], constraints=coef[1:],
                             rhs=rhs[1:])
    return _GuessingProgram(problem=problem, x_star=x_star, supports=supports)


def _optimal_value(solution: sdp.SdpSolution, program: str) -> float:
    """The optimum of a solved ``program``; raises CertificationError unless
    the solve was optimal."""
    if solution.status == sdp.INFEASIBLE:
        raise CertificationError(f"{program} SDP infeasible; assemblage is inconsistent")
    if solution.status != sdp.OPTIMAL:
        raise CertificationError(
            f"{program} SDP did not converge: {solution.status} ({solution.message})")
    return float(solution.primal_value)


def _read_guess(program: _GuessingProgram, solution: sdp.SdpSolution) -> GuessingResult:
    """Guessing probability and Eve's decomposition from a solved program."""
    p_guess = _optimal_value(solution, "guessing-probability")
    parts = np.zeros((len(OUTCOMES), *MEMBERS), dtype=complex)
    for e, x, a in program.problem.blocks:
        v = program.supports[x, a][0]
        parts[e, x, a] = v @ solution.primal_blocks[e, x, a] @ v.conj().T
    decomposition = EveDecomposition(parts=parts, x_star=program.x_star)
    return GuessingResult(
        p_guess=p_guess,
        x_star=program.x_star,
        decomposition=decomposition,
        solution=solution,
    )


def guessing_probability(assem: Assemblage, x_star: str) -> GuessingResult:
    """Optimal guessing probability of Alice's outcome at ``x_star``.

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
    basis = np.array(hermitian_basis(2))
    tr_b = np.trace(basis, axis1=1, axis2=2).real
    answers = STRATEGIES.T[:, None, :] == np.arange(len(OUTCOMES))[:, None]   # (x, a, lambda)
    t = np.trace(assem.sigma, axis1=2, axis2=3).real.sum() / len(SETTINGS)

    # one row per member (x, a) and basis element B, Tr(B sigma_{a|x}) =
    # sum_{lambda(x)=a} Tr(B tau_lambda) + 3 Tr(B) mu, as 3 of the strategies
    # answer each member: the mu term is Tr(B) (t - sum Tr tau) / 6; each
    # row's float view is the blocks' layout, and the objective -sum Tr tau
    coeffs = (answers[:, :, None, :, None, None] * basis[:, None]
              - (tr_b / 6)[:, None, None, None] * np.eye(2))   # (x, a, B, lambda, 2, 2)
    rhs = np.einsum("kij,xaji->xak", basis, assem.sigma).real - t / 6 * tr_b
    problem = sdp.SdpProblem(
        blocks=dict.fromkeys(range(len(STRATEGIES)), 2),
        objective=np.tile(-np.eye(2, dtype=complex).ravel(), len(STRATEGIES)).view(float),
        constraints=coeffs.reshape(rhs.size, -1).view(float), rhs=rhs.ravel())
    solution = sdp.solve(problem)
    mu = float(t + _optimal_value(solution, "LHS")) / 18
    hidden = np.array(list(solution.primal_blocks.values())) + mu * np.eye(2)

    # G_{a|x} = sum_B y B from the member duals, T = sum Tr G: dual
    # feasibility is sum_x G_{lambda(x)|x} + (1 - T/6) 1 >= 0, so sharing the
    # identity term over the two settings and dividing by 18 normalizes the
    # functional and makes beta = (dual value + t) / 18 = mu
    g = np.einsum("xak,kij->xaij", solution.dual_multipliers.reshape(rhs.shape), basis)
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
    guessing-probability SDPs of the converged fits, at the same
    ``x_star``, in one ``sdp.solve_many`` call, in lockstep groups; each
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

    def problems():
        # built as the solver takes them, so the problems are never all
        # alive at once
        nonlocal failed
        for assem in assemblages:
            try:
                program = _guessing_program(assem, x_star)
            except (ValueError, RuntimeError):
                failed += 1
                continue
            yield program.problem

    h_values = []
    p_values = []
    for solution in sdp.solve_many(problems()):
        try:
            p_guess = _optimal_value(solution, "guessing-probability")
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
