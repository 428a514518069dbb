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
  ``sigma_lambda >= mu * 1``.  A negative optimum witnesses steering, and the
  dual multipliers assemble into a steering functional ``F_{a|x}`` whose
  value ``beta = sum Tr(F sigma)`` is negative exactly on steerable
  assemblages and nonnegative on every unsteerable one.

Deterministic response strategies map each setting to an outcome in
``{0, 1, null}``; with two settings there are nine of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .assemblage import (
    OUTCOMES,
    Assemblage,
    TomographyCounts,
    ml_reconstruct,  # unused here; benchmarks/layers.py wraps it at this name
    ml_reconstruct_many,
    outcome_label,
    validate_assemblage,
)
from .linalg import hermitian_basis, hermitian_part

__all__ = [
    "CertificationError",
    "EveDecomposition",
    "GuessingResult",
    "LhsResult",
    "SteeringResult",
    "UncertaintyResult",
    "CertificationResult",
    "deterministic_strategies",
    "strategy_response",
    "guessing_probability",
    "min_entropy",
    "lhs_mu",
    "steering_functional",
    "bootstrap_uncertainty",
    "certify",
    "save_certification",
    "load_certification",
]

SUPPORT_TOL = 1e-11    # eigenvalues above this span an assemblage member's support
VALIDATE_TOL = 1e-7    # assemblage validation tolerance before any SDP


class CertificationError(RuntimeError):
    """SDP trouble during certification (infeasible or not converged)."""


def deterministic_strategies(settings: tuple[str, ...]) -> list[dict]:
    """All maps setting -> outcome, enumerated outcomes-major per setting."""
    return [dict(zip(settings, combo))
            for combo in itertools.product(OUTCOMES, repeat=len(settings))]


def strategy_response(strategy: dict, a, x: str) -> int:
    """D(a|x,lambda): 1 when the strategy answers ``a`` on setting ``x``."""
    return 1 if strategy[x] == a else 0


@dataclass
class EveDecomposition:
    """Assemblage split by the eavesdropper's guess ``e``."""

    parts: dict[object, dict[tuple[str, object], np.ndarray]]
    x_star: str

    def part_sum(self, x: str, a) -> np.ndarray:
        return sum(p[(x, a)] for p in self.parts.values())


@dataclass
class GuessingResult:
    p_guess: float
    x_star: str
    decomposition: EveDecomposition
    solution: sdp.SdpSolution


@dataclass
class LhsResult:
    mu: float
    hidden_states: dict[tuple, np.ndarray]
    solution: sdp.SdpSolution


@dataclass
class SteeringResult:
    beta: float
    functional: dict[tuple[str, object], np.ndarray]
    mu: float
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
    functional: dict[tuple[str, object], np.ndarray] | None = None
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


def _member_supports(assem: Assemblage):
    """Eigenbasis support data per member: (isometry V, eigenvalues on support)."""
    supports = {}
    for key, mat in assem.members.items():
        w, v = np.linalg.eigh(hermitian_part(np.asarray(mat, dtype=complex)))
        keep = w > SUPPORT_TOL
        supports[key] = (v[:, keep], np.clip(w[keep], 0.0, None))
    return supports


@dataclass
class _GuessingProgram:
    """The guessing-probability SDP of one assemblage, with the member
    supports and block labels that read its solution back."""

    problem: sdp.SdpProblem
    x_star: str
    supports: dict
    labels: dict[tuple, str]


def _guessing_program(assem: Assemblage, x_star: str) -> _GuessingProgram:
    """Build the guessing-probability SDP (see ``guessing_probability``)."""
    if x_star not in assem.settings:
        raise ValueError(f"unknown certification setting {x_star!r}")
    _require_valid(assem)
    supports = _member_supports(assem)
    guesses = list(OUTCOMES)

    blocks: dict[str, int] = {}
    labels: dict[tuple, str] = {}
    for e in guesses:
        for (x, a), (v, w) in supports.items():
            rank = v.shape[1]
            if rank == 0:
                continue
            label = f"e{outcome_label(e)}_x{x}_a{outcome_label(a)}"
            labels[(e, x, a)] = label
            blocks[label] = rank

    constraints: list[sdp.SdpConstraint] = []
    # each member splits across the guesses
    for (x, a), (v, w) in supports.items():
        rank = v.shape[1]
        if rank == 0:
            continue
        target = np.diag(w).astype(complex)
        for k, basis_el in enumerate(hermitian_basis(rank)):
            coeffs = {}
            for e in guesses:
                coeffs[labels[(e, x, a)]] = basis_el
            rhs = float(np.real(np.trace(basis_el.conj().T @ target)))
            constraints.append(sdp.SdpConstraint(
                coeffs=coeffs, rhs=rhs,
                name=f"split_{x}_{outcome_label(a)}_{k}"))
    # every part is non-signaling on its own; the basis is compressed to
    # each member's support once, not once per guess
    full_basis = hermitian_basis(2)
    compressed = {key: [v.conj().T @ basis_el @ v for basis_el in full_basis]
                  for key, (v, _w) in supports.items()}
    x0 = assem.settings[0]
    for e in guesses:
        for x in assem.settings[1:]:
            for k in range(len(full_basis)):
                coeffs = {labels[(e, xx, a)]: sign * compressed[(xx, a)][k]
                          for xx, sign in ((x0, 1.0), (x, -1.0))
                          for a in OUTCOMES if (e, xx, a) in labels}
                constraints.append(sdp.SdpConstraint(
                    coeffs=coeffs, rhs=0.0,
                    name=f"nosig_e{outcome_label(e)}_{x}_{k}"))

    objective: dict[str, np.ndarray] = {}
    for e in guesses:
        key = (e, x_star, e)
        if key in labels:
            objective[labels[key]] = np.eye(blocks[labels[key]], dtype=complex)

    problem = sdp.SdpProblem(blocks=blocks, objective=objective,
                             constraints=constraints, sense="max")
    return _GuessingProgram(problem=problem, x_star=x_star, supports=supports,
                            labels=labels)


def _guess_value(solution: sdp.SdpSolution) -> float:
    """The guessing probability of a solved program; raises
    CertificationError unless the solve was optimal."""
    if solution.status == sdp.INFEASIBLE:
        raise CertificationError(
            "guessing-probability SDP infeasible; assemblage is inconsistent")
    if solution.status not in (sdp.OPTIMAL,):
        raise CertificationError(
            f"guessing-probability SDP did not converge: {solution.status} "
            f"({solution.message})")
    return float(solution.primal_value)


def _read_guess(program: _GuessingProgram, solution: sdp.SdpSolution) -> GuessingResult:
    """Guessing probability and Eve's decomposition from a solved program."""
    p_guess = _guess_value(solution)
    parts: dict[object, dict[tuple[str, object], np.ndarray]] = {}
    for e in OUTCOMES:
        part: dict[tuple[str, object], np.ndarray] = {}
        for (x, a), (v, _w) in program.supports.items():
            key = (e, x, a)
            if key in program.labels:
                reduced = solution.primal_blocks[program.labels[key]]
                part[(x, a)] = v @ reduced @ v.conj().T
            else:
                part[(x, a)] = np.zeros((2, 2), dtype=complex)
        parts[e] = part
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


def lhs_mu(assem: Assemblage) -> LhsResult:
    """Largest mu with sigma_{a|x} = sum_lambda D(a|x,lambda) sigma_lambda,
    sigma_lambda >= mu * identity.

    mu >= 0 exactly when a local-hidden-state model exists; the sign change
    locates the steering boundary.  The free scalar mu is encoded as the
    difference of two nonnegative 1x1 blocks whose sum is pinned to a
    constant well above |mu|; without the pin the split has an
    objective-neutral ray (both halves growing together) that leaves the
    dual problem without a strict interior and stalls the solver.
    """
    _require_valid(assem)
    strategies = deterministic_strategies(assem.settings)
    basis = hermitian_basis(2)
    mu_span = 4.0  # |mu| of a normalized assemblage is far below this

    blocks: dict[str, int] = {f"lam{i}": 2 for i in range(len(strategies))}
    blocks["mu_pos"] = 1
    blocks["mu_neg"] = 1

    constraints = []
    for x in assem.settings:
        for a in OUTCOMES:
            n_ax = sum(strategy_response(lam, a, x) for lam in strategies)
            target = np.asarray(assem.members[(x, a)], dtype=complex)
            for k, basis_el in enumerate(basis):
                coeffs: dict[str, np.ndarray] = {}
                for i, lam in enumerate(strategies):
                    if strategy_response(lam, a, x):
                        coeffs[f"lam{i}"] = basis_el
                tr_b = float(np.real(np.trace(basis_el)))
                if tr_b != 0.0:
                    coeffs["mu_pos"] = np.array([[n_ax * tr_b]])
                    coeffs["mu_neg"] = np.array([[-n_ax * tr_b]])
                rhs = float(np.real(np.trace(basis_el.conj().T @ target)))
                constraints.append(sdp.SdpConstraint(
                    coeffs=coeffs, rhs=rhs,
                    name=f"lhs_{x}_{outcome_label(a)}_{k}"))
    constraints.append(sdp.SdpConstraint(
        coeffs={"mu_pos": np.array([[1.0]]), "mu_neg": np.array([[1.0]])},
        rhs=mu_span, name="lhs_mu_span"))

    objective = {"mu_pos": np.array([[1.0]]), "mu_neg": np.array([[-1.0]])}
    problem = sdp.SdpProblem(blocks=blocks, objective=objective,
                             constraints=constraints, sense="max")
    solution = sdp.solve(problem)
    if solution.status == sdp.INFEASIBLE:
        raise CertificationError("LHS SDP infeasible; assemblage is inconsistent")
    if solution.status != sdp.OPTIMAL:
        raise CertificationError(
            f"LHS SDP did not converge: {solution.status} ({solution.message})")

    mu = float(solution.primal_blocks["mu_pos"][0, 0]
               - solution.primal_blocks["mu_neg"][0, 0])
    if abs(mu) > 0.9 * mu_span:
        raise CertificationError(
            f"mu = {mu} saturates the encoding span {mu_span}; "
            "the assemblage is far outside the normalized regime")
    hidden = {}
    for i, lam in enumerate(strategies):
        tau = solution.primal_blocks[f"lam{i}"]
        hidden[tuple(lam[x] for x in assem.settings)] = tau + mu * np.eye(2)
    return LhsResult(mu=mu, hidden_states=hidden, solution=solution)


def steering_functional(assem: Assemblage) -> SteeringResult:
    """Steering functional from the dual of the LHS program.

    The returned coefficients ``F_{a|x}`` satisfy
    ``sum_{a,x} F_{a|x} D(a|x,lambda) >= 0`` for every deterministic strategy
    (so ``beta = sum Tr(F sigma)`` is nonnegative on every unsteerable
    assemblage, whatever assemblage that is) together with the normalization
    ``Tr sum_{a,x,lambda} F_{a|x} D(a|x,lambda) = 1``; strong duality makes
    ``beta`` equal ``mu`` on the probed assemblage.
    """
    lhs = lhs_mu(assem)
    basis = hermitian_basis(2)
    y = lhs.solution.dual_multipliers
    functional: dict[tuple[str, object], np.ndarray] = {}
    idx = 0
    for x in assem.settings:
        for a in OUTCOMES:
            f = np.zeros((2, 2), dtype=complex)
            for basis_el in basis:
                f += y[idx] * basis_el
                idx += 1
            functional[(x, a)] = f
    beta = sum(
        float(np.real(np.trace(functional[(x, a)].conj().T @ assem.members[(x, a)])))
        for x in assem.settings for a in OUTCOMES
    )
    return SteeringResult(beta=beta, functional=functional, mu=lhs.mu,
                          solution=lhs.solution)


def bootstrap_uncertainty(
    counts: TomographyCounts,
    x_star: str,
    *,
    point_estimate: Assemblage,
    resamples: int = 500,
    seed: int = 0,
) -> UncertaintyResult:
    """Parametric bootstrap of the certified quantities.

    Counts are redrawn multinomially per configuration from the empirical
    frequencies, all resamples first.  They are refit in one batch
    (``ml_reconstruct_many``, warm-started from ``point_estimate``, the fit
    of ``counts``), and the guessing-probability SDPs of the converged fits,
    at the same ``x_star``, are solved in one ``sdp.solve_many`` call, in
    lockstep groups; each resample's result is the one it would get alone.
    Resamples whose fit does not converge or whose SDP fails are excluded
    and counted.  Deterministic for a fixed seed.
    """
    if resamples < 100:
        raise ValueError("bootstrap needs at least 100 resamples")
    counts.validate()
    rng = np.random.default_rng(seed)

    configs = []
    for x in counts.settings:
        for b in counts.bases:
            cells = [(x, a, b, beta) for a in OUTCOMES for beta in (0, 1)]
            weights = np.array([counts.entries.get(c, 0) for c in cells], dtype=float)
            configs.append((cells, counts.config_total(x, b), weights / weights.sum()))

    tables = []
    for _ in range(resamples):
        entries: dict[tuple, int] = {}
        for cells, total, probs in configs:
            for cell, n in zip(cells, rng.multinomial(total, probs)):
                entries[cell] = int(n)
        tables.append(TomographyCounts.from_entries(
            entries, settings=counts.settings, bases=counts.bases))
    fits = ml_reconstruct_many(tables, initial=point_estimate)
    # only the converged assemblages go on: the tables and the fits, with
    # their likelihood histories, are released before any SDP is built
    assemblages = [fit.assemblage for fit in fits if fit.converged]
    failed = len(fits) - len(assemblages)
    del tables, fits

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
            p_guess = _guess_value(solution)
            h_min = min_entropy(p_guess)
        except (ValueError, RuntimeError):
            failed += 1
            continue
        h_values.append(h_min)
        p_values.append(p_guess)

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
        h_min_values=[float(v) for v in h_values],
    )


def certify(
    assem: Assemblage,
    *,
    x_star: str | None = None,
    counts: TomographyCounts | None = None,
    resamples: int = 0,
    seed: int = 0,
) -> CertificationResult:
    """Full certification: guessing probability, min-entropy, LHS robustness
    and steering functional, with optional bootstrap uncertainty.

    When ``x_star`` is omitted it defaults to the setting certifying the
    larger min-entropy.  Guessing probabilities within the solver's gap
    target of the smallest one are ties, broken by declared setting order,
    so solver rounding never decides between symmetric settings.
    """
    diagnostics: dict = {}
    if x_star is None:
        programs = [_guessing_program(assem, x) for x in assem.settings]
        solutions = sdp.solve_many([program.problem for program in programs])
        per_setting = {x: _read_guess(program, solution) for x, program, solution
                       in zip(assem.settings, programs, solutions)}
        diagnostics["p_guess_by_setting"] = {
            x: r.p_guess for x, r in per_setting.items()}
        p_min = min(r.p_guess for r in per_setting.values())
        tie = sdp.GAP_TARGET * (1.0 + p_min)
        x_star = next(x for x in assem.settings
                      if per_setting[x].p_guess <= p_min + tie)
        guess = per_setting[x_star]
    else:
        guess = guessing_probability(assem, x_star)

    steering = steering_functional(assem)
    diagnostics["guessing_solver"] = {
        "status": guess.solution.status, "gap": guess.solution.gap,
        "iterations": guess.solution.iterations}
    diagnostics["lhs_solver"] = {
        "status": steering.solution.status, "gap": steering.solution.gap,
        "iterations": steering.solution.iterations}

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
        for (x, a), mat in result.functional.items():
            lines.append(f"functional {x} {outcome_label(a)}")
            for row in np.asarray(mat, dtype=complex):
                lines.append(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_certification(path: str) -> CertificationResult:
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if lines[0] != "format certification-v1":
        raise ValueError(f"unrecognized certification file header {lines[0]!r}")
    kv: dict[str, str] = {}
    functional: dict[tuple[str, object], np.ndarray] = {}
    pos = 1
    while pos < len(lines):
        parts = lines[pos].split()
        if parts[0] == "functional":
            x, alabel = parts[1], parts[2]
            mat = np.zeros((2, 2), dtype=complex)
            for i in range(2):
                pos += 1
                vals = lines[pos].split()
                for j in range(2):
                    mat[i, j] = float(vals[2 * j]) + 1.0j * float(vals[2 * j + 1])
            from .assemblage import parse_outcome

            functional[(x, parse_outcome(alabel))] = mat
        else:
            kv[parts[0]] = parts[1]
        pos += 1

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
        functional=functional or None,
        uncertainty=uncertainty,
        diagnostics=diagnostics,
    )
