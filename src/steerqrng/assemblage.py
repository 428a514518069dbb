"""Assemblages: conditional states steered on Bob's side, plus tomography.

An assemblage maps (Alice setting x, Alice outcome a) to an unnormalized 2x2
state on Bob.  Outcomes are ``0``, ``1`` and ``None`` for the null (no
detection) event.  For a heralding efficiency ``eta`` and state ``rho`` the
ideal assemblage is

    sigma_{a|x}    = eta * Tr_A[(M_{a|x} (x) 1) rho]     a in {0, 1}
    sigma_{null|x} = (1 - eta) * Tr_A[rho]

which is normalized (traces sum to one per setting) and non-signaling (the
sum over outcomes is independent of the setting).

Tomography counts are multinomial per (x, b) configuration, where b is Bob's
measurement basis (X, Y or Z); ``ml_reconstruct`` maximizes the multinomial
likelihood over the set of valid assemblages by projected gradient ascent,
with feasibility enforced by Dykstra's alternating projections at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    assert_density_matrix,
    hermitian_part,
    ket,
    ket_minus,
    ket_plus,
    min_eigenvalue,
    partial_trace_A,
    projector,
    tensor,
)

__all__ = [
    "SETTINGS",
    "OUTCOMES",
    "BOB_BASES",
    "Outcome",
    "Assemblage",
    "AssemblageReport",
    "TomographyCounts",
    "MlReconstruction",
    "InsufficientDataError",
    "ReconstructionError",
    "default_measurements",
    "bob_projectors",
    "ideal_assemblage",
    "validate_assemblage",
    "born_probabilities",
    "ml_reconstruct",
    "save_assemblage",
    "load_assemblage",
    "save_counts",
    "load_counts",
    "outcome_label",
    "parse_outcome",
]

Outcome = "int | None"

SETTINGS: tuple[str, ...] = ("X", "Z")
OUTCOMES: tuple[object, ...] = (0, 1, None)
BOB_BASES: tuple[str, ...] = ("X", "Y", "Z")

_PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class InsufficientDataError(ValueError):
    """A tomography configuration has no counts, so the fit is undetermined."""


class ReconstructionError(RuntimeError):
    """Likelihood ascent failed to converge within the iteration cap."""


def outcome_label(a) -> str:
    return "null" if a is None else str(a)


def parse_outcome(label: str):
    if label == "null":
        return None
    return int(label)


def default_measurements() -> dict[str, dict[int, np.ndarray]]:
    """Alice's effects ``[x][a]``: projective Pauli-X and Pauli-Z measurements
    (outcome 0 = +1 eigenspace).

    The null outcome has no effect; loss is applied when building assemblages.
    """
    return {
        "X": {0: projector(ket_plus()), 1: projector(ket_minus())},
        "Z": {0: projector(ket(1, 0)), 1: projector(ket(0, 1))},
    }


def bob_projectors() -> dict[tuple[str, int], np.ndarray]:
    """Bob's tomography projectors: beta = 0 is the +1 eigenspace of the Pauli."""
    out = {}
    for b in BOB_BASES:
        pauli = _PAULI[b]
        out[(b, 0)] = 0.5 * (ID2 + pauli)
        out[(b, 1)] = 0.5 * (ID2 - pauli)
    return out


@dataclass
class Assemblage:
    """Collection of unnormalized conditional states sigma_{a|x} on Bob."""

    members: dict[tuple[str, object], np.ndarray]
    settings: tuple[str, ...] = SETTINGS

    def member(self, x: str, a) -> np.ndarray:
        return self.members[(x, a)]

    def bob_state(self, x: str) -> np.ndarray:
        """Sum over outcomes for one setting (Bob's reduced state)."""
        return sum(self.members[(x, a)] for a in OUTCOMES)

    def stacked(self) -> np.ndarray:
        """(n_members, 2, 2) array ordered settings-major, outcomes (0, 1, null)."""
        return np.array([self.members[(x, a)] for x in self.settings for a in OUTCOMES])

    @classmethod
    def from_stacked(cls, stack: np.ndarray,
                     settings: tuple[str, ...] = SETTINGS) -> "Assemblage":
        members = {}
        idx = 0
        for x in settings:
            for a in OUTCOMES:
                members[(x, a)] = np.asarray(stack[idx], dtype=complex)
                idx += 1
        return cls(members=members, settings=settings)

    def scaled(self, factor: float) -> "Assemblage":
        return Assemblage(
            members={k: factor * v for k, v in self.members.items()},
            settings=self.settings,
        )


@dataclass
class AssemblageReport:
    hermiticity_error: float
    min_eigenvalue: float
    normalization_error: float
    signaling_error: float
    ok: bool


def ideal_assemblage(rho: np.ndarray, eta: float = 1.0) -> Assemblage:
    """Assemblage steered by measuring ``rho`` on Alice's side with loss.

    ``eta`` is Alice's heralding efficiency; the null member absorbs the
    missing weight so the assemblage stays normalized.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"heralding efficiency {eta} outside [0, 1]")
    effects = default_measurements()
    rho = assert_density_matrix(rho, name="rho")
    rho_b = partial_trace_A(rho, 2, 2)
    members: dict[tuple[str, object], np.ndarray] = {}
    for x in SETTINGS:
        for a in (0, 1):
            op = tensor(effects[x][a], ID2)
            members[(x, a)] = eta * partial_trace_A(op @ rho, 2, 2)
        members[(x, None)] = (1.0 - eta) * rho_b
    return Assemblage(members=members)


def validate_assemblage(assem: Assemblage, tol: float = 1e-9,
                        psd_tol: float = -1e-9) -> AssemblageReport:
    """Check Hermiticity, positivity, normalization and non-signaling.

    Returns a report rather than raising, so callers can decide how strict to
    be; malformed shapes still raise.
    """
    herm = 0.0
    mineig = np.inf
    for (x, a), mat in assem.members.items():
        mat = np.asarray(mat)
        if mat.shape != (2, 2):
            raise ValueError(f"member {x},{outcome_label(a)} has shape {mat.shape}")
        herm = max(herm, float(np.max(np.abs(mat - mat.conj().T))))
        mineig = min(mineig, min_eigenvalue(hermitian_part(mat), tol=np.inf))
    norm_err = max(
        abs(float(np.real(np.trace(assem.bob_state(x)))) - 1.0) for x in assem.settings
    )
    ref = assem.bob_state(assem.settings[0])
    sig_err = max(
        (float(np.max(np.abs(assem.bob_state(x) - ref))) for x in assem.settings[1:]),
        default=0.0,
    )
    ok = herm <= tol and mineig >= psd_tol and norm_err <= tol and sig_err <= tol
    return AssemblageReport(
        hermiticity_error=herm,
        min_eigenvalue=float(mineig),
        normalization_error=norm_err,
        signaling_error=sig_err,
        ok=ok,
    )


def born_probabilities(assem: Assemblage) -> dict[tuple, float]:
    """p(a, beta | x, b) = Tr[Pi_{beta|b} sigma_{a|x}] for Bob's three bases."""
    projs = bob_projectors()
    out: dict[tuple, float] = {}
    for x in assem.settings:
        for a in OUTCOMES:
            sig = assem.members[(x, a)]
            for (b, beta), proj in projs.items():
                out[(x, a, b, beta)] = float(np.real(np.trace(proj @ sig)))
    return out


# ---------------------------------------------------------------------------
# tomography counts


@dataclass
class TomographyCounts:
    """Integer counts per (x, a, b, beta); multinomial per (x, b) configuration."""

    entries: dict[tuple, int]
    totals: dict[tuple[str, str], int] = field(default_factory=dict)
    settings: tuple[str, ...] = SETTINGS
    bases: tuple[str, ...] = BOB_BASES

    @classmethod
    def from_entries(cls, entries: dict[tuple, int],
                     settings: tuple[str, ...] = SETTINGS,
                     bases: tuple[str, ...] = BOB_BASES) -> "TomographyCounts":
        totals: dict[tuple[str, str], int] = {}
        for (x, _a, b, _beta), n in entries.items():
            totals[(x, b)] = totals.get((x, b), 0) + int(n)
        counts = cls(entries=dict(entries), totals=totals, settings=settings, bases=bases)
        counts.validate()
        return counts

    def validate(self) -> None:
        sums: dict[tuple[str, str], int] = {}
        for (x, a, b, beta), n in self.entries.items():
            if int(n) != n or n < 0:
                raise ValueError(f"count for ({x},{a},{b},{beta}) is not a nonnegative integer")
            sums[(x, b)] = sums.get((x, b), 0) + int(n)
        for key, total in self.totals.items():
            if sums.get(key, 0) != total:
                raise ValueError(f"totals for configuration {key} do not match entry sums")

    def config_total(self, x: str, b: str) -> int:
        return self.totals.get((x, b), 0)

    def count(self, x: str, a, b: str, beta: int) -> int:
        return self.entries.get((x, a, b, beta), 0)


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction

# A likelihood-ascent step is flat when it changes the log-likelihood by at
# most ML_REL_TOL relative; no convergence within ML_MAX_ITERATIONS steps
# raises ReconstructionError.
ML_MAX_ITERATIONS = 5000
ML_REL_TOL = 1e-10


@dataclass
class MlReconstruction:
    assemblage: Assemblage
    log_likelihood: float
    log_likelihood_per_trial: float
    iterations: int
    converged: bool
    start_log_likelihoods: list[float]
    ll_history: list[float]


def _member_index(settings: tuple[str, ...]):
    return [(x, a) for x in settings for a in OUTCOMES]


def _stack_to_vec(stack: np.ndarray) -> np.ndarray:
    """Hermitian-basis coordinates: [s00, s11, sqrt2 Re s01, sqrt2 Im s01]."""
    sqrt2 = np.sqrt(2.0)
    return np.column_stack([
        stack[:, 0, 0].real,
        stack[:, 1, 1].real,
        sqrt2 * stack[:, 0, 1].real,
        sqrt2 * stack[:, 0, 1].imag,
    ]).reshape(-1)


def _vec_to_stack(vec: np.ndarray, n_members: int) -> np.ndarray:
    v = vec.reshape(n_members, 4)
    stack = np.zeros((n_members, 2, 2), dtype=complex)
    stack[:, 0, 0] = v[:, 0]
    stack[:, 1, 1] = v[:, 1]
    inv = 1.0 / np.sqrt(2.0)
    stack[:, 0, 1] = inv * (v[:, 2] + 1.0j * v[:, 3])
    stack[:, 1, 0] = inv * (v[:, 2] - 1.0j * v[:, 3])
    return stack


def _affine_operator(settings: tuple[str, ...]):
    """Rows enforcing normalization per setting and non-signaling across settings."""
    members = _member_index(settings)
    n = len(members)
    rows = []
    rhs = []
    for x in settings:
        row = np.zeros(4 * n)
        for m, (xx, _a) in enumerate(members):
            if xx == x:
                row[4 * m + 0] = 1.0
                row[4 * m + 1] = 1.0
        rows.append(row)
        rhs.append(1.0)
    x0 = settings[0]
    for x in settings[1:]:
        for comp in range(4):
            row = np.zeros(4 * n)
            for m, (xx, _a) in enumerate(members):
                if xx == x0:
                    row[4 * m + comp] = 1.0
                elif xx == x:
                    row[4 * m + comp] = -1.0
            rows.append(row)
            rhs.append(0.0)
    cmat = np.array(rows)
    dvec = np.array(rhs)
    pinv = np.linalg.pinv(cmat)
    return cmat, dvec, pinv


def _psd_project_stack(stack: np.ndarray) -> np.ndarray:
    """Batched projection of Hermitian 2x2 matrices onto the PSD cone."""
    a = stack[:, 0, 0].real
    d = stack[:, 1, 1].real
    c = stack[:, 0, 1]
    m = 0.5 * (a + d)
    r = np.sqrt((0.5 * (a - d)) ** 2 + np.abs(c) ** 2)
    lo = m - r
    hi = m + r
    out = stack.copy()
    # members with lo >= 0 stay; hi <= 0 go to zero; the rest keep only the
    # positive eigenspace
    clip_all = hi <= 0.0
    partial = (lo < 0.0) & ~clip_all
    safe_r = np.where(r > 1e-300, r, 1.0)
    ident = np.broadcast_to(np.eye(2), stack.shape)
    plus_proj = (stack - lo[:, None, None] * ident) / (2.0 * safe_r[:, None, None])
    out[partial] = hi[partial, None, None] * plus_proj[partial]
    out[clip_all] = 0.0
    degenerate = partial & (r <= 1e-300)
    if np.any(degenerate):
        out[degenerate] = np.maximum(hi[degenerate], 0.0)[:, None, None] * np.eye(2)
    return out


def _project_feasible(stack, cmat, dvec, pinv, iterations=500, tol=1e-13):
    """Dykstra alternation between the PSD cone and the affine subspace."""
    n = stack.shape[0]
    y = stack
    corr = np.zeros_like(stack)
    prev = None
    for _ in range(iterations):
        z = _psd_project_stack(y + corr)
        corr = y + corr - z
        vec = _stack_to_vec(z)
        vec = vec - pinv @ (cmat @ vec - dvec)
        y = _vec_to_stack(vec, n)
        if prev is not None and np.max(np.abs(y - prev)) < tol:
            break
        prev = y
    return y


class _Likelihood:
    def __init__(self, counts: TomographyCounts):
        members = _member_index(counts.settings)
        projs = bob_projectors()
        proj_keys = [(b, beta) for b in counts.bases for beta in (0, 1)]
        self.members = members
        self.proj_stack = np.array([projs[k] for k in proj_keys])
        self.N = np.zeros((len(members), len(proj_keys)))
        for mi, (x, a) in enumerate(members):
            for pi, (b, beta) in enumerate(proj_keys):
                self.N[mi, pi] = counts.count(x, a, b, beta)
        for x in counts.settings:
            for b in counts.bases:
                if counts.config_total(x, b) == 0:
                    raise InsufficientDataError(
                        f"no counts for configuration (x={x}, b={b})"
                    )
        self.total = float(self.N.sum())
        self.mask = self.N > 0

    def probabilities(self, stack: np.ndarray) -> np.ndarray:
        return np.real(np.einsum("mij,pji->mp", stack, self.proj_stack))

    def value(self, stack: np.ndarray) -> float:
        p = self.probabilities(stack)
        p = np.where(self.mask, np.clip(p, 1e-300, None), 1.0)
        return float(np.sum(self.N * np.log(p), where=self.mask))

    def gradient(self, stack: np.ndarray) -> np.ndarray:
        p = self.probabilities(stack)
        w = np.where(self.mask, self.N / np.clip(p, 1e-300, None), 0.0)
        return np.einsum("mp,pij->mij", w, self.proj_stack)


def _flat_start(counts: TomographyCounts) -> np.ndarray:
    members = _member_index(counts.settings)
    kept = sum(n for (x, a, b, beta), n in counts.entries.items() if a is not None)
    total = sum(counts.totals.values())
    eta_hat = float(np.clip(kept / total if total else 0.5, 1e-3, 1.0 - 1e-3))
    stack = np.zeros((len(members), 2, 2), dtype=complex)
    for mi, (_x, a) in enumerate(members):
        stack[mi] = (eta_hat / 4.0) * ID2 if a is not None else ((1 - eta_hat) / 2.0) * ID2
    return stack


def _linear_inversion_start(counts: TomographyCounts, cmat, dvec, pinv) -> np.ndarray:
    members = _member_index(counts.settings)
    stack = np.zeros((len(members), 2, 2), dtype=complex)
    for mi, (x, a) in enumerate(members):
        trace_est = []
        sigma = np.zeros((2, 2), dtype=complex)
        for b in counts.bases:
            t = counts.config_total(x, b)
            p0 = counts.count(x, a, b, 0) / t
            p1 = counts.count(x, a, b, 1) / t
            trace_est.append(p0 + p1)
            sigma += 0.5 * (p0 - p1) * _PAULI[b]
        sigma += 0.5 * float(np.mean(trace_est)) * ID2
        stack[mi] = sigma
    projected = _project_feasible(stack, cmat, dvec, pinv)
    return 0.95 * projected + 0.05 * _flat_start(counts)


def ml_reconstruct(
    counts: TomographyCounts,
    *,
    initial: Assemblage | None = None,
) -> MlReconstruction:
    """Maximum-likelihood assemblage from tomography counts.

    Projected gradient ascent with backtracking; every accepted step keeps
    the iterate exactly on the normalization/non-signaling subspace and PSD
    up to projection tolerance, and the log-likelihood never decreases.
    The ascent runs from two starting points (flat and linear inversion) and
    keeps the best, which also serves as a convergence cross-check.
    ``initial`` replaces both with one warm start.
    """
    counts.validate()
    like = _Likelihood(counts)
    cmat, dvec, pinv = _affine_operator(counts.settings)

    if initial is not None:
        start_stacks = [_project_feasible(initial.stacked(), cmat, dvec, pinv)]
    else:
        start_stacks = [_flat_start(counts),
                        _linear_inversion_start(counts, cmat, dvec, pinv)]

    best: tuple | None = None
    start_lls: list[float] = []
    for stack0 in start_stacks:
        stack, ll, hist, iters, conv = _ascend(like, stack0, cmat, dvec, pinv)
        start_lls.append(ll)
        if best is None or ll > best[1]:
            best = (stack, ll, hist, iters, conv)

    stack, ll, hist, iters, conv = best
    if not conv:
        raise ReconstructionError(
            f"likelihood ascent did not converge within {ML_MAX_ITERATIONS} iterations"
        )
    assem = Assemblage.from_stacked(stack, counts.settings)
    return MlReconstruction(
        assemblage=assem,
        log_likelihood=ll,
        log_likelihood_per_trial=ll / like.total,
        iterations=iters,
        converged=conv,
        start_log_likelihoods=start_lls,
        ll_history=hist,
    )


def _ascend(like, stack, cmat, dvec, pinv):
    stack = _project_feasible(stack, cmat, dvec, pinv)
    ll = like.value(stack)
    history = [ll]
    step = 0.5
    flat_count = 0
    converged = False
    it = 0
    for it in range(1, ML_MAX_ITERATIONS + 1):
        grad = like.gradient(stack) / like.total
        improved = False
        while step >= 1e-14:
            cand = _project_feasible(stack + step * grad, cmat, dvec, pinv)
            ll_cand = like.value(cand)
            if ll_cand >= ll - 1e-13 * (1.0 + abs(ll)):
                improved = ll_cand > ll
                rel_change = abs(ll_cand - ll) / (1.0 + abs(ll))
                stack, ll = cand, max(ll_cand, ll)
                history.append(ll)
                step = min(step * 1.5, 1e6)
                flat_count = flat_count + 1 if rel_change <= ML_REL_TOL else 0
                break
            step *= 0.5
        if step < 1e-14 or flat_count >= 3:
            converged = True
            break
        if not improved and flat_count >= 1:
            converged = True
            break
    return stack, ll, history, it, converged


# ---------------------------------------------------------------------------
# plain-text serialization


def save_assemblage(assem: Assemblage, path: str) -> None:
    """Labeled complex blocks, 17 significant digits (exact float round trip)."""
    lines = ["format assemblage-v1", "settings " + " ".join(assem.settings)]
    for x in assem.settings:
        for a in OUTCOMES:
            mat = np.asarray(assem.members[(x, a)], dtype=complex)
            lines.append(f"member {x} {outcome_label(a)}")
            for row in mat:
                lines.append(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_assemblage(path: str) -> Assemblage:
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if lines[0] != "format assemblage-v1":
        raise ValueError(f"unrecognized assemblage file header {lines[0]!r}")
    settings = tuple(lines[1].split()[1:])
    members: dict[tuple[str, object], np.ndarray] = {}
    pos = 2
    while pos < len(lines):
        _, x, alabel = lines[pos].split()
        pos += 1
        mat = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            parts = lines[pos].split()
            pos += 1
            for j in range(2):
                mat[i, j] = float(parts[2 * j]) + 1.0j * float(parts[2 * j + 1])
        members[(x, parse_outcome(alabel))] = mat
    return Assemblage(members=members, settings=settings)


def save_counts(counts: TomographyCounts, path: str) -> None:
    """One row per (x, a, b, beta, count); totals are recomputed on load."""
    counts.validate()
    lines = [
        "format counts-v1",
        "settings " + " ".join(counts.settings),
        "bases " + " ".join(counts.bases),
        "columns x a b beta count",
    ]
    for x in counts.settings:
        for a in OUTCOMES:
            for b in counts.bases:
                for beta in (0, 1):
                    n = counts.count(x, a, b, beta)
                    lines.append(f"{x} {outcome_label(a)} {b} {beta} {n}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_counts(path: str) -> TomographyCounts:
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if lines[0] != "format counts-v1":
        raise ValueError(f"unrecognized counts file header {lines[0]!r}")
    settings = tuple(lines[1].split()[1:])
    bases = tuple(lines[2].split()[1:])
    entries: dict[tuple, int] = {}
    for line in lines[4:]:
        x, alabel, b, beta, n = line.split()
        entries[(x, parse_outcome(alabel), b, int(beta))] = int(n)
    return TomographyCounts.from_entries(entries, settings=settings, bases=bases)
