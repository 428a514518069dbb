"""Dense semidefinite programming for small block problems.

The solver is a self-contained primal-dual path-following interior-point
method (HKM search direction, Mehrotra predictor-corrector) specialised for
the tiny instances that show up in steering certification: a handful of
Hermitian 2x2 blocks and a few dozen equality constraints.  Complex Hermitian
blocks are handled through the real-symmetric embedding
``H -> [[Re H, -Im H], [Im H, Re H]]`` so the core iteration only ever sees
real symmetric matrices.

Problem form (user facing)::

    max / min   sum_k  Tr(C_k X_k)
    subject to  sum_k  Tr(A_jk X_k) = b_j     for each constraint j
                X_k >= 0                      (PSD, Hermitian)

Redundant equality rows are removed by a rank-revealing sweep before the
iteration starts; inconsistent rows are reported as infeasibility.  When the
main iteration cannot classify a failure, an explicit Phase-I feasibility
problem (added scalar slack block) decides between ``infeasible`` and
``numerical-failure``.

The iteration is batched.  Every block's constraint coefficients are
flattened once into one dense (m x sum D^2) row matrix, so ``A(X)`` and
``A^T y`` are single matrix-vector products, and same-size blocks are
stacked as (nb, D, D) arrays, so the Cholesky factorizations, ``S^-1``, the
Schur complement and the step length are one numpy call per stack, with no
Python loop over constraints.  With BLAS on one thread of a 2-vCPU VM, the
guessing-probability SDP of a fitted assemblage (36 rows, 18 blocks, 15
iterations) takes about 15 ms, against about 0.35 s for a per-constraint
loop.

Determinism: the solver uses no randomness; a fixed problem always produces
the same iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    assert_hermitian,
    from_real_embedding,
    hermitian_part,
    min_eigenvalue,
    real_embedding,
)

__all__ = [
    "SdpProblem",
    "SdpConstraint",
    "SdpSolution",
    "CertificateReport",
    "solve",
    "check_certificate",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "NUMERICAL_FAILURE",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical-failure"

# Solver settings.  The main iteration stops at GAP_TARGET/FEASIBILITY_TARGET
# and, failing that, accepts its best iterate within the *_ACCEPTABLE
# tolerances; Phase I accepts looser ones (see _phase1_feasible).
MAX_ITERATIONS = 200
GAP_TARGET = 1e-9
FEASIBILITY_TARGET = 1e-9
GAP_ACCEPTABLE = 1e-7
FEASIBILITY_ACCEPTABLE = 5e-8
STEP_FRACTION = 0.98
RANK_TOLERANCE = 1e-9


@dataclass
class SdpConstraint:
    """One equality constraint: sum_k Tr(coeffs[label] X_label) = rhs."""

    coeffs: dict[str, np.ndarray]
    rhs: float
    name: str = ""


@dataclass
class SdpProblem:
    """Block SDP with labelled PSD variables.

    ``blocks`` maps label -> dimension.  ``objective`` maps label -> Hermitian
    coefficient matrix (absent labels contribute nothing).  ``sense`` is
    ``"max"`` or ``"min"``.
    """

    blocks: dict[str, int]
    objective: dict[str, np.ndarray]
    constraints: list[SdpConstraint]
    sense: str = "max"

    def validate(self) -> None:
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown sense {self.sense!r}")
        for label, dim in self.blocks.items():
            if dim < 1:
                raise ValueError(f"block {label!r} has non-positive dimension")
        for label, mat in self.objective.items():
            self._check_coeff(label, mat, "objective")
        for j, con in enumerate(self.constraints):
            if not np.isfinite(con.rhs):
                raise ValueError(f"constraint {j} has non-finite rhs")
            for label, mat in con.coeffs.items():
                self._check_coeff(label, mat, f"constraint {j}")

    def _check_coeff(self, label: str, mat: np.ndarray, where: str) -> None:
        if label not in self.blocks:
            raise ValueError(f"{where} references unknown block {label!r}")
        dim = self.blocks[label]
        mat = np.asarray(mat)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"{where} coefficient for block {label!r} has shape {mat.shape}, "
                f"expected ({dim}, {dim})"
            )
        assert_hermitian(mat, name=f"{where} coefficient for {label!r}")


@dataclass
class SdpSolution:
    """Solver outcome.  ``gap``, ``pinf`` and ``dinf`` are the relative
    duality gap and the scaled primal and dual residuals of the returned
    iterate (NaN when the solver produced none)."""

    status: str
    primal_blocks: dict[str, np.ndarray]
    primal_value: float
    dual_value: float
    dual_multipliers: np.ndarray
    gap: float
    pinf: float
    dinf: float
    iterations: int
    message: str = ""


@dataclass
class CertificateReport:
    """Independent recomputation of solution quality from raw problem data."""

    constraint_violation: float
    primal_min_eigenvalue: float
    dual_min_eigenvalue: float
    primal_value: float
    dual_value: float
    gap: float
    feasible_primal: bool
    feasible_dual: bool
    gap_ok: bool

    @property
    def ok(self) -> bool:
        return self.feasible_primal and self.feasible_dual and self.gap_ok


# ---------------------------------------------------------------------------
# internal real-symmetric form


class _InternalProblem:
    """Real symmetric block problem in canonical min form."""

    def __init__(self, problem: SdpProblem):
        problem.validate()
        self.sense_sign = -1.0 if problem.sense == "max" else 1.0
        self.labels = list(problem.blocks.keys())
        self.embedded: dict[str, bool] = {}
        self.dims: list[int] = []
        self.m_orig = len(problem.constraints)
        self.b = np.array([con.rhs for con in problem.constraints], dtype=float)
        # per block: the objective and a (m, D*D) row block whose row j is the
        # row-major flatten of the block's coefficient in constraint j
        self.A: list[np.ndarray] = []
        self.C: list[np.ndarray] = []
        for label in self.labels:
            dim = problem.blocks[label]
            used = [j for j, con in enumerate(problem.constraints) if label in con.coeffs]
            obj = problem.objective.get(label)
            mats = np.array(
                [np.zeros((dim, dim)) if obj is None else obj]
                + [problem.constraints[j].coeffs[label] for j in used],
                dtype=complex,
            )
            is_complex = bool(np.max(np.abs(mats.imag)) > 0.0)
            mats = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
            mats = 0.5 * real_embedding(mats) if is_complex else mats.real
            d = mats.shape[-1]
            rows = np.zeros((self.m_orig, d * d))
            rows[used] = mats[1:].reshape(len(used), d * d)
            self.embedded[label] = is_complex
            self.dims.append(d)
            self.A.append(rows)
            self.C.append(self.sense_sign * mats[0])

    def recover_block(self, k: int, x_int: np.ndarray) -> np.ndarray:
        label = self.labels[k]
        if self.embedded[label]:
            return from_real_embedding(x_int)
        return 0.5 * (x_int + x_int.T)


def _select_rows(rows: np.ndarray, rank_tol: float) -> tuple[list[int], list[int]]:
    """Greedy rank-revealing row selection (largest remaining norm first).

    Rows are flattened symmetric coefficients, whose dot products are the
    trace inner products of the matrices.
    """
    m = rows.shape[0]
    work = rows.astype(float)
    scale = max(1.0, float(np.max(np.abs(rows)))) if rows.size else 1.0
    threshold = rank_tol * scale
    kept: list[int] = []
    alive = list(range(m))
    while alive:
        norms = np.linalg.norm(work[alive], axis=1)
        best = int(np.argmax(norms))
        if norms[best] <= threshold:
            break
        i = alive.pop(best)
        kept.append(i)
        q = work[i] / np.linalg.norm(work[i])
        work[alive] -= np.outer(work[alive] @ q, q)
    dropped = [i for i in range(m) if i not in kept]
    return kept, dropped


def _stacks(vec: np.ndarray, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Views of a flat vector as (nb, D, D) stacks of same-size blocks."""
    out, lo = [], 0
    for nb, d in shapes:
        out.append(vec[lo:lo + nb * d * d].reshape(nb, d, d))
        lo += nb * d * d
    return out


def _flat(stacks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([s.ravel() for s in stacks])


def _identity(shapes: list[tuple[int, int]]) -> np.ndarray:
    return _flat([np.broadcast_to(np.eye(d), (nb, d, d)) for nb, d in shapes])


def _sym(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + stack.swapaxes(-1, -2))


def _max_step(chols: list[np.ndarray], directions: list[np.ndarray]) -> float:
    """Largest alpha (capped at 1e8) keeping every block + alpha*direction PSD.

    ``chols`` are the Cholesky factors of the (positive definite) blocks.
    """
    lam = min(
        float(np.linalg.eigvalsh(_sym(np.linalg.solve(
            chol, np.linalg.solve(chol, d).swapaxes(-1, -2))))[:, 0].min())
        for chol, d in zip(chols, directions)
    )
    if lam >= -1e-14:
        return 1e8
    return min(1e8, -1.0 / lam)


def _try_cholesky(mat: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


# ---------------------------------------------------------------------------
# core iteration


def _ipm(
    rows: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    shapes: list[tuple[int, int]],
    *,
    gap_acceptable: float = GAP_ACCEPTABLE,
    feasibility_acceptable: float = FEASIBILITY_ACCEPTABLE,
) -> dict:
    """Minimize c @ x over PSD blocks subject to rows @ x = b.

    ``x`` is the concatenated row-major flatten of the blocks, laid out as
    the (nb, D, D) stacks listed in ``shapes``; every per-block operation is
    one batched call per stack.  All blocks are real symmetric; ``rows``
    must be linearly independent.  Returns the best iterate found (flat
    ``x`` and ``y``) and its quality numbers; a best iterate within the
    acceptable tolerances counts as optimal.
    """
    m = b.size
    n_total = sum(nb * d for nb, d in shapes)
    offsets = np.cumsum([0] + [nb * d * d for nb, d in shapes])
    # per-stack constraint coefficients, (m, nb, D, D), and their flat rows
    A = [np.ascontiguousarray(rows[:, lo:hi]).reshape(m, nb, d, d)
         for lo, hi, (nb, d) in zip(offsets[:-1], offsets[1:], shapes)]
    A_rows = [a.reshape(m, -1) for a in A]
    scale_b = 1.0 + float(np.max(np.abs(b))) if m else 1.0
    scale_c = 1.0 + float(np.max(np.abs(c)))

    xi = 10.0 * max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    eta = 10.0 * max(1.0, float(np.max(np.abs(c))),
                     float(np.max(np.abs(rows))) if rows.size else 0.0)
    eye = _identity(shapes)
    # iterates are rebound, never updated in place, so the best one is kept
    # by reference
    x = xi * eye
    s = eta * eye
    y = np.zeros(m)

    best: dict = {"score": np.inf}
    stall = 0
    status = NUMERICAL_FAILURE
    message = "max iterations reached"
    it = 0

    for it in range(1, MAX_ITERATIONS + 1):
        pres = b - rows @ x
        rd = c - y @ rows - s
        mu = float(x @ s) / n_total
        pobj = float(c @ x)
        dobj = float(b @ y)
        pinf = float(np.max(np.abs(pres))) / scale_b if m else 0.0
        dinf = float(np.max(np.abs(rd))) / scale_c
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj))
        score = max(pinf, dinf, relgap)
        if score < best["score"]:
            best = {"score": score, "x": x, "y": y, "pobj": pobj, "dobj": dobj,
                    "pinf": pinf, "dinf": dinf, "relgap": relgap}
            stall = 0
        else:
            stall += 1

        if (
            pinf <= FEASIBILITY_TARGET
            and dinf <= FEASIBILITY_TARGET
            and relgap <= GAP_TARGET
        ):
            status, message = OPTIMAL, "converged to target tolerance"
            break
        if pinf <= feasibility_acceptable and pobj < -1e10 * scale_c:
            status, message = UNBOUNDED, "objective diverging with feasible iterate"
            break
        if mu < 1e-17 or stall > 40:
            message = "progress stalled"
            break

        # factorizations for this iterate
        X, S, Rd = _stacks(x, shapes), _stacks(s, shapes), _stacks(rd, shapes)
        try:
            chol_s = [np.linalg.cholesky(sk) for sk in S]
            chol_x = [np.linalg.cholesky(xk) for xk in X]
        except np.linalg.LinAlgError:
            message = "slack or primal block lost positive definiteness"
            break
        Sinv = []
        for chol in chol_s:
            inv = np.linalg.inv(chol)
            Sinv.append(inv.swapaxes(-1, -2) @ inv)

        # Schur complement M_ij = sum_k Tr(A_ik X_k A_jk S_k^-1); the rows
        # are symmetric, so the trace is a dot product of flattens
        M = sum(a_rows @ (xk @ a @ sinv).reshape(m, -1).T
                for a, a_rows, xk, sinv in zip(A, A_rows, X, Sinv))
        M = 0.5 * (M + M.T)
        jitter = 0.0
        cholM = _try_cholesky(M)
        while cholM is None and jitter < 1e-6:
            jitter = max(jitter * 10.0, 1e-14) * (1.0 + float(np.max(np.abs(M))))
            cholM = _try_cholesky(M + jitter * np.eye(m))
        if cholM is None:
            message = "Schur complement factorization failed"
            break
        Mj = M + jitter * np.eye(m) if jitter else M

        def solve_schur(rhs: np.ndarray) -> np.ndarray:
            sol = np.linalg.solve(Mj, rhs)
            if not np.all(np.isfinite(sol)):
                return sol
            correction = np.linalg.solve(Mj, rhs - Mj @ sol)  # one refinement pass
            if np.all(np.isfinite(correction)):
                sol = sol + correction
            return sol

        def directions(sigma_mu: float, Ecorr: list[np.ndarray] | None):
            G = []
            for k, (xk, sinv) in enumerate(zip(X, Sinv)):
                g = -xk - xk @ Rd[k] @ sinv
                if sigma_mu:
                    g = g + sigma_mu * sinv
                if Ecorr is not None:
                    g = g - Ecorr[k] @ sinv
                G.append(g)
            dy = solve_schur(pres - rows @ _flat(G))
            adj = dy @ rows
            dX = [_sym(g + xk @ ak @ sinv)
                  for g, xk, ak, sinv in zip(G, X, _stacks(adj, shapes), Sinv)]
            return dX, dy, rd - adj

        dXp, dyp, dsp = directions(0.0, None)
        dxp = _flat(dXp)
        if not all(np.all(np.isfinite(v)) for v in (dxp, dyp, dsp)):
            message = "search direction is not finite"
            break
        dSp = _stacks(dsp, shapes)
        alpha_p = min(1.0, _max_step(chol_x, dXp))
        alpha_d = min(1.0, _max_step(chol_s, dSp))
        mu_aff = float((x + alpha_p * dxp) @ (s + alpha_d * dsp)) / n_total
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 0.999))

        Ecorr = [dxk @ dsk for dxk, dsk in zip(dXp, dSp)]
        dX, dy, ds = directions(sigma * mu, Ecorr)
        dx = _flat(dX)
        if not all(np.all(np.isfinite(v)) for v in (dx, dy, ds)):
            message = "search direction is not finite"
            break

        gamma = STEP_FRACTION if mu > 1e-7 else 0.99
        alpha_p = min(1.0, gamma * _max_step(chol_x, dX))
        alpha_d = min(1.0, gamma * _max_step(chol_s, _stacks(ds, shapes)))
        x = _flat([_sym(v) for v in _stacks(x + alpha_p * dx, shapes)])
        s = _flat([_sym(v) for v in _stacks(s + alpha_d * ds, shapes)])
        y = y + alpha_d * dy

    result = dict(best)
    result["status"] = status
    result["message"] = message
    result["iterations"] = it
    if status != OPTIMAL and "pinf" in best:
        if (
            best["pinf"] <= feasibility_acceptable
            and best["dinf"] <= feasibility_acceptable
            and best["relgap"] <= gap_acceptable
        ):
            result["status"] = OPTIMAL
            result["message"] = "converged within acceptable tolerance"
    return result


# ---------------------------------------------------------------------------
# public entry points


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve a block SDP; never raises on solver trouble, reports a status."""
    internal = _InternalProblem(problem)
    nblocks = len(internal.labels)
    m = internal.m_orig

    # split blocks into constrained ones and ones no constraint touches
    touched = [bool(np.max(np.abs(internal.A[k])) > 0.0) if m else False
               for k in range(nblocks)]
    for k in range(nblocks):
        if touched[k]:
            continue
        lam = float(np.linalg.eigvalsh(internal.C[k])[0]) if internal.C[k].size else 0.0
        if lam < -1e-12:
            # min <C, X> over X >= 0 with no constraints: unbounded below
            return _finish(problem, internal, None, UNBOUNDED,
                           f"block {internal.labels[k]!r} is unconstrained with "
                           "indefinite objective", 0)

    # constrained blocks grouped into same-size stacks, in first-seen order
    groups: dict[int, list[int]] = {}
    for k in range(nblocks):
        if touched[k]:
            groups.setdefault(internal.dims[k], []).append(k)
    order = [k for ks in groups.values() for k in ks]
    shapes = [(len(ks), d) for d, ks in groups.items()]

    rows = (np.hstack([internal.A[k] for k in order]) if order
            else np.zeros((m, 0)))
    kept, dropped = (_select_rows(rows, RANK_TOLERANCE) if m else ([], []))

    # consistency of redundant rows
    if dropped:
        if kept:
            coeff, *_ = np.linalg.lstsq(rows[kept].T, rows[dropped].T, rcond=None)
            predicted = coeff.T @ internal.b[kept]
        else:
            predicted = np.zeros(len(dropped))
        residual = np.abs(internal.b[dropped] - predicted)
        bad = np.flatnonzero(residual > 1e-7 * (1.0 + np.max(np.abs(internal.b))))
        if bad.size:
            return _finish(
                problem, internal, None, INFEASIBLE,
                f"constraint {dropped[bad[0]]} is inconsistent with the others", 0)

    if not order:
        # nothing to optimize: X = 0 everywhere is optimal
        sol = {"x": np.zeros(0), "y": np.zeros(0), "pobj": 0.0,
               "dobj": 0.0, "pinf": 0.0, "dinf": 0.0, "relgap": 0.0}
        return _finish(problem, internal, sol, OPTIMAL, "trivial problem", 0,
                       order=order, shapes=shapes, kept=kept)

    rows_red = rows[kept]
    b_red = internal.b[kept]
    c = np.concatenate([internal.C[k].ravel() for k in order])

    result = _ipm(rows_red, b_red, c, shapes)
    status = result["status"]
    message = result["message"]

    if status != OPTIMAL and status != UNBOUNDED:
        feasible = _phase1_feasible(rows_red, b_red, shapes)
        if feasible is False:
            status, message = INFEASIBLE, "Phase-I slack stays positive"
        elif feasible is True:
            status = NUMERICAL_FAILURE
            message = f"feasible but not converged: {message}"

    return _finish(problem, internal, result, status, message, result["iterations"],
                   order=order, shapes=shapes, kept=kept)


def _phase1_feasible(
    rows: np.ndarray, b: np.ndarray, shapes: list[tuple[int, int]],
) -> bool | None:
    """Explicit Phase I: min t subject to A(X) + t*(b - A(I)) = b, X, t >= 0."""
    eye = _identity(shapes)
    r0 = b - rows @ eye
    rows_phase = np.hstack([rows, r0[:, None]])
    c_phase = np.zeros(eye.size + 1)
    c_phase[-1] = 1.0
    result = _ipm(rows_phase, b, c_phase, shapes + [(1, 1)],
                  gap_acceptable=1e-6, feasibility_acceptable=1e-7)
    if result["status"] != OPTIMAL:
        return None
    slack = result["pobj"]
    return bool(slack <= 1e-6 * (1.0 + float(np.max(np.abs(b)))))


def _finish(
    problem: SdpProblem,
    internal: _InternalProblem,
    result: dict | None,
    status: str,
    message: str,
    iterations: int,
    *,
    order: list[int] | None = None,
    shapes: list[tuple[int, int]] | None = None,
    kept: list[int] | None = None,
) -> SdpSolution:
    sense_sign = internal.sense_sign
    blocks_out: dict[str, np.ndarray] = {}
    y_user = np.zeros(internal.m_orig)
    pval = dval = gap = pinf = dinf = np.nan

    if result is not None and "x" in result and order is not None:
        x_internal = [np.zeros((d, d)) for d in internal.dims]
        solved_blocks = (xk for stack in _stacks(result["x"], shapes) for xk in stack)
        for k, xk in zip(order, solved_blocks):
            x_internal[k] = xk
        for k, label in enumerate(internal.labels):
            blocks_out[label] = internal.recover_block(k, x_internal[k])
        y_int = np.zeros(internal.m_orig)
        if kept:
            y_int[np.asarray(kept, dtype=int)] = result["y"]
        y_user = sense_sign * y_int
        pval = sense_sign * result["pobj"]
        dval = sense_sign * result["dobj"]
        gap, pinf, dinf = result["relgap"], result["pinf"], result["dinf"]
    else:
        for label, dim in problem.blocks.items():
            is_complex = internal.embedded[label]
            blocks_out[label] = np.zeros((dim, dim), dtype=complex if is_complex else float)

    return SdpSolution(
        status=status,
        primal_blocks=blocks_out,
        primal_value=float(pval),
        dual_value=float(dval),
        dual_multipliers=y_user,
        gap=float(gap),
        pinf=float(pinf),
        dinf=float(dinf),
        iterations=iterations,
        message=message,
    )


def check_certificate(
    problem: SdpProblem,
    solution: SdpSolution,
    *,
    feasibility_tol: float = 1e-7,
    eigenvalue_tol: float = -1e-7,
    gap_tol: float = 1e-6,
) -> CertificateReport:
    """Re-derive solution quality from scratch with plain matrix arithmetic.

    Uses only the raw problem data and the returned blocks/multipliers, no
    solver internals, so it doubles as an independent certificate check.
    """
    problem.validate()
    viol = 0.0
    for con in problem.constraints:
        lhs = 0.0
        for label, coeff in con.coeffs.items():
            lhs += float(np.real(np.trace(np.asarray(coeff).conj().T
                                          @ solution.primal_blocks[label])))
        viol = max(viol, abs(lhs - con.rhs))

    min_eig_primal = min(
        (min_eigenvalue(hermitian_part(np.asarray(x, dtype=complex)))
         for x in solution.primal_blocks.values()),
        default=0.0,
    )

    sign = 1.0 if problem.sense == "max" else -1.0
    slacks = {label: np.zeros((dim, dim), dtype=complex)
              for label, dim in problem.blocks.items()}
    for label, mat in problem.objective.items():
        slacks[label] -= sign * np.asarray(mat, dtype=complex)
    for j, con in enumerate(problem.constraints):
        for label, coeff in con.coeffs.items():
            slacks[label] += sign * solution.dual_multipliers[j] * np.asarray(coeff, dtype=complex)
    min_eig_dual = min(
        (min_eigenvalue(hermitian_part(s)) for s in slacks.values()), default=0.0
    )

    pval = 0.0
    for label, mat in problem.objective.items():
        pval += float(np.real(np.trace(np.asarray(mat).conj().T
                                       @ solution.primal_blocks[label])))
    dval = float(np.array([c.rhs for c in problem.constraints])
                 @ solution.dual_multipliers) if problem.constraints else 0.0
    gap = abs(pval - dval) / (1.0 + abs(pval))

    return CertificateReport(
        constraint_violation=viol,
        primal_min_eigenvalue=min_eig_primal,
        dual_min_eigenvalue=min_eig_dual,
        primal_value=pval,
        dual_value=dval,
        gap=gap,
        feasible_primal=viol <= feasibility_tol and min_eig_primal >= eigenvalue_tol,
        feasible_dual=min_eig_dual >= eigenvalue_tol,
        gap_ok=gap <= gap_tol,
    )
