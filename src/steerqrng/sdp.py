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

The iteration is batched twice over.  Every block's constraint coefficients
are flattened once into one dense (m x sum D^2) row matrix, so ``A(X)`` and
``A^T y`` are single matrix-vector products, and same-size blocks are
stacked as (nb, D, D) arrays, with no Python loop over constraints.  On top
of that every array carries a leading problem axis: ``solve_many`` advances
up to ``GROUP_SIZE`` problems of one structure (stack shapes and kept rows)
in lockstep, so the Cholesky factorizations, ``S^-1``, the Schur complement
(one Kronecker product per block) and the step length are one numpy call
per stack for the whole group.  Each problem keeps its own scales, step
lengths, best iterate and stopping rule and leaves the group when it stops,
so its result does not depend on the other problems; ``solve`` is
``solve_many`` of one problem.  With BLAS on one thread of a 2-vCPU VM, the
guessing-probability SDP of a fitted assemblage (36 rows, 18 blocks, 14-15
iterations) takes 15-20 ms of CPU alone, setup included, and 9-11 ms per
problem in groups of 10, against about 0.35 s for a per-constraint loop.

Determinism: the solver uses no randomness; a fixed problem always produces
the same iterates.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
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
    "solve_many",
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
# solve_many advances same-structure problems in lockstep groups of at most
# this many; the group size sets the iteration's working set
GROUP_SIZE = 10


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
        coeffs = [("objective", label, mat) for label, mat in self.objective.items()]
        for j, con in enumerate(self.constraints):
            if not np.isfinite(con.rhs):
                raise ValueError(f"constraint {j} has non-finite rhs")
            coeffs += [(f"constraint {j}", label, mat) for label, mat in con.coeffs.items()]
        # shapes one coefficient at a time, Hermiticity in one batch per size
        by_dim: dict[int, list[tuple]] = {}
        for where, label, mat in coeffs:
            if label not in self.blocks:
                raise ValueError(f"{where} references unknown block {label!r}")
            dim = self.blocks[label]
            if np.shape(mat) != (dim, dim):
                raise ValueError(
                    f"{where} coefficient for block {label!r} has shape "
                    f"{np.shape(mat)}, expected ({dim}, {dim})"
                )
            by_dim.setdefault(dim, []).append((where, label, mat))
        for entries in by_dim.values():
            stack = np.array([mat for _, _, mat in entries], dtype=complex)
            dev = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(1, 2))
            bad = np.flatnonzero(dev > HERMITIAN_TOL)
            if bad.size:
                where, label, _ = entries[bad[0]]
                raise ValueError(
                    f"{where} coefficient for {label!r} is not Hermitian: "
                    f"max deviation {dev[bad[0]]:.3e} > {HERMITIAN_TOL:.1e}"
                )


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
        self.block_dims = list(problem.blocks.values())
        self.m_orig = len(problem.constraints)
        self.b = np.array([con.rhs for con in problem.constraints], dtype=float)
        # per block: the objective and a (m, D*D) row block whose row j is the
        # row-major flatten of the block's coefficient in constraint j; the
        # coefficients are gathered in one pass over the constraints
        index = {label: k for k, label in enumerate(self.labels)}
        used: list[list[int]] = [[] for _ in self.labels]
        coeffs: list[list] = [[problem.objective.get(label, np.zeros((dim, dim)))]
                              for label, dim in problem.blocks.items()]
        for j, con in enumerate(problem.constraints):
            for label, mat in con.coeffs.items():
                used[index[label]].append(j)
                coeffs[index[label]].append(mat)
        self.embedded: dict[str, bool] = {}
        self.dims: list[int] = []
        self.A: list[np.ndarray] = []
        self.C: list[np.ndarray] = []
        for label, rows_used, mats in zip(self.labels, used, coeffs):
            mats = np.array(mats, dtype=complex)
            is_complex = bool(np.max(np.abs(mats.imag)) > 0.0)
            mats = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
            mats = 0.5 * real_embedding(mats) if is_complex else mats.real
            d = mats.shape[-1]
            rows = np.zeros((self.m_orig, d * d))
            rows[rows_used] = mats[1:].reshape(len(rows_used), d * d)
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
    scale = max(1.0, float(np.max(np.abs(rows)))) if rows.size else 1.0
    threshold = rank_tol * scale
    kept: list[int] = []
    alive = list(range(m))
    work = rows.astype(float)  # the rows in ``alive``, orthogonalized against the kept ones
    while alive:
        norms = np.sqrt(np.add.reduce(work * work, axis=1))
        best = int(np.argmax(norms))
        if norms[best] <= threshold:
            break
        kept.append(alive.pop(best))
        q = work[best] / np.sqrt(work[best] @ work[best])
        work = np.delete(work, best, axis=0)
        work -= np.outer(work @ q, q)
    dropped = [i for i in range(m) if i not in kept]
    return kept, dropped


def _stacks(vec: np.ndarray, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Views of (P, n) flat vectors as (P, nb, D, D) stacks of same-size blocks."""
    out, lo = [], 0
    for nb, d in shapes:
        out.append(vec[:, lo:lo + nb * d * d].reshape(-1, nb, d, d))
        lo += nb * d * d
    return out


def _flat(stacks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([s.reshape(len(s), -1) for s in stacks], axis=1)


def _identity(shapes: list[tuple[int, int]]) -> np.ndarray:
    return np.concatenate([np.broadcast_to(np.eye(d), (nb, d, d)).ravel()
                           for nb, d in shapes])


def _sym(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + stack.swapaxes(-1, -2))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (P, n) arrays."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _matvec(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rows[p] @ v[p] for (P, m, n) rows and (P, n) vectors."""
    return (rows @ v[:, :, None])[:, :, 0]


def _rmatvec(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """w[p] @ rows[p] for (P, m) vectors and (P, m, n) rows."""
    return (w[:, None, :] @ rows)[:, 0, :]


def _max_steps(linv_x: list[np.ndarray], linv_s: list[np.ndarray],
               dX: list[np.ndarray], dS: list[np.ndarray]) -> np.ndarray:
    """(2, P) largest primal and dual alphas (capped at 1e8) keeping every
    block + alpha*direction PSD, in one eigenvalue call per stack.

    ``linv_x`` and ``linv_s`` are the inverses of the blocks' Cholesky
    factors L, so a block stays PSD while I + alpha L^-1 D L^-T does.
    """
    lam = np.min([
        np.linalg.eigvalsh(_sym(li @ d @ li.swapaxes(-1, -2)))[..., 0].min(axis=-1)
        for li, d in zip(map(np.concatenate, zip(linv_x, linv_s)),
                         map(np.concatenate, zip(dX, dS)))], axis=0)
    step = np.full(lam.shape, 1e8)
    np.divide(-1.0, lam, out=step, where=lam < -1e-14)
    return np.minimum(step, 1e8).reshape(2, -1)


def _try_cholesky(mat: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _cholesky(stacks: list[np.ndarray]) -> tuple[list[np.ndarray] | None, np.ndarray]:
    """Cholesky factors of every (P, ...) stack, and per problem whether all
    its blocks are positive definite; the factors are None unless all
    problems' are."""
    try:
        return [np.linalg.cholesky(a) for a in stacks], np.ones(len(stacks[0]), dtype=bool)
    except np.linalg.LinAlgError:
        return None, np.array([all(_try_cholesky(a[p]) is not None for a in stacks)
                               for p in range(len(stacks[0]))])


def _schur_complement(R: list[np.ndarray], AT: list[np.ndarray], X: list[np.ndarray],
                      Sinv: list[np.ndarray]) -> np.ndarray:
    """M_ij = sum_k Tr(A_ik X_k A_jk S_k^-1) per problem.

    With row-major flattens of the symmetric A this is
    vec(A_ik) . kron(S_k^-1, X_k) vec(A_jk): one (D^2, D^2) matrix per
    block, not one product per block and row.  ``R`` holds each stack's
    rows, (P, m, nb*D*D), and ``AT`` the same coefficients as
    (P, nb, D*D, m).
    """
    M = 0
    for r, at, xk, sinv in zip(R, AT, X, Sinv):
        P, nb, d = xk.shape[:3]
        kron = (sinv[..., :, None, :, None] * xk[..., None, :, None, :]).reshape(
            P, nb, d * d, d * d)
        M = M + r @ (kron @ at).reshape(P, nb * d * d, -1)
    return 0.5 * (M + M.swapaxes(-1, -2))


def _schur_jitter(M: np.ndarray) -> np.ndarray:
    """Per problem, the diagonal shift with which the Schur complement
    factors: 0 when it factors as it is, NaN when no shift up to about 1e-6
    relative helps."""
    jitters = np.zeros(len(M))
    if _try_cholesky(M) is not None:
        return jitters
    for p, mp in enumerate(M):
        jitter = 0.0
        chol = _try_cholesky(mp)
        while chol is None and jitter < 1e-6:
            jitter = max(jitter * 10.0, 1e-14) * (1.0 + float(np.max(np.abs(mp))))
            chol = _try_cholesky(mp + jitter * np.eye(len(mp)))
        jitters[p] = np.nan if chol is None else jitter
    return jitters


def _solve_schur(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M[p] dy = rhs[p], with one refinement pass wherever it stays finite."""
    sol = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    fin = np.isfinite(sol).all(axis=1)
    if fin.all():
        correction = np.linalg.solve(M, (rhs - _matvec(M, sol))[:, :, None])[:, :, 0]
    else:
        correction = np.zeros_like(sol)
        correction[fin] = np.linalg.solve(
            M[fin], (rhs[fin] - _matvec(M[fin], sol[fin]))[:, :, None])[:, :, 0]
    good = np.isfinite(correction).all(axis=1)
    return np.where(good[:, None], sol + correction, sol)


def _finite(*arrays: np.ndarray) -> np.ndarray:
    """Per problem, whether every entry of the (P, ...) arrays is finite."""
    return np.logical_and.reduce(
        [np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in arrays])


# ---------------------------------------------------------------------------
# core iteration


class _Group:
    """The problems of a lockstep group that are still iterating.

    Every array attribute, and every array in a list attribute, has the
    problem axis first, so ``keep`` can drop the problems that stop.
    """

    def keep(self, mask: np.ndarray) -> None:
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray):
                setattr(self, name, value[mask])
            elif isinstance(value, list):
                setattr(self, name, [v[mask] for v in value])


def _ipm(
    rows: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    shapes: list[tuple[int, int]],
    *,
    gap_acceptable: float = GAP_ACCEPTABLE,
    feasibility_acceptable: float = FEASIBILITY_ACCEPTABLE,
) -> list[dict]:
    """Minimize c[p] @ x over PSD blocks subject to rows[p] @ x = b[p], for
    every problem p of a lockstep group.

    The P problems share their block structure: ``rows`` is (P, m, n), ``b``
    is (P, m) and ``c`` is (P, n).  ``x`` is the concatenated row-major
    flatten of the blocks, laid out as the (nb, D, D) stacks listed in
    ``shapes``, so every per-block operation is one batched call per stack
    for the whole group.  All blocks are real symmetric; the rows of each
    problem must be linearly independent.

    Each problem keeps its own scales, step lengths, centring, best iterate,
    stall count, Schur jitter and stopping rule, and leaves the group when
    it stops.  No number of one problem depends on another, so a problem's
    iterates are the same in any group.  Returns, per problem, the best
    iterate found (flat ``x`` and ``y``) and its quality numbers; a best
    iterate within the acceptable tolerances counts as optimal.
    """
    P, m = b.shape
    n_total = sum(nb * d for nb, d in shapes)
    g = _Group()
    g.live = np.arange(P)
    g.rows, g.b, g.c = rows, b, c
    # per stack, its columns of the rows and a transposed copy of them, for
    # the Schur complement
    g.R, g.AT, lo = [], [], 0
    for nb, d in shapes:
        r = np.ascontiguousarray(rows[:, :, lo:lo + nb * d * d])
        g.R.append(r)
        g.AT.append(np.ascontiguousarray(r.reshape(P, m, nb, d * d).transpose(0, 2, 3, 1)))
        lo += nb * d * d
    b_max = np.abs(b).max(axis=1, initial=0.0)
    c_max = np.abs(c).max(axis=1, initial=0.0)
    g.scale_b = 1.0 + b_max
    g.scale_c = 1.0 + c_max
    xi = 10.0 * np.maximum(1.0, b_max)
    eta = 10.0 * np.maximum(np.maximum(1.0, c_max),
                            np.abs(rows).max(axis=(1, 2), initial=0.0))
    eye = _identity(shapes)
    g.x = xi[:, None] * eye
    g.s = eta[:, None] * eye
    g.y = np.zeros((P, m))
    g.stall = np.zeros(P, dtype=int)
    g.best_score = np.full(P, np.inf)
    g.best_x, g.best_y = g.x, g.y
    g.best = np.zeros((P, 5))  # pobj, dobj, pinf, dinf, relgap of the best iterate

    results: list[dict] = [{}] * P
    it = 0

    def leave(*outcomes: tuple[np.ndarray, str, str]) -> bool:
        """Record the problems of each (disjoint) mask with its status and
        message, drop them, and tell whether any problem is left."""
        stopped = np.any([mask for mask, _, _ in outcomes], axis=0)
        if not stopped.any():
            return True
        for mask, status, message in outcomes:
            for j in np.flatnonzero(mask):
                result = {"status": status, "message": message, "iterations": it}
                if np.isfinite(g.best_score[j]):
                    pobj, dobj, pinf, dinf, relgap = (float(v) for v in g.best[j])
                    result.update(x=g.best_x[j], y=g.best_y[j], pobj=pobj, dobj=dobj,
                                  pinf=pinf, dinf=dinf, relgap=relgap)
                    if (
                        status != OPTIMAL
                        and pinf <= feasibility_acceptable
                        and dinf <= feasibility_acceptable
                        and relgap <= gap_acceptable
                    ):
                        result["status"] = OPTIMAL
                        result["message"] = "converged within acceptable tolerance"
                results[g.live[j]] = result
        g.keep(~stopped)
        return bool(g.live.size)

    def directions(sigma_mu: np.ndarray | None, Ecorr: list[np.ndarray] | None):
        """Search direction of every live problem, from the factorizations
        of this iteration; the corrector adds the centring and second-order
        terms."""
        X, Rd = _stacks(g.x, shapes), _stacks(g.rd, shapes)
        G = []
        for k, (xk, sinv) in enumerate(zip(X, g.Sinv)):
            gk = -xk - xk @ Rd[k] @ sinv
            if sigma_mu is not None:
                gk = gk + sigma_mu[:, None, None, None] * sinv
            if Ecorr is not None:
                gk = gk - Ecorr[k] @ sinv
            G.append(gk)
        dy = _solve_schur(g.M, g.pres - _matvec(g.rows, _flat(G)))
        adj = _rmatvec(dy, g.rows)
        dX = [_sym(gk + xk @ ak @ sinv)
              for gk, xk, ak, sinv in zip(G, X, _stacks(adj, shapes), g.Sinv)]
        return _flat(dX), dy, g.rd - adj

    for it in range(1, MAX_ITERATIONS + 1):
        g.pres = g.b - _matvec(g.rows, g.x)
        g.rd = g.c - _rmatvec(g.y, g.rows) - g.s
        g.mu = _dot(g.x, g.s) / n_total
        pobj = _dot(g.c, g.x)
        dobj = _dot(g.b, g.y)
        pinf = np.abs(g.pres).max(axis=1, initial=0.0) / g.scale_b
        dinf = np.abs(g.rd).max(axis=1) / g.scale_c
        relgap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj))
        score = np.maximum(np.maximum(pinf, dinf), relgap)
        improved = score < g.best_score
        g.best_score = np.where(improved, score, g.best_score)
        g.best_x = np.where(improved[:, None], g.x, g.best_x)
        g.best_y = np.where(improved[:, None], g.y, g.best_y)
        g.best = np.where(improved[:, None],
                          np.stack([pobj, dobj, pinf, dinf, relgap], axis=1), g.best)
        g.stall = np.where(improved, 0, g.stall + 1)

        optimal = ((pinf <= FEASIBILITY_TARGET) & (dinf <= FEASIBILITY_TARGET)
                   & (relgap <= GAP_TARGET))
        unbounded = ~optimal & (pinf <= feasibility_acceptable) & (pobj < -1e10 * g.scale_c)
        stalled = ~optimal & ~unbounded & ((g.mu < 1e-17) | (g.stall > 40))
        if not leave((optimal, OPTIMAL, "converged to target tolerance"),
                     (unbounded, UNBOUNDED, "objective diverging with feasible iterate"),
                     (stalled, NUMERICAL_FAILURE, "progress stalled")):
            break

        # factorizations for this iterate
        chol, definite = _cholesky(_stacks(g.x, shapes) + _stacks(g.s, shapes))
        if chol is None:
            if not leave((~definite, NUMERICAL_FAILURE,
                          "slack or primal block lost positive definiteness")):
                break
            chol = [np.linalg.cholesky(a)
                    for a in _stacks(g.x, shapes) + _stacks(g.s, shapes)]
        linv = [np.linalg.inv(factor) for factor in chol]
        g.linv_x, g.linv_s = linv[:len(shapes)], linv[len(shapes):]
        g.Sinv = [li.swapaxes(-1, -2) @ li for li in g.linv_s]

        M = _schur_complement(g.R, g.AT, _stacks(g.x, shapes), g.Sinv)
        jitter = _schur_jitter(M)
        shifted = jitter > 0.0
        if shifted.any():
            M[shifted] += jitter[shifted, None, None] * np.eye(m)
        g.M = M
        if not leave((np.isnan(jitter), NUMERICAL_FAILURE,
                      "Schur complement factorization failed")):
            break

        g.dxp, g.dyp, g.dsp = directions(None, None)
        if not leave((~_finite(g.dxp, g.dyp, g.dsp), NUMERICAL_FAILURE,
                      "search direction is not finite")):
            break
        dXp, dSp = _stacks(g.dxp, shapes), _stacks(g.dsp, shapes)
        alpha_p, alpha_d = np.minimum(1.0, _max_steps(g.linv_x, g.linv_s, dXp, dSp))
        mu_aff = _dot(g.x + alpha_p[:, None] * g.dxp, g.s + alpha_d[:, None] * g.dsp) / n_total
        sigma = np.clip((np.maximum(mu_aff, 0.0) / g.mu) ** 3, 1e-8, 0.999)

        g.dx, g.dy, g.ds = directions(sigma * g.mu, [dxk @ dsk for dxk, dsk in zip(dXp, dSp)])
        if not leave((~_finite(g.dx, g.dy, g.ds), NUMERICAL_FAILURE,
                      "search direction is not finite")):
            break

        gamma = np.where(g.mu > 1e-7, STEP_FRACTION, 0.99)
        alpha_p, alpha_d = np.minimum(1.0, gamma * _max_steps(
            g.linv_x, g.linv_s, _stacks(g.dx, shapes), _stacks(g.ds, shapes)))
        g.x = _flat([_sym(v) for v in _stacks(g.x + alpha_p[:, None] * g.dx, shapes)])
        g.s = _flat([_sym(v) for v in _stacks(g.s + alpha_d[:, None] * g.ds, shapes)])
        g.y = g.y + alpha_d[:, None] * g.dy
    else:
        leave((np.ones(len(g.live), dtype=bool), NUMERICAL_FAILURE, "max iterations reached"))
    return results


# ---------------------------------------------------------------------------
# public entry points


@dataclass
class _Reduced:
    """A problem ready for the iteration: its constrained blocks in stack
    order and its linearly independent rows."""

    order: list[int]
    shapes: list[tuple[int, int]]
    kept: list[int]
    rows: np.ndarray
    b: np.ndarray
    c: np.ndarray


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve a block SDP; never raises on solver trouble, reports a status."""
    return solve_many([problem])[0]


def solve_many(problems: Iterable[SdpProblem]) -> list[SdpSolution]:
    """Solve block SDPs; one solution per problem, in order.

    Each problem is validated and reduced on its own (unconstrained blocks,
    redundant and inconsistent rows).  Problems with the same stack shapes
    and number of kept rows then iterate in lockstep groups of at most
    ``GROUP_SIZE``, and the ones the main iteration cannot classify go
    through Phase I together.  A solution does not depend on the other
    problems in the list.  Raises ValueError on an invalid problem, as
    ``solve`` does; solver trouble is reported as a status.
    """
    solutions: list[SdpSolution | None] = []
    groups: dict[tuple, list[tuple[int, _InternalProblem, _Reduced]]] = {}
    for i, problem in enumerate(problems):
        internal = _InternalProblem(problem)
        reduced = _reduce(internal)
        internal.A = internal.C = []  # from here on the reduced rows suffice
        if isinstance(reduced, SdpSolution):
            solutions.append(reduced)
            continue
        solutions.append(None)
        group = groups.setdefault((tuple(reduced.shapes), len(reduced.kept)), [])
        group.append((i, internal, reduced))
        if len(group) == GROUP_SIZE:
            _solve_group(group, solutions)
            group.clear()
    for group in groups.values():
        if group:
            _solve_group(group, solutions)
    return solutions


def _reduce(internal: _InternalProblem) -> SdpSolution | _Reduced:
    """The problem's constrained blocks and independent rows, or its solution
    when that is decided without iterating."""
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
            return _finish(internal, None, UNBOUNDED,
                           f"block {internal.labels[k]!r} is unconstrained with "
                           "indefinite objective", 0)

    # constrained blocks grouped into same-size stacks, in first-seen order
    stacks: dict[int, list[int]] = {}
    for k in range(nblocks):
        if touched[k]:
            stacks.setdefault(internal.dims[k], []).append(k)
    order = [k for ks in stacks.values() for k in ks]
    shapes = [(len(ks), d) for d, ks in stacks.items()]

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
                internal, None, INFEASIBLE,
                f"constraint {dropped[bad[0]]} is inconsistent with the others", 0)

    if not order:
        # nothing to optimize: X = 0 everywhere is optimal
        sol = {"x": np.zeros(0), "y": np.zeros(0), "pobj": 0.0,
               "dobj": 0.0, "pinf": 0.0, "dinf": 0.0, "relgap": 0.0}
        return _finish(internal, sol, OPTIMAL, "trivial problem", 0,
                       order=order, shapes=shapes, kept=kept)

    c = np.concatenate([internal.C[k].ravel() for k in order])
    return _Reduced(order=order, shapes=shapes, kept=kept,
                    rows=rows[kept], b=internal.b[kept], c=c)


def _solve_group(
    group: list[tuple[int, _InternalProblem, _Reduced]],
    solutions: list[SdpSolution | None],
) -> None:
    """Run one lockstep group, then Phase I for its unclassified members."""
    reduced = [r for _, _, r in group]
    rows, b, c = (np.stack([getattr(r, name) for r in reduced]) for name in ("rows", "b", "c"))
    for k, r in enumerate(reduced):  # keep each member's arrays once, as views of the stack
        r.rows, r.b, r.c = rows[k], b[k], c[k]
    results = _ipm(rows, b, c, reduced[0].shapes)
    undecided = [k for k, res in enumerate(results)
                 if res["status"] not in (OPTIMAL, UNBOUNDED)]
    if undecided:
        verdicts = _phase1_feasible([reduced[k] for k in undecided])
        for k, feasible in zip(undecided, verdicts):
            if feasible is False:
                results[k]["status"] = INFEASIBLE
                results[k]["message"] = "Phase-I slack stays positive"
            elif feasible is True:
                results[k]["status"] = NUMERICAL_FAILURE
                results[k]["message"] = f"feasible but not converged: {results[k]['message']}"
    for (i, internal, r), res in zip(group, results):
        solutions[i] = _finish(internal, res, res["status"], res["message"],
                               res["iterations"], order=r.order, shapes=r.shapes,
                               kept=r.kept)


def _phase1_feasible(reduced: list[_Reduced]) -> list[bool | None]:
    """Explicit Phase I, one lockstep group: per problem, min t subject to
    A(X) + t*(b - A(I)) = b, X, t >= 0."""
    shapes = reduced[0].shapes
    eye = _identity(shapes)
    rows = np.stack([np.hstack([r.rows, (r.b - r.rows @ eye)[:, None]]) for r in reduced])
    b = np.stack([r.b for r in reduced])
    c = np.zeros((len(reduced), eye.size + 1))
    c[:, -1] = 1.0
    results = _ipm(rows, b, c, shapes + [(1, 1)],
                   gap_acceptable=1e-6, feasibility_acceptable=1e-7)
    return [None if res["status"] != OPTIMAL
            else bool(res["pobj"] <= 1e-6 * (1.0 + float(np.max(np.abs(r.b), initial=0.0))))
            for r, res in zip(reduced, results)]


def _finish(
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
        solved_blocks = (xk for stack in _stacks(result["x"][None], shapes) for xk in stack[0])
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
        for label, dim in zip(internal.labels, internal.block_dims):
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
