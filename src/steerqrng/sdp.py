"""Dense semidefinite programming for small block problems.

The solver is a self-contained primal-dual path-following interior-point
method (HKM search direction, Mehrotra predictor-corrector) specialised for
the tiny instances that show up in steering certification: a handful of
Hermitian 2x2 blocks and a few dozen equality constraints.  Every block is
kept a complex Hermitian D x D matrix from the problem to the solution.

Problem form::

    maximize    sum_k  Tr(C_k X_k)
    subject to  sum_k  Tr(A_jk X_k) = b_j     for each constraint j
                X_k >= 0                      (PSD, Hermitian)

Layout: ``SdpProblem.blocks`` maps each label to its dimension D, in
column order, and each block owns the next 2 D^2 columns, the float view of
its row-major complex entries.  The objective is one (n,) vector, the
constraints one (m, n) row matrix, and the dot product of two such vectors
is the trace inner product Re Tr(A^H X).  ``block_views`` gives the complex
(..., D, D) view of each block of such an array, through which programs
write their coefficients and solutions are read.

Before the iteration starts, one SVD of the (m x n) row matrix gives its
rank r and its left singular basis U_r: a rhs with a component outside U_r
makes the rows inconsistent, which is reported as infeasibility, and the
iteration runs on the r independent rows U_r^T A(X) = U_r^T b.  The
multipliers U_r y it maps back are the minimum-norm split of the dual over
dependent rows.

Contract: the solver serves the two certification programs, which are
feasible and bounded.  ``_setup`` raises ValueError for a problem with no
constrained block or with an objective on a block no constraint touches.
The status is ``infeasible`` for inconsistent rows, ``optimal`` when the
iteration meets its tolerances, and ``numerical-failure`` otherwise, which
includes consistent rows that no PSD point meets.

The iteration is batched twice over.  The constrained blocks' columns are
taken once, grouped by block size, so the iterates are float vectors laid
out the same way and ``A(X)`` and ``A^T y`` are single real matrix-vector
products, with no Python loop over constraints.  Same-size blocks are
viewed as complex (nb, D, D) stacks.  On top of that every array carries a
leading problem axis: ``solve_many`` advances up to ``GROUP_SIZE`` problems
of one structure (stack shapes and rank) in lockstep, so the Cholesky
factorizations, ``S^-1``, the search-direction products, the Schur
complement (one Kronecker product per block) and the step length are one
numpy call per stack for the whole group.  Each problem keeps its own
scales, step lengths, best iterate and stopping rule and leaves the group
when it stops, so its result does not depend on the other problems;
``solve`` is ``solve_many`` of one problem.  With BLAS on one thread of a
2-vCPU VM, the guessing-probability SDP of a fitted assemblage (32
independent rows, 18 2x2 blocks, 12-15 iterations) takes 20-25 ms of CPU
alone, setup included, and 10-12 ms per problem in groups of 10, against
about 0.35 s for a per-constraint loop.

Determinism: the solver uses no randomness; a fixed problem always produces
the same iterates.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

import numpy as np

from .linalg import HERMITIAN_TOL, hermitian_part, min_eigenvalue

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "CertificateReport",
    "solve",
    "solve_many",
    "block_views",
    "check_certificate",
    "OPTIMAL",
    "INFEASIBLE",
    "NUMERICAL_FAILURE",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NUMERICAL_FAILURE = "numerical-failure"

# Solver settings.  The iteration stops at GAP_TARGET/FEASIBILITY_TARGET
# and, failing that, accepts its best iterate within the *_ACCEPTABLE
# tolerances.
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
class SdpProblem:
    """Block SDP in the solver's own layout (see the module docstring).

    ``blocks`` maps label (any hashable) -> dimension D, in column order;
    each block owns 2 D^2 columns.  ``objective`` is the (n,) vector of C,
    ``constraints`` the (m, n) row matrix of the A_j and ``rhs`` the (m,)
    vector b; the problem maximizes.  Write and read a block's
    coefficients through ``block_views``.
    """

    blocks: dict[Hashable, int]
    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray

    def validate(self) -> None:
        """Raise ValueError unless the block dimensions are positive, the
        arrays fit the blocks, the rhs is finite, some block and every block
        with an objective is in a constraint, and the coefficients are Hermitian."""
        _setup(self)


@dataclass
class SdpSolution:
    """Solver outcome.  ``primal_blocks`` maps each label to its complex
    Hermitian block, a view of one flat iterate in the problem's layout
    (zero for a block no constraint touches).  ``primal_value`` is the
    maximized objective.  ``dual_multipliers`` has one entry per
    constraint; over linearly dependent constraints it is the minimum-norm
    split of the dual.  ``gap``, ``pinf`` and ``dinf`` are the relative
    duality gap and the scaled primal and dual residuals of the returned
    iterate (NaN when the solver produced none); ``pinf`` is measured on the
    reduced rows U_r^T A(X) = U_r^T b.  ``status`` is ``optimal``,
    ``infeasible`` (inconsistent rows, decided before iterating, with no
    iterate) or ``numerical-failure``; only an ``optimal`` solution's values
    certify anything."""

    status: str
    primal_blocks: dict[Hashable, np.ndarray]
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
# setup


def block_views(flat: np.ndarray, blocks: dict[Hashable, int]) -> dict[Hashable, np.ndarray]:
    """Complex (..., D, D) views of the blocks of (..., n) float arrays laid
    out as ``blocks`` (label -> D, in column order): writing to a view
    writes the array's columns."""
    views, lo = {}, 0
    for label, d in blocks.items():
        views[label] = flat[..., lo:lo + 2 * d * d].view(complex).reshape(*flat.shape[:-1], d, d)
        lo += 2 * d * d
    return views


@dataclass
class _Reduced:
    """A problem ready for the iteration: its constrained blocks in stack
    order, the problem's columns they take, the left singular basis U_r
    (m, r) of their row matrix, and the reduced rows U_r^T rows, rhs
    U_r^T b and min-form objective."""

    order: list[int]
    cols: np.ndarray
    shapes: list[tuple[int, int]]
    basis: np.ndarray
    rows: np.ndarray
    b: np.ndarray
    c: np.ndarray


def _setup(problem: SdpProblem) -> SdpSolution | _Reduced:
    """Validate a problem and turn it into the iteration's arrays, or into
    its ``infeasible`` solution when its rows are inconsistent; raises
    ValueError on an invalid problem.  The constrained blocks' columns are
    taken once, as (nb, D) stacks of same-size blocks, each checked and made
    Hermitian in one batch, and one SVD of their row matrix reduces it."""
    labels, dims = list(problem.blocks), np.array(list(problem.blocks.values()), dtype=int)
    if (dims < 1).any():
        raise ValueError(f"block {labels[np.argmax(dims < 1)]!r} has non-positive dimension")
    width = 2 * dims ** 2
    c, rows, b = (np.asarray(array, dtype=float)
                  for array in (problem.objective, problem.constraints, problem.rhs))
    if b.ndim != 1 or c.shape != (width.sum(),) or rows.shape != (b.size, width.sum()):
        raise ValueError(f"objective {c.shape}, constraints {rows.shape} and rhs {b.shape} "
                         f"do not fit blocks of {width.sum()} columns")
    if not np.isfinite(b).all():
        raise ValueError(f"constraint {np.argmin(np.isfinite(b))} has non-finite rhs")
    # the blocks with a nonzero coefficient in some constraint / in the objective
    start = np.cumsum(width) - width
    touched = np.logical_or.reduceat(rows.any(axis=0), start)
    weighed = np.logical_or.reduceat(c != 0.0, start)
    if (weighed & ~touched).any():
        raise ValueError(f"block {labels[np.argmax(weighed & ~touched)]!r} has an objective "
                         "but no constraint")
    if not touched.any():
        raise ValueError("no constraint touches a block")

    # constrained blocks grouped into same-size stacks, in first-seen order;
    # row 0 of the taken coefficients is the min-form objective
    stacks: dict[int, list[int]] = {}
    for k in np.flatnonzero(touched).tolist():
        stacks.setdefault(int(dims[k]), []).append(k)
    order = [k for ks in stacks.values() for k in ks]
    shapes = [(len(ks), d) for d, ks in stacks.items()]
    cols = np.concatenate([np.arange(start[k], start[k] + width[k]) for k in order])
    coef = np.concatenate([-c[None], rows]).take(cols, axis=1)
    first = 0
    for stack, (nb, _d) in zip(_stacks(coef, shapes), shapes):
        dev = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        if (dev > HERMITIAN_TOL).any():
            j, k = np.argwhere(dev > HERMITIAN_TOL)[0]
            raise ValueError(f"{'objective' if j == 0 else f'constraint {j - 1}'} coefficient "
                             f"for {labels[order[first + k]]!r} is not Hermitian: max "
                             f"deviation {dev[j, k]:.3e} > {HERMITIAN_TOL:.1e}")
        stack[...] = hermitian_part(stack)
        first += nb
    c, rows = coef[0], coef[1:]

    # rank, consistency and the reduced system from one SVD
    u, sv, _ = np.linalg.svd(rows, full_matrices=False)
    basis = u[:, sv > RANK_TOLERANCE * max(1.0, float(np.abs(rows).max(initial=0.0)))]
    residual = np.abs(b - basis @ (basis.T @ b))
    if residual.max(initial=0.0) > 1e-7 * (1.0 + np.abs(b).max(initial=0.0)):
        return _finish(problem, {
            "status": INFEASIBLE, "iterations": 0,
            "message": f"constraint {np.argmax(residual)} is inconsistent with the others"})
    return _Reduced(order, cols, shapes, basis, basis.T @ rows, basis.T @ b, c)


def _stacks(vec: np.ndarray, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Complex views of (P, n) flat float vectors as (P, nb, D, D) stacks of
    same-size blocks."""
    out, lo = [], 0
    for nb, d in shapes:
        out.append(vec[:, lo:lo + 2 * nb * d * d].view(complex).reshape(-1, nb, d, d))
        lo += 2 * nb * d * d
    return out


def _flat(stacks: list[np.ndarray]) -> np.ndarray:
    """(P, n) float views of complex (P, nb, D, D) stacks, concatenated."""
    return np.concatenate([np.ascontiguousarray(s).view(float).reshape(len(s), -1)
                           for s in stacks], axis=1)


def _identity(shapes: list[tuple[int, int]]) -> np.ndarray:
    return _flat([np.broadcast_to(np.eye(d, dtype=complex), (1, nb, d, d))
                  for nb, d in shapes])[0]


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
    factors L, so a block stays PSD while I + alpha L^-1 D L^-H does.
    """
    lam = np.min([
        np.linalg.eigvalsh(hermitian_part(li @ d @ li.conj().swapaxes(-1, -2)))[..., 0]
        .min(axis=-1)
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

    With row-major flattens of the Hermitian A this is
    Re(conj(vec A_ik) . kron(S_k^-1, conj X_k) vec A_jk): one (D^2, D^2)
    matrix per block, not one product per block and row.  ``R`` holds the
    conjugates of each stack's complex rows, (P, m, nb*D*D), and ``AT`` the
    coefficients themselves as (P, nb, D*D, m).
    """
    M = 0
    for r, at, xk, sinv in zip(R, AT, X, Sinv):
        P, nb, d = xk.shape[:3]
        kron = (sinv[..., :, None, :, None] * xk.conj()[..., None, :, None, :]).reshape(
            P, nb, d * d, d * d)
        M = M + (r @ (kron @ at).reshape(P, nb * d * d, -1)).real
    return 0.5 * (M + M.swapaxes(-1, -2))


def _schur_jitter(M: np.ndarray) -> np.ndarray:
    """Per problem, the relative shift of its diagonal with which the Schur
    complement factors: 0 when it factors as it is, NaN when no shift up to
    1e-6 helps.

    The shift is relative to each row's own diagonal entry: near the optimum
    of a degenerate problem the diagonal spans five orders or more, and a
    shift scaled to the largest entry would swamp the small rows and spoil
    the step's primal feasibility."""
    jitters = np.zeros(len(M))
    if _try_cholesky(M) is not None:
        return jitters
    for p, mp in enumerate(M):
        jitter = 0.0
        chol = _try_cholesky(mp)
        while chol is None and jitter < 1e-6:
            jitter = max(jitter * 10.0, 1e-14)
            chol = _try_cholesky(mp + jitter * np.diag(np.diag(mp)))
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
) -> list[dict]:
    """Minimize c[p] @ x over PSD blocks subject to rows[p] @ x = b[p], for
    every problem p of a lockstep group.

    The P problems share their block structure: ``rows`` is (P, m, n), ``b``
    is (P, m) and ``c`` is (P, n).  ``x`` is the float view of the
    concatenated row-major complex entries of the Hermitian blocks, laid out
    as the (nb, D, D) stacks listed in ``shapes``, so the dot product of two
    such vectors is the trace inner product and every per-block operation
    is one batched call per complex stack for the whole group.  The rows of
    each problem must be linearly independent.

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
    # per stack, the conjugates of its complex rows and a transposed copy of
    # them, for the Schur complement
    g.R, g.AT = [], []
    for (nb, d), r in zip(shapes, _stacks(rows.reshape(P * m, -1), shapes)):
        g.R.append(r.conj().reshape(P, m, nb * d * d))
        g.AT.append(np.ascontiguousarray(r.reshape(P, m, nb, d * d).transpose(0, 2, 3, 1)))
    b_max = np.abs(b).max(axis=1, initial=0.0)
    c_max = np.abs(c).max(axis=1, initial=0.0)
    g.scale_b = 1.0 + b_max
    g.scale_c = 1.0 + c_max
    a_max = np.abs(rows).max(axis=(1, 2), initial=0.0)
    xi = 10.0 * np.maximum(1.0, b_max)
    eta = 10.0 * np.maximum(np.maximum(1.0, c_max), a_max)
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

    def acceptable() -> np.ndarray:
        """Per live problem, whether its best iterate is within the
        acceptable tolerances."""
        pinf, dinf, relgap = g.best[:, 2:].T
        return (np.isfinite(g.best_score) & (pinf <= FEASIBILITY_ACCEPTABLE)
                & (dinf <= FEASIBILITY_ACCEPTABLE) & (relgap <= GAP_ACCEPTABLE))

    def leave(*outcomes: tuple[np.ndarray, str, str]) -> bool:
        """Record the problems of each (disjoint) mask with its status and
        message, drop them, and tell whether any problem is left."""
        stopped = np.any([mask for mask, _, _ in outcomes], axis=0)
        if not stopped.any():
            return True
        ok = acceptable()
        for mask, status, message in outcomes:
            for j in np.flatnonzero(mask):
                result = {"status": status, "message": message, "iterations": it}
                if np.isfinite(g.best_score[j]):
                    pobj, dobj, pinf, dinf, relgap = (float(v) for v in g.best[j])
                    result.update(x=g.best_x[j], y=g.best_y[j], pobj=pobj, dobj=dobj,
                                  pinf=pinf, dinf=dinf, relgap=relgap)
                if status != OPTIMAL and ok[j]:
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
        # an infinite dy would meet the zero columns of the rows (the
        # imaginary parts of the diagonals); the caller drops its problem
        adj = _rmatvec(np.where(np.isfinite(dy), dy, 0.0), g.rows)
        dX = [hermitian_part(gk + xk @ ak @ sinv)
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
        # a best iterate within the acceptable tolerances stops its problem
        # after 2 iterations that do not improve on it
        stalled = ~optimal & (
            (g.mu < 1e-17) | (g.stall > 40) | (acceptable() & (g.stall >= 2)))
        if not leave((optimal, OPTIMAL, "converged to target tolerance"),
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
        g.Sinv = [li.conj().swapaxes(-1, -2) @ li for li in g.linv_s]

        M = _schur_complement(g.R, g.AT, _stacks(g.x, shapes), g.Sinv)
        jitter = _schur_jitter(M)
        shifted = jitter > 0.0
        if shifted.any():
            M[shifted] += jitter[shifted, None, None] * np.eye(m) * M[shifted]
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
        g.x = _flat([hermitian_part(v) for v in _stacks(g.x + alpha_p[:, None] * g.dx, shapes)])
        g.s = _flat([hermitian_part(v) for v in _stacks(g.s + alpha_d[:, None] * g.ds, shapes)])
        g.y = g.y + alpha_d[:, None] * g.dy
    else:
        leave((np.ones(len(g.live), dtype=bool), NUMERICAL_FAILURE, "max iterations reached"))
    return results


# ---------------------------------------------------------------------------
# public entry points


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve a block SDP; never raises on solver trouble, reports a status."""
    return solve_many([problem])[0]


def solve_many(problems: Iterable[SdpProblem]) -> list[SdpSolution]:
    """Solve block SDPs; one solution per problem, in order.

    Each problem is validated and reduced on its own (redundant and
    inconsistent rows).  Problems with the same stack shapes and rank then
    iterate in lockstep groups of at most ``GROUP_SIZE``.  A solution does
    not depend on the other problems in the list.  Raises ValueError on an
    invalid problem, as ``solve`` does; solver trouble is reported as a
    status.
    """
    solutions: list[SdpSolution | None] = []
    groups: dict[tuple, list[tuple[int, SdpProblem, _Reduced]]] = {}
    for i, problem in enumerate(problems):
        reduced = _setup(problem)
        if isinstance(reduced, SdpSolution):
            solutions.append(reduced)
            continue
        solutions.append(None)
        group = groups.setdefault((tuple(reduced.shapes), len(reduced.b)), [])
        group.append((i, problem, reduced))
        if len(group) == GROUP_SIZE:
            _solve_group(group, solutions)
            group.clear()
    for group in groups.values():
        if group:
            _solve_group(group, solutions)
    return solutions


def _solve_group(
    group: list[tuple[int, SdpProblem, _Reduced]],
    solutions: list[SdpSolution | None],
) -> None:
    """Run one lockstep group."""
    reduced = [r for _, _, r in group]
    rows, b, c = (np.stack([getattr(r, name) for r in reduced]) for name in ("rows", "b", "c"))
    for k, r in enumerate(reduced):  # keep each member's arrays once, as views of the stack
        r.rows, r.b, r.c = rows[k], b[k], c[k]
    for (i, problem, r), result in zip(group, _ipm(rows, b, c, reduced[0].shapes)):
        solutions[i] = _finish(problem, result, r)


def _finish(problem: SdpProblem, result: dict, reduced: _Reduced | None = None) -> SdpSolution:
    """The solution of ``problem`` from a result of ``_ipm`` or ``_setup``,
    with its iterate, if any, mapped back to the blocks and rows."""
    x = np.zeros(sum(2 * d * d for d in problem.blocks.values()))
    y = np.zeros(len(problem.rhs))
    pval = dval = gap = pinf = dinf = np.nan
    if "x" in result:
        x[reduced.cols] = result["x"]
        y = -(reduced.basis @ result["y"])
        pval, dval = -result["pobj"], -result["dobj"]
        gap, pinf, dinf = result["relgap"], result["pinf"], result["dinf"]

    return SdpSolution(
        status=result["status"],
        primal_blocks=block_views(x, problem.blocks),
        primal_value=float(pval),
        dual_value=float(dval),
        dual_multipliers=y,
        gap=float(gap),
        pinf=float(pinf),
        dinf=float(dinf),
        iterations=result["iterations"],
        message=result["message"],
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
    solver internals, so it doubles as an independent certificate check:
    the violation is ``rows @ x - b`` and the dual slack ``y @ rows - c``.
    """
    problem.validate()
    rows, b, c = (np.asarray(a, dtype=float)
                  for a in (problem.constraints, problem.rhs, problem.objective))
    x = np.zeros_like(c)
    for label, block in block_views(x, problem.blocks).items():
        block[...] = solution.primal_blocks[label]

    def min_eig(flat: np.ndarray) -> float:
        return min((min_eigenvalue(hermitian_part(block))
                    for block in block_views(flat, problem.blocks).values()), default=0.0)

    viol = float(np.abs(rows @ x - b).max(initial=0.0))
    min_eig_primal = min_eig(x)
    min_eig_dual = min_eig(solution.dual_multipliers @ rows - c)
    pval, dval = float(c @ x), float(b @ solution.dual_multipliers)
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
