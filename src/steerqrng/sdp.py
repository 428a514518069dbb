"""Log-barrier Newton method over qubit cones, for the fit and both
certification programs.

A Hermitian 2x2 matrix s is the row v = (Tr s, Tr Xs, Tr Ys, Tr Zs) of its
Pauli coordinates, and it is PSD exactly when v lies in the Lorentz cone
t >= |r|, with v = (t, r).  So the programs over assemblage members are
second-order cone programs in these rows (Lobo, Vandenberghe, Boyd &
Lebret, Linear Algebra Appl. 284, 193 (1998)):

    maximize    c . v
    subject to  A v = b,   every cone row v_k = v[4k:4k + 4] with t_k >= |r_k|

``SdpProblem`` holds c, A and b, one label per cone row (``blocks``) and a
``start`` that meets the rows and lies strictly inside every cone.  One SVD
of A gives its null space N, and ``_newton`` minimizes -c . v + mu * phi(v)
over v = N theta + start, with phi(v) = sum_k -log(t_k^2 - |r_k|^2) the
cones' log-barrier (Boyd & Vandenberghe, Convex Optimization, ch. 11): every
iterate meets the rows as the start does, and stays inside the cones.  The
barrier weight mu starts at 1e-2 and shrinks 100-fold whenever the squared
Newton decrement is at most mu, until 2K mu, the duality gap on the central
path of K cones, is at most ``GAP_TARGET``.  The likelihood fit of
``assemblage.ml_reconstruct`` runs the same routine with its own objective,
coordinates and schedule.

The Newton step dv at the last iterate gives the dual slack
z = -mu (grad phi + hess phi . dv), strictly inside every cone (Boyd &
Vandenberghe, sec. 11.2), and one least-squares solve of A^T y = c + z the
multipliers y.  Weak duality makes the dual value b . y an upper bound on
the maximum: for any feasible v, c . v = b . y - z . v <= b . y.  z's cone
margins are about mu (2e-12 to 4e-12 at the end), while a rank-deficient
optimal part makes the Newton system ill-conditioned (condition number
near 3e14 after scaling on the ideal Werner states): the 1e-12 ridge of the
iteration leaves a residual, and with it an error in A^T y - c, as large as
those margins.  So the dual's step is solved with a 1e-15 ridge and refined
once.  ``check_certificate`` re-derives both sides and the cone margins
from the problem's arrays.

Statuses: ``optimal`` when the weight reached its target and the dual is
finite; otherwise ``numerical-failure``: a start that misses the rows by
more than ``FEASIBILITY_TARGET`` (relative) or lies outside a cone, a
singular or non-finite Newton system, or ``MAX_ITERATIONS`` Newton steps.
A failing problem leaves its batch, and the others go on as alone.

Batching: ``solve_many`` runs every problem that shares its row matrix in
one call of ``_newton``.  No number of one problem depends on another, and
``solve`` is ``solve_many`` of one problem, so a solution is the same alone
and in any batch.  The solver uses no randomness.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "CertificateReport",
    "solve",
    "solve_many",
    "check_certificate",
    "cone_margins",
    "OPTIMAL",
    "NUMERICAL_FAILURE",
]

OPTIMAL = "optimal"
NUMERICAL_FAILURE = "numerical-failure"

MAX_ITERATIONS = 100
# the programs stop once 2K mu, the duality gap on the central path, is at
# most GAP_TARGET, from a start that meets the rows to FEASIBILITY_TARGET
GAP_TARGET = 1e-10
FEASIBILITY_TARGET = 1e-9
RANK_TOLERANCE = 1e-9
# the barrier weight starts at MU_START, and a problem stops once centred,
# its squared Newton decrement at most CENTRED * mu, at the final weight;
# ``_newton``'s caller says how far each earlier weight shrinks and how
# loosely centred it must be first: the programs here shrink it 100-fold
# once the decrement is at most mu (23-33 Newton steps on the pinned cases,
# 44-51 with the fit's 10-fold shrink once centred)
MU_START, CENTRED = 1e-2, 1e-2
MU_SHRINK, LOOSE = 0.01, 1.0
DUAL_RIDGE = 1e-15  # the dual's Newton step: see the module docstring
_J = np.array([1.0, -1.0, -1.0, -1.0])  # v _J v = t^2 - |r|^2
_TWO_J = 2.0 * np.diag(_J)
_STEPS = 0.5 ** np.arange(8)  # the line search's first steps


@dataclass
class SdpProblem:
    """maximize ``objective`` @ v subject to ``constraints`` @ v = ``rhs``,
    every cone row of v in its Lorentz cone.  ``blocks`` holds one label per
    cone row, in column order, so v has 4 * len(blocks) entries; ``start``
    is such a v that meets the rows and lies strictly inside every cone."""

    blocks: list[Hashable]
    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    start: np.ndarray


@dataclass
class SdpSolution:
    """Solver outcome.  ``primal`` is the last iterate's (K, 4) cone rows and
    ``primal_value`` its objective; ``dual_multipliers`` is y, one entry per
    row (the minimum-norm split over dependent rows), and ``dual_value``
    b . y.  ``gap`` is dual minus primal value and ``pinf`` the start's
    largest row residual relative to 1 + max |b|.  Only an ``optimal``
    solution has a dual (NaN otherwise), and only its values certify
    anything."""

    status: str
    primal: np.ndarray
    primal_value: float
    dual_value: float
    dual_multipliers: np.ndarray
    gap: float
    pinf: float
    iterations: int
    message: str = ""


@dataclass
class CertificateReport:
    """A solution's quality recomputed from the problem's arrays: the largest
    row violation |A v - b|, the smallest cone margin t - |r| of the primal
    rows and of the dual slack A^T y - c, both values and their gap."""

    constraint_violation: float
    primal_margin: float
    dual_margin: float
    primal_value: float
    dual_value: float
    gap: float

    @property
    def ok(self) -> bool:
        return (self.constraint_violation <= 1e-7 and self.primal_margin >= 0.0
                and self.dual_margin > 0.0 and abs(self.gap) <= 1e-6)


def cone_margins(v: np.ndarray) -> np.ndarray:
    """t - |r| of every (..., 4) cone row: positive strictly inside."""
    return v[..., 0] - np.sqrt((v[..., 1:] ** 2).sum(axis=-1))


def _solve(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """h[p] x = g[p] for every p, NaN where h[p] is singular."""
    try:
        return np.linalg.solve(h, g)
    except np.linalg.LinAlgError:
        if len(h) == 1:
            return np.full_like(g, np.nan)
        return np.concatenate([_solve(h[p:p + 1], g[p:p + 1]) for p in range(len(h))])


def _newton(free: np.ndarray, fixed: np.ndarray, theta: np.ndarray, c: np.ndarray,
            weights: np.ndarray, forms: np.ndarray, *, gap_tol: float, max_iterations: int,
            shrink: float, loose: float):
    """Damped-Newton minimization, per problem p, of

        -c[p] . v - sum_kj weights[p, k, j] log(v_k . forms_j) + mu * phi(v),
        v = free @ theta + fixed[p]

    over (K, 4) cone rows v_k, from a theta (P, n, 1) that puts every row
    strictly inside its cone; ``fixed`` is (P, 4K, 1), ``c`` (P, K, 4) and
    ``weights`` (P, K, J) with ``forms`` (J, 4), J = 0 for a linear
    objective.  The barrier weight mu starts at MU_START and is multiplied by
    ``shrink`` whenever the squared Newton decrement is at most ``loose`` * mu,
    until 2K mu is at most ``gap_tol``; there a problem stops once centred,
    its decrement at most CENTRED * mu.

    The Hessian is K 4x4 blocks (objective plus barrier) mapped through
    ``free``: one solve per step, scaled to unit diagonal and given a 1e-12
    ridge, as rows close to their cones' boundaries can make it singular to
    working precision.  A step halves until every row stays inside its cone,
    every weighted v_k . forms_j > 0 and Armijo's rule holds on the change,
    computed with ``log1p``; below 1e-12 no step is taken.  No reduction runs
    across problems: a problem in a batch is the same problem alone.

    Returns theta, the Newton steps taken, whether each problem converged,
    its dual slack -mu (grad phi + hess phi . dv) at the last step dv (NaN
    unless converged), and whether its Newton system was singular or not
    finite.
    """
    outer = (forms[:, :, None] * forms[:, None, :]).reshape(len(forms), 16)
    observed = weights > 0.0
    n_problems, n_cones = c.shape[:2]
    theta = theta.copy()
    mu = np.full(n_problems, MU_START)
    iterations, converged = np.zeros(n_problems, dtype=int), np.zeros(n_problems, dtype=bool)
    broken, slack = np.zeros(n_problems, dtype=bool), np.full(c.shape, np.nan)
    active = np.arange(n_problems)
    for it in range(max_iterations + 1):
        iterations[active] = it
        v = (free @ theta[active] + fixed[active]).reshape(len(active), -1, 4)
        w, mask, lin = weights[active], observed[active], c[active]
        p = v @ forms.T
        wp = np.divide(w, p, out=np.zeros_like(p), where=mask)
        u = v * _J
        s = (u * v).sum(axis=-1)
        # gradients and Hessian blocks of the objective and of the barrier
        g_obj = -lin - wp @ forms
        h_obj = np.divide(wp, p, out=np.zeros_like(p), where=mask) @ outer
        g_bar = -2.0 * u / s[..., None]
        h_bar = g_bar[..., :, None] * g_bar[..., None, :] - _TWO_J / s[..., None, None]

        def direction(m, rows=slice(None), ridge=1e-12, refine=False):
            g = free.T @ (g_obj[rows] + m[:, None, None] * g_bar[rows]).reshape(len(m), -1, 1)
            blocks = h_obj[rows].reshape(h_bar[rows].shape) + m[:, None, None, None] * h_bar[rows]
            h = free.T @ (blocks @ free.reshape(*v.shape[1:], -1)).reshape(len(m), len(free), -1)
            scale = 1.0 / np.sqrt(np.diagonal(h, axis1=1, axis2=2))[..., None]
            h = h * scale * scale.swapaxes(1, 2)
            ridged = h + ridge * np.eye(h.shape[-1])
            d = _solve(ridged, -scale * g)
            if refine:  # one pass of iterative refinement on the system without ridge
                d = d - _solve(ridged, h @ d + scale * g)
            d = scale * d
            return d, -(g * d).sum(axis=(1, 2))

        d, lam2 = direction(mu[active])
        small = 2 * n_cones * mu[active] <= gap_tol
        centred = (lam2 <= loose * mu[active]) & ~small
        done = (lam2 <= CENTRED * mu[active]) & small
        if done.any():
            # the dual's step: its residual must stay well below the slack's
            # cone margins, so take a smaller ridge and refine once
            step = direction(mu[active[done]], done, DUAL_RIDGE, refine=True)[0]
            dv = (free @ step).reshape(v[done].shape)
            slack[active[done]] = -mu[active[done], None, None] * (
                g_bar[done] + (h_bar[done] @ dv[..., None])[..., 0])
        converged[active[done]] = True
        if centred.any():
            mu[active[centred]] *= shrink
            d, lam2 = direction(mu[active])
        stop = done | ~np.isfinite(lam2)
        if stop.any():
            broken[active[stop & ~done]] = True
            active = active[~stop]
            v, p, u, s, w, mask, lin, d, lam2 = (
                x[~stop] for x in (v, p, u, s, w, mask, lin, d, lam2))
        if not active.size or it == max_iterations:
            break
        # along the step, p(a) / p = 1 + a dp and s(a) / s = 1 + a (ds1 + a ds2)
        dv = (free @ d).reshape(v.shape)
        dp = np.divide(dv @ forms.T, p, out=np.zeros_like(p), where=mask)
        dc = (lin * dv).sum(axis=(1, 2))
        ds1, ds2 = 2.0 * (u * dv).sum(axis=-1) / s, (dv * _J * dv).sum(axis=-1) / s
        # the halvings start at the first of 1, 1/2, ..., 1/128 that passes
        # the cone tests below, which hold on an interval of steps, or at
        # 1/256 when none does
        a = _STEPS[:, None]
        inside = ((a * (ds1[:, None] + a * ds2[:, None]) > -1.0)
                  & (v[:, None, :, 0] + a * dv[:, None, :, 0] > 0.0)).all(axis=2)
        alpha = np.where(inside.any(axis=1), _STEPS[inside.argmax(axis=1)], _STEPS[-1] / 2)
        trying = np.arange(len(active))
        while trying.size:
            a = alpha[trying, None]
            xs, xp = a * (ds1[trying] + a * ds2[trying]), a[..., None] * dp[trying]
            inside = ((xs > -1.0).all(axis=1) & (xp > -1.0).all(axis=(1, 2))
                      & (v[trying, :, 0] + a * dv[trying, :, 0] > 0.0).all(axis=1))
            data = (w[trying] * np.log1p(np.where(inside[:, None, None], xp, 0.0))).sum(axis=(1, 2))
            barrier = mu[active[trying]] * np.log1p(np.where(inside[:, None], xs, 0.0)).sum(axis=1)
            change = -data - a[:, 0] * dc[trying] - barrier
            ok = inside & (change <= -0.25 * a[:, 0] * lam2[trying])
            theta[active[trying[ok]]] += a[ok, :, None] * d[trying[ok]]
            alpha[trying] *= 0.5
            trying = trying[~ok & (alpha[trying] >= 1e-12)]
    return theta, iterations, converged, slack, broken


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve one problem; never raises on solver trouble, reports a status."""
    return solve_many([problem])[0]


def solve_many(problems: Iterable[SdpProblem]) -> list[SdpSolution]:
    """One solution per problem, in order: the problems that share a row
    matrix run as one batch, and each solution is the one its problem gets
    alone.  Raises ValueError on a problem whose arrays do not fit its blocks
    or with a block in no row; solver trouble is a status."""
    problems = list(problems)
    groups: dict[tuple, list[int]] = {}
    for i, problem in enumerate(problems):
        rows = _validate(problem)
        groups.setdefault((rows.shape, rows.tobytes()), []).append(i)
    solutions: list[SdpSolution | None] = [None] * len(problems)
    for members in groups.values():
        for i, solution in zip(members, _solve_batch([problems[i] for i in members])):
            solutions[i] = solution
    return solutions


def _validate(problem: SdpProblem) -> np.ndarray:
    """The problem's row matrix, once its arrays fit its blocks and every
    block is in some row: the barrier alone is unbounded on a free one."""
    if not len(problem.blocks):
        raise ValueError("a problem needs at least one block")
    n, m = 4 * len(problem.blocks), len(problem.rhs)
    rows = np.asarray(problem.constraints, dtype=float)
    shapes = [np.shape(problem.objective), rows.shape, np.shape(problem.rhs), np.shape(problem.start)]
    if shapes != [(n,), (m, n), (m,), (n,)]:
        raise ValueError(f"objective, constraints, rhs and start of shapes {shapes} do not fit "
                         f"{len(problem.blocks)} blocks")
    free = ~rows.reshape(m, -1, 4).any(axis=(0, 2))
    if free.any():
        raise ValueError(f"block {problem.blocks[np.argmax(free)]!r} is in no constraint")
    return rows


def _solve_batch(problems: list[SdpProblem]) -> list[SdpSolution]:
    """Problems with one row matrix A: its SVD gives the null space N that
    ``_newton`` steps in and the pseudo-inverse that reads each dual."""
    rows = np.asarray(problems[0].constraints, dtype=float)
    u, sv, vt = np.linalg.svd(rows)
    rank = int((sv > RANK_TOLERANCE * max(1.0, float(np.abs(rows).max(initial=0.0)))).sum())
    free = np.ascontiguousarray(vt[rank:].T)
    pinv = (u[:, :rank] / sv[:rank]) @ vt[:rank]
    c, b, start = ([np.asarray(getattr(p, name), dtype=float) for p in problems]
                   for name in ("objective", "rhs", "start"))
    pinf = [float(np.abs(rows @ x - bb).max(initial=0.0)) / (1.0 + float(np.abs(bb).max(initial=0.0)))
            for x, bb in zip(start, b)]
    messages = [f"the start misses the rows by {e:.3g}" if e > FEASIBILITY_TARGET
                else "the start lies outside a cone" if not (cone_margins(x.reshape(-1, 4)) > 0.0).all()
                else None for x, e in zip(start, pinf)]
    run = [i for i, message in enumerate(messages) if message is None]
    if run:
        theta, iterations, converged, slack, broken = _newton(
            free, np.array([start[i] for i in run])[:, :, None],
            np.zeros((len(run), free.shape[1], 1)),
            np.array([c[i] for i in run]).reshape(len(run), -1, 4),
            np.zeros((len(run), len(free) // 4, 0)), np.zeros((0, 4)),
            gap_tol=GAP_TARGET, max_iterations=MAX_ITERATIONS, shrink=MU_SHRINK, loose=LOOSE)
    solutions = [SdpSolution(NUMERICAL_FAILURE, x.reshape(-1, 4), float(cc @ x), np.nan,
                             np.full(len(bb), np.nan), np.nan, e, 0, message)
                 for x, cc, bb, e, message in zip(start, c, b, pinf, messages)]
    for j, i in enumerate(run):
        v = (free @ theta[j])[:, 0] + start[i]
        y = np.full(len(b[i]), np.nan)
        if converged[j]:
            y = pinv @ (c[i] + slack[j].ravel())
        status, message = (
            (OPTIMAL, "converged to target tolerance") if np.isfinite(y).all()
            else (NUMERICAL_FAILURE, "dual not finite") if converged[j]
            else (NUMERICAL_FAILURE, "Newton system singular or not finite") if broken[j]
            else (NUMERICAL_FAILURE, "max iterations reached"))
        primal, dual = float(c[i] @ v), float(b[i] @ y)
        solutions[i] = SdpSolution(status, v.reshape(-1, 4), primal, dual, y, dual - primal,
                                   pinf[i], int(iterations[j]), message)
    return solutions


def check_certificate(problem: SdpProblem, solution: SdpSolution) -> CertificateReport:
    """Re-derive a solution's quality from the problem's arrays alone: the
    row violation ``A v - b``, the cone margins of v and of the dual slack
    ``A^T y - c``, and both values."""
    rows, b, c = (np.asarray(a, dtype=float)
                  for a in (problem.constraints, problem.rhs, problem.objective))
    v, y = solution.primal.ravel(), solution.dual_multipliers
    primal, dual = float(c @ v), float(b @ y)
    return CertificateReport(
        constraint_violation=float(np.abs(rows @ v - b).max(initial=0.0)),
        primal_margin=float(cone_margins(v.reshape(-1, 4)).min()),
        dual_margin=float(cone_margins((y @ rows - c).reshape(-1, 4)).min()),
        primal_value=primal,
        dual_value=dual,
        gap=dual - primal,
    )
