"""Assemblages: conditional states steered on Bob's side, plus tomography.

An assemblage maps (Alice setting x, Alice outcome a) to an unnormalized 2x2
state on Bob.  Outcomes are ``0``, ``1`` and ``None`` for the null (no
detection) event.  For a heralding efficiency ``eta`` and state ``rho`` the
ideal assemblage is

    sigma_{a|x}    = eta * Tr_A[(M_{a|x} (x) 1) rho]     a in {0, 1}
    sigma_{null|x} = (1 - eta) * Tr_A[rho]

which is normalized (traces sum to one per setting) and non-signaling (the
sum over outcomes is independent of the setting).

The measurement layout is fixed: Alice's settings ``SETTINGS`` (X, Z), her
outcomes ``OUTCOMES`` and Bob's tomography bases ``BOB_BASES`` (X, Y, Z).
Every table and assemblage is laid out over these constants, and no object
carries its own copy.  An assemblage is one complex array of shape
``MEMBERS``, axes (x, a) and then Bob's 2x2 matrix.  Tomography counts are
one integer array of shape ``CELLS``, axes (x, b, a, beta) with b Bob's
basis and beta his outcome; each (x, b) slice is one multinomial.
``ml_reconstruct`` maximizes the multinomial likelihood over the valid
assemblages by damped Newton steps on a log-barrier, over 19 free Pauli
coordinates in which every iterate is normalized and non-signaling, so that
no iterate is projected.  Several fits run as one batch: the two starts of
a cold fit, or the many tables of ``ml_reconstruct_many``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    partial_trace_A,
    projector,
    tensor,
)

__all__ = [
    "SETTINGS",
    "OUTCOMES",
    "BOB_BASES",
    "MEMBERS",
    "CELLS",
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
    "ml_reconstruct_many",
    "save_assemblage",
    "load_assemblage",
    "save_counts",
    "load_counts",
    "outcome_label",
    "parse_outcome",
]

SETTINGS: tuple[str, ...] = ("X", "Z")
OUTCOMES: tuple[object, ...] = (0, 1, None)
BOB_BASES: tuple[str, ...] = ("X", "Y", "Z")
#: Shape of an assemblage: axes (x, a) over SETTINGS and OUTCOMES, then the
#: 2x2 matrix of one member sigma_{a|x}.
MEMBERS = (len(SETTINGS), len(OUTCOMES), 2, 2)
#: Shape of a tomography table: axes (x, b, a, beta) over SETTINGS, BOB_BASES,
#: OUTCOMES and Bob's two outcomes; each (x, b) slice is one multinomial.
CELLS = (len(SETTINGS), len(BOB_BASES), len(OUTCOMES), 2)

_PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class InsufficientDataError(ValueError):
    """A tomography configuration has no counts, so the fit is undetermined."""


class ReconstructionError(RuntimeError):
    """The likelihood fit did not converge, or its two starts disagree."""


def outcome_label(a) -> str:
    return "null" if a is None else str(a)


def parse_outcome(label: str):
    if label == "null":
        return None
    return int(label)


def default_measurements() -> np.ndarray:
    """Alice's effects as an (x, a, 2, 2) array over SETTINGS and the detected
    outcomes (0, 1): projective Pauli-X and Pauli-Z measurements (outcome 0 =
    +1 eigenspace).

    The null outcome has no effect; loss is applied when building assemblages.
    """
    return np.array([[projector(ket_plus()), projector(ket_minus())],
                     [projector(ket(1, 0)), projector(ket(0, 1))]])


def bob_projectors() -> np.ndarray:
    """Bob's tomography projectors as a (b, beta, 2, 2) array over BOB_BASES
    and his two outcomes: beta = 0 is the +1 eigenspace of the Pauli."""
    paulis = np.array([_PAULI[b] for b in BOB_BASES])
    return 0.5 * np.stack([ID2 + paulis, ID2 - paulis], axis=1)


@dataclass
class Assemblage:
    """Unnormalized conditional states on Bob: ``sigma[x, a]`` is the 2x2
    member sigma_{a|x}, a complex array of shape ``MEMBERS`` with axes over
    SETTINGS and OUTCOMES; ``sigma.sum(axis=1)`` is Bob's reduced state per
    setting."""

    sigma: np.ndarray


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
    sigma = np.empty(MEMBERS, dtype=complex)
    for x, a in np.ndindex(effects.shape[:2]):
        sigma[x, a] = eta * partial_trace_A(tensor(effects[x, a], ID2) @ rho, 2, 2)
    sigma[:, OUTCOMES.index(None)] = (1.0 - eta) * partial_trace_A(rho, 2, 2)
    return Assemblage(sigma)


def validate_assemblage(assem: Assemblage, tol: float = 1e-9,
                        psd_tol: float = -1e-9) -> AssemblageReport:
    """Check Hermiticity, positivity, normalization and non-signaling.

    Returns a report rather than raising, so callers can decide how strict to
    be; an array of another shape than ``MEMBERS`` still raises.
    """
    sigma = np.asarray(assem.sigma)
    if sigma.shape != MEMBERS:
        raise ValueError(f"assemblage has shape {sigma.shape}, expected {MEMBERS}")
    herm = float(np.max(np.abs(sigma - sigma.conj().swapaxes(-1, -2))))
    mineig = float(np.linalg.eigvalsh(hermitian_part(sigma)).min())
    bob = sigma.sum(axis=1)
    norm_err = float(np.max(np.abs(np.real(np.trace(bob, axis1=-2, axis2=-1)) - 1.0)))
    sig_err = float(np.max(np.abs(bob[1:] - bob[0])))
    ok = herm <= tol and mineig >= psd_tol and norm_err <= tol and sig_err <= tol
    return AssemblageReport(
        hermiticity_error=herm,
        min_eigenvalue=mineig,
        normalization_error=norm_err,
        signaling_error=sig_err,
        ok=ok,
    )


def born_probabilities(assem: Assemblage) -> np.ndarray:
    """p(a, beta | x, b) = Tr[Pi_{beta|b} sigma_{a|x}] as a float array of
    shape ``CELLS``, axes (x, b, a, beta)."""
    projs = bob_projectors()
    return np.array([np.real(np.trace(projs[b, beta] @ assem.sigma[x, a]))
                     for x, b, a, beta in np.ndindex(CELLS)]).reshape(CELLS)


# ---------------------------------------------------------------------------
# tomography counts


@dataclass
class TomographyCounts:
    """Integer counts of shape ``CELLS``, axes (x, b, a, beta); each (x, b)
    slice is one multinomial configuration."""

    n: np.ndarray

    def validate(self) -> None:
        if np.shape(self.n) != CELLS:
            raise ValueError(f"counts have shape {np.shape(self.n)}, expected {CELLS}")
        if not np.issubdtype(self.n.dtype, np.integer):
            raise ValueError(f"counts have dtype {self.n.dtype}, expected integers")
        if (self.n < 0).any():
            raise ValueError("counts must be non-negative")

    def totals(self) -> np.ndarray:
        """Trials per (x, b) configuration."""
        return self.n.sum(axis=(2, 3))


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction
#
# The fit works in real Pauli coordinates: a member sigma is the row
# v = (Tr sigma, Tr X sigma, Tr Y sigma, Tr Z sigma), so that
# sigma = (v0 1 + v1 X + v2 Y + v3 Z) / 2, which is PSD iff v0 >= |v[1:]|.
# The normalized, non-signaling assemblages are exactly v = _FREE @ theta +
# _FIXED over 19 free coordinates theta: X's members, but for the null
# member's trace (1 minus the others'), and Z's outcomes 0 and 1; Z's null
# member is X's sum minus Z's other two.
#
# A fit stops once centred at a barrier weight mu with _NU * mu, a bound on
# its per-trial log-likelihood gap, at most ML_GAP_TOL; one that has not
# stopped within ML_MAX_ITERATIONS Newton steps is not converged.  A fit is
# centred when its squared Newton decrement is at most _CENTRED * mu.
ML_MAX_ITERATIONS = 100
ML_GAP_TOL = 1e-12
_NU = 2 * len(SETTINGS) * len(OUTCOMES)
_MU_START, _MU_SHRINK, _CENTRED = 1e-2, 0.1, 1e-2
_J = np.array([1.0, -1.0, -1.0, -1.0])  # v _J v = t^2 - |r|^2

_PAULI_BASIS = np.array([ID2, PAULI_X, PAULI_Y, PAULI_Z])


def _coordinate_map() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(_FREE, _FIXED, _THETA): v = _FREE @ theta + _FIXED and theta = v[_THETA],
    with v flat over the members (x, a) in (X, Z) x (0, 1, null) order."""
    theta = np.array([i for i in range(24) if i // 4 != 5 and i != 8])
    m = np.zeros((6, 4, len(theta)))
    m.reshape(24, -1)[theta, np.arange(len(theta))] = 1.0
    m[2, 0] = -m[0, 0] - m[1, 0]
    m[5] = m[:3].sum(axis=0) - m[3] - m[4]
    c = np.zeros((24, 1))
    c[[8, 20]] = 1.0  # the null members' traces
    return m.reshape(24, -1), c, theta


_FREE, _FIXED, _THETA = _coordinate_map()


@dataclass
class MlReconstruction:
    assemblage: Assemblage
    log_likelihood: float
    log_likelihood_per_trial: float
    iterations: int
    converged: bool
    start_log_likelihoods: list[float]


def _pauli_coordinates(stack: np.ndarray) -> np.ndarray:
    """(..., 2, 2) Hermitian matrices -> (..., 4) rows (Tr s, Tr Xs, Tr Ys, Tr Zs)."""
    return np.real(np.einsum("kij,...ji->...k", _PAULI_BASIS, stack))


def _from_pauli(v: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("...k,kij->...ij", v, _PAULI_BASIS)


def _psd_project(v: np.ndarray) -> np.ndarray:
    """Nearest PSD matrices: projection onto the cone t >= |(x, y, z)|.

    Members inside the cone stay; those with t <= -r go to zero; the rest
    keep their positive eigenvalue (t + r) / 2 and its eigenvector.
    """
    t = v[..., 0]
    r = np.sqrt(v[..., 1] ** 2 + v[..., 2] ** 2 + v[..., 3] ** 2)
    keep = t >= r
    top = np.where(keep, t, np.maximum(0.5 * (t + r), 0.0))
    shrink = np.divide(top, r, out=np.ones_like(r), where=~keep & (r > 0.0))
    return np.concatenate([top[..., None], shrink[..., None] * v[..., 1:]], axis=-1)


def _affine_project(v: np.ndarray) -> np.ndarray:
    """Nearest normalized, non-signaling assemblages.

    The outcome sums of every setting move to their mean over settings, with
    the trace set to 1; each setting's outcomes share its gap equally.
    """
    g = v.reshape(*v.shape[:-2], -1, len(OUTCOMES), 4)
    sums = g.sum(axis=-2)
    target = sums.mean(axis=-2, keepdims=True)
    target[..., 0] = 1.0
    return (g + ((target - sums) / len(OUTCOMES))[..., None, :]).reshape(v.shape)


def _project_feasible(v: np.ndarray, iterations=500, tol=1e-13) -> np.ndarray:
    """Dykstra alternation between the PSD cone and the affine subspace.

    ``v`` is (B, n, 4), one assemblage per row.  A row stops, and leaves the
    batch, once no matrix entry moved by ``tol`` in one iteration.
    """
    out = v.copy()
    live = np.arange(len(v))
    y = v
    corr = np.zeros_like(v)
    prev = None
    for _ in range(iterations):
        z = _psd_project(y + corr)
        corr = y + corr - z
        y = _affine_project(z)
        if prev is not None:
            d = y - prev
            # largest entry change: |dt +- dz| / 2 on the diagonal, |dx - i dy| / 2 off it
            moved = np.maximum(np.abs(d[..., 0]) + np.abs(d[..., 3]),
                               np.hypot(d[..., 1], d[..., 2])).max(axis=-1)
            done = 0.5 * moved < tol
            if done.any():
                out[live[done]] = y[done]
                live, y, corr = live[~done], y[~done], corr[~done]
                if not live.size:
                    return out
        prev = y
    out[live] = y
    return out


def _flat_start(counts: TomographyCounts) -> np.ndarray:
    """Every member maximally mixed, with the detected fraction as the
    heralding efficiency."""
    eta_hat = float(np.clip(counts.n[:, :, :2].sum() / counts.n.sum(), 1e-3, 1.0 - 1e-3))
    v = np.zeros((len(SETTINGS), len(OUTCOMES), 4))
    v[..., 0] = [eta_hat / 2.0 if a is not None else 1.0 - eta_hat for a in OUTCOMES]
    return v.reshape(-1, 4)


def _linear_inversion_start(counts: TomographyCounts) -> np.ndarray:
    """Per member: the outcome frequency averaged over Bob's bases as the
    trace, the +/- frequency difference per basis as (x, y, z)."""
    freq = counts.n / counts.totals()[..., None, None]
    freq = freq.transpose(0, 2, 1, 3).reshape(-1, len(BOB_BASES), 2)
    rows = np.concatenate([freq.sum(axis=2).mean(axis=1)[:, None],
                           freq[..., 0] - freq[..., 1]], axis=1)
    projected = _project_feasible(rows[None])[0]
    return 0.95 * projected + 0.05 * _flat_start(counts)


def ml_reconstruct(counts: TomographyCounts) -> MlReconstruction:
    """Maximum-likelihood assemblage from tomography counts.

    Barrier-Newton fits (``_newton``) from two starts, flat and linear
    inversion, in one batch; both must converge, to log-likelihoods within
    1e-6, else ReconstructionError.  Returns the better one.  Warm-started
    fits go through ``ml_reconstruct_many``.
    """
    n = _cell_counts([counts, counts])
    fits = _newton(n, [_flat_start(counts), _linear_inversion_start(counts)])
    fit = fits[1] if fits[1].log_likelihood > fits[0].log_likelihood else fits[0]
    fit.start_log_likelihoods = [f.log_likelihood for f in fits]
    if not all(f.converged for f in fits):
        raise ReconstructionError(
            f"likelihood fit did not converge within {ML_MAX_ITERATIONS} Newton steps")
    spread = max(fit.start_log_likelihoods) - min(fit.start_log_likelihoods)
    if spread > 1e-6:
        raise ReconstructionError(
            f"the fits from the two starts differ by {spread:.3g} in log-likelihood")
    return fit


def ml_reconstruct_many(tables: list[TomographyCounts], *,
                        initial: Assemblage) -> list[MlReconstruction]:
    """One fit per table in one batch, each started at 0.95 * ``initial``, a
    valid assemblage, + 0.05 * the table's flat start.  Each fit is the one
    the table gets alone; one that did not converge comes back with
    ``converged=False``."""
    n = _cell_counts(tables)
    v = _pauli_coordinates(initial.sigma.reshape(-1, 2, 2))
    return _newton(n, [0.95 * v + 0.05 * _flat_start(counts) for counts in tables])


def _cell_counts(tables: list[TomographyCounts]) -> np.ndarray:
    """Counts as (table, member (x, a), Bob's cell (b, beta)), once every
    table is valid and has counts in every (x, b) configuration."""
    for counts in tables:
        counts.validate()
    n = np.array([counts.n for counts in tables])
    empty = np.argwhere(n.sum(axis=(3, 4)) == 0)
    if empty.size:
        _, x, b = empty[0]
        raise InsufficientDataError(
            f"no counts for configuration (x={SETTINGS[x]}, b={BOB_BASES[b]})")
    return n.transpose(0, 1, 3, 2, 4).reshape(len(tables), len(SETTINGS) * len(OUTCOMES), -1)


def _newton(n: np.ndarray, starts: list[np.ndarray]) -> list[MlReconstruction]:
    """Damped-Newton fits of -LL / T - mu * sum_k log(t_k^2 - |r_k|^2), T the
    table's trials, one per table, from valid starts (6, 4) inside every cone.

    The Hessian is six 4x4 blocks (data plus barrier) mapped through
    ``_FREE``: one 19x19 solve per step, scaled to unit diagonal and given a
    1e-12 ridge, as members close to their cones' boundaries can make it
    singular to working precision.  A step halves until every member stays
    inside its cone, every observed p > 0 and Armijo's rule holds on the
    change, computed with ``log1p``; below 1e-12 no step is taken.  No
    reduction runs across fits: a fit in a batch is the same fit alone.
    """
    proj = _pauli_coordinates(bob_projectors().reshape(-1, 2, 2))
    outer = (proj[:, :, None] * proj[:, None, :]).reshape(len(proj), -1)
    total = n.sum(axis=(1, 2)).astype(float)
    weights, observed = n / total[:, None, None], n > 0
    n_fits = len(n)
    theta = np.array(starts).reshape(n_fits, -1)[:, _THETA, None]
    mu = np.full(n_fits, _MU_START)
    iterations, converged = np.zeros(n_fits, dtype=int), np.zeros(n_fits, dtype=bool)
    active = np.arange(n_fits)
    for it in range(ML_MAX_ITERATIONS + 1):
        iterations[active] = it
        v = (_FREE @ theta[active] + _FIXED).reshape(len(active), -1, 4)
        w, mask = weights[active], observed[active]
        p = 0.5 * (v @ proj.T)
        wp = np.divide(w, p, out=np.zeros_like(p), where=mask)
        u = v * _J
        s = (u * v).sum(axis=-1)
        if it == 0 and not ((s > 0.0) & (v[..., 0] > 0.0)).all():
            raise ValueError("a start lies outside the PSD cone: the initial assemblage is invalid")
        # gradients and Hessian blocks of -LL / T and of the barrier
        g_data = -0.5 * (wp @ proj)
        h_data = 0.25 * (np.divide(wp, p, out=np.zeros_like(p), where=mask) @ outer)
        g_bar = -2.0 * u / s[..., None]
        h_bar = g_bar[..., :, None] * g_bar[..., None, :] - 2.0 * np.diag(_J) / s[..., None, None]

        def direction(m):
            g = _FREE.T @ (g_data + m[:, None, None] * g_bar).reshape(len(v), -1, 1)
            blocks = h_data.reshape(h_bar.shape) + m[:, None, None, None] * h_bar
            h = _FREE.T @ (blocks @ _FREE.reshape(*v.shape[1:], -1)).reshape(len(v), 24, -1)
            scale = 1.0 / np.sqrt(np.diagonal(h, axis1=1, axis2=2))[..., None]
            h = h * scale * scale.swapaxes(1, 2) + 1e-12 * np.eye(h.shape[-1])
            d = scale * np.linalg.solve(h, -scale * g)
            return d, -(g * d).sum(axis=(1, 2))

        d, lam2 = direction(mu[active])
        centred = lam2 <= _CENTRED * mu[active]
        done = centred & (_NU * mu[active] <= ML_GAP_TOL)
        converged[active[done]] = True
        if (centred & ~done).any():
            mu[active[centred & ~done]] *= _MU_SHRINK
            d, lam2 = direction(mu[active])
        active = active[~done]
        v, p, u, s, w, mask, d, lam2 = (x[~done] for x in (v, p, u, s, w, mask, d, lam2))
        if not active.size or it == ML_MAX_ITERATIONS:
            break
        # along the step, p(a) / p = 1 + a dp and s(a) / s = 1 + a (ds1 + a ds2)
        dv = (_FREE @ d).reshape(v.shape)
        dp = np.divide(0.5 * (dv @ proj.T), p, out=np.zeros_like(p), where=mask)
        ds1, ds2 = 2.0 * (u * dv).sum(axis=-1) / s, (dv * _J * dv).sum(axis=-1) / s
        alpha, trying = np.ones(len(active)), np.arange(len(active))
        while trying.size:
            a = alpha[trying, None]
            xs, xp = a * (ds1[trying] + a * ds2[trying]), a[..., None] * dp[trying]
            inside = ((xs > -1.0).all(axis=1) & (xp > -1.0).all(axis=(1, 2))
                      & (v[trying, :, 0] + a * dv[trying, :, 0] > 0.0).all(axis=1))
            data = (w[trying] * np.log1p(np.where(inside[:, None, None], xp, 0.0))).sum(axis=(1, 2))
            barrier = mu[active[trying]] * np.log1p(np.where(inside[:, None], xs, 0.0)).sum(axis=1)
            ok = inside & (-data - barrier <= -0.25 * a[:, 0] * lam2[trying])
            theta[active[trying[ok]]] += a[ok, :, None] * d[trying[ok]]
            alpha[trying] *= 0.5
            trying = trying[~ok & (alpha[trying] >= 1e-12)]
    v = (_FREE @ theta + _FIXED).reshape(n_fits, -1, 4)
    p = np.where(observed, 0.5 * (v @ proj.T), 1.0)
    ll = (weights * np.log(p)).reshape(n_fits, -1).sum(axis=1)
    return [MlReconstruction(
        assemblage=Assemblage(_from_pauli(v[i]).reshape(MEMBERS)),
        log_likelihood=float(ll[i] * total[i]), log_likelihood_per_trial=float(ll[i]),
        iterations=int(iterations[i]), converged=bool(converged[i]),
        start_log_likelihoods=[float(ll[i] * total[i])]) for i in range(n_fits)]


# ---------------------------------------------------------------------------
# plain-text serialization


_ASSEMBLAGE_HEADER = ["format assemblage-v1", "settings " + " ".join(SETTINGS)]
# assemblage.txt blocks run over (x, a), the array's axes 0, 1
_MEMBER_LABELS = [f"member {x} {outcome_label(a)}" for x in SETTINGS for a in OUTCOMES]
_COUNTS_HEADER = ["format counts-v1", "settings " + " ".join(SETTINGS),
                  "bases " + " ".join(BOB_BASES), "columns x a b beta count"]
# counts.txt rows run over (x, a, b, beta), the table's axes 0, 2, 1, 3
_COUNT_LABELS = [f"{x} {outcome_label(a)} {b} {beta}"
                 for x in SETTINGS for a in OUTCOMES for b in BOB_BASES for beta in (0, 1)]


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_body(path: str, header: list[str]) -> list[str]:
    """The non-blank lines after ``header``, which must open the file as is:
    a file laid out over other settings or bases is rejected."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    for i, want in enumerate(header):
        got = lines[i] if i < len(lines) else None
        if got != want:
            raise ValueError(f"header line {i + 1} is {got!r}, expected {want!r}")
    return lines[len(header):]


def save_assemblage(assem: Assemblage, path: str) -> None:
    """One labeled complex block per member, in (x, a) order."""
    lines = list(_ASSEMBLAGE_HEADER)
    for label, mat in zip(_MEMBER_LABELS, assem.sigma.reshape(-1, 2, 2)):
        lines.append(label)
        lines += format_block(mat)
    _write_lines(path, lines)


def format_block(mat: np.ndarray) -> list[str]:
    """A complex 2x2 block as two lines of real and imaginary parts, 17
    significant digits each (an exact float round trip)."""
    return [" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row) for row in mat]


def parse_block(rows: list[str]) -> list[list[complex]]:
    """The complex 2x2 block that ``format_block`` wrote; raises ValueError
    unless ``rows`` is two lines of four numbers."""
    parts = [row.split() for row in rows]
    if [len(p) for p in parts] != [4, 4]:
        raise ValueError(f"a 2x2 block is two rows of 4 numbers, got {rows!r}")
    return [[float(p[2 * j]) + 1.0j * float(p[2 * j + 1]) for j in range(2)] for p in parts]


def load_assemblage(path: str) -> Assemblage:
    body = _read_body(path, _ASSEMBLAGE_HEADER)
    if len(body) != 3 * len(_MEMBER_LABELS):
        raise ValueError(f"expected {3 * len(_MEMBER_LABELS)} member lines, got {len(body)}")
    sigma = np.empty((len(_MEMBER_LABELS), 2, 2), dtype=complex)
    for k, want in enumerate(_MEMBER_LABELS):
        label, *rows = body[3 * k:3 * k + 3]
        if label != want:
            raise ValueError(f"expected {want!r}, got {label!r}")
        sigma[k] = parse_block(rows)
    return Assemblage(sigma.reshape(MEMBERS))


def save_counts(counts: TomographyCounts, path: str) -> None:
    """One row per (x, a, b, beta, count)."""
    counts.validate()
    rows = counts.n.transpose(0, 2, 1, 3).ravel()
    _write_lines(path, _COUNTS_HEADER + [f"{label} {n}" for label, n in zip(_COUNT_LABELS, rows)])


def load_counts(path: str) -> TomographyCounts:
    body = _read_body(path, _COUNTS_HEADER)
    if len(body) != len(_COUNT_LABELS):
        raise ValueError(f"expected {len(_COUNT_LABELS)} count rows, got {len(body)}")
    n = []
    for label, row in zip(_COUNT_LABELS, body):
        head, _, value = row.rpartition(" ")
        if head != label:
            raise ValueError(f"expected a row {label!r}, got {row!r}")
        n.append(int(value))
    shape = (len(SETTINGS), len(OUTCOMES), len(BOB_BASES), 2)
    counts = TomographyCounts(np.array(n).reshape(shape).transpose(0, 2, 1, 3).copy())
    counts.validate()
    return counts
