"""The 4x4 fidelity program behind every certified curve value.

For a Bell operator B and threshold omega the program is

    f(omega) = max  lam * omega + mu
               s.t. sigma - lam * B - mu * I  >= 0   (PSD)
                    sigma a two-qubit state with both marginals I/2
                    lam >= 0.

Any feasible point certifies tr[rho sigma] >= lam*omega + mu for every
state rho with tr[B rho] >= omega (weak duality), which is what makes the
value a sound fidelity lower bound.  Marginal constraints are eliminated
by parameterizing sigma over the five real products

    sigma(t) = I/4 + (t1 XX + t2 ZZ + t3 YY + t4 XZ + t5 ZX) / 4,

whose partial traces vanish identically, leaving two 4x4 PSD cones in
seven scalar variables.  The solver is a log-det barrier path-following
method with analytic gradients and Hessians; everything is vectorized
over stacks of problems so grid sweeps can batch thousands of cells.

The independent cross-checks (a projected-supergradient solver, sampled
weak-duality witnesses and a tightness probe) live with the test suite in
``tests/oracles.py``; they share no iterates with the barrier solver.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .matqm import kron, pauli

__all__ = [
    "FabSolution",
    "GENERATORS",
    "bell_diag_sigma",
    "solve_fab_batch",
]

_X = pauli("X").real
_Y = pauli("Y")
_Z = pauli("Z").real

# Real products with vanishing marginals; their span (plus I) carries every
# matrix the program touches on the real-symmetric path.
GENERATORS = np.stack(
    [
        kron(_X, _X).real,
        kron(_Z, _Z).real,
        kron(_Y, _Y).real,  # Y (x) Y is real
        kron(_X, _Z).real,
        kron(_Z, _X).real,
    ]
)

_DIRS = GENERATORS / 4.0  # d sigma / d t_i
_I4 = np.eye(4)
_LAM_CAP = 1e4  # keeps the barrier bounded when lam is objective-neutral
_NU = 10.0  # total barrier parameter: two 4x4 cones + two scalar bounds
_MAX_INNER = 80  # Newton steps per barrier stage
# barrier weights 1, 8, ..., 8**11; the last is the first past 2*nu/1e-8, so
# a centered final iterate certifies a duality gap below 1e-8
_ETAS = tuple(8.0**k for k in range(12))


def bell_diag_sigma(t: np.ndarray) -> np.ndarray:
    """sigma(t) for coefficient vector(s) t of shape (..., 5)."""
    t = np.asarray(t, dtype=float)
    return _I4 / 4.0 + np.einsum("...i,iab->...ab", t, _DIRS)


_STATUS_NAMES = {0: "optimal", 1: "max-iter", 2: "infeasible"}


@dataclasses.dataclass(frozen=True)
class FabSolution:
    """A feasible point and its certified objective value.

    ``value`` = lam*omega + mu holds by construction and remains a valid
    lower bound in every status except 'infeasible' (omega above the
    largest eigenvalue of B, where the program is unbounded).
    ``psd_slack`` is the minimal eigenvalue of sigma - lam*B - mu*I after
    restoration; feasibility means it is nonnegative within tolerance.
    """

    value: float
    lam: float
    mu: float
    t: np.ndarray
    status: str
    gap_bound: float
    iterations: int
    psd_slack: float = 0.0

    @property
    def sigma(self) -> np.ndarray:
        return bell_diag_sigma(self.t)

    @classmethod
    def from_batch(cls, out: dict[str, np.ndarray], i: int) -> "FabSolution":
        """Row ``i`` of a ``solve_fab_batch`` result."""
        return cls(
            value=float(out["value"][i]),
            lam=float(out["lam"][i]),
            mu=float(out["mu"][i]),
            t=out["t"][i],
            status=_STATUS_NAMES[int(out["status"][i])],
            gap_bound=float(out["gap_bound"][i]),
            iterations=int(out["iterations"][i]),
            psd_slack=float(out["psd_slack"][i]),
        )


def _chol4(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Cholesky for stacks (..., 4, 4) of symmetric matrices.

    Returns (L, ok); entries with ok False are not positive definite and
    the corresponding L entries are garbage.
    """
    m = mats
    L = np.zeros_like(m)
    ok = np.ones(m.shape[:-2], dtype=bool)

    def _safe_sqrt(d):
        nonlocal ok
        ok &= d > 0.0
        return np.sqrt(np.where(d > 0.0, d, 1.0))

    s = _safe_sqrt(m[..., 0, 0])
    L[..., 0, 0] = s
    L[..., 1, 0] = m[..., 1, 0] / s
    L[..., 2, 0] = m[..., 2, 0] / s
    L[..., 3, 0] = m[..., 3, 0] / s
    s = _safe_sqrt(m[..., 1, 1] - L[..., 1, 0] ** 2)
    L[..., 1, 1] = s
    L[..., 2, 1] = (m[..., 2, 1] - L[..., 2, 0] * L[..., 1, 0]) / s
    L[..., 3, 1] = (m[..., 3, 1] - L[..., 3, 0] * L[..., 1, 0]) / s
    s = _safe_sqrt(m[..., 2, 2] - L[..., 2, 0] ** 2 - L[..., 2, 1] ** 2)
    L[..., 2, 2] = s
    L[..., 3, 2] = (m[..., 3, 2] - L[..., 3, 0] * L[..., 2, 0] - L[..., 3, 1] * L[..., 2, 1]) / s
    s = _safe_sqrt(m[..., 3, 3] - L[..., 3, 0] ** 2 - L[..., 3, 1] ** 2 - L[..., 3, 2] ** 2)
    L[..., 3, 3] = s
    return L, ok


def _feasible(t, lam, mu, bells):
    """Cholesky factors of (sigma, slack) per row, shape (k, 2, 4, 4), and
    whether the row is strictly feasible."""
    sig = bell_diag_sigma(t)
    slack = sig - lam[:, None, None] * bells - mu[:, None, None] * _I4
    L, ok = _chol4(np.stack((sig, slack), axis=1))
    return L, ok.all(axis=1) & (lam > 0.0) & (lam < _LAM_CAP)


def _barrier_value(L, lam):
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    return -(logdet[:, 0] + logdet[:, 1] + np.log(lam) + np.log(_LAM_CAP - lam))


def _tril_inv4(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack (..., 4, 4) of lower-triangular factors.

    Forward substitution on the identity, one row at a time and
    elementwise over the stack, so each result is independent of the
    batch it is computed in.
    """
    M = np.zeros_like(L)
    for i in range(4):
        row = -np.sum(L[..., i, :i, None] * M[..., :i, :], axis=-2)
        row[..., i] += 1.0
        M[..., i, :] = row / L[..., i, i, None]
    return M


# [D_1 | ... | D_5]: one 4x20 right factor for all shared directions
_DIRS_WIDE = np.ascontiguousarray(_DIRS.transpose(1, 0, 2).reshape(4, 20))


def _congruence(M: np.ndarray, *extra_left: np.ndarray) -> np.ndarray:
    """Flattened W_i = M A_i M^T, shape (k, m, 16).

    The A_i are the five shared directions ``_DIRS``, followed by one
    direction per block of ``extra_left``, which holds M A_i (k, 4, 4).
    """
    k = M.shape[0]
    left = (M @ _DIRS_WIDE).reshape(k, 4, 5, 4).swapaxes(1, 2).reshape(k, 20, 4)
    if extra_left:
        left = np.concatenate((left, *extra_left), axis=1)
    return (left @ M.swapaxes(1, 2)).reshape(k, -1, 16)


def _gram(W: np.ndarray) -> np.ndarray:
    # a contiguous transpose keeps matmul on its BLAS path
    return W @ np.ascontiguousarray(W.swapaxes(1, 2))


def _cone_newton_system(L, bells):
    """Gradient and Hessian of -logdet(sigma) - logdet(slack) in (t, lam, mu).

    With S = L L^T and W_i = L^-1 A_i L^-T, d/dx_i (-logdet S) = -tr W_i
    and the Hessian tr(S^-1 A_i S^-1 A_j) is the Gram matrix <W_i, W_j>
    (Vandenberghe & Boyd, SIAM Review 38, 1996), so both come from the
    feasibility Cholesky factors without forming an inverse.  sigma moves
    along the five shared directions; the slack along those, -B and -I.
    """
    M = _tril_inv4(L)
    M1, M2 = M[:, 0], M[:, 1]
    W1 = _congruence(M1)
    W2 = _congruence(M2, -(M2 @ bells), -M2)
    grad = -W2[..., ::5].sum(axis=-1)  # entries 0, 5, 10, 15: the trace
    grad[:, :5] -= W1[..., ::5].sum(axis=-1)
    hess = _gram(W2)
    hess[:, :5, :5] += _gram(W1)
    return grad, hess


def solve_fab_batch(bells: np.ndarray, omegas: np.ndarray) -> dict[str, np.ndarray]:
    """Solve a stack of fidelity programs; see module docstring.

    Returns arrays value, lam, mu, t, status (0 optimal, 1 max-iter,
    2 infeasible), gap_bound, iterations.  Every non-infeasible row is a
    restored feasible point, so its value is a certified lower bound even
    when the gap target was not met.
    """
    bells = np.asarray(bells, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    n = bells.shape[0]
    lam_max_b = np.linalg.eigvalsh(bells)[:, -1]
    infeasible = omegas > lam_max_b + 1e-9

    # strictly feasible start: sigma = I/4, mu below the spectrum, small lam
    t = np.zeros((n, 5))
    lam = np.full(n, 1e-2)
    mu = -(np.abs(lam_max_b) + 1.0)
    live = ~infeasible

    # objective coefficient vector per problem: (0,0,0,0,0, omega, 1)
    c = np.zeros((n, 7))
    c[:, 5] = omegas
    c[:, 6] = 1.0

    iters = np.zeros(n, dtype=int)
    # snapshot of the last well-centered iterate per problem; the duality gap
    # certificate 2*nu/eta only holds at (approximate) centers, so the final
    # bound is computed from these rather than from wherever iteration stalls
    snap_t = t.copy()
    snap_lam = lam.copy()
    snap_mu = mu.copy()
    snap_eta = np.zeros(n)
    # Cholesky factors of (sigma, slack) at the current iterates; a step's
    # accepted line-search trial is the next iterate, so its factors carry over
    chol, _ = _feasible(t, lam, mu, bells)

    for eta in _ETAS:
        active = live.copy()
        for _ in range(_MAX_INNER):
            if not np.any(active):
                break
            idx = np.nonzero(active)[0]
            tb, lamb, mub = t[idx], lam[idx], mu[idx]
            bb, cb = bells[idx], c[idx]
            L = chol[idx]
            k = idx.size

            grad, hess = _cone_newton_system(L, bb)
            grad -= eta * cb
            grad[:, 5] -= 1.0 / lamb
            grad[:, 5] += 1.0 / (_LAM_CAP - lamb)
            hess[:, 5, 5] += 1.0 / lamb**2 + 1.0 / (_LAM_CAP - lamb) ** 2

            # near-degenerate slack cones push the condition number past
            # float64; a scale-relative ridge keeps the solve meaningful
            finite = np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(grad).all(axis=1)
            hess[~finite] = np.eye(7)
            grad[~finite] = 0.0
            ridge = 1e-13 * np.einsum("nii->n", hess) / 7.0
            hess += ridge[:, None, None] * np.eye(7)
            step = -np.linalg.solve(hess, grad[..., None])[..., 0]
            dec2 = -np.einsum("ni,ni->n", grad, step)  # squared Newton decrement
            dec2 = np.maximum(dec2, 0.0)
            dec2[~finite] = 0.0  # freeze blown-up rows at their last iterate

            done_now = dec2 <= 0.04
            damp = np.where(dec2 > 0.0625, 1.0 / (1.0 + np.sqrt(dec2)), 1.0)

            f_old = _barrier_value(L, lamb) - eta * (
                cb[:, 5] * lamb + cb[:, 6] * mub
            )
            scale = damp.copy()
            accepted = np.zeros(k, dtype=bool)
            for _bt in range(40):
                # only rows still searching are stepped and evaluated
                rows = np.nonzero(~accepted & ~done_now)[0]
                if rows.size == 0:
                    break
                s = scale[rows]
                tt = tb[rows] + s[:, None] * step[rows, :5]
                tl = lamb[rows] + s * step[rows, 5]
                tm = mub[rows] + s * step[rows, 6]
                tL, tok = _feasible(tt, tl, tm, bb[rows])
                ok_rows = rows[tok]
                f_new = np.full(rows.size, np.inf)
                f_new[tok] = _barrier_value(tL[tok], tl[tok]) - eta * (
                    cb[ok_rows, 5] * tl[tok] + cb[ok_rows, 6] * tm[tok]
                )
                good = tok & (f_new <= f_old[rows] + 1e-9 * np.abs(f_old[rows]))
                gi = idx[rows[good]]
                t[gi], lam[gi], mu[gi], chol[gi] = tt[good], tl[good], tm[good], tL[good]
                accepted[rows[good]] = True
                scale[rows[~good]] *= 0.5
            iters[idx] += 1
            cent = idx[done_now]
            snap_t[cent] = t[cent]
            snap_lam[cent] = lam[cent]
            snap_mu[cent] = mu[cent]
            snap_eta[cent] = eta
            # problems that are centered, or stalled in the line search, stop
            active[idx] = ~done_now & accepted

    def _restore(tv, lv, mv):
        # shrink sigma toward I/4 if needed, then shift mu down so the slack
        # cone is exactly satisfied; the value only decreases, so the result
        # stays a certified bound
        sig = bell_diag_sigma(tv)
        ev_sig = np.linalg.eigvalsh(sig)[:, 0]
        bad = ev_sig < 1e-13
        if np.any(bad):
            tv = tv.copy()
            tv[bad] *= ((0.25 - 1e-13) / (0.25 - ev_sig[bad]))[:, None]
            sig = bell_diag_sigma(tv)
        lv = np.maximum(lv, 0.0)
        slack = sig - lv[:, None, None] * bells - mv[:, None, None] * _I4
        ev_slack = np.linalg.eigvalsh(slack)[:, 0]
        mv = mv + np.minimum(ev_slack, 0.0)
        return tv, lv, mv, lv * omegas + mv, np.maximum(ev_slack, 0.0)

    ub = np.where(snap_eta > 0.0, snap_lam * omegas + snap_mu + 2.0 * _NU / np.maximum(snap_eta, 1e-300), np.inf)
    t_l, lam_l, mu_l, val_l, slk_l = _restore(t, lam, mu)
    t_s, lam_s, mu_s, val_s, slk_s = _restore(snap_t, snap_lam, snap_mu)
    use_snap = val_s >= val_l
    t = np.where(use_snap[:, None], t_s, t_l)
    lam = np.where(use_snap, lam_s, lam_l)
    mu = np.where(use_snap, mu_s, mu_l)
    value = np.where(use_snap, val_s, val_l)
    psd_slack = np.where(use_snap, slk_s, slk_l)

    gap = ub - value
    status = np.where(infeasible, 2, np.where(gap <= 1e-6, 0, 1))
    value = np.where(infeasible, np.nan, value)
    return {
        "value": value,
        "lam": lam,
        "mu": mu,
        "t": t,
        "status": status,
        "gap_bound": gap,
        "iterations": iters,
        "psd_slack": psd_slack,
    }
