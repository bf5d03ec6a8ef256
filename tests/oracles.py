"""Independent reference implementations used only by the test suite.

They share no code path with the package routines they check: the
eigensolver is cyclic Jacobi in plain Python, and the barrier Newton
system is assembled from explicit inverses and einsum contractions.
"""

from __future__ import annotations

import math

import numpy as np


def _jacobi_sweeps(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi on a real symmetric matrix; returns (diagonalized a, V)."""
    n = a.shape[0]
    v = np.eye(n)
    scale = math.sqrt(float(np.sum(a * a))) or 1.0
    for _ in range(100):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += 2.0 * a[p, q] * a[p, q]
        if math.sqrt(off) <= 1e-15 * scale:
            return a, v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                # classic 2x2 rotation annihilating a[p, q]
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    raise RuntimeError("Jacobi eigensolver did not converge within 100 sweeps")


def jacobi_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of a real symmetric matrix."""
    m = np.array(mat, dtype=float)
    diag, v = _jacobi_sweeps(0.5 * (m + m.T))
    vals = np.diag(diag).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


def cone_newton_system_by_inverse(
    sig: np.ndarray, slack: np.ndarray, bells: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of -logdet(sigma) - logdet(slack) in (t, lam, mu).

    The textbook assembly: g_i = -tr(S^-1 A_i) and H_ij = tr(S^-1 A_i S^-1 A_j)
    with explicit inverses.  sigma moves along ``dirs`` (5, 4, 4); the
    slack along ``dirs``, -B and -I.
    """
    k = sig.shape[0]
    inv1 = np.linalg.inv(sig)
    inv2 = np.linalg.inv(slack)
    dirs2 = np.empty((k, 7, 4, 4))
    dirs2[:, :5] = dirs
    dirs2[:, 5] = -bells
    dirs2[:, 6] = -np.eye(4)
    w1 = np.einsum("nab,ibc->niac", inv1, dirs)
    w2 = np.einsum("nab,nibc->niac", inv2, dirs2)
    grad = -np.einsum("niaa->ni", w2)
    grad[:, :5] -= np.einsum("niaa->ni", w1)
    hess = np.einsum("niab,njba->nij", w2, w2)
    hess[:, :5, :5] += np.einsum("niab,njba->nij", w1, w1)
    return grad, hess
