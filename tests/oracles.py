"""Independent reference implementations used only by the test suite.

Each reaches its answer by a different route from the package code it
checks:

- ``jacobi_eig``: cyclic Jacobi eigensolver in plain Python;
- ``partial_trace``/``fidelity``: one-qubit partial trace and the
  fidelity with a pure target, by index contraction and plain traces;
- ``cone_newton_system_by_inverse``: the barrier Newton system from
  explicit inverses and einsum contractions;
- ``solve_one``: one fidelity program through the batch solver;
- ``supergrad_oracle``: first-order projected-supergradient solver of
  the fidelity program (real five-term or complex nine-term family);
- ``weak_duality_margin``/``weak_duality_witness``: sampled feasible
  states that no certified value may undercut;
- ``tightness_probe``: a complementary state that attains the value;
- ``feasible_cells``: the feasibility test over the full angle grid
  (no swap-symmetry reduction), as a list of pairs;
- ``seq_adversary_bruteforce``: backward induction over adaptive
  sequential strategies on a probability grid.
"""

from __future__ import annotations

import math

import numpy as np

from discert.bellops import AnglePair, BellFunctional, bell_operator_stack
from discert.extract import GridSpec
from discert.matqm import eig_sym, kron, pauli
from discert.sdpcore import _LAM_CAP, GENERATORS, FabSolution, solve_fab_batch

_DIRS = GENERATORS / 4.0
_PAULIS = {"X": pauli("X").real, "Y": pauli("Y"), "Z": pauli("Z").real}


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


def partial_trace(mat: np.ndarray, side: str) -> np.ndarray:
    """Trace out one qubit of a 4x4 two-qubit operator.

    side='A' removes the first tensor factor (returns the B marginal);
    side='B' removes the second (returns the A marginal).
    """
    m = np.asarray(mat)
    if m.shape != (4, 4):
        raise ValueError("partial_trace expects a 4x4 matrix")
    r = m.reshape(2, 2, 2, 2)  # indices a, b, a', b'
    if side.upper() == "A":
        return np.einsum("abac->bc", r)
    if side.upper() == "B":
        return np.einsum("abcb->ac", r)
    raise ValueError("side must be 'A' or 'B'")


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Fidelity tr[rho @ target] of a state with a pure target state.

    The target must satisfy tr[T] = 1 and tr[T^2] = 1 within 1e-8;
    anything else raises ValueError.
    """
    r, t = np.asarray(rho), np.asarray(target)
    if r.ndim != 2 or r.shape != t.shape or r.shape[0] != r.shape[1]:
        raise ValueError("state and target must be square matrices of one dimension")
    tr_t = complex(np.trace(t))
    purity = complex(np.trace(t @ t))
    if abs(tr_t - 1.0) > 1e-8 or abs(purity - 1.0) > 1e-8:
        raise ValueError("fidelity target must be a pure state (rank one)")
    val = complex(np.trace(r @ t))
    if abs(val.imag) > 1e-9:
        raise ValueError(f"fidelity came out non-real ({val!r}); inputs are not Hermitian")
    return float(val.real)


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


def _generators9() -> np.ndarray:
    return np.stack([kron(_PAULIS[i], _PAULIS[j]) for i in "XZY" for j in "XZY"])


def _project_coeffs(that: np.ndarray, dirs: np.ndarray, rounds: int = 12) -> np.ndarray:
    """Euclidean projection of coefficients onto {t : sigma(t) PSD}.

    The generators are Frobenius-orthogonal, so projecting t is projecting
    sigma onto the intersection of the PSD cone with the affine slice
    I/4 + span(dirs); Dykstra alternation between the two does that.
    """
    complex_path = np.iscomplexobj(dirs)
    eye = np.eye(4, dtype=complex if complex_path else float)
    x = eye / 4.0 + np.einsum("i,iab->ab", that, dirs)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(rounds):
        w, v = np.linalg.eigh(x + p)
        y = (v * np.maximum(w, 0.0)) @ v.conj().T
        p = x + p - y
        coeff = 4.0 * np.real(np.einsum("iab,ba->i", dirs.conj(), y + q))
        x_new = eye / 4.0 + np.einsum("i,iab->ab", coeff, dirs)
        q = y + q - x_new
        x = x_new
    t = 4.0 * np.real(np.einsum("iab,ba->i", dirs.conj(), x))
    lo = float(np.linalg.eigvalsh(x)[0])
    if lo < 0.0:  # mop up the Dykstra residual radially
        t = t * (0.25 / (0.25 - lo + 1e-15))
    return t


def solve_one(bell_op: np.ndarray, omega: float) -> FabSolution:
    """The barrier solver on one (bell_op, omega) instance."""
    return FabSolution.from_batch(solve_fab_batch(bell_op[None], [omega]), 0)


def supergrad_oracle(
    bell_op: np.ndarray,
    omega: float,
    iters: int = 1500,
    seed: int = 0,
    family: str = "real5",
) -> float:
    """Independent cross-check: projected supergradient ascent.

    Maximizes g(t, lam) = lam*omega + lambda_min(sigma(t) - lam*B) over the
    marginal-free family and lam >= 0, using deflected supergradients with
    adaptive target-level steps and Euclidean projection back onto the PSD
    slice.  Every iterate is feasible, so the running best is a certified
    value.  First-order throughout; shares no iterates or decompositions
    with the barrier solver.  family='complex9' uses all nine correlation
    products (complex Hermitian path).
    """
    if family == "real5":
        dirs = _DIRS
    elif family == "complex9":
        dirs = _generators9() / 4.0
    else:
        raise ValueError("family must be 'real5' or 'complex9'")
    m = dirs.shape[0]
    complex_path = np.iscomplexobj(dirs)
    b = bell_op.astype(complex) if complex_path else bell_op
    eye = np.eye(4, dtype=complex if complex_path else float)
    rng = np.random.default_rng(seed)

    best = -math.inf
    restarts = 2
    for r in range(restarts):
        if r == 0:
            t = np.zeros(m)
            lam = 0.3
        else:
            t = _project_coeffs(rng.normal(scale=0.4, size=m), dirs)
            lam = float(rng.uniform(0.0, 1.5))
        delta = 0.05
        d_prev = np.zeros(m + 1)
        since_improve = 0
        for k in range(iters // restarts):
            sig = eye / 4.0 + np.einsum("i,iab->ab", t, dirs)
            w, v = np.linalg.eigh(sig - lam * b)
            val = lam * omega + float(w[0])
            if val > best:
                if val > best + delta / 4.0:
                    since_improve = 0
                best = val
            since_improve += 1
            if since_improve > 150:  # level no longer reachable, tighten it
                delta = max(delta / 2.0, 1e-8)
                since_improve = 0
            u = v[:, 0]
            g_t = np.real(np.einsum("a,iab,b->i", u.conj(), dirs, u))
            g_lam = omega - float(np.real(u.conj() @ b @ u))
            g = np.concatenate([g_t, [g_lam]])
            beta = 0.0
            nd_prev = float(d_prev @ d_prev)
            if nd_prev > 0.0:
                beta = max(0.0, -1.5 * float(g @ d_prev) / nd_prev)
            d = g + beta * d_prev
            d_prev = d
            nd2 = float(d @ d)
            if nd2 < 1e-28:
                break
            alpha = (best + delta - val) / nd2
            t = _project_coeffs(t + alpha * d[:m], dirs)
            lam = min(max(lam + alpha * d[m], 0.0), _LAM_CAP)
    return best


def weak_duality_margin(
    solution: FabSolution,
    bell_op: np.ndarray,
    omega: float,
    samples: int = 1000,
    seed: int = 0,
) -> float:
    """min over sampled feasible states rho of tr[rho sigma] - value.

    States are drawn by mixing the top eigenvector of B with random states
    and rescaling the mixture so tr[B rho] >= omega.  A nonnegative return
    (within tolerance) is the weak-duality sanity check.
    """
    rng = np.random.default_rng(seed)
    es = eig_sym(bell_op)
    lam_max = float(es.values[-1])
    if omega > lam_max + 1e-9:
        raise ValueError("no feasible states: omega exceeds the operator maximum")
    psi = es.vectors[:, -1]
    top = np.outer(psi, psi)

    half = samples // 2
    ranks = [1] * half + [4] * (samples - half)
    sig = solution.sigma
    worst = math.inf
    batch = 512
    i = 0
    while i < samples:
        js = range(i, min(i + batch, samples))
        k = len(js)
        r = max(ranks[i : i + k])
        g = rng.normal(size=(k, 4, r)) + 1j * rng.normal(size=(k, 4, r))
        for jj, j in enumerate(js):
            if ranks[j] == 1:
                g[jj, :, 1:] = 0.0
        rho = np.einsum("nar,nbr->nab", g, g.conj())
        rho /= np.einsum("naa->n", rho).real[:, None, None]
        bval = np.einsum("nab,ba->n", rho, bell_op).real
        u = rng.uniform(size=k)
        target = omega + u * (lam_max - omega)
        denom = lam_max - bval
        q = np.where(denom > 1e-14, (target - bval) / np.where(denom > 1e-14, denom, 1.0), 0.0)
        q = np.clip(q, 0.0, 1.0)
        mixed = q[:, None, None] * top + (1.0 - q[:, None, None]) * rho
        fid = np.einsum("nab,ba->n", mixed, sig.astype(complex)).real
        worst = min(worst, float(np.min(fid) - solution.value))
        i += k
    return worst


def weak_duality_witness(
    solution: FabSolution,
    bell_op: np.ndarray,
    omega: float,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-8,
) -> bool:
    """True iff no sampled feasible state undercuts the certified value."""
    return weak_duality_margin(solution, bell_op, omega, samples, seed) >= -tol


def tightness_probe(bell_op: np.ndarray, omega: float, solution: FabSolution, null_tol: float = 1e-5) -> float:
    """|tr[rho* sigma] - value| for a complementary state rho*.

    rho* is built inside the (near-)null space of the slack matrix and mixed
    so that tr[B rho*] = omega whenever that score is achievable there.  At
    an optimum such a state exists and attains the bound exactly, so a small
    return value certifies tightness with an explicit attacking state.
    """
    slack = solution.sigma - solution.lam * bell_op - solution.mu * np.eye(4)
    es = eig_sym(slack)
    scale = max(1.0, float(np.max(np.abs(es.values))))
    null_dim = int(np.sum(es.values <= null_tol * scale))
    null_dim = max(null_dim, 1)
    v = es.vectors[:, :null_dim]
    m = v.T @ bell_op @ v
    em = eig_sym(m) if null_dim > 1 else None
    if em is None:
        u = v[:, 0]
        rho = np.outer(u, u)
    else:
        lo, hi = float(em.values[0]), float(em.values[-1])
        target = min(max(omega, lo), hi)
        q = 0.0 if hi <= lo else (target - lo) / (hi - lo)
        u_lo = v @ em.vectors[:, 0]
        u_hi = v @ em.vectors[:, -1]
        rho = q * np.outer(u_hi, u_hi) + (1.0 - q) * np.outer(u_lo, u_lo)
    return abs(float(np.einsum("ab,ba->", rho, solution.sigma)) - solution.value)


def feasible_cells(f: BellFunctional, omega: float, g: GridSpec) -> list[AnglePair]:
    """Grid pairs whose operator maximum clears omega minus the penalty."""
    vals = g.angle_values()
    a_idx, b_idx = np.meshgrid(np.arange(vals.size), np.arange(vals.size), indexing="ij")
    a_idx = a_idx.ravel()
    b_idx = b_idx.ravel()
    bells = bell_operator_stack(f, vals[a_idx], vals[b_idx])
    lam_max = np.linalg.eigvalsh(bells)[:, -1]
    mask = lam_max >= omega - g.penalty(f)
    return [AnglePair(vals[i], vals[j]) for i, j in zip(a_idx[mask], b_idx[mask])]


def seq_adversary_bruteforce(mu_list, c: int, grid_steps: int = 21) -> float:
    """Max P(wins >= c) over adaptive strategies with gridded round probabilities.

    Each round's conditional win probability is chosen from a uniform
    grid on [0, mu_i], possibly depending on the full prior win/lose
    history.  Continuation values depend on the history only through
    the win count, so backward induction over (round, wins) with a
    per-node grid max realizes the exact adaptive optimum for the
    gridded strategy class.
    """
    mu = [float(m) for m in mu_list]
    if len(mu) > 4:
        raise ValueError("brute force supported for n <= 4")
    if grid_steps < 2:
        raise ValueError("grid_steps must be >= 2")
    n = len(mu)
    value = np.array([1.0 if wins >= c else 0.0 for wins in range(n + 1)])
    for i in range(n - 1, -1, -1):
        grid = np.linspace(0.0, mu[i], grid_steps)
        nxt = np.empty(i + 1)
        for wins in range(i + 1):
            nxt[wins] = np.max(grid * value[wins + 1] + (1.0 - grid) * value[wins])
        value = nxt
    return float(value[0])
