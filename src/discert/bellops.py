"""Two-input/two-output Bell functionals and their operators.

A functional is given by correlator coefficients gamma[x][y] and optional
single-party marginal coefficients cA[x], cB[y].  Measurements live in the
Z-X plane of the Bloch sphere: party observables are

    A_x(a) = cos(a) Z + (-1)^x sin(a) X,   B_y(b) = cos(b) Z + (-1)^y sin(b) X,

with (a, b) in the closed box [0, pi/2]^2.  Scores p of the associated
nonlocal game and Bell values omega are related by omega = 8 p - 4.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from .matqm import eig_sym, pauli

__all__ = [
    "AnglePair",
    "BellFunctional",
    "observable",
    "bell_operator",
    "bell_operator_stack",
    "lipschitz_constants",
    "max_quantum_value",
    "score_to_value",
    "value_to_score",
    "load_functional",
]

_HALF_PI = math.pi / 2.0
_X = pauli("X").real
_Z = pauli("Z").real
_I2 = np.eye(2)


@dataclasses.dataclass(frozen=True)
class AnglePair:
    """Measurement angle parameters (a, b), one per party."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (-1e-12 <= self.a <= _HALF_PI + 1e-12 and -1e-12 <= self.b <= _HALF_PI + 1e-12):
            raise ValueError(f"angles must lie in [0, pi/2], got ({self.a}, {self.b})")


@dataclasses.dataclass(frozen=True)
class BellFunctional:
    """Coefficients and value bounds of a two-input/two-output Bell functional.

    Bounds are (local min, local max, quantum min, quantum max).  gamma_star
    is the largest coefficient magnitude and bounds the per-round score
    variables used by the protocols.
    """

    name: str
    gamma: tuple[tuple[float, float], tuple[float, float]]
    cA: tuple[float, float]
    cB: tuple[float, float]
    eta_l_min: float
    eta_l_max: float
    eta_q_min: float
    eta_q_max: float
    gamma_star: float

    @property
    def has_marginals(self) -> bool:
        return self.cA != (0.0, 0.0) or self.cB != (0.0, 0.0)

    @property
    def is_chsh(self) -> bool:
        return self.gamma == ((1.0, 1.0), (1.0, -1.0)) and not self.has_marginals

    def coeff_rescaled(self, x: int, y: int) -> float:
        """gamma~_{xy} = (-1)^{xy} gamma_{xy}, the win/lose score weight."""
        return ((-1.0) ** (x * y)) * self.gamma[x][y]


def observable(theta: float, branch: int) -> np.ndarray:
    """Z-X plane qubit observable cos(theta) Z + (-1)^branch sin(theta) X."""
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    return math.cos(theta) * _Z + (-1.0) ** branch * math.sin(theta) * _X


def _observable_stack(thetas: np.ndarray, branch: int) -> np.ndarray:
    sign = 1.0 if branch == 0 else -1.0
    c = np.cos(thetas)[:, None, None]
    s = np.sin(thetas)[:, None, None]
    return c * _Z + sign * s * _X


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("lab,lcd->lacbd", a, b).reshape(-1, 4, 4)


def bell_operator_stack(func: BellFunctional, a_vals: np.ndarray, b_vals: np.ndarray) -> np.ndarray:
    """Bell operators of ``func`` for paired angle arrays, shape (n, 4, 4)."""
    a_vals = np.asarray(a_vals, dtype=float)
    b_vals = np.asarray(b_vals, dtype=float)
    eye = np.broadcast_to(_I2, (a_vals.size, 2, 2))
    ops_a = [_observable_stack(a_vals, 0), _observable_stack(a_vals, 1)]
    ops_b = [_observable_stack(b_vals, 0), _observable_stack(b_vals, 1)]
    out = np.zeros((a_vals.size, 4, 4))
    for x in (0, 1):
        for y in (0, 1):
            g = func.gamma[x][y]
            if g != 0.0:
                out += g * _kron_stack(ops_a[x], ops_b[y])
    for x in (0, 1):
        if func.cA[x] != 0.0:
            out += func.cA[x] * _kron_stack(ops_a[x], eye)
    for y in (0, 1):
        if func.cB[y] != 0.0:
            out += func.cB[y] * _kron_stack(eye, ops_b[y])
    return out


def bell_operator(func: BellFunctional, pair: AnglePair) -> np.ndarray:
    """The 4x4 real symmetric Bell operator of ``func`` at angles ``pair``."""
    return bell_operator_stack(func, np.array([pair.a]), np.array([pair.b]))[0]


def lipschitz_constants(func: BellFunctional) -> tuple[float, float]:
    """Angle-perturbation constants (c0, c1) for the two parties.

    Moving one party's angle by delta moves each of its observables by at
    most |delta| in operator norm, so the Bell operator moves by at most
    c0*|da| + c1*|db| with c0 = sum|cA| + sum|gamma|, c1 = sum|cB| + sum|gamma|.
    """
    g_sum = sum(abs(g) for row in func.gamma for g in row)
    c0 = sum(abs(c) for c in func.cA) + g_sum
    c1 = sum(abs(c) for c in func.cB) + g_sum
    return c0, c1


def max_quantum_value(func: BellFunctional, pair: AnglePair) -> float:
    """Largest eigenvalue of the Bell operator at the given angles."""
    return float(eig_sym(bell_operator(func, pair)).values[-1])


def score_to_value(p):
    """Convert game scores (win probabilities) to Bell values, omega = 8p - 4.

    Takes a scalar (returns a float) or an array; any score outside
    [0, 1] raises ValueError.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= -1e-12) & (p <= 1.0 + 1e-12)):
        raise ValueError(f"score must lie in [0, 1], got {p}")
    out = 8.0 * p - 4.0
    return float(out) if out.ndim == 0 else out


def value_to_score(omega: float) -> float:
    """Convert a Bell value to a game score, p = (omega + 4) / 8."""
    p = (omega + 4.0) / 8.0
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"Bell value {omega} falls outside the score range")
    return p


def _local_range(gamma, cA, cB) -> tuple[float, float]:
    """Exact local bounds by enumerating deterministic +-1 strategies."""
    vals = []
    for sa0 in (-1.0, 1.0):
        for sa1 in (-1.0, 1.0):
            for sb0 in (-1.0, 1.0):
                for sb1 in (-1.0, 1.0):
                    alpha = (sa0, sa1)
                    beta = (sb0, sb1)
                    v = sum(gamma[x][y] * alpha[x] * beta[y] for x in (0, 1) for y in (0, 1))
                    v += cA[0] * alpha[0] + cA[1] * alpha[1]
                    v += cB[0] * beta[0] + cB[1] * beta[1]
                    vals.append(v)
    return min(vals), max(vals)


def _golden_polish(f, lo, hi):
    """Golden-section minimizer of a unimodal-ish 1d slice, 60 steps."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
    return (lo + hi) / 2.0


def _quantum_range(func_like) -> tuple[float, float]:
    """Numerical quantum bounds: grid search plus coordinate-wise polish.

    Scans extreme eigenvalues of the Bell operator over a 61 x 61 grid of
    the angle box in one batched eigensolve and refines each extremum by
    alternating golden-section line searches.
    """
    grid = np.linspace(0.0, _HALF_PI, 61)

    def lam_extreme(a: float, b: float, top: bool) -> float:
        vals = eig_sym(bell_operator(func_like, AnglePair(a, b))).values
        return float(vals[-1] if top else vals[0])

    a_grid, b_grid = (m.ravel() for m in np.meshgrid(grid, grid, indexing="ij"))
    ev = np.linalg.eigvalsh(bell_operator_stack(func_like, a_grid, b_grid))
    # first extreme cell in row-major (a, b) order
    start = {True: int(np.argmax(ev[:, -1])), False: int(np.argmin(ev[:, 0]))}

    out = {}
    step = float(grid[1] - grid[0])
    for top in (True, False):
        a, b = float(a_grid[start[top]]), float(b_grid[start[top]])
        sign = -1.0 if top else 1.0
        for _ in range(4):  # alternate 1d polish on each coordinate
            a = _golden_polish(
                lambda t: sign * lam_extreme(t, b, top),
                max(0.0, a - step), min(_HALF_PI, a + step),
            )
            b = _golden_polish(
                lambda t: sign * lam_extreme(a, t, top),
                max(0.0, b - step), min(_HALF_PI, b + step),
            )
        out[top] = lam_extreme(a, b, top)
    return out[False], out[True]


def _build(name, gamma, cA, cB, bounds=None) -> BellFunctional:
    gamma_t = tuple(tuple(float(g) for g in row) for row in gamma)
    cA_t = tuple(float(c) for c in cA)
    cB_t = tuple(float(c) for c in cB)
    if len(gamma_t) != 2 or any(len(r) != 2 for r in gamma_t) or len(cA_t) != 2 or len(cB_t) != 2:
        raise ValueError("gamma must be 2x2 and cA, cB length 2")
    gamma_star = max(
        max(abs(g) for row in gamma_t for g in row),
        max((abs(c) for c in cA_t + cB_t), default=0.0),
    )
    if gamma_star == 0.0:
        raise ValueError("functional has all-zero coefficients")
    if bounds is not None:
        lmin, lmax, qmin, qmax = (float(bounds[k]) for k in ("eta_l_min", "eta_l_max", "eta_q_min", "eta_q_max"))
    else:
        lmin, lmax = _local_range(gamma_t, cA_t, cB_t)
        probe = BellFunctional(name, gamma_t, cA_t, cB_t, lmin, lmax, lmin, lmax, gamma_star)
        qmin, qmax = _quantum_range(probe)
        qmin = min(qmin, lmin)  # quantum range contains the local range
        qmax = max(qmax, lmax)
    if not (qmin <= lmin <= lmax <= qmax):
        raise ValueError("bounds must satisfy quantum-min <= local-min <= local-max <= quantum-max")
    return BellFunctional(name, gamma_t, cA_t, cB_t, lmin, lmax, qmin, qmax, gamma_star)


_RT2 = math.sqrt(2.0)


def chsh() -> BellFunctional:
    """The CHSH functional with its exact value bounds."""
    return BellFunctional(
        name="chsh",
        gamma=((1.0, 1.0), (1.0, -1.0)),
        cA=(0.0, 0.0),
        cB=(0.0, 0.0),
        eta_l_min=-2.0,
        eta_l_max=2.0,
        eta_q_min=-2.0 * _RT2,
        eta_q_max=2.0 * _RT2,
        gamma_star=1.0,
    )


def load_functional(spec: str, text: str | None = None) -> BellFunctional:
    """Load a functional by builtin name ('chsh') or from a JSON file.

    JSON format: {"gamma": [[g00, g01], [g10, g11]], "cA": [..], "cB": [..],
    "bounds": {"eta_l_min": .., "eta_l_max": .., "eta_q_min": .., "eta_q_max": ..}}
    with "bounds" optional (computed numerically when absent).  ``text`` is
    the file's content when the caller has already read it; the file is
    then not opened again.
    """
    if spec.lower() == "chsh":
        return chsh()
    if text is None:
        if not os.path.exists(spec):
            raise FileNotFoundError(f"no builtin functional or file named {spec!r}")
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("functional JSON must be an object")
    for key in ("gamma", "cA", "cB"):
        if key not in data:
            raise ValueError(f"functional JSON is missing key {key!r}")
    name = data.get("name", os.path.splitext(os.path.basename(spec))[0])
    return _build(name, data["gamma"], data["cA"], data["cB"], data.get("bounds"))
