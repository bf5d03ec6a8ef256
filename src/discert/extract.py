"""Certified lower bounds on the extractability curve over a Bell-score range.

The continuous quantity is a min over qubit measurement angle pairs of the
per-pair fidelity program value.  A finite angle grid plus a Lipschitz
penalty turns that into finitely many 4x4 solves whose minimum is a valid
bound for every angle pair, not just the sampled ones: a cell enters the
minimum whenever its operator maximum clears the penalized threshold, and
each included cell is solved at the penalized score.

Sweeps run from the highest score knot downward.  A solution stored for a
cell at one knot stays feasible at every other knot (feasibility does not
involve the score), so lam*omega' + mu is a certified lower bound on that
cell's value at any omega'; cells whose bound already exceeds a proven
current minimum cannot tighten the knot minimum and are skipped.  Pruning
decisions depend only on stored bounds and a fixed-size seed batch, never
on worker timing, so results are identical for any worker count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bellops import AnglePair, BellFunctional, bell_operator_stack, chsh, lipschitz_constants
from .envelope import lower_convex_hull, step_extension
from .sdpcore import FabSolution, solve_fab_batch

__all__ = [
    "GridSpec",
    "ExtractabilityCurve",
    "xi_lower_bound",
    "analytic_curve",
    "bardyn_locc",
    "kaniewski_lo",
    "OMEGA_STAR",
]

FLOOR = 0.5
_SEED_BATCH = 256


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Angle grid spacing, penalty mode, and score knots for one sweep.

    mode 'paper' uses penalty delta*(c0+c1) (cells of double width around
    each grid point); 'tight' uses half of that (nearest-grid-point cells).
    The sweep visits ``knots`` evenly spaced scores from the functional's
    local maximum to its quantum maximum.
    """

    delta: float = 0.01
    mode: str = "paper"
    knots: int = 65

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= math.pi / 4:
            raise ValueError("delta must be in (0, pi/4]")
        if self.mode not in ("paper", "tight"):
            raise ValueError("mode must be 'paper' or 'tight'")
        if self.knots < 2:
            raise ValueError("knots must be >= 2")

    def penalty(self, functional: BellFunctional) -> float:
        c0, c1 = lipschitz_constants(functional)
        factor = 1.0 if self.mode == "paper" else 0.5
        return factor * self.delta * (c0 + c1)

    def angle_values(self) -> np.ndarray:
        """Grid values on [0, pi/2]; actual spacing is <= delta."""
        n = int(math.ceil((math.pi / 2) / self.delta)) + 1
        return np.linspace(0.0, math.pi / 2, n)

    def knots_for(self, functional: BellFunctional) -> np.ndarray:
        return np.linspace(functional.eta_l_max, functional.eta_q_max, self.knots)


def _is_swap_symmetric(f: BellFunctional) -> bool:
    g = f.gamma
    return g[0][1] == g[1][0] and f.cA == f.cB


def _solve_chunk(args) -> dict[str, np.ndarray]:
    bells, omega_prime = args
    return solve_fab_batch(bells, np.full(bells.shape[0], omega_prime))


def _solve_indices(
    bells: np.ndarray,
    idx: np.ndarray,
    omega_prime: float,
    pool: ProcessPoolExecutor | None,
    workers: int,
) -> dict[str, np.ndarray]:
    sub = bells[idx]
    if pool is None or idx.size < 2 * _SEED_BATCH:
        return _solve_chunk((sub, omega_prime))
    n_chunks = min(4 * workers, max(1, idx.size // _SEED_BATCH))
    parts = list(pool.map(_solve_chunk, [(c, omega_prime) for c in np.array_split(sub, n_chunks)]))
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


@dataclasses.dataclass(frozen=True)
class ExtractabilityCurve:
    """Convex non-decreasing certified lower-bound curve on score knots.

    ``values`` are the enveloped, floor/cap-clamped knot values; the curve
    evaluated anywhere in [first knot, last knot] (and trivially 1/2 left
    of the first knot) is a certified bound thanks to the monotone step
    extension taken before the envelope.  ``raw_values`` keep the
    pre-clamp per-knot grid minima; ``argmin_cells``/``argmin_solutions``
    keep each knot's minimizing cell witness when produced by a sweep.
    """

    functional: BellFunctional
    omegas: np.ndarray
    values: np.ndarray
    delta: float
    mode: str
    penalty: float
    raw_values: np.ndarray | None = None
    argmin_cells: tuple[AnglePair, ...] | None = None
    argmin_solutions: tuple[FabSolution, ...] | None = None

    def __post_init__(self) -> None:
        om = np.asarray(self.omegas, dtype=float)
        va = np.asarray(self.values, dtype=float)
        if om.ndim != 1 or om.shape != va.shape or om.size < 2:
            raise ValueError("need >= 2 knots with matching values")
        if not (np.all(np.isfinite(om)) and np.all(np.isfinite(va))):
            raise ValueError("knot scores and values must be finite")
        if not np.all(np.diff(om) > 0.0):
            raise ValueError("knots must be strictly ascending")
        if np.any(va < FLOOR - 1e-12) or np.any(va > 1.0 + 1e-12):
            raise ValueError("curve values must lie in [1/2, 1]")
        if np.any(np.diff(va) < -1e-12):
            raise ValueError("curve must be non-decreasing")
        slopes = np.diff(va) / np.diff(om)
        if np.any(np.diff(slopes) < -1e-9):
            raise ValueError("curve must be convex")
        om = om.copy()
        va = va.copy()
        om.setflags(write=False)
        va.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", va)

    def evaluate(self, omega):
        """Interpolated bound; 1/2 (the trivial bound) left of the first knot."""
        out = np.interp(np.asarray(omega, dtype=float), self.omegas, self.values)
        out = np.where(np.asarray(omega) < self.omegas[0], FLOOR, out)
        return float(out) if out.ndim == 0 else out

    __call__ = evaluate

    def meta(self) -> dict:
        return {
            "delta": self.delta,
            "mode": self.mode,
            "penalty": self.penalty,
            "floor": FLOOR,
        }

    def to_json(self) -> str:
        payload = {
            "functional": self.functional.name,
            "knots": [{"omega": float(x), "value": float(y)} for x, y in zip(self.omegas, self.values)],
            "meta": self.meta(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self, comment: str | None = None) -> str:
        lines = [f"# {comment}"] if comment else []
        lines.append("omega,value")
        lines += [f"{float(x)!r},{float(y)!r}" for x, y in zip(self.omegas, self.values)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json(cls, text: str, functional: BellFunctional | None = None) -> "ExtractabilityCurve":
        """Parse ``to_json`` output; malformed documents raise ValueError."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("curve document must be a JSON object")
        knots = payload.get("knots")
        if not isinstance(knots, list) or not all(isinstance(k, dict) for k in knots):
            raise ValueError("'knots' must be a list of objects")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError("'meta' must be an object")
        xs = np.array([k["omega"] for k in knots], dtype=float)
        ys = np.array([k["value"] for k in knots], dtype=float)
        name = payload.get("functional", "")
        if functional is None:
            if name != "chsh":
                raise ValueError(f"cannot resolve functional {name!r}; pass it explicitly")
            functional = chsh()
        return cls(
            functional=functional,
            omegas=xs,
            values=ys,
            delta=float(meta.get("delta", float("nan"))),
            mode=str(meta.get("mode", "paper")),
            penalty=float(meta.get("penalty", float("nan"))),
        )


def xi_lower_bound(f: BellFunctional, g: GridSpec, workers: int | None = None) -> ExtractabilityCurve:
    """Sweep the grid over the knots of ``g`` and assemble the certified curve.

    This is the package's one sweep; the CLI reaches it only through
    ``extract``, and everything downstream reads the curve files that
    command writes.  ``workers`` <= 1 runs serially; otherwise a process
    pool splits each batch of cell solves.  Every knot is minimized exactly
    over its feasible cells; ``raw_values`` are those grid minima.
    """
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    knots = g.knots_for(f)
    m = g.penalty(f)

    vals = g.angle_values()
    a_idx, b_idx = np.meshgrid(np.arange(vals.size), np.arange(vals.size), indexing="ij")
    a_idx = a_idx.ravel()
    b_idx = b_idx.ravel()
    if _is_swap_symmetric(f):
        keep = a_idx <= b_idx  # value is swap-invariant, solve one triangle
        a_idx, b_idx = a_idx[keep], b_idx[keep]
    bells = bell_operator_stack(f, vals[a_idx], vals[b_idx])
    lam_max = np.linalg.eigvalsh(bells)[:, -1]
    n_cells = bells.shape[0]

    have = np.zeros(n_cells, dtype=bool)
    s_lam = np.zeros(n_cells)
    s_mu = np.zeros(n_cells)

    order = np.argsort(knots)[::-1]
    raw = np.full(knots.size, np.nan)
    arg_cell = np.full(knots.size, -1, dtype=int)
    arg_sol: list[FabSolution | None] = [None] * knots.size
    valid = np.zeros(knots.size, dtype=bool)

    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for ki in order:
            omega_p = float(knots[ki]) - m
            feas = lam_max >= omega_p
            if not np.any(feas):
                continue
            valid[ki] = True

            new_idx = np.nonzero(feas & ~have)[0]
            old_idx = np.nonzero(feas & have)[0]
            bound = s_lam[old_idx] * omega_p + s_mu[old_idx]
            if old_idx.size > _SEED_BATCH:
                seed_pos = np.argpartition(bound, _SEED_BATCH)[:_SEED_BATCH]
                seed_pos = seed_pos[np.argsort(old_idx[seed_pos], kind="stable")]
            else:
                seed_pos = np.arange(old_idx.size)
            seed_idx = old_idx[seed_pos]

            first = np.sort(np.concatenate([new_idx, seed_idx]))
            out1 = _solve_indices(bells, first, omega_p, pool, workers)
            seed_min = float(np.min(out1["value"])) if first.size else math.inf

            rest_mask = np.ones(old_idx.size, dtype=bool)
            rest_mask[seed_pos] = False
            survivors = old_idx[rest_mask & (bound < seed_min)]
            out2 = _solve_indices(bells, survivors, omega_p, pool, workers)

            solved = np.concatenate([first, survivors])
            var_order = np.argsort(solved, kind="stable")
            solved = solved[var_order]
            full = {k: np.concatenate([out1[k], out2[k]])[var_order] for k in out1}
            have[solved] = True
            s_lam[solved] = full["lam"]
            s_mu[solved] = full["mu"]

            best = int(np.argmin(full["value"]))
            raw[ki] = float(full["value"][best])
            arg_cell[ki] = int(solved[best])
            arg_sol[ki] = FabSolution.from_batch(full, best)
    finally:
        if pool is not None:
            pool.shutdown()

    if not np.any(valid):
        raise ValueError("no score knot admits a feasible cell")
    omegas = knots[valid]
    raw_v = raw[valid]
    clamped = np.clip(raw_v, FLOOR, 1.0)
    # the knot bound v_i holds on all of [omega_i, omega_{i+1}] (the true
    # curve is non-decreasing), so the hull of the step extension
    # certifies every real score
    final = lower_convex_hull(step_extension(omegas, clamped))(omegas)
    cells = tuple(
        AnglePair(vals[a_idx[c]], vals[b_idx[c]]) for c in arg_cell[valid]
    )
    sols = tuple(s for s, ok in zip(arg_sol, valid) if ok)
    return ExtractabilityCurve(
        functional=f,
        omegas=omegas,
        values=final,
        delta=g.delta,
        mode=g.mode,
        penalty=m,
        raw_values=raw_v,
        argmin_cells=cells,
        argmin_solutions=sols,
    )


OMEGA_STAR = (16.0 + 14.0 * math.sqrt(2.0)) / 17.0

_S2 = 2.0 * math.sqrt(2.0)


def _check_range(omega: float) -> float:
    omega = float(omega)
    if not 2.0 - 1e-12 <= omega <= _S2 + 1e-12:
        raise ValueError("omega must lie in [2, 2*sqrt(2)]")
    return omega


def bardyn_locc(omega: float) -> float:
    """Tight analytic CHSH extractability under two-way free operations."""
    omega = _check_range(omega)
    return 0.5 * (1.0 + (omega - 2.0) / (_S2 - 2.0))


def kaniewski_lo(omega: float) -> float:
    """Analytic CHSH extractability under one-way free operations."""
    omega = _check_range(omega)
    return max(0.5 * (1.0 + (omega - OMEGA_STAR) / (_S2 - OMEGA_STAR)), 0.5)


def analytic_curve(kind: str) -> ExtractabilityCurve:
    """The closed-form CHSH references as exact knot curves.

    'bardyn_locc' is the line from (2, 1/2) to (2 sqrt 2, 1);
    'kaniewski_lo' stays at 1/2 up to OMEGA_STAR and then rises to 1.
    """
    if kind == "bardyn_locc":
        omegas, values = [2.0, _S2], [0.5, 1.0]
    elif kind == "kaniewski_lo":
        omegas, values = [2.0, OMEGA_STAR, _S2], [0.5, 0.5, 1.0]
    else:
        raise ValueError("kind must be 'bardyn_locc' or 'kaniewski_lo'")
    return ExtractabilityCurve(
        functional=chsh(), omegas=omegas, values=values, delta=0.0, mode="analytic", penalty=0.0
    )
