"""Piecewise-linear curves, convex/concave hulls, and the penalty function.

Security statements consume two curves: the certified fidelity curve
Xi(omega) (``extract.ExtractabilityCurve``) and the concave
non-increasing penalty G_eps(omega) that upper-bounds
max(sqrt(1 - Xi(omega)) - eps, 0).  This module owns the one-dimensional
machinery behind both: the validated piecewise-linear interpolant (which
is what a penalty curve is), monotone-chain hulls, the monotone step
extension, and the sampling construction that turns a fidelity curve
into its penalty curve without ever dipping below the true function.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "PiecewiseLinear",
    "lower_convex_hull",
    "upper_concave_hull",
    "step_extension",
    "build_g_epsilon",
]


@dataclasses.dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolant through strictly ascending knots.

    Outside the knot span it is constant at the end values.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need two 1-d arrays with at least 2 knots")
        if not np.all(np.diff(xs) > 0.0):
            raise ValueError("knot abscissae must be strictly ascending")
        xs = xs.copy()
        ys = ys.copy()
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.ys)
        return float(out) if out.ndim == 0 else out

    @property
    def span(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])


def _as_points(points) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 2:
        xs, ys = arr[:, 0], arr[:, 1]
    elif arr.ndim == 2 and arr.shape[0] == 2:
        xs, ys = arr[0], arr[1]
    else:
        raise ValueError("points must be an (n, 2) array-like")
    if xs.size < 2:
        raise ValueError("need at least 2 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("points must be finite")
    return xs, ys


def _lower_chain(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(xs, ys):
        # pop while the last turn is not strictly convex (collinear dropped)
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (y - hy[-2]) - (hy[-1] - hy[-2]) * (x - hx[-2])
            if cross <= 0.0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(x)
        hy.append(y)
    return np.asarray(hx), np.asarray(hy)


def lower_convex_hull(points) -> PiecewiseLinear:
    """Tightest convex piecewise-linear lower bound of a point set."""
    xs, ys = _as_points(points)
    order = np.argsort(xs, kind="stable")
    # one point per abscissa, the lowest
    ux, start = np.unique(xs[order], return_index=True)
    if ux.size < 2:
        raise ValueError("need at least 2 distinct abscissae")
    hx, hy = _lower_chain(ux, np.minimum.reduceat(ys[order], start))
    return PiecewiseLinear(hx, hy)


def upper_concave_hull(points) -> PiecewiseLinear:
    """Tightest concave piecewise-linear upper bound of a point set."""
    xs, ys = _as_points(points)
    low = lower_convex_hull(np.column_stack([xs, -ys]))
    return PiecewiseLinear(low.xs, -low.ys)


def step_extension(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Points (x_i, y_i) and (x_{i+1}, y_i): each value held across the next interval.

    A monotone function bounded by y_i at x_i is bounded by y_i on all of
    [x_i, x_{i+1}] (from below if non-decreasing, from above if
    non-increasing), so a hull of these points bounds it everywhere.
    """
    return np.column_stack([np.concatenate([xs, xs[1:]]), np.concatenate([ys, ys[:-1]])])


_REFINE = 4  # penalty samples per knot interval of the fidelity curve


def _zero_crossing(xs: np.ndarray, ys: np.ndarray, level: float) -> float | None:
    """Smallest x with the knot interpolant at or above level, exact on its segments."""
    i = int(np.argmax(ys >= level))
    if not ys[i] >= level:
        return None
    if i == 0 or ys[i] == ys[i - 1]:
        return float(xs[i])
    frac = (level - ys[i - 1]) / (ys[i] - ys[i - 1])
    return float(xs[i - 1] + frac * (xs[i] - xs[i - 1]))


def build_g_epsilon(xi, epsilon: float) -> PiecewiseLinear:
    """Construct the penalty curve G_eps for a fidelity lower-bound curve.

    ``xi`` is an ``ExtractabilityCurve`` or a bare PiecewiseLinear, convex
    and non-decreasing.  h = max(sqrt(1-xi)-eps, 0) is sampled at four
    times the knot density over the functional's quantum range (a bare
    PiecewiseLinear: its knot span), each sample value is extended
    rightward across its interval (h is non-increasing, so the left value
    bounds the interval), and the upper concave hull of the extended set
    is returned.  The exact point where xi crosses 1 - eps^2 is inserted
    so the zero region of h is certified rather than resolution-limited.

    The result is concave, non-increasing and valued in [0, 1]; evaluated
    outside its span it is constant at the end values, the conservative
    reading for shifted scores that leave the quantum range.
    """
    if not epsilon >= 0.0:
        raise ValueError("epsilon must be nonnegative")
    if isinstance(xi, PiecewiseLinear):
        lo, hi = xi.span
        knot_xs, knot_ys = xi.xs, xi.ys
    elif hasattr(xi, "evaluate") and hasattr(xi, "functional"):
        lo, hi = xi.functional.eta_q_min, xi.functional.eta_q_max
        knot_xs, knot_ys = xi.omegas, xi.values
    else:
        raise TypeError("xi must be an ExtractabilityCurve or a PiecewiseLinear")
    if np.any(np.diff(knot_ys) < -1e-9):
        raise ValueError("xi must be non-decreasing")
    slopes = np.diff(knot_ys) / np.diff(knot_xs)
    if np.any(np.diff(slopes) < -1e-9):
        raise ValueError("xi must be convex")

    step = float(np.min(np.diff(knot_xs))) / _REFINE
    n = max(int(math.ceil((hi - lo) / step)), 2)
    samples = np.linspace(lo, hi, n + 1)
    keep = [samples, knot_xs[(knot_xs > lo) & (knot_xs < hi)]]
    crossing = _zero_crossing(knot_xs, knot_ys, 1.0 - epsilon**2)
    if crossing is not None and lo < crossing < hi:
        keep.append(np.array([crossing]))
    xs = np.unique(np.concatenate(keep))

    # a curve certifies only 1/2 left of its first knot; a bare
    # PiecewiseLinear is sampled on its own span only
    vals = np.clip(xi(xs), 0.0, 1.0)
    h = np.maximum(np.sqrt(np.maximum(1.0 - vals, 0.0)) - epsilon, 0.0)
    if crossing is not None:
        # h vanishes from the crossing onward in exact arithmetic; re-evaluating
        # the interpolant there can leave one-ulp residue, so pin it
        h[xs >= crossing] = 0.0
    g = upper_concave_hull(step_extension(xs, h))
    if np.any(g.ys < -1e-12) or np.any(g.ys > 1.0 + 1e-12):
        raise ValueError("penalty values must lie in [0, 1]")
    if np.any(np.diff(g.ys) > 1e-12):
        raise ValueError("penalty curve must be non-increasing")
    slopes = np.diff(g.ys) / np.diff(g.xs)
    if np.any(np.diff(slopes) > 1e-9):
        raise ValueError("penalty curve must be concave")
    return g
