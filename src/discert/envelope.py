"""Piecewise-linear curves, convex/concave hulls, and the penalty function.

Security statements consume two curve-shaped objects: a convex
non-decreasing fidelity curve and a concave non-increasing penalty
G_eps(omega) that upper-bounds max(sqrt(1 - Xi(omega)) - eps, 0).  This
module owns the one-dimensional machinery for both: validated piecewise
linear interpolants, monotone-chain hulls, and the sampling construction
that turns a fidelity curve into a penalty curve without ever dipping
below the true function.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PiecewiseLinear",
    "PenaltyCurve",
    "lower_convex_hull",
    "upper_concave_hull",
    "build_g_epsilon",
    "knots_to_json",
    "knots_from_json",
    "knots_to_csv",
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


def _dedupe_sorted(xs: np.ndarray, ys: np.ndarray, keep: str) -> tuple[np.ndarray, np.ndarray]:
    # xs already sorted; collapse duplicate abscissae to one representative
    out_x: list[float] = []
    out_y: list[float] = []
    pick = min if keep == "min" else max
    i = 0
    n = xs.size
    while i < n:
        j = i
        y = ys[i]
        while j + 1 < n and xs[j + 1] == xs[i]:
            j += 1
            y = pick(y, ys[j])
        out_x.append(xs[i])
        out_y.append(y)
        i = j + 1
    return np.asarray(out_x), np.asarray(out_y)


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
    xs, ys = _dedupe_sorted(xs[order], ys[order], keep="min")
    if xs.size < 2:
        raise ValueError("need at least 2 distinct abscissae")
    hx, hy = _lower_chain(xs, ys)
    return PiecewiseLinear(hx, hy)


def upper_concave_hull(points) -> PiecewiseLinear:
    """Tightest concave piecewise-linear upper bound of a point set."""
    xs, ys = _as_points(points)
    order = np.argsort(xs, kind="stable")
    xs, ys = _dedupe_sorted(xs[order], ys[order], keep="max")
    if xs.size < 2:
        raise ValueError("need at least 2 distinct abscissae")
    hx, hy = _lower_chain(xs, -ys)
    return PiecewiseLinear(hx, -hy)


@dataclasses.dataclass(frozen=True)
class PenaltyCurve:
    """Concave, non-increasing upper bound on max(sqrt(1-Xi)-eps, 0).

    Evaluation clamps the argument into the curve span: the security
    theorems feed in shifted scores that can leave the quantum range, and
    the constant extension is the conservative reading at both ends.
    """

    base: PiecewiseLinear
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")
        xs, ys = self.base.xs, self.base.ys
        if np.any(ys < -1e-12) or np.any(ys > 1.0 + 1e-12):
            raise ValueError("penalty values must lie in [0, 1]")
        if np.any(np.diff(ys) > 1e-12):
            raise ValueError("penalty curve must be non-increasing")
        slopes = np.diff(ys) / np.diff(xs)
        if np.any(np.diff(slopes) > 1e-9):
            raise ValueError("penalty curve must be concave")

    def __call__(self, omega):
        lo, hi = self.base.span
        return self.base(np.clip(omega, lo, hi))

    @property
    def knot_xs(self) -> np.ndarray:
        return self.base.xs

    @property
    def knot_ys(self) -> np.ndarray:
        return self.base.ys

    def to_json(self, name: str = "", meta: dict | None = None) -> str:
        m = dict(meta or {})
        m["epsilon"] = self.epsilon
        return knots_to_json(name, self.base.xs, self.base.ys, m)

    def to_csv(self, comment: str | None = None) -> str:
        return knots_to_csv(self.base.xs, self.base.ys, comment)


_REFINE = 4  # penalty samples per knot interval of the fidelity curve


def _zero_crossing(pl: PiecewiseLinear, level: float) -> float | None:
    """Smallest x with pl(x) >= level, exact on the knot segments."""
    xs, ys = pl.xs, pl.ys
    if ys[0] >= level:
        return float(xs[0])
    for i in range(xs.size - 1):
        if ys[i + 1] >= level:
            if ys[i + 1] == ys[i]:
                return float(xs[i + 1])
            frac = (level - ys[i]) / (ys[i + 1] - ys[i])
            return float(xs[i] + frac * (xs[i + 1] - xs[i]))
    return None


def build_g_epsilon(xi, epsilon: float) -> PenaltyCurve:
    """Construct the penalty curve for a fidelity lower-bound curve.

    ``xi`` is a PiecewiseLinear, or a curve exposing to_piecewise_linear()
    and ``functional``, that is convex and non-decreasing.  h =
    max(sqrt(1-xi)-eps, 0) is sampled at four times the knot density over
    the functional's quantum range (a bare PiecewiseLinear: its knot
    span), each sample value is extended rightward across its interval
    (h is non-increasing, so the left value bounds the interval), and the
    upper concave hull of the extended set is returned.  The exact point
    where xi crosses 1 - eps^2 is inserted so the zero region of h is
    certified rather than resolution-limited.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if hasattr(xi, "to_piecewise_linear"):
        lo, hi = xi.functional.eta_q_min, xi.functional.eta_q_max
        xi = xi.to_piecewise_linear()
    elif isinstance(xi, PiecewiseLinear):
        lo, hi = xi.span
    else:
        raise TypeError("xi must be a PiecewiseLinear or provide to_piecewise_linear()")
    if np.any(np.diff(xi.ys) < -1e-9):
        raise ValueError("xi must be non-decreasing")
    slopes = np.diff(xi.ys) / np.diff(xi.xs)
    if np.any(np.diff(slopes) < -1e-9):
        raise ValueError("xi must be convex")

    step = float(np.min(np.diff(xi.xs))) / _REFINE
    n = max(int(math.ceil((hi - lo) / step)), 2)
    samples = np.linspace(lo, hi, n + 1)
    keep = [samples, xi.xs[(xi.xs > lo) & (xi.xs < hi)]]
    crossing = _zero_crossing(xi, 1.0 - epsilon**2)
    if crossing is not None and lo < crossing < hi:
        keep.append(np.array([crossing]))
    xs = np.unique(np.concatenate(keep))

    vals = np.clip(xi(xs), 0.0, 1.0)
    vals = np.where(xs < xi.xs[0], 0.5, vals)  # below-range scores certify only 1/2
    h = np.maximum(np.sqrt(np.maximum(1.0 - vals, 0.0)) - epsilon, 0.0)
    if crossing is not None:
        # h vanishes from the crossing onward in exact arithmetic; re-evaluating
        # the interpolant there can leave one-ulp residue, so pin it
        h[xs >= crossing] = 0.0
    # monotone step extension: h on [x_i, x_{i+1}] is at most h_i
    ext_x = np.concatenate([xs, xs[1:]])
    ext_y = np.concatenate([h, h[:-1]])
    hull = upper_concave_hull(np.column_stack([ext_x, ext_y]))
    return PenaltyCurve(base=hull, epsilon=float(epsilon))


def knots_to_json(name: str, xs: Sequence[float], ys: Sequence[float], meta: dict | None = None) -> str:
    payload = {
        "functional": name,
        "knots": [{"omega": float(x), "value": float(y)} for x, y in zip(xs, ys)],
        "meta": dict(meta or {}),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def knots_from_json(text: str) -> tuple[str, np.ndarray, np.ndarray, dict]:
    payload = json.loads(text)
    knots = payload["knots"]
    xs = np.array([k["omega"] for k in knots], dtype=float)
    ys = np.array([k["value"] for k in knots], dtype=float)
    return payload.get("functional", ""), xs, ys, payload.get("meta", {})


def knots_to_csv(xs: Iterable[float], ys: Iterable[float], comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("omega,value")
    for x, y in zip(xs, ys):
        lines.append(f"{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"
