"""Soundness and completeness calculators for the five certification protocols.

Protocols 1..3 estimate the Bell value from all rounds in parallel and
compare against a threshold omega_sharp - kappa; protocols 4 and 5 play
the rescaled game sequentially and count losses against a threshold
derived from p_win_sharp - kappa.  Soundness is an inner optimization
over a free split parameter delta > 0 between a concentration term a
(strictly decreasing in delta) and a curve term b (non-decreasing), so
the infimum of max{a, b} sits at their crossing when one exists.

Two exponent normalizations ship for the parallel concentration terms:
'paper' uses exp(-(n-1)x^2/gamma*), 'rigorous' the direct bounded-range
constant exp(-(n-1)x^2/(2 gamma*^2)).  Reports carry both headline
numbers so the discrepancy stays visible.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from . import envelope
from .bellops import BellFunctional, chsh, score_to_value

__all__ = [
    "ProtocolConfig",
    "SecurityReport",
    "soundness",
    "completeness",
    "kappa_for_target",
    "zubkov_C",
    "hoeffding_tail",
]

_PARALLEL = ("P1", "P2", "P3")
_SEQUENTIAL = ("P4", "P5")
_DELTA_LO = 1e-9
_SCAN_POINTS = 10_000
_BISECT_ITERS = 200


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _kl_binary(q: float, p: float) -> float:
    """KL divergence of Bernoulli(q) from Bernoulli(p), with 0 ln 0 := 0."""
    out = 0.0
    if q > 0.0:
        out += q * math.log(q / p)
    if q < 1.0:
        out += (1.0 - q) * math.log((1.0 - q) / (1.0 - p))
    return out


def zubkov_C(n: int, p: float, k: float) -> float:
    """Normal-CDF transform of the binomial KL rate at k successes of n.

    Sandwiches the exact CDF: C(n,p,k) <= P[X <= k] <= C(n,p,k+1).
    Arguments outside 0..n clamp to the trivial bounds 0 and 1 so
    threshold formulas may pass out-of-range counts.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        return 0.0
    if k > n:
        return 1.0
    q = k / n
    sign = 0.0 if q == p else math.copysign(1.0, q - p)
    # rounding can push the divergence a few ulp below zero when q ~ p
    return _phi(sign * math.sqrt(2.0 * n * max(_kl_binary(q, p), 0.0)))


def hoeffding_tail(n: int, r: float, range_width: float) -> float:
    """Bound P[sum - mean >= r] for n independent terms of given range."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    return math.exp(-2.0 * r * r / (n * range_width * range_width))


@dataclasses.dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one protocol run; validated on construction.

    ``curve`` supplies the certified extractability bound: a swept or
    analytic curve, read through its ``to_piecewise_linear`` and
    ``functional``.  Simulation-only configs may omit it; soundness
    requires it.
    """

    protocol: str
    n: int
    kappa: float
    curve: object | None = None
    functional: BellFunctional = dataclasses.field(default_factory=chsh)
    omega_sharp: float | None = None
    p_win_sharp: float | None = None
    epsilon: float = 0.0
    bound_mode: str = "paper"

    def __post_init__(self) -> None:
        if self.protocol not in _PARALLEL + _SEQUENTIAL:
            raise ValueError("protocol must be one of P1..P5")
        if int(self.n) != self.n or self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if self.protocol == "P1" and self.epsilon != 0.0:
            raise ValueError("P1 fixes epsilon = 0")
        if self.bound_mode not in ("paper", "rigorous"):
            raise ValueError("bound_mode must be 'paper' or 'rigorous'")
        if self.is_parallel:
            if self.omega_sharp is None or self.p_win_sharp is not None:
                raise ValueError("P1..P3 take omega_sharp, not p_win_sharp")
            f = self.functional
            if not f.eta_q_min - 1e-12 <= self.omega_sharp <= f.eta_q_max + 1e-12:
                raise ValueError("omega_sharp must lie in the quantum range")
        else:
            if self.p_win_sharp is None or self.omega_sharp is not None:
                raise ValueError("P4/P5 take p_win_sharp, not omega_sharp")
            if not 0.0 <= self.p_win_sharp <= 1.0:
                raise ValueError("p_win_sharp must lie in [0, 1]")
            if not self.functional.is_chsh:
                raise ValueError("sequential protocols are defined for the CHSH game only")

    @property
    def is_parallel(self) -> bool:
        return self.protocol in _PARALLEL

    @property
    def concentration_denom(self) -> float:
        """Exponent denominator of the parallel concentration bound."""
        g = self.functional.gamma_star
        return g if self.bound_mode == "paper" else 2.0 * g**2


@dataclasses.dataclass(frozen=True)
class SecurityReport:
    """Optimized soundness/completeness pair with the terms at delta*."""

    protocol: str
    eps_sound: float
    eps_complete: float
    delta_star: float
    a_term: float
    b_term: float
    bound_mode: str
    meta: dict

    def __post_init__(self) -> None:
        if abs(self.eps_sound - max(self.a_term, self.b_term)) > 1e-12:
            raise ValueError("eps_sound must equal max(a, b) at delta*")
        for v in (self.eps_sound, self.eps_complete, self.a_term, self.b_term):
            if not 0.0 <= v <= 2.0:
                raise ValueError("report values must lie in [0, 2]")

    def to_json(self) -> str:
        body = dataclasses.asdict(self)
        return json.dumps(body, indent=2, sort_keys=True)


def _fidelity_interp(curve):
    """Vectorized fidelity-bound evaluator, trivially 1/2 left of the knots."""
    pl = curve.to_piecewise_linear()

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < pl.xs[0], 0.5, np.interp(x, pl.xs, pl.ys))

    return ev


def _g_interp(curve, epsilon: float):
    """Vectorized evaluator for the concave penalty curve of ``curve``."""
    # looked up on the module at call time, so wrappers patched onto
    # ``envelope.build_g_epsilon`` (perfbench/tracing.py) see these calls
    g = envelope.build_g_epsilon(curve, epsilon)
    xs, ys = g.knot_xs, g.knot_ys

    def ev(x):
        return np.interp(x, xs, ys)

    return ev


def _terms(cfg: ProtocolConfig):
    """Build vectorized a(delta), b(delta) and the search bracket."""
    n = cfg.n
    f = cfg.functional
    if cfg.is_parallel:
        denom = cfg.concentration_denom

        def a(d):
            return np.exp(-(n - 1) * np.square(d) / denom)

        def arg(d):
            return ((n - 1) / n) * (cfg.omega_sharp - cfg.kappa - d) + f.eta_q_min / n

        if cfg.protocol == "P1":
            fid = _fidelity_interp(cfg.curve)

            def b(d):
                return np.sqrt(np.maximum(1.0 - fid(arg(d)), 0.0))

        else:
            gev = _g_interp(cfg.curve, cfg.epsilon)

            def b(d):
                return gev(arg(d))

        hi = cfg.omega_sharp - f.eta_q_min
    else:

        def a(d):
            return np.exp(-np.square(np.floor((n - 1) * np.asarray(d, dtype=float))) / (n - 1))

        gev = _g_interp(cfg.curve, cfg.epsilon)
        s2v = np.vectorize(score_to_value, otypes=[float])

        def b(d):
            count = np.floor((n - 1) * (cfg.p_win_sharp - cfg.kappa - np.asarray(d, dtype=float)))
            # negative certified win counts carry no information; the
            # clipped score maps below the quantum range and G saturates
            score = np.clip(count / n, 0.0, 1.0)
            return gev(s2v(score))

        hi = cfg.p_win_sharp
    return a, b, float(hi)


def soundness(cfg: ProtocolConfig) -> SecurityReport:
    """Minimize max{a(delta), b(delta)} over the bracket and report.

    Bisection locates the crossing of the decreasing a and
    non-decreasing b; a dense scan backstops step-shaped terms
    (sequential floors) and bracket-edge optima, and the better of the
    two candidates wins.
    """
    if cfg.curve is None:
        raise ValueError("soundness needs a curve in the config")
    a, b, hi = _terms(cfg)
    if hi <= _DELTA_LO:
        raise ValueError("empty delta bracket; thresholds leave no slack")

    lo = _DELTA_LO
    cands = [lo, hi]
    if (a(lo) - b(lo)) > 0.0 > (a(hi) - b(hi)):
        x0, x1 = lo, hi
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (x0 + x1)
            if (a(mid) - b(mid)) > 0.0:
                x0 = mid
            else:
                x1 = mid
        cands += [x0, x1]
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    obj_grid = np.maximum(a(grid), b(grid))
    cands.append(float(grid[int(np.argmin(obj_grid))]))

    cand_arr = np.asarray(cands)
    objs = np.maximum(a(cand_arr), b(cand_arr))
    best = int(np.argmin(objs))
    d_star = float(cand_arr[best])
    a_star, b_star = float(a(d_star)), float(b(d_star))

    meta = {
        "n": cfg.n,
        "kappa": cfg.kappa,
        "epsilon": cfg.epsilon,
        "functional": cfg.functional.name,
        "threshold": cfg.omega_sharp if cfg.is_parallel else cfg.p_win_sharp,
        "notes": [],
    }
    if cfg.is_parallel:
        other = dataclasses.replace(
            cfg, bound_mode="rigorous" if cfg.bound_mode == "paper" else "paper"
        )
        ao, bo, hio = _terms(other)
        go = np.linspace(_DELTA_LO, hio, _SCAN_POINTS)
        meta["eps_sound_other_mode"] = float(np.min(np.maximum(ao(go), bo(go))))
        meta["notes"].append(
            "concentration exponent normalization differs between modes; both headline values reported"
        )
    else:
        meta["notes"].append(
            "loss threshold uses the failure-count parameterization; curve argument floor divides by n"
        )
    return SecurityReport(
        protocol=cfg.protocol,
        eps_sound=float(max(a_star, b_star)),
        eps_complete=completeness(cfg),
        delta_star=d_star,
        a_term=a_star,
        b_term=b_star,
        bound_mode=cfg.bound_mode,
        meta=meta,
    )


def completeness(cfg: ProtocolConfig) -> float:
    """Abort probability bound for an honest device at the threshold."""
    n = cfg.n
    if cfg.is_parallel:
        val = 2.0 * math.exp(-(n - 1) * cfg.kappa**2 / cfg.concentration_denom)
    else:
        thr = math.floor((n - 1) * (1.0 - cfg.p_win_sharp + cfg.kappa))
        val = 1.0 - zubkov_C(n - 1, 1.0 - cfg.p_win_sharp, thr)
    return min(max(val, 0.0), 1.0)


def kappa_for_target(cfg: ProtocolConfig, target_eps_c: float) -> float:
    """Smallest kappa (up to bisection resolution) with completeness <= target."""
    if not 0.0 < target_eps_c < 1.0:
        raise ValueError("target must be in (0, 1)")
    if cfg.is_parallel:
        kap = math.sqrt(cfg.concentration_denom * math.log(2.0 / target_eps_c) / (cfg.n - 1))
        return kap * (1.0 + 1e-12)  # keep completeness at or below target after rounding
    lo = 1e-12
    hi = cfg.p_win_sharp + 2.0 / (cfg.n - 1)  # threshold saturates at n-1 losses
    if completeness(dataclasses.replace(cfg, kappa=hi)) > target_eps_c:
        raise ValueError("target unreachable for this configuration")
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if completeness(dataclasses.replace(cfg, kappa=mid)) <= target_eps_c:
            hi = mid
        else:
            lo = mid
    return hi
