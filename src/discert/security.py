"""Soundness and completeness calculators for the five certification protocols.

Protocols 1..3 estimate the Bell value from all rounds in parallel and
compare against a threshold omega_sharp - kappa; protocols 4 and 5 play
the rescaled game sequentially and count losses against a threshold
derived from p_win_sharp - kappa.  Soundness is an inner optimization
over a free split parameter delta > 0 between a concentration term a
(non-increasing in delta) and a curve term b (non-decreasing), so
the infimum of max{a, b} sits at their crossing when one exists.

The parallel concentration terms bound the statistic the simulator
computes, omega_exp = (4/n) * sum over the n-1 tested rounds of
gamma~_xy * (+-1).  Each round term 4 gamma~_xy (+-1) lies in
[-4 gamma*, 4 gamma*], so Hoeffding's inequality for independent rounds
gives exp(-r^2 / (32 (n-1) gamma*^2)) for a deviation r of the sum.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from . import envelope
from .bellops import BellFunctional, chsh, score_to_value
from .extract import ExtractabilityCurve

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


def hoeffding_tail(n: int, r, range_width: float):
    """Hoeffding's bound exp(-2 r^2 / (n w^2)) on P[sum - mean >= r].

    The sum has n independent terms, each in an interval of width w =
    ``range_width``; the same bound holds for P[sum - mean <= -r].
    Deviations r <= 0 get the trivial bound 1.  ``r`` may be an array.
    """
    r = np.maximum(r, 0.0)
    return np.exp(-2.0 * r * r / (n * range_width * range_width))


@dataclasses.dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one protocol run; validated on construction.

    ``curve`` is the certified extractability curve Xi, swept or analytic
    (``extract.analytic_curve``).  P1 evaluates it directly; P2..P5 go
    through its penalty curve G_eps (``envelope.build_g_epsilon``).
    Simulation-only configs may omit it; soundness requires it.  The abort
    rules live here too: the parallel protocols abort at an observed Bell
    value at or below ``parallel_cut``, the sequential ones above
    ``loss_threshold`` losses.  The observed Bell value is (4/n) times the
    sum of the n-1 tested round scores, so an honest device with mean
    ``omega_sharp`` aborts on a deviation of n*kappa - omega_sharp in that sum.
    """

    protocol: str
    n: int
    kappa: float
    curve: ExtractabilityCurve | None = None
    functional: BellFunctional = dataclasses.field(default_factory=chsh)
    omega_sharp: float | None = None
    p_win_sharp: float | None = None
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.protocol not in _PARALLEL + _SEQUENTIAL:
            raise ValueError("protocol must be one of P1..P5")
        if int(self.n) != self.n or self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if not 0.0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")
        if self.protocol == "P1" and self.epsilon != 0.0:
            raise ValueError("P1 fixes epsilon = 0")
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

    def round_tail(self, r):
        """Bound for a deviation r of the n-1 tested round scores' sum; each spans 8 gamma*."""
        return hoeffding_tail(self.n - 1, r, 8.0 * self.functional.gamma_star)

    @property
    def parallel_cut(self) -> float:
        """P1..P3 abort when the observed Bell value is at most this."""
        return self.omega_sharp - self.kappa

    @property
    def loss_threshold(self) -> int:
        """P4/P5 abort when the losses among the n-1 tested rounds exceed this."""
        return math.floor((self.n - 1) * (1.0 - self.p_win_sharp + self.kappa))


@dataclasses.dataclass(frozen=True)
class SecurityReport:
    """Optimized soundness/completeness pair with the terms at delta*."""

    protocol: str
    eps_sound: float
    eps_complete: float
    delta_star: float
    a_term: float
    b_term: float
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


def _terms(cfg: ProtocolConfig):
    """Build vectorized a(delta), b(delta) and the search bracket."""
    n = cfg.n
    f = cfg.functional
    if cfg.protocol != "P1":
        # looked up on the module at call time, so wrappers patched onto
        # ``envelope.build_g_epsilon`` (perfbench/tracing.py) see this call
        g = envelope.build_g_epsilon(cfg.curve, cfg.epsilon)
    if cfg.is_parallel:

        def a(d):
            # tested rounds averaging at most parallel_cut - d pass only if
            # their score sum exceeds its mean by parallel_cut + (n-1) d
            return cfg.round_tail(cfg.parallel_cut + (n - 1) * d)

        def arg(d):
            return ((n - 1) / n) * (cfg.parallel_cut - d) + f.eta_q_min / n

        if cfg.protocol == "P1":

            def b(d):
                return np.sqrt(np.maximum(1.0 - cfg.curve.evaluate(arg(d)), 0.0))

        else:

            def b(d):
                return g(arg(d))

        hi = cfg.omega_sharp - f.eta_q_min
    else:

        def a(d):
            return np.exp(-np.square(np.floor((n - 1) * np.asarray(d, dtype=float))) / (n - 1))

        def b(d):
            count = np.floor((n - 1) * (cfg.p_win_sharp - cfg.kappa - np.asarray(d, dtype=float)))
            # negative certified win counts carry no information; the
            # clipped score maps below the quantum range and G saturates
            score = np.clip(count / n, 0.0, 1.0)
            return g(score_to_value(score))

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
            if mid == x0 or mid == x1:
                break  # adjacent floats: every further step would keep the bracket
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
    if not cfg.is_parallel:
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
        meta=meta,
    )


def completeness(cfg: ProtocolConfig) -> float:
    """Abort probability bound for an honest device at the threshold."""
    n = cfg.n
    if cfg.is_parallel:
        val = float(cfg.round_tail(n * cfg.kappa - cfg.omega_sharp))
    else:
        val = 1.0 - zubkov_C(n - 1, 1.0 - cfg.p_win_sharp, cfg.loss_threshold)
    return min(max(val, 0.0), 1.0)


def kappa_for_target(cfg: ProtocolConfig, target_eps_c: float) -> float:
    """Smallest kappa (up to bisection resolution) with completeness <= target."""
    if not 0.0 < target_eps_c < 1.0:
        raise ValueError("target must be in (0, 1)")
    if cfg.is_parallel:
        # round_tail(r) = target at r = 8 gamma* sqrt((n-1) ln(1/target) / 2)
        r = 8.0 * cfg.functional.gamma_star * math.sqrt((cfg.n - 1) * math.log(1.0 / target_eps_c) / 2.0)
        kap = (r + cfg.omega_sharp) / cfg.n
        if kap <= 0.0:
            raise ValueError("every kappa > 0 meets the target at this threshold")
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
