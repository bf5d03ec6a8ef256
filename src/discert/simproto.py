"""Monte Carlo simulation of the five certification protocols.

One trial draws a stored index uniformly, feeds the remaining rounds
through modeled measurements with Born-rule outcomes, and applies the
protocol's exact abort test: empirical Bell value against
omega_sharp - kappa for the parallel protocols, a loss-count threshold
for the sequential ones.  Randomness is counter-based (Philox) and keyed
by (seed, trial, role), with the round index addressing a position in
the pre-drawn per-role array, so any execution schedule reproduces the
same records.

The models are the ones the CLI and scenario files build: an honest
isotropic source or the abort attack, measured by a fixed-angle device.
Device settings are plain angles in the Z-X plane, one per input per
party; they are not restricted to the sweep module's angle box (the
optimal CHSH device needs -pi/4).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .bellops import score_to_value
from .matqm import pauli
from .security import ProtocolConfig

__all__ = [
    "SourceModel",
    "DeviceModel",
    "TrialRecord",
    "run_protocol",
    "estimate_abort_rate",
    "seq_adversary_value",
    "transcript_csv",
    "Scenario",
    "load_scenario",
]

_X = pauli("X").real
_Z = pauli("Z").real
_I2 = np.eye(2)

_PHI_PLUS_VEC = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
_PHI_PLUS = np.outer(_PHI_PLUS_VEC, _PHI_PLUS_VEC)
_JUNK = np.zeros((4, 4))
_JUNK[0, 0] = 1.0  # |00><00|, separable

_ROLE_T, _ROLE_X, _ROLE_Y, _ROLE_OUT, _ROLE_FAST = range(5)


def _stream(seed: int, trial: int, role: int) -> Generator:
    return Generator(Philox(SeedSequence(seed, spawn_key=(trial, role))))


def _isotropic(mu: float) -> np.ndarray:
    return (1.0 - mu) * _PHI_PLUS + mu * np.eye(4) / 4.0


@dataclasses.dataclass(frozen=True)
class SourceModel:
    """Per-round two-qubit state family handed to the devices."""

    kind: str
    mu: float = 0.0
    t_good: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("honest_isotropic", "abort_attack"):
            raise ValueError("unknown source kind")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if self.kind == "abort_attack" and (self.t_good is None or self.t_good < 1):
            raise ValueError("abort_attack needs a positive t_good index")

    @classmethod
    def honest_isotropic(cls, mu: float) -> "SourceModel":
        return cls(kind="honest_isotropic", mu=float(mu))

    @classmethod
    def abort_attack(cls, t_good: int) -> "SourceModel":
        """Separable junk at index t_good, perfect singlets elsewhere."""
        return cls(kind="abort_attack", t_good=int(t_good))

    def states(self, n: int) -> np.ndarray:
        """Read-only (n, 4, 4) stack whose row i is the state of round i + 1."""
        if self.kind == "honest_isotropic":
            return np.broadcast_to(_isotropic(self.mu), (n, 4, 4))
        out = np.broadcast_to(_PHI_PLUS, (n, 4, 4)).copy()
        if self.t_good <= n:
            out[self.t_good - 1] = _JUNK
        out.setflags(write=False)
        return out


def _is_angle(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


@dataclasses.dataclass(frozen=True)
class DeviceModel:
    """Fixed measurement angles per party, indexed by that party's input."""

    kind: str
    alice: tuple[float, float] | None = None
    bob: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("optimal_chsh", "fixed_angles"):
            raise ValueError("unknown device kind")
        for side in ("alice", "bob"):
            pair = getattr(self, side)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(_is_angle, pair))):
                raise ValueError(f"{self.kind} needs two finite angles for {side}")
            object.__setattr__(self, side, (float(pair[0]), float(pair[1])))

    @classmethod
    def optimal_chsh(cls) -> "DeviceModel":
        return cls(
            kind="optimal_chsh",
            alice=(0.0, math.pi / 2),
            bob=(math.pi / 4, -math.pi / 4),
        )

    @classmethod
    def fixed_angles(cls, alice, bob) -> "DeviceModel":
        return cls(kind="fixed_angles", alice=alice, bob=bob)


def _obs(theta: float) -> np.ndarray:
    return math.cos(theta) * _Z + math.sin(theta) * _X


def _outcome_mats(theta_a: float, theta_b: float) -> np.ndarray:
    """The four joint projectors, indexed by outcome pair bits 2a+b."""
    pa = [(_I2 + s * _obs(theta_a)) / 2.0 for s in (+1.0, -1.0)]
    pb = [(_I2 + s * _obs(theta_b)) / 2.0 for s in (+1.0, -1.0)]
    return np.stack([np.kron(pa[a], pb[b]) for a in range(2) for b in range(2)])


_ROUND_FIELDS = ("x", "y", "a", "b", "w")


@dataclasses.dataclass(frozen=True, eq=False)
class TrialRecord:
    """Full transcript of one protocol trial.

    Per-round arrays (read-only ints) have length n with -1 sentinels at
    the stored index, which is never measured.  ``omega_exp`` is the parallel
    estimator (4/n) * sum of the signed score weights, or the win
    fraction converted to the Bell-value scale for sequential runs; the
    sequential abort decision itself uses the integer loss count.
    ``stored_state`` is the read-only 4x4 state of the stored round.
    """

    protocol: str
    n: int
    t: int
    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    omega_exp: float
    aborted: bool
    stored_state: np.ndarray

    def __post_init__(self) -> None:
        for f in _ROUND_FIELDS:
            arr = np.array(getattr(self, f), dtype=int)
            arr.setflags(write=False)
            object.__setattr__(self, f, arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialRecord):
            return NotImplemented
        scalar = ("protocol", "n", "t", "omega_exp", "aborted")
        return (
            all(getattr(self, f) == getattr(other, f) for f in scalar)
            and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _ROUND_FIELDS)
            and np.array_equal(self.stored_state, other.stored_state)
        )

    def wins(self) -> int:
        return int(self.w[self.w > 0].sum())


def transcript_csv(rec: TrialRecord) -> str:
    lines = ["round,x,y,a,b,w"]
    for i in range(rec.n):
        if i + 1 == rec.t:
            lines.append(f"{i + 1},,,,,")
        else:
            lines.append(f"{i + 1},{rec.x[i]},{rec.y[i]},{rec.a[i]},{rec.b[i]},{rec.w[i]}")
    return "\n".join(lines) + "\n"


def _require_game_form(cfg: ProtocolConfig) -> None:
    if cfg.functional.has_marginals:
        raise ValueError("round estimator supports correlator-only functionals")


def run_protocol(cfg: ProtocolConfig, src: SourceModel, dev: DeviceModel, seed: int, trial: int = 0) -> TrialRecord:
    """Execute one trial and return its record; deterministic per seed."""
    _require_game_form(cfg)
    n = cfg.n
    t = int(_stream(seed, trial, _ROLE_T).integers(1, n + 1))
    xs = _stream(seed, trial, _ROLE_X).integers(0, 2, size=n)
    ys = _stream(seed, trial, _ROLE_Y).integers(0, 2, size=n)
    us = _stream(seed, trial, _ROLE_OUT).random(n)
    measured = np.ones(n, dtype=bool)
    measured[t - 1] = False

    rhos = src.states(n)
    a_bits = np.full(n, -1, dtype=int)
    b_bits = np.full(n, -1, dtype=int)
    for xv in range(2):
        for yv in range(2):
            sel = measured & (xs == xv) & (ys == yv)
            if not sel.any():
                continue
            mats = _outcome_mats(dev.alice[xv], dev.bob[yv])
            probs = np.maximum(np.einsum("oij,nji->no", mats, rhos[sel]), 0.0)
            cum = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
            o = np.minimum((cum <= us[sel, None]).sum(axis=1), 3)
            a_bits[sel] = o >> 1
            b_bits[sel] = o & 1

    # win iff the signed outcome product matches the input product sign
    s = (1 - 2 * a_bits) * (1 - 2 * b_bits) * (1 - 2 * (xs & ys))
    w_bits = np.where(measured, (1 + s) // 2, -1)

    f = cfg.functional
    if cfg.is_parallel:
        gt = np.array([[f.coeff_rescaled(xv, yv) for yv in range(2)] for xv in range(2)])
        weights = gt[xs, ys] * (2 * w_bits - 1)
        omega_exp = 4.0 / n * float(weights[measured].sum())
        aborted = omega_exp <= cfg.parallel_cut
    else:
        nwins = int(w_bits[measured].sum())
        failures = (n - 1) - nwins
        aborted = failures > cfg.loss_threshold
        omega_exp = score_to_value(nwins / n)

    return TrialRecord(
        protocol=cfg.protocol,
        n=n,
        t=t,
        x=np.where(measured, xs, -1),
        y=np.where(measured, ys, -1),
        a=a_bits,
        b=b_bits,
        w=w_bits,
        omega_exp=float(omega_exp),
        aborted=bool(aborted),
        stored_state=rhos[t - 1],
    )


def _fast_win_prob(cfg: ProtocolConfig, src: SourceModel, dev: DeviceModel) -> float | None:
    """Per-round P(weight = +1) when rounds are i.i.d. sign variables."""
    if src.kind != "honest_isotropic":
        return None
    f = cfg.functional
    if any(abs(f.coeff_rescaled(x, y)) != 1.0 for x in range(2) for y in range(2)):
        return None
    corr = 0.0
    for x in range(2):
        for y in range(2):
            corr += f.gamma[x][y] * math.cos(dev.alice[x] - dev.bob[y])
    omega_true = (1.0 - src.mu) * corr
    return 0.5 + omega_true / 8.0


def estimate_abort_rate(cfg: ProtocolConfig, src: SourceModel, dev: DeviceModel, trials: int, seed: int):
    """Abort frequency over independent trials with a Wilson 95% interval.

    Honest i.i.d. unit-weight configurations shortcut through a
    binomial draw of each trial's win count, which is equal in
    distribution to the per-round path; anything else runs the full
    per-round simulation.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _require_game_form(cfg)
    n = cfg.n
    p = _fast_win_prob(cfg, src, dev)
    if p is not None:
        g = _stream(seed, 0, _ROLE_FAST)
        wins = g.binomial(n - 1, p, size=trials)
        if cfg.is_parallel:
            omega_exp = 4.0 / n * (2.0 * wins - (n - 1))
            aborts = int(np.sum(omega_exp <= cfg.parallel_cut))
        else:
            aborts = int(np.sum((n - 1) - wins > cfg.loss_threshold))
    else:
        aborts = sum(
            run_protocol(cfg, src, dev, seed, trial=k).aborted for k in range(trials)
        )
    rate = aborts / trials
    z = 1.959963984540054
    denom = trials + z * z
    center = (aborts + z * z / 2.0) / denom
    half = z * math.sqrt(aborts * (trials - aborts) / trials + z * z / 4.0) / denom
    return rate, (max(center - half, 0.0), min(center + half, 1.0))


def seq_adversary_value(mu_list, c: int) -> float:
    """Max P(wins >= c) over independent rounds with caps mu_i: product at the caps."""
    mu = [float(m) for m in mu_list]
    if len(mu) > 12:
        raise ValueError("exact value supported for n <= 12")
    if any(not 0.0 <= m <= 1.0 for m in mu):
        raise ValueError("mu entries must lie in [0, 1]")
    n = len(mu)
    dp = np.zeros(n + 1)
    dp[0] = 1.0
    for m in mu:
        dp[1:] = dp[1:] * (1.0 - m) + dp[:-1] * m
        dp[0] *= 1.0 - m
    return float(dp[max(int(c), 0) :].sum()) if c > 0 else 1.0


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A loadable simulation setup: protocol parameters plus models."""

    config: ProtocolConfig
    source: SourceModel
    device: DeviceModel
    seed: int
    trials: int


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _count(value, what: str) -> int:
    """A nonnegative JSON integer; integral floats such as 100.0 pass too."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral or value < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


def load_scenario(text: str) -> Scenario:
    """Parse a CHSH scenario JSON document into a protocol config and models."""
    data = _object(json.loads(text), "a scenario")
    if data.get("functional", "chsh") != "chsh":
        raise ValueError("scenarios are CHSH-only; simulate other functionals with --bell")
    cfg = ProtocolConfig(
        protocol=data["protocol"],
        n=_count(data["n"], "n"),
        kappa=float(data["kappa"]),
        omega_sharp=data.get("omega_sharp"),
        p_win_sharp=data.get("p_win_sharp"),
        epsilon=float(data.get("epsilon", 0.0)),
    )
    sdata = _object(data["source"], "the scenario source")
    if sdata["kind"] == "honest_isotropic":
        src = SourceModel.honest_isotropic(sdata.get("mu", 0.0))
    elif sdata["kind"] == "abort_attack":
        src = SourceModel.abort_attack(_count(sdata["t_good"], "t_good"))
    else:
        raise ValueError("scenario sources must be honest_isotropic or abort_attack")
    ddata = _object(data["device"], "the scenario device")
    if ddata["kind"] == "optimal_chsh":
        dev = DeviceModel.optimal_chsh()
    elif ddata["kind"] == "fixed_angles":
        dev = DeviceModel.fixed_angles(ddata["alice"], ddata["bob"])
    else:
        raise ValueError("scenario devices must be optimal_chsh or fixed_angles")
    return Scenario(
        config=cfg,
        source=src,
        device=dev,
        seed=_count(data.get("seed", 0), "seed"),
        trials=_count(data.get("trials", 1), "trials"),
    )
