import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discert.bellops import BellFunctional, chsh, score_to_value
from discert.extract import analytic_curve
from discert.security import (
    ProtocolConfig,
    SecurityReport,
    _terms,
    completeness,
    hoeffding_tail,
    kappa_for_target,
    soundness,
    zubkov_C,
)

RT2 = math.sqrt(2.0)
S2 = 2.0 * RT2
ANA = analytic_curve("bardyn_locc")


def binom_cdf(n, p, k):
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(0, k + 1))


def binom_cdf_log(n, p, k):
    """P[Bin(n, p) <= k], summing the pmf in log space (no overflow at n ~ 1e3)."""
    k = math.floor(k)
    if k < 0:
        return 0.0
    if k >= n or p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    lg = math.lgamma
    logs = [lg(n + 1) - lg(i + 1) - lg(n - i + 1) + i * math.log(p) + (n - i) * math.log1p(-p) for i in range(k + 1)]
    return min(math.fsum(math.exp(v) for v in logs), 1.0)


def two_point_pass_count(n, cut):
    """Largest win count W whose estimate (4/n)(2W - (n-1)) is at most ``cut``.

    The two-point round variable +-4 (CHSH, gamma* = 1) wins with
    probability p; the estimator is the one ``run_protocol`` computes.
    """
    w = math.floor((n * cut / 4.0 + (n - 1)) / 2.0)
    # guard the floor against the float rounding at exact ties
    while 4.0 / n * (2.0 * (w + 1) - (n - 1)) <= cut:
        w += 1
    while w >= 0 and 4.0 / n * (2.0 * w - (n - 1)) > cut:
        w -= 1
    return w


def p2(n=10_000, kappa=0.01, omega_sharp=2.82, epsilon=0.1, **kw):
    return ProtocolConfig(
        protocol=kw.pop("protocol", "P2"),
        n=n,
        kappa=kappa,
        curve=kw.pop("curve", ANA),
        omega_sharp=omega_sharp,
        epsilon=epsilon,
        **kw,
    )


def p4(n=10_000, kappa=0.01, p_win_sharp=0.85, epsilon=0.1, **kw):
    return ProtocolConfig(
        protocol=kw.pop("protocol", "P4"),
        n=n,
        kappa=kappa,
        curve=kw.pop("curve", ANA),
        p_win_sharp=p_win_sharp,
        epsilon=epsilon,
        **kw,
    )


class TestZubkov:
    def test_center_is_half(self):
        assert zubkov_C(10, 0.3, 3) == 0.5

    def test_clamps(self):
        assert zubkov_C(5, 0.4, -1) == 0.0
        assert zubkov_C(5, 0.4, 6) == 1.0

    def test_frozen_cdf_point(self):
        # exact CDF at n=10, p=0.3, k=3 is 0.6496107184
        exact = binom_cdf(10, 0.3, 3)
        assert exact == pytest.approx(0.6496107184, abs=1e-10)
        assert zubkov_C(10, 0.3, 3) <= exact <= zubkov_C(10, 0.3, 4)

    def test_sandwich_small_n(self):
        for n in range(1, 16):
            for p in np.arange(0.05, 0.96, 0.05):
                p = float(p)
                cdf = 0.0
                for k in range(0, n + 1):
                    cdf += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
                    assert zubkov_C(n, p, k) <= cdf + 1e-10
                    assert cdf <= zubkov_C(n, p, k + 1) + 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            zubkov_C(10, 0.0, 3)
        with pytest.raises(ValueError):
            zubkov_C(10, 1.0, 3)
        with pytest.raises(ValueError):
            zubkov_C(0, 0.5, 0)


class TestHoeffding:
    def test_unit_exponent(self):
        # r = w sqrt(n/2) makes the exponent exactly 1
        assert hoeffding_tail(8, 2.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_doubling_quarters_exponent(self):
        b1 = hoeffding_tail(50, 1.5, 1.0)
        b2 = hoeffding_tail(50, 3.0, 1.0)
        assert b2 == pytest.approx(b1**4, rel=1e-12)

    def test_monte_carlo_never_violates(self):
        rng = np.random.default_rng(5)
        n, trials = 50, 100_000
        sums = rng.random((trials, n)).sum(axis=1)
        for r in (1.0, 2.0, 3.0):
            emp = float(np.mean(sums - n / 2.0 >= r))
            bound = hoeffding_tail(n, r, 1.0)
            sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
            assert emp <= bound + 3.0 * sigma + 1e-4

    def test_validation(self):
        # non-positive deviations carry the trivial bound; arrays pass through
        assert hoeffding_tail(10, 0.0, 1.0) == 1.0
        assert hoeffding_tail(10, -3.0, 1.0) == 1.0
        out = hoeffding_tail(8, np.array([-1.0, 2.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, math.exp(-1.0)])


class TestConfig:
    def test_accepts_valid(self):
        assert p2().is_parallel
        assert not p4().is_parallel

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            p2(protocol="P9")
        with pytest.raises(ValueError):
            p2(n=1)
        with pytest.raises(ValueError):
            p2(n=2.5)
        for kappa in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                p2(kappa=kappa)
        for epsilon in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                p2(epsilon=epsilon)

    def test_p1_fixes_epsilon(self):
        assert p2(protocol="P1", epsilon=0.0).protocol == "P1"
        with pytest.raises(ValueError):
            p2(protocol="P1", epsilon=0.1)

    def test_threshold_kind_must_match_protocol(self):
        with pytest.raises(ValueError):
            ProtocolConfig(protocol="P2", n=100, kappa=0.01, curve=ANA, p_win_sharp=0.8)
        with pytest.raises(ValueError):
            ProtocolConfig(protocol="P2", n=100, kappa=0.01, curve=ANA)
        with pytest.raises(ValueError):
            ProtocolConfig(protocol="P4", n=100, kappa=0.01, curve=ANA, omega_sharp=2.8)
        with pytest.raises(ValueError):
            p2(omega_sharp=3.0)
        with pytest.raises(ValueError):
            p4(p_win_sharp=1.2)

    def test_abort_rules(self):
        assert p2(kappa=0.02, omega_sharp=2.8).parallel_cut == 2.8 - 0.02
        # losses among n-1 = 99 tested rounds: floor(99 * (1 - 0.85 + 0.05)) = 19
        assert p4(n=100, kappa=0.05, p_win_sharp=0.85).loss_threshold == 19

    def test_sequential_needs_game_form(self):
        tilted = BellFunctional(
            name="tilted",
            gamma=((1.0, 1.0), (1.0, -1.0)),
            cA=(0.5, 0.0),
            cB=(0.0, 0.0),
            eta_l_min=-2.5,
            eta_l_max=2.5,
            eta_q_min=-3.0,
            eta_q_max=3.0,
            gamma_star=1.0,
        )
        with pytest.raises(ValueError):
            p4(functional=tilted)


class TestTerms:
    def test_parallel_a_term_normalizations(self):
        # one normalization: a score sum of n-1 terms in [-4 gamma*, 4 gamma*]
        # must beat its mean by parallel_cut + (n-1) d, so the exponent is
        # (cut + (n-1) d)^2 / (32 (n-1) gamma*^2)
        cfg = p2(n=101, kappa=0.02, omega_sharp=2.82)
        a, _, _ = _terms(cfg)
        for d in (0.01, 0.1, 1.0):
            r = 2.8 + 100 * d
            assert float(a(d)) == pytest.approx(math.exp(-r * r / 3200.0), rel=1e-12)
        # a negative cut leaves small d with no deviation to bound
        neg = p2(n=101, kappa=0.02, omega_sharp=-2.0)
        a_neg, _, _ = _terms(neg)
        assert float(a_neg(0.01)) == 1.0
        assert float(a_neg(0.05)) == pytest.approx(math.exp(-(2.98**2) / 3200.0), rel=1e-9)

    def test_sequential_a_term_floors(self):
        cfg = p4(n=101)
        a, _, _ = _terms(cfg)
        # floor(100 d) jumps only at multiples of 1/100
        assert float(a(0.0099)) == 1.0
        assert float(a(0.01)) == pytest.approx(math.exp(-1.0 / 100.0))

    def test_sequential_b_clips_negative_counts(self):
        cfg = p4(n=50, kappa=0.2)
        _, b, hi = _terms(cfg)
        # delta near the bracket top drives the certified count negative;
        # the clipped score saturates the penalty at its left end
        v = float(b(hi - 1e-9))
        assert np.isfinite(v)
        assert 0.0 <= v <= 1.0

    def test_parallel_b_argument_shift(self):
        cfg = p2(n=1000)
        _, b, _ = _terms(cfg)
        g = ANA
        from discert.envelope import build_g_epsilon

        gc = build_g_epsilon(g, cfg.epsilon)
        d = 0.01
        arg = (999.0 / 1000.0) * (2.82 - 0.01 - d) + (-S2) / 1000.0
        assert float(b(d)) == pytest.approx(gc(arg), abs=1e-12)


class TestSoundness:
    def test_requires_curve(self):
        with pytest.raises(ValueError):
            soundness(p2(curve=None))

    def test_empty_bracket(self):
        with pytest.raises(ValueError):
            soundness(p2(omega_sharp=-S2))

    def test_report_consistency(self, curve_01):
        rep = soundness(p2(n=100_000, curve=curve_01))
        assert rep.eps_sound == max(rep.a_term, rep.b_term)
        assert 0.0 < rep.delta_star <= 2.82 + S2
        assert 0.0 < rep.eps_sound < 1.0
        parsed = json.loads(rep.to_json())
        assert parsed["protocol"] == "P2"
        assert parsed["meta"]["n"] == 100_000

    def test_duplicate_protocols(self):
        r2 = soundness(p2())
        r3 = soundness(p2(protocol="P3"))
        assert (r2.eps_sound, r2.eps_complete, r2.delta_star) == (
            r3.eps_sound,
            r3.eps_complete,
            r3.delta_star,
        )
        r4 = soundness(p4())
        r5 = soundness(p4(protocol="P5"))
        assert (r4.eps_sound, r4.eps_complete, r4.delta_star) == (
            r5.eps_sound,
            r5.eps_complete,
            r5.delta_star,
        )

    def test_monotone_trends(self):
        base = dict(n=100_000, kappa=0.005)
        more_rounds = [soundness(p2(n=n, kappa=0.005)).eps_sound for n in (10_000, 100_000, 1_000_000)]
        assert more_rounds[0] > more_rounds[1] > more_rounds[2]
        tighter = [soundness(p2(omega_sharp=w, **base)).eps_sound for w in (2.7, 2.8, S2)]
        assert tighter[0] > tighter[1] > tighter[2]
        slack = [soundness(p2(epsilon=e, **base)).eps_sound for e in (0.0, 0.1, 0.15)]
        assert slack[0] >= slack[1] >= slack[2]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_optimizer_beats_coarse_scan_parallel(self, seed):
        rng = np.random.default_rng(seed)
        cfg = p2(
            n=int(10 ** rng.uniform(2.0, 6.0)),
            kappa=float(rng.uniform(1e-4, 0.05)),
            omega_sharp=float(rng.uniform(2.0, S2)),
            epsilon=float(rng.choice([0.0, 0.05, 0.1, 0.15])),
        )
        a, b, hi = _terms(cfg)
        grid = np.linspace(1e-9, hi, 1500)
        coarse = float(np.min(np.maximum(a(grid), b(grid))))
        assert soundness(cfg).eps_sound <= coarse + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_optimizer_beats_coarse_scan_sequential(self, seed):
        rng = np.random.default_rng(seed)
        cfg = p4(
            n=int(10 ** rng.uniform(2.0, 5.0)),
            kappa=float(rng.uniform(1e-4, 0.05)),
            p_win_sharp=float(rng.uniform(0.76, 0.9)),
            epsilon=float(rng.choice([0.05, 0.1, 0.15])),
        )
        a, b, hi = _terms(cfg)
        grid = np.linspace(1e-9, hi, 1500)
        coarse = float(np.min(np.maximum(a(grid), b(grid))))
        assert soundness(cfg).eps_sound <= coarse + 1e-9


class TestCompleteness:
    def test_parallel_closed_form(self):
        # n = 2: one tested round, deviation r = 2 kappa - omega_sharp, bound exp(-r^2 / 32)
        kap = (math.sqrt(32.0) + 2.82) / 2.0
        assert completeness(p2(n=2, kappa=kap)) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert completeness(p2(n=2, kappa=2.0)) == pytest.approx(math.exp(-((4.0 - 2.82) ** 2) / 32.0))
        assert completeness(p2(n=2, kappa=1.0)) == 1.0  # 2 kappa < omega_sharp: no deviation to bound
        assert completeness(p2(n=100_001, kappa=1.0)) < 1e-100

    def test_sequential_sandwich(self):
        for n, psharp, kappa in ((21, 0.85, 0.03), (101, 0.8, 0.011), (16, 0.7, 0.2)):
            cfg = p4(n=n, p_win_sharp=psharp, kappa=kappa)
            val = completeness(cfg)
            q = 1.0 - psharp
            thr = math.floor((n - 1) * (q + kappa))
            tail_gt = 1.0 - binom_cdf(n - 1, q, thr)
            tail_ge = 1.0 - binom_cdf(n - 1, q, thr - 1)
            assert tail_gt - 1e-12 <= val <= tail_ge + 1e-12

    def test_sequential_center_value(self):
        # threshold lands exactly on the mean count, where the rate bound
        # degenerates to one half
        assert completeness(p4(n=11, p_win_sharp=0.7, kappa=1e-12)) == 0.5

    def test_kappa_drives_abort_down(self):
        vals = [completeness(p2(kappa=k)) for k in (0.001, 0.01, 0.05)]
        assert vals[0] > vals[1] > vals[2]


class TestKappaForTarget:
    def test_parallel_exact(self):
        cfg = p2(n=100_000)
        kap = kappa_for_target(cfg, 0.01)
        # (8 sqrt(99999 ln(100) / 2) + 2.82) / 1e5
        assert kap == pytest.approx(0.0384162, abs=1e-7)
        assert completeness(dataclasses.replace(cfg, kappa=kap)) <= 0.01
        assert completeness(dataclasses.replace(cfg, kappa=kap * 0.999)) > 0.01
        for omega_sharp in (-2.0, 0.0, S2):
            for n in (2, 37, 5_000):
                c = p2(n=n, omega_sharp=omega_sharp)
                k = kappa_for_target(c, 0.05)
                assert completeness(dataclasses.replace(c, kappa=k)) <= 0.05
                assert completeness(dataclasses.replace(c, kappa=k * (1.0 - 1e-6))) > 0.05

    def test_sequential_bisected(self):
        cfg = p4(n=50_000)
        kap = kappa_for_target(cfg, 0.01)
        assert completeness(dataclasses.replace(cfg, kappa=kap)) <= 0.01
        assert completeness(dataclasses.replace(cfg, kappa=kap * 0.999)) > 0.01

    def test_target_validation(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                kappa_for_target(p2(), bad)


class TestReportAndSweeps:
    def test_report_validation(self):
        with pytest.raises(ValueError):
            SecurityReport(
                protocol="P2",
                eps_sound=0.5,
                eps_complete=0.01,
                delta_star=0.01,
                a_term=0.3,
                b_term=0.4,
                meta={},
            )
        with pytest.raises(ValueError):
            SecurityReport(
                protocol="P2",
                eps_sound=2.5,
                eps_complete=0.01,
                delta_star=0.01,
                a_term=2.5,
                b_term=0.4,
                meta={},
            )

    def test_sweep_over_n(self):
        reports = [soundness(p2(n=n)) for n in (1_000, 10_000, 100_000)]
        es = [r.eps_sound for r in reports]
        assert es[0] > es[1] > es[2]
        assert [r.meta["n"] for r in reports] == [1_000, 10_000, 100_000]


class TestParallelBoundIsExact:
    """The P1..P3 bounds against exact tails of the worst two-point round.

    Each tested round scores +4 gamma* or -4 gamma*; a variable on those
    two points with mean m is the extreme case Hoeffding's bound must
    cover.  The tails are exact binomial sums of the estimator that
    ``run_protocol`` computes, (4/n) times the sum over n-1 tested rounds.
    """

    NS = (2, 10, 50, 200, 1000)

    def test_completeness_bounds_exact_abort_probability(self):
        for n in self.NS:
            for omega_sharp in (-2.5, 0.0, 2.0, 2.75, S2):
                p = 0.5 * (1.0 + omega_sharp / 4.0)
                base = p2(protocol="P3", n=n, omega_sharp=omega_sharp)
                kappas = [kappa_for_target(base, t) for t in (0.5, 0.05, 0.01)]
                for kappa in kappas + [0.01, 0.1, 1.0]:
                    cfg = dataclasses.replace(base, kappa=kappa)
                    exact = binom_cdf_log(n - 1, p, two_point_pass_count(n, cfg.parallel_cut))
                    assert exact <= completeness(cfg) + 1e-12, (n, omega_sharp, kappa)

    def test_a_term_bounds_exact_pass_probability(self):
        # tested rounds with mean parallel_cut - d pass with probability <= a(d),
        # for either sign of the cut
        for n in self.NS:
            for omega_sharp, kappa in ((2.75, 0.05), (0.5, 0.3), (-1.0, 0.2), (-2.5, 1.0)):
                cfg = p2(n=n, kappa=kappa, omega_sharp=omega_sharp)
                a, _, hi = _terms(cfg)
                for d in np.linspace(1e-3, hi, 25):
                    mean = cfg.parallel_cut - d
                    if mean < -4.0:
                        continue
                    p = 0.5 * (1.0 + mean / 4.0)
                    passed = 1.0 - binom_cdf_log(n - 1, p, two_point_pass_count(n, cfg.parallel_cut))
                    assert passed <= float(a(d)) + 1e-12, (n, omega_sharp, kappa, d)
