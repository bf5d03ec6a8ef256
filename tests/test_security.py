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
        with pytest.raises(ValueError):
            hoeffding_tail(10, 0.0, 1.0)


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
        with pytest.raises(ValueError):
            p2(epsilon=-0.1)
        with pytest.raises(ValueError):
            p2(bound_mode="exact")

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
        cfg = p2(n=2)
        a, _, _ = _terms(cfg)
        assert float(a(1.0)) == pytest.approx(math.exp(-1.0))
        a_r, _, _ = _terms(dataclasses.replace(cfg, bound_mode="rigorous"))
        assert float(a_r(1.0)) == pytest.approx(math.exp(-0.5))

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

    @pytest.mark.parametrize("protocol, mode", [("P1", "paper"), ("P2", "rigorous"), ("P3", "paper")])
    def test_other_mode_matches_own_scan(self, protocol, mode):
        # eps_sound_other_mode reuses the curve term; it must equal the scan
        # minimum of a config built in the other mode from scratch
        cfg = p2(n=5_000, protocol=protocol, epsilon=0.0 if protocol == "P1" else 0.1, bound_mode=mode)
        other = dataclasses.replace(cfg, bound_mode="rigorous" if mode == "paper" else "paper")
        a, b, hi = _terms(other)
        grid = np.linspace(1e-9, hi, 10_000)
        assert soundness(cfg).meta["eps_sound_other_mode"] == float(np.min(np.maximum(a(grid), b(grid))))

    def test_rigorous_never_beats_paper(self):
        for n in (1_000, 100_000):
            rp = soundness(p2(n=n))
            rr = soundness(p2(n=n, bound_mode="rigorous"))
            assert rr.eps_sound >= rp.eps_sound - 1e-15
            assert rp.meta["eps_sound_other_mode"] >= rr.eps_sound - 1e-12

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
            bound_mode=str(rng.choice(["paper", "rigorous"])),
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
        assert completeness(p2(n=2, kappa=1.0)) == pytest.approx(2.0 * math.exp(-1.0))
        assert completeness(
            p2(n=2, kappa=2.0, bound_mode="rigorous")
        ) == pytest.approx(2.0 * math.exp(-2.0))
        # raw rigorous value at kappa 1 exceeds 1 and clamps
        assert completeness(p2(n=2, kappa=1.0, bound_mode="rigorous")) == 1.0
        assert completeness(p2(n=2, kappa=1e-9)) == 1.0  # clamped
        assert completeness(p2(n=1001, kappa=1.0)) < 1e-100

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
        assert kap == pytest.approx(0.00727899, abs=1e-7)
        assert completeness(dataclasses.replace(cfg, kappa=kap)) <= 0.01
        assert completeness(dataclasses.replace(cfg, kappa=kap * 0.999)) > 0.01

    def test_parallel_rigorous_mode(self):
        cfg = p2(n=100_000, bound_mode="rigorous")
        kap = kappa_for_target(cfg, 0.01)
        assert completeness(dataclasses.replace(cfg, kappa=kap)) <= 0.01
        assert kap == pytest.approx(math.sqrt(2.0) * 0.00727899, rel=1e-4)

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
                bound_mode="paper",
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
                bound_mode="paper",
                meta={},
            )

    def test_sweep_over_n(self):
        reports = [soundness(p2(n=n)) for n in (1_000, 10_000, 100_000)]
        es = [r.eps_sound for r in reports]
        assert es[0] > es[1] > es[2]
        assert [r.meta["n"] for r in reports] == [1_000, 10_000, 100_000]
