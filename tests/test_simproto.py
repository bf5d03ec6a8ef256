import dataclasses
import json
import math

import numpy as np
import pytest

from discert.bellops import BellFunctional, score_to_value
from discert.security import ProtocolConfig, kappa_for_target
from discert.simproto import (
    DeviceModel,
    SourceModel,
    TrialRecord,
    estimate_abort_rate,
    load_scenario,
    run_protocol,
    seq_adversary_value,
    transcript_csv,
)
from oracles import seq_adversary_bruteforce

RT2 = math.sqrt(2.0)
S2 = 2.0 * RT2
PHI = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]) / 2.0
OPT = DeviceModel.optimal_chsh()


def p2(n=200, kappa=0.05, omega_sharp=2.5, **kw):
    return ProtocolConfig(
        protocol="P2", n=n, kappa=kappa, omega_sharp=omega_sharp, epsilon=0.1, **kw
    )


def p4(n=200, kappa=0.03, p_win_sharp=0.85, **kw):
    return ProtocolConfig(
        protocol="P4", n=n, kappa=kappa, p_win_sharp=p_win_sharp, epsilon=0.1, **kw
    )


def observable(theta):
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return math.cos(theta) * z + math.sin(theta) * x


def joint_probs(rho, ta, tb):
    out = np.empty((2, 2))
    for a in (0, 1):
        for b in (0, 1):
            pa = (np.eye(2) + (1 - 2 * a) * observable(ta)) / 2.0
            pb = (np.eye(2) + (1 - 2 * b) * observable(tb)) / 2.0
            out[a, b] = float(np.trace(np.kron(pa, pb) @ rho).real)
    return out


class TestModels:
    def test_source_validation(self):
        with pytest.raises(ValueError):
            SourceModel(kind="alien")
        with pytest.raises(ValueError):
            SourceModel.honest_isotropic(1.5)
        with pytest.raises(ValueError):
            SourceModel(kind="custom_state_list")
        with pytest.raises(ValueError):
            SourceModel.abort_attack(0)

    def test_state_for(self):
        # states(n) row i is the state of round i + 1, and the stack is read-only
        iso = SourceModel.honest_isotropic(0.2).states(10)
        expect = 0.8 * PHI + 0.2 * np.eye(4) / 4.0
        assert iso.shape == (10, 4, 4)
        assert all(np.allclose(rho, expect) for rho in iso)
        attack = SourceModel.abort_attack(2).states(5)
        assert attack.shape == (5, 4, 4)
        junk = np.zeros((4, 4))
        junk[0, 0] = 1.0
        assert np.array_equal(attack[1], junk)
        for i in (0, 2, 3, 4):
            assert np.allclose(attack[i], PHI, atol=1e-15)
        # a junk index past the last round leaves every round a singlet
        late = SourceModel.abort_attack(9).states(5)
        assert all(np.allclose(rho, PHI, atol=1e-15) for rho in late)
        for stack in (iso, attack, late):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0.5

    def test_device_validation(self):
        with pytest.raises(ValueError):
            DeviceModel(kind="alien")
        with pytest.raises(ValueError):
            DeviceModel(kind="fixed_angles", alice=(0.0, 1.0))
        with pytest.raises(ValueError):
            DeviceModel(kind="adaptive")
        for bad in ((0.1,), (0.1, 0.2, 0.3), 5, ("0.1", 0.2), (0.1, math.nan), (True, 0.2), None):
            with pytest.raises(ValueError):
                DeviceModel.fixed_angles(bad, (0.3, 0.4))
        dev = DeviceModel.fixed_angles([0.1, 0.2], (0.3, 0.4))
        assert dev.alice == (0.1, 0.2)
        assert dev.bob == (0.3, 0.4)

    def test_optimal_angles(self):
        assert OPT.alice == (0.0, math.pi / 2)
        assert OPT.bob == (math.pi / 4, -math.pi / 4)


class TestRunProtocol:
    def test_deterministic_per_seed(self):
        cfg = p2(n=60)
        src = SourceModel.honest_isotropic(0.1)
        r1 = run_protocol(cfg, src, OPT, seed=42, trial=3)
        r2 = run_protocol(cfg, src, OPT, seed=42, trial=3)
        assert r1 == r2
        assert r1 != run_protocol(cfg, src, OPT, seed=42, trial=4)
        assert r1 != run_protocol(cfg, src, OPT, seed=43, trial=3)

    def test_stored_round_sentinels(self):
        cfg = p2(n=40)
        src = SourceModel.honest_isotropic(0.0)
        rec = run_protocol(cfg, src, OPT, seed=7)
        i = rec.t - 1
        assert rec.x[i] == rec.y[i] == rec.a[i] == rec.b[i] == rec.w[i] == -1
        assert sum(1 for v in rec.w if v == -1) == 1
        assert np.array_equal(rec.stored_state, src.states(40)[rec.t - 1])
        assert rec.stored_state.shape == (4, 4)
        assert not rec.stored_state.flags.writeable
        assert set(rec.w) <= {-1, 0, 1}

    def test_joint_outcome_distribution(self):
        # per-setting outcome frequencies against the Born rule
        mu = 0.3
        cfg = p2(n=16_001, omega_sharp=2.0, kappa=0.5)
        src = SourceModel.honest_isotropic(mu)
        rec = run_protocol(cfg, src, OPT, seed=13)
        rho = (1.0 - mu) * PHI + mu * np.eye(4) / 4.0
        xs = np.array(rec.x)
        ys = np.array(rec.y)
        aa = np.array(rec.a)
        bb = np.array(rec.b)
        measured = xs >= 0
        for xv in range(2):
            for yv in range(2):
                sel = measured & (xs == xv) & (ys == yv)
                m = int(sel.sum())
                assert m > 3_000
                probs = joint_probs(rho, OPT.alice[xv], OPT.bob[yv])
                for a in (0, 1):
                    for b in (0, 1):
                        freq = float(np.mean((aa[sel] == a) & (bb[sel] == b)))
                        p = probs[a, b]
                        sigma = math.sqrt(p * (1.0 - p) / m)
                        assert abs(freq - p) <= 4.0 * sigma

    def test_honest_win_frequencies(self):
        cfg = p2(n=20_001, omega_sharp=2.0, kappa=0.5)
        for mu, target in ((0.0, (2.0 + RT2) / 4.0), (0.1, 0.8181980515), (1.0, 0.5)):
            rec = run_protocol(cfg, SourceModel.honest_isotropic(mu), OPT, seed=17)
            freq = rec.wins() / (cfg.n - 1)
            sigma = math.sqrt(target * (1.0 - target) / (cfg.n - 1))
            assert abs(freq - target) <= 4.0 * sigma

    def test_parallel_estimator_recount(self):
        cfg = p2(n=300)
        rec = run_protocol(cfg, SourceModel.honest_isotropic(0.05), OPT, seed=23)
        # CHSH game weights are +1 on every setting pair, so the estimator
        # reduces to signed wins
        total = sum(2 * w - 1 for w in rec.w if w >= 0)
        assert rec.omega_exp == pytest.approx(4.0 / 300 * total, abs=1e-12)
        assert rec.aborted == (rec.omega_exp <= cfg.omega_sharp - cfg.kappa)

    def test_sequential_estimator_recount(self):
        cfg = p4(n=200)
        rec = run_protocol(cfg, SourceModel.honest_isotropic(0.05), OPT, seed=29)
        wins = rec.wins()
        assert rec.omega_exp == pytest.approx(score_to_value(wins / 200), abs=1e-12)
        failures = 199 - wins
        assert rec.aborted == (failures > math.floor(199 * (1.0 - 0.85 + 0.03)))

    def test_marginal_functionals_rejected(self):
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
        cfg = ProtocolConfig(
            protocol="P2", n=100, kappa=0.05, omega_sharp=2.5, epsilon=0.1, functional=tilted
        )
        with pytest.raises(ValueError):
            run_protocol(cfg, SourceModel.honest_isotropic(0.0), OPT, seed=1)
        with pytest.raises(ValueError):
            estimate_abort_rate(cfg, SourceModel.honest_isotropic(0.0), OPT, trials=2, seed=1)


class TestRecordOutput:
    def test_transcript_csv(self):
        cfg = p2(n=12)
        rec = run_protocol(cfg, SourceModel.honest_isotropic(0.0), OPT, seed=3)
        lines = transcript_csv(rec).splitlines()
        assert lines[0] == "round,x,y,a,b,w"
        assert len(lines) == 13
        assert lines[rec.t] == f"{rec.t},,,,,"
        for i, line in enumerate(lines[1:], start=1):
            if i != rec.t:
                r, x, y, a, b, w = line.split(",")
                assert int(r) == i
                assert int(x) in (0, 1) and int(w) in (0, 1)

    def test_record_equality_guards_type(self):
        cfg = p2(n=10)
        rec = run_protocol(cfg, SourceModel.honest_isotropic(0.0), OPT, seed=3)
        assert rec != "not a record"
        assert rec == rec


class TestAbortRates:
    def test_honest_at_mean_threshold(self):
        n = 10_001
        mean_omega = (n - 1) / n * S2
        cfg = ProtocolConfig(
            protocol="P2", n=n, kappa=2e-4, omega_sharp=mean_omega + 2e-4, epsilon=0.1
        )
        rate, (lo, hi) = estimate_abort_rate(
            cfg, SourceModel.honest_isotropic(0.0), OPT, trials=4000, seed=5
        )
        assert 0.45 <= rate <= 0.55
        assert lo <= rate <= hi

    def test_zero_loss_demand_always_aborts(self):
        cfg = ProtocolConfig(
            protocol="P4", n=1000, kappa=1e-6, p_win_sharp=1.0, epsilon=0.1
        )
        rate, _ = estimate_abort_rate(
            cfg, SourceModel.honest_isotropic(0.0), OPT, trials=200, seed=2
        )
        assert rate == 1.0

    def test_easy_threshold_never_aborts_and_wilson_interval(self):
        cfg = p2(n=500, omega_sharp=2.0, kappa=0.01)
        rate, (lo, hi) = estimate_abort_rate(
            cfg, SourceModel.honest_isotropic(0.0), OPT, trials=100, seed=11
        )
        assert rate == 0.0
        assert lo == 0.0
        z = 1.959963984540054
        assert hi == pytest.approx(z * z / (100.0 + z * z), abs=1e-12)

    def test_storage_attack_mostly_passes(self):
        # junk at one index: the score barely moves, so the verifier
        # almost always accepts, yet the stored state is junk 1/n of the time
        cfg = p2(n=50, omega_sharp=2.4, kappa=0.2)
        src = SourceModel.abort_attack(7)
        rate, _ = estimate_abort_rate(cfg, src, OPT, trials=800, seed=3)
        assert rate <= 0.15
        junk_stored = 0
        for k in range(800):
            rec = run_protocol(cfg, src, OPT, seed=3, trial=k)
            if rec.t == 7:
                assert rec.stored_state[0, 0] == 1.0
                junk_stored += 1
        p = 1.0 / 50.0
        sigma = math.sqrt(p * (1.0 - p) / 800)
        assert abs(junk_stored / 800 - p) <= 4.0 * sigma

    def test_fast_and_slow_paths_agree(self):
        # the binomial shortcut against the per-round sampler on the same source
        cfg = p2(n=500, omega_sharp=2.70, kappa=0.03)
        src = SourceModel.honest_isotropic(0.05)
        rf, _ = estimate_abort_rate(cfg, src, OPT, trials=3000, seed=9)
        rs = sum(run_protocol(cfg, src, OPT, seed=10, trial=k).aborted for k in range(600)) / 600
        sigma = math.sqrt(rf * (1 - rf) / 3000 + rs * (1 - rs) / 600)
        assert abs(rf - rs) <= 4.0 * sigma

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            estimate_abort_rate(p2(), SourceModel.honest_isotropic(0.0), OPT, trials=0, seed=1)


    @pytest.mark.parametrize("protocol", ["P1", "P2", "P3"])
    @pytest.mark.parametrize("n", [200, 1000])
    def test_honest_abort_rate_meets_completeness_target(self, protocol, n):
        # an honest device whose per-round Bell value equals omega_sharp is
        # the case eps_complete bounds: at the kappa solved for a target,
        # the Wilson lower end of its abort rate stays at or below the target
        for omega_sharp in (2.5, 2.75):
            base = ProtocolConfig(
                protocol=protocol,
                n=n,
                kappa=1e-3,
                omega_sharp=omega_sharp,
                epsilon=0.0 if protocol == "P1" else 0.1,
            )
            src = SourceModel.honest_isotropic(1.0 - omega_sharp / S2)
            for target in (0.05, 0.01):
                cfg = dataclasses.replace(base, kappa=kappa_for_target(base, target))
                _, (lo, _) = estimate_abort_rate(cfg, src, OPT, trials=20_000, seed=n + 7)
                assert lo <= target, (omega_sharp, target, lo)


class TestSequentialAdversary:
    def test_two_round_values(self):
        assert seq_adversary_value((0.5, 0.5), 2) == pytest.approx(0.25, abs=1e-15)
        assert seq_adversary_bruteforce((0.5, 0.5), 2) == pytest.approx(0.25, abs=1e-12)
        assert seq_adversary_value((0.3, 0.9), 0) == 1.0
        assert seq_adversary_bruteforce((0.3, 0.9), 0) == 1.0
        assert seq_adversary_value((1.0, 1.0, 1.0), 3) == pytest.approx(1.0)

    def test_exact_enumeration_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            mu = rng.uniform(0.0, 1.0, size=3)
            for c in range(0, 4):
                # direct sum over the 8 outcome words at the caps
                exact = 0.0
                for word in range(8):
                    bits = [(word >> k) & 1 for k in range(3)]
                    if sum(bits) >= c:
                        pr = 1.0
                        for k in range(3):
                            pr *= mu[k] if bits[k] else 1.0 - mu[k]
                        exact += pr
                assert seq_adversary_value(mu, c) == pytest.approx(exact, abs=1e-12)

    def test_adaptive_never_beats_independent_caps(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            mu = rng.uniform(0.0, 1.0, size=3)
            c = int(rng.integers(0, 4))
            bf = seq_adversary_bruteforce(mu, c)
            dp = seq_adversary_value(mu, c)
            assert bf <= dp + 1e-9
            # the grid includes the caps and more wins never hurt, so the
            # adaptive optimum is attained at the caps exactly
            assert bf == pytest.approx(dp, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            seq_adversary_value([0.5] * 13, 2)
        with pytest.raises(ValueError):
            seq_adversary_value([1.5], 1)
        with pytest.raises(ValueError):
            seq_adversary_bruteforce([0.5] * 5, 2)
        with pytest.raises(ValueError):
            seq_adversary_bruteforce([0.5], 1, grid_steps=1)


class TestScenario:
    def test_round_trip(self):
        doc = {
            "protocol": "P2",
            "n": 2000,
            "kappa": 0.06,
            "omega_sharp": 2.6,
            "epsilon": 0.1,
            "source": {"kind": "honest_isotropic", "mu": 0.05},
            "device": {"kind": "optimal_chsh"},
            "seed": 11,
            "trials": 400,
        }
        sc = load_scenario(json.dumps(doc))
        assert sc.config.protocol == "P2"
        assert sc.config.n == 2000
        assert sc.source.mu == 0.05
        assert sc.device.kind == "optimal_chsh"
        assert (sc.seed, sc.trials) == (11, 400)
        rate, _ = estimate_abort_rate(sc.config, sc.source, sc.device, trials=50, seed=sc.seed)
        assert 0.0 <= rate <= 1.0
        # integral floats are counts too, and load as ints
        sc = load_scenario(json.dumps(dict(doc, n=2000.0, seed=11.0, trials=400.0)))
        assert (sc.config.n, sc.seed, sc.trials) == (2000, 11, 400)
        assert all(type(v) is int for v in (sc.config.n, sc.seed, sc.trials))

    def test_fixed_angles_device(self):
        doc = {
            "protocol": "P4",
            "n": 100,
            "kappa": 0.02,
            "p_win_sharp": 0.85,
            "source": {"kind": "abort_attack", "t_good": 3},
            "device": {"kind": "fixed_angles", "alice": [0.0, 1.57], "bob": [0.78, -0.78]},
        }
        sc = load_scenario(json.dumps(doc))
        assert sc.source.t_good == 3
        assert sc.device.alice == (0.0, 1.57)
        assert sc.trials == 1

    def test_rejects_unknown_models(self):
        base = {
            "protocol": "P2",
            "n": 100,
            "kappa": 0.05,
            "omega_sharp": 2.5,
            "source": {"kind": "honest_isotropic"},
            "device": {"kind": "optimal_chsh"},
        }
        bad_src = dict(base, source={"kind": "custom_state_list"})
        with pytest.raises(ValueError):
            load_scenario(json.dumps(bad_src))
        bad_dev = dict(base, device={"kind": "adaptive"})
        with pytest.raises(ValueError):
            load_scenario(json.dumps(bad_dev))
        bad_cfg = dict(base, omega_sharp=None, p_win_sharp=0.8)
        with pytest.raises(ValueError):
            load_scenario(json.dumps(bad_cfg))

    @pytest.mark.parametrize(
        "change",
        [
            {"source": 5},
            {"device": [1, 2]},
            {"device": {"kind": "fixed_angles", "alice": 5, "bob": [0.0, 1.0]}},
            {"device": {"kind": "fixed_angles", "alice": [0.0, "x"], "bob": [0.0, 1.0]}},
            {"device": {"kind": "fixed_angles", "alice": [0.0, 1.0, 2.0], "bob": [0.0, 1.0]}},
            {"functional": "tilted.json"},
            {"functional": {"gamma": [[1, 1], [1, -1]]}},
            {"n": 100.7},
            {"source": {"kind": "abort_attack", "t_good": 2.9}},
            {"seed": 1.5},
            {"seed": -1},
            {"trials": 3.5},
            {"trials": True},
        ],
    )
    def test_rejects_malformed_documents(self, change):
        base = {
            "protocol": "P2",
            "n": 100,
            "kappa": 0.05,
            "omega_sharp": 2.5,
            "source": {"kind": "honest_isotropic"},
            "device": {"kind": "optimal_chsh"},
        }
        with pytest.raises(ValueError):
            load_scenario(json.dumps(dict(base, **change)))

    def test_functional_key_chsh_only(self):
        doc = {
            "protocol": "P2",
            "n": 100,
            "kappa": 0.05,
            "omega_sharp": 2.5,
            "functional": "chsh",
            "source": {"kind": "honest_isotropic"},
            "device": {"kind": "optimal_chsh"},
        }
        assert load_scenario(json.dumps(doc)).config.functional.is_chsh
        for top in ("[1, 2]", "5", '"chsh"'):
            with pytest.raises(ValueError):
                load_scenario(top)
