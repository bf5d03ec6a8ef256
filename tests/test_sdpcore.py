import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discert.bellops import AnglePair, bell_operator, chsh
from discert.matqm import kron, pauli
from discert.sdpcore import (
    _DIRS,
    GENERATORS,
    FabSolution,
    _chol4,
    _cone_newton_system,
    _feasible,
    _tril_inv4,
    bell_diag_sigma,
    solve_fab_batch,
)
from discert.simproto import _PHI_PLUS
from oracles import (
    cone_newton_system_by_inverse,
    partial_trace,
    solve_one,
    supergrad_oracle,
    tightness_probe,
    weak_duality_witness,
)

RT2 = math.sqrt(2.0)
B_OPT = bell_operator(chsh(), AnglePair(math.pi / 4, math.pi / 4))


def test_bell_diag_marginals_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        sig = bell_diag_sigma(rng.uniform(-1.0, 1.0, size=5))
        assert abs(np.trace(sig) - 1.0) <= 1e-15
        for side in ("A", "B"):
            assert np.max(np.abs(partial_trace(sig, side) - np.eye(2) / 2)) <= 1e-15


def test_generators_orthogonal():
    g = GENERATORS.reshape(5, 16)
    gram = g @ g.T
    assert np.allclose(gram, np.diag(np.diag(gram)), atol=1e-15)


def _grid_oracle_zero_operator():
    """Coarse 5-parameter grid for max_t lambda_min(sigma(t)) (zero B, omega 0).

    With B = 0 the program reduces to max over Bell-diagonal states of the
    smallest eigenvalue, which the grid bounds from below.
    """
    best = -np.inf
    pts = np.linspace(-1.0, 1.0, 5)
    for t in itertools.product(pts, repeat=5):
        sig = bell_diag_sigma(np.array(t))
        best = max(best, float(np.linalg.eigvalsh(sig)[0]))
    return best


def test_zero_operator_frozen_value():
    # grid oracle first: attains 0.25 at t = 0 and nothing beats it
    oracle = _grid_oracle_zero_operator()
    assert abs(oracle - 0.25) < 1e-12
    sol = solve_one(np.zeros((4, 4)), 0.0)
    # frozen: 1/4, the best minimum eigenvalue over unit-trace Bell-diagonal states
    assert abs(sol.value - 0.25) < 1e-6
    assert sol.value >= oracle - 1e-9


def test_boundary_fixture_printed_solution():
    # the printed optimum is stated for sqrt2 (XX + ZZ); build it directly
    b = RT2 * (kron(pauli("X"), pauli("X")) + kron(pauli("Z"), pauli("Z"))).real
    lam_star = (4.0 + 5.0 * RT2) / 16.0
    mu_star = -(1.0 + 2.0 * RT2) / 4.0
    omega = 2.0 * RT2
    # certificate check of the printed pair before trusting it: with the
    # singlet-correlated witness state the slack is PSD and the value is 1
    assert lam_star * omega + mu_star == pytest.approx(1.0, abs=1e-12)
    slack = _PHI_PLUS - lam_star * b - mu_star * np.eye(4)
    assert float(np.linalg.eigvalsh(slack)[0]) >= -1e-12
    # the multiplier itself is degenerate at the boundary, so only the
    # optimal value is compared against the solver
    sol = solve_one(b, omega)
    assert sol.status == "optimal"
    assert abs(sol.value - 1.0) < 1e-4


def test_chsh_operator_endpoints():
    sol = solve_one(B_OPT, 2.0 * RT2)
    assert abs(sol.value - 1.0) < 1e-4
    sol2 = solve_one(B_OPT, 2.0)
    assert sol2.value >= 0.5 - 1e-6


def test_piecewise_linear_cell_value():
    # f at the optimal CHSH angles is the max of two lines with a kink at
    # 2 sqrt2 / 3: flat mixing branch below, steep singlet branch above
    for omega in (0.5, 0.9, 1.0, 1.5, 2.0, 2.5, 2.8):
        sol = solve_one(B_OPT, omega)
        expected = max(omega / (8.0 * RT2) + 0.25, omega / (2.0 * RT2))
        assert abs(sol.value - expected) < 1e-6


def test_solution_feasibility_fields():
    sol = solve_one(B_OPT, 2.2)
    assert sol.value == pytest.approx(sol.lam * 2.2 + sol.mu, abs=1e-12)
    assert sol.psd_slack >= -1e-8
    assert sol.lam >= 0.0
    sig = sol.sigma
    for side in ("A", "B"):
        assert np.max(np.abs(partial_trace(sig, side) - np.eye(2) / 2)) <= 1e-8
    assert np.linalg.eigvalsh(sig)[0] >= -1e-8


def test_infeasible_above_quantum_max():
    sol = solve_one(B_OPT, 2.0 * RT2 + 0.01)
    assert sol.status == "infeasible"


def test_supergrad_oracle_agreement():
    p = (B_OPT, 2.0 * RT2)
    assert supergrad_oracle(*p) >= 0.999
    # weak-duality ordering: the oracle is a feasible point, never above the solver
    assert supergrad_oracle(*p) <= solve_one(*p).value + 1e-6


def test_supergrad_oracle_random_operators():
    rng = np.random.default_rng(7)
    for _ in range(8):
        a = rng.normal(size=(4, 4))
        b = (a + a.T) / 2.0
        omega = float(np.linalg.eigvalsh(b)[-1]) - 0.1
        sol = solve_one(b, omega)
        assert abs(supergrad_oracle(b, omega) - sol.value) <= 1e-3


def test_weak_duality_witness():
    sol = solve_one(B_OPT, 2.4)
    assert weak_duality_witness(sol, B_OPT, 2.4, samples=10_000)
    import dataclasses

    inflated = dataclasses.replace(sol, mu=sol.mu + 0.1, value=sol.value + 0.1)
    assert not weak_duality_witness(inflated, B_OPT, 2.4, samples=10_000)


def test_tightness_probe_at_optimum():
    sol = solve_one(B_OPT, 2.4)
    assert tightness_probe(B_OPT, 2.4, sol) <= 1e-5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_monotone_in_omega(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4))
    b = (a + a.T) / 2.0
    top = float(np.linalg.eigvalsh(b)[-1])
    omegas = np.linspace(top - 2.0, top - 1e-3, 10)
    out = solve_fab_batch(np.repeat(b[None], 10, axis=0), omegas)
    assert np.all(np.diff(out["value"]) >= -1e-7)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 50.0))
def test_scale_covariance(seed, c):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4))
    b = (a + a.T) / 2.0
    omega = float(np.linalg.eigvalsh(b)[-1]) - 0.5
    v1 = solve_one(b, omega).value
    v2 = solve_one(c * b, c * omega).value
    assert abs(v1 - v2) <= 1e-8


def test_batch_matches_single():
    rng = np.random.default_rng(21)
    bells, omegas = [], []
    for _ in range(16):
        a = rng.normal(size=(4, 4))
        b = (a + a.T) / 2.0
        bells.append(b)
        omegas.append(float(np.linalg.eigvalsh(b)[-1]) - rng.uniform(0.2, 1.5))
    out = solve_fab_batch(np.stack(bells), np.array(omegas))
    for i, (b, w) in enumerate(zip(bells, omegas)):
        sol = solve_one(b, w)
        assert sol.value == pytest.approx(float(out["value"][i]), abs=1e-12)


def _strictly_feasible_iterates(rng, k):
    """Random (t, lam, mu, B) with both cones positive definite by margins
    drawn log-uniformly from [1e-4, 1e-1] (sigma) and [1e-4, 1] (slack)."""
    a = rng.normal(size=(k, 4, 4))
    bells = (a + a.transpose(0, 2, 1)) / 2.0
    t = rng.uniform(-1.0, 1.0, size=(k, 5))
    lo = np.linalg.eigvalsh(bell_diag_sigma(t))[:, 0]
    margin = 10.0 ** rng.uniform(-4.0, -1.0, size=k)
    t *= np.where(lo < margin, (0.25 - margin) / (0.25 - lo), 1.0)[:, None]
    lam = rng.uniform(0.01, 3.0, size=k)
    sig = bell_diag_sigma(t)
    mu = np.linalg.eigvalsh(sig - lam[:, None, None] * bells)[:, 0] - 10.0 ** rng.uniform(-4.0, 0.0, size=k)
    slack = sig - lam[:, None, None] * bells - mu[:, None, None] * np.eye(4)
    return t, lam, mu, bells, sig, slack


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_newton_system_matches_inverse_oracle(seed):
    t, lam, mu, bells, sig, slack = _strictly_feasible_iterates(np.random.default_rng(seed), 500)
    L, ok = _feasible(t, lam, mu, bells)
    assert ok.all()
    grad, hess = _cone_newton_system(L, bells)
    grad_o, hess_o = cone_newton_system_by_inverse(sig, slack, bells, _DIRS)
    g_scale = np.abs(grad_o).max(axis=1, keepdims=True)
    h_scale = np.abs(hess_o).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(grad - grad_o) <= 1e-10 * g_scale)
    assert np.all(np.abs(hess - hess_o) <= 1e-10 * h_scale)


@pytest.mark.parametrize("floor", [1.0, 1e-4, 1e-8, 1e-11])
def test_cholesky_inverse_matches_linalg_inv(floor):
    # SPD stacks with spectra from [floor, 10]: down to cond ~ 1e12
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(300, 4, 4)))
    w = 10.0 ** rng.uniform(np.log10(floor), 1.0, size=(300, 4))
    w[:, 0] = floor
    mats = (q * w[:, None, :]) @ q.transpose(0, 2, 1)
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    L, ok = _chol4(mats)
    assert ok.all()
    inv_l = _tril_inv4(L)
    assert np.all(np.triu(inv_l, 1) == 0.0)
    ref_l = np.linalg.inv(L)
    err_l = np.abs(inv_l - ref_l).max(axis=(1, 2)) / np.abs(ref_l).max(axis=(1, 2))
    assert err_l.max() <= 1e-12
    ref = np.linalg.inv(mats)
    err = np.abs(inv_l.transpose(0, 2, 1) @ inv_l - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert np.all(err <= 1e-13 * np.linalg.cond(mats))


def test_solution_from_batch_row():
    out = solve_fab_batch(np.stack([B_OPT, B_OPT]), np.array([2.4, 2.0 * RT2 + 0.01]))
    sol, bad = FabSolution.from_batch(out, 0), FabSolution.from_batch(out, 1)
    assert (sol.status, bad.status) == ("optimal", "infeasible")
    assert sol.value == float(out["value"][0])
    assert sol.iterations == int(out["iterations"][0])
    assert np.array_equal(sol.t, out["t"][0])
    assert sol.value == pytest.approx(solve_one(B_OPT, 2.4).value, abs=1e-12)
