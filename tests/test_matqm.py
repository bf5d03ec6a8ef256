import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discert.matqm import eig_sym, kron, pauli
from oracles import fidelity, jacobi_eig, partial_trace

RT2 = np.sqrt(2.0)

# |phi+> = (|00> + |11>)/sqrt2
PHI_PLUS = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=float
)


def rand_sym(rng, dim=4, scale=1.0):
    a = rng.normal(size=(dim, dim)) * scale
    return (a + a.T) / 2.0


def rand_density(rng, dim=4):
    a = rng.normal(size=(dim, dim))
    m = a @ a.T
    return m / np.trace(m)


def test_pauli_definitions():
    assert np.array_equal(pauli("Z"), np.diag([1.0, -1.0]))
    assert np.array_equal(pauli("X") @ pauli("X"), np.eye(2))
    assert np.trace(pauli("X") @ pauli("Z")) == 0.0
    assert np.array_equal(pauli("I"), np.eye(2))
    Y = pauli("Y")
    assert np.allclose(Y @ np.conj(Y).T, np.eye(2))


def test_pauli_unknown_name():
    with pytest.raises(ValueError):
        pauli("Q")


def test_kron_identities():
    assert np.array_equal(kron(pauli("I"), pauli("I")), np.eye(4))
    assert np.array_equal(kron(pauli("Z"), pauli("Z")), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_xx_zz_top_eigenvalue():
    # oracle: the cyclic-Jacobi solver in tests/oracles.py
    m = kron(pauli("X"), pauli("X")) + kron(pauli("Z"), pauli("Z"))
    top = jacobi_eig(m.real)[0][-1]
    assert abs(top - 2.0) < 1e-12
    assert abs(eig_sym(m).values[-1] - top) < 1e-10


def test_kron_dimension_mismatch():
    with pytest.raises(ValueError):
        kron(np.eye(2), np.eye(4))


def test_partial_trace_phi_plus():
    for side in ("A", "B"):
        assert np.allclose(partial_trace(PHI_PLUS, side), np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_product_rule():
    rng = np.random.default_rng(3)
    rho = rand_density(rng, 2)
    tau = rand_sym(rng, 2)
    assert np.allclose(partial_trace(kron(rho, tau), "B"), rho * np.trace(tau), atol=1e-12)
    assert np.allclose(partial_trace(kron(rho, tau), "A"), tau * np.trace(rho), atol=1e-12)


def test_partial_trace_bell_diagonal_marginal():
    # oracle: explicit 2x2-block summation of the 4x4 matrix
    rng = np.random.default_rng(4)
    w = rng.dirichlet(np.ones(4))
    phi_minus = 0.5 * np.array([[1, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 1.0]])
    psi_plus = 0.5 * np.array([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0.0]])
    psi_minus = 0.5 * np.array([[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0.0]])
    mix = w[0] * PHI_PLUS + w[1] * phi_minus + w[2] * psi_plus + w[3] * psi_minus
    # direct summation oracles: tracing out B keeps (tr_B)_{ij} = sum_k m[2i+k, 2j+k],
    # tracing out A keeps (tr_A)_{kl} = sum_i m[2i+k, 2i+l]
    oracle_tr_b = np.array([[mix[0, 0] + mix[1, 1], mix[0, 2] + mix[1, 3]],
                            [mix[2, 0] + mix[3, 1], mix[2, 2] + mix[3, 3]]])
    oracle_tr_a = np.array([[mix[0, 0] + mix[2, 2], mix[0, 1] + mix[2, 3]],
                            [mix[1, 0] + mix[3, 2], mix[1, 1] + mix[3, 3]]])
    assert np.allclose(partial_trace(mix, "B"), oracle_tr_b, atol=1e-12)
    assert np.allclose(partial_trace(mix, "A"), oracle_tr_a, atol=1e-12)
    assert np.allclose(oracle_tr_a, np.eye(2) / 2.0, atol=1e-12)
    assert np.allclose(oracle_tr_b, np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rand_sym(rng)
        for side in ("A", "B"):
            assert abs(np.trace(m) - np.trace(partial_trace(m, side))) <= 1e-10


def test_eig_sym_small_fixtures():
    es = eig_sym(np.diag([3.0, 1.0]))
    assert np.allclose(es.values, [1.0, 3.0], atol=1e-12)
    es = eig_sym(pauli("Z"))
    assert np.allclose(es.values, [-1.0, 1.0], atol=1e-12)


def test_eig_sym_chsh_operator():
    from discert.bellops import AnglePair, bell_operator, chsh

    b = bell_operator(chsh(), AnglePair(np.pi / 4, np.pi / 4))
    assert abs(eig_sym(b).values[-1] - 2.0 * RT2) < 1e-10


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_eig_sym_reconstruction(seed):
    m = rand_sym(np.random.default_rng(seed), 4, scale=3.0)
    es = eig_sym(m)
    v, lam = es.vectors, es.values
    assert np.all(np.diff(lam) >= -1e-12)
    assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-10
    rec = v @ np.diag(lam) @ v.T
    norm = max(np.linalg.norm(m), 1e-30)
    assert np.linalg.norm(m - rec) <= 1e-10 * norm + 1e-12
    assert abs(lam.sum() - np.trace(m)) <= 1e-10 * max(1.0, abs(np.trace(m)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]), st.booleans())
def test_eig_sym_matches_jacobi_oracle(seed, dim, degenerate):
    rng = np.random.default_rng(seed)
    m = rand_sym(rng, dim, scale=3.0)
    if degenerate:  # repeated eigenvalue, as in Bell operators
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        w = np.repeat(rng.normal(size=(dim + 1) // 2), 2)[:dim]
        m = (q * w) @ q.T
        m = 0.5 * (m + m.T)
    ref, _ = jacobi_eig(m)
    es = eig_sym(m)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.all(np.abs(es.values - ref) <= 1e-12 * scale)
    assert np.all(np.abs(eig_sym(m).values - ref) <= 1e-12 * scale)
    # eigenpairs, whatever basis a degenerate eigenspace gets
    assert np.linalg.norm(m @ es.vectors - es.vectors * es.values) <= 1e-12 * scale


def test_eig_sym_input_checks():
    with pytest.raises(ValueError):
        eig_sym(np.array([[1.0, 1j], [-1j, 1.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.eye(5))
    es = eig_sym(np.diag([2.0, 1.0]).astype(complex))  # zero imaginary part is accepted
    assert es.values.dtype == np.float64
    assert np.array_equal(es.values, [1.0, 2.0])


def test_fidelity_fixtures():
    ket00 = np.zeros((4, 4))
    ket00[0, 0] = 1.0
    assert abs(fidelity(PHI_PLUS, PHI_PLUS) - 1.0) < 1e-12
    assert abs(fidelity(ket00, PHI_PLUS) - 0.5) < 1e-12
    assert abs(fidelity(np.eye(4) / 4.0, PHI_PLUS) - 0.25) < 1e-12


def test_fidelity_rejects_mixed_target():
    with pytest.raises(ValueError):
        fidelity(PHI_PLUS, np.eye(4) / 4.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_fidelity_linear_in_state(seed, p):
    rng = np.random.default_rng(seed)
    r1, r2 = rand_density(rng), rand_density(rng)
    lhs = fidelity(p * r1 + (1 - p) * r2, PHI_PLUS)
    rhs = p * fidelity(r1, PHI_PLUS) + (1 - p) * fidelity(r2, PHI_PLUS)
    assert abs(lhs - rhs) <= 1e-12

