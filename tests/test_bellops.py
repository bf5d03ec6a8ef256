import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discert.bellops import (
    AnglePair,
    BellFunctional,
    bell_operator,
    bell_operator_stack,
    chsh,
    lipschitz_constants,
    load_functional,
    max_quantum_value,
    observable,
    score_to_value,
    value_to_score,
)
from discert.matqm import eig_sym, pauli

RT2 = math.sqrt(2.0)


def test_observable_fixtures():
    assert np.allclose(observable(0.0, 0), pauli("Z"), atol=1e-15)
    assert np.allclose(observable(math.pi / 2, 1), -pauli("X"), atol=1e-15)
    assert np.allclose(observable(math.pi / 4, 0), (pauli("Z") + pauli("X")) / RT2, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(-10.0, 10.0), st.integers(0, 1))
def test_observable_involutory(theta, x):
    m = observable(theta, x)
    assert np.max(np.abs(m @ m - np.eye(2))) <= 1e-12


def test_chsh_constants():
    f = chsh()
    assert f.gamma == ((1.0, 1.0), (1.0, -1.0))
    assert f.gamma_star == 1.0
    assert (f.eta_q_min, f.eta_l_min, f.eta_l_max, f.eta_q_max) == (-2 * RT2, -2.0, 2.0, 2 * RT2)


def test_bell_operator_fixtures():
    f = chsh()
    b00 = bell_operator(f, AnglePair(0.0, 0.0))
    assert np.allclose(b00, 2.0 * np.kron(pauli("Z"), pauli("Z")), atol=1e-15)
    assert abs(eig_sym(b00).values[-1] - 2.0) < 1e-12
    b_opt = bell_operator(f, AnglePair(math.pi / 4, math.pi / 4))
    assert abs(eig_sym(b_opt).values[-1] - 2.0 * RT2) < 1e-10


def test_bell_operator_stack_matches_kron_sum():
    # reference: the defining sum of Kronecker products of party observables
    f = BellFunctional("mixed", ((1.0, -0.5), (0.75, -1.0)), (0.2, -0.3), (0.0, 0.4),
                       -4.0, 4.0, -4.0, 4.0, 1.0)
    rng = np.random.default_rng(8)
    a, b = rng.uniform(0.0, math.pi / 2, size=(2, 50))
    stack = bell_operator_stack(f, a, b)
    eye = np.eye(2)
    for i in range(a.size):
        ref = sum(f.gamma[x][y] * np.kron(observable(a[i], x), observable(b[i], y))
                  for x in (0, 1) for y in (0, 1))
        ref = ref + sum(f.cA[x] * np.kron(observable(a[i], x), eye) for x in (0, 1))
        ref = ref + sum(f.cB[y] * np.kron(eye, observable(b[i], y)) for y in (0, 1))
        assert np.allclose(stack[i], ref, rtol=0.0, atol=1e-14)
        assert np.array_equal(bell_operator(f, AnglePair(a[i], b[i])), stack[i])


def test_bell_operator_zero_functional():
    zero = BellFunctional(
        name="zero",
        gamma=((0.0, 0.0), (0.0, 0.0)),
        cA=(0.0, 0.0),
        cB=(0.0, 0.0),
        eta_l_min=0.0,
        eta_l_max=0.0,
        eta_q_min=0.0,
        eta_q_max=0.0,
        gamma_star=0.0,
    )
    assert np.array_equal(bell_operator(zero, AnglePair(0.3, 1.1)), np.zeros((4, 4)))


def test_lipschitz_constants():
    assert lipschitz_constants(chsh()) == (4.0, 4.0)
    only_marginal = BellFunctional(
        name="m",
        gamma=((0.0, 0.0), (0.0, 0.0)),
        cA=(3.0, 0.0),
        cB=(0.0, 0.0),
        eta_l_min=-3.0,
        eta_l_max=3.0,
        eta_q_min=-3.0,
        eta_q_max=3.0,
        gamma_star=3.0,
    )
    assert lipschitz_constants(only_marginal) == (3.0, 0.0)
    alpha = 0.7
    tilted = BellFunctional(
        name="tilted",
        gamma=((1.0, 1.0), (1.0, -1.0)),
        cA=(alpha, 0.0),
        cB=(0.0, 0.0),
        eta_l_min=-(2 + alpha),
        eta_l_max=2 + alpha,
        eta_q_min=-(2 * RT2 + alpha),
        eta_q_max=2 * RT2 + alpha,
        gamma_star=1.0,
    )
    assert lipschitz_constants(tilted) == (4.0 + alpha, 4.0)


def test_max_quantum_value_fixtures():
    f = chsh()
    assert abs(max_quantum_value(f, AnglePair(0.0, 0.0)) - 2.0) < 1e-12
    assert abs(max_quantum_value(f, AnglePair(math.pi / 4, math.pi / 4)) - 2 * RT2) < 1e-9


def test_max_quantum_value_grid_sweep():
    f = chsh()
    grid = np.linspace(0.0, math.pi / 2, 101)
    best = max(max_quantum_value(f, AnglePair(a, b)) for a in grid for b in grid)
    assert abs(best - 2 * RT2) < 1e-6


def test_score_value_fixtures():
    assert score_to_value(0.75) == 2.0
    assert abs(score_to_value((2 + RT2) / 4) - 2 * RT2) < 1e-14
    assert value_to_score(0.0) == 0.5
    with pytest.raises(ValueError):
        score_to_value(1.5)


def test_score_to_value_arrays():
    ps = np.array([0.0, 0.25, 0.75, 1.0])
    out = score_to_value(ps)
    assert np.array_equal(out, [score_to_value(float(p)) for p in ps])
    assert type(score_to_value(np.float64(0.5))) is float
    for bad in ([0.5, 1.5], [np.nan], [-0.1, 0.2]):
        with pytest.raises(ValueError):
            score_to_value(np.array(bad))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0))
def test_score_value_roundtrip(p):
    assert abs(value_to_score(score_to_value(p)) - p) <= 1e-14


def _rand_density4(rng):
    a = rng.normal(size=(4, 4))
    m = a @ a.T
    return m / np.trace(m)


def test_lipschitz_bound_empirical():
    # direct test of the trace-difference bound behind the grid penalty
    f = chsh()
    c0, c1 = lipschitz_constants(f)
    rng = np.random.default_rng(12)
    n = 10_000
    a, b, a2, b2 = rng.uniform(0.0, math.pi / 2, size=(4, n))
    raw = rng.normal(size=(n, 4, 4))
    psd = np.einsum("nij,nkj->nik", raw, raw)
    rhos = psd / np.trace(psd, axis1=1, axis2=2)[:, None, None]
    lhs = np.einsum("nij,nji->n", bell_operator_stack(f, a2, b2), rhos)
    rhs = np.einsum("nij,nji->n", bell_operator_stack(f, a, b), rhos)
    assert np.all(lhs <= rhs + c0 * np.abs(a2 - a) + c1 * np.abs(b2 - b) + 1e-9)


def test_max_quantum_value_lipschitz():
    f = chsh()
    c0, c1 = lipschitz_constants(f)
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, b, a2, b2 = rng.uniform(0.0, math.pi / 2, size=4)
        v1 = max_quantum_value(f, AnglePair(a, b))
        v2 = max_quantum_value(f, AnglePair(a2, b2))
        assert abs(v2 - v1) <= c0 * abs(a2 - a) + c1 * abs(b2 - b) + 1e-9


def test_angle_pair_validation():
    with pytest.raises(ValueError):
        AnglePair(-0.1, 0.0)
    with pytest.raises(ValueError):
        AnglePair(0.0, math.pi / 2 + 0.01)


def test_load_functional_builtin_and_file(tmp_path):
    assert load_functional("chsh").name == "chsh"
    doc = {"gamma": [[1.0, 1.0], [1.0, -1.0]], "cA": [0.0, 0.0], "cB": [0.0, 0.0]}
    path = tmp_path / "my_func.json"
    path.write_text(json.dumps(doc))
    f = load_functional(str(path))
    assert f.gamma == ((1.0, 1.0), (1.0, -1.0))
    # numerically recovered bounds should match the hard-coded CHSH ones
    assert abs(f.eta_q_max - 2 * RT2) < 1e-6
    assert abs(f.eta_l_max - 2.0) < 1e-9
    with pytest.raises(FileNotFoundError):
        load_functional("nonexistent.json")


def test_load_functional_from_text(tmp_path):
    # given the text, load_functional parses it and never touches the path
    doc = {"gamma": [[1.0, 1.0], [1.0, -1.0]], "cA": [0.0, 0.0], "cB": [0.0, 0.0], "bounds": {
        "eta_l_min": -2.0, "eta_l_max": 2.0, "eta_q_min": -2 * RT2, "eta_q_max": 2 * RT2}}
    f = load_functional(str(tmp_path / "absent" / "given.json"), json.dumps(doc))
    assert f.name == "given"
    assert f.gamma == ((1.0, 1.0), (1.0, -1.0))
    assert f.eta_q_max == 2 * RT2
    for bad in ("[1, 2]", "5", '"chsh"'):
        with pytest.raises(ValueError):
            load_functional("given.json", bad)


def test_load_functional_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"gamma": [[1, 1], [1, -1]]}))
    with pytest.raises(ValueError):
        load_functional(str(path))
