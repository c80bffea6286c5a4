import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oneclean import qstate
from oneclean.errors import (
    DimensionError,
    DomainError,
    NumericalIntegrityError,
)

from helpers import accept_probability, apply_on_subset, random_projector

TOL = 1e-9


def test_tensor_one_clean_initial_state():
    got = qstate.tensor(qstate.basis_projector(0), qstate.I2 / 2)
    assert np.array_equal(got, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))


def test_tensor_identity():
    assert np.array_equal(qstate.tensor(qstate.I2, qstate.I2), np.eye(4))


def test_tensor_pauli_square_is_identity():
    # oracle: direct 4x4 multiplication
    xz = qstate.tensor(qstate.X, qstate.Z)
    assert np.max(np.abs(xz @ xz - np.eye(4))) == 0.0


def test_tensor_rejects_non_square():
    with pytest.raises(DimensionError):
        qstate.tensor(np.ones((2, 3)), qstate.I2)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_tensor_associative_exactly_on_dyadic_entries(seed):
    rng = np.random.default_rng(seed)

    def dyadic(n):
        return (rng.integers(-4, 5, size=(n, n)) / 4).astype(complex)

    a, b, c = dyadic(2), dyadic(2), dyadic(2)
    left = qstate.tensor(qstate.tensor(a, b), c)
    right = qstate.tensor(a, qstate.tensor(b, c))
    assert np.array_equal(left, right)


def _bell_rho():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_apply_on_subset_flips_clean_qubit():
    rho = qstate.tensor(qstate.basis_projector(0), qstate.I2 / 2)
    got = apply_on_subset(rho, qstate.X, [0])
    want = qstate.tensor(qstate.basis_projector(1), qstate.I2 / 2)
    assert np.max(np.abs(got - want)) < TOL


def test_apply_on_subset_identity_noop():
    rho = _bell_rho()
    assert np.max(np.abs(apply_on_subset(rho, qstate.I2, [1]) - rho)) < TOL


def test_apply_on_subset_matches_embedding_oracle():
    rng = np.random.default_rng(3)
    u = qstate.haar_unitary(8, rng)
    rho = u @ np.diag(rng.dirichlet(np.ones(8))).astype(complex) @ u.conj().T
    # oracle: explicit I (x) H (x) I embedding applied directly
    h_emb = qstate.tensor(qstate.tensor(qstate.I2, qstate.H), qstate.I2)
    want = h_emb @ rho @ h_emb.conj().T
    got = apply_on_subset(rho, qstate.H, [1])
    assert np.max(np.abs(got - want)) < TOL


def test_apply_on_subset_preserves_trace_and_spectrum():
    rng = np.random.default_rng(11)
    u = qstate.haar_unitary(8, rng)
    rho = u @ np.diag(rng.dirichlet(np.ones(8))).astype(complex) @ u.conj().T
    got = apply_on_subset(rho, qstate.haar_unitary(4, rng), [2, 0])
    assert abs(np.trace(got) - 1) < TOL
    assert np.max(np.abs(np.sort(np.linalg.eigvalsh(got)) - np.sort(np.linalg.eigvalsh(rho)))) < TOL


PAULIS = {"I": qstate.I2, "X": qstate.X, "Y": qstate.Y, "Z": qstate.Z}


def test_qubit_ordering_exhaustive_paulis_three_qubits():
    rng = np.random.default_rng(5)
    u = qstate.haar_unitary(8, rng)
    rho = u @ np.diag(rng.dirichlet(np.ones(8))).astype(complex) @ u.conj().T
    for name, p in PAULIS.items():
        for target in range(3):
            factors = [qstate.I2] * 3
            factors[target] = p
            emb = qstate.tensor_all(factors)
            want = emb @ rho @ emb.conj().T
            got = apply_on_subset(rho, p, [target])
            assert np.max(np.abs(got - want)) < TOL, (name, target)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply_on_subset(_bell_rho(), qstate.haar_unitary(4, 0), [0])


def test_accept_probability_clean_qubit():
    rho = qstate.tensor(qstate.basis_projector(0), qstate.I2 / 2)
    p = qstate.tensor(qstate.basis_projector(0), qstate.I2)
    assert accept_probability(rho, p) == pytest.approx(1.0, abs=TOL)


def test_accept_probability_zero_projector():
    rho = _bell_rho()
    assert accept_probability(rho, np.zeros((4, 4))) == 0.0


def test_accept_probability_rank_half_on_maximally_mixed():
    rng = np.random.default_rng(13)
    q = 3
    proj = random_projector(q, 4, rng)
    # eigen-decomposition oracle: rank/2^q
    rank = int(round(np.linalg.eigvalsh(proj).sum()))
    rho = np.eye(1 << q, dtype=complex) / (1 << q)
    assert accept_probability(rho, proj) == pytest.approx(rank / (1 << q), abs=TOL)


def test_accept_probability_flags_imaginary_part():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = qstate.tensor(plus, qstate.I2 / 2)
    bad = qstate.tensor(np.array([[0, 1j], [0, 0]], dtype=complex), qstate.I2)
    with pytest.raises(NumericalIntegrityError):
        accept_probability(rho, bad)


def test_haar_orthogonal_dimension_one():
    assert np.array_equal(qstate.haar_orthogonal(1, seed=0), np.eye(1))


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_haar_orthogonal_invariants(seed, n):
    q = qstate.haar_orthogonal(n, seed=seed)
    assert np.max(np.abs(q.T @ q - np.eye(n))) < TOL
    assert abs(np.linalg.det(q) - 1.0) < 1e-9


def test_haar_orthogonal_first_column_moment():
    # Monte Carlo: E[<v, Q e_1>^2] = 1/n with binomial-style error bars
    n, draws = 4, 10**5
    rng = np.random.default_rng(17)
    v = qstate.haar_unit_vector(n, rng)
    cols = rng.standard_normal((draws, n))
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)  # Haar column = uniform sphere
    samples = (cols @ v) ** 2
    var = 3.0 / (n * (n + 2)) - 1.0 / n**2
    sigma = np.sqrt(var / draws)
    assert abs(samples.mean() - 1.0 / n) < 3 * sigma + 1e-12


def test_haar_orthogonal_rejects_bad_dim():
    with pytest.raises(DomainError):
        qstate.haar_orthogonal(0)


def test_matrix_json_round_trip_bit_exact():
    rng = np.random.default_rng(23)
    m = qstate.haar_unitary(4, rng)
    back = qstate.matrix_from_json(qstate.matrix_to_json(m))
    assert np.array_equal(m, back)


def test_density_matrix_type_checks():
    assert not qstate.is_hermitian(np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex))
    dm = np.eye(2, dtype=complex) / 2
    assert qstate.is_hermitian(dm)
    assert abs(np.trace(dm) - 1.0) <= qstate.TOL
    assert np.linalg.eigvalsh(dm).min() >= -qstate.TOL


def test_unitary_and_projector_type_checks():
    assert not qstate.is_unitary(np.array([[1, 0], [0, 1.001]], dtype=complex))
    assert qstate.is_unitary(qstate.H)
    assert not qstate.is_projector(qstate.H)  # Hermitian but not idempotent
    assert qstate.is_projector(qstate.basis_projector(1))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_random_evolution_preserves_density_invariants(seed):
    rng = np.random.default_rng(seed)
    rho = qstate.tensor(qstate.basis_projector(0), np.eye(4, dtype=complex) / 4)
    for _ in range(3):
        sz = int(rng.integers(1, 4))
        targets = rng.choice(3, size=sz, replace=False).tolist()
        rho = apply_on_subset(rho, qstate.haar_unitary(1 << sz, rng), targets)
    assert abs(np.trace(rho) - 1) < TOL
    assert qstate.is_hermitian(rho)
    assert np.linalg.eigvalsh(rho).min() > -TOL
