"""Small dense matrix utilities for two-qubit quantum states.

Everything here works on 2x2 and 4x4 arrays only.  The certification
pipeline stays on the real-symmetric path; complex Hermitian matrices
appear only as simulator states.  Eigendecomposition of real symmetric
matrices is LAPACK's, through ``np.linalg.eigh``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "Tolerances",
    "TOL",
    "HermMat",
    "DensityMat",
    "EigSys",
    "pauli",
    "kron",
    "eig_sym",
]


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Single source of truth for numerical tolerances.

    algebra   -- algebraic identities (traces, marginals, reconstruction)
    psd       -- positive-semidefiniteness slack accepted downstream
    hermitian -- max |M - M^dagger| accepted when wrapping a matrix
    density   -- eigenvalue floor accepted for density matrices
    """

    algebra: float = 1e-10
    psd: float = 1e-8
    hermitian: float = 1e-12
    density: float = 1e-10


TOL = Tolerances()

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(name: str) -> np.ndarray:
    """Return the 2x2 Pauli matrix I, X, Y or Z (complex dtype, read-only)."""
    try:
        m = _PAULI[name.upper()]
    except KeyError:
        raise ValueError(f"unknown Pauli name {name!r}; expected one of I, X, Y, Z")
    out = m.copy()
    out.setflags(write=False)
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two single-qubit operators."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"kron expects 2x2 factors, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def _as_square(mat: np.ndarray) -> np.ndarray:
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= 4:
        raise ValueError(f"only matrices up to 4x4 are supported, got {m.shape[0]}")
    return m


@dataclasses.dataclass(frozen=True)
class HermMat:
    """A validated Hermitian matrix of dimension 2 or 4.

    ``mat`` is stored read-only.  ``real`` is True when the imaginary part
    vanishes within tolerance, in which case ``mat`` is a float64 array.
    """

    mat: np.ndarray
    dim: int
    real: bool

    @classmethod
    def wrap(cls, mat: np.ndarray) -> "HermMat":
        m = _as_square(mat).astype(complex)
        herm_err = float(np.max(np.abs(m - m.conj().T)))
        if herm_err > TOL.hermitian:
            raise ValueError(f"matrix is not Hermitian within {TOL.hermitian} (error {herm_err:.3e})")
        m = 0.5 * (m + m.conj().T)
        is_real = float(np.max(np.abs(m.imag))) <= TOL.hermitian
        store = np.ascontiguousarray(m.real) if is_real else np.ascontiguousarray(m)
        store.setflags(write=False)
        return cls(mat=store, dim=store.shape[0], real=is_real)


@dataclasses.dataclass(frozen=True)
class DensityMat:
    """A validated density matrix: Hermitian, unit trace, eigenvalues >= -tol."""

    mat: np.ndarray
    dim: int
    real: bool

    @classmethod
    def wrap(cls, mat: np.ndarray) -> "DensityMat":
        h = HermMat.wrap(mat)
        tr = float(np.trace(h.mat).real)
        if abs(tr - 1.0) > TOL.algebra:
            raise ValueError(f"density matrix trace must be 1 within {TOL.algebra}, got {tr!r}")
        evals = np.linalg.eigvalsh(h.mat)
        if float(evals[0]) < -TOL.density:
            raise ValueError(f"density matrix has negative eigenvalue {float(evals[0]):.3e}")
        return cls(mat=h.mat, dim=h.dim, real=h.real)


@dataclasses.dataclass(frozen=True)
class EigSys:
    """Eigendecomposition with ascending eigenvalues and orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def _as_real_symmetric(mat: np.ndarray) -> np.ndarray:
    """Validated, exactly symmetrized float copy of a real symmetric matrix."""
    m = _as_square(mat)
    if np.iscomplexobj(m):
        if float(np.max(np.abs(np.asarray(m).imag))) > TOL.hermitian:
            raise ValueError("eig_sym expects a real symmetric matrix")
        m = m.real
    m = np.array(m, dtype=float)
    if float(np.max(np.abs(m - m.T))) > TOL.hermitian * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError("eig_sym expects a symmetric matrix")
    return 0.5 * (m + m.T)


def eig_sym(mat: np.ndarray) -> EigSys:
    """Eigendecomposition of a real symmetric matrix of dimension up to 4.

    LAPACK via ``np.linalg.eigh``.  Returns ascending eigenvalues; columns
    of ``vectors`` are the eigenvectors.
    """
    vals, vecs = np.linalg.eigh(_as_real_symmetric(mat))
    return EigSys(values=vals, vectors=vecs)
