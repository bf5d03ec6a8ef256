"""Small dense matrix utilities for two-qubit operators.

Everything here works on 2x2 and 4x4 arrays only, and the whole
pipeline stays on the real-symmetric path.  Eigendecomposition of real
symmetric matrices is LAPACK's, through ``np.linalg.eigh``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "EigSys",
    "pauli",
    "kron",
    "eig_sym",
]

# eig_sym's input checks: largest imaginary part, and largest asymmetry
# relative to max(1, max |entry|)
_SYMMETRY_SLACK = 1e-12

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
class EigSys:
    """Eigendecomposition with ascending eigenvalues and orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def _as_real_symmetric(mat: np.ndarray) -> np.ndarray:
    """Validated, exactly symmetrized float copy of a real symmetric matrix."""
    m = _as_square(mat)
    if np.iscomplexobj(m):
        if float(np.max(np.abs(np.asarray(m).imag))) > _SYMMETRY_SLACK:
            raise ValueError("eig_sym expects a real symmetric matrix")
        m = m.real
    m = np.array(m, dtype=float)
    if float(np.max(np.abs(m - m.T))) > _SYMMETRY_SLACK * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError("eig_sym expects a symmetric matrix")
    return 0.5 * (m + m.T)


def eig_sym(mat: np.ndarray) -> EigSys:
    """Eigendecomposition of a real symmetric matrix of dimension up to 4.

    LAPACK via ``np.linalg.eigh``.  Returns ascending eigenvalues; columns
    of ``vectors`` are the eigenvectors.
    """
    vals, vecs = np.linalg.eigh(_as_real_symmetric(mat))
    return EigSys(values=vals, vectors=vecs)
