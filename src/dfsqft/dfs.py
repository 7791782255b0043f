"""Collective operators, decoherence-free subspace bases, and encoding efficiency.

Two collective-noise models: under WCD every qubit couples through the
single summed Pauli S_z, so any one S_z eigenspace is noise-free up to a
global phase; under SCD the coupling runs through all of S_x, S_y, S_z
and the noise-free states are their common null space (total spin zero).

Dimensions come two ways on purpose: closed forms (binomials) and brute
force, counted on the actual operators; consumers are expected to
cross-check one against the other. The brute force works inside ker S_z:
S_z is checked to be diagonal, its diagonal gives the WCD sectors, and
the SCD null space is a thin SVD of S_x and S_y restricted to the
computational states where that diagonal is zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .statevector import StateVector, SubspaceBasis

MAX_BRUTE_FORCE_QUBITS = 10
NULLSPACE_TOL = 1e-9  # collective operators have integer spectra; gap to nonzero is >= 1

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class CollectiveModel(Enum):
    """Which collective couplings strike the register."""

    WCD = "wcd"
    SCD = "scd"

    @property
    def axes(self) -> tuple[str, ...]:
        return ("z",) if self is CollectiveModel.WCD else ("x", "y", "z")


def collective_operator(n: int, axis: str) -> np.ndarray:
    """Dense sum of the single-qubit Pauli over all n qubits.

    Built by index arithmetic: bit t of the index is qubit t+1, and the Pauli
    on that qubit sends column l to row l (z) or l with bit t flipped (x, y).
    """
    if not 1 <= n <= MAX_BRUTE_FORCE_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_BRUTE_FORCE_QUBITS}, got {n}")
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    sigma = _PAULI[axis]
    index = np.arange(2**n)
    total = np.zeros((2**n, 2**n), dtype=complex)
    for t in range(n):
        rows = index if axis == "z" else index ^ (1 << t)
        total[rows, index] += sigma[(rows >> t) & 1, (index >> t) & 1]
    return total


def collective_product(axis: str, columns: np.ndarray) -> np.ndarray:
    """S_a applied to each column of a 2^n x k array, matrix-free.

    The same index arithmetic as collective_operator, read as a gather: row
    l of the product sums, over the qubits t, the Pauli entry times column
    entry l with bit t flipped (x, y) or kept (z). Only the k columns are
    ever held, and the simulator kernel is not used, so the product is an
    independent oracle for the code space.
    """
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    sigma = _PAULI[axis]
    index = np.arange(columns.shape[0])
    total = np.zeros(columns.shape, dtype=complex)
    for t in range(index.size.bit_length() - 1):
        source = index if axis == "z" else index ^ (1 << t)
        total += sigma[(index >> t) & 1, (source >> t) & 1][:, None] * columns[source]
    return total


def _sz_diagonal(n: int) -> np.ndarray:
    """Diagonal of S_z, after checking that S_z has nothing off it."""
    s_z = collective_operator(n, "z")
    diagonal = np.diagonal(s_z).copy()
    if np.count_nonzero(s_z) != np.count_nonzero(diagonal):
        raise RuntimeError(f"S_z on {n} qubits is not diagonal in the computational basis")
    return diagonal


def _collective_nullspace(n: int) -> np.ndarray:
    """Orthonormal columns spanning the common null space of S_x, S_y, S_z.

    Every such vector lies in ker S_z, spanned by the computational states
    where the diagonal of S_z is zero, so only those columns of S_x and S_y
    enter a thin SVD (2048 x 252 at n = 10). The stack's Gram matrix 4 S^2
    commutes with S_z, so its singular values are a subset of those of the
    full [S_x; S_y; S_z] and NULLSPACE_TOL separates zero from nonzero just
    as it does there.
    """
    kernel = np.flatnonzero(np.abs(_sz_diagonal(n)) <= NULLSPACE_TOL)
    if kernel.size == 0:
        return np.zeros((2**n, 0), dtype=complex)  # odd n: no S_z = 0 states
    stacked = np.vstack([collective_operator(n, ax)[:, kernel] for ax in "xy"])
    _, singulars, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(singulars > NULLSPACE_TOL))
    null = np.zeros((2**n, kernel.size - rank), dtype=complex)
    null[kernel] = vh[rank:].conj().T
    return null


def dfs_basis(n: int, model: CollectiveModel) -> SubspaceBasis:
    """Orthonormal basis of the canonical noise-free sector.

    WCD: the S_z eigenvalue-0 eigenspace, i.e. the computational states
    with equally many 0s and 1s, in index order. SCD: the common null
    space of all three collective operators, found numerically with
    singular values below 1e-9 treated as zero.
    """
    if not 2 <= n <= MAX_BRUTE_FORCE_QUBITS:
        raise ValueError(f"n must be in 2..{MAX_BRUTE_FORCE_QUBITS}, got {n}")
    if n % 2:
        raise ValueError(f"the canonical {model.value} sector needs even n, got {n}")
    if model is CollectiveModel.WCD:
        vectors = tuple(
            StateVector.basis(n, l) for l in range(2**n) if l.bit_count() == n // 2
        )
        return SubspaceBasis(n, vectors)
    null = _collective_nullspace(n)
    return SubspaceBasis(n, tuple(StateVector(null[:, j]) for j in range(null.shape[1])))


def _closed_form_max_dim(n: int, model: CollectiveModel) -> int:
    if model is CollectiveModel.WCD:
        return math.comb(n, n // 2)
    if n % 2:
        return 0  # no spin-zero sector on an odd register
    return math.comb(n, n // 2) - math.comb(n, n // 2 + 1)


def max_dfs_dimension(n: int, model: CollectiveModel) -> int:
    """Largest noise-free sector dimension (closed form; 0 means no sector)."""
    if not 1 <= n <= MAX_BRUTE_FORCE_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_BRUTE_FORCE_QUBITS}, got {n}")
    return _closed_form_max_dim(n, model)


def wcd_sector_dimensions(n: int) -> dict[int, int]:
    """S_z eigenvalue -> multiplicity, counted on the rounded diagonal of the
    operator after checking it is diagonal (brute force)."""
    values, counts = np.unique(np.rint(_sz_diagonal(n).real).astype(int), return_counts=True)
    return {int(w): int(c) for w, c in zip(values, counts)}


def brute_force_max_dfs_dimension(n: int, model: CollectiveModel) -> int:
    """Same quantity as max_dfs_dimension, but measured on the operators themselves."""
    if not 1 <= n <= MAX_BRUTE_FORCE_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_BRUTE_FORCE_QUBITS}, got {n}")
    if model is CollectiveModel.WCD:
        return max(wcd_sector_dimensions(n).values())
    return _collective_nullspace(n).shape[1]


def eta_max(n: int, model: CollectiveModel) -> Fraction:
    """Best logical-per-physical qubit ratio: floor(log2(max sector dim)) / n."""
    dim = max_dfs_dimension(n, model)
    if dim < 1:
        raise ValueError(f"no noise-free sector for {model.value} on {n} qubits")
    return Fraction(dim.bit_length() - 1, n)


def min_physical_qubits(m: int, model: CollectiveModel, search_limit: int = 14) -> int:
    """Smallest register whose largest noise-free sector fits m logical qubits."""
    if not 1 <= m <= 5:
        raise ValueError(f"m must be in 1..5, got {m}")
    for n in range(1, search_limit + 1):
        if _closed_form_max_dim(n, model) >= 2**m:
            return n
    raise RuntimeError(f"search bound n <= {search_limit} exceeded")


@dataclass(frozen=True)
class DfsReport:
    """Brute-force sector census for one register size and model."""

    n: int
    model: CollectiveModel
    labels: tuple[int, ...]  # WCD: S_z eigenvalues; SCD: the single spin-0 label
    dims: tuple[int, ...]
    max_dim: int

    def __post_init__(self):
        if self.max_dim < 1:
            raise ValueError("a sector census needs at least one nonempty sector")


def dfs_report(n: int, model: CollectiveModel) -> DfsReport:
    if model is CollectiveModel.WCD:
        sectors = wcd_sector_dimensions(n)
        labels = tuple(sorted(sectors, reverse=True))
        dims = tuple(sectors[w] for w in labels)
        return DfsReport(n, model, labels, dims, max(dims))
    dim = brute_force_max_dfs_dimension(n, model)
    if dim == 0:
        raise ValueError(f"no noise-free sector for scd on {n} qubits")
    return DfsReport(n, model, (0,), (dim,), dim)
