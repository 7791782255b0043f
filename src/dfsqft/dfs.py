"""Collective operators, decoherence-free subspace bases, and encoding efficiency.

Two collective-noise models: under WCD every qubit couples through the
single summed Pauli S_z, so any one S_z eigenspace is noise-free up to a
global phase; under SCD the coupling runs through all of S_x, S_y, S_z
and the noise-free states are their common null space (total spin zero).

Dimensions come two ways on purpose: closed forms (max_dfs_dimension,
binomials) and brute force (brute_force_max_dfs_dimension, by Hamming
weight w(l)); `dfsqft dfs-table` cross-checks one against the other.
S_z is diagonal with entry n - 2 w(l) at index l, so the WCD sectors are
weight counts (wcd_sector_dimensions, one bincount). The weights of all
2^14 indices are one read-only table, built once at import by doubling;
every census reads a view of its first 2^n entries. A state with S_z = 0
has spin zero exactly when S_- = (S_x - i S_y)/2 annihilates it, so the
SCD null space is that of one 0/1 matrix L from weight n/2 to n/2 + 1
(210 x 252 at n = 10). Both Gram matrices come from one closed form, _lowering_gram,
and L is never built. dfs_basis takes the eigenvectors of the column Gram
L^T L. The census needs only the rank of the row Gram L L^T: one Cholesky
of L L^T - NULLSPACE_TOL * I certifies full row rank, and only when it
fails are the eigenvalues counted. No census builds a 2^n x 2^n operator;
collective_operator is the dense oracle for tests and demos.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

import numpy as np

from .circuits import _check_size
from .statevector import MAX_DENSE_OPERATOR_QUBITS, SubspaceBasis, _GRAM_CHUNK

MAX_BRUTE_FORCE_QUBITS = 14
# A Gram eigenvalue of the lowering matrix (L L^T or L^T L) <= NULLSPACE_TOL is
# zero. The nonzero ones are j(j+1) >= 2 for the total spins j >= 1, and the
# float error stays below 2e-13 for every even n <= 14. The census shifts the
# row Gram's diagonal down by it, so a Cholesky that succeeds proves every
# eigenvalue above it.
NULLSPACE_TOL = 1e-9

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
    _check_size(n, "n", MAX_DENSE_OPERATOR_QUBITS)
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


def _weight_table(n_max: int) -> np.ndarray:
    """Read-only Hamming weights of 0..2^n_max - 1, by doubling: the indices
    l + 2^t with l < 2^t have one bit more than l. Signed, so that callers
    can form n - 2 w."""
    table = np.zeros(1, dtype=np.intp)
    for _ in range(n_max):
        table = np.concatenate((table, table + 1))
    table.flags.writeable = False
    return table


_WEIGHTS = _weight_table(MAX_BRUTE_FORCE_QUBITS)  # 128 KB, built once at import


def _weights(n: int) -> np.ndarray:
    """Hamming weight w(l) of every index l in 0..2^n - 1: a read-only view
    of the first 2^n entries of the one table, so no call allocates."""
    _check_size(n, "n", MAX_BRUTE_FORCE_QUBITS)
    return _WEIGHTS[:2**n]


def _lowering_gram(weights: np.ndarray, weight: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices of one weight layer, Gram) for the lowering matrix L of even
    n, given weights = _weights(n): the 0/1 block of S_- = (S_x - i S_y)/2
    from weight n/2 to n/2 + 1 (S_- sets one 0 bit), L^T L at weight n/2,
    L L^T at weight n/2 + 1.

    Entry (a, b) counts the indices of the other layer one bit away from
    both a and b: weight on the diagonal, 1 where w(a & b) = weight - 1, 0
    elsewhere. Built from this closed form, without L, in row chunks of at
    most _GRAM_CHUNK entries, with w(a & b) read from weights; rows and
    columns follow the layer's indices ascending.
    """
    layer = np.flatnonzero(weights == weight)
    gram = np.empty((layer.size, layer.size))
    step = max(1, _GRAM_CHUNK // layer.size)
    for first in range(0, layer.size, step):
        rows = layer[first:first + step, None]
        gram[first:first + step] = weights[rows & layer] == weight - 1
    np.fill_diagonal(gram, weight)
    return layer, gram


def _collective_nullspace(n: int) -> np.ndarray:
    """Orthonormal columns spanning the common null space of S_x, S_y, S_z.

    Every such vector lies in ker S_z, spanned by the weight-n/2 states, and
    there spin zero means L v = 0 for the lowering matrix L: the
    eigenvectors of the column Gram L^T L (_lowering_gram) whose eigenvalues
    are at most NULLSPACE_TOL, embedded back into the 2^n amplitudes.
    """
    if n % 2:
        return np.zeros((2**n, 0), dtype=complex)  # odd n: no S_z = 0 states
    kernel, gram = _lowering_gram(_weights(n), n // 2)
    values, vectors = np.linalg.eigh(gram)
    zero = values <= NULLSPACE_TOL
    null = np.zeros((2**n, np.count_nonzero(zero)), dtype=complex)
    null[kernel] = vectors[:, zero]
    null.flags.writeable = False  # handed to SubspaceBasis, which then keeps it uncopied
    return null


def dfs_basis(n: int, model: CollectiveModel) -> SubspaceBasis:
    """Orthonormal basis of the canonical noise-free sector.

    WCD: the S_z eigenvalue-0 eigenspace, i.e. the computational states
    with equally many 0s and 1s, in index order. SCD: the common null
    space of all three collective operators, found numerically as the
    eigenvectors of the lowering matrix's column Gram L^T L whose
    eigenvalues are at most NULLSPACE_TOL.
    """
    _check_size(n, "n", MAX_BRUTE_FORCE_QUBITS)
    if n % 2:
        raise ValueError(f"the canonical {model.value} sector needs even n, got {n}")
    if model is CollectiveModel.WCD:
        kernel = np.flatnonzero(_weights(n) == n // 2)
        states = np.zeros((2**n, kernel.size), dtype=complex)
        states[kernel, np.arange(kernel.size)] = 1.0
        states.flags.writeable = False
        return SubspaceBasis(n, states)
    return SubspaceBasis(n, _collective_nullspace(n))


def max_dfs_dimension(n: int, model: CollectiveModel) -> int:
    """Largest noise-free sector dimension (closed form; 0 means no sector)."""
    _check_size(n, "n", MAX_BRUTE_FORCE_QUBITS)
    if model is CollectiveModel.WCD:
        return math.comb(n, n // 2)
    if n % 2:
        return 0  # no spin-zero sector on an odd register
    return math.comb(n, n // 2) - math.comb(n, n // 2 + 1)


def wcd_sector_dimensions(n: int) -> dict[int, int]:
    """S_z eigenvalue -> multiplicity, counted on the diagonal n - 2 w(l)
    (brute force): one bincount of the weights, keys ascending."""
    counts = np.bincount(_weights(n), minlength=n + 1)
    return {int(n - 2 * w): int(counts[w]) for w in range(n, -1, -1)}


def brute_force_max_dfs_dimension(n: int, model: CollectiveModel) -> int:
    """Same quantity as max_dfs_dimension, but measured on the operators themselves.

    SCD: the nullity of the lowering matrix L, its column count minus the
    rank of the row Gram L L^T (the smaller side), the number of its
    eigenvalues above NULLSPACE_TOL. The Gram comes from its closed form
    (_lowering_gram), so neither L, singular vectors nor a 2^n x 2^n
    operator is built. Its diagonal is shifted down by NULLSPACE_TOL in
    place; if the Cholesky factorization of the shifted Gram succeeds, it
    is positive definite, every eigenvalue is above the tolerance and the
    rank is the row count. This certificate holds for every even n <= 14.
    Only when the factorization fails is the diagonal restored and the
    eigenvalues (eigvalsh) counted: a rank-deficient Gram is the fault the
    brute force exists to report.
    """
    _check_size(n, "n", MAX_BRUTE_FORCE_QUBITS)
    if model is CollectiveModel.WCD:
        return max(wcd_sector_dimensions(n).values())
    if n % 2:
        return 0  # odd n: no S_z = 0 states
    weights = _weights(n)
    columns = np.count_nonzero(weights == n // 2)
    _, gram = _lowering_gram(weights, n // 2 + 1)
    diagonal = gram.diagonal().copy()
    np.fill_diagonal(gram, diagonal - NULLSPACE_TOL)  # in place: no second N x N array
    try:
        np.linalg.cholesky(gram)
        rank = len(gram)  # gram - NULLSPACE_TOL * I is positive definite
    except np.linalg.LinAlgError:
        np.fill_diagonal(gram, diagonal)
        rank = np.count_nonzero(np.linalg.eigvalsh(gram) > NULLSPACE_TOL)
    return int(columns - rank)


def eta_max(n: int, model: CollectiveModel) -> Fraction:
    """Best logical-per-physical qubit ratio: floor(log2(max sector dim)) / n."""
    dim = max_dfs_dimension(n, model)
    if dim < 1:
        raise ValueError(f"no noise-free sector for {model.value} on {n} qubits")
    return Fraction(dim.bit_length() - 1, n)


def min_physical_qubits(m: int, model: CollectiveModel) -> int:
    """Smallest register whose largest noise-free sector fits m logical qubits
    (for m <= 5 at most 10: SCD 4/6/8/10/10, WCD 2/4/5/6/7)."""
    _check_size(m, "m", 5)
    for n in range(1, MAX_BRUTE_FORCE_QUBITS + 1):
        if max_dfs_dimension(n, model) >= 2**m:
            return n
    raise RuntimeError(f"no register up to n = {MAX_BRUTE_FORCE_QUBITS} fits {m} logical qubits")
