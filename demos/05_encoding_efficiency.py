"""
How many physical qubits does a protected qubit cost?
=====================================================

Census of the noise-free sectors: their dimensions come from closed
forms (binomials) and, independently, from counts by Hamming weight (the
diagonal n - 2 w(l) of S_z, and the null space of the lowering operator
S_- between weights n/2 and n/2 + 1). The encoding efficiency is
floor(log2(sector dimension)) / n.
"""
import math

from dfsqft import (
    CollectiveModel,
    brute_force_max_dfs_dimension,
    dfs_basis,
    eta_max,
    max_dfs_dimension,
    min_physical_qubits,
)

print("largest noise-free sector per register size")
print(f"{'n':>3s} {'WCD closed':>11s} {'WCD brute':>10s} {'SCD closed':>11s} {'SCD brute':>10s}"
      f" {'eta WCD':>8s} {'eta SCD':>8s}")
for n in range(2, 9):
    wcd_closed = max_dfs_dimension(n, CollectiveModel.WCD)
    wcd_brute = brute_force_max_dfs_dimension(n, CollectiveModel.WCD)
    scd_closed = max_dfs_dimension(n, CollectiveModel.SCD)
    scd_brute = brute_force_max_dfs_dimension(n, CollectiveModel.SCD)
    eta_wcd = float(eta_max(n, CollectiveModel.WCD))
    eta_scd = float(eta_max(n, CollectiveModel.SCD)) if scd_closed else float("nan")
    print(f"{n:>3d} {wcd_closed:>11d} {wcd_brute:>10d} {scd_closed:>11d} {scd_brute:>10d}"
          f" {eta_wcd:>8.3f} {eta_scd:>8.3f}")
    assert wcd_closed == wcd_brute and scd_closed == scd_brute

# The pairwise / four-qubit-block encodings used by the circuit
# constructions sit at ratios 1/2 and 1/4; larger sectors would allow
# denser packings at the price of much harder gate constructions.
print("\nencoding ratio of the shipped circuits: 1/2 (pairs), 1/4 (4-qubit blocks)")

print("\nsmallest register carrying m protected qubits")
for m in (1, 2, 3):
    wcd_n = min_physical_qubits(m, CollectiveModel.WCD)
    scd_n = min_physical_qubits(m, CollectiveModel.SCD)
    print(f"  m={m}:  dephasing-only {wcd_n:>2d} qubits   full collective {scd_n:>2d} qubits")

# Brute force really is brute force: the sector basis for the full
# collective model is the null eigenvectors of the Gram matrix L^T L of the
# 0/1 lowering matrix L.
singlets = dfs_basis(6, CollectiveModel.SCD)
print(f"\n6-qubit total-spin-zero sector, by Gram eigenvectors: dimension {len(singlets)}"
      f" (binomial difference: {math.comb(6, 3) - math.comb(6, 4)})")
