import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from dfsqft import (
    PLAIN,
    SCD as SCD_CODE,
    CollectiveModel,
    brute_force_max_dfs_dimension,
    collective_operator,
    dfs_basis,
    eta_max,
    max_dfs_dimension,
    min_physical_qubits,
    wcd_sector_dimensions,
)
from dfsqft import dfs
from dfsqft.cli import main

from conftest import collective_nullspace_oracle, collective_operator_oracle, lowering_matrix_oracle

WCD = CollectiveModel.WCD
SCD = CollectiveModel.SCD


class TestCollectiveOperator:
    def test_single_qubit_z(self):
        np.testing.assert_array_equal(collective_operator(1, "z"), np.diag([1, -1]))

    def test_two_qubit_z_annihilates_balanced_state(self):
        op = collective_operator(2, "z")
        np.testing.assert_allclose(op @ PLAIN.state("01").amplitudes, 0, atol=1e-15)

    def test_two_qubit_x_matrix_element(self):
        # <00| S_x |01> = 1 (single bit flip)
        assert collective_operator(2, "x")[0b00, 0b01] == 1.0

    def test_hermitian(self):
        for axis in "xyz":
            op = collective_operator(3, axis)
            np.testing.assert_allclose(op, op.conj().T, atol=1e-15)

    def test_z_is_diagonal_popcount(self):
        # independent construction: eigenvalue n - 2*popcount on each basis state
        n = 4
        op = collective_operator(n, "z")
        diag = np.array([n - 2 * l.bit_count() for l in range(2**n)])
        np.testing.assert_array_equal(op, np.diag(diag))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("n", list(range(1, 8)))
    def test_matches_kron_oracle(self, n, axis):
        np.testing.assert_array_equal(collective_operator(n, axis),
                                      collective_operator_oracle(n, axis))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matrix_free_product_matches_dense(self, n, axis):
        rng = np.random.default_rng(n)
        columns = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
        np.testing.assert_allclose(dfs.collective_product(axis, columns),
                                   collective_operator(n, axis) @ columns, rtol=0, atol=1e-12)

    def test_range_and_axis_validation(self):
        # the dense operator keeps a cap of its own: 2^14 x 2^14 complex is 4 GB
        with pytest.raises(ValueError, match=r"^n must be an integer in 1\.\.10, got 11$"):
            collective_operator(11, "z")
        with pytest.raises(ValueError):
            collective_operator(2, "w")
        with pytest.raises(ValueError):
            dfs.collective_product("w", np.zeros((4, 1)))


class TestDfsBasis:
    def test_wcd_two_qubits(self):
        basis = dfs_basis(2, WCD)
        assert len(basis) == 2
        np.testing.assert_array_equal(basis.matrix[:, 0], PLAIN.state("01").amplitudes)
        np.testing.assert_array_equal(basis.matrix[:, 1], PLAIN.state("10").amplitudes)

    def test_wcd_vectors_annihilated_and_noise_fixed(self):
        for n in (2, 4):
            op = collective_operator(n, "z")
            rng = np.random.default_rng(42)
            for vec in dfs_basis(n, WCD).matrix.T:
                assert np.linalg.norm(op @ vec) < 1e-10
                for phi in rng.uniform(0, 2 * math.pi, 20):
                    evolved = scipy.linalg.expm(-1j * phi * op) @ vec
                    np.testing.assert_allclose(evolved, vec, atol=1e-12)

    def test_scd_four_qubits_contains_logical_states(self):
        basis = dfs_basis(4, SCD)
        assert len(basis) == 2
        span = basis.matrix
        for bits in ("0", "1"):
            vec = SCD_CODE.state(bits).amplitudes
            residual = vec - span @ (span.conj().T @ vec)
            assert np.linalg.norm(residual) < 1e-9

    def test_scd_two_qubits_is_singlet(self):
        basis = dfs_basis(2, SCD)
        assert len(basis) == 1
        singlet = np.zeros(4, dtype=complex)
        singlet[0b01], singlet[0b10] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        overlap = abs(np.vdot(singlet, basis.matrix[:, 0]))
        assert abs(overlap - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_scd_vectors_annihilated(self, n):
        columns = dfs_basis(n, SCD).matrix
        for axis in "xyz":
            assert np.max(np.abs(dfs.collective_product(axis, columns))) < 1e-12

    def test_wcd_basis_is_built_once(self):
        # 2^12 x 924 complex is 60.6 MB; SubspaceBasis keeps the frozen array
        # dfs_basis hands over, so no second full copy is made
        tracemalloc.start()
        try:
            basis = dfs_basis(12, WCD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.matrix.nbytes == 4096 * 924 * 16
        assert peak < 1.25 * basis.matrix.nbytes
        assert basis.matrix.flags.owndata and not basis.matrix.flags.writeable

    def test_odd_register_rejected(self):
        with pytest.raises(ValueError, match="even"):
            dfs_basis(3, WCD)
        with pytest.raises(ValueError, match="even"):
            dfs_basis(5, SCD)


class TestDimensions:
    def test_wcd_sectors_are_binomials(self):
        for n in range(1, 9):
            sectors = wcd_sector_dimensions(n)
            assert sum(sectors.values()) == 2**n
            for k in range(n + 1):
                assert sectors[n - 2 * k] == math.comb(n, k)

    def test_wcd_census(self):
        # S_z eigenvalue -> multiplicity; the largest sector is the noise-free one
        sectors = wcd_sector_dimensions(4)
        assert sectors == {4: 1, 2: 4, 0: 6, -2: 4, -4: 1}
        assert max(sectors.values()) == 6 == brute_force_max_dfs_dimension(4, WCD)

    def test_wcd_max_dimension(self):
        assert max_dfs_dimension(2, WCD) == 2
        for n in range(1, 11):
            assert max_dfs_dimension(n, WCD) == math.comb(n, n // 2)

    def test_scd_small_cases(self):
        assert max_dfs_dimension(4, SCD) == 2
        assert max_dfs_dimension(3, SCD) == 0

    def test_scd_n6_brute_force_vs_closed_form(self):
        brute = brute_force_max_dfs_dimension(6, SCD)
        closed = math.comb(6, 3) - math.comb(6, 4)
        assert brute == closed == max_dfs_dimension(6, SCD) == 5

    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_scd_nullspace_matches_closed_form(self, n):
        assert brute_force_max_dfs_dimension(n, SCD) == math.comb(n, n // 2) - math.comb(
            n, n // 2 + 1
        )

    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_wcd_brute_force_matches_closed_form(self, n):
        assert brute_force_max_dfs_dimension(n, WCD) == max_dfs_dimension(n, WCD)


class TestBruteForceCensus:
    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_scd_nullspace_projector_matches_full_svd_oracle(self, n):
        expected = collective_nullspace_oracle(n)
        null = dfs._collective_nullspace(n)
        assert null.shape == expected.shape
        np.testing.assert_allclose(null @ null.conj().T, expected @ expected.conj().T,
                                   atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 11, 2))
    def test_lowering_matrix_is_the_weight_layer_block_of_s_minus(self, n):
        kernel, upper, lowering = lowering_matrix_oracle(n)
        s_minus = (collective_operator(n, "x") - 1j * collective_operator(n, "y")) / 2
        np.testing.assert_array_equal(kernel, np.flatnonzero(dfs._weights(n) == n // 2))
        np.testing.assert_array_equal(upper, np.flatnonzero(dfs._weights(n) == n // 2 + 1))
        np.testing.assert_array_equal(lowering, s_minus[np.ix_(upper, kernel)])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_weights_give_the_diagonal_of_s_z(self, n):
        # S_z has nothing off its diagonal, and the diagonal is n - 2 w(l)
        s_z = collective_operator(n, "z")
        np.testing.assert_array_equal(np.diagonal(s_z), n - 2 * dfs._weights(n))
        assert np.count_nonzero(s_z - np.diag(np.diagonal(s_z))) == 0

    def test_census_never_builds_a_dense_collective_operator(self, monkeypatch, tmp_path):
        def refuse(n, axis):
            raise AssertionError(f"dense collective operator built for n={n}, axis {axis}")

        monkeypatch.setattr(dfs, "collective_operator", refuse)
        for n in range(1, 11):
            wcd_sector_dimensions(n)
            for model in (WCD, SCD):
                assert brute_force_max_dfs_dimension(n, model) == max_dfs_dimension(n, model)
        for n in range(2, 11, 2):
            for model in (WCD, SCD):
                assert len(dfs_basis(n, model)) == max_dfs_dimension(n, model)
        for model in ("wcd", "scd"):
            out = tmp_path / f"{model}.csv"
            assert main(["dfs-table", model, "--n-max", "10", "--out", str(out)]) == 0

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_closed_form_gram_is_exactly_the_product(self, n):
        # L^T L on the weight-n/2 layer, L L^T on the weight-(n/2 + 1) layer
        kernel, upper, lowering = lowering_matrix_oracle(n)
        for weight, indices, product in ((n // 2, kernel, lowering.T @ lowering),
                                         (n // 2 + 1, upper, lowering @ lowering.T)):
            layer, gram = dfs._lowering_gram(dfs._weights(n), weight)
            np.testing.assert_array_equal(layer, indices)
            assert gram.dtype == product.dtype
            np.testing.assert_array_equal(gram, product)

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_gram_count_equals_svd_rank(self, n):
        kernel, _, lowering = lowering_matrix_oracle(n)
        svd_count = kernel.size - np.linalg.matrix_rank(lowering, tol=dfs.NULLSPACE_TOL)
        assert brute_force_max_dfs_dimension(n, SCD) == svd_count

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_gram_eigenvalues_are_zero_or_at_least_two(self, n):
        # nonzero eigenvalues are j(j+1) for total spin j >= 1, so
        # NULLSPACE_TOL = 1e-9 sits far from both float error and 2
        _, _, lowering = lowering_matrix_oracle(n)
        rows = np.linalg.eigvalsh(lowering @ lowering.T)
        columns = np.linalg.eigvalsh(lowering.T @ lowering)
        assert rows.min() >= 2 - 1e-9
        zero = columns <= dfs.NULLSPACE_TOL
        assert np.max(np.abs(columns[zero])) < 1e-12
        assert columns[~zero].min() >= 2 - 1e-9
        np.testing.assert_allclose(np.sort(columns[~zero]), rows, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [4, 8])
    def test_rank_deficient_gram_falls_back_to_counting_eigenvalues(self, n, monkeypatch):
        # fed the column Gram L^T L, which has the spin-zero null space, the
        # Cholesky certificate fails and the eigenvalues are counted
        real_gram, real_eigvalsh = dfs._lowering_gram, np.linalg.eigvalsh
        layer, column_gram = real_gram(dfs._weights(n), n // 2)
        rank = np.linalg.matrix_rank(column_gram, tol=dfs.NULLSPACE_TOL)
        solves = []

        def counting_eigvalsh(a, *args, **kwargs):
            solves.append(a.copy())
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(dfs, "_lowering_gram",
                            lambda weights, weight: real_gram(weights, n // 2))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        assert rank < layer.size
        assert brute_force_max_dfs_dimension(n, SCD) == layer.size - rank
        assert layer.size - rank == max_dfs_dimension(n, SCD)
        # the eigensolve saw the Gram itself, its diagonal shift undone
        assert len(solves) == 1
        np.testing.assert_array_equal(solves[0], column_gram)

    @pytest.mark.parametrize("n", [2, 10])
    def test_census_computes_the_weights_once(self, n, monkeypatch):
        real_weights, calls = dfs._weights, []

        def counting_weights(n_):
            calls.append(n_)
            return real_weights(n_)

        monkeypatch.setattr(dfs, "_weights", counting_weights)
        assert brute_force_max_dfs_dimension(n, SCD) == max_dfs_dimension(n, SCD)
        assert calls == [n]

    def test_scd_census_memory_at_ten_qubits(self):
        # the thin SVD of S_x, S_y inside ker S_z peaked near 24 MB; the
        # row Gram of the lowering matrix is 210 x 210
        tracemalloc.start()
        try:
            assert brute_force_max_dfs_dimension(10, SCD) == 42
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestEfficiency:
    def test_quoted_ratios(self):
        assert eta_max(2, WCD) == Fraction(1, 2)
        assert eta_max(4, SCD) == Fraction(1, 4)

    def test_wcd_n4_via_dimension_oracle(self):
        assert max_dfs_dimension(4, WCD) == 6
        assert eta_max(4, WCD) == Fraction(math.floor(math.log2(6)), 4) == Fraction(1, 2)

    def test_exact_rational(self):
        assert eta_max(6, WCD) == Fraction(4, 6)

    def test_exact_values_over_even_registers(self):
        wcd_values = [eta_max(n, WCD) for n in range(2, 11, 2)]
        assert wcd_values == [
            Fraction(1, 2), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(7, 10),
        ]
        scd_values = [eta_max(n, SCD) for n in range(4, 11, 2)]
        assert scd_values == [Fraction(1, 4), Fraction(1, 3), Fraction(3, 8), Fraction(1, 2)]

    def test_unfloored_ratio_grows_toward_one(self):
        # the qubit-count floor makes the ratio dip (e.g. WCD 3/4 at n=8 but
        # 7/10 at n=10); the underlying log2(dim)/n is what grows monotonely
        for model in (WCD, SCD):
            start = 2 if model is WCD else 4
            raw = [
                math.log2(max_dfs_dimension(n, model)) / n for n in range(start, 11, 2)
            ]
            assert all(b > a for a, b in zip(raw, raw[1:]))
        # the floored ratio is still monotone through n = 8 for both models
        for model in (WCD, SCD):
            start = 2 if model is WCD else 4
            values = [eta_max(n, model) for n in range(start, 9, 2)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_no_sector_rejected(self):
        with pytest.raises(ValueError, match="no noise-free sector"):
            eta_max(3, SCD)


class TestMinPhysicalQubits:
    def test_quoted_minima(self):
        assert min_physical_qubits(1, WCD) == 2
        assert min_physical_qubits(1, SCD) == 4

    def test_search_against_dimension_oracle(self):
        # exhaustive search over independently computed sector dimensions
        def sector_dim(n, model):
            if model is WCD:
                return math.comb(n, n // 2)
            return 0 if n % 2 else math.comb(n, n // 2) - math.comb(n, n // 2 + 1)

        for m in (1, 2, 3):
            for model in (WCD, SCD):
                expected = next(n for n in range(1, 15) if sector_dim(n, model) >= 2**m)
                assert min_physical_qubits(m, model) == expected

    def test_wcd_two_logical(self):
        # smallest n with C(n, n//2) >= 4
        assert min_physical_qubits(2, WCD) == 4

    def test_range(self):
        with pytest.raises(ValueError):
            min_physical_qubits(0, WCD)
        with pytest.raises(ValueError):
            min_physical_qubits(6, WCD)


_N_MESSAGE = r"n must be an integer in 1\.\.14, got 2\.5"


@pytest.mark.parametrize("call,message", [
    (lambda: min_physical_qubits(2.5, WCD), r"m must be an integer in 1\.\.5, got 2\.5"),
    (lambda: max_dfs_dimension(2.5, WCD), _N_MESSAGE),
    (lambda: max_dfs_dimension(2.5, SCD), _N_MESSAGE),
    (lambda: brute_force_max_dfs_dimension(2.5, WCD), _N_MESSAGE),
    (lambda: brute_force_max_dfs_dimension(2.5, SCD), _N_MESSAGE),
    (lambda: dfs_basis(2.5, WCD), _N_MESSAGE),
    (lambda: wcd_sector_dimensions(2.5), _N_MESSAGE),
    (lambda: collective_operator(2.5, "z"), r"n must be an integer in 1\.\.10, got 2\.5"),
    (lambda: eta_max(2.5, WCD), _N_MESSAGE),
    (lambda: eta_max(2.5, SCD), _N_MESSAGE),
    (lambda: brute_force_max_dfs_dimension(True, SCD), r"n must be an integer in 1\.\.14, got True"),
    (lambda: min_physical_qubits(True, WCD), r"m must be an integer in 1\.\.5, got True"),
], ids=["min_physical_qubits", "max_dfs_dimension-wcd", "max_dfs_dimension-scd",
        "brute_force-wcd", "brute_force-scd", "dfs_basis",
        "wcd_sector_dimensions", "collective_operator", "eta_max-wcd", "eta_max-scd",
        "brute_force-bool", "min_physical_qubits-bool"])
def test_non_integer_size_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
