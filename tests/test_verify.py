"""The expected logical actions and the block reduction of dfsqft.verify,
against Kronecker-product and per-index constructions."""
import math

import numpy as np
import pytest

from dfsqft.verify import contract, logical_hadamard, logical_phase, phase_keys

HADAMARD_2X2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@pytest.mark.parametrize("n", range(1, 5))
def test_logical_hadamard_is_kron_embedding(n):
    for k in range(1, n + 1):
        expected = np.kron(np.eye(2 ** (n - k)), np.kron(HADAMARD_2X2, np.eye(2 ** (k - 1))))
        assert np.array_equal(logical_hadamard(n, k), expected)


@pytest.mark.parametrize("n", range(2, 5))
def test_logical_phase_marks_indices_with_both_bits(n):
    theta = 0.3
    for i, j, _ in phase_keys(n, (theta,)):
        phases = [np.exp(1j * theta) if (l >> (i - 1)) & (l >> (j - 1)) & 1 else 1.0
                  for l in range(2**n)]
        assert np.array_equal(logical_phase(n, i, j, theta), np.diag(phases))


def test_phase_keys_cover_ordered_distinct_pairs():
    keys = list(phase_keys(3, (0.5, 0.25)))
    assert keys[:4] == [(1, 2, 0.5), (1, 2, 0.25), (1, 3, 0.5), (1, 3, 0.25)]
    assert len(keys) == 3 * 2 * 2 and all(i != j for i, j, _ in keys)


def test_contract_takes_worst_deviation_and_leakage_per_kind():
    wrong_h = logical_hadamard(2, 1).copy()
    wrong_h[3, 1] += 1e-3
    blocks = {
        ("h", 1): (wrong_h, 0.0),
        ("h", 2): (logical_hadamard(2, 2), 5e-4),
        ("p", 1, 2, 0.5): (logical_phase(2, 1, 2, 0.5), 2e-3),
    }
    assert contract(2, blocks, "h") == pytest.approx((1e-3, 5e-4))
    assert contract(2, blocks, "p") == (0.0, 2e-3)
