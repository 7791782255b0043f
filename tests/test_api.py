"""The public API of `dfsqft`: the exported names are pinned, so a module move
that drops or adds one fails here."""
import dfsqft

PUBLIC_API = [
    "BlockCode", "Circuit", "CircuitParseError", "CollectiveModel",
    "ENDPOINTS_ONLY", "GRANULARITIES", "Gate", "NoiseEvent", "NoisePolicy",
    "PER_ELEMENTARY_GATE", "PER_LOGICAL_BLOCK", "PLAIN", "RunReport", "SCD",
    "StateVector", "SubspaceBasis", "WCD", "__version__", "apply_circuit",
    "apply_noise", "bit_reversal_permutation", "brute_force_max_dfs_dimension",
    "circuit_unitary", "cn", "collective_operator", "cr", "dfs_basis", "dft_matrix",
    "eta_max", "fidelity", "global_phase_agreement", "h", "invert",
    "logical_block_boundaries", "max_dfs_dimension", "min_physical_qubits",
    "p", "parse_circuit", "print_circuit", "r", "restrict", "run_trials",
    "scd_block_transform", "scd_hadamard", "scd_phase", "scd_transform_matrix",
    "synth_logical_qft", "synth_qft", "synth_qft_scd", "synth_qft_wcd",
    "unitarity_defect", "wcd_encoder_circuit", "wcd_hadamard",
    "wcd_phase", "wcd_sector_dimensions",
]


def test_all_is_pinned():
    assert sorted(dfsqft.__all__) == PUBLIC_API


def test_every_exported_name_resolves():
    missing = [name for name in dfsqft.__all__ if not hasattr(dfsqft, name)]
    assert missing == []
