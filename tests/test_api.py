"""The public API of `dfsqft`: the exported names are pinned, so a module move
that drops or adds one fails here."""
import dfsqft

PUBLIC_API = [
    "Circuit", "CircuitParseError", "CollectiveModel", "ConventionError", "ConventionReport",
    "DfsReport", "ENDPOINTS_ONLY", "GRANULARITIES", "Gate", "GateFactory", "NoiseEvent",
    "NoisePolicy", "OutputOrder", "PER_ELEMENTARY_GATE", "PER_LOGICAL_BLOCK", "RunReport",
    "ScdAngles", "ScdConvention", "ScdRegister", "StateVector", "SubspaceBasis", "WcdRegister",
    "__version__", "apply_circuit", "apply_gate", "apply_noise", "bit_reversal_permutation",
    "brute_force_max_dfs_dimension", "circuit_unitary", "cn", "collective_operator",
    "convention_report", "cr", "dfs_basis", "dfs_report", "dft_matrix",
    "equal_up_to_global_phase", "eta_max", "fidelity", "global_phase_agreement", "h", "invert",
    "is_unitary", "logical_block_boundaries", "max_dfs_dimension", "min_physical_qubits",
    "noisy_run", "p", "parse_circuit", "print_circuit", "r", "resolve_convention",
    "resolve_output_order", "restrict", "sample_event", "scd_block_transform", "scd_factory",
    "scd_hadamard", "scd_logical_basis", "scd_logical_state", "scd_phase",
    "scd_qft_block_boundaries", "scd_transform_matrix", "single_qubit_rotation",
    "synth_logical_qft", "synth_qft", "synth_qft_scd", "synth_qft_wcd", "trivial_factory",
    "unitarity_defect", "wcd_encoder_circuit", "wcd_factory", "wcd_hadamard",
    "wcd_logical_basis", "wcd_logical_state", "wcd_phase", "wcd_qft_block_boundaries",
    "wcd_sector_dimensions",
]


def test_all_is_pinned():
    assert sorted(dfsqft.__all__) == PUBLIC_API


def test_every_exported_name_resolves():
    missing = [name for name in dfsqft.__all__ if not hasattr(dfsqft, name)]
    assert missing == []
