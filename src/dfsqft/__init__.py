"""Noise-protected quantum Fourier transforms over decoherence-free subspaces.

A small numpy toolkit that synthesizes QFT circuits — plain, and encoded
against weak (dephasing-only) or strong (full collective) decoherence —
simulates them on dense state vectors, and verifies every construction
to machine precision: logical gate actions, noise invariance, subspace
restrictions against the DFT matrix, and sector dimension formulas.
"""
from .circuits import (
    Circuit,
    CircuitParseError,
    Gate,
    cn,
    cr,
    h,
    invert,
    p,
    parse_circuit,
    print_circuit,
    r,
)
from .dfs import (
    CollectiveModel,
    brute_force_max_dfs_dimension,
    collective_operator,
    dfs_basis,
    eta_max,
    max_dfs_dimension,
    min_physical_qubits,
    wcd_sector_dimensions,
)
from .noise import (
    ENDPOINTS_ONLY,
    GRANULARITIES,
    PER_ELEMENTARY_GATE,
    PER_LOGICAL_BLOCK,
    NoiseEvent,
    NoisePolicy,
    RunReport,
    apply_noise,
    run_trials,
)
from .qft import (
    PLAIN,
    BlockCode,
    bit_reversal_permutation,
    dft_matrix,
    logical_block_boundaries,
    synth_logical_qft,
    synth_qft,
)
from .scd import (
    SCD,
    scd_block_transform,
    scd_hadamard,
    scd_phase,
    scd_transform_matrix,
    synth_qft_scd,
)
from .statevector import (
    StateVector,
    SubspaceBasis,
    apply_circuit,
    circuit_unitary,
    fidelity,
    global_phase_agreement,
    restrict,
    unitarity_defect,
)
from .wcd import (
    WCD,
    synth_qft_wcd,
    wcd_encoder_circuit,
    wcd_hadamard,
    wcd_phase,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # circuits
    "Gate", "Circuit", "CircuitParseError", "h", "cn", "r", "p", "cr",
    "invert", "parse_circuit", "print_circuit",
    # statevector
    "StateVector", "SubspaceBasis", "apply_circuit",
    "circuit_unitary", "fidelity", "restrict", "unitarity_defect",
    "global_phase_agreement",
    # qft
    "dft_matrix", "synth_qft", "synth_logical_qft", "BlockCode",
    "PLAIN", "logical_block_boundaries", "bit_reversal_permutation",
    # dfs
    "CollectiveModel", "collective_operator", "dfs_basis", "max_dfs_dimension",
    "brute_force_max_dfs_dimension", "wcd_sector_dimensions", "eta_max",
    "min_physical_qubits",
    # wcd
    "wcd_hadamard", "wcd_phase", "wcd_encoder_circuit", "WCD", "synth_qft_wcd",
    # scd
    "scd_block_transform", "scd_transform_matrix", "scd_hadamard", "scd_phase",
    "SCD", "synth_qft_scd",
    # noise
    "NoiseEvent", "NoisePolicy", "RunReport", "apply_noise", "run_trials",
    "GRANULARITIES", "PER_ELEMENTARY_GATE", "PER_LOGICAL_BLOCK", "ENDPOINTS_ONLY",
]
