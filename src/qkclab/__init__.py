"""qkclab: a desk-scale quantum Kolmogorov complexity laboratory.

A fixed reference machine -- straight-line programs over an exact
Gaussian-rational gate set, fed through a self-delimiting prefix-free binary
encoding -- plus estimators that minimize (program length + redescription
penalty) by enumeration, a sampled measurement-driven approximation, and an
experiment suite for the counting, consistency and additivity properties the
construction supports.
"""

__version__ = "0.1.0"

from .census import (
    CensusReport,
    ConsistencyRecord,
    ConsistencySweep,
    SubadditivityReport,
    SuperposedBitReport,
    consistency_sweep,
    incompressibility_census,
    product_witness,
    rotated_basis,
    rotation_circuit,
    subadditivity_report,
    superposed_bit_example,
    uniform_sweep,
)
from .estimator import (
    EstimateRecord,
    ExactEstimate,
    SampledEstimate,
    TrialResult,
    bernoulli,
    exact_estimate,
    ideal_value,
    k_from_bound,
    projection_oracle,
    sampled_estimate,
    shortest_exact_program,
    upper_bound_witness,
)
from .executor import (
    CandidateTable,
    cached_outputs,
    candidate_rows,
    candidate_table,
    run,
)
from .proglang import (
    CALLC,
    ENCODING_VERSION,
    OPS,
    DecodedProgram,
    Program,
    decode,
    encode,
    enumerate_decoded,
    enumerate_programs,
    kraft_sum,
    program_from_json,
    program_to_json,
    verify_prefix_free,
)
from .statevec import (
    CNOT,
    INFINITE,
    PHASE,
    ROT,
    X,
    Basis,
    Gate,
    GaussianRational,
    StateVector,
    apply_circuit,
    apply_gate,
    basis_state,
    classical_state,
    fidelity,
    fidelity_to,
    penalty_bits,
    random_state,
    shannon_fano_code,
    shannon_fano_lengths,
    standard_basis,
    state_from_json,
    state_to_json,
    tensor,
    transformed_basis,
    zero_state,
)
