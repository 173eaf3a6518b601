"""symtest: symmetric/antisymmetric quantum test functions.

Generates the admissible (recursively symmetric or antisymmetric)
Boolean functions, simulates the Hadamard-oracle-Hadamard pipeline that
maps signed basis states to signed basis states, predicts the output
analytically, builds the function catalogs and mapping charts, and
measures success probability under injected gate faults.
"""

from .boolfunc import (
    MAX_N,
    FunctionClass,
    NotAdmissibleError,
    ParityForm,
    TruthTable,
    classify,
    from_parity_form,
    generate_functions,
    hex_decode,
    is_admissible,
    is_invariant_under,
    padded_hex,
    to_parity_form,
)
from .charts import FunctionCatalog, MappingChart, build_catalog, build_chart, render
from .circuits import (
    CNOT,
    Circuit,
    Gate,
    H,
    X,
    assert_equivalent,
    compile_equivalent,
    iter_basis_inputs,
    oracle_as_cnots,
    pipeline_as_circuit,
    simulate_circuit,
)
from .oracle import QuantumOracle, format_matrix
from .pipeline import (
    CorruptOracleEntry,
    Fault,
    PipelineResult,
    RotateQubit,
    SkipHadamard,
    VerifyReport,
    predict,
    run,
    run_vector,
    solve_function,
    success_probability,
    verify_all,
)
from .statevec import (
    MAX_QUBITS,
    BasisKet,
    EntangledError,
    NotBasisStateError,
    StateVector,
    factor_product_state,
    format_vector,
    hadamard_all,
    ket_to_vector,
    parse_ket,
    parse_vector,
    vector_to_ket,
)

__version__ = "0.1.0"
