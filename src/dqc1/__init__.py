"""Simulation and analysis toolkit for the one-clean-qubit trace-estimation
circuit: exact and finite-shot readout, entangling-power closed forms with
their sampling cross-checks, and deterministic parameter sweeps."""

from .linalg import (
    HADAMARD,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SeededRng,
    Spectrum,
    eig_hermitian,
    eig_unitary,
    haar_unitary,
    is_density,
    is_right_unitary,
    is_unitary,
    kron,
    load_matrix,
    normalized_trace,
    random_density,
    random_right_unitary,
    save_matrix,
    trace_overlap,
)
from .circuit import (
    ControlQubit,
    Dqc1Instance,
    diag_phase_unitary,
    final_control_closed,
    general_final_control,
    linear_entropy_closed,
    pauli_string,
    unitary_from_spec,
)
from .measurement import (
    ErrorBudget,
    TraceEstimate,
    entpower_from_rounds,
    error_budget,
    estimate_trace,
    expect_pauli,
    rounds_for_budget,
    sample_shots,
)
from .entpower import (
    BranchCoefficients,
    PureEnsemble,
    analytic_min_T,
    branch_coefficients,
    brute_force_entpower,
    brute_force_min_mixing,
    decompose_from_T,
    ensemble_average,
    entpower_alpha,
    entpower_bounds,
    entpower_standard,
    fourier_ensemble,
    lambda_factor,
    mixing_factor,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    load_config,
    parse_config,
    run_experiment,
    write_results,
)

__version__ = "0.1.0"
