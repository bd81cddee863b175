"""Leakage dynamics of Kitaev-tetron qubits under chemical-potential ramps.

The package simulates a tetron (two identical, uncoupled Kitaev chains) with
the covariance-matrix method for fermionic Gaussian states, provides an exact
Fock-space oracle for small chains, closed-form sudden/near-adiabatic leakage
predictions with fitting routines, and a random-walk model for the Pauli
errors caused by quasiparticle absorption.
"""

from .analytics import (
    FitResult,
    SuddenPrediction,
    dynamic_phase_frequency,
    fit_half_lz,
    fit_linear_in_n,
    fit_power_approach,
    half_lz_model,
    mzm_overlaps,
    near_adiabatic_even_envelope,
    sudden_even_integral,
    sudden_even_prediction,
    sudden_odd_prediction,
    sudden_prediction,
)
from .dynamics import (
    FockSpace,
    LeakageRecord,
    SteppingPolicy,
    Trajectory,
    evolve_ramp,
    fock_oracle,
    initial_plus_state,
    measure_leakage,
    sudden_quench,
)
from .errors import (
    BasisMismatchError,
    ConfigError,
    DegenerateSubspaceError,
    FitConvergenceError,
    InvalidParameterError,
    StepSizeTooCoarse,
)
from .gaussian import (
    CorrelationMatrix,
    CovarianceMatrix,
    QubitStateLabel,
    covariance_from_correlation,
    ground_state_qp_correlation,
    overlap_sq,
    parity_expectation,
    pfaffian4,
    qp_occupied_pair_covariance,
    qp_vacuum_covariance,
    rotate_to_qp_basis,
    rotate_to_site_basis,
)
from .model import (
    BdGMatrix,
    ChainParams,
    ModeBasis,
    RampProtocol,
    band_gap,
    build_chain_bdg,
    bulk_energy,
    is_topological,
    resolved_basis,
)
from .qpwalk import (
    WalkConfig,
    WalkResult,
    absorb_prob_right,
    average_opposite,
    prob_opposite_ends,
    simulate_pair_walks,
)

__version__ = "0.1.0"
