"""Leakage dynamics of Kitaev-tetron qubits under chemical-potential ramps.

The package simulates a tetron (two identical, uncoupled Kitaev chains) by
evolving the occupied orbitals of each chain's Slater determinant, and
provides an exact Fock-space oracle for small chains, closed-form
sudden/near-adiabatic leakage predictions with fitting routines, and a
random-walk model for the Pauli errors caused by quasiparticle absorption.
"""

from .analytics import (
    FitResult,
    dynamic_phase_frequency,
    fit_half_lz,
    fit_linear_in_n,
    fit_power_approach,
    half_lz_model,
    mzm_overlap,
    near_adiabatic_even_envelope,
    sudden_even_integral,
    sudden_even_prediction,
    sudden_odd_prediction,
)
from .dynamics import (
    FockSpace,
    LeakageRecord,
    SteppingPolicy,
    Trajectory,
    evolve_ramp,
    evolve_ramps,
    fock_oracle,
    fock_quench,
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
from .model import (
    ChainParams,
    ModeBasis,
    RampProtocol,
    band_gap,
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
