"""Chiral-cavity polaritonics: analytic chiral Hopfield and Tavis-Cummings
solvers, orientation averaging, and a truncated-Fock exact-diagonalization
oracle. Atomic units with hbar = 1 throughout."""

from .couplings import (
    DerivedCouplings,
    InstabilityError,
    MagneticInstabilityError,
    MonteCarloEstimate,
    derive_couplings,
    orientation_averaged_coupling_sq,
    sample_orientation_coupling,
)
from .emitters import Emitter, chiral_tdm_vector
from .fields import (
    SPEED_OF_LIGHT_AU,
    CavityMode,
    polarization_gradient,
    standing_wave_polarization,
)
from .fock_oracle import (
    FockConfig,
    LadderFit,
    OracleReport,
    fit_ladder,
    low_levels,
    oracle_check,
)
from .hopfield import (
    BranchCoefficients,
    DiscriminationResult,
    PolaritonInstabilityError,
    PolaritonSolution,
    discrimination,
    find_critical_n,
    hopfield_coefficients,
    polariton_frequencies,
    solve_polaritons,
    stability_factors,
)
from .scantable import ScanTable
from .tavis_cummings import TCSpectrum, dispersion_scan, single_excitation_spectrum

__version__ = "0.1.0"
