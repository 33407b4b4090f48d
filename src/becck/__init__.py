"""Cavity-condensate steady states, stability, and Gaussian fluctuations.

A laser-driven optical cavity couples to the momentum side modes of an
interacting Bose-Einstein condensate. The package solves the coupled
mean-field steady states (including the bistable regime), classifies
their stability, and computes quantum fluctuation observables such as
logarithmic negativity, quadrature squeezing, and incoherent phonon
excitation from the steady-state covariance matrix. An intrinsic
cross-Kerr coupling between the photon and phonon modes can be switched
on or off to isolate its effect.
"""

from .model import (DerivedParams, DomainError, SystemParams,
                    bogoliubov_frequency, derive_params, omega_pm,
                    thermal_occupation, validity_flags)
from .meanfield import (BranchSet, MeanFieldBranch, consistency_residual,
                        enumerate_branches, upper_bound_photons)
from .dynamics import (DriftDiffusion, InternalConsistencyError,
                       StabilityReport, build_drift_diffusion,
                       characteristic_coefficients, drift_matrix,
                       finite_difference_jacobian, langevin_drift_field,
                       quadrature_fixed_point, routh_hurwitz_quartic)
from .steadystate import (CovarianceMatrix, ObservableSet,
                          UnstableDriftError, integrate_moment_ode,
                          logarithmic_negativity, observable_set,
                          solve_lyapunov, squeezing_and_excitation,
                          symplectic_eigenvalues)
from .sweep import SweepRow, SweepSpec, paper_base_params, run_sweep

__version__ = "0.1.0"

__all__ = [
    "SystemParams", "DerivedParams", "DomainError", "derive_params",
    "omega_pm", "bogoliubov_frequency", "thermal_occupation",
    "validity_flags",
    "MeanFieldBranch", "BranchSet", "enumerate_branches",
    "consistency_residual", "upper_bound_photons",
    "DriftDiffusion", "StabilityReport", "InternalConsistencyError",
    "drift_matrix", "build_drift_diffusion", "langevin_drift_field",
    "quadrature_fixed_point", "finite_difference_jacobian",
    "characteristic_coefficients", "routh_hurwitz_quartic",
    "CovarianceMatrix", "ObservableSet", "UnstableDriftError",
    "solve_lyapunov", "integrate_moment_ode", "symplectic_eigenvalues",
    "logarithmic_negativity", "squeezing_and_excitation", "observable_set",
    "SweepSpec", "SweepRow", "paper_base_params", "run_sweep",
    "__version__",
]
