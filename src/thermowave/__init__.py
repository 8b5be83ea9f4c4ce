"""Implicit, energy-stable time integration of coupled heat/wave systems.

The package discretizes in time a coupled system pairing a heat equation
for a temperature with a damped wave equation for a potential, on uniform
1-D grids.  Each backward-difference step reduces to one monotone elliptic
solve; the discrete flow obeys an exact energy balance, and a refinement
harness measures the convergence order against modal or nested references.
"""

from .convergence import (ErrorFigures, ErrorReport, SweepDivergedError, SweepResult,
                          check_h_list, error_norms, pick_reference, sweep, usable_cpus)
from .diagnostics import (AprioriMonitor, EnergyRecord, apriori_monitor, apriori_ratios,
                          build_interpolants, energy, energy_ledger,
                          interpolation_identities_check, iter_ledger, lyapunov_check,
                          step_identity_residual)
from .nonlinearity import (Nonlinearity, cubic_nonlinearity, linear_reaction,
                           potential_total, zero_nonlinearity)
from .operators import (DIRICHLET, NEUMANN, DiscreteOperator, Grid1D,
                        OperatorBundle, ProblemPreset, Resolvent, ResolventAuditError,
                        assemble_laplacian, audit_bundle, build_bundle,
                        coupling_relative_bound, gradient_inner, h_inner, h_norm,
                        identity_operator, laplacian_eigenvalues, resolvent_solve,
                        solvability_threshold, v_norm, v_norm_sq, zero_operator)
from .oracle import (FieldSnapshot, LinearReference, ReferenceDivergedError,
                     exact_linear_solution, fine_reference, inverse_modal_transform,
                     modal_generator, modal_transform)
from .profiles import make_initial, mode_vector, random_smooth, single_mode, zero_profile
from .stepper import (NewtonDivergedError, RunResult, State, StepAuditError,
                      StepConfig, StepPlan, StepReport, iter_run, phi_equation_rhs,
                      run, solve_phi, step, step_count)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
