"""Implicit, energy-stable time integration of coupled heat/wave systems.

The package discretizes in time a coupled system pairing a heat equation
for a temperature with a damped wave equation for a potential, on uniform
1-D grids.  Each backward-difference step reduces to one monotone elliptic
solve; the discrete flow obeys an exact energy balance, and a refinement
harness measures the convergence order against modal or nested references.

Every public name is loaded on first use (PEP 562): ``import thermowave``
imports no submodule, and so no NumPy, and a name imports only the module
that defines it and what that module needs.
"""

from importlib import import_module as _import_module

# each submodule and the public names it defines; a submodule's own name
# is public too
_EXPORTS = {
    "convergence": "ErrorFigures ErrorReport SweepDivergedError SweepResult check_h_list "
                   "error_norms pick_reference sweep usable_cpus",
    "diagnostics": "AprioriMonitor EnergyRecord apriori_monitor apriori_ratios "
                   "build_interpolants energy energy_ledger interpolation_identities_check "
                   "iter_ledger lyapunov_check step_identity_residual",
    "nonlinearity": "Nonlinearity cubic_nonlinearity linear_reaction potential_total "
                    "zero_nonlinearity",
    "operators": "DIRICHLET NEUMANN DiscreteOperator Grid1D OperatorBundle ProblemPreset "
                 "Resolvent ResolventAuditError assemble_laplacian audit_bundle build_bundle "
                 "coupling_relative_bound gradient_inner h_inner h_norm identity_operator "
                 "laplacian_eigenvalues resolvent_solve solvability_threshold v_norm "
                 "v_norm_sq zero_operator",
    "oracle": "FieldSnapshot LinearReference ReferenceDivergedError exact_linear_solution "
              "fine_reference inverse_modal_transform modal_generator modal_transform",
    "profiles": "make_initial mode_vector random_smooth single_mode zero_profile",
    "stepper": "NewtonDivergedError RunResult State StepAuditError StepConfig StepPlan "
               "StepReport iter_run phi_equation_rhs run solve_phi step step_count",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names.split())}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # bound once, as an eager import would have
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
