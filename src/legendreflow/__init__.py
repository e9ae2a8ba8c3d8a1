"""Spectral simulation and verification of nonlocal inverse curvature flows
for l-convex Legendre curves."""

from .curves import (CurveClass, CurveKind, InputError, SupportFourier,
                     algebraic_area, algebraic_length, beta_of, classify,
                     sample_points, singular_angles, steiner_point,
                     uniform_grid)
from .spectral import (AliasError, GridFunction, Moments, analyze,
                       default_grid_size, derivative, l2_quantities, moments,
                       synthesize)
from .flows import (DegenerateLengthError, DiagnosticsRow, FlowConfig,
                    FlowState, FlowTrace, FlowType, GridFlowState, Scheme,
                    StabilityError, diagnostics, grid_stability_bound,
                    lambda_area, run, step_exact_modal, step_grid_rk4)
from .inequalities import (Constraint, CurveEnsembleSpec, Inequality,
                           InequalityReport, NotZeroLengthError,
                           RejectionExhaustedError, check_beta2_family,
                           check_beta2_zero_length, check_grad_family,
                           check_grad_zero_length, check_isoperimetric,
                           green_osher_quadratic, inequality_table,
                           random_curve, run_ensemble)

__version__ = "0.1.0"
