"""Spectral simulation and verification of nonlocal inverse curvature flows
for l-convex Legendre curves."""

from .curves import (CurveClass, CurveKind, InputError, Point2,
                     SupportFourier, algebraic_area, algebraic_length,
                     beta_of, classify, ell_convex_residuals,
                     isoperimetric_deficit, sample_points, singular_angles,
                     steiner_point, uniform_grid)
from .spectral import (AliasError, GridFunction, Moments, analyze,
                       default_grid_size, derivative, l2_quantities, moments,
                       periodic_quadrature, synthesize)
from .flows import (DegenerateLengthError, DiagnosticsRow, FlowConfig,
                    FlowState, FlowTrace, FlowType, GridFlowState, Scheme,
                    StabilityError, WindowTooNoisyError, diagnostics,
                    fit_decay_rate, grid_stability_bound, lambda_area, run,
                    step_exact_modal, step_grid_rk4)
from .inequalities import (Constraint, CurveEnsembleSpec, InequalityReport,
                           ModeNotExcludedError, NotZeroLengthError,
                           RejectionExhaustedError, check_beta2_family,
                           check_beta2_zero_length, check_grad_family,
                           check_isoperimetric, equality_family,
                           green_osher_quadratic, random_curve, run_ensemble,
                           wirtinger_gap)

__version__ = "0.1.0"
