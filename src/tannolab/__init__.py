"""Numerical verification of the Tanno equation on pseudo-Kahler charts.

The package builds every object in the verification pipeline on concrete
model manifolds: exact chart calculus through truncated-Taylor jets, the
third-order equation and its first-order (Frobenius) reformulation, the
extended (2n+2)-dimensional operator with its star-product polynomial
calculus, projector construction and eigenstructure analysis, and metric
signature scans.  The :mod:`tannolab.cli` module drives named claim checks
over built-in charts and emits machine-readable reports.
"""

__version__ = "0.1.0"

from .charts import KahlerChart, standard_complex_structure
from .fields import (ConstField, ExprField, LinearComboField, MatrixField,
                     ScalarField)
from .calculus import (TensorValue, bar_form, christoffel, kahler_form,
                       kahler_residuals, laplacian, nabla_scalar,
                       raise_lower)
from .manifolds import (GeodesicPath, cpn_height_function, flat_kahler_chart,
                        fubini_study_chart, integrate_geodesic, sample_points,
                        sphere_second_eigenfunction)
from .tanno import (SolutionBundle, TannoProblem, bundle_from_f, f_from_mu,
                    gallot_tanno_residual, laplace_identity_residual, lightlike_third_derivative,
                    mu_hessian_residual, system_residual, tanno_residual,
                    trace_identity_residual, transport_bundle)
from .operator import (EigenstructureReport, ExtendedMatrix, PolynomialReal,
                       ProductBlockReport, SpectrumResult, assemble_L,
                       eigenstructure_at, minimal_polynomial, poly_star,
                       product_block_check, projector_from_solution, spectrum,
                       star_power, star_product)
from .signature import (SignatureReport, metric_signature, positivity_scan,
                        restrict_form)
from .verify import (SuiteConfig, VerificationReport, emit_report, run_suite)

__all__ = [name for name in dir() if not name.startswith("_")]
