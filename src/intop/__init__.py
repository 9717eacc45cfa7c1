"""Indefinite integration matrices on Gauss nodes and the solvers built on
them: transform inversion, one-sided convolution, Picard initial-value
iteration, and half-line integral equations, plus the quadrature oracle and
identity-verification suite used to check them.
"""

from .basis import (ExtrapolationWarning, IntervalMap, QuadratureBasis,
                    WeightFamily, barycentric_weights, build_basis,
                    interpolate, lagrange_cardinal, legendre_coefficients,
                    orthonormal_table, recurrence_coefficients)
from .convolve import (ControlSpec, control_demo, control_inverse,
                       control_response, convolve, damped_bessel_symbol)
from .errors import (IllConditionedError, NodeComputationError,
                     NonContractionError, NumericalError, OracleError,
                     PoleEvaluationError, SingularDesignError)
from .intmat import (EigenFactorization, IntegrationMatrices, ScaledMatrix,
                     ScalarSymbol, apply_real, build_integration_matrices,
                     eigen_factorize, matrix_function, scale, symbol_on_spectrum)
from .invert import fourier_demo, fourier_invert, laplace_demo, laplace_invert
from .ode import (ChainResult, OdeProblem, PicardResult, hermite_refine,
                  picard_solve, restart_extend, tangent_demo)
from .oracle import (adaptive_integrate, direct_convolution, load_fixtures,
                     running_integral)
from .report import SolveReport
from .verify import (ChainReport, ConjectureReport, HalfLineReport,
                     IdentityReport, NormBoundReport, RangeSample,
                     check_derivative_range, check_norm_bound,
                     check_positivity_identity, check_half_line_pairing,
                     check_integral_chain, conjecture_scan,
                     numerical_range_sample, verify_suite)
from .wiener_hopf import (WienerHopfProblem, WienerHopfResult, exp_kernel_demo,
                          truncated_exp_kernel_symbols)
from .wiener_hopf import solve as wiener_hopf_solve

__version__ = "0.1.0"
