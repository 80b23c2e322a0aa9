"""Count statistics of determinantal point processes on the complex plane
and the Poincare disc: correlation kernels, disc geometry, count variances
(one lens integral with an exact rest per geometry), large-radius
asymptotics, and the exact Poisson-binomial count law of the lowest disc level.
"""

from .counting import (BernoulliProfile, CountDistribution, binomial_moment,
                       binomial_moments, build_profile, distribution,
                       generating_function, sample_counts, sample_distribution,
                       variance_series)
from .exceptions import DomainError, QuadratureFailure, TruncationFailure
from .geometry import (ImageDisc, LensIntegralResult,
                       euclidean_lens_complement_area, hyperbolic_distance,
                       hyperbolic_lens_integral,
                       hyperbolic_lens_integral_transformed, image_disc,
                       mobius)
from .kernels import (EuclideanLevel, HyperbolicLevel, f_profile,
                      fock_kernel_sq_weighted, hyperbolic_kernel,
                      hyperbolic_kernel_abs_sq)
from .quadrature import DEFAULT_QUAD, QuadratureConfig
from .specfun import jacobi_zero_beta, laguerre
from .variance import (ContractionRow, VarianceResult, asymptotic_constant,
                       contraction_check, variance_euclidean_geometric,
                       variance_euclidean_shirai, variance_hyperbolic,
                       variance_hyperbolic_via_transformed)

__version__ = "0.1.0"

__all__ = [
    "BernoulliProfile",
    "ContractionRow",
    "CountDistribution",
    "DEFAULT_QUAD",
    "DomainError",
    "EuclideanLevel",
    "HyperbolicLevel",
    "ImageDisc",
    "LensIntegralResult",
    "QuadratureConfig",
    "QuadratureFailure",
    "TruncationFailure",
    "VarianceResult",
    "asymptotic_constant",
    "binomial_moment",
    "binomial_moments",
    "build_profile",
    "contraction_check",
    "distribution",
    "euclidean_lens_complement_area",
    "f_profile",
    "fock_kernel_sq_weighted",
    "generating_function",
    "hyperbolic_distance",
    "hyperbolic_kernel",
    "hyperbolic_kernel_abs_sq",
    "hyperbolic_lens_integral",
    "hyperbolic_lens_integral_transformed",
    "image_disc",
    "jacobi_zero_beta",
    "laguerre",
    "mobius",
    "sample_counts",
    "sample_distribution",
    "variance_euclidean_geometric",
    "variance_euclidean_shirai",
    "variance_hyperbolic",
    "variance_hyperbolic_via_transformed",
    "variance_series",
]
