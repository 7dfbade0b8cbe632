"""Spherical random polytopes on a right-angled wedge: sampling, exact facet
counts, closed-form constants, and numerical cross-checks."""

from .errors import (
    DegenerateInput,
    DomainError,
    FitError,
    HalfSphereViolation,
    InternalError,
    QuadratureError,
    ResourceLimit,
    SamplerStalled,
    WedgehullError,
)
from .formulas import (
    EstimatorReport,
    ModelConstants,
    appendix_f,
    estimate_A_d,
    girard_area,
    i2_bounds,
    i2_closed,
    i2_complement,
    model_constants,
    parallelotope_volume,
)
from .geometry import (
    WedgeCoords,
    WedgeModel,
    angles_from_normal,
    gnomonic_inverse,
    gnomonic_project,
    napier_jacobian,
    napier_reflect,
    normal_from_angles,
    omega,
    opening_angle,
    orthonormal_complement,
    wedge_contains,
    wedge_measure,
)
from .experiments import (
    ExperimentConfig,
    RunRecord,
    SlopeFit,
    config_hash,
    fit_slope,
    run_experiment,
    summarize,
)
from .hull import FacetSet, facets_ambient, facets_projected
from .oracles import (
    LimitLemmaReport,
    mc_binomial_limit_lemma,
    mc_cap_measure,
    mc_I1,
    quadrature_I1_dim2,
)
from .sampling import (
    SampleCloud,
    SeedSpec,
    derive_stream,
    sample_beta_prime,
    sample_poisson_wedge,
    sample_uniform_sphere,
    sample_uniform_wedge,
)

__version__ = "1.0.0"
