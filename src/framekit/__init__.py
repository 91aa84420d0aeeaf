"""framekit: frames, Riesz bounds, and rank-one outer product geometry.

A small numpy library for analyzing finite frames and the sequences of
rank-one projections they induce: frame/Riesz bounds, independence of
outer products, PSD bordered extensions, a geometric dependence
classifier, quantitative perturbation bounds, and a catalog of named
constructions.  The ``framekit`` CLI exposes construction, analysis,
classification, repair, and a reproduction suite.
"""

__version__ = "0.1.0"

from .constructions import (
    ConstructionSpec,
    biangular,
    build,
    complex_eij_basis,
    eij_basis,
    epsilon_pair,
    orthonormal,
    random_unit,
    random_unit_stack,
    simplex,
)
from .errors import FramekitError
from .frame import (
    BoundsReport,
    Frame,
    analysis,
    frame_bounds,
    frame_operator,
    frame_potential,
    gram,
    is_equiangular,
    reconstruct,
    riesz_bounds,
    synthesis,
)
from .geometry import (
    BatchClassification,
    ClassificationReport,
    PreparedBatch,
    PsdExtension,
    admissible_coefficients,
    admissible_vector,
    classify,
    classify_batch,
    classify_frames,
    elliptic_value,
    ellipsoid_residual,
    extension_rank_preserved,
    mu2_subset_mu4_probe,
    prepare,
    prepare_batch,
    psd_extension,
    quartic_residual,
)
from .matcore import (
    SpectralData,
    frobenius_ip,
    hadamard,
    hermitian_eig,
    kronecker,
    numerical_rank,
    sylvester_det_check,
    vectorize_outer,
)
from .outer import (
    DependenceCertificate,
    OuterBatch,
    cross_duals,
    cross_gram,
    dependence_certificate,
    induce,
    induce_batch,
    is_independent,
    optimal_bound_report,
    outer_duals,
    outer_duals_of,
    outer_riesz_bounds,
    sparsity_check,
)
from .perturb import (
    independence_radius,
    nearby_independent_basis,
    nudge_batch,
    nudge_to_independence,
    outer_distance,
    perturbed_riesz_bounds,
    rescale_invariance_check,
)
