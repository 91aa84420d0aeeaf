"""framekit: frames, Riesz bounds, and rank-one outer product geometry.

A small numpy library for analyzing finite frames and the sequences of
rank-one projections they induce: frame/Riesz bounds, independence of
outer products, PSD bordered extensions, a geometric dependence
classifier, quantitative perturbation bounds, and a catalog of named
constructions.  The ``framekit`` CLI exposes construction, analysis,
classification, repair, and a reproduction suite.

``import framekit`` runs none of the submodules: each public name is
imported from its module when it is first read (PEP 562), so a process
compiles and runs only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "constructions": ("biangular", "build", "complex_eij_basis", "eij_basis",
                      "epsilon_pair", "orthonormal", "random_unit", "random_unit_stack",
                      "simplex"),
    "errors": ("FramekitError",),
    "frame": ("BoundsReport", "Frame", "analysis", "frame_bounds", "frame_operator",
              "frame_potential", "gram", "is_equiangular", "reconstruct", "riesz_bounds",
              "synthesis"),
    "geometry": ("BatchClassification", "ClassificationReport", "PreparedBatch",
                 "PsdExtension", "admissible_coefficients", "admissible_vector", "classify",
                 "classify_batch", "classify_frames", "elliptic_value", "ellipsoid_residual",
                 "extension_rank_preserved", "mu2_subset_mu4_probe", "prepare",
                 "prepare_batch", "psd_extension", "quartic_residual"),
    "matcore": ("SpectralData", "hermitian_eig", "kronecker", "numerical_rank",
                "vectorize_outer"),
    "outer": ("DependenceCertificate", "OuterBatch", "cross_duals", "cross_gram",
              "dependence_certificate", "induce", "induce_batch", "is_independent",
              "optimal_bound_report", "outer_duals", "outer_duals_of", "outer_riesz_bounds",
              "sparsity_check"),
    "perturb": ("independence_radius", "nearby_independent_basis", "nudge_batch",
                "nudge_to_independence", "outer_distance", "perturbed_riesz_bounds"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
#: Submodules, attributes of the package whether or not an import has set
#: them (``cli`` registers its modules without setting them).
_SUBMODULES = (*_EXPORTS, "cli", "rng", "serialization", "verify")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """A public name, or a submodule, imported on first use."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
