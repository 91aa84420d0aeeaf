#!/usr/bin/env python3
"""Which new vectors make an outer-product sequence dependent?

The machinery: bordering a PSD matrix T with a column v and corner 1
preserves rank exactly when v = sum(a_i sqrt(lambda_i) e_i) over the
positive eigenpairs with unit-norm coefficients. Feeding the Gram matrix
of an independent outer sequence through that criterion turns "does the
candidate extend dependently" into evaluating one scalar function of the
candidate: 1 means dependent, anything else independent. Geometrically
the dependent candidates are the preimage of an ellipsoid-quartic
intersection, a compact (usually measure-zero) subset of the sphere.
"""

import numpy as np

import framekit as fk
from framekit.frame import analysis

print("== rank-preserving borders of a PSD matrix ==")
t = np.diag([2.0, 1.0, 0.0])
ext = fk.psd_extension(t)
print(f"T = diag(2, 1, 0), positive eigenpairs at indices {ext.i_plus}")
for v, label in [
    (np.array([np.sqrt(2.0), 0.0, 0.0]), "sqrt(2) e1       (on family)"),
    (np.array([1.0, 1 / np.sqrt(2.0), 0.0]), "mixed admissible (on family)"),
    (np.array([0.0, 0.0, 1.0]), "kernel direction (off family)"),
    (np.array([0.7, 0.0, 0.0]), "wrong scale      (off family)"),
]:
    kept = fk.extension_rank_preserved(ext, v)
    coeff = fk.admissible_coefficients(ext, v)
    print(f"  {label}: rank preserved={kept}, "
          f"coefficients={'none' if coeff is None else np.round(coeff, 6)}")

print("\n== classifying candidates against an orthonormal triple ==")
f = fk.orthonormal(3)
for cand in [np.array([0.0, 1.0, 0.0]),
             np.array([1.0, 1.0, 0.0]) / np.sqrt(2)]:
    rep = fk.classify(f, cand)
    print(f"  candidate {np.round(cand, 4)}: {rep.verdict} "
          f"(elliptic value {rep.elliptic_value:.4f}, "
          f"ellipsoid residual {fk.ellipsoid_residual(f, rep.tv):.1e})")

print("\n== the dependent locus has measure zero ==")
hits = 0
rng = np.random.default_rng(0)
for _ in range(2000):
    cand = rng.standard_normal(3)
    cand /= np.linalg.norm(cand)
    if fk.classify(f, cand).verdict == "dependent":
        hits += 1
print(f"random unit candidates landing on the locus: {hits}/2000")

print("\n== when the outers already span, everything is dependent ==")
base = fk.eij_basis(2)  # 3 outer products spanning sym(R^2x2)
worst = fk.mu2_subset_mu4_probe(base, samples=500, seed=1)
print(f"max quartic residual of T psi over 500 random unit psi: {worst:.2e}")
print("every analysis image lies on the quartic manifold, as predicted")

print("\n== the same check through the raw residuals ==")
a = analysis(base)
psi = rng.standard_normal(2)
psi /= np.linalg.norm(psi)
tv = a @ psi
print(f"ellipsoid residual of T psi : {fk.ellipsoid_residual(base, tv):.2e}")
print(f"quartic residual of T psi   : {fk.quartic_residual(base, tv):.2e}")
