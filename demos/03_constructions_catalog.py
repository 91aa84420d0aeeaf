#!/usr/bin/env python3
"""The construction catalog, including the biangular lower-bound table.

E_ij bases give outer-product Riesz bases of the symmetric matrices; the
complex extension fills out all self-adjoint matrices. The biangular
frame (normalized pairwise sums of simplex vectors) is unit-norm tight
for every N, achieves the optimal upper outer bound (N+1)/2, and has the
curious property that N = 3 degenerates: two of its projections coincide.
"""

import numpy as np

import framekit as fk
from framekit.constructions import simplex_pairs
from framekit.outer import ambient_outer_dim

print("== E_ij bases: outer products span the symmetric matrices ==")
for n in (2, 3, 4):
    f = fk.eij_basis(n)
    os_ = fk.induce(f)
    print(f"  n={n}: M = {os_.m}, outer rank = {os_.rank}, "
          f"dim sym = {ambient_outer_dim(f.n, f.field)}")

print("\n== complex extension: dimension jumps to n^2 ==")
for n in (2, 3):
    os_ = fk.induce(fk.complex_eij_basis(n))
    print(f"  n={n}: M = {os_.m}, outer rank = {os_.rank}")

print("\n== biangular frames: lower outer Riesz bounds by dimension ==")
print("   N   lower bound        exact      upper bound   (N+1)/2")
exact = {2: "3/4", 3: "0", 4: "5/36", 5: "3/8", 6: "63/100"}
for n in range(2, 7):
    w = fk.induce(fk.biangular(n)).gram_spectrum.eigenvalues
    print(f"   {n}   {w[-1]:.12f}   {exact[n]:>7s}   {w[0]:.6f}      {(n + 1) / 2}")

print("\n== the N = 3 degeneracy, explicitly ==")
b3 = fk.biangular(3)
os3 = fk.induce(b3)
pairs = simplex_pairs(3)
i14, i23 = pairs.index((0, 3)), pairs.index((1, 2))
gap = np.linalg.norm(os3.outers[i14] - os3.outers[i23])
print(f"||Phi_14 - Phi_23||_F = {gap:.2e}  (the two projections coincide)")
print(f"outer rank = {os3.rank} of {os3.m}: the simplex vectors sum to zero, so the"
      f" pairs 12/34, 13/24 and 14/23 all coincide")
cert = fk.dependence_certificate(os3)
print(f"certificate support = {[i for i, a in enumerate(cert.coefficients) if abs(a) > 1e-8]}"
      f"  (indices of the coincident pair)")

print("\n== seeded random unit frames are reproducible ==")
f1 = fk.random_unit(3, 5, seed=42)
f2 = fk.random_unit(3, 5, seed=42)
print(f"same seed, identical vectors: {np.array_equal(f1.vectors, f2.vectors)}")
print(f"outer products independent: {fk.is_independent(fk.induce(f1))}")
