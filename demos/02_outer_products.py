#!/usr/bin/env python3
"""Induced outer products and their Gram matrix.

Each vector phi induces the rank-one projection phi phi*. The Gram matrix
of those projections under the Frobenius inner product is the entrywise
squared modulus of the vector Gram matrix, so spectral facts about the
vectors transfer to the projections through the Hadamard product. The
punchline: unit-norm Riesz sequences give Riesz outer products with the
same or better bounds.
"""

import numpy as np

import framekit as fk
from framekit.outer import vectorized_synthesis

print("== the Gram of outer products is |G|^2 entrywise ==")
pair = fk.epsilon_pair(0.25)
os_ = fk.induce(pair)
print("vector Gram:")
print(fk.gram(pair))
print("outer-product Gram:")
print(os_.gram_op)
vb = fk.riesz_bounds(pair)
ob = fk.outer_riesz_bounds(os_)
print(f"vector bounds ({vb.lower}, {vb.upper})  ->  outer bounds ({ob.lower}, {ob.upper})")
print("the outer bounds are strictly better here")

print("\n== independence can fail, and the failure is certifiable ==")
dup = fk.Frame.from_vectors(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
os_dup = fk.induce(dup)
print(f"rank of the outer Gram = {os_dup.rank} out of {dup.m}")
cert = fk.dependence_certificate(os_dup)
print(f"certificate coefficients = {np.round(cert.coefficients, 6)}")
print(f"annihilation residual    = {cert.residual:.2e}")

print("\n== a sparsity shortcut for independence ==")
print(f"eij_basis(3) passes the coordinate-support test: "
      f"{fk.sparsity_check(fk.eij_basis(3))}")
print(f"simplex(2) fails the test (but is still independent): "
      f"{fk.sparsity_check(fk.simplex(2))} / "
      f"{fk.is_independent(fk.induce(fk.simplex(2)))}")

print("\n== optimal bounds for unit-norm frames ==")
rep = fk.optimal_bound_report(fk.induce(fk.simplex(4)))
print(f"upper floor M/N = {rep.upper_bound_floor}, achieved = {rep.achieved_upper:.6f}")
print(f"lower ceiling M(N-1)/(N(M-1)) = {rep.lower_bound_ceiling:.6f}, "
      f"achieved = {rep.achieved_lower:.6f}")
print("the simplex attains both: equiangular tight frames are the extremal case")

print("\n== biorthogonal duals need a projection ==")
f = fk.Frame.from_vectors(np.array([[1.0, 0.0], [np.cos(0.7), np.sin(0.7)]]))
duals = fk.outer_duals(f)  # an (M, N, N) stack, from one solve in the outer Gram
# entry (i, j) is <phi_i phi_i*, dual_j>: rows of the vectorized synthesis
# against the vectorized duals
bio = vectorized_synthesis(f).conj() @ duals.reshape(f.m, -1).T
print("biorthogonality matrix (projected duals):")
print(np.round(bio, 12))

print("\n== cross products: Gram becomes a Kronecker product ==")
g = fk.random_unit(2, 2, seed=5)
h = fk.cross_gram(f, g)
print(f"cross Gram of {f.m}x{g.m} rank-one matrices has shape {h.shape}")
wf = np.sort(np.linalg.eigvalsh(fk.gram(f)))
wg = np.sort(np.linalg.eigvalsh(fk.gram(g)))
wh = np.sort(np.linalg.eigvalsh(h))
print(f"eigenvalues  : {np.round(wh, 6)}")
print(f"all products : {np.round(np.sort(np.outer(wf, wg).ravel()), 6)}")
