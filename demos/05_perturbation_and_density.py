#!/usr/bin/env python3
"""Stability of Riesz bounds and the density of independence.

Riesz bounds degrade gracefully: a perturbation of total squared size
eps^2 < A moves the bounds to ((sqrt(A)-eps)^2, (sqrt(B)+eps)^2). For
outer products, ||phi phi* - psi psi*||_F^2 = 2(1 - |<phi,psi>|^2) is at
most 2||phi - psi||^2, which buys an open independence neighborhood of
radius A/2. Density is constructive: any dependent frame (with M at most
the ambient dimension) can be repaired by arbitrarily small nudges.
"""

import numpy as np

import framekit as fk

print("== bound envelope under perturbation ==")
f = fk.random_unit(3, 3, seed=11)
rb = fk.riesz_bounds(f)
print(f"original Riesz bounds: ({rb.lower:.4f}, {rb.upper:.4f})")
rng = np.random.default_rng(1)
noise = rng.standard_normal((3, 3))
noise *= 0.3 * np.sqrt(rb.lower) / np.linalg.norm(noise)
eps_sq = float(np.linalg.norm(noise)) ** 2
lo, hi = fk.perturbed_riesz_bounds(rb.lower, rb.upper, eps_sq)
moved = fk.Frame.from_vectors(f.vectors + noise)
mb = fk.riesz_bounds(moved)
print(f"budget eps^2 = {eps_sq:.4f} -> guaranteed envelope ({lo:.4f}, {hi:.4f})")
print(f"measured bounds after the move: ({mb.lower:.4f}, {mb.upper:.4f})")

print("\n== outer products move at most sqrt(2) times as fast ==")
phi = np.array([1.0, 0.0])
psi = np.array([1.0, 1.0]) / np.sqrt(2)
print(f"||phi phi* - psi psi*||_F^2 = {fk.outer_distance(phi, psi):.6f}")
print(f"2 ||phi - psi||^2           = {2 * np.linalg.norm(phi - psi) ** 2:.6f}")

print("\n== an open neighborhood where independence cannot break ==")
os_ = fk.induce(fk.epsilon_pair(0.25))
print(f"lower outer bound A = 0.75, safe squared-budget radius = "
      f"{fk.independence_radius(os_)}")

print("\n== independence is invariant under invertible rescaling ==")
s = np.array([[3.0, 1.0], [0.0, 0.2]])
f = fk.random_unit(2, 3, seed=3)
mapped = fk.Frame.from_vectors(f.vectors @ s.T)
print(f"outer rank of phi_i: {fk.induce(f).rank}, of S phi_i: {fk.induce(mapped).rank}")

print("\n== a whole outer-product basis within any distance of one vector ==")
psi = np.array([0.6, 0.8])
basis = fk.nearby_independent_basis(psi, eps=0.05)
dists = [float(np.linalg.norm(v - psi)) ** 2 for v in basis]
print(f"{len(basis)} unit vectors, all with ||v - psi||^2 < 0.05:")
print(f"  squared distances: {np.round(dists, 5)}")
print(f"  outer rank: {fk.induce(fk.Frame.from_vectors(np.array(basis))).rank}")

print("\n== repairing a dependent frame with a tiny nudge ==")
bad = fk.Frame.from_vectors(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
for eps in (0.1, 0.01):
    fixed = fk.nudge_to_independence(bad, eps)
    moved = sum(np.linalg.norm(fixed.vectors[i] - bad.vectors[i]) for i in range(3))
    print(f"  eps = {eps}: repaired rank = {fk.induce(fixed).rank}, "
          f"total movement = {moved:.6f}")

print("\n== and the repaired frames sit inside an open set of good ones ==")
dependent_hits = sum(
    1 for seed in range(500)
    if fk.induce(fk.random_unit(2, 3, seed)).rank < 3)
print(f"random unit frames (N=2, M=3) with dependent outers: {dependent_hits}/500")
