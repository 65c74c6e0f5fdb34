"""Potential functionals, the splitting pipeline, and the coercivity margin.

A potential W acts on truncated fields through three families of bounds:

  * ||W P^O|| <= f_W(#O)                    (finite mode sets),
  * ||W phi|| <= h_W(a) ||phi||_*           (annulus supports),
  * ||W_b phi|| <= htilde_W(b) ||phi||_{*,pm}  (thresholded tails),

all built from the threshold norms ||W_b|| and the relative-bound constants
C_eps(W).  The script tabulates them for a random potential, picks the
threshold level b with htilde(b)^2 <= c1/192, splits a matrix potential at
that level while hyperbolically rotating its diagonal part, and finishes with
the coercivity margins of the rotated operator on random trial spinors.

Run:  python3 demos/05_potential_functionals.py
"""

import numpy as np

import dirac2d as d

rng = np.random.default_rng(7)
grid = d.FourierGrid(10, 42)
inst = d.random_gamma_instance(grid, rng, p=2.0, q=0.5, f_bound=1.0)
w = d.random_trig_field(grid, rng, 2, 0.8, zero_mean=False)

prof = d.potential_profile(w)
print("potential profile tables:")
print("  b:        " + "  ".join(f"{b:7.3f}" for b in prof.b_grid[:6]))
print("  ||W_b||:  " + "  ".join(f"{v:7.4f}" for v in prof.wb_norm(prof.b_grid[:6])))
print("  htilde:   " + "  ".join(f"{v:7.4f}" for v in prof.htilde_of(prof.b_grid[:6])))
print("  N:        " + "  ".join(f"{n:7d}" for n in prof.count_grid[:6]))
print("  f_W(N):   " + "  ".join(f"{v:7.4f}" for v in prof.f_of(prof.count_grid[:6])))
print(f"  C_1(W) = {prof.c1_w:.4f}  ->  c7 = 1 + C_1/pi = {prof.c7:.4f}")

mu, a, k = 8 * np.pi, 4 * np.pi, (np.pi, 0.0)
c1, c2 = d.estimate_c1_c2(inst, k, mu)
b = d.select_threshold_b(prof, c1)
print(f"\nempirical c1 = {c1:.4f}; smallest b with htilde(b)^2 <= c1/192: {b}")

# Split a matrix potential at that level and rotate the diagonal pair.
zero = d.PeriodicScalarField.constant(grid, 0.0)
V = d.MatrixPotential(v0=0.5 * w, v1=w, v2=d.random_trig_field(grid, rng, 2, 0.8),
                      v3=zero)
psi_prime = d.random_trig_field(grid, rng, 1, 0.15)
sp = d.split_potential(V, b if b is not None else 0.0, psi_prime)
print("\nsplit at level b:")
print(f"  sup |V1 tail| ~ {np.max(np.abs(sp.v1_tail.samples())):.4f},  "
      f"sup |V1 bounded| ~ {np.max(np.abs(sp.v1_bounded.samples())):.4f}")
print(f"  rotated diagonal: sup |V0~| ~ {np.max(np.abs(sp.vtilde0.samples())):.4f},  "
      f"sup |V3~| ~ {np.max(np.abs(sp.vtilde3.samples())):.4f}")

# Cross-term bound and coercivity margins with the rotated diagonal.
weights = d.ModeWeights(grid, k, mu)
ct = d.cross_term_check(w, weights, 2.5 * np.pi, 4 * np.pi, n_trials=50, seed=1)
print(f"\ncross-term bound: max ratio {ct.max_ratio:.4f} (tail norm {ct.tail_norm:.4f})")

can = d.solve_canonical_gauge(inst)
rep = d.verify_coercivity(inst, 0.05 * sp.vtilde0, 0.05 * sp.vtilde3, can.psi,
                          mu, a, k, trials=60, seed=2)
print(f"coercivity margins with the (scaled) rotated diagonal: "
      f"min {rep.margins.min():.3e}, c1 = {rep.c1:.4f}, c8 = {rep.c8:.5f}")
print(f"warnings: {list(rep.warnings) or 'none'}")
