"""The smallest-singular-value sweep along a complex quasimomentum line.

At real quasimomentum an eigenvalue of the full periodic operator would force
every fiber to be singular.  Moving the fiber onto the complex line
k + i mu_tilde e (k1 = pi) and watching sigma_min stay positive for
arbitrarily large mu_tilde rules that out.  Three runs:

  * free constant coefficients - sigma_min is pinned at pi, exactly;
  * a sigma_3 mass term - sigma_min stays positive along the whole line;
  * a variable-coefficient instance swept along its canonical gauge direction
    e = kappa_tilde/|kappa_tilde|, the direction in which the gauge transform
    trades the complex shift for a bounded potential.

Run:  python3 demos/02_thomas_sweep.py
"""

import numpy as np

import dirac2d as d

M = 6
grid = d.FourierGrid(M, 2 * (2 * M + 1))
mu_grid = tuple(np.linspace(0.0, 12 * np.pi, 25))


def describe(name, rep):
    lo = float(np.min(rep.min_per_mu))
    flags = int(np.count_nonzero(rep.flagged))
    slope = rep.floor_log_slope
    slope_txt = f"{slope:+.4f}" if slope is not None else "n/a"
    print(f"{name:28s} min sigma = {lo:.6f}   flags = {flags}   log-slope = {slope_txt}")


free = d.CoefficientSet.constant(grid)
sweep = d.SweepConfig(mu_grid=mu_grid, k2_grid=(0.0, 1.1))

describe("free (floor = pi)", d.sigma_min_sweep(free, None, sweep))
describe("mass 0.3 sigma_3",
         d.sigma_min_sweep(free, d.MatrixPotential.diagonal(grid, v3=0.3), sweep))

rng = np.random.default_rng(23)
inst = d.random_gamma_instance(grid, rng, p=2.0, q=0.5, f_bound=1.0)
canonical = d.solve_canonical_gauge(inst)
e = d.sweep_direction_from_gauge(canonical)
print(f"\ncanonical direction e = ({e[0]:.4f}, {e[1]:.4f})  (e_1 > 0)")
var_sweep = d.SweepConfig(direction=e, mu_grid=mu_grid, k2_grid=(0.0, 1.1))
rep = d.sigma_min_sweep(inst, None, var_sweep)
describe("variable, canonical e", rep)

print("\nsigma_min along mu_tilde (min over k2):")
for mu, s in list(zip(mu_grid, rep.min_per_mu))[::4]:
    print(f"  mu_tilde = {mu:7.3f}   sigma_min = {s:.6f}")
