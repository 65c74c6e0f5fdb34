"""Band structure of truncated Bloch fibers.

Three short experiments:

  1. The free fiber (G = H = 1, F = 0, no potential).  Each mode contributes
     the exact pair of bands +-|k + 2 pi N|, so the computed table can be
     checked against a closed form.
  2. A constant sigma_3 mass term m: the bands become +-sqrt(|k+2piN|^2 + m^2)
     and a relativistic gap of width 2m opens at the band edge.
  3. A variable coefficient triple, where the truncated fiber is genuinely
     non-normal and the table falls back to singular values.

Run:  python3 demos/01_band_structure.py
"""

import numpy as np

import dirac2d as d

M = 6
grid = d.FourierGrid(M, 2 * (2 * M + 1))
kline = np.column_stack([np.linspace(0.0, np.pi, 25), np.zeros(25)])


def banner(text):
    print(f"\n=== {text} ===")


# 1. free fiber vs the closed form ------------------------------------------
banner("free fiber: bands vs +-|k + 2 pi N|")
free = d.CoefficientSet.constant(grid)
table = d.band_structure(free, None, kline, n_bands=6)
worst = 0.0
for kp, vals in zip(table.kpoints, table.values):
    mags = np.hypot(kp[0] + 2 * np.pi * grid.n1, kp[1] + 2 * np.pi * grid.n2)
    # The six values of smallest magnitude; a cut through a degenerate level
    # keeps +- pairs, so they are +- the three smallest |k + 2 pi N|.
    low = np.sort(mags)[:3]
    sel = np.sort(np.concatenate([-low, low]))
    worst = max(worst, float(np.max(np.abs(vals - sel))))
print(f"spectral mode: {table.mode}; max deviation from the closed form: {worst:.2e}")

# 2. sigma_3 mass gap ---------------------------------------------------------
banner("constant sigma_3 mass: gap 2m at the band edge")
m = 0.35
massive = d.band_structure(free, d.MatrixPotential.diagonal(grid, v3=m), kline,
                           n_bands=6)
edge = massive.values[0]
gap = edge[edge > 0].min() - edge[edge < 0].max()
print(f"m = {m}: band gap at k -> 0 is {gap:.6f} (expected {2 * m})")

# 3. a variable instance ------------------------------------------------------
banner("variable coefficients: singular-value bands")
rng = np.random.default_rng(11)
inst = d.random_gamma_instance(grid, rng, p=2.0, q=0.5, f_bound=1.0)
var = d.band_structure(inst, None, kline, n_bands=6)
print(f"spectral mode: {var.mode}")
print("lowest singular values along k1 in [0, pi], k2 = 0:")
for kp, vals in list(zip(var.kpoints, var.values))[::6]:
    print(f"  k1 = {kp[0]:.3f}:  " + "  ".join(f"{v:8.4f}" for v in vals))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(12, 3.5), constrained_layout=True)
    for ax, tbl, title in ((axes[0], table, "free"),
                           (axes[1], massive, f"mass m = {m}"),
                           (axes[2], var, "variable (singular values)")):
        ax.plot(tbl.kpoints[:, 0], tbl.values, "k-", lw=0.8)
        ax.set_title(title)
        ax.set_xlabel("$k_1$")
    fig.savefig("demos/band_structure.png", dpi=150)
    print("\nwrote demos/band_structure.png")
except ImportError:
    print("\nmatplotlib not available; skipped the plot")
