"""The explicit corrector, its capacity, and the sphere-charge measure.

Evaluates the radial corrector profile along a ray, checks the energy
identity against the closed-form capacity, and shows the capacity density
converging to the homogenized constant.
"""

import numpy as np

from holelab import (CorrectorField, DomainDescriptor, Grid, MarkDistribution,
                     ProcessSpec, annulus_capacity, build_capacity_measure,
                     c0_constant, corrector_energy, sample_configuration)
from holelab.pde import corrector_on_grid

# one annulus cell: profile along a ray, read off the grid nodes on the x
# axis of a half-width 0.6 cube, which sit at r = 0.05, 0.1, ..., 0.6
cell = CorrectorField(np.zeros((1, 3)), np.array([0.1]), np.array([0.4]), 3)
grid = Grid.from_domain(DomainDescriptor("axis_cube", 0.6), 25)
w = corrector_on_grid(cell, grid)
x = grid.axes()[0]
print("radial profile (inner 0.1, outer 0.4):")
for i in (13, 14, 16, 18, 20, 24):
    print(f"  r = {x[i]:4.2f}: W = {w[i, 12, 12]:.6f}")
print(f"cell energy {corrector_energy(cell):.6f} = capacity "
      f"{annulus_capacity(0.1, 0.4, 3):.6f}")

# the per-cell charge density approaches the homogenized constant like eps^2
print("\nper-cell charge density vs the limit:")
for eps in (1 / 4, 1 / 8, 1 / 16, 1 / 32):
    spec = ProcessSpec(d=3, epsilon=eps, process="lattice",
                       marks=MarkDistribution.constant(1.0),
                       domain=DomainDescriptor("axis_cube", 1.0))
    config = sample_configuration(spec, 0)
    mu = build_capacity_measure(CorrectorField.from_configuration(config, 1.0))
    c0 = c0_constant(spec)
    dens = mu.weights[0] / eps ** 3
    print(f"  eps = 1/{round(1 / eps):<3d} density {dens:9.5f}  "
          f"(c0 = {c0:.5f}, excess/eps^2 = {(dens - c0) / eps ** 2:.4f})")
