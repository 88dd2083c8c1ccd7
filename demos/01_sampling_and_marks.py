"""Sampling marked configurations and querying neighbour statistics.

Draws a lattice and a Poisson configuration with heavy-tailed marks,
prints basic statistics, and shows how minimal distances behave.
"""

import numpy as np

from holelab import (DomainDescriptor, MarkDistribution, ProcessSpec,
                     sample_configuration, thin_configuration)

marks = MarkDistribution.pareto_for_beta(d=3, beta_eff=0.5)
print(f"pareto marks: alpha={marks.params[0]}, x_min={marks.params[1]:.4f}, "
      f"normalised so E[rho^1.5] = {marks.moment(1.5):.6f}")

for process, lam in (("lattice", None), ("poisson", 1.0)):
    spec = ProcessSpec(d=3, epsilon=1 / 16, process=process, marks=marks,
                       domain=DomainDescriptor("axis_cube", 1.0),
                       intensity=lam, master_seed=42)
    config = sample_configuration(spec, replicate=0)
    r = config.minimal_distances()
    print(f"\n{process}: {len(config)} points in the rescaled domain")
    print(f"  minimal distances: min={r.min():.5f} max={r.max():.5f} "
          f"(eps/4 = {spec.epsilon / 4:.5f})")
    print(f"  largest mark: {config.rho.max():.2f} "
          f"(hole radius {config.hole_radii().max():.2e})")
    kept = thin_configuration(config, delta=0.8)
    print(f"  thinned points (small, well separated): {np.count_nonzero(kept)}/{len(config)}")
    print(f"  point 0: position {config.points[0]}, R = "
          f"{config.minimal_distances()[0]:.5f}")
