"""Deterministic and randomized mesoscopic coverings.

Builds the cube tiling and its randomized modification for a Poisson
configuration, then shows the volume bounds and the sphere dichotomy
holding on every cell.
"""

import numpy as np

from holelab import (DomainDescriptor, MarkDistribution, ProcessSpec,
                     build_cube_covering, build_random_covering,
                     mesoscale_parameters, sample_configuration,
                     verify_random_covering)
from holelab.covering import volume_bounds
from holelab.rates import resolve_delta

eps = 1 / 16
k, kappa = mesoscale_parameters(3, eps)
print(f"eps = 1/16: mesoscale k = {k}, trimming exponent kappa = {kappa}")

marks = MarkDistribution.pareto_for_beta(d=3, beta_eff=0.5)
spec = ProcessSpec(d=3, epsilon=eps, process="poisson", marks=marks,
                   domain=DomainDescriptor("axis_cube", 1.0), intensity=1.0,
                   master_seed=13)
config = sample_configuration(spec, 0)

base = build_cube_covering(config, k)
print(f"deterministic tiling: {base.n_cells} cells of side {base.cell_size:.4f}, "
      f"{int(np.count_nonzero(base.interior))} interior")

# the retained points are thinned at the rate-optimal delta for these marks
cov = build_random_covering(config, k, resolve_delta(spec))
lo, hi = volume_bounds(k, eps, kappa, 3)
print(f"randomized covering: {cov.thinned.size} point cubes absorbed")
print(f"  cell volumes in [{cov.volumes.min():.6e}, {cov.volumes.max():.6e}]")
print(f"  guaranteed bounds [{lo:.6e}, {hi:.6e}]")

report = verify_random_covering(cov)
print(f"  verification: volume violations {report.volume_violations}, "
      f"cube overlaps {report.overlap_violations}, "
      f"dichotomy violations {report.dichotomy_violations}")
