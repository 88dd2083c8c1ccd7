"""holelab: Monte Carlo and finite-difference laboratory for elliptic
problems in randomly perforated domains."""

__version__ = "0.1.0"

from .corrector import (CapacityMeasure, CorrectorField, annulus_capacity,
                        annulus_capacity_fd, build_capacity_measure,
                        c0_constant, corrector_energy)
from .covering import (CubeCovering, RandomCovering, build_cube_covering,
                       build_random_covering, mesoscale_parameters,
                       verify_random_covering)
from .domain import DomainDescriptor
from .index import SpatialIndex
from .marks import MarkDistribution
from .partition import (HolePartition, bad_capacity_sum, overlap_pairs,
                        partition_configuration, verify_partition)
from .pde import (Grid, GriddedMeasure, deposit_measure, hminus_norm,
                  homogenization_error, homogenized_solve,
                  neumann_cell_energies, solve_perforated)
from .process import (MarkedConfiguration, ProcessSpec, ResourceLimitError,
                      mecke_check, sample_configuration, thin_configuration)
from .rates import (EnsembleStat, RateFit, TheoreticalExponents,
                    cell_capacity_averages, ensemble_run, expected_overlap_pairs,
                    fit_loglog, fit_rate, quenched_error_surrogate,
                    theoretical_exponents)
