"""Explicit annulus correctors, harmonic capacities, and the capacity measure.

Each retained point carries a radial profile that vanishes on the inner
sphere (the hole) and equals one on an outer sphere; in between it is the
harmonic capacitor of the annulus, known in closed form.  The outward
normal derivative on the outer sphere concentrates the hole's capacity on
that sphere; collecting those sphere charges gives the capacity measure
whose density converges to the homogenized zero-order constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .process import MarkedConfiguration, ProcessSpec, thin_configuration


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def capacity_normalization(d: int) -> float:
    """(d-2) times the unit-sphere area; 4*pi in three dimensions."""
    return (d - 2) * sphere_area(d)


def annulus_capacity(a, big_r, d: int):
    """Harmonic capacity of B_a relative to B_R, c_d / (a^(2-d) - R^(2-d)).

    ``big_r`` may be +inf (whole-space capacity c_d a^(d-2)).  Vectorised.
    """
    a = np.asarray(a, dtype=float)
    big_r = np.asarray(big_r, dtype=float)
    if np.any(a <= 0) or np.any(a >= big_r):
        raise ValueError("need 0 < a < R")
    c_d = capacity_normalization(d)
    inv = np.where(np.isinf(big_r), 0.0, big_r ** (2 - d))
    out = c_d / (a ** (2.0 - d) - inv)
    return float(out) if out.ndim == 0 else out


def annulus_capacity_fd(a: float, big_r: float, d: int, n: int = 4096) -> float:
    """Independent finite-difference value of the annulus capacity.

    Minimises the radial Dirichlet energy S_{d-1} * int r^(d-1) u'(r)^2 dr
    over profiles with u(a)=0, u(R)=1 on a uniform grid; second-order
    accurate, used as a cross-check for the closed form.
    """
    if not 0 < a < big_r < math.inf:
        raise ValueError("need 0 < a < R < inf")
    r = np.linspace(a, big_r, n + 1)
    h = (big_r - a) / n
    w = ((r[:-1] + r[1:]) / 2.0) ** (d - 1) / h   # face weights
    # tridiagonal stationarity system for interior values
    diag = w[:-1] + w[1:]
    lower = -w[1:-1]
    rhs = np.zeros(n - 1)
    rhs[-1] = w[-1]           # u(R) = 1 boundary term
    ab = np.zeros((3, n - 1))
    ab[0, 1:] = lower
    ab[1, :] = diag
    ab[2, :-1] = lower
    u = solve_banded((1, 1), ab, rhs)
    full = np.concatenate(([0.0], u, [1.0]))
    energy = float(np.sum(w * np.diff(full) ** 2))
    return sphere_area(d) * energy


class CorrectorField:
    """Disjoint annulus cells defining the oscillating corrector.

    The field is 0 inside every inner ball, 1 outside every outer ball, and
    the radial harmonic profile in between.
    """

    def __init__(self, centers: np.ndarray, inner: np.ndarray, outer: np.ndarray, d: int):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        inner = np.asarray(inner, dtype=float)
        outer = np.asarray(outer, dtype=float)
        if centers.shape[0] != inner.size or inner.size != outer.size:
            raise ValueError("centers, inner, outer must align")
        if np.any(inner <= 0) or np.any(inner >= outer):
            raise ValueError("every cell needs 0 < inner < outer")
        self.centers = centers
        self.inner = inner
        self.outer = outer
        self.d = d

    def __len__(self):
        return self.inner.size

    @staticmethod
    def empty(d: int) -> "CorrectorField":
        return CorrectorField(np.empty((0, d)), np.empty(0), np.empty(0), d)

    @staticmethod
    def from_configuration(config: MarkedConfiguration, delta: float) -> "CorrectorField":
        """Cells on the thinned points: inner = hole radius, outer = minimal distance."""
        idx = np.flatnonzero(thin_configuration(config, delta))
        if idx.size == 0:
            return CorrectorField.empty(config.spec.d)
        a = config.hole_radii()[idx]
        big_r = config.minimal_distances()[idx]
        return CorrectorField(config.centers(idx), a, big_r, config.spec.d)


def corrector_energy(field: CorrectorField) -> float:
    """Total Dirichlet energy: the sum of the cell capacities."""
    if len(field) == 0:
        return 0.0
    return float(np.sum(annulus_capacity(field.inner, field.outer, field.d)))


@dataclass
class CapacityMeasure:
    """Sphere charges: one uniform-density sphere per corrector cell."""

    centers: np.ndarray        # (m, d)
    sphere_radii: np.ndarray   # (m,) outer radii carrying the charge
    weights: np.ndarray        # (m,) total flux = cell capacity
    d: int

    def __len__(self):
        return self.weights.size

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def csv_columns(self):
        return self.centers, self.sphere_radii, self.weights


def build_capacity_measure(field: CorrectorField) -> CapacityMeasure:
    """Charge each outer sphere with its cell capacity (radial symmetry makes
    the normal derivative constant on the sphere)."""
    w = annulus_capacity(field.inner, field.outer, field.d) if len(field) else np.empty(0)
    return CapacityMeasure(field.centers.copy(), field.outer.copy(), np.atleast_1d(w), field.d)


def c0_constant(spec: ProcessSpec) -> float:
    """Limit density of capacity: c_d E[rho^(d-2)], times the intensity for poisson."""
    m = spec.marks.moment(spec.d - 2)
    if math.isinf(m):
        raise ValueError("the (d-2)-moment of the marks diverges")
    c = capacity_normalization(spec.d) * m
    return c * spec.intensity if spec.process == "poisson" else c
