"""Finite-difference backend on a uniform 3D grid.

Seven-point Laplacians with Dirichlet exterior, sphere-measure deposition
by quasi-uniform surface sampling with trilinear weights, the dual
(negative-order) norm of a deposited measure as the Dirichlet energy of its
potential, per-cell zero-mean Neumann energies, and solves of the perforated
and homogenized problems.

Every Dirichlet solve (the dual norm, the perforated and the homogenized
problem, on the cube or the ball) is one conjugate-gradient method: a
matrix-free 7-point stencil on the interior box with the nodes off the mask
held at zero, preconditioned by the box's fast sine transform (DST-I).  On
the full box the preconditioner is exact and one iteration solves.  The
Neumann cell energies are diagonalised by a cosine transform (DCT-II):
every covering cell in one batched transform.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import dctn, dstn
from scipy.sparse.linalg import LinearOperator, cg

from .corrector import CapacityMeasure, CorrectorField
from .covering import CubeCovering
from .domain import DomainDescriptor
from .partition import HolePartition
from .process import MarkedConfiguration, check_integer

logger = logging.getLogger(__name__)


def check_grid_n(n: int) -> int:
    """Refuse a node count per axis that leaves no interior node (n < 3)."""
    return check_integer("grid_n", n, 3)


class SolverError(RuntimeError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


@dataclass(frozen=True)
class Grid:
    """Uniform nodes over an axis-aligned box; three dimensions only."""

    n: int
    lo: tuple
    hi: tuple
    domain: Optional[DomainDescriptor] = None

    def __post_init__(self):
        if len(self.lo) != 3 or len(self.hi) != 3:
            raise ValueError("the gridded backend is three-dimensional")
        spans = [self.hi[a] - self.lo[a] for a in range(3)]
        if max(spans) - min(spans) > 1e-12 * max(spans):
            raise ValueError("grid box must be isotropic")

    @staticmethod
    def from_domain(domain: DomainDescriptor, n: int) -> "Grid":
        r = domain.radius
        return Grid(n, (-r,) * 3, (r,) * 3, domain)

    @property
    def h(self) -> float:
        return (self.hi[0] - self.lo[0]) / (self.n - 1)

    @property
    def shape(self):
        return (self.n, self.n, self.n)

    def axes(self):
        return [np.linspace(self.lo[a], self.hi[a], self.n) for a in range(3)]

    def node_points(self) -> np.ndarray:
        ax = self.axes()
        g = np.meshgrid(*ax, indexing="ij")
        return np.stack([v.ravel() for v in g], axis=1)

    def inside_domain(self) -> np.ndarray:
        """Strict interior of the domain (Dirichlet nodes excluded)."""
        ax = self.axes()
        if self.domain is None or self.domain.shape == "axis_cube":
            r = self.domain.half_width if self.domain is not None else None
            masks = [(x > lo) & (x < hi) if r is None else np.abs(x) < r - 1e-12 * max(1.0, r)
                     for x, lo, hi in zip(ax, self.lo, self.hi)]
            return masks[0][:, None, None] & masks[1][None, :, None] & masks[2][None, None, :]
        x, y, z = np.meshgrid(*ax, indexing="ij")
        return x * x + y * y + z * z < 1.0 - 1e-12

    def node_volumes(self) -> np.ndarray:
        """Trapezoid quadrature weights; they sum exactly to the box volume."""
        w = np.full(self.n, self.h)
        w[0] = w[-1] = self.h / 2.0
        vols = w[:, None, None] * w[None, :, None] * w[None, None, :]
        if self.domain is not None and self.domain.shape == "unit_ball":
            logger.warning("ball domain quadrature uses a staircase mask")
            pts = self.node_points()
            vols = vols * self.domain.contains(pts).reshape(self.shape)
        return vols


# ----------------------------------------------------------------------
# the Dirichlet solve
# ----------------------------------------------------------------------

# iteration limit and relative residual of the preconditioned CG; the masks of
# the package take 1 (the box) to a few dozen (ball, thousands of holes) iterations
_MAXITER = 2000
_RTOL = 1e-8


def _kron_sum(lam: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3D operator that is a sum of the same 1D one per axis."""
    return lam[:, None, None] + lam[None, :, None] + lam[None, None, :]


def _dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I on every axis; it is its own inverse."""
    return dstn(x, type=1, norm="ortho")


def _box_operators(act: np.ndarray, h: float, shift: float):
    """The operator A + shift and its preconditioner on vectors over the
    interior box, whose active nodes are ``act``; inactive entries are read
    as zero and returned as zero.

    A is the 7-point stencil h (6 u - sum of the six neighbours): each face
    of an active node counts once, whatever lies beyond it, so on any mask
    inside the interior box this is the mask's Dirichlet stiffness.  The
    preconditioner is the solve on the whole box (DST-I, eigenvalues with
    the same shift) between zero extension and restriction.
    """
    pad = np.zeros(tuple(m + 2 for m in act.shape))     # the rim stays zero
    mid = pad[1:-1, 1:-1, 1:-1]

    def stencil(x):
        mid[...] = np.where(act, x.reshape(act.shape), 0.0)
        y = (6.0 * h + shift) * mid - h * (
            pad[:-2, 1:-1, 1:-1] + pad[2:, 1:-1, 1:-1] + pad[1:-1, :-2, 1:-1]
            + pad[1:-1, 2:, 1:-1] + pad[1:-1, 1:-1, :-2] + pad[1:-1, 1:-1, 2:])
        return np.where(act, y, 0.0).ravel()

    k = np.arange(1, act.shape[0] + 1)
    lam = h * _kron_sum(2.0 - 2.0 * np.cos(np.pi * k / (act.shape[0] + 1))) + shift

    def box_solve(r):
        v = np.where(act, r.reshape(act.shape), 0.0)
        return np.where(act, _dst(_dst(v) / lam), 0.0).ravel()

    size = act.size
    return (LinearOperator((size, size), matvec=stencil, dtype=float),
            LinearOperator((size, size), matvec=box_solve, dtype=float))


def _dirichlet_solve(active: np.ndarray, b: np.ndarray, grid: Grid, shift: float,
                     label: str) -> np.ndarray:
    """Solve (A + shift) u = b on the ``active`` nodes with u = 0 elsewhere
    (see _box_operators) by preconditioned CG to relative residual
    ``_RTOL``; ``b`` and the result are (n, n, n) node arrays.  On the full
    interior box the preconditioner is the exact inverse and one iteration
    solves the system.  Every mask in the package lies inside the interior
    box: Dirichlet nodes on the grid boundary are never active."""
    act = active[1:-1, 1:-1, 1:-1]
    rhs = np.where(act, b[1:-1, 1:-1, 1:-1], 0.0).ravel()
    u = np.zeros(grid.shape)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return u
    a_op, m_op = _box_operators(act, grid.h, shift)
    steps = 0

    def count(_):
        nonlocal steps
        steps += 1

    x, info = cg(a_op, rhs, rtol=_RTOL, atol=0.0, maxiter=_MAXITER, M=m_op, callback=count)
    if info != 0 or logger.isEnabledFor(logging.DEBUG):
        res = float(np.linalg.norm(rhs - a_op @ x)) / bnorm
        if info != 0:
            raise SolverError(f"{label}: preconditioned CG did not reach rtol={_RTOL} in"
                              f" {_MAXITER} iterations (relative residual {res:.3e})",
                              residuals=[res])
        logger.debug("%s: %d iterations, relative residual %.3e", label, steps, res)
    u[1:-1, 1:-1, 1:-1] = x.reshape(act.shape)
    return u


# ----------------------------------------------------------------------
# measure deposition and the dual norm
# ----------------------------------------------------------------------

# sphere samples (or node-box entries) expanded at once.  A deposit block
# costs ~430 bytes per sample in temporaries: the 314k samples of criterion
# 4 at eps = 1/16 peak at 108 MiB in one block and at 14 MiB in blocks of 2^15
_DEPOSIT_BLOCK = 1 << 15


def _blocks(counts: np.ndarray):
    """Expand items with ``counts`` slots each, whole items at a time, in
    blocks of at most _DEPOSIT_BLOCK slots (an item larger than that fills
    a block alone).  Yields the item and the rank within it of every slot."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + _DEPOSIT_BLOCK, side="right")))
        cnt = counts[start:stop]
        item = np.repeat(np.arange(start, stop), cnt)
        yield item, np.arange(item.size) - np.repeat(ends[start:stop] - cnt - done, cnt)
        start = stop


def _fibonacci(i: np.ndarray, m) -> np.ndarray:
    """Golden-angle spiral point i + 1/2 of m, for index and count arrays."""
    z = 1.0 - 2.0 * i / m
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.stack([s * np.cos(theta), s * np.sin(theta), z], axis=1)


def _deposit_spheres(flat: np.ndarray, n: int, lo, h, centers: np.ndarray,
                     radii: np.ndarray, weights: np.ndarray, base=0) -> int:
    """Spread each sphere's charge evenly over max(64, 4*pi*(R/h)^2)
    surface samples and add them with trilinear weights to an n^3 node
    block of ``flat``.

    ``lo`` and ``h`` are the origin and spacing of the sphere's grid and
    ``base`` is the flat offset of its block; each is shared or given per
    sphere.  Returns the number of samples that fell outside the grid box.
    """
    k = len(radii)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (k, 3))
    h = np.broadcast_to(np.asarray(h, dtype=float), (k,))
    base = np.broadcast_to(np.asarray(base, dtype=np.int64), (k,))
    counts = np.maximum(64, np.ceil(4.0 * math.pi * (radii / h) ** 2).astype(np.int64))
    dropped = 0
    for sphere, i in _blocks(counts):
        m = counts[sphere]
        pts = centers[sphere] + radii[sphere, None] * _fibonacci(i + 0.5, m)
        rel = (pts - lo[sphere]) / h[sphere, None]
        inside = np.all((rel >= 0) & (rel <= n - 1), axis=1)
        dropped += int(inside.size - np.count_nonzero(inside))
        rel, sphere = rel[inside], sphere[inside]
        w = weights[sphere] / m[inside]
        node = np.minimum(np.floor(rel).astype(np.int64), n - 2)
        frac = rel - node
        sides = (1.0 - frac, frac)
        lin = base[sphere] + (node[:, 0] * n + node[:, 1]) * n + node[:, 2]
        idx, vals = [], []
        for corner in range(8):
            off = ((corner >> 2) & 1, (corner >> 1) & 1, corner & 1)
            idx.append(lin + (off[0] * n + off[1]) * n + off[2])
            vals.append(w * (sides[off[0]][:, 0] * sides[off[1]][:, 1] * sides[off[2]][:, 2]))
        flat += np.bincount(np.concatenate(idx), np.concatenate(vals), minlength=flat.size)
    return dropped


@dataclass
class GriddedMeasure:
    values: np.ndarray         # node weights (masses), shape (n, n, n)
    grid: Grid
    dropped_samples: int = 0

    @property
    def total_mass(self) -> float:
        return float(self.values.sum())


def deposit_measure(mu: CapacityMeasure, c0, grid: Grid,
                    min_radius_factor: float = 2.0) -> GriddedMeasure:
    """Deposit the sphere charges minus a background density onto the grid.

    Each sphere is sampled at max(64, 4*pi*(R/h)^2) quasi-uniform surface
    points (trilinear deposition preserves the total charge exactly).  The
    background ``c0`` is a constant or a per-node density array, subtracted
    with trapezoid node volumes so that the signed node mass equals the atom
    total minus c0 times the domain volume.

    Spheres smaller than ``min_radius_factor`` grid spacings raise; pass a
    smaller factor explicitly to deposit under-resolved spheres anyway
    (their charge is still conserved, only its placement blurs to one cell).
    """
    h = grid.h
    bad = np.flatnonzero(mu.sphere_radii < min_radius_factor * h)
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"sphere {k} at {mu.centers[k]} has radius {mu.sphere_radii[k]:.4g}"
            f" < {min_radius_factor} * h = {min_radius_factor * h:.4g}")
    values = np.zeros(grid.shape)
    dropped = _deposit_spheres(values.reshape(-1), grid.n, grid.lo, h, mu.centers,
                               mu.sphere_radii, mu.weights)
    vols = grid.node_volumes()
    background = np.asarray(c0) * vols
    values -= background
    if dropped:
        logger.info("deposit: %d surface samples fell outside the grid box", dropped)
    return GriddedMeasure(values, grid, dropped_samples=dropped)


def hminus_norm(g: GriddedMeasure, grid: Grid) -> float:
    """Dual norm of the deposited measure over the domain.

    Solves the Dirichlet problem -lap(psi) = g on the interior nodes and
    returns the square root of the Dirichlet energy; node weights outside
    the interior never couple to test functions and are ignored.
    """
    active = grid.inside_domain()
    psi = _dirichlet_solve(active, g.values, grid, 0.0, "dual-norm potential")
    energy = float(g.values[active] @ psi[active])
    return math.sqrt(max(energy, 0.0))


# ----------------------------------------------------------------------
# per-cell zero-mean Neumann energies
# ----------------------------------------------------------------------

def neumann_cell_energies(covering: CubeCovering, mu: CapacityMeasure, grid: Grid,
                          min_nodes: int = 9) -> np.ndarray:
    """Energy of the zero-mean Neumann potential of (atoms - cell average)
    on every covering cell; the root of the summed energies dominates the
    dual norm of the distance between the measure and its cell averages.

    Requires the deterministic cube covering with every charged sphere
    strictly inside its cell.  Every charged cell gets the same m^3 node
    grid, so all cells are deposited into one stack and solved by one
    batched DCT-II, whose constant mode (the Neumann null space) is dropped.
    """
    if not isinstance(covering, CubeCovering):
        raise TypeError("cell energies are computed on the deterministic cube covering")
    m = max(min_nodes, int(round(covering.cell_size / grid.h)) + 1)
    energies = np.zeros(covering.n_cells)
    if not len(mu):
        return energies
    cell_of = covering.cell_of_points(mu.centers)
    charged = covering.meets_domain[cell_of]
    lo, hi = covering.lo[cell_of], covering.hi[cell_of]
    r = mu.sphere_radii[:, None]
    inside = (np.all(mu.centers - r >= lo - 1e-12, axis=1)
              & np.all(mu.centers + r <= hi + 1e-12, axis=1))
    bad = np.flatnonzero(charged & ~inside)
    if bad.size:
        k = int(bad[np.argmin(cell_of[bad])])
        raise ValueError(f"sphere {k} is not contained in its covering cell")
    atoms = np.flatnonzero(charged)
    cells, slot = np.unique(cell_of[atoms], return_inverse=True)
    span = covering.hi[cells] - covering.lo[cells]
    h = span[:, 0] / (m - 1)
    values = np.zeros((cells.size, m, m, m))
    _deposit_spheres(values.reshape(-1), m, covering.lo[cells][slot], h[slot],
                     mu.centers[atoms], mu.sphere_radii[atoms], mu.weights[atoms],
                     base=slot * m ** 3)
    mass = np.bincount(slot, weights=mu.weights[atoms], minlength=cells.size)
    w = np.ones(m)
    w[0] = w[-1] = 0.5
    unit_vols = w[:, None, None] * w[None, :, None] * w[None, None, :]
    vols = (h * h * h)[:, None, None, None] * unit_vols
    rhs = values - (mass / np.prod(span, axis=1))[:, None, None, None] * vols
    imbalance = np.abs(rhs.sum(axis=(1, 2, 3))) / np.maximum(mass, 1e-300)
    off = np.flatnonzero(imbalance > 1e-8)
    if off.size:
        c = int(off[0])
        raise SolverError(f"cell {int(cells[c])}: compatibility residual {imbalance[c]:.2e}")
    coef = dctn(rhs, type=2, norm="ortho", axes=(1, 2, 3))
    coef[:, 0, 0, 0] = 0.0      # compatible data: only rounding lives in this mode
    lam = _kron_sum(2.0 - 2.0 * np.cos(np.pi * np.arange(m) / m))
    lam[0, 0, 0] = 1.0          # divides a zero coefficient
    # the stiffness is h times the graph Laplacian (see _dirichlet_solve)
    energies[cells] = np.sum(coef * coef / lam, axis=(1, 2, 3)) / h
    return energies


# ----------------------------------------------------------------------
# perforated and homogenized solves
# ----------------------------------------------------------------------

@dataclass
class PerforatedSolution:
    u: np.ndarray
    pinned_nodes: int
    omitted_holes: list = field(default_factory=list)


def _as_node_values(f, grid: Grid) -> np.ndarray:
    if callable(f):
        ax = grid.axes()
        x, y, z = np.meshgrid(*ax, indexing="ij")
        return np.asarray(f(x, y, z), dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.shape, float(arr))
    return arr


def _node_boxes(grid: Grid, centers: np.ndarray, radii: np.ndarray):
    """Every grid node in the axis box of each ball, block by block: yields
    the ball, the flat node index and the squared distance to the centre."""
    n, h = grid.n, grid.h
    lo = np.asarray(grid.lo)
    first = np.maximum(np.ceil((centers - radii[:, None] - lo) / h).astype(int), 0)
    last = np.minimum(np.floor((centers + radii[:, None] - lo) / h).astype(int), n - 1)
    size = np.maximum(last - first + 1, 0)
    ax = grid.axes()
    for ball, rank in _blocks(size.prod(axis=1)):
        s, f = size[ball], first[ball]
        k = f[:, 2] + rank % s[:, 2]
        rank = rank // s[:, 2]
        j = f[:, 1] + rank % s[:, 1]
        i = f[:, 0] + rank // s[:, 1]
        c = centers[ball]
        r2 = (ax[0][i] - c[:, 0]) ** 2 + (ax[1][j] - c[:, 1]) ** 2 + (ax[2][k] - c[:, 2]) ** 2
        yield ball, (i * n + j) * n + k, r2


def hole_mask(config: MarkedConfiguration, grid: Grid):
    """Mask of nodes strictly inside a hole; holes catching no node are
    reported back (they cannot be represented at this resolution)."""
    radii = config.hole_radii(truncate=True)
    mask = np.zeros(grid.shape, dtype=bool)
    hits = np.zeros(radii.size, dtype=np.int64)
    for hole, node, r2 in _node_boxes(grid, config.centers(), radii):
        inside = r2 < radii[hole] ** 2
        mask.reshape(-1)[node[inside]] = True
        hits += np.bincount(hole[inside], minlength=hits.size)
    return mask, np.flatnonzero(hits == 0).tolist()


def solve_perforated(config: MarkedConfiguration, partition: Optional[HolePartition],
                     f, grid: Grid) -> PerforatedSolution:
    """Dirichlet solve of -lap(u) = f outside the holes.

    All holes (good and bad) are rasterised; holes below the grid
    resolution are omitted from the mask and reported.
    """
    holes, omitted = hole_mask(config, grid)
    if omitted:
        logger.warning("%d of %d holes are below grid resolution and were omitted",
                       len(omitted), len(config))
    active = grid.inside_domain() & ~holes
    u = _dirichlet_solve(active, grid.h ** 3 * _as_node_values(f, grid), grid, 0.0,
                         "perforated solve")
    return PerforatedSolution(u, int(np.count_nonzero(holes)), omitted)


def homogenized_solve(c0: float, f, grid: Grid) -> np.ndarray:
    """Dirichlet solve of -lap(u) + c0 u = f on the domain."""
    if c0 < 0:
        raise ValueError("c0 must be >= 0")
    return _dirichlet_solve(grid.inside_domain(), grid.h ** 3 * _as_node_values(f, grid),
                            grid, c0 * grid.h ** 3, "homogenized solve")


def corrector_on_grid(corrector: CorrectorField, grid: Grid) -> np.ndarray:
    """Node values of the corrector (cells are disjoint, so scatter order
    does not matter)."""
    if corrector.d != 3:
        raise ValueError("grid evaluation needs a three-dimensional corrector")
    w = np.ones(grid.shape)
    a, big = corrector.inner, corrector.outer
    d = 3
    for cell, node, r2 in _node_boxes(grid, corrector.centers, big):
        r = np.sqrt(r2)
        w.reshape(-1)[node[r <= a[cell]]] = 0.0
        ann = (r > a[cell]) & (r < big[cell])
        a2, big2 = a[cell[ann]] ** (2 - d), big[cell[ann]] ** (2 - d)
        w.reshape(-1)[node[ann]] = (a2 - r[ann] ** (2 - d)) / (a2 - big2)
    return w


def dirichlet_energy_central(g: np.ndarray, grid: Grid) -> float:
    """Central-difference Dirichlet energy over interior nodes."""
    h = grid.h
    total = 0.0
    for axis in range(3):
        up = [slice(1, -1)] * 3
        dn = [slice(1, -1)] * 3
        up[axis] = slice(2, None)
        dn[axis] = slice(0, -2)
        deriv = (g[tuple(up)] - g[tuple(dn)]) / (2.0 * h)
        total += float(np.sum(deriv ** 2))
    return total * h ** 3


def homogenization_error(u_eps: np.ndarray, corrector: CorrectorField,
                         u: np.ndarray, grid: Grid) -> float:
    """Discrete H1 seminorm of u_eps - W*u with the corrector evaluated
    analytically at the nodes and central differences on interior nodes."""
    w = corrector_on_grid(corrector, grid)
    g = u_eps - w * u
    return math.sqrt(dirichlet_energy_central(g, grid))
