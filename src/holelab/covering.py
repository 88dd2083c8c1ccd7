"""Mesoscopic coverings: deterministic cube tilings and their randomized
modification that keeps every charged sphere strictly inside one cell.

Cells have side k*epsilon.  For the random modification each retained point
gets an axis cube of half-side twice its trimmed minimal distance; a cell
absorbs the cubes of its own points and cedes the cubes of foreign points,
so a sphere of radius up to twice the trimmed distance never straddles a
cell boundary.  Trimming shrinks the distance dyadically near cell faces,
which keeps all cell volumes within (k +- eps^kappa)^d eps^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .index import SpatialIndex
from .process import MarkedConfiguration, ProcessSpec, check_integer, thin_configuration


def mesoscale_parameters(d: int, epsilon: float):
    """Mesoscale multiplier k = floor(eps^(-2/(d+2))) and trimming exponent kappa."""
    if d < 3 or not 0 < epsilon < 1:
        raise ValueError("need d >= 3 and epsilon in (0, 1)")
    k = int(math.floor(epsilon ** (-2.0 / (d + 2))))
    if k < 1:
        raise ValueError(f"epsilon={epsilon} too large for the mesoscopic regime (k = 0)")
    kappa = 2.0 / ((d - 1) * (d + 2))
    return k, kappa


def mesoscale_k(spec: ProcessSpec, k: Optional[int] = None) -> int:
    """The cell multiplier at the spec's epsilon: k, by default the mesoscale
    of ``mesoscale_parameters``.  Refuses a k that is not an integer >= 1 and
    cells of side k*eps larger than the domain radius."""
    k = mesoscale_parameters(spec.d, spec.epsilon)[0] if k is None else check_integer("k", k, 1)
    if k * spec.epsilon > spec.domain.radius:
        raise ValueError(f"cell size k*eps = {k * spec.epsilon} exceeds the domain scale")
    return k


@dataclass
class CubeCovering:
    """Tiling of the domain by cubes of side k*epsilon with integer anchors.

    For even k the tiles are [k*eps*m, k*eps*(m+1)) per axis (anchors on the
    half-cell shift, so the default cube domain is tiled exactly); for odd k
    they are centred at multiples of k*eps.  Boundary points go to the cell
    with the lexicographically smallest anchor.
    """

    k: int
    epsilon: float
    m_lo: np.ndarray           # (d,) first per-axis tile index
    m_count: np.ndarray        # (d,)
    anchors: np.ndarray        # (n_cells, d) integer anchor coordinates
    lo: np.ndarray             # (n_cells, d) physical lower corners
    hi: np.ndarray             # (n_cells, d)
    interior: np.ndarray       # (n_cells,) bool
    meets_domain: np.ndarray   # (n_cells,) bool
    point_cell: np.ndarray     # (n_points,) flat cell index of every config point

    @property
    def cell_size(self) -> float:
        return self.k * self.epsilon

    @property
    def n_cells(self) -> int:
        return self.anchors.shape[0]

    @property
    def shift(self) -> float:
        """Tile-index offset: x/(k*eps) + shift falls in [m, m+1) on tile m."""
        return 0.0 if self.k % 2 == 0 else 0.5

    def _axis_tiles(self, x: np.ndarray) -> np.ndarray:
        """Per-axis tile index of coordinates x (..., d), clamped to the tiling.

        Points on a shared face belong to the smaller-anchor tile; the small
        tolerance makes that deterministic when the face coordinate is not
        exactly representable (lattice sites routinely sit on faces).
        """
        m = np.ceil(x / self.cell_size + self.shift - 1e-9).astype(np.int64) - 1 - self.m_lo
        return np.clip(m, 0, self.m_count - 1)

    def face_distances(self, x: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Max-norm distance of points x (n, d) to the boundary of their cells."""
        return np.minimum(x - self.lo[cells], self.hi[cells] - x).min(axis=1)

    def cell_of_points(self, x: np.ndarray) -> np.ndarray:
        """Flat cell index for physical points (n, d)."""
        m = self._axis_tiles(np.atleast_2d(np.asarray(x, dtype=float)))
        return np.ravel_multi_index(tuple(m.T), tuple(self.m_count))

    def csv_columns(self):
        vols = np.full(self.n_cells, self.cell_size ** self.m_lo.size)
        return _cell_columns(self, vols, self.point_cell)


def _cell_columns(base: CubeCovering, volumes: np.ndarray, point_cell: np.ndarray):
    """CSV columns of the cells: index, anchor, volume, point count, interior flag."""
    counts = np.bincount(point_cell, minlength=base.n_cells)
    return np.arange(base.n_cells), base.anchors, volumes, counts, base.interior


def check_interior_cell(spec: ProcessSpec, k: int) -> None:
    """Refuse cells of side k*eps none of which is interior (in the domain
    at distance eps from its boundary): interior averages would be empty."""
    k = mesoscale_k(spec, k)
    tiles = _tiling(spec, k)
    if not np.any(tiles.interior & tiles.meets_domain):
        raise ValueError(f"no cell of side k*eps = {k * spec.epsilon} is interior to the domain")


def build_cube_covering(config: MarkedConfiguration, k: int) -> CubeCovering:
    """Tile the domain with cubes of side k*epsilon and assign every point."""
    cov = _tiling(config.spec, mesoscale_k(config.spec, k))
    if config.is_lattice:
        # tiles of the 2m+1 axis values, raveled by outer sums and gathered
        # by site key, in the smallest unsigned dtype that holds a cell index
        dtype = np.min_scalar_type(cov.n_cells - 1)
        axis = cov._axis_tiles(cov.epsilon * np.arange(-config.m, config.m + 1.0)[:, None])
        axis = axis[:, 0].astype(dtype)
        cells = np.zeros(1, dtype=dtype)
        for _ in range(config.spec.d):
            cells = np.add.outer(cells * dtype.type(cov.m_count[0]), axis).ravel()
        cov.point_cell = cells if cells.size == len(config) else cells[config.site_keys]
    else:
        cov.point_cell = cov.cell_of_points(config.centers())
    return cov


def _tiling(spec: ProcessSpec, k: int) -> CubeCovering:
    """The cells of side k*epsilon over the spec's domain, no point assigned."""
    d, eps = spec.d, spec.epsilon
    s, w = k * eps, spec.domain.radius
    shift = 0.0 if k % 2 == 0 else 0.5
    # per-axis tile indices whose open tile meets (-w, w)
    m_min = math.floor(-w / s - 1 + shift) + 1
    m_max = math.ceil(w / s + shift) - 1
    rng = np.arange(m_min, m_max + 1, dtype=np.int64)
    m_lo = np.full(d, m_min, dtype=np.int64)
    m_count = np.full(d, rng.size, dtype=np.int64)

    m = np.stack(np.meshgrid(*([rng] * d), indexing="ij"), axis=-1).reshape(-1, d)
    lo = s * (m - shift)
    hi = lo + s
    return CubeCovering(k=k, epsilon=eps, m_lo=m_lo, m_count=m_count,
                        anchors=k * m + (0 if k % 2 else k // 2), lo=lo, hi=hi,
                        interior=spec.domain.inner_margin(lo, hi, eps),
                        meets_domain=spec.domain.box_intersects(lo, hi),
                        point_cell=np.empty(0, dtype=np.int64))


# ----------------------------------------------------------------------
# trimmed minimal distance and the randomized covering
# ----------------------------------------------------------------------

def trimmed_min_distances(config: MarkedConfiguration, covering: CubeCovering,
                          idx: np.ndarray, kappa: float) -> np.ndarray:
    """Minimal distances trimmed dyadically near the boundary of the own cell.

    Full distance deep inside the cell; capped at eps^(1+kappa) within that
    distance of the cell boundary; capped at 2^(n-1) eps^(1+kappa) on the
    n-th dyadic shell.  The face-distance cases take priority in the listed
    order, so a tie at the shell edges resolves to the smaller cap.
    """
    eps, idx = config.spec.epsilon, np.asarray(idx)
    dist = np.maximum(covering.face_distances(config.centers(idx), covering.point_cell[idx]), 0.0)
    r = config.minimal_distances()[idx]
    base = eps ** (1.0 + kappa)
    shell = np.ceil(np.log2(np.maximum(dist, 1e-300) / base))
    cap = base * 2.0 ** (np.maximum(shell, 1.0) - 1.0)
    return np.where(dist >= eps / 2.0, r,
                    np.where(dist <= base, np.minimum(base, r), np.minimum(cap, r)))


@dataclass
class RandomCovering:
    base: CubeCovering
    kappa: float
    thinned: np.ndarray        # config indices carrying cubes
    tilde_r: np.ndarray
    cube_lo: np.ndarray        # (t, d)
    cube_hi: np.ndarray
    cell_of: np.ndarray        # (t,) flat cell of each thinned point
    volumes: np.ndarray        # (n_cells,)
    inc_cell: np.ndarray       # incidence: cell index
    inc_point: np.ndarray      # incidence: position into `thinned`
    inc_own: np.ndarray        # bool: point assigned to this cell

    @property
    def epsilon(self) -> float:
        return self.base.epsilon

    def csv_columns(self):
        return _cell_columns(self.base, self.volumes, self.cell_of)


def build_random_covering(config: MarkedConfiguration, k: int,
                          delta: float) -> RandomCovering:
    """Randomized covering with exact cell volumes.

    The retained points are the thinned set for ``delta``.  Volumes come
    from box arithmetic; a violated volume bound raises, since it indicates
    a construction bug rather than unlucky data.
    """
    spec = config.spec
    d, eps = spec.d, spec.epsilon
    _, kappa = mesoscale_parameters(d, eps)
    base = build_cube_covering(config, k)
    thinned = np.flatnonzero(thin_configuration(config, delta))
    tr = trimmed_min_distances(config, base, thinned, kappa)
    x = config.centers(thinned)
    half = 2.0 * tr
    cube_lo = x - half[:, None]
    cube_hi = x + half[:, None]
    cell_of = base.point_cell[thinned]

    # per-axis tile ranges met by each cube (at most two tiles per axis)
    s, shift = base.cell_size, base.shift
    m_a = np.floor(cube_lo / s + shift).astype(np.int64)
    span = np.ceil(cube_hi / s + shift).astype(np.int64) - 1 - m_a
    if np.any(span > 1):
        raise RuntimeError("a point cube spans more than two tiles per axis")
    # (offset, point) pairs, offset-major: an offset enumerates a distinct
    # tile only along axes the cube spans
    offsets = np.indices((2,) * d).reshape(d, -1).T
    o, inc_point = np.nonzero(np.all(offsets[:, None, :] <= span, axis=2))
    m = m_a[inc_point] + offsets[o] - base.m_lo
    inside = np.all((m >= 0) & (m < base.m_count), axis=1)
    inc_point = inc_point[inside]
    inc_cell = np.ravel_multi_index(tuple(m[inside].T), tuple(base.m_count))
    overlap = np.prod(np.maximum(np.minimum(cube_hi[inc_point], base.hi[inc_cell])
                                 - np.maximum(cube_lo[inc_point], base.lo[inc_cell]), 0.0),
                      axis=1)
    inc_own = inc_cell == cell_of[inc_point]

    volumes = np.full(base.n_cells, s ** d)
    cube_vol = (2.0 * half) ** d
    np.add.at(volumes, inc_cell[inc_own], cube_vol[inc_point[inc_own]] - overlap[inc_own])
    np.subtract.at(volumes, inc_cell[~inc_own], overlap[~inc_own])
    lo_b, hi_b = volume_bounds(k, eps, kappa, d)
    live = np.flatnonzero(base.meets_domain)
    v = volumes[live]
    if np.any(v < lo_b - 1e-12) or np.any(v > hi_b + 1e-12):
        # the live cell farthest outside the bounds
        worst = int(live[np.argmax(np.maximum(lo_b - v, v - hi_b))])
        raise RuntimeError(
            f"cell {worst} volume outside [(k-eps^kappa)^d, (k+eps^kappa)^d] eps^d: "
            f"{volumes[worst]:.6g} vs [{lo_b:.6g}, {hi_b:.6g}]")
    return RandomCovering(base=base, kappa=kappa, thinned=thinned, tilde_r=tr,
                          cube_lo=cube_lo, cube_hi=cube_hi, cell_of=cell_of,
                          volumes=volumes, inc_cell=inc_cell, inc_point=inc_point,
                          inc_own=inc_own)


def volume_bounds(k: int, epsilon: float, kappa: float, d: int):
    return ((k - epsilon ** kappa) ** d * epsilon ** d,
            (k + epsilon ** kappa) ** d * epsilon ** d)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

@dataclass
class CoveringReport:
    volume_violations: int
    overlap_violations: int
    dichotomy_violations: int
    n_cells: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (self.volume_violations | self.overlap_violations
                | self.dichotomy_violations) == 0


def verify_random_covering(cov: RandomCovering) -> CoveringReport:
    """Geometric verification from the raw boxes: cube disjointness, volume
    bounds, and the ball-in/ball-out dichotomy for every (point, cell) pair."""
    base = cov.base
    d = base.m_lo.size
    eps = cov.epsilon
    detail = ""

    lo_b, hi_b = volume_bounds(base.k, eps, cov.kappa, d)
    live = base.meets_domain
    vol_bad = int(np.count_nonzero((cov.volumes[live] < lo_b - 1e-12)
                                   | (cov.volumes[live] > hi_b + 1e-12)))

    # cube centres are the thinned points themselves; overlapping cubes sit
    # within the sum of their half-sides, at most the largest side
    overlap_bad = dich_bad = 0
    if cov.thinned.size > 1:
        centers = (cov.cube_lo + cov.cube_hi) / 2.0
        sub = SpatialIndex(centers / eps)
        i, j = sub.close_pairs(float(np.max(cov.cube_hi - cov.cube_lo)) / eps)
        gap = (np.minimum(cov.cube_hi[i], cov.cube_hi[j])
               - np.maximum(cov.cube_lo[i], cov.cube_lo[j]))
        bad = np.all(gap > 1e-12, axis=1)
        overlap_bad = int(np.count_nonzero(bad))
        if overlap_bad:
            k0 = int(np.argmax(bad))
            detail = f"cubes of thinned points {i[k0]} and {j[k0]} overlap"

        # dichotomy: no own cube may be bitten by a foreign cube of the same
        # cell (then B_{2r} sits inside the kept cube; the subtracted side
        # never meets the cell again).  A bite is an overlapping ordered pair
        # (p, q) with q incident, not own, in p's own cell (-1 if none).
        t = cov.thinned.size
        own_cell = np.full(t, -1, dtype=np.int64)
        own_cell[cov.inc_point[cov.inc_own]] = cov.inc_cell[cov.inc_own]
        foreign = cov.inc_cell[~cov.inc_own] * t + cov.inc_point[~cov.inc_own]
        p = np.concatenate([i[bad], j[bad]])
        q = np.concatenate([j[bad], i[bad]])
        dich_bad = int(np.count_nonzero(np.isin(own_cell[p] * t + q, foreign)))

    return CoveringReport(vol_bad, overlap_bad, dich_bad, int(np.count_nonzero(live)), detail)

