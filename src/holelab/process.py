"""Marked point process sampling and neighbour statistics.

A configuration is a finite set of points in the rescaled domain (the
domain blown up by 1/epsilon) together with i.i.d. marks.  Centres come
either from the integer lattice or from a homogeneous Poisson process.
Lattice sites are kept as their row-major keys in the box [-m, m]^d with
m = floor(radius/epsilon); their coordinates are unravelled on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .domain import DomainDescriptor
from .index import SpatialIndex
from .marks import MarkDistribution
from .rng import coordinate_uniforms, replicate_generator


class ResourceLimitError(RuntimeError):
    """Raised instead of silently truncating an oversised sample."""


@dataclass(frozen=True)
class ProcessSpec:
    """Full description of the random geometry at one scale."""

    d: int
    epsilon: float
    process: str                           # "lattice" | "poisson"
    marks: MarkDistribution
    domain: DomainDescriptor = DomainDescriptor()
    intensity: Optional[float] = None      # Poisson intensity; None for lattice
    master_seed: int = 0

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("dimension must be >= 3")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.process not in ("lattice", "poisson"):
            raise ValueError(f"unknown process {self.process!r}")
        if self.process == "poisson":
            if self.intensity is None or self.intensity <= 0:
                raise ValueError("poisson process needs intensity > 0")
        if self.marks.kind == "pareto":
            alpha, x_min = self.marks.params
            if alpha <= self.d - 2:
                raise ValueError("pareto tail index must exceed d-2")
            if self.marks.beta_eff <= 0:
                raise ValueError("effective beta must be positive")

    @property
    def hole_scale(self) -> float:
        """Radius prefactor epsilon^(d/(d-2)) multiplying each mark."""
        return self.epsilon ** (self.d / (self.d - 2))

    def expected_points(self) -> float:
        """Mean point count; the Poisson draw takes it as its parameter."""
        lam = 1.0 if self.process == "lattice" else self.intensity
        return lam * self.domain.volume(self.d) / self.epsilon ** self.d

    def with_epsilon(self, epsilon: float) -> "ProcessSpec":
        return replace(self, epsilon=epsilon)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "epsilon": self.epsilon,
            "process": self.process,
            "lambda": self.intensity,
            "marks": self.marks.to_json(),
            "domain": self.domain.to_json(),
            "master_seed": self.master_seed,
        }

    @staticmethod
    def from_json(obj: dict) -> "ProcessSpec":
        missing = [k for k in ("d", "epsilon", "process", "marks") if k not in obj]
        if missing:
            raise ValueError(f"spec is missing required key(s): {', '.join(missing)}")
        d = int(obj["d"])
        return ProcessSpec(
            d=d,
            epsilon=float(obj["epsilon"]),
            process=obj["process"],
            marks=MarkDistribution.from_json(obj["marks"], d),
            domain=DomainDescriptor.from_json(obj.get("domain", {"shape": "axis_cube", "half_width": 1.0})),
            intensity=obj.get("lambda"),
            master_seed=int(obj.get("master_seed", 0)),
        )


class MarkedConfiguration:
    """One sampled realization: rescaled centres and marks.

    A lattice configuration keeps its marks and, on a ball, the strictly
    increasing row-major keys of its sites in [-m, m]^d (on the cube, whose
    box is full, a key is its index); its coordinates are derived.
    """

    def __init__(self, spec: ProcessSpec, replicate: int, rho: np.ndarray,
                 points: Optional[np.ndarray] = None, site_keys: Optional[np.ndarray] = None):
        self.spec = spec
        self.replicate = replicate
        self.rho = rho
        self._points = points
        self._keys = site_keys          # None on the cube: key = index
        self.m = int(math.floor(spec.domain.radius / spec.epsilon)) if self.is_lattice else None
        self._index: Optional[SpatialIndex] = None
        self._min_dist: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.rho.shape[0]

    @property
    def is_lattice(self) -> bool:
        return self.spec.process == "lattice"

    def _tree(self) -> SpatialIndex:
        """The k-d tree over the Poisson centres, built on first use."""
        if self._index is None:
            self._index = SpatialIndex(self.points)
        return self._index

    def hole_radii(self, truncate: bool = False) -> np.ndarray:
        """Physical hole radii epsilon^(d/(d-2)) * rho, optionally capped at 1."""
        a = self.spec.hole_scale * self.rho
        return np.minimum(a, 1.0) if truncate else a

    @property
    def site_keys(self) -> np.ndarray:
        """Row-major keys of the lattice sites in [-m, m]^d."""
        return np.arange(len(self)) if self._keys is None else self._keys

    def _sites(self, idx=slice(None)) -> np.ndarray:
        """Integer lattice sites (n, d) of the points idx, from their keys."""
        keys = self.site_keys[idx] if self._keys is not None or isinstance(idx, slice) else idx
        shape = (2 * self.m + 1,) * self.spec.d
        return np.stack(np.unravel_index(keys, shape), axis=-1) - self.m

    def rescaled(self, idx=slice(None)) -> np.ndarray:
        """Rescaled centres of the points idx (all points by default)."""
        return self._sites(idx).astype(float) if self.is_lattice else self._points[idx]

    lattice_coords = property(_sites)
    points = property(rescaled)

    def centers(self, idx=slice(None)) -> np.ndarray:
        """Physical hole centres of the points idx (rescaled back by epsilon)."""
        return self.spec.epsilon * self.rescaled(idx)

    def neighbours(self, idx, reach):
        """Pairs (c, j) with point j within the closed max-norm ball of
        radius reach[c] around point idx[c], as ``SpatialIndex.query``.

        On the lattice no tree is built: the sites come from the integer box
        of half-width floor(reach[c]) around each centre, clipped to the
        sampled [-m, m]^d.  Integer differences compare exactly with any
        reach, so the pairs are the ones a tree would return.
        """
        idx = np.asarray(idx, dtype=np.int64)
        reach = np.broadcast_to(np.asarray(reach, dtype=float), idx.shape)
        if not self.is_lattice:
            return self._tree().query(self.rescaled(idx), reach)
        m, keys, sites = self.m, self._keys, self._sites(idx)
        half = np.floor(reach).astype(np.int64)[:, None]
        lo = np.maximum(sites - half, -m)
        ext = np.maximum(np.minimum(sites + half, m) - lo + 1, 0)
        vol = np.prod(ext, axis=1)
        c = np.repeat(np.arange(idx.size, dtype=np.int64), vol)
        # position inside the centre's box, peeled into axis offsets from
        # the last axis, which varies fastest in the site keys as well
        pos = np.arange(c.size, dtype=np.int64) - np.repeat(np.cumsum(vol) - vol, vol)
        key = np.zeros(c.size, dtype=np.int64)
        stride = 1
        for axis in range(self.spec.d - 1, -1, -1):
            e = ext[c, axis]
            key += (lo[c, axis] + m + pos % e) * stride
            pos //= e
            stride *= 2 * m + 1
        if keys is None:            # the cube has every box site
            return c, key
        # ball domains lack some box sites
        j = np.minimum(np.searchsorted(keys, key), keys.size - 1)
        found = keys[j] == key
        return c[found], j[found]

    def minimal_distances(self) -> np.ndarray:
        """(eps/4) * min(distance to the nearest other point, 1) for every point.

        Distance is the maximum norm over coordinates in the rescaled domain.
        With no other point within distance one the cap is active and the
        value is eps/4, which is also the lattice value everywhere (sites are
        at least one apart), there a read-only broadcast of that number.
        """
        eps = self.spec.epsilon
        if self.is_lattice:
            return np.broadcast_to(eps / 4.0, len(self))
        if self._min_dist is None:
            self._min_dist = (eps / 4.0) * self._tree().nearest_neighbor_distances(cap=1.0)
        return self._min_dist

    def csv_columns(self):
        """CSV columns replicate, rescaled centre, rho."""
        return self.replicate, self.points, self.rho


def sample_configuration(spec: ProcessSpec, replicate: int,
                         max_points: float = 5e7) -> MarkedConfiguration:
    """Draw one configuration; bit-reproducible in (master_seed, replicate)."""
    check_replicate(replicate)
    expected = spec.expected_points()
    if expected > max_points:
        raise ResourceLimitError(
            f"expected point count {expected:.3g} exceeds the cap {max_points:.3g}; "
            "raise max_points explicitly to proceed")

    if spec.process == "lattice":
        m = int(math.floor(spec.domain.radius / spec.epsilon))
        axes = [np.arange(-m, m + 1, dtype=np.int64)] * spec.d
        u = coordinate_uniforms(spec.master_seed, replicate, np.ix_(*axes)).ravel()
        keys = None
        if spec.domain.shape != "axis_cube":
            # membership of the box's centres, one first-axis plane at a time
            box, plane = MarkedConfiguration(spec, replicate, u), u.size // (2 * m + 1)
            keys = np.flatnonzero(np.concatenate(
                [spec.domain.contains(box.centers(np.arange(i, i + plane)))
                 for i in range(0, u.size, plane)]))
            u = u[keys]
        return MarkedConfiguration(spec, replicate, spec.marks.quantile(u), site_keys=keys)

    pts, rho = _poisson_draw(spec, replicate_generator(spec.master_seed, replicate))
    return MarkedConfiguration(spec, replicate, rho, points=pts)


def check_integer(name: str, value, least: int) -> int:
    """Refuse a count that is not an integer >= least (a bool is not one); return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def check_replicate(replicate: int) -> int:
    """Refuse a replicate number that is not an integer >= 0; return it otherwise."""
    return check_integer("replicate", replicate, 0)


def _poisson_draw(spec: ProcessSpec, gen: np.random.Generator):
    """Poisson centres on the rescaled domain and their marks, drawn from gen
    in the order count, uniforms (rejected outside a ball), marks."""
    n = int(gen.poisson(spec.expected_points()))
    r = spec.domain.radius / spec.epsilon
    if spec.domain.shape == "axis_cube":
        pts = gen.uniform(-r, r, size=(n, spec.d))
    else:
        pts = np.empty((0, spec.d))
        while pts.shape[0] < n:
            batch = gen.uniform(-r, r, size=(2 * (n - pts.shape[0]) + 16, spec.d))
            batch = batch[np.einsum("ij,ij->i", batch, batch) <= r * r]
            pts = np.vstack([pts, batch])
        pts = pts[:n]
    return pts, spec.marks.quantile(gen.random(n))


def check_delta(d: int, delta: float) -> None:
    """Refuse a thinning exponent outside (0, 2/(d-2)]."""
    if not 0 < delta <= 2.0 / (d - 2):
        raise ValueError("delta must lie in (0, 2/(d-2)]")


def thin_configuration(config: MarkedConfiguration, delta: float) -> np.ndarray:
    """Boolean mask of the points whose hole is both small and well separated.

    A point survives when its hole radius is at most eps^(1+delta) and the
    minimal distance is at least 2*sqrt(d) times the hole radius; these are
    exactly the points around which disjoint corrector annuli fit.
    """
    d = config.spec.d
    check_delta(d, delta)
    eps = config.spec.epsilon
    a = config.hole_radii()
    keep = a <= eps ** (1.0 + delta)
    a *= 2.0 * math.sqrt(d)
    keep &= config.minimal_distances() >= a
    return keep


# ----------------------------------------------------------------------
# Mecke (exchange formula) self-test for the Poisson branch
# ----------------------------------------------------------------------

@dataclass
class MeckeReport:
    functional: str
    trials: int
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float

    @property
    def z_score(self) -> float:
        se = math.hypot(self.lhs_se, self.rhs_se)
        return (self.lhs - self.rhs) / se if se > 0 else 0.0


MECKE_FUNCTIONALS = ("count", "truncated_mark", "isolated_mark")
_MECKE_HALF_WIDTH = 0.5        # of the rescaled test cube A


def check_mecke_arguments(spec: ProcessSpec, functional: str, trials: int) -> None:
    """Refuse what ``mecke_check`` cannot test: a lattice spec, fewer than 2
    trials (no standard error), an unknown functional, or a sampling window
    reaching less than one rescaled unit beyond the test cube."""
    if spec.process != "poisson":
        raise ValueError("the exchange identity is specific to the poisson process")
    check_integer("trials", trials, 2)
    if functional not in MECKE_FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}; choose from {MECKE_FUNCTIONALS}")
    if spec.domain.radius / spec.epsilon < _MECKE_HALF_WIDTH + 1.0:
        raise ValueError("sampling window too small for an edge-free test region")


def mecke_check(spec: ProcessSpec, functional: str, trials: int) -> MeckeReport:
    """Monte Carlo test of the exchange formula for Poisson configurations.

    Compares E[sum over points in the window A of G(point; rest)] with
    lambda*|A|*E_rho[E[G((0, rho); fresh configuration)]], where A is the
    rescaled cube of half-width 1/2 and the truncated mark functional cuts
    marks at 10.  The right-hand side is closed-form for the first two
    functionals and estimated by an independent second Monte Carlo for the
    neighbour-dependent one.  Both sides draw their configurations as
    ``sample_configuration`` does, from one generator per side shared
    across the trials.
    """
    check_mecke_arguments(spec, functional, trials)
    d, eps, trunc = spec.d, spec.epsilon, 10.0
    vol_a = (2.0 * _MECKE_HALF_WIDTH) ** d

    gen = replicate_generator(spec.master_seed, 0xA11CE)
    samples = np.empty(trials)
    for t in range(trials):
        pts, rho = _poisson_draw(spec, gen)
        in_a = np.flatnonzero(np.max(np.abs(pts), axis=1) <= _MECKE_HALF_WIDTH)
        if functional == "count":
            samples[t] = in_a.size
            continue
        if functional == "truncated_mark":
            keep = rho[in_a] < trunc
        else:
            dist = np.max(np.abs(pts[in_a, None, :] - pts[None, :, :]), axis=2)
            dist[np.arange(in_a.size), in_a] = np.inf
            keep = (eps / 4.0) * np.minimum(dist.min(axis=1, initial=np.inf), 1.0) >= eps ** 2
        samples[t] = np.sum(rho[in_a[keep]] ** (d - 2))
    lhs = float(samples.mean())
    lhs_se = float(samples.std(ddof=1) / math.sqrt(trials))

    lam = spec.intensity
    if functional == "count":
        return MeckeReport(functional, trials, lhs, lhs_se, lam * vol_a, 0.0)
    if functional == "truncated_mark":
        rhs = lam * vol_a * spec.marks.truncated_moment(d - 2, trunc)
        return MeckeReport(functional, trials, lhs, lhs_se, rhs, 0.0)

    gen2 = replicate_generator(spec.master_seed, 0xB0B)
    vals = np.empty(trials)
    for t in range(trials):
        pts, _ = _poisson_draw(spec, gen2)
        rho0 = float(spec.marks.quantile(gen2.random(1))[0])
        r0 = (eps / 4.0) * min(np.max(np.abs(pts), axis=1).min(initial=np.inf), 1.0)
        vals[t] = rho0 ** (d - 2) if r0 >= eps ** 2 else 0.0
    rhs = lam * vol_a * float(vals.mean())
    rhs_se = lam * vol_a * float(vals.std(ddof=1) / math.sqrt(trials))
    return MeckeReport(functional, trials, lhs, lhs_se, rhs, rhs_se)
