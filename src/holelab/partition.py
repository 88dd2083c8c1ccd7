"""Good/bad decomposition of the holes.

Points whose hole is oversized, squeezed against a neighbour, or merely
close to such a hole are classed as bad; the rest are good and carry the
explicit corrector.  Safety balls of twice the (truncated) hole radius
around every bad point form the region that the good points must avoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .process import MarkedConfiguration, check_delta


@dataclass
class HolePartition:
    delta: float
    n_points: int              # good: the points in no bad class, derived when read
    bad_J: np.ndarray          # oversized marks
    bad_K: np.ndarray          # squeezed neighbour distance (poisson only)
    bad_C: np.ndarray          # hole radius comparable to neighbour distance (poisson only)
    bad_I_tilde: np.ndarray    # contagion: too close to a core bad hole
    safety_index: np.ndarray    # (m,) sorted bad indices, the centres of the safety balls
    safety_radii: np.ndarray    # (m,) radii 2 * min(hole radius, 1)

    @property
    def bad(self) -> np.ndarray:
        return np.concatenate([self.bad_J, self.bad_K, self.bad_C, self.bad_I_tilde])

    @property
    def is_good(self) -> np.ndarray:
        is_good = np.ones(self.n_points, dtype=bool)
        is_good[self.bad] = False
        return is_good

    @property
    def good(self) -> np.ndarray:
        return np.flatnonzero(self.is_good)

    def csv_columns(self, config: MarkedConfiguration):
        """CSV columns index, class label, rho, R; the classes in turn."""
        classes = [self.good, self.bad_J, self.bad_K, self.bad_C, self.bad_I_tilde]
        idx = np.concatenate(classes)
        labels = np.repeat(["good", "J", "K", "C", "I"], [c.size for c in classes])
        return idx, labels, config.rho[idx], config.minimal_distances()[idx]


def _contagion(config: MarkedConfiguration, core: np.ndarray, a: np.ndarray,
               own: np.ndarray) -> np.ndarray:
    """Non-core points whose protection ball touches a doubled core hole."""
    eps = config.spec.epsilon
    hit = np.zeros(len(config), dtype=bool)
    if core.size == 0:
        return hit
    trunc = np.minimum(a[core], 1.0)
    # rescaled reach: own radius is at most eps/4; a core point that finds
    # itself is dropped by the caller with the rest of the core
    reach = 0.25 + 2.0 * trunc / eps
    c, cand = config.neighbours(core, reach + 1e-12)
    diff = config.rescaled(cand) - config.rescaled(core[c])
    dist = eps * np.sqrt(np.einsum("ij,ij->i", diff, diff))
    hit[cand[dist <= own[cand] + 2.0 * trunc[c]]] = True
    return hit


def check_partition_scale(d: int, epsilon: float, delta: float, lattice: bool) -> None:
    """Refuse a delta outside (0, 2/(d-2)] and, on the lattice, an epsilon
    with eps^delta >= 1/4: the decomposition does not cover them."""
    check_delta(d, delta)
    if lattice and epsilon ** delta >= 0.25:
        raise ValueError(
            f"epsilon={epsilon} too large for delta={delta}; "
            f"the decomposition requires epsilon < {0.25 ** (1.0 / delta):.6g}")


def _classify(config: MarkedConfiguration, delta: float) -> HolePartition:
    """The classes and safety balls of either process.

    On the lattice the K and C classes stay empty and the decomposition
    needs eps^delta < 1/4; the J holes alone then seed the contagion.
    """
    d, eps = config.spec.d, config.spec.epsilon
    check_partition_scale(d, eps, delta, config.is_lattice)
    a = config.hole_radii()
    own = config.minimal_distances()
    mask_j = a >= eps ** (1.0 + delta)
    mask_k = mask_c = np.zeros(len(config), dtype=bool)
    if not config.is_lattice:
        mask_k = ~mask_j & (own <= eps ** 2)
        mask_c = ~mask_j & ~mask_k & (2.0 * math.sqrt(d) * a >= own)
    core = mask_j | mask_k | mask_c
    mask_i = _contagion(config, np.flatnonzero(core), a, own) & ~core
    bad_idx = np.flatnonzero(core | mask_i)
    return HolePartition(
        delta=delta, n_points=len(config),
        bad_J=np.flatnonzero(mask_j), bad_K=np.flatnonzero(mask_k),
        bad_C=np.flatnonzero(mask_c), bad_I_tilde=np.flatnonzero(mask_i),
        safety_index=bad_idx, safety_radii=2.0 * np.minimum(a[bad_idx], 1.0))


# Not exported: the benchmark's tracer (perfbench/tracing.py) times the
# classification under these two names, so the dispatch below goes through them.
partition_lattice = partition_poisson = _classify


def partition_configuration(config: MarkedConfiguration, delta: float) -> HolePartition:
    """The good/bad decomposition of a lattice or Poisson configuration."""
    branch = partition_lattice if config.is_lattice else partition_poisson
    return branch(config, delta)


def bad_capacity_sum(config: MarkedConfiguration, partition: HolePartition) -> float:
    """eps^d * sum of rho^(d-2) over the bad points (monitored decay quantity)."""
    d = config.spec.d
    return float(config.spec.epsilon ** d * np.sum(config.rho[partition.bad] ** (d - 2)))


def _pairs_within_reach(config: MarkedConfiguration, radii: np.ndarray, own, among):
    """Pairs (i, j), one per unordered pair of the points flagged in ``among``,
    whose balls of the given radii may meet; i holds the larger (radius, index).

    Two balls meet only within twice the larger radius r, so that point's own
    radius (eps/4 times its capped nearest-neighbour distance) is at most r/2:
    only such points are queried, each within 2r/eps.  Both tests are widened
    by a relative 1e-9.
    """
    eps = config.spec.epsilon
    cand = np.flatnonzero(among & (radii >= 2.0 * own / (1.0 + 1e-9)))
    if cand.size == 0:
        return cand, cand
    c, j = config.neighbours(cand, 2.0 * radii[cand] / eps * (1.0 + 1e-9))
    i = cand[c]
    keep = among[j] & ((radii[j] < radii[i]) | ((radii[j] == radii[i]) & (j < i)))
    return i[keep], j[keep]


def overlap_pairs(config: MarkedConfiguration) -> int:
    """Number of unordered pairs whose (truncated) holes intersect.

    Holes are Euclidean balls of radius min(eps^(d/(d-2)) rho, 1) around the
    physical centres; the count is exact.  Only holes whose cached nearest
    neighbour lies within twice their radius are queried, each within that
    reach, so no whole-configuration pair scan is made.
    """
    eps = config.spec.epsilon
    a = config.hole_radii(truncate=True)
    own = eps / 4.0 if config.is_lattice else config.minimal_distances()   # lattice: all eps/4
    i, j = _pairs_within_reach(config, a, own, np.ones(len(config), dtype=bool))
    diff = config.rescaled(i) - config.rescaled(j)
    dist = eps * np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return int(np.count_nonzero(dist < a[i] + a[j]))


# ----------------------------------------------------------------------
# invariant verification
# ----------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class PartitionReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, bool(passed), detail))


def verify_partition(config: MarkedConfiguration, partition: HolePartition) -> PartitionReport:
    """Check every structural property of the decomposition; failures are data."""
    d, eps, delta = config.spec.d, config.spec.epsilon, partition.delta
    a = config.hole_radii()
    rep = PartitionReport()

    # one label per bad class entry and per good point: n unless a point is listed twice
    n, is_good = len(config), partition.is_good
    labels = partition.bad.size + np.count_nonzero(is_good)
    rep.add("disjoint_cover", labels == n, "" if labels == n else f"{labels} labels for {n} points")

    thr = eps ** (1.0 + delta)
    viol = np.flatnonzero(is_good & (a > thr))
    rep.add("good_hole_size", viol.size == 0,
            "" if viol.size == 0 else f"point {viol[0]} has hole {a[viol[0]]:.3g} > {thr:.3g}")

    own = config.minimal_distances()
    if not config.is_lattice:
        v1 = np.flatnonzero(is_good & (own < eps ** 2))
        rep.add("good_min_distance", v1.size == 0,
                "" if v1.size == 0 else f"point {v1[0]} has R {own[v1[0]]:.3g} < eps^2")
        v2 = np.flatnonzero(is_good & (2.0 * math.sqrt(d) * a > own))
        rep.add("good_separation", v2.size == 0,
                "" if v2.size == 0 else f"point {v2[0]} violates 2*sqrt(d)*a <= R")

    # protection balls of good points avoid every safety ball: one max-norm query
    # around the bad centres, widened by the largest good own radius, then the exact test
    ok, detail = True, ""
    if partition.safety_radii.size and is_good.any():
        reach = (partition.safety_radii + own[is_good].max()) / eps * (1.0 + 1e-9)
        w, g = config.neighbours(partition.safety_index, reach)
        keep = is_good[g]
        w, g = w[keep], g[keep]
        diff = config.centers(g) - config.centers(partition.safety_index[w])
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        hit = dist < own[g] + partition.safety_radii[w] - 1e-12
        if np.any(hit):
            ok = False
            w0 = w[hit].min()
            detail = f"good point {g[hit & (w == w0)].min()} touches safety ball {w0}"
    rep.add("good_avoids_bad_region", ok, detail)

    # the safety region stays within distance 2 of the domain
    ok2 = bool(np.all(partition.safety_radii <= 2.0 + 1e-12))
    rep.add("bad_region_near_domain", ok2, "" if ok2 else "a safety ball has radius > 2")

    # good holes are pairwise disjoint balls; the lowest overlapping pair is named
    trunc = np.minimum(a, 1.0)
    i, j = _pairs_within_reach(config, trunc, own, is_good)
    diff = config.centers(i) - config.centers(j)
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    overlap = dist < trunc[i] + trunc[j] - 1e-12
    lo, hi = np.minimum(i, j)[overlap], np.maximum(i, j)[overlap]
    first = np.lexsort((hi, lo))[:1]
    rep.add("good_holes_disjoint", first.size == 0,
            f"good holes {lo[first][0]} and {hi[first][0]} overlap" if first.size else "")
    return rep
