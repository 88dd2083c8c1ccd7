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

from .process import MarkedConfiguration


@dataclass
class HolePartition:
    delta: float
    good: np.ndarray
    bad_J: np.ndarray          # oversized marks
    bad_K: np.ndarray          # squeezed neighbour distance (poisson only)
    bad_C: np.ndarray          # hole radius comparable to neighbour distance (poisson only)
    bad_I_tilde: np.ndarray    # contagion: too close to a core bad hole
    safety_centers: np.ndarray  # (m, d) physical centres of the safety balls
    safety_radii: np.ndarray    # (m,) radii 2 * min(hole radius, 1)

    @property
    def bad(self) -> np.ndarray:
        return np.concatenate([self.bad_J, self.bad_K, self.bad_C, self.bad_I_tilde])

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
    if core.size == 0:
        return np.zeros(len(config), dtype=bool)
    hit = np.zeros(len(config), dtype=bool)
    trunc = np.minimum(a, 1.0)
    # rescaled reach: own radius is at most eps/4
    reach = 0.25 + 2.0 * trunc[core] / eps
    c, cand = config.neighbours(core, reach + 1e-12)
    w = core[c]
    keep = cand != w
    w, cand = w[keep], cand[keep]
    diff = config.rescaled(cand) - config.rescaled(w)
    dist = eps * np.sqrt(np.einsum("ij,ij->i", diff, diff))
    hit[cand[dist <= own[cand] + 2.0 * trunc[w]]] = True
    return hit


def check_partition_scale(d: int, epsilon: float, delta: float, lattice: bool) -> None:
    """Refuse a delta outside (0, 2/(d-2)] and, on the lattice, an epsilon
    with eps^delta >= 1/4: the decomposition does not cover them."""
    if not 0 < delta <= 2.0 / (d - 2):
        raise ValueError("delta must lie in (0, 2/(d-2)]")
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
        delta=delta,
        good=np.flatnonzero(~(core | mask_i)),
        bad_J=np.flatnonzero(mask_j),
        bad_K=np.flatnonzero(mask_k),
        bad_C=np.flatnonzero(mask_c),
        bad_I_tilde=np.flatnonzero(mask_i),
        safety_centers=config.centers(bad_idx),
        safety_radii=2.0 * np.minimum(a[bad_idx], 1.0),
    )


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
    bad = partition.bad
    if bad.size == 0:
        return 0.0
    return float(config.spec.epsilon ** d * np.sum(config.rho[bad] ** (d - 2)))


def overlap_pairs(config: MarkedConfiguration) -> int:
    """Number of unordered pairs whose (truncated) holes intersect.

    Holes are Euclidean balls of radius min(eps^(d/(d-2)) rho, 1) around the
    physical centres; the count is exact.  Pairs of two small holes are
    scanned in bulk, pairs involving a large hole by individual range
    queries, so rare giant holes do not force a global quadratic pass.
    """
    eps = config.spec.epsilon
    n = len(config)
    if n < 2:
        return 0
    a = config.hole_radii(truncate=True)
    rescaled = a / eps
    b0 = 0.25
    big = np.flatnonzero(rescaled > b0)
    small = rescaled <= b0

    count = 0
    # small-small pairs need rescaled separation below 2*b0; lattice points
    # are at least unit distance apart, so only the poisson branch scans
    if not config.is_lattice:
        i, j = config.index.close_pairs(2.0 * b0)
        keep = small[i] & small[j]
        i, j = i[keep], j[keep]
        diff = config.rescaled(i) - config.rescaled(j)
        dist = eps * np.sqrt(np.einsum("ij,ij->i", diff, diff))
        count += int(np.count_nonzero(dist < a[i] + a[j]))

    if big.size == 0:
        return count
    a_max = float(rescaled.max())
    c, k = config.neighbours(big, rescaled[big] + a_max + 1e-12)
    b = big[c]
    keep = k != b
    b, k = b[keep], k[keep]
    diff = config.rescaled(k) - config.rescaled(b)
    dist = eps * np.sqrt(np.einsum("ij,ij->i", diff, diff))
    hit = dist < a[b] + a[k]
    # a pair of two big holes is found from both ends; count it once
    pairs = np.stack([np.minimum(b[hit], k[hit]), np.maximum(b[hit], k[hit])], axis=1)
    return count + np.unique(pairs, axis=0).shape[0]


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
    d = config.spec.d
    eps = config.spec.epsilon
    delta = partition.delta
    a = config.hole_radii()
    rep = PartitionReport()

    classes = [partition.good, partition.bad_J, partition.bad_K,
               partition.bad_C, partition.bad_I_tilde]
    combined = np.concatenate(classes)
    is_partition = combined.size == len(config) and np.unique(combined).size == len(config)
    rep.add("disjoint_cover", is_partition,
            "" if is_partition else f"{combined.size} labels for {len(config)} points")

    good = partition.good
    thr = eps ** (1.0 + delta)
    viol = good[a[good] > thr] if good.size else np.empty(0, int)
    rep.add("good_hole_size", viol.size == 0,
            "" if viol.size == 0 else f"point {viol[0]} has hole {a[viol[0]]:.3g} > {thr:.3g}")

    own = config.minimal_distances()
    if not config.is_lattice:
        v1 = good[own[good] < eps ** 2] if good.size else np.empty(0, int)
        rep.add("good_min_distance", v1.size == 0,
                "" if v1.size == 0 else f"point {v1[0]} has R {own[v1[0]]:.3g} < eps^2")
        v2 = good[2.0 * math.sqrt(d) * a[good] > own[good]] if good.size else np.empty(0, int)
        rep.add("good_separation", v2.size == 0,
                "" if v2.size == 0 else f"point {v2[0]} violates 2*sqrt(d)*a <= R")

    # protection balls of good points avoid every safety ball: one max-norm
    # query, widened by the largest good own radius, then the exact test
    ok = True
    detail = ""
    if good.size and partition.safety_radii.size:
        reach = (partition.safety_radii + own[good].max()) / eps * (1.0 + 1e-9)
        w, g = config.index.query(partition.safety_centers / eps, reach)
        pos = np.full(len(config), good.size)     # first place in `good`
        np.minimum.at(pos, good, np.arange(good.size))
        keep = pos[g] < good.size
        w, g = w[keep], g[keep]
        diff = config.centers(g) - partition.safety_centers[w]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        hit = dist < own[g] + partition.safety_radii[w] - 1e-12
        if np.any(hit):
            ok = False
            w0 = w[hit].min()
            detail = f"good point {good[pos[g[hit & (w == w0)]].min()]} touches safety ball {w0}"
    rep.add("good_avoids_bad_region", ok, detail)

    # the safety region stays within distance 2 of the domain
    ok2 = bool(np.all(partition.safety_radii <= 2.0 + 1e-12))
    rep.add("bad_region_near_domain", ok2, "" if ok2 else "a safety ball has radius > 2")

    # good holes are pairwise disjoint balls
    ok3, det3 = True, ""
    if good.size > 1:
        trunc = np.minimum(a, 1.0)
        reach = 2.0 * float(trunc[good].max()) / eps
        i, j = config.index.close_pairs(max(reach, 1e-9))
        keep = np.isin(i, good) & np.isin(j, good)
        i, j = i[keep], j[keep]
        if i.size:
            diff = config.centers(i) - config.centers(j)
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            overlap = dist < trunc[i] + trunc[j] - 1e-12
            if np.any(overlap):
                ok3 = False
                k = np.argmax(overlap)
                det3 = f"good holes {i[k]} and {j[k]} overlap"
    rep.add("good_holes_disjoint", ok3, det3)
    return rep
