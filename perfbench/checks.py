"""Output checks for the benchmark workloads.

Every check either recomputes a result apart from holelab (with scipy's
k-d tree, integer lattice offsets or closed forms) or tests a property the
method must have.  Each returns a list of failure messages; an empty list
means the check passed.  The checks take plain values, so the benchmark's
own tests can hand them deliberately perturbed ones.
"""

from __future__ import annotations

import csv
import math
import struct

import numpy as np
from scipy.spatial import cKDTree

D = 3


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


# ----------------------------------------------------------------------
# lattice ensembles
# ----------------------------------------------------------------------

def lattice_sites(m: int) -> np.ndarray:
    """Integer sites of {-m..m}^3 in lexicographic order."""
    ax = np.arange(-m, m + 1, dtype=np.int64)
    g = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.stack([v.ravel() for v in g], axis=1)


def lattice_bad_capacity(coords: np.ndarray, rho: np.ndarray, eps: float,
                         delta: float) -> float:
    """eps^3 * sum of rho over the bad sites, from the marks alone.

    The J class is a >= eps^(1+delta) with a = eps^3 rho.  Contagion marks
    every other site whose own ball (radius eps/4) meets the doubled
    truncated hole of a J site; candidates come from integer offsets, not
    from a spatial index.  ``coords`` must come from ``lattice_sites``.
    """
    m = int(coords[:, 0].max())
    side = 2 * m + 1
    a = eps ** (D / (D - 2)) * rho
    trunc = np.minimum(a, 1.0)
    core = np.flatnonzero(a >= eps ** (1.0 + delta))
    bad = np.zeros(rho.size, dtype=bool)
    bad[core] = True
    for w in core:
        reach = int(math.floor(0.25 + 2.0 * trunc[w] / eps))
        lo = np.maximum(coords[w] - reach, -m)
        hi = np.minimum(coords[w] + reach, m)
        box = np.stack(np.meshgrid(*[np.arange(lo[i], hi[i] + 1) for i in range(D)],
                                   indexing="ij"), axis=-1).reshape(-1, D)
        diff = (box - coords[w]).astype(float)
        dist = eps * np.sqrt(np.einsum("ij,ij->i", diff, diff))
        hit = box[(dist <= eps / 4.0 + 2.0 * trunc[w]) & (dist > 0)] + m
        bad[(hit[:, 0] * side + hit[:, 1]) * side + hit[:, 2]] = True
    return float(eps ** D * np.sum(rho[bad]))


def check_bad_capacity(label: str, value: float, reference: float,
                       rtol: float = 1e-12) -> list:
    if _rel(value, reference) > rtol:
        return [f"{label}: bad_capacity {value!r} != recomputed {reference!r}"]
    return []


def check_det_dominates(det: np.ndarray, bad: np.ndarray) -> list:
    """The surrogate contains sqrt(t_second + t_bad) >= sqrt(t_bad)."""
    det, bad = np.asarray(det), np.asarray(bad)
    viol = np.argwhere(~(det >= np.sqrt(bad)))
    if viol.size:
        i, r = viol[0]
        return [f"det_rhs[{i},{r}] = {det[i, r]!r} < sqrt(bad_capacity) = {math.sqrt(bad[i, r])!r}"]
    return []


def check_site_count(n_inv: int, half_width: int, count: int) -> list:
    expected = (2 * n_inv * half_width + 1) ** D
    if count != expected:
        return [f"eps=1/{n_inv}: {count} sites, expected {expected}"]
    return []


def check_marks_persist(coarse_coords, coarse_rho, fine_coords, fine_rho,
                        label: str) -> list:
    """Sites shared by two configurations of one replicate carry one mark."""
    m = int(fine_coords[:, 0].max())
    side = 2 * m + 1
    shifted = fine_coords + m
    lut = np.full(side ** D, -1, dtype=np.int64)
    lut[(shifted[:, 0] * side + shifted[:, 1]) * side + shifted[:, 2]] = np.arange(len(fine_coords))
    c = np.asarray(coarse_coords, dtype=np.int64) + m
    pos = lut[(c[:, 0] * side + c[:, 1]) * side + c[:, 2]]
    if np.any(pos < 0):
        return [f"{label}: coarse sites missing from the fine lattice"]
    moved = np.flatnonzero(fine_rho[pos] != coarse_rho)
    if moved.size:
        return [f"{label}: {moved.size} sites changed mark across epsilon"]
    return []


def check_fit_slope(slope: float, eps, means) -> list:
    """The fitted slope is the least-squares slope of log(mean) on log(eps)."""
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    xc = x - x.mean()
    ref = float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))
    if not abs(slope - ref) <= 1e-9 * max(1.0, abs(ref)):
        return [f"fit slope {slope!r} != least squares on the means {ref!r}"]
    return []


# ----------------------------------------------------------------------
# Poisson geometry
# ----------------------------------------------------------------------

def chebyshev_min_distances(points: np.ndarray, eps: float) -> np.ndarray:
    """(eps/4) * min(max-norm distance to the nearest other point, 1)."""
    d, _ = cKDTree(points).query(points, k=2, p=np.inf)
    return (eps / 4.0) * np.minimum(d[:, 1], 1.0)


def check_min_distances(values: np.ndarray, reference: np.ndarray) -> list:
    values = np.asarray(values)
    if values.shape != reference.shape:
        return [f"minimal_distances has shape {values.shape}, expected {reference.shape}"]
    err = np.abs(values - reference)
    if not np.all(err <= 1e-12 * reference):
        k = int(np.argmax(err))
        return [f"minimal_distances[{k}] = {values[k]!r}, k-d tree gives {reference[k]!r}"]
    return []


def poisson_classes(points: np.ndarray, rho: np.ndarray, eps: float, delta: float,
                    min_dist: np.ndarray) -> dict:
    """Class sizes of the good/bad decomposition, recomputed with a k-d tree."""
    a = eps ** (D / (D - 2)) * rho
    trunc = np.minimum(a, 1.0)
    j = a >= eps ** (1.0 + delta)
    k = ~j & (min_dist <= eps ** 2)
    c = ~j & ~k & (2.0 * math.sqrt(D) * a >= min_dist)
    core = j | k | c
    centers = eps * points
    cw = np.flatnonzero(core)
    hit = np.zeros(rho.size, dtype=bool)
    if cw.size:
        tree = cKDTree(centers)
        for w, cand in zip(cw, tree.query_ball_point(centers[cw], eps / 4.0 + 2.0 * trunc[cw])):
            cand = np.asarray(cand, dtype=np.int64)
            cand = cand[cand != w]
            dist = np.linalg.norm(centers[cand] - centers[w], axis=1)
            hit[cand[dist <= min_dist[cand] + 2.0 * trunc[w]]] = True
    i = hit & ~core
    return {"good": int(np.count_nonzero(~core & ~i)), "J": int(j.sum()), "K": int(k.sum()),
            "C": int(c.sum()), "I": int(i.sum())}


def overlap_count(points: np.ndarray, rho: np.ndarray, eps: float) -> int:
    """Unordered pairs of truncated Euclidean holes that intersect.

    Pairs of two holes of radius at most eps/4 come from one k-d tree pair
    search; every pair with a larger hole from a range query around it.
    """
    a = np.minimum(eps ** (D / (D - 2)) * rho, 1.0)
    centers = eps * points
    tree = cKDTree(centers)
    tau = eps / 4.0
    small = a <= tau
    pairs = tree.query_pairs(2.0 * tau, output_type="ndarray")
    count = 0
    if len(pairs):
        i, j = pairs[:, 0], pairs[:, 1]
        keep = small[i] & small[j]
        i, j = i[keep], j[keep]
        dist = np.linalg.norm(centers[i] - centers[j], axis=1)
        count += int(np.count_nonzero(dist < a[i] + a[j]))
    big = np.flatnonzero(~small)
    a_max = float(a.max(initial=0.0))
    for b in big:
        cand = np.asarray(tree.query_ball_point(centers[b], a[b] + a_max), dtype=np.int64)
        # a pair of two large holes is counted from its smaller index only
        cand = cand[(cand != b) & (small[cand] | (cand > b))]
        dist = np.linalg.norm(centers[cand] - centers[b], axis=1)
        count += int(np.count_nonzero(dist < a[b] + a[cand]))
    return count


def check_equal(label: str, value, reference) -> list:
    if value != reference:
        return [f"{label}: {value!r} != recomputed {reference!r}"]
    return []


def check_verifier(label: str, violations: dict) -> list:
    bad = {k: v for k, v in violations.items() if v}
    return [f"{label}: violations {bad}"] if bad else []


# ----------------------------------------------------------------------
# grid solves
# ----------------------------------------------------------------------

def check_eigen_dual_norm(norm: float, rtol: float = 0.01) -> list:
    """||lambda_1 phi||_{H^-1} = sqrt(lambda_1 |phi|^2) = pi sqrt(3/8) on the
    unit cube, phi = cos(pi x) cos(pi y) cos(pi z)."""
    exact = math.pi * math.sqrt(3.0 / 8.0)
    if not abs(norm / exact - 1.0) <= rtol:
        return [f"eigenfunction dual norm {norm!r} not within {rtol:.0%} of pi*sqrt(3/8)"]
    return []


def check_homogenized_phi(u: np.ndarray, phi: np.ndarray, lam: float, c0: float,
                          h: float) -> list:
    """phi restricted to the nodes is an eigenvector of the 7-point
    Laplacian with eigenvalue 3 (2/h sin(pi h/4))^2, so the discrete
    solution is phi (lam + c0)/(lam_h + c0); twice that deviation is the
    allowed error."""
    lam_h = 3.0 * (2.0 / h * math.sin(math.pi * h / 4.0)) ** 2
    tol = 2.0 * abs(1.0 - (lam + c0) / (lam_h + c0)) + 1e-7
    err = float(np.max(np.abs(u - phi)))
    if not err <= tol:
        return [f"homogenized solve misses phi by {err:.3g} > {tol:.3g}"]
    return []


def fibonacci_sphere(m: int) -> np.ndarray:
    """Golden-angle spiral points on the unit sphere (the documented rule)."""
    i = np.arange(m) + 0.5
    z = 1.0 - 2.0 * i / m
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.stack([s * np.cos(theta), s * np.sin(theta), z], axis=1)


def dropped_mass(centers, radii, weights, grid_lo, grid_n: int, h: float) -> tuple:
    """Charge and count of sphere samples falling outside the grid box.

    A sphere gets max(64, ceil(4 pi (r/h)^2)) spiral samples, each carrying
    its charge over that count; a sample is outside when its node
    coordinate (x - lo)/h leaves [0, n - 1] on some axis.
    """
    lo = np.asarray(grid_lo, dtype=float)
    mass, count = 0.0, 0
    reach_lo = (centers - radii[:, None] - lo) / h
    reach_hi = (centers + radii[:, None] - lo) / h
    straddle = np.flatnonzero(np.any(reach_lo < 0, axis=1) | np.any(reach_hi > grid_n - 1, axis=1))
    for k in straddle:
        m = max(64, int(math.ceil(4.0 * math.pi * (radii[k] / h) ** 2)))
        rel = (centers[k] + radii[k] * fibonacci_sphere(m) - lo) / h
        out = int(np.count_nonzero(~np.all((rel >= 0) & (rel <= grid_n - 1), axis=1)))
        mass += weights[k] * out / m
        count += out
    return mass, count


def trapezoid_volume(n: int, lo: float, hi: float, density: np.ndarray) -> float:
    """Sum of density times trapezoid node volume on an n^3 box grid."""
    h = (hi - lo) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    dens = np.broadcast_to(np.asarray(density, dtype=float), (n, n, n))
    return float(np.einsum("ijk,i,j,k->", dens, w, w, w))


def check_node_mass(label: str, node_mass: float, atoms: float, dropped: float,
                    background: float) -> list:
    expected = atoms - dropped - background
    if not abs(node_mass - expected) <= 1e-10:
        return [f"{label}: node mass {node_mass!r} != atoms - dropped - c0|D| = {expected!r}"]
    return []


def check_max_principle(u_perf: np.ndarray, u_free: np.ndarray) -> list:
    tol = 1e-7 * float(np.max(np.abs(u_free)))
    out = []
    if not np.min(u_perf) >= -tol:
        out.append(f"perforated solution negative: min {np.min(u_perf)!r}")
    if not np.max(u_perf - u_free) <= tol:
        out.append(f"perforated solution exceeds the hole-free one by {np.max(u_perf - u_free)!r}")
    return out


def check_dual_bound(norm: float, energies: np.ndarray) -> list:
    bound = 1.1 * math.sqrt(float(np.sum(energies)))
    if not norm <= bound:
        return [f"dual norm {norm!r} > 1.1 sqrt(sum Neumann energies) = {bound!r}"]
    return []


# ----------------------------------------------------------------------
# CLI outputs
# ----------------------------------------------------------------------

def read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_csv(path: str, header: list, n_rows: int, labels=None, column: int = 1) -> list:
    head, rows = read_csv(path)
    out = []
    if head != header:
        out.append(f"{path}: header {head} != {header}")
    if len(rows) != n_rows:
        out.append(f"{path}: {len(rows)} rows, expected {n_rows}")
    if labels is not None:
        seen = {r[column] for r in rows}
        if not seen <= set(labels):
            out.append(f"{path}: labels {sorted(seen - set(labels))} outside {sorted(labels)}")
    return out


def read_field(path: str):
    """Documented layout: int64 n, float64 h, int64 d, then n^d float64
    node values in C order, all little-endian."""
    with open(path, "rb") as fh:
        raw = fh.read()
    n, h, d = struct.unpack("<qdq", raw[:24])
    if len(raw) != 24 + 8 * n ** d:
        raise ValueError(f"{path}: {len(raw)} bytes for n={n}, d={d}")
    return np.frombuffer(raw[24:], dtype="<f8").reshape((n,) * d), h


def check_field(path: str, n: int, h: float, u_max: float) -> list:
    try:
        u, h_read = read_field(path)
    except (ValueError, struct.error) as exc:
        return [str(exc)]
    out = []
    if u.shape != (n, n, n) or h_read != h:
        out.append(f"{path}: shape {u.shape} h {h_read!r}, expected n={n} h={h!r}")
        return out
    faces = np.concatenate([u[0].ravel(), u[-1].ravel(), u[:, 0].ravel(),
                            u[:, -1].ravel(), u[:, :, 0].ravel(), u[:, :, -1].ravel()])
    if not np.all(np.isfinite(u)) or np.any(faces != 0.0):
        out.append(f"{path}: values not finite or nonzero on the boundary")
    if not np.min(u) >= 0.0:
        out.append(f"{path}: negative values")
    if not np.max(u) <= u_max:
        out.append(f"{path}: max {np.max(u)!r} above {u_max!r}")
    return out
