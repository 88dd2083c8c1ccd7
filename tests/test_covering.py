import itertools
import math
import re

import numpy as np
import pytest

from holelab import (DomainDescriptor, MarkDistribution, MarkedConfiguration, ProcessSpec,
                     build_cube_covering, build_random_covering,
                     mesoscale_parameters, sample_configuration,
                     verify_random_covering)
from holelab.covering import trimmed_min_distances, volume_bounds
from holelab.experiments import DEFAULT_SEED, poisson_spec
from holelab.index import SpatialIndex


def spec_for(process="lattice", eps=0.125, marks=None, half=1.0, lam=1.0, seed=0):
    return ProcessSpec(d=3, epsilon=eps, process=process,
                       marks=marks or MarkDistribution.constant(1.0),
                       domain=DomainDescriptor("axis_cube", half),
                       intensity=lam if process == "poisson" else None,
                       master_seed=seed)


# ----------------------------------------------------------------------
# mesoscale parameters
# ----------------------------------------------------------------------

def test_mesoscale_values():
    k, kappa = mesoscale_parameters(3, 0.01)
    assert k == 6 and kappa == pytest.approx(0.2)
    k4, kappa4 = mesoscale_parameters(4, 0.01)
    assert k4 == 4 and kappa4 == pytest.approx(2.0 / 18.0)


def test_mesoscale_refuses_invalid_epsilon():
    with pytest.raises(ValueError):
        mesoscale_parameters(3, 1.5)
    with pytest.raises(ValueError):
        mesoscale_parameters(2, 0.1)


# ----------------------------------------------------------------------
# deterministic covering
# ----------------------------------------------------------------------

def test_cube_covering_enumeration():
    config = sample_configuration(spec_for(eps=0.125), 0)
    cov = build_cube_covering(config, 4)
    assert cov.n_cells == 64
    assert int(np.count_nonzero(cov.interior)) == 8
    # direct enumeration oracle: tiles of side 1/2 covering [-1, 1]^3
    want = set()
    for mx in range(-2, 2):
        for my in range(-2, 2):
            for mz in range(-2, 2):
                want.add((mx, my, mz))
    got = {tuple(m) for m in ((cov.anchors - 2) // 4)}
    assert got == want


def test_every_point_in_exactly_one_cell():
    config = sample_configuration(spec_for(eps=0.125), 0)
    cov = build_cube_covering(config, 4)
    assert cov.point_cell.shape == (len(config),)
    assert np.all(cov.point_cell >= 0) and np.all(cov.point_cell < cov.n_cells)
    counts = np.bincount(cov.point_cell, minlength=cov.n_cells)
    assert counts.sum() == len(config)
    # interior tiles of an even-k covering hold exactly k^3 lattice sites
    assert np.all(counts[cov.interior] == 4 ** 3)
    # geometric membership including the tie-break
    centers = config.centers()
    for i in range(0, len(config), 997):
        c = cov.point_cell[i]
        assert np.all(centers[i] >= cov.lo[c] - 1e-12)
        assert np.all(centers[i] <= cov.hi[c] + 1e-12)


@pytest.mark.parametrize("domain", [DomainDescriptor("axis_cube", 1.0),
                                    DomainDescriptor("axis_cube", 0.5),
                                    DomainDescriptor("unit_ball")],
                         ids=["cube1", "cube0.5", "unit_ball"])
@pytest.mark.parametrize("eps", [1 / 8, 1 / 16, 1 / 48], ids=["1/8", "1/16", "1/48"])
def test_lattice_cells_per_axis_match_cell_of_points(domain, eps):
    # the per-axis lattice index keeps the face tie-break and the clip of
    # cell_of_points; lattice sites sit on faces at every even k
    spec = ProcessSpec(d=3, epsilon=eps, process="lattice",
                       marks=MarkDistribution.constant(1.0), domain=domain)
    config = sample_configuration(spec, 0)
    ks = [k for k in (2, 3, 4, 8, 16) if k * eps <= domain.radius]
    assert ks
    for k in ks:
        cov = build_cube_covering(config, k)
        assert np.array_equal(cov.point_cell, cov.cell_of_points(config.centers()))


def test_k1_one_point_per_cell():
    config = sample_configuration(spec_for(eps=0.25), 0)
    cov = build_cube_covering(config, 1)
    counts = np.bincount(cov.point_cell, minlength=cov.n_cells)
    assert counts.max() == 1


def test_cell_size_refused():
    config = sample_configuration(spec_for(eps=0.25), 0)
    with pytest.raises(ValueError):
        build_cube_covering(config, 10)


def test_boundary_cell_scaling():
    # #boundary cells should scale like (k eps)^-(d-1)
    config8 = sample_configuration(spec_for(eps=1 / 8), 0)
    config16 = sample_configuration(spec_for(eps=1 / 16), 0)
    counts = []
    for config, k in ((config8, 2), (config16, 2)):
        cov = build_cube_covering(config, k)
        counts.append(int(np.count_nonzero(cov.meets_domain & ~cov.interior)))
    ratio = counts[1] / counts[0]
    assert 2.0 ** 2 * 0.6 <= ratio <= 2.0 ** 2 * 1.7


def scalar_inner_margin(domain, lo, hi, margin):
    """One box at a time (reference for the array predicate)."""
    if domain.shape == "axis_cube":
        return bool(np.max(np.maximum(np.abs(lo), np.abs(hi))) <= domain.half_width - margin)
    corner = np.maximum(np.abs(lo), np.abs(hi))
    return bool(np.sqrt(np.sum(corner ** 2)) <= 1.0 - margin)


def scalar_box_intersects(domain, lo, hi):
    """One box at a time (reference for the array predicate)."""
    if domain.shape == "axis_cube":
        return bool(np.all(lo < domain.half_width) and np.all(hi > -domain.half_width))
    nearest = np.clip(0.0, lo, hi)
    return bool(np.sum(nearest ** 2) < 1.0)


@pytest.mark.parametrize("domain,eps,ks", [
    (DomainDescriptor("axis_cube", 1.0), 1 / 8, (2, 3, 4)),     # faces on the boundary
    (DomainDescriptor("axis_cube", 0.45), 1 / 16, (2, 3)),      # cells straddle it
    (DomainDescriptor("unit_ball"), 1 / 16, (2, 3, 4)),
])
def test_array_domain_predicates_match_scalar_calls(domain, eps, ks):
    spec = ProcessSpec(d=3, epsilon=eps, process="poisson",
                       marks=MarkDistribution.constant(1.0), domain=domain,
                       intensity=1.0, master_seed=4)
    config = sample_configuration(spec, 0)
    for k in ks:
        cov = build_cube_covering(config, k)
        meets = [scalar_box_intersects(domain, lo, hi) for lo, hi in zip(cov.lo, cov.hi)]
        inner = [scalar_inner_margin(domain, lo, hi, eps) for lo, hi in zip(cov.lo, cov.hi)]
        assert cov.meets_domain.dtype == bool and cov.interior.dtype == bool
        assert np.array_equal(cov.meets_domain, meets)
        assert np.array_equal(cov.interior, inner)
        # interior, boundary and outside cells all occur
        assert np.any(cov.interior) and np.any(cov.meets_domain & ~cov.interior)
        assert np.any(~cov.meets_domain) or domain.shape == "axis_cube"
    # boxes off the tiling, inside, across and outside the boundary
    rng = np.random.default_rng(1)
    lo = rng.uniform(-1.5, 1.5, size=(400, 3))
    hi = lo + rng.uniform(0.0, 0.8, size=(400, 3))
    meets = domain.box_intersects(lo, hi)
    inner = domain.inner_margin(lo, hi, eps)
    assert np.array_equal(meets, [scalar_box_intersects(domain, a, b) for a, b in zip(lo, hi)])
    assert np.array_equal(inner, [scalar_inner_margin(domain, a, b, eps) for a, b in zip(lo, hi)])
    assert np.any(inner) and np.any(meets & ~inner) and np.any(~meets)


# ----------------------------------------------------------------------
# trimmed distances
# ----------------------------------------------------------------------

def test_trimmed_distance_branches():
    eps = 1e-3
    spec = spec_for("poisson", eps=eps, half=0.02)
    config = sample_configuration(spec, 0)
    k, kappa = mesoscale_parameters(3, eps)
    base = eps ** (1 + kappa)
    # synthetic: isolated points at controlled face distances inside one tile
    cov = build_cube_covering(config, k)
    cell = int(np.flatnonzero(cov.interior)[0])
    lo, hi = cov.lo[cell], cov.hi[cell]
    side = cov.cell_size
    pts, wants = [], []
    # deep interior: full distance (cap at eps/4 via the unit-range cap)
    pts.append(lo + side / 2)
    wants.append("full")
    # within eps^(1+kappa) of a face
    pts.append(np.array([lo[0] + 0.5 * base, lo[1] + side / 2, lo[2] + side / 2]))
    wants.append("band")
    # dyadic shell n = 2
    pts.append(np.array([lo[0] + 3.0 * base, lo[1] + side / 2, lo[2] + side / 2]))
    wants.append("shell2")
    config = MarkedConfiguration(spec, 0, np.full(len(pts), 1.0), points=np.array(pts) / eps)
    cov2 = build_cube_covering(config, k)
    r = config.minimal_distances()
    tr = trimmed_min_distances(config, cov2, np.arange(len(pts)), kappa)
    assert tr[0] == pytest.approx(r[0])
    assert tr[1] == pytest.approx(min(base, r[1]))
    assert tr[2] == pytest.approx(min(2.0 * base, r[2]))


def test_trimmed_distance_bruteforce_cases():
    # branch selection matches a direct reimplementation on random points
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = spec_for("poisson", eps=1 / 64, marks=marks, half=0.5, seed=9)
    config = sample_configuration(spec, 0)
    k, kappa = mesoscale_parameters(3, 1 / 64)
    cov = build_cube_covering(config, k)
    idx = np.arange(len(config))
    got = trimmed_min_distances(config, cov, idx, kappa)
    eps = config.spec.epsilon
    base = eps ** (1 + kappa)
    r = config.minimal_distances()
    x = config.centers()
    for i in range(0, len(config), 137):
        c = cov.point_cell[i]
        dist = min(np.min(x[i] - cov.lo[c]), np.min(cov.hi[c] - x[i]))
        if dist >= eps / 2:
            want = r[i]
        elif dist <= base:
            want = min(base, r[i])
        else:
            n = math.ceil(math.log2(dist / base))
            want = min(2.0 ** (n - 1) * base, r[i])
        assert got[i] == pytest.approx(want, rel=1e-12)
    # a one-point call agrees
    assert trimmed_min_distances(config, cov, np.array([5]), kappa)[0] == pytest.approx(got[5])


# ----------------------------------------------------------------------
# randomized covering
# ----------------------------------------------------------------------

def test_random_covering_no_boundary_points_identity():
    # all points deep inside tiles: every cell keeps the plain tile volume
    eps = 1 / 16
    spec = spec_for("poisson", eps=eps, half=0.5)
    config = sample_configuration(spec, 0)
    k, _ = mesoscale_parameters(3, eps)
    cov0 = build_cube_covering(config, k)
    centers = (cov0.lo + cov0.hi) / 2.0
    inside = cov0.meets_domain
    config = MarkedConfiguration(spec, 0, np.full(np.count_nonzero(inside), 1e-4),
                                 points=centers[inside] / eps)
    cov = build_random_covering(config, k, delta=1.0)
    assert np.allclose(cov.volumes, (k * eps) ** 3, rtol=1e-12)


def test_random_covering_volume_conservation_across_face():
    # one point straddling a shared face: total volume is conserved
    eps = 1 / 16
    spec = spec_for("poisson", eps=eps, half=0.5)
    config = sample_configuration(spec, 0)
    k, _ = mesoscale_parameters(3, eps)
    cov0 = build_cube_covering(config, k)
    cell = int(np.flatnonzero(cov0.interior)[0])
    face_x = cov0.hi[cell][0]
    point = np.array([face_x - 1e-5, (cov0.lo[cell][1] + cov0.hi[cell][1]) / 2,
                      (cov0.lo[cell][2] + cov0.hi[cell][2]) / 2])
    config = MarkedConfiguration(spec, 0, np.array([1e-4]), points=point[None, :] / eps)
    cov = build_random_covering(config, k, delta=1.0)
    total = cov.volumes.sum()
    assert total == pytest.approx(cov.base.n_cells * (k * eps) ** 3, rel=1e-12)
    assert cov.volumes.max() > (k * eps) ** 3 > cov.volumes.min()


def test_random_covering_bounds_and_dichotomy():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    for seed in range(10):
        spec = spec_for("poisson", eps=1 / 16, marks=marks, seed=seed)
        config = sample_configuration(spec, seed)
        cov = build_random_covering(config, 3, 0.8)
        report = verify_random_covering(cov)
        assert report.ok, report.detail
        lo_b, hi_b = volume_bounds(3, 1 / 16, cov.kappa, 3)
        live = cov.base.meets_domain
        assert np.all(cov.volumes[live] >= lo_b) and np.all(cov.volumes[live] <= hi_b)


def per_offset_incidences(cov):
    """Incidences and volumes by one pass per tile offset, concatenated in
    offset order (reference), with the count of tiles off the tiling."""
    base, d = cov.base, cov.base.m_lo.size
    s, shift = base.cell_size, base.shift
    m_a = np.floor(cov.cube_lo / s + shift).astype(np.int64)
    span = np.ceil(cov.cube_hi / s + shift).astype(np.int64) - 1 - m_a
    inc_cell, inc_point, inc_overlap, inc_own, outside = [], [], [], [], 0
    for combo in itertools.product(range(2), repeat=d):
        idx = np.flatnonzero(np.all(np.array(combo) <= span, axis=1))
        if idx.size == 0:
            continue
        m = m_a[idx] + combo
        inside = np.all((m >= base.m_lo) & (m < base.m_lo + base.m_count), axis=1)
        outside += int(np.count_nonzero(~inside))
        idx = idx[inside]
        if idx.size == 0:
            continue
        cells = np.ravel_multi_index(tuple((m[inside] - base.m_lo).T), tuple(base.m_count))
        over = np.prod(np.maximum(np.minimum(cov.cube_hi[idx], base.hi[cells])
                                  - np.maximum(cov.cube_lo[idx], base.lo[cells]), 0.0), axis=1)
        inc_cell.append(cells)
        inc_point.append(idx)
        inc_overlap.append(over)
        inc_own.append(cells == cov.cell_of[idx])
    volumes = np.full(base.n_cells, s ** d)
    if not inc_cell:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool), volumes, outside)
    inc_cell, inc_point, inc_overlap, inc_own = map(
        np.concatenate, (inc_cell, inc_point, inc_overlap, inc_own))
    cube_vol = (4.0 * cov.tilde_r) ** d          # side twice the half-side 2 r~
    np.add.at(volumes, inc_cell[inc_own], cube_vol[inc_point[inc_own]] - inc_overlap[inc_own])
    np.subtract.at(volumes, inc_cell[~inc_own], inc_overlap[~inc_own])
    return inc_cell, inc_point, inc_own, volumes, outside


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("domain", [DomainDescriptor("axis_cube", 0.5),
                                    DomainDescriptor("unit_ball")], ids=["cube", "ball"])
def test_one_pass_incidences_match_the_per_offset_loop(domain, k):
    spec = ProcessSpec(d=3, epsilon=1 / 16, process="poisson",
                       marks=MarkDistribution.pareto_for_beta(3, 0.5), domain=domain,
                       intensity=1.0, master_seed=2)
    cov = build_random_covering(sample_configuration(spec, 0), k, 0.8)
    *want, outside = per_offset_incidences(cov)
    for got, ref in zip((cov.inc_cell, cov.inc_point, cov.inc_own, cov.volumes), want):
        assert_bit_equal(got, ref)
    # cubes straddle tile faces; at even k the tiles end on the domain
    # boundary and boundary cubes reach past the tiling
    assert np.any(np.bincount(cov.inc_point) > 1)
    assert outside > 0 or k % 2


def test_one_pass_incidences_of_an_empty_configuration():
    config = MarkedConfiguration(spec_for("poisson", eps=1 / 16, half=0.5), 0, np.empty(0),
                                 points=np.empty((0, 3)))
    cov = build_random_covering(config, 3, delta=1.0)
    *want, outside = per_offset_incidences(cov)
    assert cov.thinned.size == 0 and outside == 0
    for got, ref in zip((cov.inc_cell, cov.inc_point, cov.inc_own, cov.volumes), want):
        assert_bit_equal(got, ref)
    assert np.all(cov.volumes == (3 / 16) ** 3)


def test_volume_error_reports_the_cell_farthest_outside():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    config = sample_configuration(spec_for(eps=1 / 8, marks=marks, seed=1), 0)
    with pytest.raises(RuntimeError, match="volume outside") as err:
        build_random_covering(config, 2, 0.8)
    message = str(err.value)
    volume, lo_b, hi_b = map(float, re.search(r": (\S+) vs \[(\S+), (\S+)\]", message).groups())
    assert not lo_b <= volume <= hi_b, message
    cell = int(re.search(r"cell (\d+) volume", message).group(1))
    assert build_cube_covering(config, 2).meets_domain[cell]


def montecarlo_cell_volume(cov, cell: int, rng: np.random.Generator,
                           samples: int = 20000) -> float:
    """Independent hit-or-miss estimate of one cell volume."""
    base = cov.base
    eps = cov.epsilon
    pad = eps / 2.0
    lo = base.lo[cell] - pad
    hi = base.hi[cell] + pad
    x = rng.uniform(lo, hi, size=(samples, lo.size))
    inside_tile = np.all((x >= base.lo[cell]) & (x < base.hi[cell]), axis=1)
    mask = inside_tile.copy()
    rel = np.flatnonzero(cov.inc_cell == cell)
    for r in rel:
        p = cov.inc_point[r]
        in_cube = np.all((x >= cov.cube_lo[p]) & (x < cov.cube_hi[p]), axis=1)
        if cov.inc_own[r]:
            mask |= in_cube
        else:
            mask &= ~in_cube
    box_vol = float(np.prod(hi - lo))
    return box_vol * float(np.count_nonzero(mask)) / samples


def test_random_covering_montecarlo_volumes():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = spec_for("poisson", eps=1 / 16, marks=marks, seed=1)
    config = sample_configuration(spec, 0)
    cov = build_random_covering(config, 3, 0.8)
    rng = np.random.default_rng(0)
    # aggregate over a sample of cells: 1% agreement
    cells = np.flatnonzero(cov.base.meets_domain)[::97]
    mc = sum(montecarlo_cell_volume(cov, int(c), rng, 60000) for c in cells)
    exact = float(cov.volumes[cells].sum())
    assert abs(mc - exact) / exact < 0.01


def loop_covering_counts(cov):
    """Overlaps among cube pairs within rescaled distance one, and the
    dichotomy cell by cell over own/foreign incidence pairs (reference)."""
    eps = cov.epsilon
    overlap, detail = 0, ""
    centers = (cov.cube_lo + cov.cube_hi) / 2.0
    i, j = SpatialIndex(centers / eps).close_pairs(1.0)
    if i.size:
        gap = (np.minimum(cov.cube_hi[i], cov.cube_hi[j])
               - np.maximum(cov.cube_lo[i], cov.cube_lo[j]))
        bad = np.all(gap > 1e-12, axis=1)
        overlap = int(np.count_nonzero(bad))
        if overlap:
            k0 = int(np.argmax(bad))
            detail = f"cubes of thinned points {i[k0]} and {j[k0]} overlap"
    dichotomy = 0
    order = np.argsort(cov.inc_cell, kind="stable")
    cells_sorted = cov.inc_cell[order]
    bounds = np.flatnonzero(np.diff(cells_sorted)) + 1
    starts = np.concatenate(([0], bounds, [cells_sorted.size]))
    for b in range(starts.size - 1):
        seg = order[starts[b]:starts[b + 1]]
        po = cov.inc_point[seg[cov.inc_own[seg]]]
        pf = cov.inc_point[seg[~cov.inc_own[seg]]]
        gap = (np.minimum(cov.cube_hi[po][:, None, :], cov.cube_hi[pf][None, :, :])
               - np.maximum(cov.cube_lo[po][:, None, :], cov.cube_lo[pf][None, :, :]))
        dichotomy += int(np.count_nonzero(np.all(gap > 1e-12, axis=2)))
    return overlap, dichotomy, detail


def criterion9_covering(replicate):
    spec = poisson_spec(MarkDistribution.pareto_for_beta(3, 0.5), intensity=1.0,
                        epsilon=1 / 16, seed=DEFAULT_SEED)
    return build_random_covering(sample_configuration(spec, replicate), 3, 0.8)


def counts(report):
    return report.overlap_violations, report.dichotomy_violations, report.detail


def test_dichotomy_from_overlap_pairs_matches_cell_loop():
    rng = np.random.default_rng(0)
    for rep in range(10):
        cov = criterion9_covering(rep)
        want = loop_covering_counts(cov)
        assert want == (0, 0, "")
        assert counts(verify_random_covering(cov)) == want
        # shift own cubes onto a foreign cube incident in their cell
        foreign = np.flatnonzero(~cov.inc_own)
        for f in rng.choice(foreign, size=5, replace=False):
            cell, q = cov.inc_cell[f], cov.inc_point[f]
            owners = cov.inc_point[(cov.inc_cell == cell) & cov.inc_own]
            for p in owners[owners != q][:1]:
                cov.cube_lo[p] = cov.cube_lo[q] + 1e-6
                cov.cube_hi[p] = cov.cube_hi[q] + 1e-6
        want = loop_covering_counts(cov)
        assert want[1] > 0
        assert counts(verify_random_covering(cov)) == want


def test_overlap_of_a_cube_inflated_past_half_epsilon():
    cov = criterion9_covering(0)
    eps = cov.epsilon
    p = 0
    x = (cov.cube_lo[p] + cov.cube_hi[p]) / 2.0
    cov.cube_lo[p], cov.cube_hi[p] = x - eps, x + eps
    # every overlap with the inflated cube, by brute force over all cubes
    gap = np.minimum(cov.cube_hi, cov.cube_hi[p]) - np.maximum(cov.cube_lo, cov.cube_lo[p])
    with_p = int(np.count_nonzero(np.all(gap > 1e-12, axis=1))) - 1
    loop_overlap, loop_dichotomy, _ = loop_covering_counts(cov)
    report = verify_random_covering(cov)
    # the cubes of a valid covering do not overlap, so every overlap involves p,
    # and some of them lie beyond rescaled distance one
    assert loop_overlap < with_p
    assert report.overlap_violations == with_p
    assert report.dichotomy_violations == loop_dichotomy


def test_lattice_recovers_deterministic_covering():
    # odd mesoscale on the lattice: no point cube crosses a tile face
    eps = 1 / 16
    config = sample_configuration(spec_for("lattice", eps=eps), 0)
    cov = build_random_covering(config, 3, delta=1.0)
    assert np.allclose(cov.volumes, (3 * eps) ** 3, rtol=1e-12)
