import math

import numpy as np
import pytest

from holelab import (DomainDescriptor, MarkDistribution, ProcessSpec,
                     bad_capacity_sum, build_random_covering, overlap_pairs,
                     partition_configuration, sample_configuration,
                     theoretical_exponents, verify_partition, verify_random_covering)
from holelab.experiments import DEFAULT_SEED, lattice_spec
from holelab.index import SpatialIndex
from holelab.process import MarkedConfiguration


def make_spec(process="lattice", epsilon=0.1, marks=None, lam=1.0, seed=0, half=1.0):
    return ProcessSpec(d=3, epsilon=epsilon, process=process,
                       marks=marks or MarkDistribution.constant(1.0),
                       domain=DomainDescriptor("axis_cube", half),
                       intensity=lam if process == "poisson" else None,
                       master_seed=seed)


def synthetic(spec, points, rho):
    return MarkedConfiguration(spec, 0, np.asarray(rho, dtype=float),
                               points=np.asarray(points, dtype=float))


# ----------------------------------------------------------------------
# brute-force oracle: the set definitions, written out literally
# ----------------------------------------------------------------------

def oracle_partition(config, delta):
    eps = config.spec.epsilon
    d = config.spec.d
    n = len(config)
    a = eps ** (d / (d - 2)) * config.rho
    trunc = np.minimum(a, 1.0)
    r = np.empty(n)
    for i in range(n):
        diff = np.max(np.abs(config.points - config.points[i]), axis=1)
        diff[i] = np.inf
        r[i] = eps / 4 * min(diff.min(), 1.0)
    centers = eps * config.points
    mask_j = a >= eps ** (1 + delta)
    if config.is_lattice:
        mask_k = np.zeros(n, bool)
        mask_c = np.zeros(n, bool)
        own = np.full(n, eps / 4)
    else:
        mask_k = ~mask_j & (r <= eps ** 2)
        mask_c = ~mask_j & ~mask_k & (2 * math.sqrt(d) * a >= r)
        own = r
    core = mask_j | mask_k | mask_c
    mask_i = np.zeros(n, bool)
    for i in range(n):
        if core[i]:
            continue
        for w in np.flatnonzero(core):
            if np.linalg.norm(centers[i] - centers[w]) <= own[i] + 2 * trunc[w]:
                mask_i[i] = True
                break
    return mask_j, mask_k, mask_c, mask_i


def classes_of(partition, n):
    out = np.zeros(n, dtype="U1")
    out[partition.good] = "g"
    out[partition.bad_J] = "J"
    out[partition.bad_K] = "K"
    out[partition.bad_C] = "C"
    out[partition.bad_I_tilde] = "I"
    return out


def oracle_classes(masks, n):
    mj, mk, mc, mi = masks
    out = np.full(n, "g", dtype="U1")
    out[mi] = "I"
    out[mc] = "C"
    out[mk] = "K"
    out[mj] = "J"
    return out


# ----------------------------------------------------------------------

def test_unit_marks_all_good():
    config = sample_configuration(make_spec(epsilon=0.1), 0)
    part = partition_configuration(config, 0.8)
    assert part.good.size == len(config)
    assert part.bad.size == 0
    assert bad_capacity_sum(config, part) == 0.0


def test_threshold_mark_is_bad():
    eps, delta = 0.1, 0.8
    spec = make_spec(epsilon=eps)
    config = sample_configuration(spec, 0)
    config.rho = config.rho.copy()
    config.rho[10] = eps ** (-2.0 + delta)      # hole radius exactly eps^(1+delta)
    part = partition_configuration(config, delta)
    assert 10 in part.bad_J


def test_epsilon_threshold_refused():
    config = sample_configuration(make_spec(epsilon=0.25), 0)
    with pytest.raises(ValueError, match="too large"):
        partition_configuration(config, 0.8)


def test_close_poisson_pair_in_bad_K():
    eps = 0.1
    spec = make_spec("poisson", epsilon=eps)
    config = synthetic(spec, [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [5.0, 5.0, 5.0]],
                       [0.1, 0.1, 0.1])
    part = partition_configuration(config, 0.8)
    # rescaled distance 0.3 < 4 eps = 0.4, so R <= eps^2 for both
    assert {0, 1} <= set(part.bad_K)
    assert 2 in part.good


def test_single_bad_mark_capacity_sum():
    eps = 0.1
    spec = make_spec(epsilon=eps)
    config = sample_configuration(spec, 0)
    config.rho = config.rho.copy()
    # just above the size threshold: bad on its own, too small to contaminate
    config.rho[0] = 2.0 * eps ** (-1.2)
    part = partition_configuration(config, 0.8)
    assert part.bad_J.size == 1 and part.bad_I_tilde.size == 0
    assert bad_capacity_sum(config, part) == pytest.approx(eps ** 3 * config.rho[0])
    # sum formula on a hand-built single-bad partition: eps^3 * rho = 0.002
    part.bad_J = np.array([0])
    config.rho[0] = 2.0
    assert bad_capacity_sum(config, part) == pytest.approx(2e-3)


@pytest.mark.parametrize("process", ["lattice", "poisson"])
def test_partition_matches_bruteforce_oracle(process):
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    mismatches = 0
    for seed in range(100):
        spec = make_spec(process, epsilon=0.125, marks=marks, seed=seed, half=0.5)
        config = sample_configuration(spec, seed)
        if len(config) < 2:
            continue
        part = partition_configuration(config, 0.8)
        got = classes_of(part, len(config))
        want = oracle_classes(oracle_partition(config, 0.8), len(config))
        mismatches += int(np.any(got != want))
    assert mismatches == 0


@pytest.mark.parametrize("process", ["lattice", "poisson"])
def test_partition_invariants_hold(process):
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    for seed in range(20):
        spec = make_spec(process, epsilon=0.125, marks=marks, seed=seed, half=0.5)
        config = sample_configuration(spec, seed)
        part = partition_configuration(config, 0.8)
        report = verify_partition(config, part)
        assert report.ok, [c for c in report.checks if not c.passed]


def test_verify_detects_misclassified_point():
    eps, delta = 0.1, 0.8
    spec = make_spec(epsilon=eps)
    config = sample_configuration(spec, 0)
    config.rho = config.rho.copy()
    config.rho[40] = eps ** (-2.0) * 2.0
    part = partition_configuration(config, delta)
    # move a contaminated neighbour from bad to good by hand
    assert part.bad_I_tilde.size > 0
    moved = part.bad_I_tilde[0]
    part.bad_I_tilde = part.bad_I_tilde[1:]
    assert moved in part.good
    report = verify_partition(config, part)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert "good_avoids_bad_region" in failed


def test_verify_detects_a_point_labelled_twice():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    config = sample_configuration(make_spec(epsilon=1 / 8, marks=marks, half=0.5), 0)
    part = partition_configuration(config, 0.8)
    assert len(config) == 729 and part.bad_J.size > 0
    part.bad_I_tilde = np.append(part.bad_I_tilde, part.bad_J[0])
    check = verify_partition(config, part).checks[0]
    assert (check.name, check.passed, check.detail) == (
        "disjoint_cover", False, "730 labels for 729 points")


def loop_good_avoids_bad_region(config, part):
    """One safety ball at a time against every good point (reference)."""
    eps = config.spec.epsilon
    own = (np.full(len(config), eps / 4.0) if config.is_lattice
           else config.minimal_distances())
    good, centers = part.good, config.centers()
    for w, bad in enumerate(part.safety_index):
        if good.size == 0:
            break
        diff = centers[good] - centers[bad]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        hit = dist < own[good] + part.safety_radii[w] - 1e-12
        if np.any(hit):
            return False, f"good point {good[np.argmax(hit)]} touches safety ball {w}"
    return True, ""


def good_avoids_bad_region(config, part):
    check, = [c for c in verify_partition(config, part).checks
              if c.name == "good_avoids_bad_region"]
    return check.passed, check.detail


def relabel_good(part, moved, drop_their_balls):
    """Take bad points out of their classes, which makes them good;
    optionally drop their own safety balls, so that only balls around
    other bad points can be touched."""
    if drop_their_balls:
        keep = ~np.isin(part.safety_index, moved)
        part.safety_index = part.safety_index[keep]
        part.safety_radii = part.safety_radii[keep]
    for name in ("bad_J", "bad_K", "bad_C", "bad_I_tilde"):
        setattr(part, name, np.setdiff1d(getattr(part, name), moved))
    assert np.isin(moved, part.good).all()


@pytest.mark.parametrize("eps", [1 / 12, 1 / 16])
def test_batched_safety_query_matches_loop_poisson(eps):
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    planted_failures = 0
    for seed in range(10):
        config = sample_configuration(make_spec("poisson", eps, marks, seed=seed, half=0.5), 0)
        part = partition_configuration(config, 0.8)
        want = loop_good_avoids_bad_region(config, part)
        assert want[0]
        assert good_avoids_bad_region(config, part) == want
        # a relabelled point touches its own safety ball; without it, a
        # contagion point still touches the ball of a core bad point
        drop = seed % 2 == 1
        pool = part.bad_I_tilde if drop and part.bad_I_tilde.size else part.bad
        rng = np.random.default_rng(seed)
        moved = rng.choice(pool, size=min(1 + seed % 4, pool.size), replace=False)
        relabel_good(part, moved, drop_their_balls=drop)
        want = loop_good_avoids_bad_region(config, part)
        planted_failures += not want[0]
        assert good_avoids_bad_region(config, part) == want
    assert planted_failures >= 6


def test_batched_safety_query_edge_cases():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    # lattice: J holes and their contagion, plain and with the contagion
    # points relabelled good, so that several good points touch one J ball;
    # the lowest of them is named
    config = sample_configuration(make_spec(epsilon=0.125, marks=marks, half=0.5), 0)
    part = partition_configuration(config, 0.8)
    contagion = part.bad_I_tilde
    assert part.bad_J.size and contagion.size > 1
    assert good_avoids_bad_region(config, part) == loop_good_avoids_bad_region(config, part)
    relabel_good(part, contagion, drop_their_balls=True)
    want = loop_good_avoids_bad_region(config, part)
    assert want == (False, f"good point {contagion[0]} touches safety ball 0")
    assert good_avoids_bad_region(config, part) == want
    # no good points
    part.bad_I_tilde = np.setdiff1d(np.arange(len(config)), part.bad)
    assert part.good.size == 0
    assert good_avoids_bad_region(config, part) == (True, "")
    # no bad points
    config = sample_configuration(make_spec(epsilon=0.125, half=0.5), 0)
    part = partition_configuration(config, 0.8)
    assert part.safety_radii.size == 0
    assert good_avoids_bad_region(config, part) == (True, "")


def test_contagion_monotone_under_mark_bump():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = make_spec(epsilon=0.125, marks=marks, seed=7, half=0.5)
    config = sample_configuration(spec, 0)
    part0 = partition_configuration(config, 0.8)
    good0 = set(part0.good)
    rng = np.random.default_rng(0)
    for i in rng.integers(0, len(config), size=5):
        bumped = sample_configuration(spec, 0)
        bumped.rho = bumped.rho.copy()
        bumped.rho[i] *= 50.0
        part1 = partition_configuration(bumped, 0.8)
        # no point other than i may move from bad to good
        gained = set(part1.good) - good0 - {int(i)}
        assert not gained


def test_safety_region_stays_near_domain():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = make_spec(epsilon=0.125, marks=marks, seed=3)
    config = sample_configuration(spec, 5)
    part = partition_configuration(config, 0.8)
    if part.safety_radii.size:
        # centres lie in the domain and radii are truncated at 2
        assert np.all(np.abs(config.centers(part.safety_index)) <= 1.0 + 1e-12)
        assert np.all(part.safety_radii <= 2.0 + 1e-12)


# ----------------------------------------------------------------------
# overlap pairs
# ----------------------------------------------------------------------

def test_overlap_zero_for_unit_marks():
    config = sample_configuration(make_spec(epsilon=0.1), 0)
    assert overlap_pairs(config) == 0


def test_overlap_coincident_points():
    spec = make_spec("poisson", epsilon=0.1)
    config = synthetic(spec, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], [0.5, 0.5])
    assert overlap_pairs(config) == 1


def test_overlap_matches_bruteforce():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    for seed in range(30):
        spec = make_spec("poisson", epsilon=0.125, marks=marks, seed=seed, half=0.5)
        config = sample_configuration(spec, seed)
        n = len(config)
        if n < 2:
            continue
        a = np.minimum(config.spec.hole_scale * config.rho, 1.0)
        centers = config.centers()
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                if np.linalg.norm(centers[i] - centers[j]) < a[i] + a[j]:
                    count += 1
        assert overlap_pairs(config) == count


# ----------------------------------------------------------------------
# unit-ball domain
# ----------------------------------------------------------------------

def ball_spec(process, epsilon, seed=0):
    return ProcessSpec(d=3, epsilon=epsilon, process=process,
                       marks=MarkDistribution.pareto_for_beta(3, 0.5),
                       domain=DomainDescriptor("unit_ball"),
                       intensity=1.0 if process == "poisson" else None,
                       master_seed=seed)


def test_unit_ball_lattice_sites_distances_and_partition():
    eps = 1 / 8
    config = sample_configuration(ball_spec("lattice", eps), 0)
    m = 8
    want = sum(1 for x in range(-m, m + 1) for y in range(-m, m + 1)
               for z in range(-m, m + 1) if x * x + y * y + z * z <= m * m)
    assert len(config) == want
    # distinct lattice sites are at least one apart, so the capped distance
    # is one at every site, on the ball as on the cube
    assert np.all(config.minimal_distances() == eps / 4)
    part = partition_configuration(config, 0.8)
    assert verify_partition(config, part).ok
    assert config._index is None


def test_unit_ball_poisson_partition_and_covering():
    config = sample_configuration(ball_spec("poisson", 1 / 16, seed=2), 0)
    assert np.all(np.einsum("ij,ij->i", config.centers(), config.centers()) <= 1.0)
    part = partition_configuration(config, 0.8)
    report = verify_partition(config, part)
    assert report.ok, [c.detail for c in report.checks if not c.passed]
    cov = build_random_covering(config, 3, 0.8)
    report = verify_random_covering(cov)
    assert report.ok, report.detail


# ----------------------------------------------------------------------
# lattice neighbours from integer offsets, against the k-d tree path
# ----------------------------------------------------------------------

def tree_neighbours(config, idx, reach):
    """The k-d tree query, kept here as the reference for integer offsets."""
    return SpatialIndex(config.points).query(config.points[idx], reach)


def lattice_spec_for(shape, eps, marks=None, seed=0):
    domain = DomainDescriptor("unit_ball") if shape == "unit_ball" else DomainDescriptor()
    return ProcessSpec(d=3, epsilon=eps, process="lattice",
                       marks=marks or MarkDistribution.pareto_for_beta(3, 0.5),
                       domain=domain, master_seed=seed)


def pair_set(c, j):
    pairs = set(zip(c.tolist(), j.tolist()))
    assert len(pairs) == c.size          # no pair is reported twice
    return pairs


@pytest.mark.parametrize("shape", ["axis_cube", "unit_ball"])
@pytest.mark.parametrize("eps", [1 / 8, 1 / 16], ids=["1/8", "1/16"])
def test_lattice_neighbours_match_tree(shape, eps):
    config = sample_configuration(lattice_spec_for(shape, eps), 0)
    coords = config.points.astype(np.int64)
    m = int(round(1 / eps))
    extent = np.abs(coords).max(axis=1)
    corners = np.flatnonzero(np.all(np.abs(coords) == np.abs(coords).max(), axis=1))
    rng = np.random.default_rng(1)
    faces = np.flatnonzero(extent == m)          # six poles on the ball
    faces = rng.choice(faces, min(8, faces.size), replace=False)
    centres = np.unique(np.concatenate([
        corners, faces, [np.flatnonzero(extent == 0)[0], 0, len(config) - 1],
        rng.integers(0, len(config), 12)]))
    reaches = [0.0, 1.0, 2.0, 3.0, 1.0 + 1e-12, 2.0 + 1e-12, 0.25, 0.999,
               2.5, 3.0 * m]                                   # the last is clipped
    idx = np.repeat(centres, len(reaches))
    reach = np.tile(reaches, centres.size)
    got = pair_set(*config.neighbours(idx, reach))
    assert config._index is None
    assert got == pair_set(*tree_neighbours(config, idx, reach))
    # a reach wider than the domain returns every site
    wide = idx[reach == 3.0 * m]
    c, _ = config.neighbours(wide, np.full(wide.size, 3.0 * m))
    assert np.array_equal(np.bincount(c), np.full(wide.size, len(config)))
    c, j = config.neighbours(np.empty(0, dtype=np.int64), np.empty(0))
    assert c.size == j.size == 0


@pytest.mark.parametrize("shape", ["axis_cube", "unit_ball"])
@pytest.mark.parametrize("eps", [1 / 8, 1 / 16], ids=["1/8", "1/16"])
def test_lattice_site_keys_are_row_major(shape, eps):
    # neighbours() searches these keys, which the sampler hands over
    config = sample_configuration(lattice_spec_for(shape, eps), 0)
    m = int(round(1 / eps))
    want = np.ravel_multi_index(tuple((config.points.astype(np.int64) + m).T), (2 * m + 1,) * 3)
    assert np.array_equal(config.site_keys, want)
    assert np.all(np.diff(config.site_keys) > 0)


def lattice_results(config, delta):
    part = partition_configuration(config, delta)
    return (classes_of(part, len(config)), part.safety_index, part.safety_radii,
            bad_capacity_sum(config, part), overlap_pairs(config))


def assert_results_match_tree(config, delta, monkeypatch):
    got = lattice_results(config, delta)
    assert config._index is None
    with monkeypatch.context() as mp:
        mp.setattr(MarkedConfiguration, "neighbours", tree_neighbours)
        want = lattice_results(config, delta)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert np.asarray(g).dtype == np.asarray(w).dtype
    return got


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_lattice_partition_and_overlaps_match_tree(beta, monkeypatch):
    # the geometry of criteria 5, 6 and 10: unit cube, Pareto marks, the
    # default seed at eps = 1/8 ... 1/64 and further replicates coarse
    marks = MarkDistribution.pareto_for_beta(3, beta)
    deltas = sorted({0.8, theoretical_exponents(3, beta, marks).delta})
    runs = [(eps, 0) for eps in (1 / 8, 1 / 12, 1 / 16, 1 / 24, 1 / 32, 1 / 48, 1 / 64)]
    runs += [(eps, rep) for eps in (1 / 8, 1 / 16) for rep in range(1, 13)]
    contagion = overlaps = 0
    for eps, rep in runs:
        config = sample_configuration(lattice_spec(marks, eps, seed=DEFAULT_SEED), rep)
        for delta in deltas:
            classes, *_, overlap = assert_results_match_tree(config, delta, monkeypatch)
            contagion += int(np.any(classes == "I"))
            overlaps += int(overlap > 0)
    if beta == 0.5:
        assert contagion > 0 and overlaps > 0


@pytest.mark.parametrize("where", ["centre", "corner"])
def test_planted_giant_hole_matches_tree(where, monkeypatch):
    eps = 1 / 16
    config = sample_configuration(lattice_spec_for("axis_cube", eps, seed=3), 0)
    coords = config.points.astype(np.int64)
    site = np.flatnonzero(np.all(coords == (0 if where == "centre" else -16), axis=1))
    config.rho = config.rho.copy()
    config.rho[site] = 2.0 / config.spec.hole_scale       # truncated radius 1
    classes, *_ = assert_results_match_tree(config, 0.8, monkeypatch)
    assert classes[site[0]] == "J" and np.count_nonzero(classes == "I") > 0
    # the candidates of a centre are exactly its box clipped to the cube
    reach = 0.25 + 2.0 / eps + 1e-12
    c, _ = config.neighbours(site, np.array([reach]))
    r = math.floor(reach)
    box = np.prod(np.minimum(coords[site] + r, 16) - np.maximum(coords[site] - r, -16) + 1)
    assert c.size == box


# ----------------------------------------------------------------------
# pair searches from the holes that can pair, against whole-configuration
# pair scans
# ----------------------------------------------------------------------

def scan_overlap_pairs(config):
    """Overlap pairs from a scan of all close pairs plus range queries around
    the holes of rescaled radius above 1/4 (reference)."""
    eps = config.spec.epsilon
    if len(config) < 2:
        return 0
    a = config.hole_radii(truncate=True)
    rescaled = a / eps
    big, small = np.flatnonzero(rescaled > 0.25), rescaled <= 0.25
    index = SpatialIndex(config.points)
    count = 0
    if not config.is_lattice:      # lattice points are at least one apart
        i, j = index.close_pairs(0.5)
        keep = small[i] & small[j]
        i, j = i[keep], j[keep]
        diff = config.rescaled(i) - config.rescaled(j)
        dist = eps * np.sqrt(np.einsum("ij,ij->i", diff, diff))
        count += int(np.count_nonzero(dist < a[i] + a[j]))
    if big.size == 0:
        return count
    c, k = index.query(config.points[big], rescaled[big] + rescaled.max() + 1e-12)
    b = big[c]
    keep = k != b
    b, k = b[keep], k[keep]
    diff = config.rescaled(k) - config.rescaled(b)
    dist = eps * np.sqrt(np.einsum("ij,ij->i", diff, diff))
    hit = dist < a[b] + a[k]
    pairs = np.stack([np.minimum(b[hit], k[hit]), np.maximum(b[hit], k[hit])], axis=1)
    return count + np.unique(pairs, axis=0).shape[0]


def scan_good_holes_disjoint(config, part):
    """The good-hole disjointness check from a scan of all pairs within twice
    the largest good radius, naming the lowest overlapping pair (reference)."""
    good = part.good
    if good.size < 2:
        return True, ""
    trunc = np.minimum(config.hole_radii(), 1.0)
    reach = 2.0 * float(trunc[good].max()) / config.spec.epsilon
    i, j = SpatialIndex(config.points).close_pairs(max(reach, 1e-9))
    keep = np.isin(i, good) & np.isin(j, good)
    i, j = i[keep], j[keep]
    diff = config.centers(i) - config.centers(j)
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    overlap = dist < trunc[i] + trunc[j] - 1e-12
    if not np.any(overlap):
        return True, ""
    lo, hi = min(zip(i[overlap].tolist(), j[overlap].tolist()))
    return False, f"good holes {lo} and {hi} overlap"


def assert_pair_searches_match_scans(config, part):
    """Same overlap count and the same verify_partition checks, flags and
    details; returns whether the good holes are disjoint."""
    checks = {c.name: (c.passed, c.detail) for c in verify_partition(config, part).checks}
    want = scan_good_holes_disjoint(config, part)
    assert checks["good_holes_disjoint"] == want
    assert overlap_pairs(config) == scan_overlap_pairs(config)
    names = ["disjoint_cover", "good_hole_size", "good_avoids_bad_region",
             "bad_region_near_domain", "good_holes_disjoint"]
    if not config.is_lattice:
        names[2:2] = ["good_min_distance", "good_separation"]
    assert list(checks) == names
    return want[0]


def plant_overlapping_holes(config, seed):
    """A hole of radius 1.1 eps (small enough for the scans), and two equal
    holes around a point and its nearest neighbour that just meet, which only
    a query of the full reach from a point of the pair can find."""
    eps, n = config.spec.epsilon, len(config)
    centers = config.centers()
    p = n // (seed + 3)
    dist = np.linalg.norm(centers - centers[p], axis=1)
    dist[p] = np.inf
    q = int(np.argmin(dist))
    config.rho = config.rho.copy()
    config.rho[[p, q]] = 0.5 * dist[q] * (1.0 + 1e-6) / config.spec.hole_scale
    config.rho[n // (seed + 2)] = 1.1 * eps / config.spec.hole_scale


@pytest.mark.parametrize("process", ["lattice", "poisson"])
@pytest.mark.parametrize("shape", ["axis_cube", "unit_ball"])
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_pair_searches_match_whole_configuration_scans(process, shape, beta):
    marks = MarkDistribution.pareto_for_beta(3, beta)
    delta = 0.8 if beta == 0.5 else 1.4
    planted = overlapping = 0
    for eps in (1 / 8, 1 / 12, 1 / 16):
        for seed in range(4):
            spec = ProcessSpec(d=3, epsilon=eps, process=process, marks=marks,
                               domain=DomainDescriptor(shape, 0.5),    # the ball: radius 1
                               intensity=1.0 if process == "poisson" else None,
                               master_seed=seed)
            config = sample_configuration(spec, 0)
            for bumped in (False, True):
                if bumped:
                    plant_overlapping_holes(config, seed)
                part = partition_configuration(config, delta)
                assert assert_pair_searches_match_scans(config, part)
                overlapping += overlap_pairs(config) > 0
                # planted: every other bad point relabelled good, one twice
                if part.bad.size:
                    moved = part.bad[::2]
                    relabel_good(part, np.append(moved, moved[0]), drop_their_balls=False)
                    planted += not assert_pair_searches_match_scans(config, part)
    assert planted >= 6 and overlapping >= 12


@pytest.mark.parametrize("process", ["lattice", "poisson"])
def test_pair_searches_scan_no_pairs(process, monkeypatch):
    monkeypatch.setattr(SpatialIndex, "close_pairs",
                        lambda *a, **k: pytest.fail("whole-configuration pair scan"))
    spec = make_spec(process, epsilon=1 / 8, seed=1,
                     marks=MarkDistribution.pareto_for_beta(3, 0.5))
    config = sample_configuration(spec, 0)
    config.rho = config.rho.copy()
    config.rho[len(config) // 2] = 2.0 / spec.hole_scale      # truncated radius 1
    assert overlap_pairs(config) > 0
    part = partition_configuration(config, 0.8)
    assert verify_partition(config, part).ok
    relabel_good(part, part.bad, drop_their_balls=False)
    failed = {c.name for c in verify_partition(config, part).checks if not c.passed}
    assert "good_holes_disjoint" in failed
    if process == "lattice":
        assert config._index is None
