import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import holelab
from holelab import (DomainDescriptor, MarkDistribution, MarkedConfiguration, ProcessSpec,
                     ResourceLimitError, SpatialIndex, mecke_check, sample_configuration,
                     thin_configuration)
from holelab.rng import coordinate_uniforms


def cube_spec(process="lattice", epsilon=0.25, marks=None, half=1.0, lam=None, seed=0, d=3):
    return ProcessSpec(d=d, epsilon=epsilon, process=process,
                       marks=marks or MarkDistribution.constant(1.0),
                       domain=DomainDescriptor("axis_cube", half),
                       intensity=lam, master_seed=seed)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def test_lattice_count_cube():
    config = sample_configuration(cube_spec(epsilon=0.25), 0)
    assert len(config) == 9 ** 3


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.125])
def test_lattice_matches_enumeration(eps):
    config = sample_configuration(cube_spec(epsilon=eps), 0)
    m = int(math.floor(1.0 / eps))
    grid = np.stack(np.meshgrid(*([np.arange(-m, m + 1)] * 3), indexing="ij"),
                    axis=-1).reshape(-1, 3)
    got = set(map(tuple, config.points.astype(int)))
    assert got == set(map(tuple, grid))


def test_poisson_mean_count():
    lam, eps = 1.0, 0.25
    spec = cube_spec("poisson", epsilon=eps, lam=lam)
    counts = [len(sample_configuration(spec, r)) for r in range(10000)]
    mean = lam * 8 / eps ** 3
    z = (np.mean(counts) - mean) / (math.sqrt(mean) / math.sqrt(len(counts)))
    assert abs(z) < 3


def test_pareto_moment_normalization():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    alpha, x = marks.params
    assert alpha == pytest.approx(1.55)
    # closed-form normalisation of the implemented law
    analytic = alpha * x ** 1.5 / (alpha - 1.5)
    assert analytic == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(1)
    draws = marks.quantile(rng.random(10 ** 6))
    # the (d-2)-moment concentrates and must match its closed form
    vals = draws
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(mean - alpha * x / (alpha - 1)) < 3 * se
    # the edge moment is one-sided: it sits at the integrability boundary,
    # so finite samples undershoot the normalised value, never exceed it
    edge = draws ** 1.5
    edge_se = edge.std(ddof=1) / math.sqrt(edge.size)
    assert edge.mean() <= 1.0 + 3 * edge_se


def test_reproducibility_bit_identical():
    spec = cube_spec("poisson", epsilon=0.25, lam=2.0,
                     marks=MarkDistribution.pareto_for_beta(3, 1.0), seed=11)
    a = sample_configuration(spec, 3)
    b = sample_configuration(spec, 3)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.rho, b.rho)
    c = sample_configuration(spec, 4)
    assert not np.array_equal(a.rho, c.rho)


def test_lattice_marks_shared_across_epsilon():
    # the same site carries the same mark on finer grids (shared randomness)
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    c1 = sample_configuration(cube_spec(epsilon=0.25, marks=marks, seed=5), 2)
    c2 = sample_configuration(cube_spec(epsilon=0.125, marks=marks, seed=5), 2)
    site = (3, -2, 1)
    i1 = np.flatnonzero(np.all(c1.points.astype(int) == site, axis=1))[0]
    i2 = np.flatnonzero(np.all(c2.points.astype(int) == site, axis=1))[0]
    assert c1.rho[i1] == c2.rho[i2]


def box_rows(axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("m", [0, 1, 8, 64])
def test_coordinate_uniforms_on_axes_match_rows(d, m):
    axes = [np.arange(-m, m + 1, dtype=np.int64)] * d
    if (2 * m + 1) ** d > 3 * 10 ** 6:
        # the full 4-d box would take 2.2 GB per array; any axis values
        # hash the same, so take a random sub-box that keeps both faces
        rng = np.random.default_rng(m)
        axes = [np.unique(np.concatenate([[-m, m], rng.integers(-m, m + 1, 10)]))
                for _ in range(d)]
    rows = box_rows(axes)
    got = coordinate_uniforms(5, 2, np.ix_(*axes))
    assert got.shape == tuple(a.size for a in axes)
    got = got.ravel()
    want = coordinate_uniforms(5, 2, rows)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # the unit_ball sampler filters the box hash with the sites it keeps
    keep = DomainDescriptor("unit_ball").contains(rows / max(m, 1))
    want = coordinate_uniforms(5, 2, rows[keep])
    assert np.array_equal(got[keep].view(np.uint64), want.view(np.uint64))


def test_coordinate_uniforms_pinned_bits():
    # every seeded lattice result hangs on these values
    u = coordinate_uniforms(5, 2, np.array([[0, 0, 0], [3, -2, 1], [-64, 64, 7]]))
    assert u.view(np.uint64).tolist() == [0x3FE104396D373FDB, 0x3FB7FCFF14FB0590,
                                          0x3FE9CA311F5EBD20]
    u = coordinate_uniforms(0, 0, np.array([[1, 2, 3, 4]]))
    assert u.view(np.uint64).tolist() == [0x3FDA32E38F7882B8]


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_stream_keys_and_uniforms_golden():
    # values of the out-of-place hash; the in-place one must keep every bit
    from holelab.rng import stream_key
    assert [stream_key(s, r) for s, r in [(0, 0), (1, 0), (0, 1), (12345, 7), (2 ** 62, 3)]] == [
        6164779485010557258, 11492999591610902682, 14288588281631457356,
        13890719258124845040, 16731122088856085981]
    seed = np.array(5)
    assert stream_key(seed, 2) == 16495592772954067009
    assert seed == 5 and seed.dtype != np.uint64          # a 0-d seed is not rewritten
    assert hexes(coordinate_uniforms(np.array(3), 1, np.array([[0, 0, 0]]))) == [
        "0x1.ba0cf2931157ap-2"]
    rows = np.array([[0, 0, 0], [1, -2, 3], [-5, 4, 0], [7, 7, 7], [-1, -1, -1]])
    assert hexes(coordinate_uniforms(11, 2, rows)) == [
        "0x1.fe7392fff0610p-3", "0x1.82b10c8cbca28p-4", "0x1.5b0e09f2b3fb2p-2",
        "0x1.68fa004be521fp-1", "0x1.c969e3b9f610cp-2"]
    ax = np.arange(-1, 2)
    cube = coordinate_uniforms(4, 0, np.ix_(ax, ax, ax))
    assert cube.shape == (3, 3, 3)
    assert hexes(cube.ravel()[[0, 5, 13, 26]]) == [
        "0x1.3de7a712a69f4p-2", "0x1.e193a38d42ce8p-1", "0x1.e6f6c2a356478p-2",
        "0x1.6b0ec4d6375dep-2"]
    one = coordinate_uniforms(9, 1, (np.int64(2), np.int64(-3), np.int64(4)))
    assert one.shape == (1,) and hexes(one) == ["0x1.1dfe54e1a0e54p-1"]


@pytest.mark.parametrize("marks, want, at_03", [
    (MarkDistribution.pareto_for_beta(3, 0.5),
     ["0x1.9f114d49730acp-4", "0x1.f3b7a6497ff8fp-4", "0x1.4490a5b7ebcbep-3",
      "0x1.1781cc1154672p+3", "0x1.c3e593a53a470p-4"], "0x1.053b44a8f7cf1p-3"),
    (MarkDistribution.pareto(2.0, 0.3, 3),
     ["0x1.3333333333333p-2", "0x1.62b9586ad0a21p-2", "0x1.b27247aff148fp-2",
      "0x1.2f9422c23c47bp+3", "0x1.481f1396a988bp-2"], "0x1.6f2c9a420071ep-2"),
    (MarkDistribution.pareto(3.0, 0.3, 3),
     ["0x1.3333333333333p-2", "0x1.521e0aab1c063p-2", "0x1.830c391dcefdap-2",
      "0x1.7fffffffffffdp+1", "0x1.40fe6fac91fc7p-2"], "0x1.59fbbcc06efbbp-2"),
    (MarkDistribution.uniform(0.5, 2.0),
     ["0x1.0000000000000p-1", "0x1.c000000000000p-1", "0x1.4000000000000p+0",
      "0x1.ff9db22d0e560p+0", "0x1.5ed097a5ac2a2p-1"], "0x1.e666666666666p-1"),
    (MarkDistribution.constant(1.5), ["0x1.8000000000000p+0"] * 5, "0x1.8000000000000p+0"),
], ids=["pareto-beta0.5", "pareto-alpha2", "pareto-alpha3", "uniform", "constant"])
def test_mark_quantiles_golden(marks, want, at_03):
    u = np.array([0.0, 0.25, 0.5, 0.999, 0.123456789])
    kept = u.copy()
    assert hexes(marks.quantile(u)) == want
    assert np.array_equal(u, kept)                          # the input is not overwritten
    for scalar in (0.3, np.array(0.3)):
        q = marks.quantile(scalar)
        assert np.ndim(q) == 0 and hexes(q) == [at_03]


@pytest.mark.parametrize("shape, n, digest", [
    ("axis_cube", 35937, "738fac796ccb4b8b8437070d963f204ef1c58ca86e5aaf22291646f2272f83b8"),
    ("unit_ball", 17077, "e050a5fc35daefd895dc55623394073bc8290c1898d19b87d0411904911ee7bd"),
])
def test_lattice_marks_golden(shape, n, digest):
    import hashlib
    spec = ProcessSpec(d=3, epsilon=1 / 16, process="lattice",
                       marks=MarkDistribution.pareto_for_beta(3, 0.5),
                       domain=DomainDescriptor(shape, 1.0), master_seed=42)
    config = sample_configuration(spec, 3)
    assert len(config) == n
    assert hashlib.sha256(config.rho.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("domain", ["axis_cube", "unit_ball"])
def test_lattice_marks_hash_their_site(domain):
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = ProcessSpec(d=3, epsilon=1 / 8, process="lattice", marks=marks,
                       domain=DomainDescriptor(domain), master_seed=5)
    config = sample_configuration(spec, 2)
    u = coordinate_uniforms(5, 2, config.points.astype(np.int64))
    assert np.array_equal(config.rho, marks.quantile(u))


@pytest.mark.parametrize("domain", ["axis_cube", "unit_ball"])
def test_lattice_coordinates_derive_from_their_keys(domain):
    eps, m = 1 / 8, 8
    spec = ProcessSpec(d=3, epsilon=eps, process="lattice", marks=MarkDistribution.constant(1.0),
                       domain=DomainDescriptor(domain))
    config = sample_configuration(spec, 0)
    # only keys and marks are held: no (n, d) array after sampling
    assert [name for name, value in vars(config).items() if np.ndim(value) > 1] == []
    grid = np.stack(np.meshgrid(*([np.arange(-m, m + 1)] * 3), indexing="ij"),
                    axis=-1).reshape(-1, 3)
    grid = grid[spec.domain.contains(eps * grid.astype(float))]
    assert config.lattice_coords.dtype == np.int64
    assert np.array_equal(config.lattice_coords, grid)
    assert np.array_equal(config.points, grid.astype(float))
    subset = np.random.default_rng(1).choice(len(config), 40, replace=False)
    for idx in (np.arange(len(config)), subset):
        assert np.array_equal(config.rescaled(idx), grid[idx].astype(float))
        assert np.array_equal(config.centers(idx), eps * grid[idx].astype(float))
    assert np.array_equal(config.centers(), eps * grid.astype(float))
    with pytest.raises(AttributeError):
        config.points = grid.astype(float)


def test_memory_cap_refuses():
    spec = cube_spec(epsilon=0.001)
    with pytest.raises(ResourceLimitError):
        sample_configuration(spec, 0, max_points=10 ** 6)


def test_spec_json_roundtrip():
    spec = cube_spec("poisson", epsilon=0.1, lam=1.5,
                     marks=MarkDistribution.pareto_for_beta(3, 2.0), seed=9)
    back = ProcessSpec.from_json(spec.to_json())
    assert back == spec


# ----------------------------------------------------------------------
# minimal distance and thinning
# ----------------------------------------------------------------------

def test_minimal_distance_lattice():
    config = sample_configuration(cube_spec(epsilon=0.1), 0)
    for i in (0, 17, len(config) - 1):
        assert config.minimal_distances()[i] == pytest.approx(0.1 / 4)


@pytest.mark.parametrize("domain, eps", [
    (DomainDescriptor("unit_ball"), 1 / 8),
    (DomainDescriptor("unit_ball"), 1 / 16),
    (DomainDescriptor("axis_cube", 0.5), 1 / 8),
    (DomainDescriptor("axis_cube", 0.05), 1 / 8),      # one site
], ids=["ball-1/8", "ball-1/16", "cube-0.5", "one-site"])
def test_lattice_minimal_distances_need_no_tree(domain, eps):
    spec = ProcessSpec(d=3, epsilon=eps, process="lattice",
                       marks=MarkDistribution.constant(1.0), domain=domain)
    config = sample_configuration(spec, 0)
    got = config.minimal_distances()
    assert config._index is None
    want = (eps / 4.0) * SpatialIndex(config.points).nearest_neighbor_distances(cap=1.0)
    assert np.array_equal(got, want)
    assert len(config) > 1 or domain.half_width < eps


def test_lattice_minimal_distances_allocate_nothing_per_site():
    import tracemalloc
    config = sample_configuration(cube_spec(epsilon=1 / 32), 0)
    tracemalloc.start()
    try:
        got = config.minimal_distances()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (len(config),) and np.all(got == (1 / 32) / 4)
    assert peak < 8 * len(config) / 100
    assert got.strides == (0,) and not got.flags.writeable


def test_minimal_distance_pair_and_cap():
    spec = cube_spec("poisson", epsilon=0.1, lam=1.0)
    # two points at rescaled distance 0.5 along an axis
    config = MarkedConfiguration(spec, 0, np.ones(2),
                                 points=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
    assert config.minimal_distances()[0] == pytest.approx(0.1 / 4 * 0.5)
    # far pair: the cap at one is active
    config = MarkedConfiguration(spec, 0, np.ones(2),
                                 points=np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    assert config.minimal_distances()[0] == pytest.approx(0.1 / 4)


def test_minimal_distance_single_point():
    spec = cube_spec("poisson", epsilon=0.1, lam=1.0)
    config = MarkedConfiguration(spec, 0, np.ones(1), points=np.zeros((1, 3)))
    assert config.minimal_distances()[0] == pytest.approx(0.1 / 4)


def test_thinning_keeps_all_small_unit_marks():
    config = sample_configuration(cube_spec(epsilon=0.1), 0)
    kept = thin_configuration(config, 0.8)
    assert kept.dtype == bool and kept.shape == (len(config),) and kept.all()


def test_thinning_rejects_threshold_radius():
    eps = 0.1
    spec = cube_spec("poisson", epsilon=eps, lam=1.0)
    # hole radius = eps
    config = MarkedConfiguration(spec, 0, np.array([eps ** (-2.0 / (3 - 2))]),
                                 points=np.zeros((1, 3)))
    assert not thin_configuration(config, 0.8).any()


def test_thinning_matches_bruteforce():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = cube_spec("poisson", epsilon=0.1, lam=1.0, marks=marks, seed=3)
    config = sample_configuration(spec, 1)
    assert len(config) > 500
    eps, d, delta = 0.1, 3, 0.8
    a = eps ** 3 * config.rho
    keep = []
    for i in range(len(config)):
        diff = np.max(np.abs(config.points - config.points[i]), axis=1)
        diff[i] = np.inf
        r = eps / 4 * min(diff.min(), 1.0)
        if a[i] <= eps ** (1 + delta) and r >= 2 * math.sqrt(d) * a[i]:
            keep.append(i)
    assert np.array_equal(np.flatnonzero(thin_configuration(config, delta)), np.array(keep))


def test_moments():
    assert MarkDistribution.constant(2.0).moment(1) == 2.0
    pareto = MarkDistribution.pareto(3.0, 1.0, d=3)
    assert pareto.moment(1) == pytest.approx(1.5)
    assert pareto.moment(3) == math.inf
    uni = MarkDistribution.uniform(0.5, 1.5)
    assert uni.moment(1) == pytest.approx(1.0)
    assert uni.moment(2) == pytest.approx((1.5 ** 3 - 0.5 ** 3) / 3)
    assert pareto.truncated_moment(1, 2.0) == pytest.approx(
        3.0 * (2.0 ** (1 - 3) - 1.0) / (1 - 3) * 1.0)


# ----------------------------------------------------------------------
# spatial index against brute force
# ----------------------------------------------------------------------

def test_spatial_index_queries_match_bruteforce():
    rng = np.random.default_rng(0)
    for trial in range(20):
        pts = rng.uniform(-5, 5, size=(rng.integers(2, 400), 3))
        index = SpatialIndex(pts)
        x = rng.uniform(-5, 5, size=(3, 3))
        r = rng.uniform(0.1, 2.0, size=3)
        c, j = index.query(x, r)
        for m in range(3):
            dist = np.max(np.abs(pts - x[m]), axis=1)
            assert np.array_equal(np.sort(j[c == m]), np.flatnonzero(dist <= r[m]))


def test_spatial_index_closed_ball_on_integer_lattice():
    # on Z^3 every neighbour sits at max-norm distance exactly 1, so a strict
    # comparison anywhere in the index loses all of them
    n = 5
    axis = np.arange(n, dtype=float)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    index = SpatialIndex(pts)
    i, j = index.close_pairs(1.0)
    assert i.size == ((3 * n - 2) ** 3 - n ** 3) // 2
    c, k = index.query(np.array([[2.0, 2.0, 2.0]]), 1.0)
    assert k.size == 27 and np.all(c == 0)
    assert np.all(index.nearest_neighbor_distances(cap=1.0) == 1.0)


def test_one_neighbour_search_in_the_package():
    # every neighbour query of the package goes through index.SpatialIndex
    src = Path(holelab.__file__).parent
    users = [path.name for path in sorted(src.glob("*.py"))
             if re.search(r"scipy\.spatial|cKDTree", path.read_text())]
    assert users == ["index.py"]


def test_one_poisson_draw_in_the_package():
    # configurations and the Mecke check draw Poisson points in one place
    src = Path(holelab.__file__).parent
    calls = [path.name for path in sorted(src.glob("*.py"))
             for _ in re.finditer(r"\.poisson\(", path.read_text())]
    assert calls == ["process.py"]


def test_no_unused_imports_in_the_package():
    # every name a module imports is used in it (__init__ only re-exports)
    src = Path(holelab.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                unused += [f"{path.name}: {alias.asname or alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


def test_geometry_modules_import_no_higher_layer():
    # sampling, partition and covering sit below the rate ensembles, the CLI
    # and the experiments: no import reaches up, not even inside a function
    src = Path(holelab.__file__).parent
    upward = []
    for name in ("process.py", "partition.py", "covering.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            upward += [f"{name}: {t}" for t in targets
                       if {"rates", "cli", "experiments"} & set(t.split("."))]
    assert upward == []


def test_nearest_neighbor_matches_bruteforce_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 1000))
        pts = rng.uniform(0, 12, size=(n, 3))
        index = SpatialIndex(pts)
        got = index.nearest_neighbor_distances(cap=1.0)
        diff = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
        np.fill_diagonal(diff, np.inf)
        want = np.minimum(diff.min(axis=1), 1.0)
        assert np.allclose(got, want)


# ----------------------------------------------------------------------
# exchange formula
# ----------------------------------------------------------------------

def test_mecke_rejects_lattice():
    with pytest.raises(ValueError):
        mecke_check(cube_spec(), "count", 10)


def test_mecke_count_and_mark():
    spec = ProcessSpec(d=3, epsilon=0.25, process="poisson",
                       marks=MarkDistribution.constant(3.0),
                       domain=DomainDescriptor("axis_cube", 1.0),
                       intensity=2.0, master_seed=4)
    rep = mecke_check(spec, "count", 3000)
    assert rep.rhs == pytest.approx(2.0)          # lambda * |A|
    assert abs(rep.z_score) < 4
    spec1 = ProcessSpec(d=3, epsilon=0.25, process="poisson",
                        marks=MarkDistribution.constant(3.0),
                        domain=DomainDescriptor("axis_cube", 1.0),
                        intensity=1.0, master_seed=4)
    rep2 = mecke_check(spec1, "truncated_mark", 3000)
    assert rep2.rhs == pytest.approx(3.0)         # E[rho^(d-2)] = 3, lambda|A| = 1
    assert abs(rep2.z_score) < 4


def test_mecke_count_on_the_unit_ball():
    # the window is drawn on the ball itself: spread over the bounding cube,
    # the count in A falls to pi/6 of lambda * |A| (z = -9.6 here)
    spec = ProcessSpec(d=3, epsilon=1 / 8, process="poisson",
                       marks=MarkDistribution.pareto_for_beta(3, 2.0),
                       domain=DomainDescriptor("unit_ball"), intensity=1.0, master_seed=7)
    rep = mecke_check(spec, "count", 300)
    assert rep.rhs == 1.0                         # lambda * |A|
    assert abs(rep.z_score) < 4


def test_mecke_refuses_fewer_than_two_trials():
    spec = cube_spec("poisson", lam=1.0)
    with pytest.raises(ValueError, match="trials must be an integer >= 2"):
        mecke_check(spec, "count", 1)


def test_mecke_isolated_two_stage():
    marks = MarkDistribution.pareto_for_beta(3, 2.0)
    spec = ProcessSpec(d=3, epsilon=1 / 16, process="poisson", marks=marks,
                       domain=DomainDescriptor("axis_cube", 2.5 / 16),
                       intensity=2.0, master_seed=8)
    rep = mecke_check(spec, "isolated_mark", 3000)
    assert rep.rhs_se > 0                         # genuinely two-stage
    assert abs(rep.z_score) < 4
