import math

import numpy as np
import pytest

from holelab import (DomainDescriptor, MarkDistribution, ProcessSpec,
                     build_cube_covering, build_random_covering,
                     cell_capacity_averages, ensemble_run, fit_loglog, fit_rate,
                     quenched_error_surrogate, sample_configuration,
                     theoretical_exponents, thin_configuration)
from holelab.corrector import build_capacity_measure, CorrectorField
from holelab.partition import partition_configuration
from holelab.rates import (EnsembleStat, capacity_weights, density_centering,
                           evaluate_quantity, expected_overlap_pairs,
                           pair_overlap_probability)


def spec_for(process="lattice", eps=0.125, marks=None, half=1.0, lam=1.0, seed=0):
    return ProcessSpec(d=3, epsilon=eps, process=process,
                       marks=marks or MarkDistribution.constant(1.0),
                       domain=DomainDescriptor("axis_cube", half),
                       intensity=lam if process == "poisson" else None,
                       master_seed=seed)


# ----------------------------------------------------------------------
# predicted exponents
# ----------------------------------------------------------------------

def test_exponents_small_beta():
    theo = theoretical_exponents(3, 0.5)
    assert theo.delta == pytest.approx(0.8, abs=1e-15)
    assert theo.rate == pytest.approx(0.3, abs=1e-15)
    assert theo.k_exponent == pytest.approx(0.4, abs=1e-15)
    assert theo.kappa == pytest.approx(0.2, abs=1e-15)


def test_exponents_large_beta():
    theo = theoretical_exponents(3, 2.0)
    assert theo.delta == pytest.approx(1.4, abs=1e-15)
    assert theo.rate == pytest.approx(0.6, abs=1e-15)


def test_exponents_bounded_marks():
    theo = theoretical_exponents(3, math.inf)
    assert theo.rate == pytest.approx(0.6)
    assert theo.delta == pytest.approx(2.0)
    assert theo.k_exponent == pytest.approx(0.4)
    assert theo.overlap_exponent is None


def test_overlap_exponent_from_tail():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    theo = theoretical_exponents(3, 0.5, marks)
    alpha = marks.params[0]
    assert theo.overlap_exponent == pytest.approx(-6 + 3 * alpha)
    assert theo.overlap_ball_exponents[0] == pytest.approx(-0.5)
    assert theo.overlap_ball_exponents[1] == pytest.approx(0.0)


def test_pair_overlap_probability_constant_marks():
    marks = MarkDistribution.constant(1.0)
    assert pair_overlap_probability(marks, 0.1, 0.15) == 1.0
    assert pair_overlap_probability(marks, 0.1, 0.25) == 0.0


def test_expected_overlap_pairs_truncation_monotone():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = spec_for(marks=marks)
    full = expected_overlap_pairs(spec, 1 / 16)
    cut = expected_overlap_pairs(spec, 1 / 16, ensemble_draws=1e6)
    assert 0 < cut < full


# ----------------------------------------------------------------------
# cell averages and the surrogate
# ----------------------------------------------------------------------

def test_cell_average_unit_marks_value():
    eps = 0.1
    config = sample_configuration(spec_for(eps=eps), 0)
    cov = build_cube_covering(config, 2)
    s = cell_capacity_averages(config, cov, delta=1.0)
    filled = cov.interior & cov.meets_domain
    assert np.allclose(s[filled], 1.0 / (1.0 - 4 * eps ** 2))
    # empty cell: no points -> zero average
    empty = ~cov.meets_domain if np.any(~cov.meets_domain) else None
    if empty is not None:
        assert np.all(s[empty] == 0.0)


def test_capacity_weights_guard():
    eps = 0.1
    config = sample_configuration(spec_for(eps=eps), 0)
    config.rho = config.rho.copy()
    config.rho[0] = 1.0 / (4 * eps ** 2) + 1.0   # hole touches the outer sphere
    with pytest.raises(ValueError, match="outer sphere"):
        capacity_weights(config, np.arange(len(config)))


def test_cell_average_poisson_matches_pointwise_sum():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = spec_for("poisson", eps=1 / 16, marks=marks, seed=4)
    config = sample_configuration(spec, 0)
    cov = build_random_covering(config, 3, delta=0.8)
    s = cell_capacity_averages(config, cov, delta=0.8)
    # independent per-point reimplementation
    eps, d = spec.epsilon, 3
    want = np.zeros(cov.base.n_cells)
    for pos, idx in enumerate(cov.thinned):
        rho = config.rho[idx]
        tr = cov.tilde_r[pos]
        y = rho * tr / (tr - eps ** 3 * rho)
        want[cov.cell_of[pos]] += y
    want *= eps ** 3 / cov.volumes
    assert np.allclose(s, want, rtol=1e-12)


def test_lattice_cell_mass_identity():
    # c_d * S per cell equals the summed sphere charges over the cell volume
    eps = 0.125
    marks = MarkDistribution.uniform(0.5, 1.5)
    config = sample_configuration(spec_for(eps=eps, marks=marks), 0)
    k = 2
    cov = build_cube_covering(config, k)
    s = cell_capacity_averages(config, cov, delta=1.0)
    fld = CorrectorField.from_configuration(config, delta=1.0)
    mu = build_capacity_measure(fld)
    cell_of = cov.cell_of_points(mu.centers)
    mass = np.zeros(cov.n_cells)
    np.add.at(mass, cell_of, mu.weights)
    c3 = 4 * math.pi
    assert np.allclose(c3 * s, mass / (k * eps) ** 3, rtol=1e-12)


def test_surrogate_unit_marks_structure():
    eps = 0.1
    config = sample_configuration(spec_for(eps=eps), 0)
    part = partition_configuration(config, 1.0)
    cov = build_cube_covering(config, 2)
    val = quenched_error_surrogate(config, part, cov, 1.0, 2)
    y = 1.0 / (1.0 - 4 * eps ** 2)
    # no bad holes; interior cells deviate by exactly (Y - 1)^2 = O(eps^4)
    s = cell_capacity_averages(config, cov, 1.0)
    filled = cov.interior & cov.meets_domain
    assert np.allclose(s[filled], y, rtol=1e-12)
    t_second = (2 * eps) ** 2 * eps ** 3 * len(config)
    interior_dev = math.sqrt(np.mean((s[filled] - 1.0) ** 2))
    assert interior_dev == pytest.approx(y - 1.0, rel=1e-9)
    assert val >= math.sqrt(t_second)


def test_surrogate_poisson_matches_reimplementation():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = spec_for("poisson", eps=1 / 16, marks=marks, seed=11)
    config = sample_configuration(spec, 0)
    delta, k = 0.8, 3
    part = partition_configuration(config, delta)
    cov = build_random_covering(config, k, delta)
    got = quenched_error_surrogate(config, part, cov, delta, k)

    # independent pointwise recomputation of every term
    from holelab import thin_configuration, bad_capacity_sum
    eps, d = spec.epsilon, 3
    thinned = thin_configuration(config, delta)
    rho = config.rho[thinned]
    t1 = (k * eps) ** 2 * eps ** d * np.sum(rho ** 2 * (eps / cov.tilde_r) ** 3)
    t2 = bad_capacity_sum(config, part)
    s = cell_capacity_averages(config, cov, delta)
    center = spec.intensity * spec.marks.moment(1)
    base = cov.base
    interior = base.interior & base.meets_domain
    boundary = base.meets_domain & ~interior
    t3 = np.mean((s[interior] - center) ** 2)
    t4 = (k * eps) ** 3 * np.mean((s[boundary] - center) ** 2)
    x = config.centers()[thinned]
    lo, hi = base.lo[cov.cell_of], base.hi[cov.cell_of]
    shell = np.minimum(x - lo, hi - x).min(axis=1) < eps / 2
    t5 = eps ** (3 + 6.0 / 5.0) * np.sum(rho[shell] ** 2)
    want = math.sqrt(t1 + t2) + math.sqrt(t3 + t4) + math.sqrt(t5)
    assert got == pytest.approx(want, rel=1e-12)
    assert np.count_nonzero(shell) > 0


# ----------------------------------------------------------------------
# the mask and bincount path against the index and np.add.at arithmetic
# ----------------------------------------------------------------------

def reference_thinned(config, delta):
    """Thinned indices, the lattice minimal distance as a full array."""
    d, eps = config.spec.d, config.spec.epsilon
    a = config.hole_radii()
    r = np.full(len(config), eps / 4.0) if config.is_lattice else config.minimal_distances()
    return np.flatnonzero((a <= eps ** (1.0 + delta)) & (r >= 2.0 * math.sqrt(d) * a))


def reference_weights(config, idx, outer=None):
    d, eps = config.spec.d, config.spec.epsilon
    rho = config.rho[idx]
    if config.is_lattice and outer is None:
        den = 1.0 - 4.0 ** (d - 2) * eps ** 2 * rho ** (d - 2)
    else:
        den = 1.0 - eps ** d * rho ** (d - 2) / np.asarray(outer, dtype=float) ** (d - 2)
    return rho ** (d - 2) / den


def reference_cell_averages(config, covering, thinned):
    """Cell sums by np.add.at over int64 cell indices of every point."""
    d, eps = config.spec.d, config.spec.epsilon
    if hasattr(covering, "base"):
        y = reference_weights(config, thinned, outer=covering.tilde_r)
        s = np.zeros(covering.base.n_cells)
        np.add.at(s, covering.cell_of.astype(np.int64), y)
        return s * eps ** d / covering.volumes
    point_cell = covering.cell_of_points(config.centers())
    assert point_cell.dtype == np.int64 and np.array_equal(point_cell, covering.point_cell)
    s = np.zeros(covering.n_cells)
    np.add.at(s, point_cell[thinned], reference_weights(config, thinned))
    return s / float(covering.k) ** d


def reference_quantity(config, quantity, delta, k):
    """bad_capacity, det_rhs or s_variance as computed before the mask path."""
    from holelab import bad_capacity_sum
    spec = config.spec
    d, eps = spec.d, spec.epsilon
    part = partition_configuration(config, delta)
    if quantity == "bad_capacity":
        return bad_capacity_sum(config, part)
    cov = build_cube_covering(config, k) if config.is_lattice \
        else build_random_covering(config, k, delta)
    base = cov.base if hasattr(cov, "base") else cov
    thinned = reference_thinned(config, delta)
    s_vals = reference_cell_averages(config, cov, thinned)
    center = density_centering(spec)
    interior = base.interior & base.meets_domain
    if quantity == "s_variance":
        return float(np.mean((s_vals[interior] - center) ** 2))
    boundary = base.meets_domain & ~interior
    dev = (s_vals - center) ** 2
    t_int = float(dev[interior].mean()) if np.any(interior) else 0.0
    t_bnd = float(dev[boundary].mean()) if np.any(boundary) else 0.0
    rho_t, ke = config.rho[thinned], k * eps
    if hasattr(cov, "base"):
        weight = (eps / cov.tilde_r) ** d
        t_second = ke ** 2 * eps ** d * float(np.sum(rho_t ** (2 * (d - 2)) * weight))
        x = config.centers(thinned)
        face = np.minimum(x - base.lo[cov.cell_of], base.hi[cov.cell_of] - x).min(axis=1)
        t_band = eps ** (d + 2.0 * d / (d + 2)) * float(
            np.sum(rho_t[face < eps / 2.0] ** (2 * (d - 2))))
    else:
        t_second = ke ** 2 * eps ** d * float(np.sum(rho_t ** (2 * (d - 2))))
        t_band = 0.0
    return (math.sqrt(t_second + bad_capacity_sum(config, part))
            + math.sqrt(t_int + ke ** 3 * t_bnd) + math.sqrt(t_band))


@pytest.mark.parametrize("shape", ["axis_cube", "unit_ball"])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_lattice_quantities_match_index_reference(shape, n):
    from holelab.covering import mesoscale_k
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = ProcessSpec(d=3, epsilon=1 / n, process="lattice", marks=marks,
                       domain=DomainDescriptor(shape, 1.0), master_seed=2)
    config = sample_configuration(spec, 1)
    delta, k = 0.8, mesoscale_k(spec)
    assert np.array_equal(np.flatnonzero(thin_configuration(config, delta)),
                          reference_thinned(config, delta))
    assert partition_configuration(config, delta).bad.size > 0
    for quantity in ("bad_capacity", "det_rhs", "s_variance"):
        got = evaluate_quantity(spec, quantity, 1, {"delta": delta})
        assert got == reference_quantity(config, quantity, delta, k), quantity


@pytest.mark.parametrize("n", [8, 12, 16])
def test_random_covering_quantities_match_index_reference(n):
    from holelab.covering import mesoscale_k
    spec = spec_for("poisson", eps=1 / n, marks=MarkDistribution.pareto_for_beta(3, 2.0),
                    seed=4)
    config = sample_configuration(spec, 2)
    delta, k = 1.4, mesoscale_k(spec)
    assert np.array_equal(np.flatnonzero(thin_configuration(config, delta)),
                          reference_thinned(config, delta))
    for quantity in ("s_variance", "det_rhs"):
        got = evaluate_quantity(spec, quantity, 2, {"delta": delta})
        assert got == reference_quantity(config, quantity, delta, k), quantity


@pytest.mark.parametrize("process", ["lattice", "poisson"])
def test_good_is_the_complement_of_bad(process):
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    config = sample_configuration(spec_for(process, eps=1 / 12, marks=marks, seed=5), 0)
    part = partition_configuration(config, 0.8)
    assert part.bad.size > 0 and part.n_points == len(config)
    want = np.setdiff1d(np.arange(len(config)), part.bad)
    assert part.good.dtype == np.int64 and np.array_equal(part.good, want)
    assert "good" not in vars(part)                        # derived, not stored


def test_lattice_det_rhs_peak_memory_per_site():
    # one eps = 1/32 replicate holds its marks (8 bytes a site) and little
    # else: before the mask path the peak was 81 bytes a site (22 MB); it is
    # now about 30, and the bound leaves a third of that as margin
    import tracemalloc
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = spec_for(eps=1 / 32, marks=marks, seed=1)
    evaluate_quantity(spec.with_epsilon(1 / 8), "det_rhs", 0, {"delta": 0.8})   # warm caches
    tracemalloc.start()
    try:
        value = evaluate_quantity(spec, "det_rhs", 0, {"delta": 0.8})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0
    assert peak / 65 ** 3 < 40.0, f"{peak / 65 ** 3:.1f} bytes per site"


def test_lattice_unit_ball_sample_peak_memory_per_site():
    # the ball keeps about half of its box; testing the box's centres for
    # membership all at once held float centres of the whole box, 128 bytes
    # per kept site at eps = 1/32 (17.6 MB); one plane at a time it is
    # about 40, and the bound leaves 30% of that as margin
    import tracemalloc
    spec = ProcessSpec(d=3, epsilon=1 / 32, process="lattice",
                       marks=MarkDistribution.pareto_for_beta(3, 0.5),
                       domain=DomainDescriptor("unit_ball"), master_seed=1)
    sample_configuration(spec.with_epsilon(1 / 8), 0)       # warm caches
    tracemalloc.start()
    try:
        config = sample_configuration(spec, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(config) == 137065
    assert peak / len(config) < 52.0, f"{peak / len(config):.1f} bytes per kept site"


def test_det_rhs_thins_once_per_replicate(monkeypatch):
    # the surrogate's cell averages reuse its thinned indices
    import holelab.rates as rates
    calls = []

    def counted(config, delta):
        calls.append(delta)
        return thin_configuration(config, delta)

    monkeypatch.setattr(rates, "thin_configuration", counted)
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    stat = ensemble_run(spec_for(eps=1 / 8, marks=marks, half=0.5), "det_rhs",
                        [1 / 8, 1 / 16], 3, params={"delta": 0.8})
    assert stat.samples.shape == (2, 3) and np.all(stat.samples > 0)
    assert calls == [0.8] * 6


def test_surrogate_empty_configuration():
    spec = spec_for("poisson", eps=0.25, half=1.0, lam=1e-6, seed=1)
    config = sample_configuration(spec, 0)
    assert len(config) == 0
    part = partition_configuration(config, 0.8)
    cov = build_cube_covering(config, 2)
    assert quenched_error_surrogate(config, part, cov, 0.8, 2) == 0.0


def test_surrogate_capacity_terms_monotone_in_marks():
    # the capacity terms (thinned second moment + bad sum) never decrease
    # under a mark bump that keeps the point's thinning class; the centred
    # cell-deviation term can move either way, so it is excluded here
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = spec_for(eps=1 / 16, marks=marks, seed=2)
    config = sample_configuration(spec, 0)
    eps, delta, k = spec.epsilon, 0.8, 3

    def capacity_terms(cfg):
        from holelab import thin_configuration
        part = partition_configuration(cfg, delta)
        thinned = thin_configuration(cfg, delta)
        t1 = (k * eps) ** 2 * eps ** 3 * float(np.sum(cfg.rho[thinned] ** 2))
        from holelab import bad_capacity_sum
        return t1 + bad_capacity_sum(cfg, part)

    base = capacity_terms(config)
    thr = eps ** (-1.2)
    rng = np.random.default_rng(0)
    for i in rng.integers(0, len(config), size=6):
        bumped = sample_configuration(spec, 0)
        bumped.rho = bumped.rho.copy()
        factor = 1.5
        if bumped.rho[i] < thr and factor * bumped.rho[i] >= thr:
            factor = 0.5 * thr / bumped.rho[i]
        bumped.rho[i] *= factor
        assert capacity_terms(bumped) >= base - 1e-12


# ----------------------------------------------------------------------
# ensembles and fits
# ----------------------------------------------------------------------

def test_fit_recovers_planted_exponent():
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    vals = [e ** 0.5 for e in eps]
    slope, _, r2 = fit_loglog(eps, vals)
    assert abs(slope - 0.5) < 1e-12 and r2 == pytest.approx(1.0)
    stat = EnsembleStat("bad_capacity", eps, 1,
                        np.array(vals)[:, None], {})
    fit = fit_rate(stat, target=0.5, tolerance=0.01)
    assert fit.verdict.passed and abs(fit.slope - 0.5) < 0.01
    assert fit.ci[1] - fit.ci[0] < 1e-9


def test_fit_constant_series_zero_slope():
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    stat = EnsembleStat("bad_capacity", eps, 1, np.full((4, 1), 3.0), {})
    fit = fit_rate(stat, target=0.0, tolerance=0.05)
    assert abs(fit.slope) < 1e-12


def test_fit_noisy_planted_exponent():
    rng = np.random.default_rng(1)
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    samples = np.stack([e ** 0.7 * (1 + 0.01 * rng.standard_normal(200))
                        for e in eps])
    stat = EnsembleStat("bad_capacity", eps, 200, samples, {})
    fit = fit_rate(stat, target=0.7, tolerance=0.01)
    assert abs(fit.slope - 0.7) < 0.01
    assert fit.ci[0] <= fit.slope <= fit.ci[1]


def test_fit_refuses_nonpositive():
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    stat = EnsembleStat("bad_capacity", eps, 1, np.zeros((4, 1)), {})
    with pytest.raises(ValueError, match="positive"):
        fit_rate(stat, target=0.0)


def bootstrap_per_draw(stat):
    """The per-draw bootstrap loop, kept here as the reference."""
    means = np.nanmean(stat.samples, axis=1)
    keep = means > 0
    eps_k = np.asarray(stat.epsilon_grid, dtype=float)[keep]
    rng = np.random.default_rng(7)
    slopes = np.empty(1000)
    for b in range(slopes.size):
        sel = rng.integers(0, stat.replicates, size=stat.replicates)
        m = np.nanmean(stat.samples[:, sel], axis=1)[keep]
        slopes[b] = np.nan if np.any(m <= 0) else fit_loglog(eps_k, m)[0]
    return slopes


@pytest.mark.parametrize("n_rep", [1, 30, 45])
@pytest.mark.parametrize("n_fit", [4, 5, 7, 8, 12])
def test_bootstrap_matches_per_draw_fits(n_fit, n_rep, monkeypatch):
    rng = np.random.default_rng(100 * n_fit + n_rep)
    eps = 1.0 / np.arange(8, 8 + 4 * (n_fit + 1), 4)
    samples = eps[:, None] ** 0.6 * np.exp(rng.normal(0.0, 0.5, (eps.size, n_rep)))
    samples[-1] -= 2.0 * samples[-1].mean()          # nonpositive mean: dropped
    if n_rep > 1:
        # a kept epsilon whose resampled mean is often <= 0, and NaN replicates
        samples[1] -= samples[1].mean() - 0.1 * samples[1].std()
        samples[2:, 0] = samples[0, 1] = np.nan
    stat = EnsembleStat("bad_capacity", list(eps), n_rep, samples, {})
    want = bootstrap_per_draw(stat)
    seen = []
    percentile = np.percentile
    monkeypatch.setattr(np, "percentile",
                        lambda a, q: seen.append(np.array(a)) or percentile(a, q))
    fit = fit_rate(stat)
    good = want[~np.isnan(want)]
    if n_rep > 1:
        assert 0 < good.size < want.size
    assert len(fit.used_epsilons) == n_fit
    assert (fit.slope, fit.intercept, fit.r2) == fit_loglog(eps[:-1], np.nanmean(samples, axis=1)[:-1])
    ci = (float(percentile(good, 2.5)), float(percentile(good, 97.5)))
    ci = (min(ci[0], fit.slope), max(ci[1], fit.slope))
    if n_fit < 8:
        assert np.array_equal(seen[0], good)
        assert fit.ci == ci
    else:
        # OpenBLAS solves several right-hand sides in another summation
        # order than one, here from eight points on: a few ulps apart
        assert seen[0].shape == good.shape
        assert np.allclose(seen[0], good, rtol=1e-12, atol=0)
        assert np.allclose(fit.ci, ci, rtol=1e-12, atol=0)


def test_ensemble_reproducible_and_csv():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = spec_for(eps=1 / 8, marks=marks, half=0.5)
    a = ensemble_run(spec, "bad_capacity", [1 / 8, 1 / 16], 5, params={"delta": 0.8})
    b = ensemble_run(spec, "bad_capacity", [1 / 8, 1 / 16], 5, params={"delta": 0.8})
    assert np.array_equal(a.samples, b.samples)
    columns = a.csv_columns(spec)
    assert len(columns[-1]) == 10 and columns[0] == "bad_capacity"


def test_ensemble_parallel_matches_serial():
    marks = MarkDistribution.pareto_for_beta(3, 0.5)
    spec = spec_for(eps=1 / 8, marks=marks, half=0.5)
    a = ensemble_run(spec, "overlap_pairs", [1 / 8], 6, workers=1)
    b = ensemble_run(spec, "overlap_pairs", [1 / 8], 6, workers=2)
    assert np.array_equal(a.samples, b.samples)


def test_ensemble_overlap_zero_for_unit_marks():
    spec = spec_for(eps=1 / 8, half=0.5)
    stat = ensemble_run(spec, "overlap_pairs", [1 / 8, 1 / 16], 3)
    assert np.all(stat.samples == 0.0)


def test_cell_average_concentrates_as_k_grows():
    # mean squared deviation of S from the analytic centring shrinks with k
    marks = MarkDistribution.uniform(0.5, 1.5)
    spec = spec_for(eps=1 / 64, marks=marks, half=0.5, seed=6)
    devs = []
    for k in (4, 8, 16):
        stat = ensemble_run(spec, "s_variance", [1 / 64], 40,
                            params={"delta": 1.0, "k": k})
        devs.append(float(stat.means()[0]))
    assert devs[0] > devs[1] > devs[2]


def test_s_variance_oracle():
    # k^d E[(S - E rho)^2] близко Var(Y): i.i.d. sum over full interior cells
    marks = MarkDistribution.uniform(0.5, 1.5)
    spec = spec_for(eps=1 / 32, marks=marks, half=0.5, seed=3)
    k = 4
    stat = ensemble_run(spec, "s_variance", [1 / 32], 80,
                        params={"delta": 1.0, "k": k})
    from scipy.integrate import quad
    eps = 1 / 32

    def y(r):
        return r / (1 - 4 * eps ** 2 * r)

    m1 = quad(lambda r: y(r), 0.5, 1.5)[0]
    m2 = quad(lambda r: y(r) ** 2, 0.5, 1.5)[0]
    var_y = m2 - m1 ** 2
    ratio = stat.means()[0] * k ** 3 / var_y
    assert 0.5 <= ratio <= 2.0


# ----------------------------------------------------------------------
# verdicts, each against the hand-written rule it replaced
# ----------------------------------------------------------------------

# (comparison, bound, the rule as it was written out by hand)
_RULES = {
    "oracle": ("<", 1e-3, lambda x: x < 1e-3),              # max_rel_error < 1e-3
    "mecke": ("<", 4.0, lambda x: abs(x) < 4.0),            # abs(z_score) < 4.0
    "drift": ("<=", 0.05, lambda x: x <= 0.05),             # finest_drift <= 0.05
    "variance_hi": ("<=", 2.0, lambda x: x <= 2.0),         # 0.5 <= r <= 2.0, upper side
    "variance_lo": (">=", 0.5, lambda x: 0.5 <= x),         # 0.5 <= r <= 2.0, lower side
    "bad_capacity": (">=", (2.0 - 0.8) * 0.5 - 0.15, lambda x: x >= (2.0 - 0.8) * 0.5 - 0.15),
}
_EXPECTED = {"<": {"equal": False, "below": True, "above": False},
             "<=": {"equal": True, "below": True, "above": False},
             ">=": {"equal": True, "below": False, "above": True}}


@pytest.mark.parametrize("rule", sorted(_RULES))
@pytest.mark.parametrize("at", ["equal", "below", "above", "nan"])
def test_verdict_at_its_bound(rule, at):
    from holelab.rates import Verdict
    comparison, bound, reference = _RULES[rule]
    value = {"equal": bound, "below": np.nextafter(bound, -np.inf),
             "above": np.nextafter(bound, np.inf), "nan": math.nan}[at]
    v = Verdict(float(value), bound, comparison)
    assert v.passed == bool(reference(value))
    assert v.passed is (False if at == "nan" else _EXPECTED[comparison][at])
    if at == "nan":
        assert math.isnan(v.margin)
    else:
        # the margin's sign is exact: > 0 inside a strict bound, >= 0 inside an inclusive one
        assert v.passed == (v.margin > 0 if comparison == "<" else v.margin >= 0)
        assert (v.margin == 0) == (at == "equal")


def test_verdict_of_criterion_3_passes_both_on_and_below_the_bound():
    from holelab.experiments import periodic_cell_average
    from holelab.rates import Verdict
    # the drift's closed form is the bound itself; the computed value lies 5e-15 inside
    for drift in (0.04999999999999516, 0.05):
        v = Verdict(drift, 0.05, "<=")
        assert v.passed and drift <= 0.05 and v.margin >= 0
    res = periodic_cell_average((0.25, 0.125, 0.0625))
    assert res.verdict.passed == (res.verdict.value <= 0.05)
    assert res.verdict.passed


@pytest.mark.parametrize("ratios", [
    [0.5, 2.0], [1.001, 1.005, 1.065], [np.nextafter(0.5, 0.0), 1.0],
    [1.0, np.nextafter(2.0, 3.0)], [1.0, math.nan], [math.nan, 3.0], [0.1, 5.0]])
def test_variance_verdict_is_its_worst_side(ratios):
    from holelab.experiments import VarianceScalingResult
    v = VarianceScalingResult([4, 8, 16][:len(ratios)], ratios, 1.0).verdict
    assert v.passed == all(0.5 <= r <= 2.0 for r in ratios)
    if not any(math.isnan(r) for r in ratios):
        sides = [min(r - 0.5, 2.0 - r) for r in ratios]
        assert v.margin == min(sides) and v.value == ratios[int(np.argmin(sides))]


@pytest.mark.parametrize("z", [[-0.67, -1.12, -2.35], [1.0, -4.0, 2.5], [3.999, 0.0],
                               [1.0, math.nan], [math.nan, 5.0], [5.0, math.nan],
                               [4.5, -6.0]])
def test_mecke_verdict_is_the_largest_z(z):
    from holelab.experiments import MeckeResult
    from holelab.process import MeckeReport
    reports = [MeckeReport(f"f{i}", 10, zi, 1.0, 0.0, 0.0) for i, zi in enumerate(z)]
    v = MeckeResult(reports).verdict
    assert v.passed == all(abs(r.z_score) < 4.0 for r in reports)
    if any(math.isnan(zi) for zi in z):
        assert math.isnan(v.value)
    else:
        assert v.value == max(abs(r.z_score) for r in reports)


@pytest.mark.parametrize("slopes", [(0.35, 0.62), (0.35, 0.40), (0.10, 0.62), (0.10, 0.40),
                                    (0.15, 0.45), (math.nan, 0.62)])
def test_surrogate_verdict_is_its_lowest_margin_fit(slopes):
    import dataclasses
    from holelab.experiments import SurrogateRateResult
    from holelab.rates import Verdict
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    fits = {}
    for beta, slope in zip((0.5, 2.0), slopes):
        target = min(3.0 * beta / 5.0, 3.0 / 5.0)
        stat = EnsembleStat("det_rhs", eps, 1, np.array([[e ** 0.5] for e in eps]), {})
        fit = fit_rate(stat, target=target, tolerance=0.15)
        # plant the slope; the bound stays the fit's own target - tolerance
        fits[beta] = dataclasses.replace(fit, slope=slope,
                                         verdict=Verdict(slope, fit.verdict.bound, ">="))
    thresholds = {b: min(3.0 * b / 5.0, 3.0 / 5.0) - 0.15 for b in fits}
    assert all(fits[b].verdict.bound == thresholds[b] for b in fits)
    v = SurrogateRateResult(fits).verdict
    assert v.passed == all(fits[b].slope >= thresholds[b] for b in fits)
    margins = [fits[b].slope - thresholds[b] for b in fits]
    if not any(math.isnan(m) for m in margins):
        assert v is fits[list(fits)[int(np.argmin(margins))]].verdict
    else:
        assert math.isnan(v.value)


@pytest.mark.parametrize("quantity", ["bad_capacity", "det_rhs", "overlap_pairs", "s_variance"])
def test_fit_verdict_at_its_bound(quantity):
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    stat = EnsembleStat(quantity, eps, 1, np.array([[e ** 0.6] for e in eps]), {})
    slope = fit_rate(stat).slope
    at_least = quantity in ("bad_capacity", "det_rhs")
    assert fit_rate(stat).verdict is None and fit_rate(stat).to_json()["pass"] is None
    for edge in (slope + 0.15, slope - 0.15):
        for target in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
            fit = fit_rate(stat, target=float(target), tolerance=0.15)
            # the two rules as fit_rate wrote them out by hand
            want = (slope >= target - 0.15) if at_least else (abs(slope - target) <= 0.15)
            assert fit.verdict.passed == want
            assert fit.to_json()["pass"] is bool(want)
            assert fit.to_json()["comparison"] == ("at_least" if at_least else "two_sided")


@pytest.mark.parametrize("errors", [(0.3, 0.2), (0.25, 0.25), (0.2, 0.3), (math.nan, 0.1)])
def test_desk_verdict_is_the_strict_decrease(monkeypatch, errors):
    import holelab.experiments as experiments
    values = iter(errors)
    monkeypatch.setattr(experiments, "homogenization_error", lambda *args: next(values))
    res = experiments.desk_solve_comparison((1 / 6, 1 / 12), grid_n=9)
    assert res.verdict.passed == (res.errors[-1] < res.errors[0])


def test_covering_verdict_counts_replicates_with_a_violation(monkeypatch):
    import dataclasses
    import holelab.experiments as experiments
    real, calls = experiments.verify_random_covering, []

    def second_replicate_overlaps(cov):
        calls.append(real(cov))
        planted = dataclasses.replace(calls[-1], overlap_violations=1)
        return planted if len(calls) == 2 else calls[-1]

    clean = experiments.covering_soundness_experiment(replicates=3, epsilon=1 / 8)
    monkeypatch.setattr(experiments, "verify_random_covering", second_replicate_overlaps)
    res = experiments.covering_soundness_experiment(replicates=3, epsilon=1 / 8)
    for r in (clean, res):
        t = r.totals
        # the rule as it was written out by hand over the summed counts
        assert r.verdict.passed == ((t.volume_violations | t.overlap_violations
                                     | t.dichotomy_violations) == 0)
    assert clean.verdict.passed and clean.verdict.value == 0
    assert not res.verdict.passed and res.verdict.value == 1
    assert res.totals.overlap_violations == clean.totals.overlap_violations + 1
