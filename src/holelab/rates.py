"""Rate experiments: predicted exponents, ensemble statistics, slope fits.

The monitored quantities are the bad-hole capacity sum, the hole overlap
count, the mesoscopic cell averages of the capacity density, the quenched
error surrogate combining all of them, and the grid-based dual norm of the
capacity measure.  Ensembles run one statistic over an epsilon grid and
replicate set; slopes are fitted on the log of ensemble means with a
bootstrap confidence interval over replicates.
"""

from __future__ import annotations

import logging
import math
import operator
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .corrector import CorrectorField, build_capacity_measure, c0_constant
from .covering import (RandomCovering, build_cube_covering, build_random_covering,
                       check_interior_cell, mesoscale_k)
from .marks import MarkDistribution
from .partition import (bad_capacity_sum, check_partition_scale, overlap_pairs,
                        partition_configuration)
from .pde import Grid, check_grid_n, deposit_measure, hminus_norm
from .process import (MarkedConfiguration, ProcessSpec, check_integer, sample_configuration,
                      thin_configuration)

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# predicted exponents
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TheoreticalExponents:
    d: int
    beta: float
    delta: float
    rate: float                 # decay exponent of the homogenization error
    k_exponent: float           # mesoscale: k ~ eps^(-k_exponent)
    kappa: float
    bad_capacity_exponent: float
    overlap_exponent: Optional[float]        # pair-count slope for the configured tail
    overlap_ball_exponents: tuple            # the two literature ball-count orders


def theoretical_exponents(d: int, beta_eff: float,
                          marks: Optional[MarkDistribution] = None) -> TheoreticalExponents:
    """Predicted exponents for dimension d and effective mark exponent beta.

    ``beta_eff`` may be +inf (bounded marks).  When ``marks`` is a Pareto law
    the expected slope of the mean overlap-pair count is derived from its
    actual tail index; bounded marks produce no overlaps at small epsilon
    and get None.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    if beta_eff <= 0:
        raise ValueError("beta must be positive (or +inf)")
    if math.isinf(beta_eff) or beta_eff > d - 2:
        delta = 2.0 / (d - 2) - (0.0 if math.isinf(beta_eff) else 2.0 * d / ((d + 2) * beta_eff))
        rate = d / (d + 2)
    else:
        delta = 4.0 / (d * d - 4.0)
        rate = d * beta_eff / (d * d - 4.0)
    bad_exp = 0.0 if math.isinf(beta_eff) else (2.0 / (d - 2) - delta) * beta_eff
    overlap = None
    if marks is not None and marks.kind == "pareto":
        alpha = marks.params[0]
        # mean pair count ~ eps^{-d} * integral over separations r of
        # r^{d-1} P(rho > eps^{-2/(d-2)} r); the integral is cut at the
        # hole-radius cap when alpha < d and converges on its own otherwise
        overlap = -d + 2.0 * alpha / (d - 2)
        if alpha < d:
            overlap -= (d - alpha)
    ball_orders = (float("nan"), float("nan"))
    if not math.isinf(beta_eff):
        ball_orders = (-d + 2 + beta_eff, -d + 2 + (2.0 / (d - 2)) * beta_eff)
    return TheoreticalExponents(
        d=d, beta=beta_eff, delta=delta, rate=rate,
        k_exponent=2.0 / (d + 2), kappa=2.0 / ((d - 1) * (d + 2)),
        bad_capacity_exponent=bad_exp, overlap_exponent=overlap,
        overlap_ball_exponents=ball_orders)


def pair_overlap_probability(marks: MarkDistribution, scale: float, s: float,
                             mark_cap: float = math.inf) -> float:
    """P(min(scale*rho1, 1) + min(scale*rho2, 1) > s) for independent marks.

    ``mark_cap`` truncates the law at a maximal mark value (marks above it
    contribute nothing); used to model what a finite ensemble can see.
    """
    if s <= 0:
        return 1.0
    if s >= 2.0:
        return 0.0

    if marks.kind == "constant":
        r = marks.params[0]
        if r > mark_cap:
            return 0.0
        return 1.0 if 2.0 * min(scale * r, 1.0) > s else 0.0

    cap_p = float(marks.tail(mark_cap)) if math.isfinite(mark_cap) else 0.0

    def tail_t(t: float) -> float:
        return max(float(marks.tail(t)) - cap_p, 0.0)

    top = min(s, 1.0)
    # P(A1 >= s) when the cap-at-one cannot reach s, plus the convolution
    # part, plus the radius-one atom when s > 1
    p = tail_t(s / scale) if s < 1.0 else 0.0

    def integrand(log_rho):
        rho = math.exp(log_rho)
        dens = _mark_density(marks, rho)
        return tail_t((s - scale * rho) / scale) * dens * rho

    # the mark support: [lo, hi] for uniform marks, [x_min, inf) for pareto
    lo, sup = marks.params if marks.kind == "uniform" else (marks.params[1], math.inf)
    if s > 1.0:
        # the partner radius is capped at one, so only a1 > s - 1 can help
        lo = max(lo, (s - 1.0) / scale)
    hi = min(top / scale, sup, mark_cap)
    if hi > lo:
        val, _ = quad(integrand, math.log(lo), math.log(hi), limit=200)
        p += val
    if s > 1.0:
        p += tail_t(1.0 / scale) * tail_t((s - 1.0) / scale)
    return min(p, 1.0)


def _mark_density(marks: MarkDistribution, rho: float) -> float:
    if marks.kind == "uniform":
        lo, hi = marks.params
        return 1.0 / (hi - lo) if lo <= rho <= hi else 0.0
    if marks.kind == "pareto":
        alpha, x = marks.params
        return alpha * x ** alpha * rho ** (-alpha - 1.0) if rho >= x else 0.0
    raise ValueError("no density for constant marks")


def expected_overlap_pairs(spec: ProcessSpec, epsilon: float,
                           ensemble_draws: Optional[float] = None) -> float:
    """Exact-law expectation of the overlap-pair count at one epsilon.

    Continuum approximation of the pair sum: half the expected point count
    times the integral over separations of the pair overlap probability.

    For heavy tails the raw expectation is carried by mark values far
    beyond what a finite ensemble contains, so the mean measured over an
    ensemble of ``ensemble_draws`` total mark draws sits near the
    expectation of the law truncated at the typical ensemble maximum
    (P(rho > t) * draws = 1); pass the draw count to pre-register the
    slope such an ensemble is compared against.
    """
    d = spec.d
    scale = epsilon ** (d / (d - 2))
    marks = spec.marks
    vol = spec.domain.volume(d)
    n_points = vol / epsilon ** d
    if spec.process == "poisson":
        n_points *= spec.intensity

    mark_cap = math.inf
    if ensemble_draws is not None and marks.kind == "pareto":
        alpha, x = marks.params
        mark_cap = x * ensemble_draws ** (1.0 / alpha)

    area = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
    r_min = 1.0 if spec.process == "lattice" else 1e-3
    r_max = 2.0 / epsilon

    def shell(log_r):
        r = math.exp(log_r)
        return area * r ** d * pair_overlap_probability(marks, scale, epsilon * r, mark_cap)

    with warnings.catch_warnings():
        # tail probabilities underflow the default absolute target; the
        # roundoff warning is immaterial at these magnitudes
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(shell, math.log(r_min), math.log(r_max), limit=400)
    lam = 1.0 if spec.process == "lattice" else spec.intensity
    return 0.5 * n_points * lam * val


# ----------------------------------------------------------------------
# cell averages and the quenched error surrogate
# ----------------------------------------------------------------------

def capacity_weights(config: MarkedConfiguration, idx: np.ndarray,
                     outer: Optional[np.ndarray] = None) -> np.ndarray:
    """Normalized capacity contributions Y of the points idx (indices or mask).

    Y equals the annulus capacity divided by c_d eps^d; for the lattice the
    outer radius is eps/4, otherwise the (trimmed) minimal distance must be
    supplied.  A nonpositive denominator means the inner ball reaches the
    outer sphere, which the thinning is supposed to prevent.
    """
    d, eps = config.spec.d, config.spec.epsilon
    y = config.rho[idx]
    y **= d - 2
    if config.is_lattice and outer is None:
        den = y * (4.0 ** (d - 2) * eps ** 2)
    else:
        big = config.minimal_distances()[idx] if outer is None else np.asarray(outer, dtype=float)
        den = y * eps ** d / big ** (d - 2)
    np.subtract(1.0, den, out=den)
    if np.any(den <= 0):
        raise ValueError("hole reaches its outer sphere; thin the configuration first")
    y /= den
    return y


def cell_capacity_averages(config: MarkedConfiguration, covering, delta: float) -> np.ndarray:
    """Per-cell averaged capacity density S (one value per covering cell).

    Deterministic covering: sum of Y over the cell's thinned points divided
    by k^d.  Random covering: divided by |cell| / eps^d, with Y built from
    the trimmed distances.
    """
    return _cell_averages(config, covering, thin_configuration(config, delta))


def _cell_averages(config: MarkedConfiguration, covering, keep: np.ndarray) -> np.ndarray:
    """Cell sums of Y over the points of the thinning mask keep, each cell's
    sum accumulated in point order, then normalised."""
    if isinstance(covering, RandomCovering):
        if not np.array_equal(np.flatnonzero(keep), covering.thinned):
            raise ValueError("covering was built for a different thinned set")
        y = capacity_weights(config, covering.thinned, outer=covering.tilde_r)
        s = np.bincount(covering.cell_of, weights=y, minlength=covering.base.n_cells)
        return s * config.spec.epsilon ** config.spec.d / covering.volumes
    y = capacity_weights(config, keep)
    s = np.bincount(covering.point_cell[keep], weights=y, minlength=covering.n_cells)
    return s / float(covering.k) ** config.spec.d


def density_centering(spec: ProcessSpec) -> float:
    """Analytic centring E[rho^(d-2)], times the intensity for poisson."""
    m = spec.marks.moment(spec.d - 2)
    return m * spec.intensity if spec.process == "poisson" else m


def quenched_error_surrogate(config: MarkedConfiguration, partition, covering,
                             delta: float, k: int) -> float:
    """Scalar surrogate for the quenched homogenization error.

    Combines (i) the thinned second-moment term weighted by (k*eps)^2, (ii)
    the bad-hole capacity sum, (iii) interior and boundary cell-average
    deviations, and, on the poisson branch, (iv) the trimming penalty near
    cell boundaries.
    """
    spec = config.spec
    d, eps = spec.d, spec.epsilon
    if len(config) == 0:
        return 0.0
    keep = thin_configuration(config, delta)
    center = density_centering(spec)

    base = covering.base if isinstance(covering, RandomCovering) else covering
    s_vals = _cell_averages(config, covering, keep)
    live = base.meets_domain
    interior = base.interior & live
    boundary = live & ~interior
    dev = (s_vals - center) ** 2
    t_int = float(dev[interior].mean()) if np.any(interior) else 0.0
    t_bnd = float(dev[boundary].mean()) if np.any(boundary) else 0.0

    ke = k * eps
    sq = config.rho[keep]
    sq **= 2 * (d - 2)                     # squared capacity weight rho^(2(d-2))
    if isinstance(covering, RandomCovering):
        weight = (eps / covering.tilde_r) ** d
        t_second = ke ** 2 * eps ** d * float(np.sum(sq * weight))
        # points in the outer shell of their cell (outside the k-1 core)
        face = base.face_distances(config.centers(covering.thinned), covering.cell_of)
        t_band = eps ** (d + 2.0 * d / (d + 2)) * float(np.sum(sq[face < eps / 2.0]))
    else:
        t_second = ke ** 2 * eps ** d * float(np.sum(sq))
        t_band = 0.0
    t_bad = bad_capacity_sum(config, partition)
    return (math.sqrt(t_second + t_bad)
            + math.sqrt(t_int + ke ** 3 * t_bnd)
            + math.sqrt(t_band))


# ----------------------------------------------------------------------
# ensembles
# ----------------------------------------------------------------------

QUANTITIES = ("bad_capacity", "overlap_pairs", "s_variance", "det_rhs", "hminus")
HMINUS_GRID_N = 65             # nodes per axis of the hminus quantity by default


@dataclass
class EnsembleStat:
    quantity: str
    epsilon_grid: list
    replicates: int
    samples: np.ndarray        # (n_eps, n_reps)
    params: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def means(self) -> np.ndarray:
        return self.samples.mean(axis=1)

    def csv_columns(self, spec: ProcessSpec):
        """CSV columns quantity, d, beta_eff, epsilon, replicate, value."""
        return (self.quantity, spec.d, spec.marks.beta_eff,
                np.repeat(self.epsilon_grid, self.replicates),
                np.tile(np.arange(self.replicates), len(self.epsilon_grid)), self.samples.ravel())


def resolve_delta(spec: ProcessSpec, delta: Optional[float] = None) -> float:
    """delta, by default the rate-optimal thinning exponent for the spec's marks."""
    return theoretical_exponents(spec.d, spec.marks.beta_eff).delta if delta is None else delta


def check_quantity(spec: ProcessSpec, quantity: str, epsilon_grid, params: dict) -> None:
    """Refuse from the arguments alone what ``evaluate_quantity`` would refuse
    at some epsilon of the grid: an unknown quantity or an epsilon outside (0, 1),
    then the delta (and, on lattice partitions, eps^delta), k and grid_n where
    used, and for ``s_variance``, which averages over them, no interior cell."""
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; choose from {QUANTITIES}")
    specs = [spec.with_epsilon(eps) for eps in epsilon_grid]   # each eps in (0, 1)
    if quantity == "overlap_pairs":
        return
    delta = resolve_delta(spec, params.get("delta"))
    partitions = quantity in ("bad_capacity", "det_rhs") and spec.process == "lattice"
    if quantity == "hminus":
        check_grid_n(params.get("grid_n", HMINUS_GRID_N))
    for s in specs:
        check_partition_scale(s.d, s.epsilon, delta, partitions)
        if quantity == "s_variance":
            check_interior_cell(s, params.get("k"))
        elif quantity == "det_rhs":
            mesoscale_k(s, params.get("k"))


def evaluate_quantity(spec: ProcessSpec, quantity: str, replicate: int,
                      params: dict) -> float:
    """One replicate of one monitored statistic (the ensemble worker)."""
    check_quantity(spec, quantity, [spec.epsilon], params)
    config = sample_configuration(spec, replicate)
    if quantity == "overlap_pairs":
        return float(overlap_pairs(config))

    delta = resolve_delta(spec, params.get("delta"))
    if quantity in ("bad_capacity", "det_rhs"):
        part = partition_configuration(config, delta)
    if quantity == "bad_capacity":
        return bad_capacity_sum(config, part)

    if quantity in ("s_variance", "det_rhs"):
        k = mesoscale_k(spec, params.get("k"))
        cov = build_cube_covering(config, k) if config.is_lattice \
            else build_random_covering(config, k, delta)
        if quantity == "det_rhs":
            return quenched_error_surrogate(config, part, cov, delta, k)
        base = cov.base if isinstance(cov, RandomCovering) else cov
        s_vals = cell_capacity_averages(config, cov, delta)
        interior = base.interior & base.meets_domain
        return float(np.mean((s_vals[interior] - density_centering(spec)) ** 2))

    # quantity == "hminus": grid dual norm of the capacity density mismatch
    field_ = CorrectorField.from_configuration(config, delta)
    mu = build_capacity_measure(field_)
    grid = Grid.from_domain(spec.domain, params.get("grid_n", HMINUS_GRID_N))
    # under-resolved spheres are deposited anyway: their charge is conserved
    g = deposit_measure(mu, c0_constant(spec), grid, min_radius_factor=0.0)
    return hminus_norm(g, grid)


def _worker(args):
    spec_json, quantity, eps, replicate, params = args
    try:
        spec = ProcessSpec.from_json(spec_json).with_epsilon(eps)
        return True, evaluate_quantity(spec, quantity, replicate, params)
    except Exception as exc:  # per-replicate failures are data, not aborts
        return False, repr(exc)


def ensemble_run(spec: ProcessSpec, quantity: str, epsilon_grid, replicates: int,
                 params: Optional[dict] = None, workers: int = 1) -> EnsembleStat:
    """Run one statistic over the epsilon grid with deterministic seeds.

    Arguments ``check_quantity`` refuses raise before any replicate runs.
    Per-replicate failures are recorded; more than 1% of failed jobs aborts
    the run.  Failed entries are filled with NaN and excluded from means.
    """
    params = dict(params or {})
    epsilon_grid = list(epsilon_grid)
    check_quantity(spec, quantity, epsilon_grid, params)
    jobs = [(spec.to_json(), quantity, eps, r, params)
            for eps in epsilon_grid for r in range(replicates)]
    results = np.full(len(jobs), np.nan)
    failures = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_worker, jobs, chunksize=4))
    else:
        outcomes = [_worker(job) for job in jobs]
    for i, (ok, val) in enumerate(outcomes):
        if ok:
            results[i] = val
        else:
            failures.append((jobs[i][2], jobs[i][3], val))
            logger.warning("replicate failed: eps=%s rep=%s: %s",
                           jobs[i][2], jobs[i][3], val)
    if len(failures) > 0.01 * len(jobs):
        raise RuntimeError(f"{len(failures)} of {len(jobs)} replicates failed")
    samples = results.reshape(len(epsilon_grid), replicates)
    return EnsembleStat(quantity, epsilon_grid, replicates, samples, params, failures)


# ----------------------------------------------------------------------
# verdicts and slope fitting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """The pass rule of one quantitative check, ``value comparison bound``.
    ``margin`` is signed: >= 0 inside an inclusive bound, > 0 inside a
    strict one.  A NaN value fails under every comparison."""
    _COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}
    value: float
    bound: float
    comparison: str            # "<" | "<=" | ">="

    @property
    def passed(self) -> bool:
        return bool(self._COMPARE[self.comparison](self.value, self.bound))

    @property
    def margin(self) -> float:
        return self.value - self.bound if self.comparison == ">=" else self.bound - self.value

    @staticmethod
    def worst(verdicts) -> "Verdict":
        """The member deciding a rule that all verdicts must pass: a failing one
        if any (NaN first, then the farthest out), else the one nearest its bound."""
        return min(verdicts, key=lambda v: (v.passed, -math.inf if math.isnan(v.margin)
                                            else v.margin))


@dataclass
class RateFit:
    slope: float
    intercept: float
    r2: float
    ci: tuple
    theoretical: Optional[float]
    tolerance: float
    verdict: Optional[Verdict]   # None without a target slope
    used_epsilons: list
    dropped: list = field(default_factory=list)

    def to_json(self) -> dict:
        at_least = self.verdict is not None and self.verdict.comparison == ">="
        return {
            "slope": self.slope, "intercept": self.intercept, "r2": self.r2,
            "ci_lo": self.ci[0], "ci_hi": self.ci[1],
            "theoretical": self.theoretical, "tolerance": self.tolerance,
            "comparison": "at_least" if at_least else "two_sided",
            "pass": None if self.verdict is None else self.verdict.passed,
            "epsilons": self.used_epsilons, "dropped": self.dropped,
        }


def fit_loglog(eps, values):
    """Least-squares slope of log(values) against log(eps)."""
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


_TARGET_FIELD = {"bad_capacity": "bad_capacity_exponent", "overlap_pairs": "overlap_exponent",
                 "det_rhs": "rate"}
_AT_LEAST = ("bad_capacity", "det_rhs")     # other targets are two-sided


def check_fit_design(epsilon_grid, replicates: int, tolerance: float) -> None:
    """Refuse an ensemble no slope can be fitted on: fewer than four
    epsilons, or a replicate count other than 1 or an integer >= 30; and a
    tolerance that is not a number >= 0 (a bool is not one)."""
    check_integer("replicates", replicates, 1)
    if len(epsilon_grid) < 4:
        raise ValueError("need at least 4 epsilon values")
    if replicates < 30 and replicates != 1:
        raise ValueError("need at least 30 replicates (or a deterministic run)")
    if (isinstance(tolerance, bool) or not isinstance(tolerance, (int, float, np.number))
            or not tolerance >= 0):
        raise ValueError(f"tolerance must be a number >= 0, got {tolerance!r}")


def fit_rate(stat: EnsembleStat, theo: Optional[TheoreticalExponents] = None,
             target: Optional[float] = None, tolerance: float = 0.2) -> RateFit:
    """Fit the decay exponent of the ensemble means and compare to theory:
    slope >= target - tolerance for the decay bounds of ``_AT_LEAST``,
    |slope - target| <= tolerance otherwise.

    Means are taken before logs.  Epsilons with nonpositive means are
    dropped with a warning; fewer than four surviving points refuses the
    fit.  The confidence interval resamples replicates 1000 times (jointly
    across epsilons, matching the shared random numbers) from a fixed seed.
    """
    check_fit_design(stat.epsilon_grid, stat.replicates, tolerance)
    means = np.nanmean(stat.samples, axis=1)
    eps = np.asarray(stat.epsilon_grid, dtype=float)
    keep = means > 0
    dropped = [float(e) for e in eps[~keep]]
    if dropped:
        logger.warning("dropping epsilons with nonpositive means: %s", dropped)
    if np.count_nonzero(keep) < 4:
        raise ValueError("fewer than 4 epsilons with positive means; fit refused")
    eps_k, means_k = eps[keep], means[keep]
    slope, intercept, r2 = fit_loglog(eps_k, means_k)

    # draws with a mean <= 0 are fitted to a dummy value, then set to NaN
    n_rep = stat.replicates
    sel = np.random.default_rng(7).integers(0, n_rep, size=(1000, n_rep))
    m = np.nanmean(stat.samples[:, sel], axis=2)[keep]
    fits = np.all(m > 0, axis=0)
    slopes = np.polyfit(np.log(eps_k), np.log(np.where(fits, m, 1.0)), 1)[0]
    slopes[~fits] = np.nan
    good = slopes[~np.isnan(slopes)]
    if good.size:
        ci = (float(np.percentile(good, 2.5)), float(np.percentile(good, 97.5)))
        ci = (min(ci[0], slope), max(ci[1], slope))
    else:
        ci = (slope, slope)

    if target is None and theo is not None:
        name = _TARGET_FIELD.get(stat.quantity)
        target = getattr(theo, name) if name else None
    verdict = None if target is None else (
        Verdict(slope, target - tolerance, ">=") if stat.quantity in _AT_LEAST
        else Verdict(abs(slope - target), tolerance, "<="))
    return RateFit(slope, intercept, r2, ci, target, tolerance, verdict,
                   [float(e) for e in eps_k], dropped)
