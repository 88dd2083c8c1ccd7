"""End-to-end experiment drivers shared by the CLI and the verification suite.

Each driver pins its own geometry, marks, and sample sizes, runs the
pipeline, and returns a small result object: its data plus one
``verdict``, the ``Verdict`` that states its pass rule, written once
here.  A rule over several values is one verdict, its worst member.  The
CLI's exit codes and summaries and the acceptance suite read that verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .corrector import (CorrectorField, annulus_capacity, annulus_capacity_fd,
                        build_capacity_measure, c0_constant)
from .covering import (CoveringReport, build_random_covering, mesoscale_k,
                       mesoscale_parameters, verify_random_covering)
from .domain import DomainDescriptor
from .marks import MarkDistribution
from .pde import Grid, homogenization_error, homogenized_solve, solve_perforated
from .process import MECKE_FUNCTIONALS, ProcessSpec, mecke_check, sample_configuration
from .rates import (EnsembleStat, RateFit, Verdict, check_quantity, ensemble_run,
                    expected_overlap_pairs, fit_loglog, fit_rate, resolve_delta,
                    theoretical_exponents)

DEFAULT_SEED = 20240501


def lattice_spec(marks: MarkDistribution, epsilon: float = 0.125, d: int = 3,
                 half_width: float = 1.0, seed: int = DEFAULT_SEED) -> ProcessSpec:
    return ProcessSpec(d=d, epsilon=epsilon, process="lattice", marks=marks,
                       domain=DomainDescriptor("axis_cube", half_width),
                       master_seed=seed)


def poisson_spec(marks: MarkDistribution, intensity: float = 1.0, epsilon: float = 0.125,
                 d: int = 3, half_width: float = 1.0, seed: int = DEFAULT_SEED) -> ProcessSpec:
    return ProcessSpec(d=d, epsilon=epsilon, process="poisson", marks=marks,
                       domain=DomainDescriptor("axis_cube", half_width),
                       intensity=intensity, master_seed=seed)


# ----------------------------------------------------------------------

def exponent_table(d: int, beta: float, epsilon: Optional[float] = None) -> dict:
    """Predicted exponents, plus the concrete mesoscale at one epsilon."""
    theo = theoretical_exponents(d, beta)
    out = {"d": d, "beta": beta, "delta": theo.delta, "rate": theo.rate,
           "k_exp": theo.k_exponent, "kappa": theo.kappa,
           "bad_capacity_exponent": theo.bad_capacity_exponent}
    if epsilon is not None:
        out["k"], out["epsilon"] = mesoscale_parameters(d, epsilon)[0], epsilon
    return out


@dataclass
class CapacityOracleResult:
    rows: list
    verdict: Verdict           # the largest relative error < 1e-3


def capacity_oracle_check(n_triples: int = 20, seed: int = 0) -> CapacityOracleResult:
    """Closed-form annulus capacity against the radial finite-difference solve."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_triples):
        d = int(rng.integers(3, 6))
        a = float(rng.uniform(0.05, 0.4))
        big = a * float(rng.uniform(1.5, 6.0))
        exact = annulus_capacity(a, big, d)
        approx = annulus_capacity_fd(a, big, d)
        rows.append((d, a, big, exact, approx, abs(approx - exact) / exact))
    return CapacityOracleResult(rows, Verdict(max((row[-1] for row in rows), default=0.0),
                                              1e-3, "<"))


@dataclass
class CellAverageResult:
    epsilons: list
    c_values: list             # |weight/eps^d - c0| / eps^2 per epsilon
    c0: float
    verdict: Verdict           # relative change between the two finest epsilons <= 0.05


def periodic_cell_average(epsilons=(0.25, 0.125, 0.0625), seed: int = DEFAULT_SEED) -> CellAverageResult:
    """Second-order convergence of the single-cell charge density.

    The per-cell sphere charge, normalised by the cell volume, exceeds the
    limiting constant by an O(eps^2) correction; the fitted coefficient is
    reported for every epsilon and must stabilise under refinement (the
    coarsest value is pre-asymptotic by construction and is reported only).
    """
    marks = MarkDistribution.constant(1.0)
    c_vals = []
    c0 = None
    for eps in epsilons:
        spec = lattice_spec(marks, epsilon=eps, seed=seed)
        c0 = c0_constant(spec)
        config = sample_configuration(spec, 0)
        fld = CorrectorField.from_configuration(config, delta=1.0)
        mu = build_capacity_measure(fld)
        weight = float(mu.weights[0])
        c_vals.append(abs(weight / eps ** spec.d - c0) / eps ** 2)
    drift = abs(c_vals[-2] / c_vals[-1] - 1.0)
    return CellAverageResult(list(epsilons), c_vals, c0, Verdict(drift, 0.05, "<="))


HMINUS_TARGET, HMINUS_TOLERANCE = 1.0, 0.25       # the dual-norm slope band


@dataclass
class HminusRateResult:
    epsilons: list
    norms: list
    slope: float
    r2: float
    verdict: Verdict           # |slope - HMINUS_TARGET| <= HMINUS_TOLERANCE


def hminus_setup(epsilons, grid_n: int = 97, half_width: float = 0.5, seed: int = DEFAULT_SEED):
    """Spec and parameters of ``periodic_hminus_rate``, checked at every epsilon."""
    spec = lattice_spec(MarkDistribution.constant(1.0), half_width=half_width, seed=seed)
    params = {"delta": 1.0, "grid_n": grid_n}
    check_quantity(spec, "hminus", epsilons, params)
    return spec, params


def periodic_hminus_rate(epsilons=(1 / 6, 1 / 8, 1 / 12, 1 / 16), grid_n: int = 97,
                         half_width: float = 0.5, seed: int = DEFAULT_SEED) -> HminusRateResult:
    """Dual-norm decay of the capacity density mismatch for unit marks.

    Runs on the unit-volume cube: the pre-asymptotic constant mode (the
    order-eps^2 excess of the per-cell charge over the limit density) grows
    superlinearly with domain size and would mask the linear rate on a
    larger box at these epsilons.  The norms are one deterministic replicate
    of the ``hminus`` ensemble quantity; spheres at the smallest epsilon fall
    just below the default deposit resolution guard, which that quantity
    disables on purpose (the deposited charge is conserved, only smeared to
    the grid scale).
    """
    spec, params = hminus_setup(epsilons, grid_n, half_width, seed)
    stat = ensemble_run(spec, "hminus", epsilons, 1, params=params)
    norms = stat.samples[:, 0].tolist()
    slope, _, r2 = fit_loglog(epsilons, norms)
    return HminusRateResult(list(epsilons), norms, slope, r2,
                            Verdict(abs(slope - HMINUS_TARGET), HMINUS_TOLERANCE, "<="))


@dataclass
class OverlapResult:
    stat: EnsembleStat
    fit: RateFit
    predicted_slope: float      # ensemble-size-adjusted prediction (the target)
    raw_slope: float            # slope of the untruncated expectation
    expected_means: list
    asymptotic_exponent: float
    literature_orders: tuple
    verdict: Verdict           # the fit's: |slope - predicted| <= 0.2


def overlap_experiment(beta: float = 0.5, epsilons=(1 / 8, 1 / 16, 1 / 32, 1 / 64),
                       replicates: int = 200, seed: int = DEFAULT_SEED) -> OverlapResult:
    """Mean overlap-pair count against the exact-law prediction.

    The registered target is the slope of the expected pair count over the
    same epsilon grid, derived from the implemented Pareto law truncated at
    the typical maximum of the pinned ensemble: the pair count is carried
    by the extreme marks, so the mean over finitely many replicates tracks
    the truncated expectation, not the raw one.  The raw-expectation slope,
    its asymptotic exponent and the two heuristic ball-count orders are
    reported alongside.

    At this replicate count the ensemble mean does not concentrate (the
    count is carried by the few largest marks an ensemble happens to draw),
    so the comparison is expected to scatter well beyond its tolerance; the
    result carries the bootstrap interval so the verdict is interpretable.
    """
    marks = MarkDistribution.pareto_for_beta(3, beta)
    spec = lattice_spec(marks, seed=seed)
    expected = []
    for eps in epsilons:
        draws = replicates * spec.with_epsilon(eps).expected_points()
        expected.append(expected_overlap_pairs(spec, eps, ensemble_draws=draws))
    predicted, _, _ = fit_loglog(epsilons, expected)
    raw = [expected_overlap_pairs(spec, eps) for eps in epsilons]
    raw_slope, _, _ = fit_loglog(epsilons, raw)
    stat = ensemble_run(spec, "overlap_pairs", epsilons, replicates)
    theo = theoretical_exponents(3, beta, marks)
    fit = fit_rate(stat, target=predicted, tolerance=0.2)
    return OverlapResult(stat, fit, predicted, raw_slope, expected,
                         theo.overlap_exponent, theo.overlap_ball_exponents, fit.verdict)


def bad_capacity_experiment(beta: float = 0.5, delta: float = 0.8,
                            epsilons=(1 / 8, 1 / 16, 1 / 32, 1 / 64),
                            replicates: int = 200, seed: int = DEFAULT_SEED) -> RateFit:
    """Annealed decay of the bad-hole capacity sum: its fit, whose verdict is
    the lower bound (2/(d-2) - delta) * beta - 0.15 on the fitted slope."""
    marks = MarkDistribution.pareto_for_beta(3, beta)
    spec = lattice_spec(marks, seed=seed)
    stat = ensemble_run(spec, "bad_capacity", epsilons, replicates,
                        params={"delta": delta})
    return fit_rate(stat, target=(2.0 / (3 - 2) - delta) * beta, tolerance=0.15)


def capacity_weight_variance(marks: MarkDistribution, d: int, eps: float):
    """Quadrature oracle for E[Y] and Var(Y), Y = rho^(d-2)/(1 - 4^(d-2) eps^2 rho^(d-2))."""

    def y_val(rho):
        g = rho ** (d - 2)
        return g / (1.0 - 4.0 ** (d - 2) * eps ** 2 * g)

    if marks.kind == "constant":
        y = y_val(marks.params[0])
        return y, 0.0
    if marks.kind == "uniform":
        lo, hi = marks.params
        dens = 1.0 / (hi - lo)
        m1, _ = quad(lambda r: y_val(r) * dens, lo, hi)
        m2, _ = quad(lambda r: y_val(r) ** 2 * dens, lo, hi)
        return m1, m2 - m1 ** 2
    raise ValueError("variance oracle supports bounded mark laws")


@dataclass
class VarianceScalingResult:
    k_values: list
    ratios: list
    var_y: float

    @property
    def verdict(self) -> Verdict:
        """The worst side of 0.5 <= ratio <= 2 over the ratios."""
        return Verdict.worst(v for r in self.ratios
                             for v in (Verdict(r, 0.5, ">="), Verdict(r, 2.0, "<=")))


def variance_scaling_experiment(k_values=(4, 8, 16), replicates: int = 500,
                                epsilon: float = 1 / 64, delta: float = 1.0,
                                seed: int = DEFAULT_SEED) -> VarianceScalingResult:
    """k^d-scaling of the interior cell-average variance for bounded marks.

    delta = 1 keeps the thinning vacuous at this epsilon, so the cell sums
    average the full mark law and the i.i.d. oracle Var(Y)/k^d applies.
    """
    marks = MarkDistribution.uniform(0.5, 1.5)
    spec = lattice_spec(marks, epsilon=epsilon, half_width=0.5, seed=seed)
    _, var_y = capacity_weight_variance(marks, 3, epsilon)
    ratios = []
    for k in k_values:
        stat = ensemble_run(spec, "s_variance", [epsilon], replicates,
                            params={"delta": delta, "k": k})
        ratios.append(float(stat.means()[0]) * k ** 3 / var_y)
    return VarianceScalingResult(list(k_values), ratios, var_y)


@dataclass
class MeckeResult:
    reports: list

    @property
    def verdict(self) -> Verdict:
        """The largest |z|, which must stay below 4."""
        return Verdict.worst(Verdict(abs(r.z_score), 4.0, "<") for r in self.reports)


def mecke_spec(seed: int = DEFAULT_SEED) -> ProcessSpec:
    """The exchange-formula geometry: epsilon = 1/16 keeps the isolation
    predicate R >= eps^2 at probability about 0.78 (at larger epsilon it
    degenerates to a null event); the sampling window extends 2 length
    units beyond the test region."""
    marks = MarkDistribution.pareto_for_beta(3, 2.0)
    return poisson_spec(marks, intensity=2.0, epsilon=1 / 16, half_width=2.5 / 16, seed=seed)


def mecke_experiment(trials: int = 10000, seed: int = DEFAULT_SEED) -> MeckeResult:
    """All built-in exchange-formula functionals at the given trial count
    on the geometry of ``mecke_spec``."""
    spec = mecke_spec(seed)
    reports = [mecke_check(spec, name, trials) for name in MECKE_FUNCTIONALS]
    return MeckeResult(reports)


@dataclass
class CoveringSoundnessResult:
    replicates: int
    totals: CoveringReport     # violation and cell counts summed over the replicates
    verdict: Verdict           # replicates whose report is not ok: none


def covering_soundness_experiment(replicates: int = 100, epsilon: float = 1 / 16,
                                  beta: float = 0.5,
                                  seed: int = DEFAULT_SEED) -> CoveringSoundnessResult:
    """Volume bounds and the sphere dichotomy on randomized coverings."""
    marks = MarkDistribution.pareto_for_beta(3, beta)
    spec = poisson_spec(marks, intensity=1.0, epsilon=epsilon, seed=seed)
    k, delta = mesoscale_k(spec), resolve_delta(spec)
    configs = (sample_configuration(spec, rep) for rep in range(replicates))
    reports = [verify_random_covering(build_random_covering(c, k, delta)) for c in configs]
    t = CoveringReport(*(sum(getattr(r, name) for r in reports) for name in
                         ("volume_violations", "overlap_violations", "dichotomy_violations",
                          "n_cells")))
    return CoveringSoundnessResult(replicates, t, Verdict(sum(not r.ok for r in reports), 0, "<="))


@dataclass
class SurrogateRateResult:
    fits: dict                 # beta -> RateFit

    @property
    def verdict(self) -> Verdict:
        """The worst of the fits' verdicts."""
        return Verdict.worst(fit.verdict for fit in self.fits.values())


def surrogate_rate_experiment(betas=(0.5, 2.0),
                              epsilons=(1 / 8, 1 / 12, 1 / 16, 1 / 24, 1 / 32, 1 / 48, 1 / 64),
                              replicates: int = 40,
                              seed: int = DEFAULT_SEED) -> SurrogateRateResult:
    """Decay of the ensemble-mean quenched error surrogate per mark tail:
    slope >= min(3 beta/5, 3/5) - 0.15, the predicted rate less the tolerance."""
    fits = {}
    for beta in betas:
        marks = MarkDistribution.pareto_for_beta(3, beta)
        spec = lattice_spec(marks, seed=seed)
        theo = theoretical_exponents(3, beta, marks)
        stat = ensemble_run(spec, "det_rhs", epsilons, replicates,
                            params={"delta": theo.delta})
        fits[beta] = fit_rate(stat, theo=theo, tolerance=0.15)
    return SurrogateRateResult(fits)


@dataclass
class DeskSolveResult:
    epsilons: list
    errors: list
    omitted: list
    pinned: list
    verdict: Verdict           # the finest error below the coarsest


def desk_solve_comparison(epsilons=(1 / 6, 1 / 12), grid_n: int = 97,
                          seed: int = DEFAULT_SEED) -> DeskSolveResult:
    """Direct perforated solve against the corrected homogenized solution.

    Unit marks, f = 1; the error is the discrete H1 distance between the
    perforated solution and the corrector times the homogenized solution.
    """
    marks = MarkDistribution.constant(1.0)
    errors, omitted, pinned = [], [], []
    for eps in epsilons:
        spec = lattice_spec(marks, epsilon=eps, seed=seed)
        config = sample_configuration(spec, 0)
        grid = Grid.from_domain(spec.domain, grid_n)
        sol = solve_perforated(config, None, 1.0, grid)
        u_hom = homogenized_solve(c0_constant(spec), 1.0, grid)
        fld = CorrectorField.from_configuration(config, delta=1.0)
        errors.append(homogenization_error(sol.u, fld, u_hom, grid))
        omitted.append(len(sol.omitted_holes))
        pinned.append(sol.pinned_nodes)
    return DeskSolveResult(list(epsilons), errors, omitted, pinned,
                           Verdict(errors[-1], errors[0], "<"))
