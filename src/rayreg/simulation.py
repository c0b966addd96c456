"""Monte Carlo evaluation of the plain and robust estimators.

Three experiments, all paired (both estimators see the identical signal
in every replication):

* `run_table`      bias / mean-square-error tables over (N, epsilon) cells
* `breakdown_curve` total relative bias as the outlier count grows
* `sensitivity_curve` mean absolute sensitivity (MASC) vs outlier value

All three run on one replication engine, `_run`: it splits the
replications into contiguous chunks, runs them serially or one chunk per
worker process, and stacks the per-replication results in replication
order.  Two per-replication functions feed it: `_contaminated_fits` fits
both estimators at each outlier count (a table cell is the single count
``floor(epsilon * N)``), and `_sensitivities` fits the N-1 baseline and
then one contaminated signal per outlier value.  Within a replication,
each sweep fit starts from the fits before it (a continuation start of
`fit_both`: the signals differ in a few values only), from the line through
the two fits before it in the sweep variable where there are two; the
curves then agree with cold-started fits to within the solver's tolerance.

Covariates are drawn once per scenario and held fixed across
replications; each replication derives its own generator from the master
seed through a splitmix64 mixing function, so replications can run in any
order (or in parallel processes) and still reproduce bit-for-bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import distribution
from .estimation import RobustConfig, fit_both
from .regression import DesignMatrix, ModelSpec, get_link

__all__ = [
    "mix_seed",
    "rng_for",
    "ScenarioConfig",
    "MonteCarloReport",
    "ScenarioReport",
    "BreakdownCurve",
    "SensitivityCurve",
    "scenario_design",
    "simulate_signal",
    "run_table",
    "breakdown_curve",
    "sensitivity_curve",
    "format_table",
]

_MASK64 = (1 << 64) - 1

# Stream tags keep covariate draws, replication draws, and scene synthesis
# on disjoint substreams of one master seed.
_COVARIATE_STREAM = 0x636F76  # "cov"
_REPLICATION_STREAM = 0x726570  # "rep"


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(master_seed: int, *indices: int) -> int:
    """Deterministically mix a master seed with stream indices.

    Chained splitmix64 finalizers: collision-free in the last index for a
    fixed prefix, well spread even for consecutive indices.
    """
    h = _splitmix64(int(master_seed) & _MASK64)
    for idx in indices:
        h = _splitmix64(h ^ (int(idx) & _MASK64))
    return h


def rng_for(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for one (master seed, stream) combination."""
    return np.random.default_rng(mix_seed(master_seed, *indices))


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: true model, contamination, and run bookkeeping."""

    beta_true: tuple
    n_obs: int
    epsilon: float = 0.0
    outlier_value: float = 10.0
    replications: int = 1000
    delta: float = RobustConfig.delta
    master_seed: int = 0
    link: str = "log"
    reweight_iterations: int = RobustConfig.reweight_iterations
    max_iter: int = RobustConfig.max_iter
    grad_tol: float = RobustConfig.grad_tol

    def __post_init__(self):
        object.__setattr__(self, "beta_true", tuple(float(b) for b in self.beta_true))
        if len(self.beta_true) < 1:
            raise ValueError("beta_true must contain at least the intercept")
        if not len(self.beta_true) < self.n_obs < math.inf:
            raise ValueError(f"n_obs must exceed the number of parameters, got {self.n_obs}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if not 0.0 < self.outlier_value < math.inf:
            raise ValueError(f"outlier_value must be positive and finite, got {self.outlier_value}")
        if not 1 <= self.replications < math.inf:
            raise ValueError(f"replications must be positive, got {self.replications}")
        get_link(self.link)
        self.robust_config()  # checks the robust fields

    @property
    def n_params(self) -> int:
        return len(self.beta_true)

    @property
    def n_outliers(self) -> int:
        return int(math.floor(self.epsilon * self.n_obs))

    def robust_config(self) -> RobustConfig:
        return RobustConfig(**{f.name: getattr(self, f.name) for f in fields(RobustConfig)})


def scenario_design(cfg: ScenarioConfig) -> DesignMatrix:
    """Intercept plus uniform(0,1) covariates, drawn once per scenario."""
    rng = rng_for(cfg.master_seed, _COVARIATE_STREAM, cfg.n_obs)
    k = cfg.n_params
    X = np.ones((cfg.n_obs, k))
    if k > 1:
        X[:, 1:] = rng.random((cfg.n_obs, k - 1))
    return DesignMatrix(X, ("intercept",) + tuple(f"x{i}" for i in range(2, k + 1)))


def _true_mean(cfg: ScenarioConfig, design: DesignMatrix) -> np.ndarray:
    return get_link(cfg.link).inverse(design.X @ np.asarray(cfg.beta_true))


def _clean_signal_and_perm(cfg, rep_index, mu):
    """Clean inversion sample plus the outlier-position permutation."""
    rng = rng_for(cfg.master_seed, _REPLICATION_STREAM, rep_index)
    y = distribution.quantile(rng.random(cfg.n_obs), mu)
    perm = rng.permutation(cfg.n_obs)
    return y, perm


def simulate_signal(cfg: ScenarioConfig, rep_index: int, design: DesignMatrix | None = None):
    """One replication's signal: inversion draws with outliers written in.

    Returns ``(y, outlier_positions)``; ``floor(epsilon * N)`` positions
    are sampled without replacement and overwritten with
    ``cfg.outlier_value``.  Deterministic in ``(master_seed, rep_index)``.
    """
    design = design or scenario_design(cfg)
    mu = _true_mean(cfg, design)
    y, perm = _clean_signal_and_perm(cfg, rep_index, mu)
    positions = perm[: cfg.n_outliers]
    y[positions] = cfg.outlier_value
    return y, positions


@dataclass(frozen=True)
class MonteCarloReport:
    """Moments of one estimator over the converged replications of a cell."""

    estimator: str
    beta_true: tuple
    mean: tuple
    rb_percent: tuple
    mse: tuple
    absolute_total_rb: float
    absolute_total_mse: float
    convergence_failures: int
    n_used: int


@dataclass(frozen=True)
class ScenarioReport:
    config: ScenarioConfig
    mle: MonteCarloReport
    wmle: MonteCarloReport

    def as_dict(self) -> dict:
        """The cell as ``table.json`` records it: the solver's limits stay out."""
        cell = asdict(self)
        del cell["config"]["max_iter"], cell["config"]["grad_tol"]
        return cell


def _summarize(estimator, beta_true, estimates) -> MonteCarloReport:
    """Aggregate replication estimates; NaN rows mark diverged fits (all: NaN moments)."""
    beta = np.asarray(beta_true)
    ok = ~np.isnan(estimates[:, 0])
    used = estimates[ok] if ok.any() else estimates[:1]  # one NaN row: NaN moments, no warning
    mean = used.mean(axis=0)
    rb = 100.0 * (mean - beta) / beta
    mse = np.mean((used - beta) ** 2, axis=0)
    return MonteCarloReport(
        estimator=estimator,
        beta_true=tuple(beta),
        mean=tuple(float(v) for v in mean),
        rb_percent=tuple(float(v) for v in rb),
        mse=tuple(float(v) for v in mse),
        absolute_total_rb=float(np.sum(np.abs(rb))),
        absolute_total_mse=float(np.sum(mse)),
        convergence_failures=int(np.sum(~ok)),
        n_used=int(np.sum(ok)),
    )


def _fits(spec: ModelSpec, rcfg: RobustConfig, start=None) -> np.ndarray:
    """``fit_both`` as a ``(2, k)`` array, MLE then WMLE; NaN rows mark
    diverged fits.  ``start`` is a continuation start from the sweep (see
    :func:`_next_start`), whose NaN rows start cold."""
    return np.array([fit.beta_hat if fit.converged else np.full(spec.n_params, np.nan)
                     for fit in fit_both(spec, rcfg, start)])


def _next_start(points, fits, first=None):
    """The start at sweep point ``points[len(fits)]`` after ``fits``: ``first``,
    then the fit before, then the line through the two fits before in the
    sweep variable (the fit before, where their points are equal).  A NaN row
    stays NaN, and starts cold."""
    i = len(fits)
    if i < 2:
        return fits[-1] if fits else first
    span = points[i - 1] - points[i - 2]
    return fits[-1] + ((points[i] - points[i - 1]) / span if span else 0.0) * (fits[-1] - fits[-2])


def _contaminated_fits(cfg, counts, design, mu, rcfg, rep) -> np.ndarray:
    """Both fits at every outlier count, nested positions: ``(len(counts), 2, k)``.

    Each count's fits start from those of the counts before it
    (:func:`_next_start`).
    """
    y_clean, perm = _clean_signal_and_perm(cfg, rep, mu)
    out = []
    for count in counts:
        y = y_clean.copy()
        y[perm[:count]] = cfg.outlier_value
        spec = ModelSpec(design=design, link=cfg.link, response=y)
        out.append(_fits(spec, rcfg, _next_start(counts, out)))
    return np.stack(out)


def _sensitivities(cfg, values, design, mu, rcfg, rep) -> np.ndarray:
    """Mean |SC| of both fits at every outlier value: ``(len(values), 2)``.

    The baseline deletes row ``j``; a NaN marks a diverged fit, and a
    diverged baseline makes the whole replication NaN.  The first value's
    fits start from the baseline's, and later values' from the values
    before (:func:`_next_start`, in the squared value).
    """
    rng = rng_for(cfg.master_seed, _REPLICATION_STREAM, rep)
    y = distribution.quantile(rng.random(cfg.n_obs), mu)
    j = int(rng.integers(cfg.n_obs))
    base_design = DesignMatrix(np.delete(design.X, j, axis=0), design.column_names)
    base = _fits(ModelSpec(design=base_design, link=cfg.link, response=np.delete(y, j)), rcfg)
    if np.isnan(base[:, 0]).any():
        return np.full((len(values), 2), np.nan)
    # The outlier's score term, 2(pi/4)(v/mu_j)^2 - 2, moves the fits about linearly in v^2.
    squares = [v * v for v in values]
    fits = []
    for value in values:
        y_cont = y.copy()
        y_cont[j] = value
        spec = ModelSpec(design=design, link=cfg.link, response=y_cont)
        fits.append(_fits(spec, rcfg, _next_start(squares, fits, base)))
    return np.mean(np.abs(cfg.n_obs * (np.reshape(fits, (len(values), *base.shape)) - base)), axis=2)


def _chunk(per_rep, cfg: ScenarioConfig, sweep: tuple, lo: int, hi: int) -> np.ndarray:
    design = scenario_design(cfg)
    mu = _true_mean(cfg, design)
    rcfg = cfg.robust_config()
    return np.stack([per_rep(cfg, sweep, design, mu, rcfg, rep) for rep in range(lo, hi)])


def _run(per_rep, cfg: ScenarioConfig, sweep: tuple, workers: int) -> np.ndarray:
    """``per_rep`` over every replication, stacked in replication order.

    Replications are split into at most ``workers`` contiguous chunks, run
    serially or one worker process per chunk.  Each replication draws from
    its own generator, so the chunking never moves a bit of the result.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    total = cfg.replications
    per = max(1, math.ceil(total / workers))
    jobs = [(per_rep, cfg, sweep, lo, min(lo + per, total)) for lo in range(0, total, per)]
    if workers <= 1 or len(jobs) <= 1:
        parts = [_chunk(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            parts = list(pool.map(_chunk, *zip(*jobs)))
    return np.concatenate(parts)


def _run_cell(cfg: ScenarioConfig, workers: int) -> ScenarioReport:
    est = _run(_contaminated_fits, cfg, (cfg.n_outliers,), workers)[:, 0]
    return ScenarioReport(
        config=cfg,
        mle=_summarize("MLE", cfg.beta_true, est[:, 0]),
        wmle=_summarize("WMLE", cfg.beta_true, est[:, 1]),
    )


def run_table(cfgs, workers: int = 1) -> list[ScenarioReport]:
    """Fit both estimators over every cell of a scenario grid.

    Diverged replications are excluded from the moments and surface in
    ``convergence_failures``; a failing replication never aborts the grid.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("scenario grid is empty")
    return [_run_cell(cfg, workers) for cfg in cfgs]


def _curve_csv(header: str, *columns) -> str:
    """A header line, then one line per point, each value as ``repr`` writes it."""
    return "\n".join([header, *(",".join(map(repr, row)) for row in zip(*columns))]) + "\n"


@dataclass(frozen=True)
class BreakdownCurve:
    """Total |RB%| of each estimator as a function of the outlier count."""

    counts: tuple
    mle_total_rb: tuple
    wmle_total_rb: tuple
    convergence_failures: int

    def to_csv(self) -> str:
        return _curve_csv("outliers,mle_total_rb,wmle_total_rb", self.counts,
                          self.mle_total_rb, self.wmle_total_rb)


def breakdown_curve(cfg: ScenarioConfig, outlier_counts, workers: int = 1) -> BreakdownCurve:
    """Sweep the number of injected outliers at fixed outlier value.

    Outlier positions are nested across counts within a replication (the
    first ``count`` entries of one permutation), so the curve varies only
    through the contamination level, not through position re-draws.
    """
    counts = tuple(int(c) for c in outlier_counts)
    if any(c < 0 for c in counts):
        raise ValueError("outlier counts must be nonnegative")
    if max(counts) >= cfg.n_obs:
        raise ValueError("outlier count must stay below the signal length")
    est = _run(_contaminated_fits, cfg, counts, workers)
    reports = [
        [_summarize(name, cfg.beta_true, est[:, ci, e]) for ci in range(len(counts))]
        for e, name in enumerate(("MLE", "WMLE"))
    ]
    return BreakdownCurve(
        counts=counts,
        mle_total_rb=tuple(r.absolute_total_rb for r in reports[0]),
        wmle_total_rb=tuple(r.absolute_total_rb for r in reports[1]),
        convergence_failures=sum(r.convergence_failures for row in reports for r in row),
    )


@dataclass(frozen=True)
class SensitivityCurve:
    """Mean absolute sensitivity (MASC) per outlier value and estimator."""

    values: tuple
    mle_masc: tuple
    wmle_masc: tuple
    convergence_failures: int

    def to_csv(self) -> str:
        return _curve_csv("outlier_value,mle_masc,wmle_masc", self.values, self.mle_masc,
                          self.wmle_masc)


def sensitivity_curve(cfg: ScenarioConfig, outlier_values, workers: int = 1) -> SensitivityCurve:
    """Estimate shift caused by a single outlier, swept over its value.

    Per replication, a clean signal is drawn, one position ``j`` is
    chosen, the baseline is fitted on the other N-1 observations, and the
    contaminated fit sees all N observations with ``y[j]`` forced to the
    outlier value.  The sensitivity is ``N * (beta_contaminated -
    beta_baseline)``; MASC averages the absolute components over the
    parameters and the replications.  ``cfg.epsilon`` plays no role here.
    """
    values = tuple(float(v) for v in outlier_values)
    if any(v <= 0 for v in values):
        raise ValueError("outlier values must be positive")
    sc = _run(_sensitivities, cfg, values, workers)
    failures = int(np.sum(np.isnan(sc)))
    # numpy adds a contiguous axis pairwise and a strided one in sequence,
    # so the mean over replications runs along a contiguous axis: nanmean's
    # sum and count, without its warning where no replication converged (0/0).
    with np.errstate(invalid="ignore"):
        mle_masc, wmle_masc = (
            np.nansum(sc_e, axis=1) / np.count_nonzero(~np.isnan(sc_e), axis=1)
            for sc_e in (np.ascontiguousarray(sc[:, :, e].T) for e in (0, 1))
        )
    return SensitivityCurve(
        values=values,
        mle_masc=tuple(float(v) for v in mle_masc),
        wmle_masc=tuple(float(v) for v in wmle_masc),
        convergence_failures=failures,
    )


def format_table(reports: list[ScenarioReport]) -> str:
    """Aligned text table of the Monte Carlo results, grouped by N."""
    if not reports:
        return ""
    k = reports[0].config.n_params
    params = [f"b{i + 1}" for i in range(k)]
    width = 11
    header_cells = params + ["abs.total"]
    block = "".join(f"{h:>{width}s}" for h in header_cells)
    lines = []
    lines.append(f"{'':22s}{'WMLE':^{width * (k + 1)}s} {'MLE':^{width * (k + 1)}s}")
    lines.append(f"{'eps':>6s} {'measure':>15s}{block} {block}")
    by_n: dict = {}
    for rep in reports:
        by_n.setdefault(rep.config.n_obs, []).append(rep)
    for n_obs in sorted(by_n):
        lines.append(f"-- N = {n_obs} " + "-" * (8 + 2 * width * (k + 1)))
        for rep in sorted(by_n[n_obs], key=lambda r: r.config.epsilon):
            eps = f"{100 * rep.config.epsilon:g}%"
            rows = [
                ("Mean", "mean", None),
                ("RB(%)", "rb_percent", "absolute_total_rb"),
                ("MSE", "mse", "absolute_total_mse"),
            ]
            for ri, (label, attr, total_attr) in enumerate(rows):
                cells = []
                for est in (rep.wmle, rep.mle):
                    vals = [f"{v:>{width}.4f}" for v in getattr(est, attr)]
                    total = (
                        f"{getattr(est, total_attr):>{width}.4f}"
                        if total_attr
                        else f"{'---':>{width}s}"
                    )
                    cells.append("".join(vals) + total)
                eps_cell = eps if ri == 0 else ""
                lines.append(f"{eps_cell:>6s} {label:>15s}{cells[0]} {cells[1]}")
    return "\n".join(lines) + "\n"
