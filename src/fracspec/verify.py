"""Monte Carlo verification harness: bias decay, covariance convergence,
normality, Holder-modulus scaling, exponential tails, Fejer bias, and
sup-norm confidence bands."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import fracops, specmodel
from .errors import DomainError
from .estimate import default_grid_points, frac_estimate, periodogram
from .grid import TWO_PI, GridFunction, csv_table
from .gsim import sample_limit_process, sample_path
from .specmodel import SpectralModel, limit_covariance, theta_point

#: stream-index offsets keeping replication phases disjoint
_STREAM_MC = 1 << 40
_STREAM_CALIBRATION = 2 << 40
_STREAM_COVERAGE = 3 << 40

#: default dyadic window grid for the Holder-modulus ratios
DEFAULT_H_GRID = tuple(TWO_PI * 2.0**-k for k in range(7, 2, -1))

#: default sup-norm thresholds u of the tail table: 0.5, 1.0, ..., 4.0
DEFAULT_TAIL_GRID = tuple(0.5 * k for k in range(1, 9))

#: probes of the sup-norm band (mc and confidence_band default)
BAND_PROBES = 64

#: most band probes the confidence verb accepts: the covariance has
#: MAX_PROBES (MAX_PROBES + 1) / 2 probe pairs
MAX_PROBES = 1024

#: limit-process draws calibrating the mc band half-width u0
MC_CALIBRATION_DRAWS = 2000

#: (file name, CSV header) of each table of the mc bundle, in writing order
MC_TABLES = (
    ("bias.csv", "n,lambda,bias"),
    ("cov.csv", "n,lambda,mu,emp,theory,rel_err"),
    ("normality.csv", "n,lambda,ks,p"),
    ("tails.csv", "n,u,w0,w"),
    ("holder.csv", "n,h,q95_ratio"),
    ("confidence.csv", "n,delta,u0,coverage"),
)


@dataclass(frozen=True, eq=False)
class McConfig:
    """One Monte Carlo experiment: model, estimator order, sizes, replication plan."""

    model: SpectralModel
    alpha: float
    n_list: tuple[int, ...]
    replications: int
    probe_lambdas: tuple[float, ...] = (math.pi / 2, math.pi)
    seed: int = 0
    tail_u_grid: tuple[float, ...] = DEFAULT_TAIL_GRID
    holder_delta: float | None = None
    delta_confidence: float = 0.05
    grid_points: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < 0.5):
            raise DomainError(
                f"alpha must lie in the well-posed range [0, 1/2), got {self.alpha!r}"
            )
        if not self.n_list or any(int(n) < 1 for n in self.n_list):
            raise DomainError(f"n_list must hold positive integers, got {self.n_list!r}")
        if int(self.replications) < 2:
            # the sample covariance of the probes needs two replications
            raise DomainError(f"replications must be at least 2, got {self.replications!r}")
        probes = tuple(float(x) for x in self.probe_lambdas)
        if any(not (0.0 < p <= TWO_PI) for p in probes):
            raise DomainError(f"probe_lambdas must lie in (0, 2*pi], got {probes!r}")
        if any(b <= a for a, b in zip(probes, probes[1:])):
            raise DomainError("probe_lambdas must be strictly increasing")
        if not (0.0 < self.delta_confidence < 1.0):
            raise DomainError(
                f"delta_confidence must lie in (0, 1), got {self.delta_confidence!r}"
            )
        if any(u <= 0 for u in self.tail_u_grid):
            raise DomainError("tail_u_grid entries must be positive")
        delta = self.holder_delta
        if delta is None:
            delta = max(0.5 - self.alpha - 0.05, 0.01)
        if not (0.0 < delta < 0.5 - self.alpha) and not (self.alpha == 0.0 and delta < 0.5):
            raise DomainError(
                f"holder_delta must lie in (0, 1/2 - alpha) = (0, {0.5 - self.alpha:g}), "
                f"got {self.holder_delta!r}"
            )
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "probe_lambdas", probes)
        object.__setattr__(self, "tail_u_grid", tuple(float(u) for u in self.tail_u_grid))
        object.__setattr__(self, "holder_delta", float(delta))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass
class McReport:
    """Aggregated Monte Carlo results, ready for CSV/JSON emission."""

    seed: int
    model_id: str
    alpha: float
    replications: int
    bias_rows: list = field(default_factory=list)  # (n, lambda, bias)
    sup_bias: dict = field(default_factory=dict)  # n -> sup-grid bias
    cov_rows: list = field(default_factory=list)  # (n, lam, mu, emp, theory, rel_err)
    normality_rows: list = field(default_factory=list)  # (n, lam, ks, p)
    tail_rows: list = field(default_factory=list)  # (n, u, w0, w, censored)
    holder_rows: list = field(default_factory=list)  # (n, h, q95_ratio)
    fejer_rows: list = field(default_factory=list)  # (n, sup_err, bound)
    confidence_rows: list = field(default_factory=list)  # (n, delta, u0, coverage)

    def to_json_text(self) -> str:
        payload = {
            "seed": self.seed,
            "model_id": self.model_id,
            "alpha": self.alpha,
            "replications": self.replications,
            "sup_bias": {str(n): v for n, v in sorted(self.sup_bias.items())},
            "bias": self.bias_rows,
            "covariance": self.cov_rows,
            "normality": self.normality_rows,
            "tails": self.tail_rows,
            "holder": self.holder_rows,
            "fejer": self.fejer_rows,
            "confidence": self.confidence_rows,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def csv_tables(self, comments: Sequence[str]) -> dict[str, str]:
        """CSV text of each table, keyed by file name, each starting with `comments`."""
        tails = [
            (n, u, w0, "censored" if censored else w)
            for (n, u, w0, w, censored) in self.tail_rows
        ]
        rows = (self.bias_rows, self.cov_rows, self.normality_rows, tails, self.holder_rows,
                self.confidence_rows)
        return {name: csv_table(head, r, comments) for (name, head), r in zip(MC_TABLES, rows)}


def expected_estimate(
    model: SpectralModel, n: int, alpha: float, num_points: int
) -> GridFunction:
    """Exact mean of the fractional estimator: fractional integral of the
    Fejer-smoothed density."""
    smoothed = specmodel.expected_periodogram(model, n, num_points)
    return fracops.frac_integral(smoothed, 1.0 - alpha)


def replicate(
    model: SpectralModel, n: int, alpha: float, num_points: int, seed: int,
    streams: Iterable[int], step: int = 1,
) -> Iterator[np.ndarray]:
    """The replication kernel: for each stream in the order given, draw the
    path keyed by (seed, stream) and yield the values of its fractional
    estimate (path -> periodogram -> fractional integral of order 1 - alpha)
    at every `step`-th grid point."""
    for stream in streams:
        path = sample_path(model, n, seed, stream=stream)
        yield frac_estimate(periodogram(path, num_points), alpha, step).values


def _band_probes(num_probes: int) -> np.ndarray:
    return np.linspace(TWO_PI / num_probes, TWO_PI, num_probes)


def _band_half_width(
    model: SpectralModel, alpha: float, num_probes: int, real_symmetry: bool,
    seed: int, draws: int, delta: float,
) -> float:
    """u0: the (1 - delta) quantile of the sup over the band probes of |limit
    process|, from `draws` simulated limit-process vectors."""
    cov = limit_covariance(model, alpha, _band_probes(num_probes), real_symmetry=real_symmetry)
    sims = sample_limit_process(cov, seed + _STREAM_CALIBRATION, draws)
    return float(np.quantile(np.max(np.abs(sims), axis=0), 1.0 - delta))


def _run_block(
    model: SpectralModel,
    n: int,
    alpha: float,
    num_points: int,
    seed: int,
    streams: range,
    probes: tuple[float, ...],
    band_probes: np.ndarray,
    h_grid: tuple[float, ...],
    mean_values: np.ndarray,
    truth_values: np.ndarray,
) -> dict:
    lam = np.linspace(0.0, TWO_PI, num_points)
    count = len(streams)
    out = {
        "sum_estimate": np.zeros(num_points),
        "probe_centered": np.empty((count, len(probes))),
        "sup_centered": np.empty(count),
        "sup_deviation": np.empty(count),
        "band_sup_deviation": np.empty(count),
        "holder_moduli": np.empty((count, len(h_grid))),
    }
    scale = math.sqrt(n)
    for i, values in enumerate(replicate(model, n, alpha, num_points, seed, streams)):
        out["sum_estimate"] += values
        centered = scale * (values - mean_values)
        deviation = scale * (values - truth_values)
        out["probe_centered"][i] = np.interp(probes, lam, centered)
        out["sup_centered"][i] = np.max(np.abs(centered))
        out["sup_deviation"][i] = np.max(np.abs(deviation))
        out["band_sup_deviation"][i] = np.max(np.abs(np.interp(band_probes, lam, deviation)))
        out["holder_moduli"][i] = fracops.modulus_profile(GridFunction(centered), np.array(h_grid))
    return out


def _merge_blocks(blocks: list[dict]) -> dict:
    """Blocks in order: the estimate sums add, per-replication arrays concatenate."""
    merged = {"sum_estimate": sum(b["sum_estimate"] for b in blocks)}
    for key in blocks[0].keys() - merged.keys():
        merged[key] = np.concatenate([b[key] for b in blocks])
    return merged


def _fejer_bias(model: SpectralModel, n: int) -> tuple[float, float]:
    """(sup |Fejer-smoothed f - f|, omega(f, 1/n) |ln omega(f, 1/n)|)."""
    pts = int(math.ceil(TWO_PI * n)) + 2
    dens = model.density_grid(pts)
    smoothed = specmodel.expected_periodogram(model, n, pts)
    sup_err = float(np.max(np.abs(smoothed.values - dens.values)))
    omega = fracops.modulus_of_continuity(dens, max(1.0 / n, dens.spacing))
    bound = omega * abs(math.log(omega)) if omega > 0 else 0.0
    return sup_err, bound


def run_monte_carlo(config: McConfig, threads: int = 1) -> McReport:
    """Run the full replication plan and aggregate every diagnostic.

    Replications are cut into blocks of at most 64 whatever the worker count,
    and blocks merge in order, so every thread count gives the same bytes.
    """
    from ._kstest import kstest_norm  # imported on use: the other verbs never load it

    model = config.model
    alpha = config.alpha
    rep = config.replications
    report = McReport(
        seed=config.seed,
        model_id=model.model_id,
        alpha=alpha,
        replications=rep,
    )
    h_grid = DEFAULT_H_GRID
    band_probes = _band_probes(BAND_PROBES)
    u0 = _band_half_width(
        model, alpha, BAND_PROBES, False, config.seed, MC_CALIBRATION_DRAWS,
        config.delta_confidence,
    )

    probe_theory = limit_covariance(model, alpha, np.array(config.probe_lambdas))
    for n_idx, n in enumerate(config.n_list):
        num_points = config.grid_points or default_grid_points(n)
        mean_fn = expected_estimate(model, n, alpha, num_points)
        truth_fn = specmodel.frac_truth_profile(model, alpha, num_points)
        stream_base = (n_idx + 1) * _STREAM_MC
        block_args = []
        workers = max(1, int(threads))
        block_size = math.ceil(rep / math.ceil(rep / 64))
        for r0 in range(stream_base, stream_base + rep, block_size):
            block_args.append(
                (
                    model, n, alpha, num_points, config.seed,
                    range(r0, min(r0 + block_size, stream_base + rep)), config.probe_lambdas,
                    band_probes, h_grid, mean_fn.values, truth_fn.values,
                )
            )
        if workers > 1 and len(block_args) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                blocks = list(pool.map(_run_block, *zip(*block_args)))
        else:
            blocks = [_run_block(*args) for args in block_args]
        agg = _merge_blocks(blocks)

        mean_est = agg["sum_estimate"] / rep
        bias_grid = np.abs(mean_est - truth_fn.values)
        report.sup_bias[n] = float(np.max(bias_grid))
        lam = np.linspace(0.0, TWO_PI, num_points)
        for p in config.probe_lambdas:
            report.bias_rows.append((n, p, float(np.interp(p, lam, bias_grid))))

        emp_cov = np.cov(agg["probe_centered"].T).reshape(len(config.probe_lambdas), -1)
        for i, li in enumerate(config.probe_lambdas):
            for j in range(i, len(config.probe_lambdas)):
                theory = float(probe_theory.matrix[i, j])
                emp = float(emp_cov[i, j])
                rel = abs(emp - theory) / abs(theory) if theory else math.inf
                report.cov_rows.append((n, li, config.probe_lambdas[j], emp, theory, rel))

        for i, p in enumerate(config.probe_lambdas):
            sigma = math.sqrt(theta_point(model, alpha, p, p))
            ks, pval = kstest_norm(agg["probe_centered"][:, i] / sigma)
            report.normality_rows.append((n, p, ks, pval))

        censor = 2.0 / rep
        for u in config.tail_u_grid:
            w0 = float(np.mean(agg["sup_centered"] > u))
            w = float(np.mean(agg["sup_deviation"] > u))
            report.tail_rows.append((n, u, w0, w, bool(w < censor)))

        for k, h in enumerate(h_grid):
            ratios = agg["holder_moduli"][:, k] / h**config.holder_delta
            report.holder_rows.append((n, h, float(np.quantile(ratios, 0.95))))

        report.fejer_rows.append((n, *_fejer_bias(model, n)))
        coverage = float(np.mean(agg["band_sup_deviation"] <= u0))
        report.confidence_rows.append((n, config.delta_confidence, u0, coverage))

    return report


def confidence_band(
    model: SpectralModel,
    alpha: float,
    n: int,
    delta: float,
    calibration_draws: int,
    seed: int,
    replications: int = 400,
    num_probes: int = BAND_PROBES,
    real_symmetry: bool = False,
) -> tuple[float, float]:
    """Sup-norm band half-width u0 (via simulated limit-process quantiles) and
    the empirical coverage of the band over fresh replications."""
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    if calibration_draws < 1000:
        raise DomainError(f"calibration_draws must be >= 1000, got {calibration_draws!r}")
    if replications < 1:
        raise DomainError(f"replications must be at least 1, got {replications!r}")
    if not 1 <= num_probes <= MAX_PROBES:
        raise DomainError(f"num_probes must be between 1 and {MAX_PROBES}, got {num_probes!r}")
    probes = _band_probes(num_probes)
    u0 = _band_half_width(
        model, alpha, num_probes, real_symmetry, seed, calibration_draws, delta
    )

    num_points = default_grid_points(n)
    # the estimate is needed only at the probes: when they fall on every
    # step-th grid point, compute it there alone
    step = (num_points - 1) // num_probes if (num_points - 1) % num_probes == 0 else 1
    lam = np.linspace(0.0, TWO_PI, (num_points - 1) // step + 1)
    truth = specmodel.frac_truth_profile(model, alpha, num_points)
    truth_probes = np.interp(probes, lam, truth.values[::step])
    hit = 0
    half_width = u0 / math.sqrt(n)
    streams = range(_STREAM_COVERAGE, _STREAM_COVERAGE + replications)
    for values in replicate(model, n, alpha, num_points, seed, streams, step):
        dev = np.max(np.abs(np.interp(probes, lam, values) - truth_probes))
        hit += dev <= half_width
    return u0, hit / replications
