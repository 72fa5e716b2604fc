"""Monte Carlo verification harness of the mc and confidence verbs: bias
decay, covariance convergence, normality, Holder-modulus scaling,
exponential tails, and sup-norm confidence bands."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import fracops, specmodel
from .errors import DomainError, _check_whole
from .estimate import default_grid_points, frac_estimate, periodogram
from .grid import TWO_PI, GridFunction, _check_grid_points, csv_table
from .gsim import _limit_normals, sample_path
from .specmodel import MAX_PROBES, LimitCovariance, SpectralModel, _check_probes, limit_covariance

#: stream-index offsets keeping replication phases disjoint
_STREAM_MC = 1 << 40
_STREAM_CALIBRATION = 2 << 40
_STREAM_COVERAGE = 3 << 40

#: default dyadic window grid for the Holder-modulus ratios
DEFAULT_H_GRID = tuple(TWO_PI * 2.0**-k for k in range(7, 2, -1))

#: fewest points of an mc grid: its spacing must not exceed the narrowest window
_MIN_MC_GRID_POINTS = math.ceil(TWO_PI / min(DEFAULT_H_GRID)) + 1

#: default sup-norm thresholds u of the tail table: 0.5, 1.0, ..., 4.0
DEFAULT_TAIL_GRID = tuple(0.5 * k for k in range(1, 9))

#: probes of the sup-norm band (mc and confidence_band default)
BAND_PROBES = 64

#: limit-process draws calibrating the mc band half-width u0
MC_CALIBRATION_DRAWS = 2000

#: most floats in the probes x draws block of limit-process draws (256 MB; the
#: calibration holds that block and one column block of their product, so about
#: 256 MB at the bound), and in the per-replication records an mc run keeps until
#: it ends
_MAX_CALIBRATION_FLOATS = 1 << 25

#: most floats in one column block of the limit-process draws reduced to sup norms
_SUP_BLOCK_FLOATS = 1 << 15

#: (file name, CSV header, report.json key) of each table of the mc bundle, in
#: writing order; report.json also holds the Fejer bias rows (n, sup_err, bound)
#: under "fejer", which no CSV file does
MC_TABLES = (
    ("bias.csv", "n,lambda,bias", "bias"),
    ("cov.csv", "n,lambda,mu,emp,theory,rel_err", "covariance"),
    ("normality.csv", "n,lambda,ks,p", "normality"),
    ("tails.csv", "n,u,w0,w", "tails"),
    ("holder.csv", "n,h,q95_ratio", "holder"),
    ("confidence.csv", "n,delta,u0,coverage", "confidence"),
)


@dataclass(frozen=True, eq=False)
class McConfig:
    """One Monte Carlo plan, and the one check of each of its values. It holds no
    model, so it is checked before the model is read; run_monte_carlo takes both."""

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
        # None and 0 ask for the automatic grid of each n
        grid_points = _check_grid_points(self.grid_points or 0, "grid_points", auto=True)
        if 0 < grid_points < _MIN_MC_GRID_POINTS:
            raise DomainError(
                f"grid_points must be 0 or at least {_MIN_MC_GRID_POINTS}, so that the "
                f"narrowest Holder window spans a grid step, got {grid_points}"
            )
        n_list = specmodel._check_n_list(self.n_list)
        fracops._check_alpha(self.alpha)
        # each table keys its rows by n, so a repeated size could not be told apart
        repeated = sorted(n for n, count in Counter(n_list).items() if count > 1)
        if repeated:
            raise DomainError(f"n_list must not repeat a size, got {repeated[0]} twice or more")
        # the sample covariance of the probes needs two replications
        replications = _check_whole(self.replications, "replications", 2)
        probes = _check_probes(self.probe_lambdas)
        if any(b <= a for a, b in zip(probes, probes[1:])):
            raise DomainError("probe_lambdas must be strictly increasing")
        # each replication keeps its probe values, three sup statistics and the
        # Holder moduli until the run ends, all within _MAX_CALIBRATION_FLOATS
        most = _MAX_CALIBRATION_FLOATS // (len(probes) + 3 + len(DEFAULT_H_GRID))
        if replications > most:
            raise DomainError(
                f"replications must be at most {most} for {len(probes)} probe_lambdas, "
                f"got {replications}"
            )
        if not (0.0 < self.delta_confidence < 1.0):
            raise DomainError(
                f"delta_confidence must lie in (0, 1), got {self.delta_confidence!r}"
            )
        if any(u <= 0 for u in self.tail_u_grid):
            raise DomainError("tail_u_grid entries must be positive")
        # a nan or inf threshold would put a bare NaN token into report.json
        if not all(math.isfinite(u) for u in self.tail_u_grid):
            raise DomainError(f"tail_u_grid entries must be finite, got {self.tail_u_grid!r}")
        delta, gap = self.holder_delta, 0.5 - self.alpha
        if delta is None:
            # above alpha = 0.49 the floor 0.01 is not below the gap, so take half the gap
            delta = max(gap - 0.05, 0.01) if gap > 0.01 else gap / 2.0
        if not (0.0 < delta < gap):
            raise DomainError(
                f"holder_delta must lie in (0, 1/2 - alpha) = (0, {gap:g}), "
                f"got {self.holder_delta!r}"
            )
        object.__setattr__(self, "grid_points", grid_points or None)
        object.__setattr__(self, "n_list", n_list)
        object.__setattr__(self, "replications", replications)
        object.__setattr__(self, "probe_lambdas", probes)
        object.__setattr__(self, "tail_u_grid", tuple(float(u) for u in self.tail_u_grid))
        object.__setattr__(self, "holder_delta", float(delta))
        object.__setattr__(self, "seed", _check_whole(self.seed, "seed"))


@dataclass
class McReport:
    """Aggregated Monte Carlo results, ready for CSV/JSON emission. `rows` holds
    the rows of each table under its report.json key (MC_TABLES, and "fejer");
    the tails rows are (n, u, w0, w, censored)."""

    seed: int
    model_id: str
    alpha: float
    replications: int
    sup_bias: dict = field(default_factory=dict)  # n -> sup-grid bias
    rows: dict = field(
        default_factory=lambda: {key: [] for *_, key in MC_TABLES} | {"fejer": []}
    )

    def to_json_text(self) -> str:
        payload = {
            "seed": self.seed,
            "model_id": self.model_id,
            "alpha": self.alpha,
            "replications": self.replications,
            "sup_bias": {str(n): v for n, v in sorted(self.sup_bias.items())},
            **self.rows,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def csv_tables(self, comments: Sequence[str]) -> dict[str, str]:
        """CSV text of each table, keyed by file name, each starting with `comments`;
        tails.csv writes `censored` in place of w."""
        rows = dict(self.rows, tails=[
            (n, u, w0, "censored" if censored else w)
            for (n, u, w0, w, censored) in self.rows["tails"]
        ])
        return {name: csv_table(head, rows[key], comments) for name, head, key in MC_TABLES}


def expected_estimate(
    model: SpectralModel, n: int, alpha: float, num_points: int
) -> GridFunction:
    """Exact mean of the fractional estimator: fractional integral of the
    Fejer-smoothed density."""
    fracops._check_alpha(alpha)
    n = _check_whole(n, "n", 1, specmodel.MAX_N)
    num_points = _check_grid_points(num_points, "num_points", auto=False)
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


def _quantile(x: np.ndarray, q: float) -> float:
    """np.quantile(x, q) of finite x with its default linear method
    (Hyndman & Fan type 7), bit for bit: v = (n - 1) q, the order statistics
    j = floor(v) and j + 1 by one partition, and numpy's _lerp between them.
    np.quantile's first call imports numpy.ma (through np.unique), which no
    other step of mc or confidence loads."""
    n = x.size
    v = (n - 1) * q
    j = min(math.floor(v), n - 1)
    kth = [j, min(j + 1, n - 1)]
    a, b = np.partition(x, kth)[kth].tolist()
    d = b - a
    g = v - j
    return a + d * g if g < 0.5 else b - d * (1.0 - g)


def _band_probes(num_probes: int) -> np.ndarray:
    return np.linspace(TWO_PI / num_probes, TWO_PI, num_probes)


#: the probes of the mc band
_MC_BAND = _band_probes(BAND_PROBES)


def _sup_norms(cov: LimitCovariance, seed: int, draws: int) -> np.ndarray:
    """max |limit process| over the probes of each of `draws` draws: the
    normals of gsim.sample_limit_process, multiplied by the factor one column
    block of at most _SUP_BLOCK_FLOATS floats at a time, so the draws' product
    is never held whole. Each column's sum over the probes stays in one BLAS
    kernel, so the values usually match the full product's bits."""
    z = _limit_normals(cov, seed, draws)
    # a power of two, so no block ends inside one of the BLAS kernel's column panels
    width = 1 << max(0, (_SUP_BLOCK_FLOATS // z.shape[0]).bit_length() - 1)
    sups = np.empty(draws)
    for c0 in range(0, draws, width):
        block = cov.factor @ z[:, c0 : c0 + width]
        np.max(np.abs(block, out=block), axis=0, out=sups[c0 : c0 + width])
    return sups


def _band_half_width(
    model: SpectralModel, alpha: float, num_probes: int, real_symmetry: bool,
    seed: int, draws: int, delta: float,
) -> float:
    """u0: the (1 - delta) quantile of the sup over the band probes of |limit
    process|, from `draws` simulated limit-process vectors."""
    cov = limit_covariance(model, alpha, _band_probes(num_probes), real_symmetry=real_symmetry)
    return _quantile(_sup_norms(cov, seed + _STREAM_CALIBRATION, draws), 1.0 - delta)


def _run_block(
    model: SpectralModel, n: int, alpha: float, num_points: int, seed: int,
    probes: tuple[float, ...], mean_values: np.ndarray, truth_values: np.ndarray,
    streams: range,
) -> dict:
    """The per-replication records of one block of streams; run_monte_carlo
    binds every argument but the streams once per n."""
    lam = np.linspace(0.0, TWO_PI, num_points)
    windows = np.array(DEFAULT_H_GRID)
    count = len(streams)
    out = {
        "sum_estimate": np.zeros(num_points),
        "probe_centered": np.empty((count, len(probes))),
        "sup_centered": np.empty(count),
        "sup_deviation": np.empty(count),
        "band_sup_deviation": np.empty(count),
        "holder_moduli": np.empty((count, windows.size)),
    }
    scale = math.sqrt(n)
    for i, values in enumerate(replicate(model, n, alpha, num_points, seed, streams)):
        out["sum_estimate"] += values
        centered = scale * (values - mean_values)
        deviation = scale * (values - truth_values)
        out["probe_centered"][i] = np.interp(probes, lam, centered)
        out["sup_centered"][i] = np.max(np.abs(centered))
        out["sup_deviation"][i] = np.max(np.abs(deviation))
        out["band_sup_deviation"][i] = np.max(np.abs(np.interp(_MC_BAND, lam, deviation)))
        out["holder_moduli"][i] = fracops.modulus_profile(GridFunction(centered), windows)
    return out


def _merge_blocks(blocks: list[dict]) -> dict:
    """Blocks in order: the estimate sums add, per-replication arrays concatenate."""
    merged = {"sum_estimate": sum(b["sum_estimate"] for b in blocks)}
    for key in blocks[0].keys() - merged.keys():
        merged[key] = np.concatenate([b[key] for b in blocks])
    return merged


def run_monte_carlo(model: SpectralModel, config: McConfig, threads: int = 1) -> McReport:
    """Run the full replication plan on the model and aggregate every diagnostic.

    Replications are cut into blocks of at most 64 whatever the worker count,
    and blocks merge in order, so every thread count gives the same bytes.
    """
    from ._kstest import kstest_norm  # imported on use: the other verbs never load it

    threads = _check_whole(threads, "threads")
    alpha = config.alpha
    rep = config.replications
    report = McReport(seed=config.seed, model_id=model.model_id, alpha=alpha, replications=rep)
    rows = report.rows
    u0 = _band_half_width(
        model, alpha, BAND_PROBES, False, config.seed, MC_CALIBRATION_DRAWS,
        config.delta_confidence,
    )

    probe_theory = limit_covariance(model, alpha, config.probe_lambdas)
    # every n's Fejér bias (two floats) before the first replication block, so its
    # temporaries are freed before the blocks allocate; the grids stay per n
    rows["fejer"].extend((n, *specmodel._fejer_bias(model, n)) for n in config.n_list)
    for n_idx, n in enumerate(config.n_list):
        num_points = config.grid_points or default_grid_points(n)
        mean_fn = expected_estimate(model, n, alpha, num_points)
        truth_fn = specmodel.frac_truth_profile(model, alpha, num_points)
        run_block = partial(
            _run_block, model, n, alpha, num_points, config.seed, config.probe_lambdas,
            mean_fn.values, truth_fn.values,
        )
        stream_base = (n_idx + 1) * _STREAM_MC
        streams = range(stream_base, stream_base + rep)
        block_size = math.ceil(rep / math.ceil(rep / 64))
        block_streams = [streams[r0 : r0 + block_size] for r0 in range(0, rep, block_size)]
        # a fork pool starts all its workers at the first submit
        workers = min(max(1, threads), len(block_streams))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                blocks = list(pool.map(run_block, block_streams))
        else:
            blocks = [run_block(s) for s in block_streams]
        agg = _merge_blocks(blocks)

        mean_est = agg["sum_estimate"] / rep
        bias_grid = np.abs(mean_est - truth_fn.values)
        report.sup_bias[n] = float(np.max(bias_grid))
        lam = np.linspace(0.0, TWO_PI, num_points)
        for p in config.probe_lambdas:
            rows["bias"].append((n, p, float(np.interp(p, lam, bias_grid))))

        emp_cov = np.cov(agg["probe_centered"].T).reshape(len(config.probe_lambdas), -1)
        for i, li in enumerate(config.probe_lambdas):
            for j in range(i, len(config.probe_lambdas)):
                theory = float(probe_theory.matrix[i, j])
                emp = float(emp_cov[i, j])
                rel = abs(emp - theory) / abs(theory) if theory else math.inf
                rows["covariance"].append((n, li, config.probe_lambdas[j], emp, theory, rel))

        for i, p in enumerate(config.probe_lambdas):
            sigma = math.sqrt(probe_theory.matrix[i, i])
            ks, pval = kstest_norm(agg["probe_centered"][:, i] / sigma)
            rows["normality"].append((n, p, ks, pval))

        censor = 2.0 / rep
        for u in config.tail_u_grid:
            w0 = float(np.mean(agg["sup_centered"] > u))
            w = float(np.mean(agg["sup_deviation"] > u))
            rows["tails"].append((n, u, w0, w, bool(w < censor)))

        for k, h in enumerate(DEFAULT_H_GRID):
            ratios = agg["holder_moduli"][:, k] / h**config.holder_delta
            rows["holder"].append((n, h, _quantile(ratios, 0.95)))

        coverage = float(np.mean(agg["band_sup_deviation"] <= u0))
        rows["confidence"].append((n, config.delta_confidence, u0, coverage))

    return report


def _check_band(alpha: float, n: int, delta: float = 0.05, calibration_draws: int = 5000,
                replications: int = 400, num_probes: int = BAND_PROBES) -> dict:
    """Refuse a band plan out of bounds, or return it whole, with the defaults
    of the values not given, as confidence_band's keyword arguments. The
    calibration draws are one num_probes x calibration_draws block of floats."""
    n = _check_whole(n, "n", 1, specmodel.MAX_N)
    fracops._check_alpha(alpha)
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    calibration_draws = _check_whole(calibration_draws, "calibration_draws", 1000)
    replications = _check_whole(replications, "replications", 1)
    num_probes = _check_whole(num_probes, "num_probes", 1, MAX_PROBES)
    if num_probes * calibration_draws > _MAX_CALIBRATION_FLOATS:
        raise DomainError(
            f"calibration_draws must be at most {_MAX_CALIBRATION_FLOATS // num_probes} "
            f"for {num_probes} probes, got {calibration_draws}"
        )
    return dict(alpha=alpha, n=n, delta=delta, calibration_draws=calibration_draws,
                replications=replications, num_probes=num_probes)


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
    # the plan's values come back in the order of the signature, the sizes as ints
    alpha, n, delta, calibration_draws, replications, num_probes = _check_band(
        alpha, n, delta, calibration_draws, replications, num_probes).values()
    seed = _check_whole(seed, "seed")
    probes = _band_probes(num_probes)
    u0 = _band_half_width(
        model, alpha, num_probes, real_symmetry, seed, calibration_draws, delta
    )

    num_points = default_grid_points(n)
    # the estimate and the truth are needed only at the probes: when they fall
    # on every step-th grid point, compute them there alone
    step = (num_points - 1) // num_probes if (num_points - 1) % num_probes == 0 else 1
    lam = np.linspace(0.0, TWO_PI, (num_points - 1) // step + 1)
    truth = specmodel.frac_truth_profile(model, alpha, num_points, step)
    truth_probes = np.interp(probes, lam, truth.values)
    hit = 0
    half_width = u0 / math.sqrt(n)
    streams = range(_STREAM_COVERAGE, _STREAM_COVERAGE + replications)
    for values in replicate(model, n, alpha, num_points, seed, streams, step):
        dev = np.max(np.abs(np.interp(probes, lam, values) - truth_probes))
        hit += dev <= half_width
    return u0, hit / replications
