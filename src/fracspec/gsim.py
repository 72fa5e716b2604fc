"""Exact simulation of stationary Gaussian sequences and of the limit process.

Stationary paths come from circulant embedding of the autocovariance sequence,
which is exact in law whenever the embedding is nonnegative definite; padding
is doubled (up to a cap) until it is. A path is the real part of
ifft(sqrt(eigs) * (a + i b)) for two blocks a, b of standard normals; it is
computed as one real inverse FFT of the Hermitian part of that spectrum,
which takes the same draws. Randomness is drawn from the counter-based Philox
generator keyed by (seed, stream), so replications are reproducible
independently of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, SamplingError, _check_whole
from .grid import _read_table, csv_table
from .specmodel import MAX_N, LimitCovariance, SpectralModel, autocovariance_batch

#: embedding eigenvalues above this are clipped to 0, below it the embedding fails
EIG_TOL = -1e-8

#: maximum number of padding doublings before giving up
MAX_DOUBLINGS = 6


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream)."""
    seed, stream = _check_whole(seed, "seed"), _check_whole(stream, "stream")
    key = (seed & 0xFFFFFFFFFFFFFFFF) | ((stream & 0xFFFFFFFFFFFFFFFF) << 64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One realization of the stationary Gaussian sequence plus provenance."""

    n: int
    values: np.ndarray
    seed: int
    model_id: str
    centered: bool = False
    added_mean: float = 0.0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.size != self.n:
            raise SamplingError(f"length {vals.size} != n = {self.n}")
        if not np.all(np.isfinite(vals)):
            raise SamplingError("sample path contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def to_csv_text(self, comments: Sequence[str] = ()) -> str:
        meta = [
            f"seed = {self.seed}",
            f"model_id = {self.model_id}",
            f"centered = {self.centered}",
            f"added_mean = {self.added_mean:.17g}",
        ]
        return csv_table("eta", ((v,) for v in self.values.tolist()), [*comments, *meta])

    @classmethod
    def from_csv(cls, path: str | Path) -> "SamplePath":
        """Read a path CSV, which needs `# seed` and `# model_id` lines; a refusal names it."""
        try:
            meta, _, values = _read_table(Path(path).read_text(encoding="utf-8"), "eta")
            for key in ("seed", "model_id"):
                if key not in meta:
                    raise DomainError(f"missing '# {key} = ...' line")
            if not values.size:
                raise DomainError("the path is empty (no sample values)")
            seed, added_mean = int(meta["seed"]), float(meta.get("added_mean", "0"))
            if not math.isfinite(added_mean):
                raise ValueError(f"added_mean must be finite, got {meta['added_mean']!r}")
        except DomainError as exc:  # before ValueError, its base
            raise DomainError(f"{path}: {exc}") from None
        except ValueError as exc:
            raise DomainError(f"{path}: bad header value: {exc}") from None
        return cls(n=values.size, values=values[:, 0], seed=seed, model_id=meta["model_id"],
                   centered=meta.get("centered") == "True", added_mean=added_mean)


@lru_cache(maxsize=32)
def _embedding_sqrt_eigs(model: SpectralModel, n: int) -> np.ndarray:
    """sqrt of the circulant eigenvalues k = 0 .. m/2 of an m-point embedding
    of r(0..n-1); the embedding row is symmetric, so eigenvalue m - k is
    eigenvalue k."""
    m = 1
    while m < 2 * n:
        m *= 2
    for _ in range(MAX_DOUBLINGS + 1):
        r = autocovariance_batch(model, m // 2)
        circ = np.concatenate((r, r[-2:0:-1]))
        eigs = np.fft.rfft(circ).real
        if eigs.min() >= EIG_TOL * max(1.0, eigs.max()):
            out = np.sqrt(np.clip(eigs, 0.0, None))
            out.setflags(write=False)
            return out
        m *= 2
    raise SamplingError(
        f"circulant embedding stayed indefinite for model {model.model_id} at n={n} "
        f"after {MAX_DOUBLINGS} padding doublings (min eigenvalue {eigs.min():g})"
    )


def sample_path(
    model: SpectralModel, n: int, seed: int, mean: float = 0.0, stream: int = 0
) -> SamplePath:
    """Draw one exact stationary Gaussian path of length n with the given mean."""
    n, seed = _check_whole(n, "n", 1, MAX_N), _check_whole(seed, "seed")
    sqrt_eigs = _embedding_sqrt_eigs(model, n)
    half = sqrt_eigs.size - 1
    m = 2 * half
    # the path is Re ifft(s (a + i b)) with a, b the two halves of one draw;
    # that is ifft of the Hermitian part H_k = s_k/2 [(a_k + a_{m-k}) + i (b_k - b_{m-k})],
    # which one real inverse FFT of H_0 .. H_{m/2} computes
    draws = make_rng(seed, stream).standard_normal(2 * m)
    a, b = draws[:m], draws[m:]
    spectrum = np.empty(half + 1, dtype=complex)
    spectrum.real = a[: half + 1]
    spectrum.real[1:] += a[: half - 1 : -1]
    spectrum.real[0] *= 2.0
    spectrum.imag = b[: half + 1]
    spectrum.imag[1:] -= b[: half - 1 : -1]
    spectrum.imag[0] = 0.0
    spectrum *= 0.5 * sqrt_eigs
    path = np.sqrt(m) * np.fft.irfft(spectrum, m)[:n] + mean
    return SamplePath(n=n, values=path, seed=seed, model_id=model.model_id, added_mean=mean)


def _limit_normals(cov: LimitCovariance, seed: int, draws: int) -> np.ndarray:
    """The standard normals behind `draws` limit-process draws, one column per
    draw, from the generator keyed by `seed`; draw k is cov.factor @ z[:, k]."""
    return make_rng(seed).standard_normal((cov.factor.shape[1], _check_whole(draws, "draws", 0)))


def sample_limit_process(cov: LimitCovariance, seed: int, draws: int) -> np.ndarray:
    """`draws` independent draws of the limit Gaussian process on the probe
    grid, one per column, from the generator keyed by `seed`."""
    return cov.factor @ _limit_normals(cov, seed, draws)
