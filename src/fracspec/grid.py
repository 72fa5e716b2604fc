"""Uniform-grid function carrier on [0, 2*pi] plus CSV round-trip."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * np.pi

#: periodic endpoint values must agree to this tolerance
PERIODIC_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real function sampled on a uniform grid over [0, 2*pi], endpoints included."""

    values: np.ndarray
    periodic: bool = False

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError(f"grid needs at least 2 points, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid values must be finite")
        if self.periodic and abs(vals[0] - vals[-1]) > PERIODIC_TOL:
            raise DomainError(
                f"periodic grid endpoints differ: {vals[0]!r} vs {vals[-1]!r}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def num_points(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        return TWO_PI / (self.num_points - 1)

    @cached_property
    def grid(self) -> np.ndarray:
        g = np.linspace(0.0, TWO_PI, self.num_points)
        g.setflags(write=False)
        return g

    @classmethod
    def from_callable(
        cls, fn: Callable[[np.ndarray], np.ndarray], num_points: int, periodic: bool = False
    ) -> "GridFunction":
        lam = np.linspace(0.0, TWO_PI, num_points)
        return cls(np.asarray(fn(lam), dtype=float), periodic=periodic)

    def interp(self, lam) -> np.ndarray | float:
        """Piecewise-linear interpolation at points inside [0, 2*pi]."""
        lam_arr = np.asarray(lam, dtype=float)
        if np.any(lam_arr < -1e-12) or np.any(lam_arr > TWO_PI + 1e-12):
            raise DomainError("interpolation point outside [0, 2*pi]")
        out = np.interp(np.clip(lam_arr, 0.0, TWO_PI), self.grid, self.values)
        return float(out) if np.isscalar(lam) or lam_arr.ndim == 0 else out

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray], periodic: bool | None = None) -> "GridFunction":
        new = np.asarray(fn(self.values), dtype=float)
        return GridFunction(new, periodic=self.periodic if periodic is None else periodic)

    # --- CSV serialization: two columns `lambda,value`, 17 significant digits ---

    def to_csv_text(self, comments: Sequence[str] = ()) -> str:
        buf = io.StringIO()
        for line in comments:
            buf.write(f"# {line}\n")
        buf.write("lambda,value\n")
        for lam, v in zip(self.grid, self.values):
            buf.write(f"{lam:.17g},{v:.17g}\n")
        return buf.getvalue()

    def to_csv(self, path: str | Path, comments: Sequence[str] = ()) -> None:
        Path(path).write_text(self.to_csv_text(comments), encoding="utf-8")

    @classmethod
    def from_csv_text(cls, text: str, periodic: bool = False) -> "GridFunction":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("lambda"):
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise DomainError(f"bad CSV row: {line!r}")
            rows.append(float(fields[1]))
        return cls(np.array(rows), periodic=periodic)

    @classmethod
    def from_csv(cls, path: str | Path, periodic: bool = False) -> "GridFunction":
        return cls.from_csv_text(Path(path).read_text(encoding="utf-8"), periodic=periodic)
