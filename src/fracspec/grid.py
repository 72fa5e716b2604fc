"""Uniform-grid function carrier on [0, 2*pi] plus CSV round-trip, and the
one CSV writer every output goes through and the one reader of its tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, NumericalError, _check_whole

TWO_PI = 2.0 * np.pi

#: periodic endpoint values must agree to this tolerance
PERIODIC_TOL = 1e-12

#: evaluation-grid ceiling; finer grids only add quadrature cost
MAX_GRID_POINTS = 65537


def _check_grid_points(num_points: int, key: str, auto: bool) -> int:
    """A grid size of 2 ... MAX_GRID_POINTS as an int, else a refusal naming its
    config key; where auto, 0 asks for the automatic grid and is accepted."""
    if auto and num_points == 0:
        return 0
    return _check_whole(num_points, key, 2, MAX_GRID_POINTS)


def csv_table(header: str, rows: Iterable[Sequence], comments: Sequence[str] = ()) -> str:
    """CSV text: the comments, each of their lines starting with `# `, the
    header line, then one line per row; floats (numpy's included) print with
    17 significant digits, everything else with str. A comment may hold line
    breaks (a config value written over several lines); its lines are split as
    str.splitlines splits them, as _read_table does."""
    lines = [f"# {part}" for line in comments for part in (line.splitlines() or [""])]
    lines.append(header)
    lines += [
        ",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) for row in rows
    ]
    return "\n".join(lines) + "\n"


def _read_table(text: str, header: str) -> tuple[dict[str, str], list[str], np.ndarray]:
    """The one CSV reader, of csv_table's text: the `# key = value` comments as a dict,
    the data rows (blank lines and the header skipped) and their numbers, one column
    per header field. A row that is not exactly that many finite numbers is refused."""
    meta, rows, numbers = {}, [], []
    width = header.count(",") + 1
    try:
        for line in map(str.strip, text.splitlines()):
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
            elif line and line != header:
                rows.append(line)
                if line.count(",") != width - 1:
                    raise ValueError(line)
                numbers += map(float, line.split(","))
    except ValueError:  # the width check, or float() of a field that is no number
        raise DomainError(f"bad CSV row: {line!r}") from None
    numbers = np.array(numbers).reshape(-1, width)
    if (bad := ~np.isfinite(numbers).all(axis=1)).any():
        raise DomainError(f"bad CSV row: {rows[bad.argmax()]!r}")
    return meta, rows, numbers


def even_grid_function(half: np.ndarray, num_points: int, name: str) -> "GridFunction":
    """The periodic grid function even on the circle of m = num_points - 1 points,
    v[m - k] = v[k], from its first m // 2 + 1 values (what one real FFT gives). The
    upper half copies the lower, so v(2 pi - lam) = v(lam) holds exactly. A half that
    is not finite (its FFT overflowed) is a NumericalError naming name."""
    if not np.all(np.isfinite(half)):
        raise NumericalError(f"{name} overflows on the {num_points}-point grid")
    m = num_points - 1
    values = np.concatenate((half, half[(m - 1) // 2 : 0 : -1], half[:1]))
    return GridFunction(values, periodic=True)


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
            raise DomainError(f"periodic grid endpoints differ: {vals[0]:.17g} vs {vals[-1]:.17g}")
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

    # --- CSV serialization: two columns `lambda,value`, 17 significant digits ---

    def to_csv_text(self, comments: Sequence[str] = ()) -> str:
        return csv_table("lambda,value", zip(self.grid.tolist(), self.values.tolist()), comments)

    @classmethod
    def from_csv_text(cls, text: str, periodic: bool = False) -> "GridFunction":
        """Parse `lambda,value` rows; row k must be uniform-grid point k, to 1e-9 of a spacing."""
        _, rows, numbers = _read_table(text, "lambda,value")
        lams, vals = numbers.T
        out = cls(vals, periodic=periodic)
        off_grid = ~(np.abs(lams - out.grid) <= 1e-9 * out.spacing)
        if np.any(off_grid):
            k = int(np.argmax(off_grid))
            raise DomainError(f"bad CSV row: {rows[k]!r} (lambda must be {out.grid[k]:.17g}, "
                              f"point {k} of the uniform {out.num_points}-point grid)")
        return out

    @classmethod
    def from_csv(cls, path: str | Path, periodic: bool = False) -> "GridFunction":
        try:
            return cls.from_csv_text(Path(path).read_text(encoding="utf-8"), periodic=periodic)
        except DomainError as exc:
            raise DomainError(f"{path}: {exc}") from None
