"""The package's public surface and its one whole-number check, read from the source."""

import ast
from pathlib import Path

import fracspec

SRC = Path(fracspec.__file__).parent

#: every public function, class and method outside errors.py (50); a change that adds
#: or removes one updates this list, so each change's surface count is its length
PUBLIC_SURFACE = [
    "_kstest.kstest_norm",
    "cli.main",
    "estimate.default_grid_points",
    "estimate.periodogram",
    "estimate.empirical_spectral_function",
    "estimate.frac_estimate",
    "fracops.frac_integral",
    "fracops.frac_derivative",
    "fracops.modulus_of_continuity",
    "fracops.modulus_profile",
    "grid.csv_table",
    "grid.even_grid_function",
    "grid.GridFunction",
    "grid.GridFunction.num_points",
    "grid.GridFunction.spacing",
    "grid.GridFunction.grid",
    "grid.GridFunction.to_csv_text",
    "grid.GridFunction.from_csv_text",
    "grid.GridFunction.from_csv",
    "gsim.make_rng",
    "gsim.SamplePath",
    "gsim.SamplePath.to_csv_text",
    "gsim.SamplePath.from_csv",
    "gsim.sample_path",
    "gsim.sample_limit_process",
    "specmodel.SpectralModel",
    "specmodel.SpectralModel.constant",
    "specmodel.SpectralModel.ar1",
    "specmodel.SpectralModel.custom",
    "specmodel.SpectralModel.model_id",
    "specmodel.SpectralModel.density",
    "specmodel.SpectralModel.density_grid",
    "specmodel.autocovariance_batch",
    "specmodel.spectral_profile",
    "specmodel.frac_truth_profile",
    "specmodel.fejer_kernel",
    "specmodel.expected_periodogram",
    "specmodel.beta_sq",
    "specmodel.LimitCovariance",
    "specmodel.LimitCovariance.to_csv_text",
    "specmodel.theta_point",
    "specmodel.limit_covariance",
    "verify.McConfig",
    "verify.McReport",
    "verify.McReport.to_json_text",
    "verify.McReport.csv_tables",
    "verify.expected_estimate",
    "verify.replicate",
    "verify.run_monte_carlo",
    "verify.confidence_band",
]


def _public_names() -> list[str]:
    """Module-level functions and classes whose names do not start with `_`, and
    such methods of those classes, in source order, module by module."""
    names = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                names.append(f"{path.stem}.{node.name}")
                names += [f"{path.stem}.{node.name}.{sub.name}" for sub in node.body
                          if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_"]
    return names


def test_public_surface_is_pinned():
    assert _public_names() == PUBLIC_SURFACE


def test_whole_number_rule_is_written_once():
    # errors._check_whole is the one check of every count, size, seed and stream
    owners = [m.name for m in sorted(SRC.glob("*.py")) if "must be a whole number" in m.read_text()]
    assert owners == ["errors.py"]
