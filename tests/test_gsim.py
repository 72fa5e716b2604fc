import math

import numpy as np
import pytest

from fracspec import TWO_PI
from fracspec import gsim, specmodel
from fracspec.specmodel import SpectralModel

CONST = SpectralModel.constant(1.0 / TWO_PI)
AR1 = SpectralModel.ar1(0.5)


class TestRng:
    def test_deterministic(self):
        a = gsim.make_rng(7, 3).standard_normal(5)
        b = gsim.make_rng(7, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = gsim.make_rng(7, 0).standard_normal(5)
        b = gsim.make_rng(7, 1).standard_normal(5)
        assert not np.allclose(a, b)


class TestSamplePath:
    def test_shape_and_determinism(self):
        p1 = gsim.sample_path(AR1, 256, seed=5)
        p2 = gsim.sample_path(AR1, 256, seed=5)
        assert p1.n == 256 and p1.values.shape == (256,)
        np.testing.assert_array_equal(p1.values, p2.values)
        p3 = gsim.sample_path(AR1, 256, seed=6)
        assert not np.allclose(p1.values, p3.values)

    def test_mean_shift(self):
        base = gsim.sample_path(CONST, 64, seed=1)
        shifted = gsim.sample_path(CONST, 64, seed=1, mean=2.5)
        np.testing.assert_allclose(shifted.values - base.values, 2.5, atol=1e-12)

    @pytest.mark.parametrize("model", [CONST, AR1], ids=["constant", "ar1"])
    def test_empirical_covariance_matches_model(self, model):
        # pooled sample covariance over many replications vs exact r(m)
        n, reps = 64, 1500
        acc = np.zeros(3)
        for r in range(reps):
            v = gsim.sample_path(model, n, seed=42, stream=r).values
            for m in range(3):
                acc[m] += v[: n - m] @ v[m:] / (n - m)
        acc /= reps
        exact = specmodel.autocovariance_batch(model, 2)
        np.testing.assert_allclose(acc, exact, atol=0.05)

    def test_csv_round_trip(self, tmp_path):
        path = gsim.sample_path(AR1, 32, seed=9, mean=1.0)
        f = tmp_path / "p.csv"
        f.write_text(path.to_csv_text(comments=["hello"]))
        back = gsim.SamplePath.from_csv(f)
        np.testing.assert_array_equal(back.values, path.values)
        assert back.seed == path.seed
        assert back.model_id == path.model_id


class TestLimitProcess:
    def test_covariance_of_draws(self):
        probes = np.array([math.pi / 2, math.pi, TWO_PI])
        cov = specmodel.limit_covariance(CONST, 0.25, probes)
        draws = gsim.sample_limit_process(cov, seed=0, draws=4000)
        assert draws.shape == (3, 4000)
        emp = np.cov(draws)
        np.testing.assert_allclose(emp, cov.matrix, atol=0.1)

    def test_deterministic(self):
        probes = np.array([1.0, 2.0])
        cov = specmodel.limit_covariance(CONST, 0.1, probes)
        a = gsim.sample_limit_process(cov, seed=4, draws=3)
        b = gsim.sample_limit_process(cov, seed=4, draws=3)
        np.testing.assert_array_equal(a, b)
