import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracspec import DomainError, TWO_PI
from fracspec import gsim, specmodel
from fracspec.grid import GridFunction
from fracspec.specmodel import SpectralModel

CONST = SpectralModel.constant(1.0 / TWO_PI)
AR1 = SpectralModel.ar1(0.5)
_LAM = np.linspace(0.0, TWO_PI, 257)
CUSTOM = SpectralModel.custom(
    GridFunction((2.0 + np.cos(_LAM)) / (4.0 * math.pi**2), periodic=True)
)

#: any finite float64; EDGES are the signed zero, the subnormal and the largest ones
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
#: comments with line breaks, which csv_table writes one `# ` line each
COMMENTS = st.lists(st.text(alphabet=st.sampled_from("ab =#,\n\r\x0b\u2028")), max_size=4)


class TestRng:
    def test_deterministic(self):
        a = gsim.make_rng(7, 3).standard_normal(5)
        b = gsim.make_rng(7, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = gsim.make_rng(7, 0).standard_normal(5)
        b = gsim.make_rng(7, 1).standard_normal(5)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("m", [2, 8, 2048, 32768])
    def test_one_draw_is_two_successive_draws(self, m):
        # sample_path draws a and b as one block of 2m normals; the stream
        # gives the same values as two draws of m in a row
        rng = gsim.make_rng(11, 5)
        first, second = rng.standard_normal(m), rng.standard_normal(m)
        both = gsim.make_rng(11, 5).standard_normal(2 * m)
        assert np.array_equal(both, np.concatenate((first, second)))


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

    @pytest.mark.parametrize(
        "model",
        [CONST, AR1, SpectralModel.ar1(-0.5), CUSTOM],
        ids=["constant", "ar1+", "ar1-", "custom"],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 257, 1000, 2048, 16384])
    @pytest.mark.parametrize("mean", [0.0, 2.5])
    def test_matches_complex_ifft_oracle(self, model, n, mean):
        # oracle: sqrt(m) Re ifft(sqrt(eigs) (a + i b))[:n] on the full spectrum
        # of the embedding row, a then b drawn from the path's stream
        seed, stream = 13, 4
        m = 2 * (gsim._embedding_sqrt_eigs(model, n).size - 1)
        r = specmodel.autocovariance_batch(model, m // 2)
        eigs = np.fft.fft(np.concatenate((r, r[-2:0:-1]))).real
        rng = gsim.make_rng(seed, stream)
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        oracle = np.sqrt(m) * np.fft.ifft(np.sqrt(np.clip(eigs, 0.0, None)) * z).real[:n] + mean
        path = gsim.sample_path(model, n, seed, mean=mean, stream=stream).values
        assert np.max(np.abs(path - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @given(st.lists(FINITE, min_size=1, max_size=64), FINITE, st.integers(0, 2**63), COMMENTS)
    @example(EDGES, -0.0, 0, ["one\ntwo", "seed = 3\r\neta", ""])
    @example(EDGES, 5e-324, 1, ["model_id = x\n"])
    @example([1.0], 1.7976931348623157e308, 2, [])
    @settings(max_examples=100, deadline=None)
    def test_csv_round_trip(self, tmp_path_factory, values, mean, seed, comments):
        path = gsim.SamplePath(len(values), np.array(values), seed, AR1.model_id, added_mean=mean)
        f = tmp_path_factory.mktemp("path") / "p.csv"
        f.write_text(path.to_csv_text(comments=comments), encoding="utf-8")
        back = gsim.SamplePath.from_csv(f)
        assert back.values.tobytes() == path.values.tobytes()
        assert np.float64(back.added_mean).tobytes() == np.float64(mean).tobytes()
        assert (back.seed, back.model_id, back.centered) == (seed, path.model_id, False)


def _spike(width: float) -> SpectralModel:
    """A fresh 17-point tabulated spike 0.001 + exp(-(d / width)^2), d the
    circular distance to 0: its first circulant embeddings are indefinite."""
    lam = np.linspace(0.0, TWO_PI, 17)
    dist = np.minimum(lam, TWO_PI - lam)
    values = 0.001 + np.exp(-((dist / width) ** 2))
    return SpectralModel.custom(GridFunction(values, periodic=True))


def _embedding_eigs(model: SpectralModel, m: int) -> np.ndarray:
    r = specmodel.autocovariance_batch(model, m // 2)
    return np.fft.rfft(np.concatenate((r, r[-2:0:-1]))).real


class TestEmbeddingDoublings:
    @pytest.mark.parametrize(
        "width, n, first, doublings", [(0.5, 4, 8, 1), (0.05, 2, 4, gsim.MAX_DOUBLINGS)]
    )
    def test_indefinite_embedding_is_doubled(self, width, n, first, doublings):
        # every embedding below the doubled size m fails the check, and m passes
        model = _spike(width)
        m = first * 2**doublings
        for size in (first * 2**k for k in range(doublings)):
            eigs = _embedding_eigs(model, size)
            assert eigs.min() < gsim.EIG_TOL * eigs.max()
        assert _embedding_eigs(model, m).min() >= 0.0
        assert gsim._embedding_sqrt_eigs(model, n).size == m // 2 + 1
        path = gsim.sample_path(model, n, seed=3)
        assert path.n == n and np.all(np.isfinite(path.values))

    def test_no_doubling_left_is_sampling_error(self, monkeypatch):
        monkeypatch.setattr(gsim, "MAX_DOUBLINGS", 0)
        with pytest.raises(
            gsim.SamplingError,
            match=r"indefinite for model custom_grid\(points=17\) at n=4 after 0 padding",
        ):
            gsim.sample_path(_spike(0.5), 4, seed=3)


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


def _limit_cov() -> specmodel.LimitCovariance:
    return specmodel.limit_covariance(CONST, 0.1, [1.0])


#: (case, name, a call that passes it) of every count, size, seed and stream argument of gsim
_WHOLE_ARGS = (
    ("sample-n", "n", lambda v: gsim.sample_path(AR1, v, seed=0)),
    ("sample-seed", "seed", lambda v: gsim.sample_path(AR1, 64, seed=v)),
    ("rng-seed", "seed", lambda v: gsim.make_rng(v)),
    ("rng-stream", "stream", lambda v: gsim.make_rng(0, v)),
    ("limit-draws", "draws", lambda v: gsim.sample_limit_process(_limit_cov(), 0, v)),
)
_NOT_WHOLE = (64.7, math.nan, math.inf)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: gsim.SamplePath(3, np.zeros(4), seed=0, model_id="x"),
            gsim.SamplingError, "length 4 != n = 3",
        ),
        (
            lambda: gsim.SamplePath(2, np.array([0.0, np.nan]), seed=0, model_id="x"),
            gsim.SamplingError, "sample path contains non-finite values",
        ),
        (lambda: gsim.sample_path(AR1, 0, seed=0), DomainError, "n must be at least 1, got 0"),
        # MAX_N, the bound of every verb, holds for library callers too
        (
            lambda: gsim.sample_path(AR1, specmodel.MAX_N + 1, seed=0), DomainError,
            f"n must be at most {specmodel.MAX_N}, got {specmodel.MAX_N + 1}",
        ),
        *[
            (lambda call=call, bad=bad: call(bad), DomainError,
             f"{name} must be a whole number, got {bad!r}")
            for _, name, call in _WHOLE_ARGS for bad in _NOT_WHOLE
        ],
    ],
    ids=["path-length-not-n", "path-non-finite", "sample-n-0", "sample-n-above-max",
         *[f"{case}-{bad}" for case, _, _ in _WHOLE_ARGS for bad in _NOT_WHOLE]],
)
def test_refusals_name_the_bad_input(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)


def test_whole_number_sizes_of_any_type_draw_the_same_path():
    # the CSV text holds n, the seed and every value
    expected = gsim.sample_path(AR1, 64, seed=3, stream=2).to_csv_text()
    for n, seed, stream in [(np.int64(64), np.int32(3), np.uint8(2)), (64.0, 3.0, 2.0)]:
        path = gsim.sample_path(AR1, n, seed=seed, stream=stream)
        assert (type(path.n), type(path.seed)) == (int, int)
        assert path.to_csv_text() == expected
